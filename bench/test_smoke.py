"""Smoke test of the benchmark harness: tiny inputs, every correctness check.

Run from the repository root with either of
    python3 -m pytest bench/test_smoke.py
    python3 -m unittest discover -s bench -p "test_*.py"
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *SPEC["command"][1:], *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


class SmokeTest(unittest.TestCase):
    def check(self, workload: str, trace: int) -> None:
        proc = bench("--workload", workload, "--seed", "5", "--seconds", "1",
                     "--trace", str(trace), "--smoke")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"], proc.stderr)
        self.assertGreater(result["attempted"], 0)
        self.assertEqual(result["failed"], 0)
        declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
        reported = {name: m["unit"] for name, m in result["metrics"].items()}
        self.assertEqual(reported, declared)
        for name, metric in result["metrics"].items():
            self.assertGreater(metric["value"], 0, name)

    def test_every_workload_untraced(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                self.check(workload, 0)

    def test_every_workload_traced(self):
        for workload in (w["name"] for w in SPEC["workloads"]):
            with self.subTest(workload=workload):
                self.check(workload, 1)

    def test_fails_without_package_source(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            for path in SPEC["paths"]:
                shutil.copytree(ROOT / path, Path(tmp) / path,
                                ignore=shutil.ignore_patterns("__pycache__"))
            proc = bench("--workload", SPEC["workloads"][0]["name"], "--seed", "1",
                         "--seconds", "1", "--trace", "0", cwd=Path(tmp))
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"metrics"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
