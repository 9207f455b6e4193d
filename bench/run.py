#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the statetrail package.

Usage, from the repository root:

    python3 bench/run.py --workload {execute,rebuild,cli} --seed N \
        --seconds S --trace {0,1} [--smoke]
    python3 bench/run.py --sweep [--seed N]

A run is one process with at most one child process at a time. After a
timed set-up it repeats whole rounds for --seconds; a round runs the
workload's schedule of slots, each on inputs made from --seed:

  exec     one episode of seeded round-robin walks through
           Engine.fire_and_register on a fresh file-backed ledger;
  rebuild  one independent party (Ledger.open -> Tracker.catch_up ->
           verify_protocol on every instance -> export), then one
           verify_chain_file, over a prepared chain with planted faults;
  cli      `python -m statetrail.cli instance step` subprocesses on two
           live instances, then `protocol verify` on the long instance.

Every schedule holds every slot, so every run reports every end-to-end
metric, sampled across the whole run; the workload decides which slot
dominates and how large the inputs are. Outputs are checked against the
independent reference in reference.py. The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}; --trace 1
reports the per-layer metrics from timing wrappers (tracing.py) instead,
and writes the spans to .bench_out/.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
import reference as ref  # noqa: E402
from tracing import Tracer  # noqa: E402

LEDGER_FILE = "ledger.jsonl"
STORE_DIR = "store"

# The demo conveyor, as statetrail.demo_model() builds it.
CONVEYOR_DOC = {
    "name": "conveyor",
    "states": ["idle", "loading", "moving"],
    "initial": "idle",
    "finals": [],
    "variables": {"items": 0},
    "transitions": [
        {"id": "t_load", "from": "idle", "to": "loading", "effect": {"var": "items", "add": 1}},
        {"id": "t_more", "from": "loading", "to": "loading",
         "effect": {"var": "items", "add": 1}},
        {"id": "t_dispatch", "from": "loading", "to": "moving",
         "guard": {"var": "items", "op": ">=", "value": 1}},
        {"id": "t_deliver", "from": "moving", "to": "idle",
         "effect": {"var": "items", "add": -1}},
        {"id": "t_return", "from": "moving", "to": "loading"},
    ],
}

# The conveyor with every effect five times larger: firing it on a
# conveyor instance registers a post-state no conveyor transition explains.
ILLEGAL_DOC = dict(CONVEYOR_DOC, transitions=[
    dict(t, effect={"var": t["effect"]["var"], "add": 5 * t["effect"]["add"]})
    if "effect" in t else t for t in CONVEYOR_DOC["transitions"]])


def generated_doc(n_states: int = 8) -> dict:
    """A ring of states with guards, effects and four variables.

    Every name is written in decomposed Unicode (NFD), which the package
    must normalize to NFC before hashing. Each state always has its
    unguarded `avance` transition enabled, so walks never get stuck.
    """
    states = [f"e\u0301tape-{i}" for i in range(n_states)]
    names = ["compte\u0301", "de\u0301bit", "ni\u0301veau", "pression"]
    transitions = []
    for i, state in enumerate(states):
        v, w = names[i % 4], names[(i + 1) % 4]
        transitions += [
            {"id": f"avance\u0301-{i}", "from": state, "to": states[(i + 1) % n_states],
             "effect": {"var": v, "add": 1}},
            {"id": f"saut-{i}", "from": state, "to": states[(i + 3) % n_states],
             "guard": {"var": v, "op": ">=", "value": 2}, "effect": {"var": v, "add": -2}},
            {"id": f"recule\u0301-{i}", "from": state, "to": states[(i - 1) % n_states],
             "guard": {"var": w, "op": "<", "value": 5}, "effect": {"var": w, "add": 1}},
            {"id": f"pause-{i}", "from": state, "to": state,
             "guard": {"var": w, "op": "==", "value": 0}},
        ]
    return {"name": "re\u0301seau-ge\u0301ne\u0301re\u0301", "states": states,
            "initial": states[0], "finals": [], "transitions": transitions,
            "variables": dict.fromkeys(names, 0)}


MODEL_DOCS = {"conveyor": CONVEYOR_DOC, "generated": generated_doc()}
REF_MODELS = {key: ref.RefModel(doc) for key, doc in MODEL_DOCS.items()}
ILLEGAL_REF = ref.RefModel(ILLEGAL_DOC)

# The fault instance: conveyor steps, where an item (tid, ILLEGAL_REF) is
# the planted illegal hop. FAULT_MISSING_SEQ names the entry whose
# post-state content is deleted from the store after set-up.
FAULT_PLAN = ["t_load", "t_more", ("t_more", ILLEGAL_REF), "t_dispatch", "t_deliver",
              "t_load", "t_more"]
FAULT_ILLEGAL_SEQ = 3
FAULT_MISSING_SEQ = 5


@dataclass(frozen=True)
class ChainSpec:
    long_steps: int
    shorts: int
    short_steps: int
    live_steps: int

    def blocks(self) -> int:
        """Blocks the set-up commits, one per transaction, genesis included."""
        head = 1 + 2 + 2 * len(MODEL_DOCS)
        return (head + (self.long_steps + 2) + self.shorts * (self.short_steps + 2)
                + (len(FAULT_PLAN) + 2) + 2 * (1 + self.live_steps) + 1)


@dataclass(frozen=True)
class Size:
    chain: ChainSpec
    instances: int      # instances per exec episode
    episode_steps: int  # steps per instance per exec episode
    cli_steps: int      # `instance step` commands per cli slot
    schedule: tuple     # the slots of one round, in order


# Every workload reports every end-to-end metric, so every round runs
# each slot at least once, and every metric is sampled across the whole
# run: a shared machine's speed can change within a second.
FULL = {
    "execute": Size(ChainSpec(300, 4, 20, 3), 6, 250, 2, ("exec",) * 6 + ("rebuild", "cli")),
    "rebuild": Size(ChainSpec(2000, 8, 30, 3), 6, 200, 2,
                    ("rebuild", "exec", "exec", "rebuild", "exec", "exec", "cli")),
    "cli": Size(ChainSpec(1750, 6, 30, 3), 6, 200, 8, ("cli", "exec", "exec", "exec", "rebuild")),
}
SMOKE = dict(chain=ChainSpec(12, 2, 4, 2), instances=2, episode_steps=5, cli_steps=2)
SETUPS = 3
STARTUP_SAMPLES = 5
SWEEP_HEIGHTS = (500, 2000, 8000)


def load_package():
    """Import statetrail from this checkout's src/, and from nowhere else."""
    if not (SRC / "statetrail" / "__init__.py").is_file():
        sys.exit(f"bench: no package source at {SRC / 'statetrail'}")
    sys.path.insert(0, str(SRC))
    import statetrail
    import statetrail.registry
    if Path(statetrail.__file__).resolve().parent != (SRC / "statetrail").resolve():
        sys.exit(f"bench: statetrail was imported from {statetrail.__file__}")
    return statetrail


def account(seed: int, index: int) -> str:
    return "0x" + ref.sha(f"bench-account/{seed}/{index}".encode())[2:42]


def plan_walk(model: ref.RefModel, steps: int, rng: random.Random) -> list[str]:
    current, variables = model.initial, dict(model.variables)
    tids = []
    for _ in range(steps):
        tid = rng.choice(model.enabled(current, variables))
        current, variables = model.fire(tid, current, variables)
        tids.append(tid)
    return tids


@dataclass
class Instance:
    """One instance as the benchmark planned it; `hashes` come from the reference."""
    label: str
    model_key: str
    creator: str
    actor: str
    nonce: int
    plan: list
    terminated: bool
    hash: str = ""
    hashes: list = field(default_factory=list)

    def plan_reference(self, model_hashes: dict) -> None:
        record = ref.creation_record(model_hashes[self.model_key], self.creator,
                                     self.label, self.label, self.nonce)
        self.hash = ref.sha(record)
        self.hashes = ref.walk(REF_MODELS[self.model_key], self.hash, self.plan)


class Run:
    """Counters, samples and failed checks of one benchmark run."""

    def __init__(self, st, tracer: Tracer | None):
        self.st = st
        self.tracer = tracer
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.samples: dict[str, list[float]] = {}

    def check(self, ok: bool, what: str) -> None:
        if not ok and len(self.problems) < 50:
            self.problems.append(what)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def op(self, context: str, fn, *args):
        """Run one operation of the program; returns (seconds, result or None)."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.begin(context)
            self.tracer.enabled = True
        start = time.perf_counter()
        try:
            result = fn(*args)
        except self.st.errors.TrailError as exc:
            self.failed += 1
            self.check(False, f"{context} failed: {exc.name}: {exc}")
            result = None
        finally:
            elapsed = time.perf_counter() - start
            if self.tracer is not None:
                self.tracer.enabled = False
        return elapsed, result


# ------------------------------------------------------------------ worlds

class World:
    """Registry, ledger and store with both accounts and both models registered.

    With a workdir they are file-backed and laid out as the CLI lays them
    out; without one, the ledger and store live in memory.
    """

    def __init__(self, st, seed: int, workdir: Path | None = None):
        self.registry = st.Registry()
        if workdir is None:
            self.ledger = st.Ledger(self.registry)
            self.store = st.ContentStore()
        else:
            workdir.mkdir(parents=True)
            self.ledger_path = workdir / LEDGER_FILE
            self.store_dir = workdir / STORE_DIR
            self.ledger = st.Ledger.open(self.ledger_path, self.registry)
            self.store = st.DirectoryContentStore(self.store_dir)
        self.owner, self.delegate = account(seed, 0), account(seed, 1)
        self.ledger.create_account(self.owner)
        self.ledger.create_account(self.delegate)
        self.engines = {a: st.Engine(self.ledger, self.registry, self.store, a)
                        for a in (self.owner, self.delegate)}
        self.models, self.model_hashes = {}, {}
        registry = st.registry
        for key, doc in MODEL_DOCS.items():
            model = st.validate_model(doc)
            self.store.put(st.canonical_serialize(model))
            mh = st.model_hash(model)
            owner = self.engines[self.owner]
            owner.submit_call(registry.call_register_model(mh, st.Descriptor(id=key, name=key)))
            owner.submit_call(registry.call_delegate_access(mh, self.delegate))
            self.models[key], self.model_hashes[key] = model, mh

    def instantiate(self, st, inst: Instance):
        state = self.engines[inst.creator].instantiate(
            self.models[inst.model_key], st.Descriptor(id=inst.label, name=inst.label),
            inst.nonce)
        if inst.actor != inst.creator:
            self.engines[inst.creator].submit_call(
                st.registry.call_delegate_access(state.instance_hash, inst.actor))
        return state


def check_models(run: Run, st) -> None:
    for key, doc in MODEL_DOCS.items():
        run.check(st.model_hash(st.validate_model(doc)) == REF_MODELS[key].hash(),
                  f"model hash of {key} differs from the reference")
    run.check(st.model_hash(st.demo_model()) == REF_MODELS["conveyor"].hash(),
              "the conveyor document differs from statetrail.demo_model()")


# -------------------------------------------------------------- chain set-up

@dataclass
class Chain:
    workdir: Path
    spec: ChainSpec
    instances: list
    long: Instance
    live: list
    fault: Instance
    ledger_bytes: int

    @property
    def ledger_path(self) -> Path:
        return self.workdir / LEDGER_FILE

    @property
    def store_dir(self) -> Path:
        return self.workdir / STORE_DIR


def chain_instances(spec: ChainSpec, seed: int, world: World) -> tuple:
    rng = random.Random(seed)
    o, d = world.owner, world.delegate
    gen, conv = REF_MODELS["generated"], REF_MODELS["conveyor"]
    long = Instance("long", "generated", o, o, 1, plan_walk(gen, spec.long_steps, rng), True)
    shorts = []
    for i in range(spec.shorts):
        key = ("conveyor", "generated")[i % 2]
        who = (o, d)[(i // 2) % 2]
        shorts.append(Instance(f"short-{i}", key, who, who, 100 + i,
                               plan_walk(REF_MODELS[key], spec.short_steps, rng), True))
    fault = Instance("fault", "conveyor", o, o, 200, list(FAULT_PLAN), True)
    live = [Instance("live-owned", "generated", o, o, 300,
                     plan_walk(gen, spec.live_steps, rng), False),
            Instance("live-delegated", "conveyor", o, d, 301,
                     plan_walk(conv, spec.live_steps, rng), False)]
    return long, shorts, fault, live


def build_chain(st, workdir: Path, seed: int, spec: ChainSpec) -> Chain:
    """Set-up of the rebuild and cli inputs, driven through the package API."""
    world = World(st, seed, workdir)
    long, shorts, fault, live = chain_instances(spec, seed, world)
    for inst in [long, *shorts, fault, *live]:
        inst.plan_reference(world.model_hashes)
        engine = world.engines[inst.actor]
        state = world.instantiate(st, inst)
        for item in inst.plan:
            tid, model = item if isinstance(item, tuple) else (item, None)
            model = (st.validate_model(ILLEGAL_DOC) if model is not None
                     else world.models[inst.model_key])
            state, _ = engine.fire_and_register(state, model, tid)
        if inst.terminated:
            engine.terminate(state.instance_hash)
    # the store loses one post-state after the fact
    (world.store_dir / fault.hashes[FAULT_MISSING_SEQ]).unlink()
    return Chain(workdir, spec, [long, *shorts, fault, *live], long, live, fault,
                 world.ledger_path.stat().st_size)


def timed_setup(run: Run, st, base: Path, seed: int, spec: ChainSpec) -> Chain:
    """Build the chain SETUPS times in fresh directories; use the last."""
    for i in range(SETUPS):
        start = time.perf_counter()
        chain = build_chain(st, base / f"chain-{i}", seed, spec)
        run.sample("setup_s", time.perf_counter() - start)
    return chain


def check_chain_report(run: Run, chain: Chain, report) -> None:
    run.check(report.ok and report.blocks_checked == chain.spec.blocks(),
              f"verify_chain_file: ok={report.ok} over {report.blocks_checked} blocks, "
              f"expected {chain.spec.blocks()}")


def check_store(run: Run, store_dir: Path) -> None:
    count, bad = ref.store_files_hash_to_names(str(store_dir))
    run.check(count > 0 and not bad, f"{len(bad)} of {count} store files do not hash to their name")


# --------------------------------------------------------------- exec phase

def episode_instances(size: Size, seed: int, world: World) -> list:
    rng = random.Random(seed * 7919 + 1)
    out = []
    for i in range(size.instances):
        key = ("conveyor", "generated")[i % 2]
        who = (world.owner, world.delegate)[(i // 2) % 2]
        inst = Instance(f"walk-{i}", key, who, who, i + 1,
                        plan_walk(REF_MODELS[key], size.episode_steps, rng), True)
        inst.plan_reference(world.model_hashes)
        out.append(inst)
    return out


def exec_round(run: Run, st, seed: int, size: Size, workdir: Path | None = None) -> None:
    """One episode: instances, seeded round-robin walks, terminations.

    Episodes run in memory, except one per run in `workdir`, file-backed
    as the CLI runs them. The step timings come from the in-memory
    episodes, so they leave out block serialization and every file write:
    on a shared machine the file system's cost follows other tenants' load
    (see README, Steadiness). The file-backed episode gives the disk
    footprint and, in traced runs, the cost of the file store.
    """
    context = "step" if workdir is None else "disk_step"
    _, world = run.op("admin", World, st, seed, workdir)
    insts = episode_instances(size, seed, world)
    states, records = [], {inst.hash: [] for inst in insts}
    for inst in insts:
        _, state = run.op("admin", world.instantiate, st, inst)
        states.append(state)
    latencies = []
    walk_start = time.perf_counter()
    for step in range(size.episode_steps):
        for i, inst in enumerate(insts):
            dt, out = run.op(context, world.engines[inst.actor].fire_and_register,
                             states[i], world.models[inst.model_key], inst.plan[step])
            latencies.append(dt)
            if out is not None:
                states[i], record = out
                records[inst.hash].append(record.post_state)
    walk_s = time.perf_counter() - walk_start
    for i, inst in enumerate(insts):
        run.op("admin", world.engines[inst.actor].terminate, states[i].instance_hash)

    for i, inst in enumerate(insts):
        run.check(states[i].instance_hash == inst.hash,
                  f"{inst.label}: instance hash differs from the reference")
        run.check(records[inst.hash] == inst.hashes[1:],
                  f"{inst.label}: registered post-states differ from the reference walk")
        chain = [(t.pre_state, t.post_state) for t in world.registry.get_transitions(inst.hash)]
        run.check(chain == list(zip(inst.hashes, inst.hashes[1:])),
                  f"{inst.label}: registry transitions differ from the reference walk")
    blocks = len(world.ledger.blocks)
    run.check(blocks == 1 + 2 + 2 * len(MODEL_DOCS) + size.instances * (size.episode_steps + 2),
              f"episode committed {blocks} blocks")
    if workdir is None:
        run.sample("step_s", latencies)
        run.sample("walk_s", walk_s)
        return
    check_models(run, st)
    check_store(run, world.store_dir)
    store_bytes = sum(p.stat().st_size for p in world.store_dir.iterdir())
    ledger_bytes = world.ledger_path.stat().st_size
    run.sample("disk_bytes_per_step", (ledger_bytes + store_bytes) / len(latencies))
    run.sample("ledger_bytes_per_block", ledger_bytes / blocks)


# ------------------------------------------------------------ rebuild phase

def party(st, chain: Chain) -> tuple[dict, dict]:
    registry = st.Registry()
    ledger = st.Ledger.open(chain.ledger_path, registry)
    tracker = st.Tracker(ledger, registry, st.DirectoryContentStore(chain.store_dir))
    tracker.catch_up()
    statuses, exports = {}, {}
    for h in sorted(tracker.protocols):
        statuses[h] = tracker.verify_protocol(h)
        exports[h] = tracker.export(h)
    return statuses, exports


def check_party(run: Run, chain: Chain, statuses: dict, exports: dict) -> None:
    by_hash = {inst.hash: inst for inst in chain.instances}
    run.check(set(exports) == set(by_hash), "the tracker's instances differ from the set-up")
    for h, data in exports.items():
        inst = by_hash.get(h)
        if inst is None:
            continue
        entries = [json.loads(line) for line in data.splitlines()]
        kinds = (["creation"] + ["transition"] * len(inst.plan)
                 + ["termination"] * inst.terminated)
        run.check([e["kind"] for e in entries] == kinds
                  and [e["seq"] for e in entries] == list(range(len(kinds))),
                  f"{inst.label}: protocol entries are not creation, transitions, termination")
        run.check([e["post_state"] for e in entries[:len(inst.hashes)]] == inst.hashes
                  and [e["pre_state"] for e in entries[1:len(inst.hashes)]] == inst.hashes[:-1],
                  f"{inst.label}: exported states differ from the reference walk")
        expected = ref.expected_statuses(entries, str(chain.store_dir))
        run.check(statuses[h] == expected,
                  f"{inst.label}: statuses differ from the reference")
        run.check([e["status"] for e in entries] == expected,
                  f"{inst.label}: exported statuses differ from the reference")
        planted = {FAULT_ILLEGAL_SEQ: ref.INCONSISTENT, FAULT_MISSING_SEQ: ref.UNVERIFIED,
                   FAULT_MISSING_SEQ + 1: ref.UNVERIFIED} if inst is chain.fault else {}
        run.check(expected == [planted.get(i, ref.VERIFIED) for i in range(len(expected))],
                  f"{inst.label}: reference statuses do not mark the planted faults")


def rebuild_round(run: Run, st, chain: Chain, state: dict) -> None:
    """One independent party, then one verify_chain_file."""
    dt, out = run.op("party", party, st, chain)
    run.sample("rebuild_s", dt)
    if out is not None and "exports" not in state:
        state["statuses"], state["exports"] = out
        check_party(run, chain, *out)
    elif out is not None:
        run.check(out == (state["statuses"], state["exports"]),
                  "parties disagree: exports or statuses are not identical")
    dt, report = run.op("chain", st.verify_chain_file, chain.ledger_path)
    run.sample("chain_verify_s", dt)
    if report is not None:
        check_chain_report(run, chain, report)


# ---------------------------------------------------------------- cli phase

def cli_env() -> dict:
    env = dict(os.environ)
    env.update(PYTHONPATH=str(SRC), PYTHONUTF8="1")
    return env


# Runs `python -m statetrail.cli ARGS`, then writes the child's own peak
# RSS (VmHWM) to stderr. The child's wait4 usage cannot give it: exec keeps
# the parent's high-water mark in the child's ru_maxrss, so that figure
# would be the benchmark's own peak whenever it is the larger.
PEAK_RSS_TAG = "bench-peak-rss-kib"
CLI_MAIN = f"""\
import atexit, runpy, sys
def report_peak_rss():
    with open("/proc/self/status") as status:
        kib = next(line.split()[1] for line in status if line.startswith("VmHWM:"))
    sys.stderr.write(f"\\n{PEAK_RSS_TAG} {{kib}}\\n")
atexit.register(report_peak_rss)
runpy.run_module("statetrail.cli", run_name="__main__", alter_sys=True)
"""


def cli_subprocess(args: list[str], errfile: Path) -> tuple[float, int, bytes, float]:
    """Run one CLI command; wall seconds, exit code, stdout, peak RSS in MiB (0 if unknown)."""
    with errfile.open("wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", CLI_MAIN, *args], cwd=ROOT,
                                env=cli_env(), stdout=subprocess.PIPE, stderr=err)
        try:
            out = proc.stdout.read()
        finally:
            proc.stdout.close()
            proc.wait()
        wall = time.perf_counter() - start
    last = (errfile.read_text(errors="replace").splitlines() or [""])[-1].split()
    rss_mib = int(last[1]) / 1024 if last[:1] == [PEAK_RSS_TAG] else 0.0
    return wall, proc.returncode, out, rss_mib


class InProcessCli:
    """The click entry point called in-process, so traced runs see its spans."""

    def __init__(self):
        import statetrail.cli
        from click.testing import CliRunner
        self.group = statetrail.cli.cli
        self.runner = CliRunner()

    def __call__(self, args: list[str], errfile: Path) -> tuple[float, int, bytes, float]:
        start = time.perf_counter()
        result = self.runner.invoke(self.group, args)
        return time.perf_counter() - start, result.exit_code, result.stdout_bytes, 0.0


def cli_plan(chain: Chain, size: Size, seed: int) -> list:
    """The `instance step` commands of one round, with their expected output."""
    rng = random.Random(seed * 104729 + 7)
    cursors = []
    for inst in chain.live:
        model = REF_MODELS[inst.model_key]
        current, variables = model.initial, dict(model.variables)
        for tid in inst.plan:
            current, variables = model.fire(tid, current, variables)
        cursors.append([inst, current, variables, len(inst.plan)])
    plan = []
    for k in range(size.cli_steps):
        cursor = cursors[k % len(cursors)]
        inst, current, variables, step = cursor
        model = REF_MODELS[inst.model_key]
        tid = rng.choice(model.enabled(current, variables))
        current, variables = model.fire(tid, current, variables)
        post = ref.state_hash(ref.state_doc(inst.hash, current, variables, step + 1))
        cursor[1:] = [current, variables, step + 1]
        plan.append((inst, tid, {"instance_hash": inst.hash, "post_state": post,
                                 "seq": step + 1, "transition": tid}))
    return plan


def cli_round(run: Run, chain: Chain, plan: list, invoke) -> None:
    """Step both live instances in turn, verify the long one, then restore the ledger."""
    wd = str(chain.workdir)
    errfile = chain.workdir.parent / "cli-stderr.txt"
    walls = []
    for inst, tid, expected in plan:
        args = ["--dir", wd, "--account", inst.actor, "instance", "step", inst.hash, tid]
        dt, (wall, code, out, _) = run.op("cli_step", invoke, args, errfile)
        walls.append(wall)
        run.check(code == 0 and out.count(b"\n") == 1 and json.loads(out) == expected,
                  f"instance step {inst.label} {tid}: exit {code}, output {out[:200]!r}")
        if code != 0:
            run.failed += 1
    run.sample("cli_step_rounds", walls)
    args = ["--dir", wd, "protocol", "verify", chain.long.hash]
    dt, (wall, code, out, rss) = run.op("cli_verify", invoke, args, errfile)
    run.sample("cli_verify_s", wall)
    run.sample("cli_rss_mib", rss)
    run.check(rss > 0 or isinstance(invoke, InProcessCli),
              "protocol verify did not report its peak RSS")
    if code != 0:
        run.failed += 1
    lines = [json.loads(line) for line in out.splitlines()] if code == 0 else []
    n = len(chain.long.plan) + 2
    kinds = ["creation"] + ["transition"] * (n - 2) + ["termination"]
    run.check(lines[:-1] == [{"kind": k, "seq": i, "status": "verified"}
                             for i, k in enumerate(kinds)]
              and lines[-1:] == [{"entries": n, "instance_hash": chain.long.hash,
                                  "verified": True}],
              f"protocol verify: exit {code}, {len(lines)} lines")
    with chain.ledger_path.open("r+b") as fh:
        fh.truncate(chain.ledger_bytes)


def measure_startup(run: Run, base: Path) -> None:
    for _ in range(STARTUP_SAMPLES):
        wall, code, out, _ = cli_subprocess(["--help"], base / "cli-stderr.txt")
        run.check(code == 0 and b"Usage" in out, f"--help exited {code}")
        run.sample("startup_s", wall)


# ------------------------------------------------------------------ metrics

def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, as statistics.quantiles cuts it."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(run: Run) -> dict:
    s = run.samples
    steps = [dt for episode in s["step_s"] for dt in episode]
    cli_steps = [dt for rnd in s["cli_step_rounds"] for dt in rnd]
    value = {
        "setup_s": statistics.median(s["setup_s"]),
        "steps_per_s": len(steps) / sum(s["walk_s"]),
        "step_ms_p50": 1e3 * statistics.median(steps),
        "step_ms_p99": 1e3 * quantile(steps, 99),
        "disk_bytes_per_step": statistics.median(s["disk_bytes_per_step"]),
        "rebuild_s": statistics.median(s["rebuild_s"]),
        "chain_verify_s": statistics.median(s["chain_verify_s"]),
        "cli_step_ms_p50": 1e3 * statistics.median(cli_steps),
        "cli_verify_ms": 1e3 * statistics.median(s["cli_verify_s"]),
        "cli_peak_rss_mib": statistics.median(s["cli_rss_mib"]),
    }
    units = {"setup_s": "s", "steps_per_s": "1/s", "disk_bytes_per_step": "bytes",
             "rebuild_s": "s", "chain_verify_s": "s", "cli_peak_rss_mib": "MiB"}
    return {k: {"value": v, "unit": units.get(k, "ms")} for k, v in value.items()}


def per_layer(run: Run, tracer: Tracer) -> dict:
    t = tracer.total
    walk = {"step"}  # the gated, in-memory episodes
    disk = {"disk_step"}  # the file-backed episode, as the CLI runs it
    steps = t("engine.fire_and_register", walk)[0]
    verify = {"party", "cli_verify"}
    entries = sum(t(f"tracker.verify_entry.{k}", verify)[0] for k in ("long", "short"))
    commands = sum(map(len, run.samples["cli_step_rounds"])) + len(run.samples["cli_verify_s"])
    replay = {"party", "cli_step", "cli_verify"}

    def per(numerator, denominator):
        return numerator / denominator if denominator else float("nan")

    def us_per_call(name, contexts=None):
        calls, seconds, _ = t(name, contexts)
        return per(1e6 * seconds, calls)

    def us_per_unit(name, contexts=None):
        _, seconds, units = t(name, contexts)
        return per(1e6 * seconds, units)

    values = {
        "hashing.canonical_bytes.calls_per_step": ("calls/step", per(
            t("hashing.canonical_bytes", walk)[0], steps)),
        "hashing.canonical_bytes.us_per_step": ("us/step", per(
            1e6 * t("hashing.canonical_bytes", walk)[1], steps)),
        "hashing.digest.calls_per_step": ("calls/step", per(
            t("hashing.digest", walk)[0], steps)),
        "model.parse.calls_per_entry": ("calls/entry", per(
            t("model.parse", verify)[0], entries)),
        "model.parse.us_per_entry": ("us/entry", per(1e6 * t("model.parse", verify)[1], entries)),
        "engine.fire.us_per_call": ("us/call", us_per_call("engine.fire", walk)),
        "engine.fire_and_register.us_per_call": (
            "us/call", us_per_call("engine.fire_and_register", walk)),
        "registry.apply.us_per_call": ("us/call", us_per_call("registry.apply")),
        "registry.get_transitions.us_per_call": (
            "us/call", us_per_call("registry.get_transitions", walk)),
        "ledger.submit.us_per_call": ("us/call", us_per_call("ledger.submit", walk)),
        "ledger.bytes_per_block": (
            "bytes/block", statistics.median(run.samples["ledger_bytes_per_block"])),
        "ledger.open.us_per_block": ("us/block", us_per_unit("ledger.open", replay)),
        "ledger.open.blocks_replayed_per_command": ("blocks/cmd", per(
            t("ledger.open", {"cli_step", "cli_verify"})[2], commands)),
        "ledger.verify_chain_file.us_per_block": (
            "us/block", us_per_unit("ledger.verify_chain_file")),
        "store.put.calls_per_step": ("calls/step", per(t("store.put", walk)[0], steps)),
        "store.put.us_per_call": ("us/call", us_per_call("store.put", disk)),
        "store.put.bytes_per_step": ("bytes/step", per(t("store.put", walk)[2], steps)),
        "store.get.calls_per_entry": ("calls/entry", per(t("store.get", verify)[0], entries)),
        "store.get.us_per_call": ("us/call", us_per_call("store.get", verify)),
        "tracker.catch_up.us_per_event": ("us/event", us_per_unit("tracker.catch_up")),
        "tracker.verify_entry.us_per_entry.long": (
            "us/entry", us_per_call("tracker.verify_entry.long")),
        "tracker.verify_entry.us_per_entry.short": (
            "us/entry", us_per_call("tracker.verify_entry.short")),
        "tracker.export.us_per_entry": ("us/entry", us_per_unit("tracker.export")),
        "cli.startup_ms": ("ms", 1e3 * statistics.median(run.samples["startup_s"])),
    }
    return {k: {"value": v, "unit": u} for k, (u, v) in values.items()}


# --------------------------------------------------------------------- runs

def run_workload(st, workload: str, seed: int, seconds: float, trace: bool,
                 smoke: bool) -> dict:
    size = replace(FULL[workload], **SMOKE) if smoke else FULL[workload]
    base = WORK / f"{workload}-{os.getpid()}"
    if base.exists():
        shutil.rmtree(base)
    base.mkdir(parents=True)
    tracer = None
    if trace:
        tracer = Tracer()
        tracer.install(st)
    run = Run(st, tracer)
    try:
        # fill the bytecode cache before anything is timed
        cli_subprocess(["--help"], base / "cli-stderr.txt")
        chain = timed_setup(run, st, base, seed, size.chain)
        if tracer is not None:
            tracer.long_instances = {chain.long.hash}
        check_chain_report(run, chain, st.verify_chain_file(chain.ledger_path))
        check_store(run, chain.store_dir)
        invoke = InProcessCli() if trace else cli_subprocess
        plan = cli_plan(chain, size, seed)
        exec_round(run, st, seed, size, base / "episode")
        rebuild_state: dict = {}
        slots = {
            "exec": lambda: exec_round(run, st, seed, size),
            "rebuild": lambda: rebuild_round(run, st, chain, rebuild_state),
            "cli": lambda: cli_round(run, chain, plan, invoke),
        }
        start = time.perf_counter()
        while True:
            for slot in size.schedule:
                slots[slot]()
            if time.perf_counter() - start >= seconds:
                break
        check_chain_report(run, chain, st.verify_chain_file(chain.ledger_path))
        check_store(run, chain.store_dir)
        if trace:
            measure_startup(run, base)
            OUT.mkdir(exist_ok=True)
            tracer.write(OUT / f"spans-{workload}-seed{seed}.jsonl.gz")
            tracer.uninstall()
            print(json.dumps({"traced_end_to_end": end_to_end(run)}), file=sys.stderr)
            metrics = per_layer(run, tracer)
        else:
            metrics = end_to_end(run)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    for problem in run.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    return {"correct": not run.problems, "attempted": run.attempted, "failed": run.failed,
            "metrics": metrics}


def sweep(st, seed: int) -> list[dict]:
    """ledger.open, long-entry verification and CLI step cost at several chain heights."""
    base = WORK / f"sweep-{os.getpid()}"
    if base.exists():
        shutil.rmtree(base)
    base.mkdir(parents=True)
    rows = []
    try:
        for height in SWEEP_HEIGHTS:
            other = ChainSpec(0, 4, 20, 3).blocks()
            spec = ChainSpec(height + 1 - other, 4, 20, 3)
            tracer = Tracer()
            tracer.install(st)
            run = Run(st, tracer)
            chain = build_chain(st, base / f"h{height}", seed, spec)
            tracer.long_instances = {chain.long.hash}
            _, out = run.op("party", party, st, chain)
            tracer.uninstall()
            run.tracer = None
            if out is not None:
                check_party(run, chain, *out)
            size = Size(spec, 0, 0, 6, ())
            cli_round(run, chain, cli_plan(chain, size, seed), cli_subprocess)
            _, open_s, blocks = tracer.total("ledger.open")
            calls, verify_s, _ = tracer.total("tracker.verify_entry.long")
            rows.append({
                "blocks": blocks,
                "ledger.open.us_per_block": 1e6 * open_s / blocks,
                "tracker.verify_entry.us_per_entry.long": 1e6 * verify_s / calls,
                "cli_step_ms_p50": 1e3 * statistics.median(run.samples["cli_step_rounds"][0]),
                "correct": not run.problems and run.failed == 0,
            })
            shutil.rmtree(chain.workdir)
    finally:
        shutil.rmtree(base, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(FULL))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs: every check in a few seconds")
    parser.add_argument("--sweep", action="store_true",
                        help="report growth with chain height instead of a workload")
    args = parser.parse_args(argv)
    if not args.sweep and args.workload is None:
        parser.error("--workload is required unless --sweep is given")
    st = load_package()
    if args.sweep:
        rows = sweep(st, args.seed)
        for row in rows:
            print(json.dumps(row, sort_keys=True))
        return 0 if all(r["correct"] for r in rows) else 1
    result = run_workload(st, args.workload, args.seed, args.seconds, bool(args.trace),
                          args.smoke)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
