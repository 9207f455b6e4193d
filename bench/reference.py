"""Independent reference for the benchmark's correctness checks.

Uses only json, unicodedata and hashlib, and shares no code with the
package under test. It fires guarded transitions, computes the canonical
JSON form and SHA-256 hash of models, creation records and instance
states, and derives the verification status every protocol entry should
have from the exported entries and the raw files of a content store.
"""

from __future__ import annotations

import hashlib
import json
import os
import unicodedata

VERIFIED = "verified"
UNVERIFIED = "unverified"
INCONSISTENT = "inconsistent"


def nfc(value):
    if isinstance(value, str):
        return unicodedata.normalize("NFC", value)
    if isinstance(value, dict):
        return {nfc(k): nfc(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [nfc(v) for v in value]
    return value


def canonical(value) -> bytes:
    return json.dumps(nfc(value), sort_keys=True, separators=(",", ":"),
                      ensure_ascii=False, allow_nan=False).encode("utf-8")


def sha(data: bytes) -> str:
    return "0x" + hashlib.sha256(data).hexdigest()


_OPS = {
    "<": lambda a, b: a < b,
    "<=": lambda a, b: a <= b,
    "==": lambda a, b: a == b,
    ">=": lambda a, b: a >= b,
    ">": lambda a, b: a > b,
}


class RefModel:
    """A model document read with NFC names and transitions sorted by id."""

    def __init__(self, doc: dict):
        doc = nfc(doc)
        self.name = doc["name"]
        self.states = sorted(set(doc["states"]))
        self.initial = doc["initial"]
        self.finals = sorted(set(doc["finals"]))
        self.variables = dict(doc["variables"])
        self.transitions = sorted(doc["transitions"], key=lambda t: t["id"])
        self.by_id = {t["id"]: t for t in self.transitions}

    def document(self) -> dict:
        transitions = []
        for t in self.transitions:
            entry = {"id": t["id"], "from": t["from"], "to": t["to"]}
            if t.get("guard") is not None:
                entry["guard"] = t["guard"]
            if t.get("effect") is not None:
                entry["effect"] = t["effect"]
            transitions.append(entry)
        return {"name": self.name, "states": self.states, "initial": self.initial,
                "finals": self.finals, "transitions": transitions,
                "variables": self.variables}

    def content(self) -> bytes:
        return canonical(self.document())

    def hash(self) -> str:
        return sha(self.content())

    @staticmethod
    def _holds(t: dict, variables: dict) -> bool:
        g = t.get("guard")
        return g is None or _OPS[g["op"]](variables[g["var"]], g["value"])

    @staticmethod
    def _after(t: dict, variables: dict) -> dict:
        out = dict(variables)
        e = t.get("effect")
        if e is not None:
            out[e["var"]] += e["add"]
        return out

    def enabled(self, current: str, variables: dict) -> list[str]:
        return [t["id"] for t in self.transitions
                if t["from"] == current and self._holds(t, variables)]

    def fire(self, tid: str, current: str, variables: dict) -> tuple[str, dict]:
        t = self.by_id[tid]
        if t["from"] != current or not self._holds(t, variables):
            raise ValueError(f"{tid!r} is not enabled at {current!r}")
        return t["to"], self._after(t, variables)

    def legal_hop(self, pre: dict, post: dict) -> bool:
        for t in self.transitions:
            try:
                if (t["from"] == pre["current_state"] and t["to"] == post["current_state"]
                        and self._holds(t, pre["variables"])
                        and self._after(t, pre["variables"]) == post["variables"]):
                    return True
            except KeyError:
                continue
        return False


def state_doc(instance_hash: str, current: str, variables: dict, step: int) -> dict:
    return {"current_state": current, "instance_hash": instance_hash, "step": step,
            "variables": dict(variables)}


def state_hash(doc: dict) -> str:
    return sha(canonical(doc))


def creation_record(model_hash: str, owner: str, descriptor_id: str, name: str,
                    nonce: int) -> bytes:
    return canonical({"descriptor": {"extra": {}, "id": descriptor_id, "name": name},
                      "model_hash": model_hash, "nonce": nonce, "owner": owner})


def walk(model: RefModel, instance_hash: str, plan: list) -> list[str]:
    """State hashes along a walk: the initial state, then one per step.

    `plan` holds transition ids; an entry (tid, other) fires `tid` with
    the RefModel `other`, which is how an illegal hop is planted.
    """
    current, variables = model.initial, dict(model.variables)
    hashes = [state_hash(state_doc(instance_hash, current, variables, 0))]
    for step, item in enumerate(plan, start=1):
        tid, by = item if isinstance(item, tuple) else (item, model)
        current, variables = by.fire(tid, current, variables)
        hashes.append(state_hash(state_doc(instance_hash, current, variables, step)))
    return hashes


def store_files_hash_to_names(store_dir: str) -> tuple[int, list[str]]:
    """Count of files in a store directory, and those whose bytes do not hash to their name."""
    bad, count = [], 0
    for name in os.listdir(store_dir):
        count += 1
        with open(os.path.join(store_dir, name), "rb") as fh:
            if sha(fh.read()) != name:
                bad.append(name)
    return count, bad


def _read(store_dir: str, key: str | None):
    """(parsed JSON document, failure status) for one content hash."""
    path = os.path.join(store_dir, key or "")
    if not key or not os.path.isfile(path):
        return None, UNVERIFIED
    with open(path, "rb") as fh:
        data = fh.read()
    if sha(data) != key:
        return None, INCONSISTENT
    try:
        return json.loads(data.decode("utf-8")), None
    except ValueError:
        return None, INCONSISTENT


def _worst(*statuses):
    if INCONSISTENT in statuses:
        return INCONSISTENT
    if UNVERIFIED in statuses:
        return UNVERIFIED
    return None


def expected_statuses(entries: list[dict], store_dir: str) -> list[str]:
    """The status each exported entry of one protocol must carry."""
    model_doc, failed = _read(store_dir, entries[0]["model_hash"])
    if failed:
        return [failed] * len(entries)
    model = RefModel(model_doc)
    by_seq = {e["seq"]: e for e in entries}
    out = []
    for entry in entries:
        previous = by_seq.get(entry["seq"] - 1)
        if entry["kind"] == "creation":
            record, s1 = _read(store_dir, entry["instance_hash"])
            state, s2 = _read(store_dir, entry["post_state"])
            failed = _worst(s1, s2)
            ok = failed is None and (
                record["model_hash"] == entry["model_hash"]
                and state["instance_hash"] == entry["instance_hash"]
                and state["current_state"] == model.initial
                and state["variables"] == model.variables
                and state["step"] == 0)
        elif entry["kind"] == "transition":
            pre, s1 = _read(store_dir, entry["pre_state"])
            post, s2 = _read(store_dir, entry["post_state"])
            failed = _worst(s1, s2)
            ok = failed is None and (
                previous is not None and previous["post_state"] == entry["pre_state"]
                and pre["instance_hash"] == post["instance_hash"] == entry["instance_hash"]
                and post["step"] == pre["step"] + 1
                and model.legal_hop(pre, post))
        else:
            failed = None
            ok = previous is not None and entry is entries[-1]
        out.append(failed or (VERIFIED if ok else INCONSISTENT))
    return out
