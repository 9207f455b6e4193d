"""Multi-party demo: one model, two driven instances, independent observers.

Party 0 registers the demo model and drives the first instance; the last
party receives a model delegation and drives the second; everyone else
only observes. Steps are interleaved deterministically (round robin with
seeded transition choices), so a given seed always produces the same
ledger and the same protocol exports. After the run every party rebuilds
its own ledger view from the persisted file and the exports must be
byte-identical; anything else raises ConvergenceFailed.
"""

from __future__ import annotations

import random
import shutil
from pathlib import Path

from .engine import Engine, InstanceState, enabled_transitions
from .errors import ChainCorrupt, ConvergenceFailed, MissingContent
from .hashing import content_hash, digest
from .ledger import LEDGER_FILE, Ledger, checkpoint_path
from .model import StateMachineModel, canonical_serialize, validate_model
from .registry import Descriptor, Registry, call_delegate_access, call_register_model
from .store import STORE_DIR, DirectoryContentStore
from .tracker import STATUS_VERIFIED, Tracker

EXPORTS_DIR = "exports"

# A conveyor loop that can run forever: every state always has at least one
# enabled transition, and both branching states make the seed matter.
DEMO_MODEL_DOC = {
    "name": "conveyor",
    "states": ["idle", "loading", "moving"],
    "initial": "idle",
    "finals": [],
    "variables": {"items": 0},
    "transitions": [
        {"id": "t_load", "from": "idle", "to": "loading",
         "effect": {"var": "items", "add": 1}},
        {"id": "t_more", "from": "loading", "to": "loading",
         "effect": {"var": "items", "add": 1}},
        {"id": "t_dispatch", "from": "loading", "to": "moving",
         "guard": {"var": "items", "op": ">=", "value": 1}},
        {"id": "t_deliver", "from": "moving", "to": "idle",
         "effect": {"var": "items", "add": -1}},
        {"id": "t_return", "from": "moving", "to": "loading"},
    ],
}


def demo_model() -> StateMachineModel:
    return validate_model(DEMO_MODEL_DOC)


def derive_account(seed: int, index: int) -> str:
    """Deterministic throwaway account id for a seeded scenario."""
    return "0x" + content_hash({"account_seed": seed, "index": index})[2:42]


def _step(engine: Engine, model: StateMachineModel, state: InstanceState,
          rng: random.Random) -> InstanceState:
    transition = rng.choice(enabled_transitions(state, model))
    post, _ = engine.fire_and_register(state, model, transition.id)
    return post


def multiparty(parties: int = 3, steps: int = 50, seed: int = 7, *,
               workdir: str | Path) -> dict:
    """Run the full scenario in a reset `workdir`; returns a summary, raises on divergence.

    The reset deletes an earlier run's ledger, checkpoint, store and exports,
    none of them unless each is absent or of its kind (store and exports real dirs).
    """
    if parties < 2 or steps < 0:
        raise ValueError(f"the scenario needs parties >= 2 and steps >= 0, not {parties}, {steps}")
    workdir = Path(workdir)
    ledger_path = workdir / LEDGER_FILE
    stale = (ledger_path, checkpoint_path(ledger_path), workdir / STORE_DIR, workdir / EXPORTS_DIR)
    for path in stale[:2]:
        if path.is_dir():
            raise ChainCorrupt(f"the ledger file {path} is a directory")
    for path in stale[2:]:
        if path.is_symlink() or (path.exists() and not path.is_dir()):
            raise MissingContent(f"{path} is not a directory")
    for path in stale:
        if path.is_dir():
            shutil.rmtree(path)
        elif path.exists():
            path.unlink()
    store = DirectoryContentStore(workdir / STORE_DIR)

    registry = Registry()
    ledger = Ledger.open(ledger_path, registry)
    accounts = [derive_account(seed, i) for i in range(parties)]
    for account in accounts:
        ledger.create_account(account)
    owner, delegate = accounts[0], accounts[-1]

    model = demo_model()
    mh = store.put(canonical_serialize(model))
    owner_engine = Engine(ledger, registry, store, owner)
    delegate_engine = Engine(ledger, registry, store, delegate)
    owner_engine.submit_call(call_register_model(mh, Descriptor(id="conveyor", name="conveyor")))
    owner_engine.submit_call(call_delegate_access(mh, delegate))

    run_1 = owner_engine.instantiate(model, Descriptor(id="run-1", name="conveyor run 1"), 1)
    run_2 = delegate_engine.instantiate(model, Descriptor(id="run-2", name="conveyor run 2"), 1)

    master = random.Random(seed)
    rng_1 = random.Random(master.randrange(2**63))
    rng_2 = random.Random(master.randrange(2**63))
    for _ in range(steps):
        run_1 = _step(owner_engine, model, run_1, rng_1)
        run_2 = _step(delegate_engine, model, run_2, rng_2)
    owner_engine.terminate(run_1.instance_hash)
    delegate_engine.terminate(run_2.instance_hash)

    instances = [run_1.instance_hash, run_2.instance_hash]
    exports_dir = workdir / EXPORTS_DIR
    exports_dir.mkdir(exist_ok=True)
    exports: dict[str, list[bytes]] = {h: [] for h in instances}
    for party in range(parties):
        # each party independently rebuilds its view from the persisted file
        view = Registry()
        view_ledger = Ledger.open(ledger_path, view)
        tracker = Tracker(view_ledger, view, DirectoryContentStore(workdir / STORE_DIR))
        tracker.catch_up()
        for instance in instances:
            statuses = tracker.verify_protocol(instance)
            if any(s != STATUS_VERIFIED for s in statuses):
                raise ConvergenceFailed(
                    f"party {party} could not verify instance {instance}")
            data = tracker.export(instance)
            exports[instance].append(data)
            (exports_dir / f"party{party}_{instance[2:10]}.jsonl").write_bytes(data)

    entries: dict[str, int] = {}
    export_digest: dict[str, str] = {}
    for instance in instances:
        if len(set(exports[instance])) != 1:
            raise ConvergenceFailed(f"exports diverged for instance {instance}")
        entries[instance] = len(exports[instance][0].splitlines())
        if entries[instance] != steps + 2:
            raise ConvergenceFailed(
                f"instance {instance} has {entries[instance]} entries, "
                f"expected {steps + 2}")
        export_digest[instance] = digest(exports[instance][0])

    return {
        "converged": True,
        "entries": entries,
        "export_digest": export_digest,
        "instances": instances,
        "ledger_blocks": len(ledger.blocks),
        "model_hash": mh,
        "parties": parties,
        "steps": steps,
    }
