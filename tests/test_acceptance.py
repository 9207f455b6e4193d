"""Acceptance criteria, one test per criterion, zero-tolerance assertions.

Run with `pytest tests/test_acceptance.py -v -s` to see one pass line per
criterion.
"""

import json
import random
import time
from itertools import count

from click.testing import CliRunner

from statetrail.cli import cli
from statetrail.engine import Engine, InstanceState, enabled_transitions, state_content, state_hash
from statetrail.errors import TrailError
from statetrail.hashing import canonical_bytes, content_hash
from statetrail.ledger import Ledger, ZERO_CURSOR
from statetrail.model import canonical_serialize, model_hash, validate_model
from statetrail.registry import (
    Descriptor,
    Registry,
    call_register_model,
    call_register_transition,
)
from statetrail.store import DirectoryContentStore
from statetrail.tracker import STATUS_INCONSISTENT, STATUS_VERIFIED, Tracker

from conftest import (
    ALICE,
    BOB,
    CARA,
    engine_for,
    make_world,
    random_model,
    raw_submit,
)
from test_registry import AUTH_OPS, authorization_matrix, run_authorization_cell

runner = CliRunner()


def report(line: str) -> None:
    print(f"\n{line}")


def seeded_world_with_model(model, path=None):
    world = make_world(path=path)
    world.store.put(canonical_serialize(model))
    engine = engine_for(world, ALICE)
    engine.submit_call(call_register_model(model_hash(model), Descriptor("m", "m")))
    return world, engine


# ---------------------------------------------------------------- criterion 1

def test_criterion_1_multiparty_convergence(tmp_path):
    """3 parties, 2 instances, 50 steps each, byte-identical 52-entry exports."""
    workdir = tmp_path / "demo"
    started = time.perf_counter()
    result = runner.invoke(cli, [
        "demo", "multiparty", "--parties", "3", "--steps", "50",
        "--workdir", str(workdir),
    ], catch_exceptions=False)
    elapsed = time.perf_counter() - started
    assert result.exit_code == 0, result.output
    summary = json.loads(result.output.strip().splitlines()[-1])
    assert summary["converged"] is True
    assert len(summary["instances"]) == 2
    assert all(n == 52 for n in summary["entries"].values())

    exports = {}
    for path in sorted((workdir / "exports").iterdir()):
        instance = path.name.split("_")[1].split(".")[0]
        exports.setdefault(instance, set()).add(path.read_bytes())
    assert len(exports) == 2
    for variants in exports.values():
        assert len(variants) == 1  # byte-identical across the 3 parties
        lines = [json.loads(l) for l in next(iter(variants)).splitlines()]
        assert len(lines) == 52
        assert sum(1 for l in lines if l["kind"] == "transition") == 50
    assert elapsed < 10.0
    report(f"[PASS] criterion 1: 3 parties converged on byte-identical "
           f"52-entry protocols for 2 instances in {elapsed:.2f}s")


# ---------------------------------------------------------------- criterion 2

def _randomized_bijection_run(seed: int) -> tuple[int, int]:
    from statetrail.demo import demo_model
    rng = random.Random(seed)
    world = make_world()
    # alternate an always-live model with fully random ones
    model = demo_model() if seed % 2 == 0 else random_model(rng)
    world.store.put(canonical_serialize(model))
    owner_engine = engine_for(world, ALICE)
    owner_engine.submit_call(call_register_model(model_hash(model),
                                                 Descriptor("m", "m")))
    fresh = count(1)
    states: dict[str, InstanceState | None] = {}
    first = owner_engine.instantiate(model, Descriptor(id="i0", name="i"),
                                     next(fresh))
    states[first.instance_hash] = first
    for _ in range(rng.randint(8, 25)):
        op = rng.choice(("create", "step", "step", "stale", "stranger", "terminate"))
        try:
            if op == "create":
                state = owner_engine.instantiate(
                    model, Descriptor(id=f"i{next(fresh)}", name="i"), next(fresh))
                states[state.instance_hash] = state
            elif op == "step" and states:
                ih = rng.choice(sorted(states))
                state = states[ih]
                if state is None or state.current_state in model.finals:
                    continue
                enabled = enabled_transitions(state, model)
                if not enabled:
                    continue
                post, _ = owner_engine.fire_and_register(state, model,
                                                         rng.choice(enabled).id)
                states[ih] = post
            elif op == "stale" and states:
                ih = rng.choice(sorted(states))
                raw_submit(world.ledger, ALICE, call_register_transition(
                    ih, content_hash({"stale": seed}), content_hash({"post": seed})))
            elif op == "stranger" and states:
                ih = rng.choice(sorted(states))
                latest = world.registry.get_instance(ih).latest_state
                raw_submit(world.ledger, CARA, call_register_transition(
                    ih, latest, content_hash({"hostile": seed})))
            elif op == "terminate" and states:
                ih = rng.choice(sorted(states))
                if states[ih] is None:
                    continue
                owner_engine.terminate(ih)
                states[ih] = None
        except TrailError:
            continue

    ok_calls = sum(
        1 for block in world.ledger.blocks for tx in block.transactions
        if tx.call.get("op") == "register_transition" and tx.status == "ok")
    events = sum(1 for e in world.ledger.events_since(ZERO_CURSOR)
                 if e.kind == "TransitionEvent")
    for ih in sorted(world.registry.snapshot()["instances"]):
        seqs = [t.seq for t in world.registry.get_transitions(ih)]
        assert seqs == list(range(1, len(seqs) + 1)), f"seq gap in run {seed}"
    return ok_calls, events


def test_criterion_2_event_bijection():
    """TransitionEvent count equals successful registration count, 200 runs."""
    total_calls = total_events = 0
    for seed in range(200):
        ok_calls, events = _randomized_bijection_run(seed)
        assert ok_calls == events, f"bijection broken in run {seed}"
        total_calls += ok_calls
        total_events += events
    assert total_calls == total_events
    report(f"[PASS] criterion 2: {total_events} events == {total_calls} successful "
           f"registrations over 200 randomized runs, no seq gaps")


# ---------------------------------------------------------------- criterion 3

def test_criterion_3_registry_engine_agreement():
    """Tracker-reconstructed hash sequences equal engine traces, 100 cases."""
    from statetrail.demo import demo_model
    mismatches = 0
    total_steps = 0
    for case in range(100):
        rng = random.Random(10_000 + case)
        model = demo_model() if case % 3 == 0 else random_model(rng)
        world, engine = seeded_world_with_model(model)
        state = engine.instantiate(model, Descriptor(id=f"case-{case}", name="c"), 1)
        initial_hash = state_hash(state)
        trace = engine.random_walk(model, state, rng.randint(0, 100),
                                   seed=rng.getrandbits(32))
        total_steps += len(trace.steps)

        tracker = Tracker(world.ledger, world.registry, world.store)
        tracker.catch_up()
        entries = tracker.protocols[state.instance_hash].entries
        tracker_hashes = [entries[0].post_state] + [
            e.post_state for e in entries if e.kind == "transition"]
        engine_hashes = [initial_hash] + [s.post_hash for s in trace.steps]
        if tracker_hashes != engine_hashes:
            mismatches += 1
    assert mismatches == 0
    report(f"[PASS] criterion 3: 100/100 cases agree "
           f"({total_steps} transitions compared), 0 mismatches")


# ---------------------------------------------------------------- criterion 4

def test_criterion_4_authorization_matrix():
    """Every unauthorized call rejected, every owner/delegate call succeeds."""
    failures = []
    for op in AUTH_OPS:
        for caller in (ALICE, BOB, CARA):
            outcome = run_authorization_cell(op, caller)
            if outcome != authorization_matrix()[(op, caller)]:
                failures.append((op, caller, outcome))
    assert failures == []
    report("[PASS] criterion 4: full 3-account x 4-operation matrix enforced "
           "(12/12 cells)")


# ---------------------------------------------------------------- criterion 5

def _honest_file_run(tmp_path):
    from statetrail.demo import demo_model
    model = demo_model()
    workdir = tmp_path / "honest"
    workdir.mkdir()
    registry = Registry()
    ledger = Ledger.open(workdir / "ledger.jsonl", registry)
    for account in (ALICE, BOB, CARA):
        ledger.create_account(account)
    store = DirectoryContentStore(workdir / "store")
    store.put(canonical_serialize(model))
    engine = Engine(ledger, registry, store, ALICE)
    engine.submit_call(call_register_model(model_hash(model), Descriptor("m", "m")))
    instances = []
    for nonce in (1, 2):
        state = engine.instantiate(model, Descriptor(id=f"i{nonce}", name="i"), nonce)
        instances.append(state.instance_hash)
        engine.random_walk(model, state, 6, seed=nonce)
    return workdir, instances


def _flip_one_byte(data: bytes, rng: random.Random) -> bytes:
    out = bytearray(data)
    pos = rng.randrange(len(out))
    while out[pos] in (10, 13):
        pos = rng.randrange(len(out))
    replacement = rng.randrange(256)
    while replacement == out[pos] or replacement in (10, 13):
        replacement = rng.randrange(256)
    out[pos] = replacement
    return bytes(out)


def test_criterion_5_tamper_detection(tmp_path):
    """100/100 block tampers and 100/100 store tampers are detected."""
    workdir, instances = _honest_file_run(tmp_path)
    ledger_path = workdir / "ledger.jsonl"
    original = ledger_path.read_bytes()

    chain_detected = 0
    for trial in range(100):
        rng = random.Random(trial)
        trial_dir = tmp_path / "chain-trial"
        trial_dir.mkdir(exist_ok=True)
        (trial_dir / "ledger.jsonl").write_bytes(_flip_one_byte(original, rng))
        result = runner.invoke(cli, ["--dir", str(trial_dir), "chain", "verify"])
        if result.exit_code != 0:
            chain_detected += 1
    assert chain_detected == 100

    store_dir = workdir / "store"
    store_files = sorted(store_dir.iterdir())
    store_detected = 0
    for trial in range(100):
        rng = random.Random(1_000 + trial)
        victim = store_files[rng.randrange(len(store_files))]
        pristine = victim.read_bytes()
        victim.write_bytes(_flip_one_byte(pristine, rng))
        flagged = False
        for instance in instances:
            result = runner.invoke(cli, ["--dir", str(workdir),
                                         "protocol", "verify", instance])
            if result.exit_code != 0:
                flagged = True
        victim.write_bytes(pristine)
        if flagged:
            store_detected += 1
    assert store_detected == 100
    report("[PASS] criterion 5: 100/100 block tampers and 100/100 content "
           "tampers detected")


# ---------------------------------------------------------------- criterion 6

INJECT_DOC = {
    "name": "inject",
    "states": ["s0", "s1", "lone"],
    "initial": "s0",
    "finals": [],
    "variables": {"x": 0},
    "transitions": [
        {"id": "t_plain", "from": "s0", "to": "s1"},
        {"id": "t_guarded", "from": "s0", "to": "s1",
         "guard": {"var": "x", "op": ">=", "value": 1},
         "effect": {"var": "x", "add": -1}},
        {"id": "t_back", "from": "s1", "to": "s0"},
    ],
}


def _inject_illegal_post(world, engine, model, state, mutation: str):
    """Register a semantically illegal post state; returns its protocol seq."""
    if mutation == "wrong_target":
        bogus = InstanceState(state.instance_hash, "lone",
                              dict(state.variables), state.step + 1)
    elif mutation == "guard_violation":
        # only t_guarded's effect yields x == -1, but its guard needs x >= 1
        bogus = InstanceState(state.instance_hash, "s1", {"x": -1}, state.step + 1)
    else:  # wrong_step
        bogus = InstanceState(state.instance_hash, "s1",
                              dict(state.variables), state.step + 2)
    world.store.put(state_content(bogus))
    receipt = raw_submit(world.ledger, ALICE, call_register_transition(
        state.instance_hash, state_hash(state), state_hash(bogus)))
    assert receipt.ok  # the contract sees only hashes and must accept
    return state.step + 1


def test_criterion_6_verification_soundness():
    """Honest runs verify 100%; injected illegal post-states flagged 100/100."""
    for case in range(20):
        rng = random.Random(20_000 + case)
        model = random_model(rng)
        world, engine = seeded_world_with_model(model)
        state = engine.instantiate(model, Descriptor(id="h", name="h"), 1)
        engine.random_walk(model, state, rng.randint(0, 40), seed=case)
        tracker = Tracker(world.ledger, world.registry, world.store)
        tracker.catch_up()
        statuses = tracker.verify_protocol(state.instance_hash)
        assert all(s == STATUS_VERIFIED for s in statuses), f"honest case {case}"

    model = validate_model(INJECT_DOC)
    flagged = 0
    mutations = ("wrong_target", "guard_violation", "wrong_step")
    for trial in range(100):
        rng = random.Random(30_000 + trial)
        world, engine = seeded_world_with_model(model)
        state = engine.instantiate(model, Descriptor(id="v", name="v"), 1)
        for _ in range(rng.randint(0, 2)):  # honest round trip keeps x at 0
            state, _ = engine.fire_and_register(state, model, "t_plain")
            state, _ = engine.fire_and_register(state, model, "t_back")
        bad_seq = _inject_illegal_post(world, engine, model, state,
                                       mutations[trial % 3])
        tracker = Tracker(world.ledger, world.registry, world.store)
        tracker.catch_up()
        tracker.verify_protocol(state.instance_hash)
        protocol = tracker.protocols[state.instance_hash]
        statuses = {e.seq: e.status for e in protocol.entries}
        if statuses[bad_seq] == STATUS_INCONSISTENT:
            flagged += 1
        honest = [e.status for e in protocol.entries if e.seq != bad_seq]
        assert all(s == STATUS_VERIFIED for s in honest)
    assert flagged == 100
    report("[PASS] criterion 6: honest runs 100% verified; 100/100 injected "
           "illegal post-states flagged inconsistent")


# ---------------------------------------------------------------- criterion 7

def test_criterion_7_replay_determinism(tmp_path):
    """Replaying the ledger file reproduces state, hashes and exports."""
    workdir, instances = _honest_file_run(tmp_path)
    ledger_path = workdir / "ledger.jsonl"
    store = DirectoryContentStore(workdir / "store")

    first_registry = Registry()
    first_ledger = Ledger.open(ledger_path, first_registry)
    first_tracker = Tracker(first_ledger, first_registry, store)
    first_tracker.catch_up()
    first_snapshot = canonical_bytes(first_registry.snapshot())
    first_hashes = [b.block_hash for b in first_ledger.blocks]
    first_exports = {ih: first_tracker.export(ih) for ih in instances}

    second_registry = Registry()
    second_ledger = Ledger.open(ledger_path, second_registry)
    second_tracker = Tracker(second_ledger, second_registry, store)
    second_tracker.catch_up()

    assert canonical_bytes(second_registry.snapshot()) == first_snapshot
    assert [b.block_hash for b in second_ledger.blocks] == first_hashes
    for ih in instances:
        assert second_tracker.export(ih) == first_exports[ih]
    report(f"[PASS] criterion 7: replay reproduced {len(first_hashes)} block "
           f"hashes, registry snapshot and {len(instances)} exports byte-for-byte")
