"""Engine semantics: instantiation, firing, on-chain coupling, walks."""

import importlib

import pytest

from statetrail import hashing

from statetrail.engine import (
    Engine,
    InstanceState,
    enabled_transitions,
    fire,
    parse_state_content,
    state_content,
    state_hash,
)
from statetrail.errors import (
    DuplicateInstance,
    GuardFailed,
    ModelNotRegistered,
    StaleChain,
    UnknownTransition,
    WrongSourceState,
)
from statetrail.ledger import ZERO_CURSOR, verify_chain_file
from statetrail.model import model_hash, validate_model
from statetrail.registry import Descriptor, call_delegate_access, call_register_model

from conftest import (
    ALICE,
    BOB,
    CYCLE_DOC,
    cycle_model,
    engine_for,
    make_world,
    minimal_model,
)

# Frozen oracle: sha256sum over the canonical state-content literal below.
STATE_CONTENT_LITERAL = (
    b'{"current_state":"A","instance_hash":'
    b'"0xabababababababababababababababababababababababababababababababab",'
    b'"step":0,"variables":{"x":1}}'
)
STATE_DIGEST = "0x35d266b3b61b1c31ef8cf1741e369d9d6eb9756181bb7e405d73949495362620"

GUARDED_DOC = {
    "name": "guarded",
    "states": ["A", "B"],
    "initial": "A",
    "finals": [],
    "transitions": [
        {"id": "go", "from": "A", "to": "B",
         "guard": {"var": "x", "op": ">", "value": 0},
         "effect": {"var": "x", "add": -1}},
    ],
    "variables": {"x": 0},
}


def registered(world, model, account=ALICE) -> Engine:
    engine = engine_for(world, account)
    engine.submit_call(call_register_model(model_hash(model), Descriptor("m", "m")))
    return engine


class TestStateHash:
    def test_frozen_oracle(self):
        state = InstanceState("0x" + "ab" * 32, "A", {"x": 1}, 0)
        assert state_content(state) == STATE_CONTENT_LITERAL
        assert state_hash(state) == STATE_DIGEST

    def test_identical_states_hash_alike(self):
        a = InstanceState("0x" + "11" * 32, "A", {"x": 1}, 2)
        b = InstanceState("0x" + "11" * 32, "A", {"x": 1}, 2)
        assert state_hash(a) == state_hash(b)

    def test_step_is_hashed(self):
        a = InstanceState("0x" + "11" * 32, "A", {"x": 1}, 2)
        b = InstanceState("0x" + "11" * 32, "A", {"x": 1}, 3)
        assert state_hash(a) != state_hash(b)

    def test_content_round_trip(self):
        state = InstanceState("0x" + "11" * 32, "A", {"x": -4}, 7)
        again = parse_state_content(state_content(state))
        assert again == state
        assert state_hash(again) == state_hash(state)


class TestFire:
    def test_base_case(self):
        model = minimal_model()
        pre = InstanceState("0x" + "11" * 32, "A", {}, 0)
        post = fire(pre, model, "t1")
        assert post.current_state == "B"
        assert post.step == 1
        assert pre.current_state == "A"  # input untouched

    def test_wrong_source_state(self):
        model = minimal_model()
        state = InstanceState("0x" + "11" * 32, "B", {}, 1)
        with pytest.raises(WrongSourceState):
            fire(state, model, "t1")

    def test_unknown_transition(self):
        with pytest.raises(UnknownTransition):
            fire(InstanceState("0x" + "11" * 32, "A", {}, 0), minimal_model(), "nope")

    def test_guard_blocks_firing(self):
        model = validate_model(GUARDED_DOC)
        state = InstanceState("0x" + "11" * 32, "A", {"x": 0}, 0)
        with pytest.raises(GuardFailed):
            fire(state, model, "go")

    def test_guard_passes_and_effect_applies(self):
        model = validate_model(GUARDED_DOC)
        state = InstanceState("0x" + "11" * 32, "A", {"x": 2}, 0)
        post = fire(state, model, "go")
        assert post.current_state == "B"
        assert dict(post.variables) == {"x": 1}

    def test_enabled_transitions_respect_guards(self):
        model = validate_model(GUARDED_DOC)
        assert enabled_transitions(InstanceState("0x" + "11" * 32, "A", {"x": 0}, 0),
                                   model) == []
        assert [t.id for t in enabled_transitions(
            InstanceState("0x" + "11" * 32, "A", {"x": 1}, 0), model)] == ["go"]


class TestInstantiate:
    def test_base_case(self, world, descriptor):
        model = cycle_model()
        engine = registered(world, model)
        state = engine.instantiate(model, descriptor, 1)
        assert state.current_state == "p"
        assert state.step == 0
        assert dict(state.variables) == {"n": 0}
        record = world.registry.get_instance(state.instance_hash)
        assert record.latest_state == state_hash(state)
        assert world.store.get(state.instance_hash)  # creation record published

    def test_same_inputs_collide(self, world, descriptor):
        model = cycle_model()
        engine = registered(world, model)
        engine.instantiate(model, descriptor, 1)
        with pytest.raises(DuplicateInstance):
            engine.instantiate(model, descriptor, 1)

    def test_fresh_nonce_gives_second_instance(self, world, descriptor):
        model = cycle_model()
        engine = registered(world, model)
        first = engine.instantiate(model, descriptor, 1)
        second = engine.instantiate(model, descriptor, 2)
        assert first.instance_hash != second.instance_hash
        assert len(world.registry.instance_hashes()) == 2

    def test_unregistered_model(self, world, descriptor):
        engine = engine_for(world, ALICE)
        with pytest.raises(ModelNotRegistered):
            engine.instantiate(cycle_model(), descriptor, 1)


class TestFireAndRegister:
    def test_local_and_chain_advance_together(self, world, descriptor):
        model = cycle_model()
        engine = registered(world, model)
        state = engine.instantiate(model, descriptor, 1)
        for expected_seq, tid in enumerate(("ab", "bc", "ca"), start=1):
            state, record = engine.fire_and_register(state, model, tid)
            assert record.seq == expected_seq == state.step
            assert record.post_state == state_hash(state)
        record = world.registry.get_instance(state.instance_hash)
        assert record.transition_count == 3

    def test_returned_record_is_the_registry_last_transition(self, world, descriptor):
        model = cycle_model()
        engine = registered(world, model)
        state = engine.instantiate(model, descriptor, 1)
        for tid in ("ab", "bc", "ca", "ab"):
            state, record = engine.fire_and_register(state, model, tid)
            assert record == world.registry.get_transitions(state.instance_hash)[-1]

    def test_stale_chain_leaves_local_state_unadvanced(self, world, descriptor):
        model = cycle_model()
        owner = registered(world, model)
        state = owner.instantiate(model, descriptor, 1)
        owner.submit_call(call_delegate_access(state.instance_hash, BOB))
        rival = engine_for(world, BOB)
        # rival wins the race; owner's local view is now stale
        rival.fire_and_register(state, model, "ab")
        blocks_before = len(world.ledger.blocks)
        with pytest.raises(StaleChain):
            owner.fire_and_register(state, model, "ab")
        assert state.current_state == "p" and state.step == 0
        # the losing call is on-chain with a failure marker
        assert len(world.ledger.blocks) == blocks_before + 1
        assert world.ledger.blocks[-1].transactions[0].status == "failed"

    def test_guard_failure_submits_nothing(self, world, descriptor):
        model = validate_model(GUARDED_DOC)
        engine = registered(world, model)
        state = engine.instantiate(model, descriptor, 1)
        blocks_before = len(world.ledger.blocks)
        with pytest.raises(GuardFailed):
            engine.fire_and_register(state, model, "go")
        assert len(world.ledger.blocks) == blocks_before

    def test_stored_pre_state_is_not_written_again(self, world, descriptor, monkeypatch):
        model = cycle_model()
        engine = registered(world, model)
        state = engine.instantiate(model, descriptor, 1)
        puts = []
        put = world.store.put
        monkeypatch.setattr(world.store, "put",
                            lambda content: puts.append(content) or put(content))
        for tid in ("ab", "bc", "ca"):
            state, _ = engine.fire_and_register(state, model, tid)
        assert len(puts) == 3
        assert puts[-1] == state_content(state)

    def test_missing_pre_state_is_stored(self, world, descriptor):
        model = cycle_model()
        engine = registered(world, model)
        state = engine.instantiate(model, descriptor, 1)
        world.store._entries.pop(state_hash(state))
        engine.fire_and_register(state, model, "ab")
        assert world.store.get(state_hash(state)) == state_content(state)


class TestPreStateHash:
    """The pre-state hash is reused only for the engine's own latest object."""

    @pytest.fixture
    def calls(self, monkeypatch):
        """Calls to `canonical_bytes` and `digest`, wherever a module imported them."""
        counts = {"canonical_bytes": 0, "digest": 0}
        modules = [hashing] + [importlib.import_module(f"statetrail.{m}") for m in
                               ("model", "engine", "ledger", "registry", "store",
                                "tracker", "demo", "cli")]
        for name in counts:
            original = getattr(hashing, name)

            def counted(*args, _name=name, _original=original):
                counts[_name] += 1
                return _original(*args)

            for module in modules:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        return counts

    def test_in_memory_step_encodes_three_times_and_hashes_twice(self, world, descriptor,
                                                                 calls):
        model = cycle_model()
        engine = registered(world, model)
        per_walk = []
        for nonce, steps in ((1, 0), (2, 30)):
            state = engine.instantiate(model, descriptor, nonce)
            before = dict(calls)
            trace = engine.random_walk(model, state, steps, seed=3)
            assert len(trace.steps) == steps
            per_walk.append({k: calls[k] - before[k] for k in calls})
        # the walk of no steps pays only for the termination
        per_step = {k: (per_walk[1][k] - per_walk[0][k]) / 30 for k in calls}
        # encoded: the post-state, the call before the ledger applies it, and the
        # block; hashed: the post-state and the block
        assert per_step == {"canonical_bytes": 3, "digest": 2}

    @pytest.mark.parametrize("again", [
        lambda engine, state: state._replace(),
        lambda engine, state: engine.load_state(state.instance_hash),
    ], ids=["equal-copy", "reloaded"])
    def test_other_object_of_the_latest_state_is_hashed_again(self, world, descriptor,
                                                              again):
        model = cycle_model()
        engine = registered(world, model)
        state = engine.instantiate(model, descriptor, 1)
        state, _ = engine.fire_and_register(state, model, "ab")
        copy = again(engine, state)
        assert copy == state and copy is not state
        post, record = engine.fire_and_register(copy, model, "bc")
        assert (record.pre_state, record.post_state) == (state_hash(state), state_hash(post))
        assert world.registry.get_instance(state.instance_hash).latest_state == \
            state_hash(post)

    def test_step_after_stale_chain_starts_from_the_rival_state(self, world, descriptor):
        model = cycle_model()
        owner = registered(world, model)
        state = owner.instantiate(model, descriptor, 1)
        owner.submit_call(call_delegate_access(state.instance_hash, BOB))
        rival_state, _ = engine_for(world, BOB).fire_and_register(state, model, "ab")
        with pytest.raises(StaleChain):
            owner.fire_and_register(state, model, "ab")
        post, record = owner.fire_and_register(rival_state, model, "bc")
        assert record.seq == 2
        assert (record.pre_state, record.post_state) == (state_hash(rival_state),
                                                         state_hash(post))

    def test_terminate_drops_the_entry(self, world, descriptor):
        model = cycle_model()
        engine = registered(world, model)
        walked = engine.instantiate(model, descriptor, 1)
        stopped = engine.instantiate(model, descriptor, 2)
        engine.random_walk(model, walked, 4, seed=1)
        engine.terminate(stopped.instance_hash)
        assert engine._latest == {}


class TestRandomWalk:
    def test_fixed_seed_reproduces_identical_traces(self, descriptor):
        traces = []
        for _ in range(2):
            world = make_world()
            engine = registered(world, cycle_model())
            state = engine.instantiate(cycle_model(), descriptor, 1)
            traces.append(engine.random_walk(cycle_model(), state, 30, seed=99))
        assert traces[0] == traces[1]

    def test_fifty_step_walk_on_cycle(self, world, descriptor):
        model = cycle_model()
        engine = registered(world, model)
        state = engine.instantiate(model, descriptor, 1)
        trace = engine.random_walk(model, state, 50, seed=1)
        assert len(trace.steps) == 50
        record = world.registry.get_instance(state.instance_hash)
        assert record.transition_count == 50
        assert record.status.value == "terminated"

    def test_no_enabled_transitions_terminates_immediately(self, world, descriptor):
        model = validate_model(GUARDED_DOC)  # guard x>0 never holds with x=0
        engine = registered(world, model)
        state = engine.instantiate(model, descriptor, 1)
        trace = engine.random_walk(model, state, 10, seed=1)
        assert trace.steps == ()
        assert world.registry.get_instance(state.instance_hash).status.value == "terminated"

    def test_negative_steps_raise_before_anything_is_submitted(self, world, descriptor):
        model = cycle_model()
        engine = registered(world, model)
        state = engine.instantiate(model, descriptor, 1)
        height = world.ledger.height
        with pytest.raises(ValueError):
            engine.random_walk(model, state, -3, seed=1)
        assert world.ledger.height == height
        assert world.registry.get_instance(state.instance_hash).status.value == "active"

    def test_walk_stops_at_final_state(self, world, descriptor):
        doc = dict(CYCLE_DOC, name="one-way", finals=["q"])
        model = validate_model(doc)
        engine = registered(world, model)
        state = engine.instantiate(model, descriptor, 1)
        trace = engine.random_walk(model, state, 10, seed=1)
        assert len(trace.steps) == 1  # p -> q, then final stops the walk

    def test_trace_chains_and_matches_registry(self, world, descriptor):
        model = cycle_model()
        engine = registered(world, model)
        state = engine.instantiate(model, descriptor, 1)
        initial_hash = state_hash(state)
        trace = engine.random_walk(model, state, 20, seed=5)
        for a, b in zip(trace.steps, trace.steps[1:]):
            assert a.post_hash == b.pre_hash
        records = world.registry.get_transitions(state.instance_hash)
        assert records[0].pre_state == initial_hash
        assert [r.post_state for r in records] == [step.post_hash for step in trace.steps]

    def test_every_fire_has_exactly_one_chain_record(self, world, descriptor):
        model = cycle_model()
        engine = registered(world, model)
        state = engine.instantiate(model, descriptor, 1)
        trace = engine.random_walk(model, state, 25, seed=8)
        records = world.registry.get_transitions(state.instance_hash)
        assert len(records) == len(trace.steps)
        assert [(r.pre_state, r.post_state) for r in records] == [
            (s.pre_hash, s.post_hash) for s in trace.steps]
        events = [e for e in world.ledger.events_since(ZERO_CURSOR)
                  if e.kind == "TransitionEvent"
                  and e.payload["instance_hash"] == state.instance_hash]
        assert len(events) == len(trace.steps)


class TestLoadState:
    def test_round_trip_from_chain_and_store(self, world, descriptor):
        model = cycle_model()
        engine = registered(world, model)
        state = engine.instantiate(model, descriptor, 1)
        state, _ = engine.fire_and_register(state, model, "ab")
        loaded = engine.load_state(state.instance_hash)
        assert loaded == state


class TestConcurrentInstances:
    def test_two_threads_drive_distinct_instances(self, tmp_path):
        import threading

        world = make_world(path=tmp_path / "ledger.jsonl")
        model = cycle_model()
        owner = registered(world, model)
        rival = engine_for(world, BOB)
        owner.submit_call(call_delegate_access(model_hash(model), BOB))
        states = {
            ALICE: owner.instantiate(model, Descriptor(id="i-a", name="a"), 1),
            BOB: rival.instantiate(model, Descriptor(id="i-b", name="b"), 1),
        }
        failures = []

        def drive(engine, key):
            try:
                state = states[key]
                for tid in ("ab", "bc", "ca") * 5:
                    state, _ = engine.fire_and_register(state, model, tid)
                states[key] = state
            except Exception as exc:  # surfaced after join
                failures.append(exc)

        threads = [threading.Thread(target=drive, args=(owner, ALICE)),
                   threading.Thread(target=drive, args=(rival, BOB))]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert failures == []
        for key in (ALICE, BOB):
            record = world.registry.get_instance(states[key].instance_hash)
            assert record.transition_count == 15
        assert verify_chain_file(tmp_path / "ledger.jsonl").ok
        events = [e for e in world.ledger.events_since(ZERO_CURSOR)
                  if e.kind == "TransitionEvent"]
        assert len(events) == 30
