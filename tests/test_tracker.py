"""Tracking: protocol reconstruction, verification, export, convergence."""

import copy

import pytest
from hypothesis import given, settings, strategies as st

import statetrail.tracker as tracker_module
from statetrail.engine import InstanceState, state_content, state_hash
from statetrail.errors import CorruptContent, MissingContent, OutOfOrderEvent
from statetrail.hashing import canonical_bytes, content_hash, digest
from statetrail.ledger import EventRecord, ZERO_CURSOR
from statetrail.model import canonical_serialize, model_hash, validate_model
from statetrail.registry import (
    Descriptor,
    call_delegate_access,
    call_register_instance,
    call_register_model,
    call_register_transition,
    call_terminate_instance,
)
from statetrail.store import ContentStore, DirectoryContentStore
from statetrail.tracker import (
    STATUS_INCONSISTENT,
    STATUS_UNVERIFIED,
    STATUS_VERIFIED,
    Tracker,
    verify_entry,
)

from conftest import ALICE, BOB, MINIMAL_DOC, cycle_model, engine_for, make_world, raw_submit


def tracked_world(steps=("ab", "bc", "ca"), terminate=True, model=None):
    """Honest run over a model, by default the cycle, plus a caught-up tracker."""
    world = make_world()
    engine = engine_for(world, ALICE)
    model = model or cycle_model()
    world.store.put(canonical_serialize(model))
    engine.submit_call(call_register_model(model_hash(model), Descriptor("m", "m")))
    state = engine.instantiate(model, Descriptor(id="i", name="i"), 1)
    for tid in steps:
        state, _ = engine.fire_and_register(state, model, tid)
    if terminate:
        engine.terminate(state.instance_hash)
    tracker = Tracker(world.ledger, world.registry, world.store)
    tracker.catch_up()
    return world, engine, model, state, tracker


def hop_statuses(doc, target, n):
    """Statuses of a fresh instance of `doc` after one registered hop to (target, n)."""
    world, _, _, state, _ = tracked_world(steps=(), terminate=False, model=validate_model(doc))
    post = world.store.put(state_content(
        InstanceState(state.instance_hash, target, {"n": n}, 1)))
    assert raw_submit(world.ledger, ALICE, call_register_transition(
        state.instance_hash, state_hash(state), post)).ok
    tracker = Tracker(world.ledger, world.registry, world.store)
    tracker.catch_up()
    return tracker.verify_protocol(state.instance_hash)


class TestContentStores:
    @pytest.mark.parametrize("factory", [
        lambda tmp: ContentStore(),
        lambda tmp: DirectoryContentStore(tmp / "store"),
    ])
    def test_put_get_round_trip(self, tmp_path, factory):
        store = factory(tmp_path)
        key = store.put(b"payload")
        assert key == digest(b"payload")
        assert store.get(key) == b"payload"
        assert store.has(key)

    @pytest.mark.parametrize("factory", [
        lambda tmp: ContentStore(),
        lambda tmp: DirectoryContentStore(tmp / "store"),
    ])
    def test_missing_is_not_corrupt(self, tmp_path, factory):
        store = factory(tmp_path)
        with pytest.raises(MissingContent):
            store.get(digest(b"absent"))

    def test_memory_tamper_detected_on_read(self):
        store = ContentStore()
        key = store.put(b"one thing")
        store._entries[key] = b"another thing"
        with pytest.raises(CorruptContent):
            store.get(key)

    def test_directory_at_key_path_is_missing(self, tmp_path):
        store = DirectoryContentStore(tmp_path / "store")
        key = digest(b"never stored")
        (tmp_path / "store" / key).mkdir()
        assert not store.has(key)
        with pytest.raises(MissingContent):
            store.get(key)

    def test_write_that_fails_midway_leaves_nothing_at_the_key(self, tmp_path, monkeypatch):
        import statetrail.store as store_module

        class HalfWritten:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:len(data) // 2])
                raise OSError(28, "No space left on device")

        store = DirectoryContentStore(tmp_path / "store")
        key = digest(b"precious bytes")
        monkeypatch.setattr(store_module, "open", lambda *a: HalfWritten(open(*a)),
                            raising=False)
        with pytest.raises(OSError):
            store.put(b"precious bytes")
        assert not store.has(key)
        assert list((tmp_path / "store").iterdir()) == []
        monkeypatch.undo()
        assert store.put(b"precious bytes") == key
        assert store.get(key) == b"precious bytes"
        assert [p.name for p in (tmp_path / "store").iterdir()] == [key]

    def test_disk_tamper_detected_on_read(self, tmp_path):
        store = DirectoryContentStore(tmp_path / "store")
        key = store.put(b"precious bytes")
        path = tmp_path / "store" / key
        data = bytearray(path.read_bytes())
        data[3] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(CorruptContent):
            store.get(key)


class TestApplyEvents:
    def test_honest_run_builds_full_protocol(self):
        _, _, _, state, tracker = tracked_world()
        protocol = tracker.protocols[state.instance_hash]
        kinds = [e.kind for e in protocol.entries]
        assert kinds == ["creation", "transition", "transition", "transition",
                         "termination"]
        assert [e.seq for e in protocol.entries] == [0, 1, 2, 3, 4]
        assert protocol.entries[0].post_state is not None
        assert all(e.height is not None for e in protocol.entries)

    def test_transition_entries_carry_both_state_hashes(self):
        _, _, _, state, tracker = tracked_world()
        for entry in tracker.protocols[state.instance_hash].entries:
            if entry.kind == "transition":
                assert entry.pre_state and entry.post_state

    def test_seq_gap_raises_out_of_order(self):
        _, _, _, state, tracker = tracked_world(steps=("ab",), terminate=False)
        gap_event = EventRecord(
            kind="TransitionEvent",
            payload={"emitter": ALICE, "instance_hash": state.instance_hash,
                     "pre_state": digest(b"x"), "post_state": digest(b"y"), "seq": 3},
            height=99, tx_index=0, event_index=0, timestamp=99,
        )
        with pytest.raises(OutOfOrderEvent):
            tracker.apply_event(gap_event)

    def test_duplicate_creation_raises(self):
        world, _, _, state, tracker = tracked_world(steps=(), terminate=False)
        creation = [e for e in world.ledger.events_since(ZERO_CURSOR)
                    if e.kind == "InstanceCreated"][0]
        with pytest.raises(OutOfOrderEvent):
            tracker.apply_event(creation)

    def test_late_tracker_refuses_a_transition_of_an_unseen_instance(self):
        world, _, _, _, _ = tracked_world(steps=("ab", "bc"), terminate=False)
        # late joiner: the cursor skips the creation and the first transition
        late = Tracker(world.ledger, world.registry, world.store)
        start = world.ledger.events_since(ZERO_CURSOR)[-2].position
        late.cursor = start
        with pytest.raises(OutOfOrderEvent):
            late.catch_up()
        assert late.cursor == start
        assert late.protocols == {}

    def test_late_tracker_refuses_a_termination_of_an_unseen_instance(self):
        world, _, _, _, _ = tracked_world(steps=())
        late = Tracker(world.ledger, world.registry, world.store)
        created, terminated = world.ledger.events_since(ZERO_CURSOR)
        late.cursor = created.position
        with pytest.raises(OutOfOrderEvent):
            late.catch_up()
        assert late.cursor == created.position
        assert late.protocols == {}


class TestVerification:
    def test_honest_entries_all_verify(self):
        _, _, _, state, tracker = tracked_world()
        statuses = tracker.verify_protocol(state.instance_hash)
        assert statuses == [STATUS_VERIFIED] * 5

    def test_illegal_hop_flagged_inconsistent(self):
        world, engine, model, state, _ = tracked_world(steps=("ab",),
                                                       terminate=False)
        # adversary registers a post state that skips a machine hop: p
        # only reaches q one hop at a time, never r from q with wrong vars
        bogus = InstanceState(state.instance_hash, "p", dict(state.variables),
                              state.step + 1)
        world.store.put(state_content(bogus))
        receipt = raw_submit(world.ledger, ALICE, call_register_transition(
            state.instance_hash, state_hash(state), state_hash(bogus)))
        assert receipt.ok
        tracker = Tracker(world.ledger, world.registry, world.store)
        tracker.catch_up()
        statuses = tracker.verify_protocol(state.instance_hash)
        assert statuses[-1] == STATUS_INCONSISTENT
        assert statuses[:-1] == [STATUS_VERIFIED] * (len(statuses) - 1)

    def test_withheld_content_is_unverified_not_inconsistent(self):
        world, _, _, state, tracker = tracked_world(steps=("ab",), terminate=False)
        protocol = tracker.protocols[state.instance_hash]
        victim = protocol.entries[1]
        world.store._entries.pop(victim.post_state)
        assert verify_entry(protocol, victim, world.store) == STATUS_UNVERIFIED

    def test_corrupt_content_is_inconsistent(self):
        world, _, _, state, tracker = tracked_world(steps=("ab",), terminate=False)
        protocol = tracker.protocols[state.instance_hash]
        victim = protocol.entries[1]
        world.store._entries[victim.post_state] = b"garbage"
        assert verify_entry(protocol, victim, world.store) == STATUS_INCONSISTENT

    def test_missing_model_content_leaves_entries_unverified(self):
        world, _, model, state, tracker = tracked_world(steps=("ab",),
                                                        terminate=False)
        world.store._entries.pop(model_hash(model))
        statuses = tracker.verify_protocol(state.instance_hash)
        assert set(statuses) == {STATUS_UNVERIFIED}

    def test_alien_variables_do_not_crash_verification(self):
        # a hop following an adversarial state with unknown variable names
        # must come out inconsistent, not blow up on guard evaluation
        world, engine, model, state, _ = tracked_world(steps=(), terminate=False)
        alien = InstanceState(state.instance_hash, "p", {"zz": 9}, 1)
        world.store.put(state_content(alien))
        raw_submit(world.ledger, ALICE, call_register_transition(
            state.instance_hash, state_hash(state), state_hash(alien)))
        after = InstanceState(state.instance_hash, "q", {"zz": 9}, 2)
        world.store.put(state_content(after))
        raw_submit(world.ledger, ALICE, call_register_transition(
            state.instance_hash, state_hash(alien), state_hash(after)))
        tracker = Tracker(world.ledger, world.registry, world.store)
        tracker.catch_up()
        statuses = tracker.verify_protocol(state.instance_hash)
        assert statuses == [STATUS_VERIFIED, STATUS_INCONSISTENT,
                            STATUS_INCONSISTENT]

    def test_non_object_variables_are_inconsistent(self):
        # a registered post-state whose variables are a list must not
        # crash verification
        world, _, _, state, _ = tracked_world(steps=(), terminate=False)
        bad = world.store.put(canonical_bytes({
            "current_state": "q", "instance_hash": state.instance_hash,
            "step": 1, "variables": []}))
        assert raw_submit(world.ledger, ALICE, call_register_transition(
            state.instance_hash, state_hash(state), bad)).ok
        tracker = Tracker(world.ledger, world.registry, world.store)
        tracker.catch_up()
        assert tracker.verify_protocol(state.instance_hash) == [
            STATUS_VERIFIED, STATUS_INCONSISTENT]

    @pytest.mark.parametrize("override", [
        {"variables": {"n": 2.5}},
        {"variables": {"n": "2"}},
        {"variables": {"n": True}},
        {"step": True},
        {"current_state": ["q"]},
    ], ids=["float", "string", "bool", "bool-step", "list-state"])
    def test_ill_typed_post_state_is_inconsistent(self, override):
        # int() would read 2.5 and "2" as the 2 that `ab` gives from n == 1
        world, _, _, state, _ = tracked_world(steps=("ab", "bc", "ca"), terminate=False)
        legal = {"current_state": "q", "instance_hash": state.instance_hash, "step": 4,
                 "variables": {"n": 2}}
        bad = world.store.put(canonical_bytes({**legal, **override}))
        assert raw_submit(world.ledger, ALICE, call_register_transition(
            state.instance_hash, state_hash(state), bad)).ok
        tracker = Tracker(world.ledger, world.registry, world.store)
        tracker.catch_up()
        assert tracker.verify_protocol(state.instance_hash) == [STATUS_VERIFIED] * 4 + [
            STATUS_INCONSISTENT]

    @pytest.mark.parametrize("post_n, status", [
        (1, STATUS_VERIFIED), (2, STATUS_VERIFIED), (3, STATUS_INCONSISTENT),
    ], ids=["earlier", "later", "neither"])
    def test_hop_shared_by_two_transitions(self, post_n, status):
        # u1 and u2 both go A -> B; every candidate is tried, in id order
        doc = {"name": "shared", "states": ["A", "B"], "initial": "A", "finals": [],
               "variables": {"n": 0}, "transitions": [
                   {"id": "u1", "from": "A", "to": "B", "effect": {"var": "n", "add": 1}},
                   {"id": "u2", "from": "A", "to": "B", "effect": {"var": "n", "add": 2}}]}
        assert hop_statuses(doc, "B", post_n) == [STATUS_VERIFIED, status]

    def test_hop_that_no_transition_has_is_inconsistent(self):
        doc = dict(MINIMAL_DOC, variables={"n": 0})
        assert hop_statuses(doc, "A", 0) == [STATUS_VERIFIED, STATUS_INCONSISTENT]

    def test_wrong_creation_variables_inconsistent(self):
        world, engine, model, state, tracker = tracked_world(steps=(),
                                                             terminate=False)
        protocol = tracker.protocols[state.instance_hash]
        doctored = InstanceState(state.instance_hash, "p", {"n": 41}, 0)
        world.store._entries[state_hash(state)] = state_content(doctored)
        assert verify_entry(protocol, protocol.entries[0],
                            world.store) == STATUS_INCONSISTENT


class CountingStore:
    """Passes reads through to a store and counts them."""

    def __init__(self, store):
        self.store = store
        self.gets = 0

    def get(self, key):
        self.gets += 1
        return self.store.get(key)


LONG_STEPS = ("ab", "bc", "ca") * 17


class TestLinearVerification:
    def test_model_parsed_once_per_call(self, monkeypatch):
        _, _, _, state, tracker = tracked_world(steps=LONG_STEPS)
        parses, verified = [], []
        parse, verify = tracker_module.parse_model_bytes, tracker_module.verify_entry
        monkeypatch.setattr(tracker_module, "parse_model_bytes",
                            lambda data: parses.append(data) or parse(data))
        monkeypatch.setattr(tracker_module, "verify_entry",
                            lambda protocol, entry, store:
                            verified.append(protocol) or verify(protocol, entry, store))
        protocol = tracker.protocols[state.instance_hash]
        assert tracker.verify_protocol(state.instance_hash) == (
            [STATUS_VERIFIED] * len(protocol.entries))
        assert len(parses) == 1
        assert verified == [protocol] * len(protocol.entries)
        tracker.verify_protocol(state.instance_hash)
        assert len(parses) == 2

    def test_each_content_hash_read_once(self):
        world, _, _, state, _ = tracked_world(steps=LONG_STEPS)
        store = CountingStore(world.store)
        tracker = Tracker(world.ledger, world.registry, store)
        tracker.catch_up()
        statuses = tracker.verify_protocol(state.instance_hash)
        assert len(statuses) == len(LONG_STEPS) + 2
        assert set(statuses) == {STATUS_VERIFIED}
        assert store.gets <= len(statuses) + 2

    def test_statuses_on_one_faulty_protocol(self):
        world, engine, model, state, _ = tracked_world(
            steps=("ab", "bc", "ca", "ab", "bc"), terminate=False)
        # r never reaches q in one hop
        bogus = InstanceState(state.instance_hash, "q", dict(state.variables),
                              state.step + 1)
        world.store.put(state_content(bogus))
        assert raw_submit(world.ledger, ALICE, call_register_transition(
            state.instance_hash, state_hash(state), state_hash(bogus))).ok
        state = bogus
        for tid in ("bc", "ca"):
            state, _ = engine.fire_and_register(state, model, tid)
        engine.terminate(state.instance_hash)
        tracker = Tracker(world.ledger, world.registry, world.store)
        tracker.catch_up()
        protocol = tracker.protocols[state.instance_hash]
        world.store._entries.pop(protocol.entries[2].post_state)
        ok, unv, bad = STATUS_VERIFIED, STATUS_UNVERIFIED, STATUS_INCONSISTENT
        statuses = tracker.verify_protocol(state.instance_hash)
        assert statuses == [ok, ok, unv, unv, ok, ok, bad, ok, ok, ok]
        assert statuses == [verify_entry(protocol, e, world.store)
                            for e in protocol.entries]

    def test_model_removed_between_calls_is_seen(self):
        world, _, model, state, tracker = tracked_world()
        assert set(tracker.verify_protocol(state.instance_hash)) == {STATUS_VERIFIED}
        world.store._entries.pop(model_hash(model))
        assert set(tracker.verify_protocol(state.instance_hash)) == {STATUS_UNVERIFIED}

    def test_invalid_model_document_is_inconsistent(self):
        world, _, _, state, tracker = tracked_world()
        protocol = tracker.protocols[state.instance_hash]
        protocol.model_hash = world.store.put(b'{"name": "no states"}')
        assert set(tracker.verify_protocol(state.instance_hash)) == {STATUS_INCONSISTENT}

    @pytest.mark.parametrize("target", ["model", "creation-record", "post-state"])
    def test_content_nested_too_deep_is_inconsistent(self, target):
        world, _, _, state, tracker = tracked_world(steps=("ab",), terminate=False)
        protocol = tracker.protocols[state.instance_hash]
        deep = world.store.put(b"[" * 100_000 + b"]" * 100_000)
        if target == "model":
            protocol.model_hash = deep
        elif target == "creation-record":
            protocol.entries[0].instance_hash = deep
        else:
            protocol.entries[1].post_state = deep
        statuses = tracker.verify_protocol(state.instance_hash)
        assert STATUS_INCONSISTENT in statuses and STATUS_UNVERIFIED not in statuses

    @pytest.mark.parametrize("seqs, expected", [
        ([0, 1, 2, 3, 4, 5, 6], "vvvvvvv"),
        ([0, 1, 3, 4, 5, 6], "vvIIII"),
        ([0, 1, 2, 4, 5, 6, 7], "vvvIIII"),
        ([0, 1, 1, 2, 3, 4, 5], "vvIIIII"),
        ([0, 2, 1, 3, 4, 5, 6], "vIIIvvv"),
        ([1, 1, 2, 3, 4, 5, 6], "vIvvvvv"),
        ([3, 0, 1, 2, 3, 4, 5], "vIIIIII"),
    ])
    def test_rewritten_seqs_by_index(self, seqs, expected):
        world, _, _, state, tracker = tracked_world(steps=("ab", "bc", "ca", "ab", "bc"))
        protocol = copy.deepcopy(tracker.protocols[state.instance_hash])
        if len(seqs) < len(protocol.entries):
            del protocol.entries[2]
        for entry, seq in zip(protocol.entries, seqs):
            entry.seq = seq
        letters = {STATUS_VERIFIED: "v", STATUS_INCONSISTENT: "I", STATUS_UNVERIFIED: "u"}
        assert "".join(letters[verify_entry(protocol, e, world.store)]
                       for e in protocol.entries) == expected


class TestEntryAt:
    @pytest.mark.parametrize("seq, index", [(-1, None), (0, 0), (6, 6), (7, None)],
                             ids=["minus-one", "zero", "last", "past-the-end"])
    def test_lookup_by_index(self, seq, index):
        _, _, _, state, tracker = tracked_world(steps=("ab", "bc", "ca", "ab", "bc"))
        protocol = tracker.protocols[state.instance_hash]
        assert len(protocol.entries) == 7
        assert protocol.entry_at(seq) is (None if index is None else protocol.entries[index])

    def test_rewritten_seq_is_not_found(self):
        _, _, _, state, tracker = tracked_world(steps=("ab", "bc", "ca", "ab", "bc"))
        protocol = copy.deepcopy(tracker.protocols[state.instance_hash])
        protocol.entries[3].seq = 9
        assert protocol.entry_at(3) is None and protocol.entry_at(9) is None
        assert protocol.entry_at(4) is protocol.entries[4]


class TestExport:
    def test_creation_only_protocol_is_one_line(self):
        _, _, _, state, tracker = tracked_world(steps=(), terminate=False)
        data = tracker.export(state.instance_hash)
        assert data.count(b"\n") == 1

    def test_line_count_matches_entries(self):
        _, _, _, state, tracker = tracked_world(steps=("ab", "bc", "ca") * 4)
        data = tracker.export(state.instance_hash)
        assert data.count(b"\n") == 12 + 2

    def test_export_fields_are_exactly_the_contract(self):
        import json
        _, _, _, state, tracker = tracked_world(steps=("ab",), terminate=False)
        for line in tracker.export(state.instance_hash).splitlines():
            fields = sorted(json.loads(line))
            assert fields == sorted([
                "kind", "instance_hash", "model_hash", "seq", "pre_state",
                "post_state", "height", "tx_index", "emitter", "timestamp",
                "status"])


class TestConvergence:
    def test_parties_with_different_read_rhythms_converge(self):
        world, engine, model, state, eager = tracked_world()
        # eager applied everything already; a second party reads event by
        # event, a third in one gulp
        stepwise = Tracker(world.ledger, world.registry, world.store)
        for event in world.ledger.events_since(ZERO_CURSOR):
            stepwise.apply_event(event)
            stepwise.cursor = event.position
        bulk = Tracker(world.ledger, world.registry, world.store)
        bulk.catch_up()
        exports = {t.export(state.instance_hash).hex()
                   for t in (eager, stepwise, bulk)}
        assert len(exports) == 1

    def test_every_chain_transition_lands_in_exactly_one_protocol(self):
        world, engine, model, state, tracker = tracked_world()
        second = engine.instantiate(model, Descriptor(id="i2", name="i2"), 2)
        second, _ = engine.fire_and_register(second, model, "ab")
        tracker.catch_up()
        chain_records = {
            (t.instance_hash, t.seq)
            for h in world.registry.snapshot()["instances"]
            for t in world.registry.get_transitions(h)
        }
        protocol_records = [
            (e.instance_hash, e.seq)
            for p in tracker.protocols.values()
            for e in p.entries if e.kind == "transition"
        ]
        assert sorted(protocol_records) == sorted(chain_records)
        assert len(protocol_records) == len(set(protocol_records))


def h(label) -> str:
    return content_hash({"state": label})


class TestLateTrackers:
    @settings(max_examples=60, deadline=None)
    @given(ops=st.lists(st.tuples(st.sampled_from(("create", "step", "end")),
                                  st.integers(0, 2), st.sampled_from((ALICE, BOB))),
                        max_size=14),
           data=st.data())
    def test_held_entries_equal_the_genesis_trackers(self, ops, data):
        """Whatever committed cursor a tracker starts from, and whether its
        catch-up raises or not, it holds only entries a tracker started at
        genesis holds too."""
        world = make_world()
        model = h("model")
        raw_submit(world.ledger, ALICE, call_register_model(model, Descriptor("m", "m")))
        raw_submit(world.ledger, ALICE, call_delegate_access(model, BOB))
        for n, (op, k, sender) in enumerate(ops):
            instance = h(f"instance {k}")
            if op == "create":
                call = call_register_instance(instance, model, Descriptor("i", "i"), h(n))
            elif op == "step":
                pre = (world.registry.get_instance(instance).latest_state
                       if instance in world.registry.snapshot()["instances"] else h("none"))
                call = call_register_transition(instance, pre, h(n))
            else:
                call = call_terminate_instance(instance)
            raw_submit(world.ledger, sender, call)  # a failed call emits no event
        genesis = Tracker(world.ledger, world.registry, world.store)
        genesis.catch_up()
        events = world.ledger.events_since(ZERO_CURSOR)
        start = data.draw(st.sampled_from([ZERO_CURSOR] + [e.position for e in events]))
        late = Tracker(world.ledger, world.registry, world.store)
        late.cursor = start
        try:
            late.catch_up()
        except OutOfOrderEvent:
            assert start != ZERO_CURSOR
        for instance, protocol in late.protocols.items():
            for entry in protocol.entries:
                assert entry == genesis.protocols[instance].entry_at(entry.seq)
