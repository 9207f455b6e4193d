"""Registry semantics: registration, ownership, delegation, events."""

import random

import pytest

from statetrail.errors import (
    DuplicateInstance,
    DuplicateModel,
    InstanceTerminated,
    InvalidDescriptor,
    NotAuthorized,
    StaleChain,
    UnknownInstance,
    UnknownCall,
    UnknownModel,
    UnknownSubject,
)
from statetrail.hashing import content_hash
from statetrail.ledger import ZERO_CURSOR
from statetrail.registry import (
    Descriptor,
    InstanceStatus,
    Registry,
    call_delegate_access,
    call_register_instance,
    call_register_model,
    call_register_transition,
    call_terminate_instance,
)

from conftest import ALICE, BOB, CARA, cycle_model, engine_for, make_world, raw_submit

H_MODEL = content_hash({"fixture": "model"})
H_INSTANCE = content_hash({"fixture": "instance"})


def h(label: str) -> str:
    return content_hash({"state": label})


def fresh_registry_with_model(owner=ALICE) -> Registry:
    registry = Registry()
    registry.apply(owner, call_register_model(H_MODEL, Descriptor(id="m-1", name="fixture")), 0)
    return registry


def with_instance(owner=ALICE, registry=None) -> Registry:
    registry = registry or fresh_registry_with_model(owner)
    registry.apply(owner, call_register_instance(
        H_INSTANCE, H_MODEL, Descriptor(id="i-1", name="fixture"), h("s0")), 0)
    return registry


class TestRegisterModel:
    def test_fresh_model_owned_by_caller(self):
        registry = Registry()
        assert registry.apply(ALICE, call_register_model(H_MODEL, Descriptor(id="m", name="m")),
                              0) == []
        record = registry.get_model(H_MODEL)
        assert record.owner == ALICE
        assert record.model_hash == H_MODEL

    def test_duplicate_model(self):
        registry = fresh_registry_with_model()
        with pytest.raises(DuplicateModel):
            registry.apply(BOB, call_register_model(H_MODEL, Descriptor(id="m2", name="m2")), 0)

    def test_empty_descriptor_id(self):
        registry = Registry()
        with pytest.raises(InvalidDescriptor):
            registry.apply(ALICE, call_register_model(H_MODEL, Descriptor(id="", name="x")), 0)


class TestRegisterInstance:
    def test_owner_registers_instance(self):
        registry = with_instance()
        record = registry.get_instance(H_INSTANCE)
        assert record.status is InstanceStatus.ACTIVE
        assert record.latest_state == h("s0")
        assert record.transition_count == 0
        assert registry.get_transitions(H_INSTANCE) == []

    def test_non_owner_rejected(self):
        registry = fresh_registry_with_model()
        with pytest.raises(NotAuthorized):
            registry.apply(BOB, call_register_instance(
                H_INSTANCE, H_MODEL, Descriptor(id="i", name="i"), h("s0")), 0)

    def test_unknown_model(self):
        registry = Registry()
        with pytest.raises(UnknownModel):
            registry.apply(ALICE, call_register_instance(
                H_INSTANCE, h("missing"), Descriptor(id="i", name="i"), h("s0")), 0)

    def test_duplicate_instance(self):
        registry = with_instance()
        with pytest.raises(DuplicateInstance):
            registry.apply(ALICE, call_register_instance(
                H_INSTANCE, H_MODEL, Descriptor(id="i2", name="i2"), h("s0")), 0)


class TestRegisterTransition:
    def test_first_transition(self):
        registry = with_instance()
        events = registry.apply(ALICE, call_register_transition(H_INSTANCE, h("s0"), h("s1")), 0)
        assert events == [("TransitionEvent", {
            "emitter": ALICE, "instance_hash": H_INSTANCE,
            "post_state": h("s1"), "pre_state": h("s0"), "seq": 1,
        })]
        [record] = registry.get_transitions(H_INSTANCE)
        assert (record.pre_state, record.post_state, record.seq) == (h("s0"), h("s1"), 1)
        assert registry.get_instance(H_INSTANCE).latest_state == h("s1")

    def test_stale_pre_state(self):
        registry = with_instance()
        for i in range(3):
            registry.apply(ALICE, call_register_transition(H_INSTANCE, h(f"s{i}"), h(f"s{i + 1}")),
                           0)
        with pytest.raises(StaleChain):
            registry.apply(ALICE, call_register_transition(H_INSTANCE, h("s1"), h("s9")), 0)

    def test_terminated_instance(self):
        registry = with_instance()
        registry.apply(ALICE, call_terminate_instance(H_INSTANCE), 0)
        with pytest.raises(InstanceTerminated):
            registry.apply(ALICE, call_register_transition(H_INSTANCE, h("s0"), h("s1")), 0)

    def test_unknown_instance(self):
        registry = fresh_registry_with_model()
        with pytest.raises(UnknownInstance):
            registry.apply(ALICE, call_register_transition(h("ghost"), h("s0"), h("s1")), 0)


class TestTerminate:
    def test_owner_terminates(self):
        registry = with_instance()
        assert registry.apply(ALICE, call_terminate_instance(H_INSTANCE), 0) == [
            ("InstanceTerminated", {"emitter": ALICE, "instance_hash": H_INSTANCE, "seq": 1})]
        assert registry.get_instance(H_INSTANCE).status is InstanceStatus.TERMINATED

    def test_double_termination(self):
        registry = with_instance()
        registry.apply(ALICE, call_terminate_instance(H_INSTANCE), 0)
        with pytest.raises(InstanceTerminated):
            registry.apply(ALICE, call_terminate_instance(H_INSTANCE), 0)

    def test_delegate_terminates_after_delegation(self):
        registry = with_instance()
        registry.apply(ALICE, call_delegate_access(H_INSTANCE, BOB), 0)
        registry.apply(BOB, call_terminate_instance(H_INSTANCE), 0)
        assert registry.get_instance(H_INSTANCE).status is InstanceStatus.TERMINATED


class TestOwnershipAndDelegation:
    def test_get_owner(self):
        registry = with_instance()
        assert registry.get_owner(H_MODEL) == ALICE
        assert registry.get_owner(H_INSTANCE) == ALICE
        with pytest.raises(UnknownSubject):
            registry.get_owner(h("nobody"))

    def test_delegate_may_not_redelegate(self):
        registry = with_instance()
        registry.apply(ALICE, call_delegate_access(H_INSTANCE, BOB), 0)
        with pytest.raises(NotAuthorized):
            registry.apply(BOB, call_delegate_access(H_INSTANCE, CARA), 0)

    def test_delegate_on_unknown_subject(self):
        registry = Registry()
        with pytest.raises(UnknownSubject):
            registry.apply(ALICE, call_delegate_access(h("nothing"), BOB), 0)

    def test_model_delegate_creates_instance(self):
        registry = fresh_registry_with_model()
        registry.apply(ALICE, call_delegate_access(H_MODEL, BOB), 0)
        registry.apply(BOB, call_register_instance(
            H_INSTANCE, H_MODEL, Descriptor(id="i", name="i"), h("s0")), 0)
        assert registry.get_instance(H_INSTANCE).owner == BOB

    def test_instance_delegate_registers_transition(self):
        registry = with_instance()
        registry.apply(ALICE, call_delegate_access(H_INSTANCE, BOB), 0)
        [(_, payload)] = registry.apply(
            BOB, call_register_transition(H_INSTANCE, h("s0"), h("s1")), 0)
        assert payload["seq"] == 1 and payload["emitter"] == BOB

    def test_delegation_does_not_transfer_ownership(self):
        registry = with_instance()
        registry.apply(ALICE, call_delegate_access(H_INSTANCE, BOB), 0)
        assert registry.get_owner(H_INSTANCE) == ALICE


class TestMalformedCalls:
    @pytest.mark.parametrize("call", [
        5,
        "register_model",
        ["register_model"],
        {"op": "register_model", "args": "m"},
        {"op": "register_model", "args": {"model_hash": [], "descriptor": {"id": "m"}}},
        {"op": "terminate_instance", "args": {"instance_hash": {}}},
    ], ids=["number", "string", "list", "string-args", "list-hash", "object-hash"])
    def test_rejected_as_unknown_call(self, world, call):
        # the transaction stays on-chain as failed and the ledger goes on
        receipt = raw_submit(world.ledger, ALICE, call)
        assert receipt.status == "failed" and receipt.error == "UnknownCall"
        assert raw_submit(world.ledger, ALICE, call_terminate_instance(H_INSTANCE)).height \
            == receipt.height + 1

    @pytest.mark.parametrize("call", [
        call_register_transition(H_INSTANCE, h("s0"), []),
        call_register_transition(H_INSTANCE, h("s0"), 5),
        call_register_transition(H_INSTANCE, h("s0"), "0xabc"),
        call_delegate_access(H_INSTANCE, []),
        call_delegate_access(H_INSTANCE, "bob"),
    ], ids=["list-post-state", "number-post-state", "short-post-state", "list-delegate",
            "name-delegate"])
    def test_ill_formed_hash_or_account_changes_nothing(self, call):
        registry = with_instance()
        before = registry.snapshot()
        with pytest.raises(UnknownCall):
            registry.apply(ALICE, call, 0)
        assert registry.snapshot() == before
        assert registry.get_instance(H_INSTANCE).latest_state == h("s0")


class TestReads:
    def test_states_after_five_transitions(self):
        registry = with_instance()
        for i in range(5):
            registry.apply(ALICE, call_register_transition(H_INSTANCE, h(f"s{i}"), h(f"s{i + 1}")),
                           0)
        transitions = registry.get_transitions(H_INSTANCE)
        assert [t.seq for t in transitions] == [1, 2, 3, 4, 5]
        assert transitions[0].pre_state == h("s0")
        assert transitions[-1].post_state == h("s5")
        assert registry.get_instance(H_INSTANCE).latest_state == h("s5")

    def test_transitions_on_fresh_instance_empty(self):
        registry = with_instance()
        assert registry.get_transitions(H_INSTANCE) == []

    def test_unknown_subject_reads(self):
        registry = Registry()
        for read in (registry.get_instance, registry.get_transitions, registry.get_model):
            with pytest.raises(UnknownSubject):
                read(h("ghost"))


AUTH_OPS = ("register_instance", "register_transition", "terminate_instance",
            "delegate_access")


def authorization_matrix():
    """Expected outcome for every (operation, caller-role) cell.

    ALICE owns the model and the instance; BOB is delegated on both
    subjects; CARA is a stranger. Only owners may delegate.
    """
    return {
        ("register_instance", ALICE): True,
        ("register_instance", BOB): True,
        ("register_instance", CARA): False,
        ("register_transition", ALICE): True,
        ("register_transition", BOB): True,
        ("register_transition", CARA): False,
        ("terminate_instance", ALICE): True,
        ("terminate_instance", BOB): True,
        ("terminate_instance", CARA): False,
        ("delegate_access", ALICE): True,
        ("delegate_access", BOB): False,
        ("delegate_access", CARA): False,
    }


def run_authorization_cell(op: str, caller: str) -> bool:
    """Fresh scenario per cell; returns True when the call succeeded."""
    registry = fresh_registry_with_model(ALICE)
    for call in (call_delegate_access(H_MODEL, BOB),
                 call_register_instance(H_INSTANCE, H_MODEL, Descriptor(id="i", name="i"), h("s0")),
                 call_delegate_access(H_INSTANCE, BOB)):
        registry.apply(ALICE, call, 0)
    calls = {
        "register_instance": call_register_instance(
            h("fresh-instance"), H_MODEL, Descriptor(id="i2", name="i2"), h("s0")),
        "register_transition": call_register_transition(H_INSTANCE, h("s0"), h("s1")),
        "terminate_instance": call_terminate_instance(H_INSTANCE),
        "delegate_access": call_delegate_access(H_INSTANCE, CARA),
    }
    try:
        registry.apply(caller, calls[op], 0)
    except NotAuthorized:
        return False
    return True


@pytest.mark.parametrize("op", AUTH_OPS)
@pytest.mark.parametrize("caller", [ALICE, BOB, CARA])
def test_authorization_matrix(op, caller):
    assert run_authorization_cell(op, caller) == authorization_matrix()[(op, caller)]


class TestInvariants:
    def test_record_counts_and_linkage(self):
        rng = random.Random(3)
        registry = with_instance()
        latest = h("s0")
        for i in range(rng.randint(5, 15)):
            nxt = h(f"step{i}")
            registry.apply(ALICE, call_register_transition(H_INSTANCE, latest, nxt), 0)
            latest = nxt
        record = registry.get_instance(H_INSTANCE)
        transitions = registry.get_transitions(H_INSTANCE)
        assert [t.seq for t in transitions] == list(range(1, record.transition_count + 1))
        assert transitions[0].pre_state == h("s0")
        for prev, t in zip(transitions, transitions[1:]):
            assert t.pre_state == prev.post_state
        assert transitions[-1].post_state == record.latest_state == latest

    def test_event_emitted_only_on_success(self, world):
        # one success, then a stale duplicate of the same call
        engine = engine_for(world, ALICE)
        from statetrail.model import model_hash
        model = cycle_model()
        engine.submit_call(call_register_model(model_hash(model), Descriptor("m", "m")))
        state = engine.instantiate(model, Descriptor(id="i", name="i"), 1)
        post, _ = engine.fire_and_register(state, model, "ab")
        stale = raw_submit(world.ledger, ALICE, call_register_transition(
            state.instance_hash, content_hash({"stale": True}), h("s9")))
        assert stale.status == "failed" and stale.error == "StaleChain"
        events = world.ledger.events_since(ZERO_CURSOR)
        assert sum(1 for e in events if e.kind == "TransitionEvent") == 1

    def test_replay_reproduces_registry_state(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        world = make_world(path=path)
        engine = engine_for(world, ALICE)
        from statetrail.model import model_hash
        model = cycle_model()
        engine.submit_call(call_register_model(model_hash(model), Descriptor("m", "m")))
        state = engine.instantiate(model, Descriptor(id="i", name="i"), 1)
        for tid in ("ab", "bc", "ca", "ab"):
            state, _ = engine.fire_and_register(state, model, tid)
        engine.terminate(state.instance_hash)

        from statetrail.ledger import Ledger
        replay_registry = Registry()
        Ledger.open(path, replay_registry)
        assert replay_registry.snapshot_bytes() == world.registry.snapshot_bytes()


class TestRestore:
    @staticmethod
    def busy_registry() -> Registry:
        registry = fresh_registry_with_model()
        registry.apply(ALICE, call_register_instance(
            H_INSTANCE, H_MODEL, Descriptor("i", "run", {"k": "v"}), h("s0")), 3)
        registry.apply(ALICE, call_delegate_access(H_INSTANCE, BOB), 0)
        registry.apply(ALICE, call_delegate_access(H_MODEL, CARA), 0)
        registry.apply(BOB, call_register_transition(H_INSTANCE, h("s0"), h("s1")), 0)
        registry.apply(ALICE, call_register_instance(
            h("other"), H_MODEL, Descriptor("o", "o"), h("o0")), 0)
        registry.apply(ALICE, call_terminate_instance(h("other")), 0)
        return registry

    def test_round_trip(self):
        registry = self.busy_registry()
        restored = Registry()
        restored.restore(registry.snapshot())
        assert restored.snapshot_bytes() == registry.snapshot_bytes()
        assert restored.get_transitions(H_INSTANCE) == registry.get_transitions(H_INSTANCE)
        # the restored registry keeps enforcing the same rules
        restored.apply(BOB, call_register_transition(H_INSTANCE, h("s1"), h("s2")), 0)
        with pytest.raises(InstanceTerminated):
            restored.apply(ALICE, call_register_transition(h("other"), h("o0"), h("o1")), 0)
        with pytest.raises(NotAuthorized):
            restored.apply(CARA, call_register_transition(H_INSTANCE, h("s2"), h("s3")), 0)

    @pytest.mark.parametrize("edit", [
        lambda s: s.pop("models"),
        lambda s: s.update(extra={}),
        lambda s: s.update(instances=[]),
        lambda s: s["models"][H_MODEL].update(owner=5),
        lambda s: s["models"][H_MODEL]["descriptor"].update(created_at="0"),
        lambda s: s["models"][H_MODEL]["descriptor"].update(extra={"k": 1}),
        lambda s: s["models"][H_MODEL]["descriptor"].pop("name"),
        lambda s: s["instances"][H_INSTANCE].update(status="paused"),
        lambda s: s["instances"][H_INSTANCE].update(transition_count=True),
        lambda s: s["instances"][H_INSTANCE].update(transition_count=-1),
        lambda s: s["instances"][H_INSTANCE].update(latest_state=None),
        lambda s: s["transitions"].pop(H_INSTANCE),
        lambda s: s["transitions"].update(extra=[]),
        lambda s: s["transitions"][H_INSTANCE].append({"seq": 2}),
        lambda s: s["transitions"].update({H_INSTANCE: {}}),
        lambda s: s["delegates"].update({H_MODEL: CARA}),
        lambda s: s["delegates"].update({H_MODEL: [5]}),
    ])
    def test_ill_typed_snapshot_is_rejected_and_changes_nothing(self, edit):
        registry = self.busy_registry()
        before = registry.snapshot_bytes()
        snapshot = registry.snapshot()
        edit(snapshot)
        target = self.busy_registry()
        with pytest.raises(ValueError):
            target.restore(snapshot)
        assert target.snapshot_bytes() == before
