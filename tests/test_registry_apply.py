"""Outcome table of `Registry.apply`: the events or the error name of each call.

A failed call's error name is written into its block, so a ledger file
replays to the same bytes only while every call keeps its outcome,
including which check fails first when several would. Each row is run by
the owner, a delegate and a stranger on a fresh registry.
"""

import pytest

from statetrail.errors import RegistryError
from statetrail.hashing import content_hash
from statetrail.registry import (
    Descriptor,
    Registry,
    call_delegate_access,
    call_register_instance,
    call_register_model,
    call_register_transition,
    call_terminate_instance,
)

from conftest import ALICE, BOB, CARA

CALLERS = (ALICE, BOB, CARA)  # owner, delegate, stranger


def h(label: str) -> str:
    return content_hash({"table": label})


MODEL, INSTANCE, ENDED, NEW, S0, S1 = map(h, ("model", "instance", "ended", "new", "s0", "s1"))
EMPTY_ID = {"id": ""}
DROP = object()
MALFORMED = {"model_hash": "0xabc", "instance_hash": 5, "initial_state_hash": [],
             "pre_state": "0x" + "g" * 64, "post_state": None, "subject_hash": "abc",
             "delegate": "bob"}


def setup_registry() -> Registry:
    """ALICE owns MODEL, INSTANCE and the terminated ENDED; BOB is a delegate
    on MODEL and INSTANCE; CARA holds nothing."""
    registry = Registry()
    for call in (
        call_register_model(MODEL, Descriptor("m", "m")),
        call_delegate_access(MODEL, BOB),
        call_register_instance(INSTANCE, MODEL, Descriptor("i", "i"), S0),
        call_delegate_access(INSTANCE, BOB),
        call_register_instance(ENDED, MODEL, Descriptor("e", "e"), S0),
        call_terminate_instance(ENDED),
    ):
        registry.apply(ALICE, call, 1)
    return registry


def created(sender):
    return [("InstanceCreated", {"emitter": sender, "initial_state": S0, "instance_hash": NEW,
                                 "model_hash": MODEL, "seq": 0})]


def moved(sender):
    return [("TransitionEvent", {"emitter": sender, "instance_hash": INSTANCE,
                                 "post_state": S1, "pre_state": S0, "seq": 1})]


def ended(sender):
    return [("InstanceTerminated", {"emitter": sender, "instance_hash": INSTANCE, "seq": 1})]


DENIED = "NotAuthorized"
VALID = {
    "register_model": (call_register_model(NEW, Descriptor("m2", "m2")), ([], [], [])),
    "register_instance": (call_register_instance(NEW, MODEL, Descriptor("i2", "i2"), S0),
                          (created(ALICE), created(BOB), DENIED)),
    "register_transition": (call_register_transition(INSTANCE, S0, S1),
                            (moved(ALICE), moved(BOB), DENIED)),
    "terminate_instance": (call_terminate_instance(INSTANCE), (ended(ALICE), ended(BOB), DENIED)),
    "delegate_access": (call_delegate_access(INSTANCE, CARA), ([], DENIED, DENIED)),
}


def with_args(op: str, **changes) -> dict:
    """The valid call of `op` with some args replaced, or dropped if given DROP."""
    args = dict(VALID[op][0]["args"], **changes)
    return {"op": op, "args": {k: v for k, v in args.items() if v is not DROP}}


def rows():
    """(id, call, outcome): one outcome for all callers, or a tuple of three."""
    for op, (call, outcome) in VALID.items():
        yield op, call, outcome
        for name in call["args"]:
            yield f"{op}-without-{name}", with_args(op, **{name: DROP}), "UnknownCall"
            yield (f"{op}-empty-id-as-{name}", with_args(op, **{name: EMPTY_ID}),
                   "InvalidDescriptor" if name == "descriptor" else "UnknownCall")
            if name in MALFORMED:
                yield (f"{op}-malformed-{name}", with_args(op, **{name: MALFORMED[name]}),
                       "UnknownCall")
    # args are looked up in call order, and the descriptor is checked where it is read
    yield ("register_model-without-hash-empty-id",
           with_args("register_model", model_hash=DROP, descriptor=EMPTY_ID), "UnknownCall")
    for name, outcome in (("instance_hash", "UnknownCall"), ("model_hash", "UnknownCall"),
                          ("initial_state_hash", "InvalidDescriptor")):
        yield (f"register_instance-without-{name}-empty-id",
               with_args("register_instance", **{name: DROP, "descriptor": EMPTY_ID}), outcome)
    yield ("register_instance-malformed-state-empty-id",
           with_args("register_instance", initial_state_hash="0x1", descriptor=EMPTY_ID),
           "UnknownCall")
    # the order of the state checks
    yield ("register_model-duplicate", call_register_model(MODEL, Descriptor("d", "d")),
           "DuplicateModel")
    yield ("register_model-duplicate-empty-id",
           with_args("register_model", model_hash=MODEL, descriptor=EMPTY_ID),
           "InvalidDescriptor")
    yield ("register_instance-unknown-model",
           call_register_instance(NEW, NEW, Descriptor("u", "u"), S0), "UnknownModel")
    yield ("register_instance-unknown-model-empty-id",
           with_args("register_instance", model_hash=NEW, descriptor=EMPTY_ID),
           "InvalidDescriptor")
    yield ("register_instance-duplicate",
           call_register_instance(INSTANCE, MODEL, Descriptor("d", "d"), S0),
           ("DuplicateInstance", "DuplicateInstance", DENIED))
    yield ("register_transition-stale", call_register_transition(INSTANCE, S1, S0),
           ("StaleChain", "StaleChain", DENIED))
    yield ("register_transition-unknown", call_register_transition(NEW, S0, S1),
           "UnknownInstance")
    yield ("register_transition-terminated", call_register_transition(ENDED, S0, S1),
           ("InstanceTerminated", DENIED, DENIED))
    yield ("register_transition-terminated-stale", call_register_transition(ENDED, S1, S0),
           ("InstanceTerminated", DENIED, DENIED))
    yield ("terminate_instance-unknown", call_terminate_instance(NEW), "UnknownInstance")
    yield ("terminate_instance-terminated", call_terminate_instance(ENDED),
           ("InstanceTerminated", DENIED, DENIED))
    yield "delegate_access-model", call_delegate_access(MODEL, CARA), ([], DENIED, DENIED)
    yield "delegate_access-terminated", call_delegate_access(ENDED, CARA), ([], DENIED, DENIED)
    yield "delegate_access-unknown", call_delegate_access(NEW, CARA), "UnknownSubject"
    # arguments no operation reads are ignored, unless a hash-named one is malformed
    yield ("register_model-extra-arg", with_args("register_model", note=5), ([], [], []))
    yield ("terminate_instance-malformed-extra-arg",
           with_args("terminate_instance", pre_state="0x1"), "UnknownCall")
    # the call's own shape
    for name, call in (("number", 5), ("string", "register_model"), ("none", None),
                       ("list", ["register_model"]),
                       ("no-args", {"op": "register_model"}),
                       ("string-args", {"op": "register_model", "args": "m"}),
                       ("list-args", {"op": "register_model", "args": []}),
                       ("unknown-op", {"op": "launch", "args": {}}),
                       ("no-op", {"args": {}}),
                       ("list-op", {"op": ["register_model"], "args": {}}),
                       ("int-op", {"op": 5, "args": {}}),
                       ("object-op", {"op": {}, "args": {}}),
                       ("unknown-op-malformed-arg", {"op": "launch", "args": {"model_hash": 5}})):
        yield f"call-{name}", call, "UnknownCall"


ROWS = list(rows())


def outcome(sender: str, call) -> list | str:
    """The events of `call` on a fresh registry, or its error name.

    A failed call must leave the registry as it was.
    """
    registry = setup_registry()
    before = registry.snapshot_bytes()
    try:
        return registry.apply(sender, call, 7)
    except RegistryError as exc:
        assert registry.snapshot_bytes() == before
        return exc.name


def test_row_ids_are_unique():
    assert len({row_id for row_id, _, _ in ROWS}) == len(ROWS)


@pytest.mark.parametrize("call, expected", [row[1:] for row in ROWS],
                         ids=[row[0] for row in ROWS])
def test_apply_outcome(call, expected):
    if not isinstance(expected, tuple):
        expected = (expected,) * len(CALLERS)
    assert tuple(outcome(sender, call) for sender in CALLERS) == expected
