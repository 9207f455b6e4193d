"""On-ledger registry for models, instances and transitions.

The registry is a deterministic state machine run inside ledger block
application; `Registry.apply`, given a transaction's call, is its only way
in. It stores records keyed by content hash, enforces ownership and
delegation, guarantees per-instance chain continuity (a transition's
pre-state must equal the instance's latest state) and emits one event per
successful instance-level mutation. It never sees model semantics, only
opaque hashes; termination is therefore always explicit.

Call wire format (embedded in LedgerTransaction): canonical JSON
{"op": name, "args": {...}} built by the call_* helpers below.
"""

from __future__ import annotations

from enum import Enum
from types import MappingProxyType
from typing import Mapping, NamedTuple

from .errors import (
    DuplicateInstance,
    DuplicateModel,
    InstanceTerminated,
    InvalidDescriptor,
    NotAuthorized,
    StaleChain,
    UnknownCall,
    UnknownInstance,
    UnknownModel,
    UnknownSubject,
)
from .hashing import canonical_bytes, is_account_id, is_content_hash

# call arguments that must hold a content hash; `delegate` holds an account id
_HASH_ARGS = frozenset({"model_hash", "instance_hash", "initial_state_hash", "pre_state",
                        "post_state", "subject_hash"})

_TRANSITION_KEYS = frozenset({"post_state", "pre_state", "seq"})

EVENT_INSTANCE_CREATED = "InstanceCreated"
EVENT_TRANSITION = "TransitionEvent"
EVENT_INSTANCE_TERMINATED = "InstanceTerminated"


class InstanceStatus(str, Enum):
    ACTIVE = "active"
    TERMINATED = "terminated"


class Descriptor(NamedTuple):
    """Caller-supplied metadata shared by model and instance records."""

    id: str
    name: str
    extra: Mapping[str, str] = MappingProxyType({})
    created_at: int | None = None

    def to_dict(self) -> dict:
        return {
            "created_at": self.created_at,
            "extra": dict(self.extra),
            "id": self.id,
            "name": self.name,
        }


def validate_descriptor(raw: dict) -> Descriptor:
    if not isinstance(raw, dict):
        raise InvalidDescriptor("descriptor must be an object")
    did = raw.get("id")
    name = raw.get("name", "")
    extra = raw.get("extra", {})
    if not isinstance(did, str) or did == "":
        raise InvalidDescriptor("descriptor id must be a non-empty string")
    if not isinstance(name, str):
        raise InvalidDescriptor("descriptor name must be a string")
    if not isinstance(extra, dict) or not all(
        isinstance(k, str) and isinstance(v, str) for k, v in extra.items()
    ):
        raise InvalidDescriptor("descriptor extra must map strings to strings")
    return Descriptor(id=did, name=name, extra=dict(extra))


class ModelRecord(NamedTuple):
    model_hash: str
    owner: str
    descriptor: Descriptor


class InstanceRecord:
    __slots__ = ("instance_hash", "model_hash", "owner", "descriptor", "status",
                 "latest_state", "transition_count")

    def __init__(self, instance_hash: str, model_hash: str, owner: str, descriptor: Descriptor,
                 status: InstanceStatus, latest_state: str, transition_count: int):
        self.instance_hash = instance_hash
        self.model_hash = model_hash
        self.owner = owner
        self.descriptor = descriptor
        self.status = status
        self.latest_state = latest_state
        self.transition_count = transition_count


class TransitionRecord(NamedTuple):
    instance_hash: str
    pre_state: str
    post_state: str
    seq: int


# --------------------------------------------------------------- call builders

def call_register_model(model_hash: str, descriptor: Descriptor) -> dict:
    return {"op": "register_model", "args": {
        "model_hash": model_hash,
        "descriptor": {"id": descriptor.id, "name": descriptor.name,
                       "extra": dict(descriptor.extra)},
    }}


def call_register_instance(instance_hash: str, model_hash: str, descriptor: Descriptor,
                           initial_state_hash: str) -> dict:
    return {"op": "register_instance", "args": {
        "instance_hash": instance_hash,
        "model_hash": model_hash,
        "descriptor": {"id": descriptor.id, "name": descriptor.name,
                       "extra": dict(descriptor.extra)},
        "initial_state_hash": initial_state_hash,
    }}


def call_register_transition(instance_hash: str, pre_state: str, post_state: str) -> dict:
    return {"op": "register_transition", "args": {
        "instance_hash": instance_hash,
        "pre_state": pre_state,
        "post_state": post_state,
    }}


def call_terminate_instance(instance_hash: str) -> dict:
    return {"op": "terminate_instance", "args": {"instance_hash": instance_hash}}


def call_delegate_access(subject_hash: str, delegate: str) -> dict:
    return {"op": "delegate_access", "args": {
        "subject_hash": subject_hash,
        "delegate": delegate,
    }}


class Registry:
    """Deterministic contract state: a pure function of the applied calls."""

    def __init__(self) -> None:
        self._models: dict[str, ModelRecord] = {}
        self._instances: dict[str, InstanceRecord] = {}
        self._transitions: dict[str, list[TransitionRecord]] = {}
        self._delegates: dict[str, set[str]] = {}

    # ------------------------------------------------------------ ledger hook

    def apply(self, sender: str, call: dict, timestamp: int) -> list[tuple[str, dict]]:
        """Dispatch one registry call; returns the events it emitted."""
        if not isinstance(call, dict) or not isinstance(call.get("args"), dict):
            raise UnknownCall("a call and its args must be objects")
        op, args = call.get("op"), call["args"]
        for name, value in args.items():
            if (name in _HASH_ARGS and not is_content_hash(value)
                    or name == "delegate" and not is_account_id(value)):
                raise UnknownCall(f"malformed call argument {name!r}")
        handler = self._HANDLERS.get(op) if isinstance(op, str) else None
        if handler is None:
            raise UnknownCall(f"unknown registry operation {op!r}")
        try:
            return handler(self, sender, args, timestamp)
        except KeyError as exc:
            raise UnknownCall(f"missing call argument {exc}") from exc

    # ------------------------------------------------------------- operations
    # Each handler reads its args in call order and runs its checks before
    # any change: the first failing check names the error its block records.

    def _register_model(self, sender: str, args: dict, timestamp: int) -> list:
        model_hash, descriptor = args["model_hash"], validate_descriptor(args["descriptor"])
        if model_hash in self._models:
            raise DuplicateModel(f"model {model_hash} already registered")
        self._models[model_hash] = ModelRecord(
            model_hash, sender, descriptor._replace(created_at=timestamp))
        return []

    def _register_instance(self, sender: str, args: dict, timestamp: int) -> list:
        instance_hash, model_hash = args["instance_hash"], args["model_hash"]
        descriptor = validate_descriptor(args["descriptor"])
        initial_state = args["initial_state_hash"]
        if model_hash not in self._models:
            raise UnknownModel(f"model {model_hash} not registered")
        self._require_authorized(sender, model_hash, self._models[model_hash].owner)
        if instance_hash in self._instances:
            raise DuplicateInstance(f"instance {instance_hash} already registered")
        self._instances[instance_hash] = InstanceRecord(
            instance_hash, model_hash, sender, descriptor._replace(created_at=timestamp),
            InstanceStatus.ACTIVE, initial_state, 0)
        self._transitions[instance_hash] = []
        return [(EVENT_INSTANCE_CREATED, {"emitter": sender, "initial_state": initial_state,
                                          "instance_hash": instance_hash,
                                          "model_hash": model_hash, "seq": 0})]

    def _register_transition(self, sender: str, args: dict, timestamp: int) -> list:
        instance_hash, pre_state, post_state = (
            args["instance_hash"], args["pre_state"], args["post_state"])
        record = self._active_instance(sender, instance_hash)
        if pre_state != record.latest_state:
            raise StaleChain(
                f"pre-state {pre_state} does not match latest {record.latest_state}")
        seq = record.transition_count + 1
        self._transitions[instance_hash].append(
            TransitionRecord(instance_hash, pre_state, post_state, seq))
        record.latest_state = post_state
        record.transition_count = seq
        return [(EVENT_TRANSITION, {"emitter": sender, "instance_hash": instance_hash,
                                    "post_state": post_state, "pre_state": pre_state,
                                    "seq": seq})]

    def _terminate_instance(self, sender: str, args: dict, timestamp: int) -> list:
        record = self._active_instance(sender, args["instance_hash"])
        record.status = InstanceStatus.TERMINATED
        return [(EVENT_INSTANCE_TERMINATED, {"emitter": sender,
                                             "instance_hash": record.instance_hash,
                                             "seq": record.transition_count + 1})]

    def _delegate_access(self, sender: str, args: dict, timestamp: int) -> list:
        subject_hash, delegate = args["subject_hash"], args["delegate"]
        if sender != self.get_owner(subject_hash):
            raise NotAuthorized(f"{sender} does not own {subject_hash}")
        self._delegates.setdefault(subject_hash, set()).add(delegate)
        return []

    _HANDLERS = {
        "register_model": _register_model,
        "register_instance": _register_instance,
        "register_transition": _register_transition,
        "terminate_instance": _terminate_instance,
        "delegate_access": _delegate_access,
    }

    # ------------------------------------------------------------------ reads

    def has_model(self, model_hash: str) -> bool:
        return model_hash in self._models

    def get_model(self, model_hash: str) -> ModelRecord:
        if model_hash not in self._models:
            raise UnknownSubject(f"model {model_hash} not registered")
        return self._models[model_hash]

    def get_instance(self, instance_hash: str) -> InstanceRecord:
        if instance_hash not in self._instances:
            raise UnknownSubject(f"instance {instance_hash} not registered")
        return self._instances[instance_hash]

    def get_transitions(self, instance_hash: str) -> list[TransitionRecord]:
        if instance_hash not in self._instances:
            raise UnknownSubject(f"instance {instance_hash} not registered")
        return list(self._transitions[instance_hash])

    def get_owner(self, subject_hash: str) -> str:
        if subject_hash in self._models:
            return self._models[subject_hash].owner
        if subject_hash in self._instances:
            return self._instances[subject_hash].owner
        raise UnknownSubject(f"{subject_hash} is neither a model nor an instance")

    def instance_hashes(self) -> list[str]:
        return sorted(self._instances)

    # -------------------------------------------------------------- snapshots

    def snapshot(self) -> dict:
        """Full registry state as a canonical plain dict."""
        return {
            "delegates": {k: sorted(v) for k, v in self._delegates.items() if v},
            "instances": {
                h: {
                    "descriptor": r.descriptor.to_dict(),
                    "latest_state": r.latest_state,
                    "model_hash": r.model_hash,
                    "owner": r.owner,
                    "status": r.status.value,
                    "transition_count": r.transition_count,
                }
                for h, r in self._instances.items()
            },
            "models": {
                h: {"descriptor": r.descriptor.to_dict(), "owner": r.owner}
                for h, r in self._models.items()
            },
            "transitions": {
                h: [
                    {"post_state": t.post_state, "pre_state": t.pre_state, "seq": t.seq}
                    for t in records
                ]
                for h, records in self._transitions.items()
            },
        }

    def snapshot_bytes(self) -> bytes:
        return canonical_bytes(self.snapshot())

    def restore(self, snapshot: dict) -> None:
        """Replace the whole state with the one a `snapshot()` describes.

        Raises ValueError for ill-typed input and then leaves the state
        as it was.
        """
        delegates, instances, models, transitions = _fields(
            snapshot, "delegates", "instances", "models", "transitions")
        restored_models = {}
        for h, raw in _entries(models):
            descriptor, owner = _fields(raw, "descriptor", "owner")
            restored_models[h] = ModelRecord(h, _text(owner), _descriptor(descriptor))
        restored_instances = {}
        for h, raw in _entries(instances):
            descriptor, latest, model, owner, status, count = _fields(
                raw, "descriptor", "latest_state", "model_hash", "owner", "status",
                "transition_count")
            restored_instances[h] = InstanceRecord(
                h, _text(model), _text(owner), _descriptor(descriptor),
                InstanceStatus(status), _text(latest), _count(count))
        restored_transitions = {}
        for h, records in _entries(transitions):
            # the one part that grows with the chain, so checked in one pass
            if not (isinstance(records, list) and all(
                    type(r) is dict and r.keys() == _TRANSITION_KEYS
                    and type(r["pre_state"]) is str and type(r["post_state"]) is str
                    and type(r["seq"]) is int for r in records)):
                raise ValueError(f"ill-typed transitions of {h}")
            restored_transitions[h] = [
                TransitionRecord(h, r["pre_state"], r["post_state"], r["seq"]) for r in records]
        if restored_transitions.keys() != restored_instances.keys():
            raise ValueError("transitions are not keyed by the registered instances")
        restored_delegates = {}
        for h, accounts in _entries(delegates):
            if not isinstance(accounts, list):
                raise ValueError(f"delegates of {h} are not a list")
            restored_delegates[h] = {_text(a) for a in accounts}
        self._models, self._instances = restored_models, restored_instances
        self._transitions, self._delegates = restored_transitions, restored_delegates

    # -------------------------------------------------------------- internals

    def _active_instance(self, caller: str, instance_hash: str) -> InstanceRecord:
        if instance_hash not in self._instances:
            raise UnknownInstance(f"instance {instance_hash} not registered")
        record = self._instances[instance_hash]
        self._require_authorized(caller, instance_hash, record.owner)
        if record.status is not InstanceStatus.ACTIVE:
            raise InstanceTerminated(f"instance {instance_hash} is terminated")
        return record

    def _require_authorized(self, caller: str, subject_hash: str, owner: str) -> None:
        if caller == owner or caller in self._delegates.get(subject_hash, set()):
            return
        raise NotAuthorized(f"{caller} is neither owner nor delegate of {subject_hash}")


# ------------------------------------------------------- snapshot decoding

def _fields(raw: object, *names: str) -> list:
    """The values of an object that has exactly these keys, in this order."""
    if not isinstance(raw, dict) or raw.keys() != set(names):
        raise ValueError(f"expected an object with the keys {', '.join(names)}")
    return [raw[name] for name in names]


def _entries(raw: object) -> list:
    if not isinstance(raw, dict):
        raise ValueError("expected an object")
    return list(raw.items())


def _text(value: object) -> str:
    if not isinstance(value, str):
        raise ValueError(f"expected a string, not {value!r}")
    return value


def _count(value: object) -> int:
    if type(value) is not int or value < 0:
        raise ValueError(f"expected a non-negative integer, not {value!r}")
    return value


def _descriptor(raw: object) -> Descriptor:
    created_at, extra, did, name = _fields(raw, "created_at", "extra", "id", "name")
    if not (isinstance(extra, dict) and all(isinstance(v, str) for v in extra.values())):
        raise ValueError("descriptor extra must map strings to strings")
    if created_at is not None:
        _count(created_at)
    return Descriptor(_text(did), _text(name), dict(extra), created_at)
