"""Execution engine: instantiates models and fires guarded transitions.

Firing is a pure function over immutable instance states; the engine
couples it to the ledger by publishing state contents to the content
store and registering each transition on-chain. The local view advances
only when the on-chain registration succeeded, so it is always a prefix
of the ledger's truth.
"""

from __future__ import annotations

import random
from types import MappingProxyType
from typing import Mapping, NamedTuple

from . import errors
from .errors import (
    CorruptContent,
    GuardFailed,
    ModelNotRegistered,
    UnknownTransition,
    WrongSourceState,
)
from .hashing import canonical_bytes, digest, loads
from .ledger import Ledger, LedgerTransaction, TxReceipt
from .model import StateMachineModel, TransitionDef, model_hash
from .registry import (
    Descriptor,
    Registry,
    TransitionRecord,
    call_register_instance,
    call_register_transition,
    call_terminate_instance,
)


class InstanceState(NamedTuple):
    """Run-time snapshot of one instance."""

    instance_hash: str
    current_state: str
    variables: Mapping[str, int]
    step: int


class TraceStep(NamedTuple):
    transition_id: str
    pre_hash: str
    post_hash: str


class ExecutionTrace(NamedTuple):
    steps: tuple[TraceStep, ...]


def state_content(state: InstanceState) -> bytes:
    return canonical_bytes({
        "current_state": state.current_state,
        "instance_hash": state.instance_hash,
        "step": state.step,
        "variables": dict(state.variables),
    })


def state_hash(state: InstanceState) -> str:
    return digest(state_content(state))


def parse_state_content(data: bytes) -> InstanceState:
    """The state a document holds; no field is coerced to its type."""
    try:
        raw = loads(data)
        instance_hash, current_state = raw["instance_hash"], raw["current_state"]
        variables, step = raw["variables"], raw["step"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptContent(f"not an instance state document: {exc}") from exc
    if not (type(instance_hash) is str and type(current_state) is str and type(step) is int
            and type(variables) is dict and all(type(v) is int for v in variables.values())):
        raise CorruptContent("not an instance state document: ill-typed field")
    return InstanceState(instance_hash, current_state, MappingProxyType(variables), step)


def creation_record(model_hash_value: str, owner: str, descriptor: Descriptor,
                    nonce: int) -> bytes:
    """Canonical content whose digest is the instance hash."""
    return canonical_bytes({
        "descriptor": {"extra": dict(descriptor.extra), "id": descriptor.id,
                       "name": descriptor.name},
        "model_hash": model_hash_value,
        "nonce": nonce,
        "owner": owner,
    })


def parse_creation_record(data: bytes) -> dict:
    """The record a document holds; one nested deeper than MAX_DEPTH is CorruptContent."""
    try:
        raw = loads(data)
        raw["model_hash"], raw["owner"], raw["nonce"]
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptContent(f"not an instance creation record: {exc}") from exc
    return raw


def fire(state: InstanceState, model: StateMachineModel, transition_id: str) -> InstanceState:
    """Fire one transition locally; pure, raises if the firing is illegal."""
    transition = model.transition(transition_id)
    if transition is None:
        raise UnknownTransition(f"model has no transition {transition_id!r}")
    if transition.source != state.current_state:
        raise WrongSourceState(
            f"{transition_id!r} fires from {transition.source!r}, "
            f"instance is at {state.current_state!r}")
    if transition.guard is not None and not transition.guard.holds(state.variables):
        raise GuardFailed(f"guard of {transition_id!r} does not hold")
    variables = (transition.effect.apply(state.variables)
                 if transition.effect is not None else dict(state.variables))
    return InstanceState(
        instance_hash=state.instance_hash,
        current_state=transition.target,
        variables=MappingProxyType(variables),
        step=state.step + 1,
    )


def enabled_transitions(state: InstanceState, model: StateMachineModel) -> list[TransitionDef]:
    """Transitions fireable from the current state, ordered by id."""
    return [
        t for t in model.transitions
        if t.source == state.current_state
        and (t.guard is None or t.guard.holds(state.variables))
    ]


class Engine:
    """Drives instances for one account against a ledger and content store."""

    def __init__(self, ledger: Ledger, registry: Registry, store, account: str):
        self.ledger = ledger
        self.registry = registry
        self.store = store
        self.account = account
        # instance hash -> (the last state this engine stored for it, its hash)
        self._latest: dict[str, tuple[InstanceState, str]] = {}

    def instantiate(self, model: StateMachineModel, descriptor: Descriptor,
                    nonce: int) -> InstanceState:
        """Create and register a fresh instance at the model's initial state."""
        mh = model_hash(model)
        if not self.registry.has_model(mh):
            raise ModelNotRegistered(f"model {mh} is not registered")
        instance_hash = self.store.put(creation_record(mh, self.account, descriptor, nonce))
        initial = InstanceState(
            instance_hash=instance_hash,
            current_state=model.initial,
            variables=MappingProxyType(dict(model.variables)),
            step=0,
        )
        initial_hash = self.store.put(state_content(initial))
        self.submit_call(call_register_instance(instance_hash, mh, descriptor, initial_hash))
        self._latest[instance_hash] = (initial, initial_hash)
        return initial

    def fire_and_register(
        self, state: InstanceState, model: StateMachineModel, transition_id: str
    ) -> tuple[InstanceState, TransitionRecord]:
        """Fire locally, then register the pre/post pair on-chain.

        Raises without side effects if the firing is illegal; if the
        on-chain registration fails, the caller's state stays valid and
        unadvanced. The pre-state is encoded and hashed again unless it is
        the very object this engine last stored for the instance.
        """
        post = fire(state, model, transition_id)
        latest = self._latest.get(state.instance_hash)
        pre_hash = latest[1] if latest is not None and latest[0] is state else state_hash(state)
        # the previous step already stored the pre-state; rewriting its
        # file would cost I/O and could tear registered content on a crash
        if not self.store.has(pre_hash):
            self.store.put(state_content(state))
        post_hash = self.store.put(state_content(post))
        self.submit_call(call_register_transition(state.instance_hash, pre_hash, post_hash))
        self._latest[state.instance_hash] = (post, post_hash)
        record = self.registry.get_transitions(state.instance_hash)[-1]
        return post, record

    def terminate(self, instance_hash: str) -> None:
        self._latest.pop(instance_hash, None)
        self.submit_call(call_terminate_instance(instance_hash))

    def random_walk(self, model: StateMachineModel, instance: InstanceState,
                    steps: int, seed: int) -> ExecutionTrace:
        """Fire up to `steps` uniformly chosen enabled transitions.

        Stops early at a final state or when nothing is enabled, then
        terminates the instance on-chain. Same seed, same walk. A negative
        `steps` raises ValueError before anything is submitted.
        """
        if steps < 0:
            raise ValueError(f"steps must be at least 0, not {steps}")
        rng = random.Random(seed)
        trace: list[TraceStep] = []
        state = instance
        for _ in range(steps):
            if state.current_state in model.finals:
                break
            enabled = enabled_transitions(state, model)
            if not enabled:
                break
            transition = rng.choice(enabled)
            state, record = self.fire_and_register(state, model, transition.id)
            trace.append(TraceStep(transition.id, record.pre_state, record.post_state))
        self.terminate(instance.instance_hash)
        return ExecutionTrace(steps=tuple(trace))

    def load_state(self, instance_hash: str) -> InstanceState:
        """Rebuild the current local state from the registry and store."""
        record = self.registry.get_instance(instance_hash)
        return parse_state_content(self.store.get(record.latest_state))

    def submit_call(self, call: dict) -> TxReceipt:
        """Submit one registry call from this account and wait for its outcome."""
        tx = LedgerTransaction(self.account, call, self.ledger.next_nonce(self.account))
        receipt = self.ledger.submit(tx)
        if not receipt.ok:
            raise errors.error_class(receipt.error or "")(
                f"registry rejected {call['op']}: {receipt.error}")
        return receipt
