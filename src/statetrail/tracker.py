"""Client-side instance tracking and consistency verification.

A tracker follows the ledger's event log in total order and maintains one
protocol per instance: the creation entry, one entry per transition, and
the termination entry, each carrying ledger metadata. Entries are then
verified against the model: state contents must resolve from the content
store, hash-check, chain onto each other, and every transition must
correspond to a legal one-hop firing of the model.

Verification is three-valued. An entry whose contents cannot be resolved
is `unverified` (not contradicted, not proven); any failing check with
resolvable content makes it `inconsistent`; otherwise it is `verified`.

`Tracker.verify_protocol` does constant work per entry: one store read,
one state parse, and a test of only the transitions with the hop's
(source, target). Within one call the model is read, parsed and grouped
by (source, target) once, keyed by its content hash, and each state is
read once: an entry's pre-state is the previous entry's post-state, so
only the model and that one state are remembered, and memory does not
grow with the protocol. Both stores verify every read against its hash,
so a remembered parse is exact. Nothing is kept between calls: a call
sees the store as it is then, so content removed or tampered with since
the last call changes the statuses.
"""

from __future__ import annotations

import json

from .engine import InstanceState, parse_creation_record, parse_state_content
from .errors import (
    CorruptContent,
    MissingContent,
    OutOfOrderEvent,
    TrailError,
)
from .hashing import canonical_bytes
from .ledger import Cursor, EventRecord, Ledger, ZERO_CURSOR
from .model import StateMachineModel, TransitionDef, parse_model_bytes
from .registry import (
    EVENT_INSTANCE_CREATED,
    EVENT_INSTANCE_TERMINATED,
    EVENT_TRANSITION,
    Registry,
)

KIND_CREATION = "creation"
KIND_TRANSITION = "transition"
KIND_TERMINATION = "termination"

STATUS_UNVERIFIED = "unverified"
STATUS_VERIFIED = "verified"
STATUS_INCONSISTENT = "inconsistent"

# event kind -> entry kind and the payload keys of its pre- and post-state
_ENTRY_FIELDS = {
    EVENT_INSTANCE_CREATED: (KIND_CREATION, None, "initial_state"),
    EVENT_TRANSITION: (KIND_TRANSITION, "pre_state", "post_state"),
    EVENT_INSTANCE_TERMINATED: (KIND_TERMINATION, None, None),
}

EXPORT_FIELDS = ("kind", "instance_hash", "model_hash", "seq", "pre_state", "post_state",
                 "height", "tx_index", "emitter", "timestamp", "status")

_KINDS = (KIND_CREATION, KIND_TRANSITION, KIND_TERMINATION)
# export fields that hold either null or a value of exactly this type
_NULLABLE_FIELD_TYPES = {
    "instance_hash": str, "model_hash": str, "pre_state": str, "post_state": str,
    "emitter": str, "height": int, "tx_index": int, "timestamp": int,
}


class ProtocolEntry:
    __slots__ = EXPORT_FIELDS

    def __init__(self, kind: str, instance_hash: str, model_hash: str, seq: int,
                 pre_state: str | None = None, post_state: str | None = None,
                 height: int | None = None, tx_index: int | None = None,
                 emitter: str | None = None, timestamp: int | None = None,
                 status: str = STATUS_UNVERIFIED):
        self.kind = kind
        self.instance_hash = instance_hash
        self.model_hash = model_hash
        self.seq = seq
        self.pre_state = pre_state
        self.post_state = post_state
        self.height = height
        self.tx_index = tx_index
        self.emitter = emitter
        self.timestamp = timestamp
        self.status = status

    def __eq__(self, other: object) -> bool:
        if type(other) is not ProtocolEntry:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in EXPORT_FIELDS)

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in EXPORT_FIELDS)
        return f"ProtocolEntry({fields})"

    def to_dict(self) -> dict:
        return {name: getattr(self, name) for name in EXPORT_FIELDS}


class InstanceProtocol:
    __slots__ = ("instance_hash", "model_hash", "entries", "_dense")

    def __init__(self, instance_hash: str, model_hash: str,
                 entries: list[ProtocolEntry] | None = None):
        self.instance_hash = instance_hash
        self.model_hash = model_hash
        self.entries = [] if entries is None else entries
        # number of leading entries whose seq equals their index
        self._dense = 0

    def __eq__(self, other: object) -> bool:
        if type(other) is not InstanceProtocol:
            return NotImplemented
        return (self.instance_hash, self.model_hash, self.entries) == (
            other.instance_hash, other.model_hash, other.entries)

    @property
    def next_seq(self) -> int:
        return self.entries[-1].seq + 1 if self.entries else 0

    @property
    def terminated(self) -> bool:
        return bool(self.entries) and self.entries[-1].kind == KIND_TERMINATION

    def entry_at(self, seq: int) -> ProtocolEntry | None:
        """The first entry carrying `seq`, or None.

        A tracker appends seqs 0, 1, 2, ... so the entry is found by index.
        Imported protocols may carry gaps or repeats; past the dense prefix
        the lookup falls back to a scan.
        """
        entries = self.entries
        while self._dense < len(entries) and entries[self._dense].seq == self._dense:
            self._dense += 1
        if 0 <= seq < min(self._dense, len(entries)) and entries[seq].seq == seq:
            return entries[seq]
        for entry in entries:
            if entry.seq == seq:
                return entry
        return None


def export_protocol(protocol: InstanceProtocol) -> bytes:
    """Deterministic JSON Lines export, one entry per line, keys sorted."""
    return b"".join(canonical_bytes(e.to_dict()) + b"\n" for e in protocol.entries)


def import_protocol(data: bytes) -> InstanceProtocol:
    """Read an export back; anything that is not one raises CorruptContent."""
    try:
        entries = [ProtocolEntry(**{name: raw[name] for name in EXPORT_FIELDS})
                   for raw in map(json.loads, data.splitlines())]
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise CorruptContent(f"not a protocol export: {exc!r}") from exc
    if not entries:
        raise CorruptContent("cannot import an empty protocol")
    for entry in entries:
        if (entry.kind not in _KINDS or type(entry.seq) is not int
                or type(entry.status) is not str
                or any(getattr(entry, name) is not None and type(getattr(entry, name)) is not t
                       for name, t in _NULLABLE_FIELD_TYPES.items())):
            raise CorruptContent(f"ill-typed protocol entry: {entry!r}")
    return InstanceProtocol(
        instance_hash=entries[0].instance_hash,
        model_hash=entries[0].model_hash,
        entries=entries,
    )


class Tracker:
    """One party's view of every instance, rebuilt from ledger events.

    A tracker starts at the zero cursor and learns only from events: an
    instance's entries are complete from its creation event on. `registry`
    is accepted for the callers that pass one and is not read.
    """

    def __init__(self, ledger: Ledger, registry: Registry, store):
        self.ledger = ledger
        self.store = store
        self.cursor: Cursor = ZERO_CURSOR
        self.protocols: dict[str, InstanceProtocol] = {}

    def catch_up(self) -> list[ProtocolEntry]:
        """Apply every event past the cursor; returns the appended entries."""
        appended = []
        for event in self.ledger.events_since(self.cursor):
            entry = self.apply_event(event)
            self.cursor = event.position
            if entry is not None:
                appended.append(entry)
        return appended

    def apply_event(self, event: EventRecord) -> ProtocolEntry | None:
        """Append the protocol entry corresponding to one ledger event.

        Events must arrive in ledger total order. A repeated creation, a
        sequence gap, or an event for an instance whose creation this
        tracker has not seen signals cursor misuse: it raises
        OutOfOrderEvent and changes nothing.
        """
        if event.kind not in _ENTRY_FIELDS:
            return None
        kind, pre_key, post_key = _ENTRY_FIELDS[event.kind]
        payload = event.payload
        instance_hash = payload["instance_hash"]
        protocol = self.protocols.get(instance_hash)
        if kind == KIND_CREATION:
            if protocol is not None:
                raise OutOfOrderEvent(f"duplicate creation for {instance_hash}")
            protocol = InstanceProtocol(instance_hash, payload["model_hash"])
        elif protocol is None:
            raise OutOfOrderEvent(f"{kind} for {instance_hash}, whose creation was not seen")
        if payload["seq"] != protocol.next_seq:
            raise OutOfOrderEvent(
                f"{kind} seq {payload['seq']} arrived, expected {protocol.next_seq}")
        entry = ProtocolEntry(
            kind=kind,
            instance_hash=instance_hash,
            model_hash=protocol.model_hash,
            seq=payload["seq"],
            pre_state=payload[pre_key] if pre_key else None,
            post_state=payload[post_key] if post_key else None,
            height=event.height,
            tx_index=event.tx_index,
            emitter=payload["emitter"],
            timestamp=event.timestamp,
        )
        protocol.entries.append(entry)
        self.protocols[instance_hash] = protocol
        return entry

    def verify_protocol(self, instance_hash: str) -> list[str]:
        """Verify every entry of one protocol; returns the statuses."""
        protocol = self.protocols[instance_hash]
        reads = _Reads(self.store)
        statuses = []
        for entry in protocol.entries:
            entry.status = verify_entry(protocol, entry, reads)
            statuses.append(entry.status)
        return statuses

    def export(self, instance_hash: str) -> bytes:
        return export_protocol(self.protocols[instance_hash])


def _resolve(store, key: str) -> tuple[bytes | None, str | None]:
    """Fetch content; second element is a failure status when unreadable."""
    try:
        return store.get(key), None
    except MissingContent:
        return None, STATUS_UNVERIFIED
    except CorruptContent:
        return None, STATUS_INCONSISTENT


class _Reads:
    """Store reads of one verification pass, each content hash fetched once.

    Remembers the model and the most recent state, read failures included;
    that covers every repeated read of a chained protocol.
    """

    def __init__(self, store):
        self.store = store
        self._model: tuple[str, StateMachineModel | None, str | None] | None = None
        self._state: tuple[str, InstanceState | None, str | None] | None = None
        self.hops: dict[tuple[str, str], list[TransitionDef]] = {}  # by (source, target)

    def model(self, key: str) -> tuple[StateMachineModel | None, str | None]:
        """The parsed model, or None with the failure status."""
        if self._model is None or self._model[0] != key:
            data, status = _resolve(self.store, key)
            model = None
            if status is None:
                try:
                    model = parse_model_bytes(data)
                except TrailError:
                    status = STATUS_INCONSISTENT
            self._model = (key, model, status)
            self.hops = {}
            for t in model.transitions if model is not None else ():
                self.hops.setdefault((t.source, t.target), []).append(t)
        return self._model[1], self._model[2]

    def state(self, key: str) -> tuple[InstanceState | None, str | None]:
        """The parsed state and the read failure status.

        Both are None when the content reads but is not a state document.
        """
        if self._state is None or self._state[0] != key:
            data, status = _resolve(self.store, key)
            state = None
            if status is None:
                try:
                    state = parse_state_content(data)
                except CorruptContent:
                    pass
            self._state = (key, state, status)
        return self._state[1], self._state[2]


def _worst(statuses: list[str]) -> str | None:
    if STATUS_INCONSISTENT in statuses:
        return STATUS_INCONSISTENT
    if STATUS_UNVERIFIED in statuses:
        return STATUS_UNVERIFIED
    return None


def verify_entry(protocol: InstanceProtocol, entry: ProtocolEntry, store) -> str:
    """Check one protocol entry against the model and the content store.

    `store` is a content store, or the reads of a `verify_protocol` pass.
    """
    reads = store if isinstance(store, _Reads) else _Reads(store)
    model, model_status = reads.model(protocol.model_hash)
    if model is None:
        return model_status

    if entry.kind == KIND_CREATION:
        return _verify_creation(protocol, entry, model, reads)
    if entry.kind == KIND_TRANSITION:
        return _verify_transition(protocol, entry, reads)
    if entry.kind == KIND_TERMINATION:
        return _verify_termination(protocol, entry)
    return STATUS_INCONSISTENT


def _verify_creation(protocol: InstanceProtocol, entry: ProtocolEntry,
                     model: StateMachineModel, reads: _Reads) -> str:
    record_bytes, record_status = _resolve(reads.store, entry.instance_hash)
    state, state_status = reads.state(entry.post_state or "")
    failed = _worst([s for s in (record_status, state_status) if s is not None])
    if failed is not None:
        return failed
    try:
        record = parse_creation_record(record_bytes)
    except CorruptContent:
        return STATUS_INCONSISTENT
    if state is None:
        return STATUS_INCONSISTENT
    checks = (
        record["model_hash"] == protocol.model_hash
        and state.instance_hash == entry.instance_hash
        and state.current_state == model.initial
        and dict(state.variables) == dict(model.variables)
        and state.step == 0
    )
    return STATUS_VERIFIED if checks else STATUS_INCONSISTENT


def _verify_transition(protocol: InstanceProtocol, entry: ProtocolEntry, reads: _Reads) -> str:
    pre, pre_status = reads.state(entry.pre_state or "")
    post, post_status = reads.state(entry.post_state or "")
    failed = _worst([s for s in (pre_status, post_status) if s is not None])
    if failed is not None:
        return failed
    if pre is None or post is None:
        return STATUS_INCONSISTENT

    previous = protocol.entry_at(entry.seq - 1)
    chained = previous is not None and previous.post_state == entry.pre_state
    well_formed = (
        pre.instance_hash == entry.instance_hash
        and post.instance_hash == entry.instance_hash
        and post.step == pre.step + 1
    )

    def legal_hop(t) -> bool:
        # adversarial states may carry alien variable names; any lookup
        # failure just means this transition does not explain the hop
        try:
            if t.guard is not None and not t.guard.holds(pre.variables):
                return False
            expected = t.effect.apply(pre.variables) if t.effect is not None else pre.variables
            return post.variables == expected
        except KeyError:
            return False

    candidates = reads.hops.get((pre.current_state, post.current_state), ())
    legal = any(legal_hop(t) for t in candidates)
    return STATUS_VERIFIED if (chained and well_formed and legal) else STATUS_INCONSISTENT


def _verify_termination(protocol: InstanceProtocol, entry: ProtocolEntry) -> str:
    previous = protocol.entry_at(entry.seq - 1)
    is_last = protocol.entries and protocol.entries[-1] is entry
    return STATUS_VERIFIED if (previous is not None and is_last) else STATUS_INCONSISTENT
