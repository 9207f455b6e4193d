"""Simulated single-sequencer blockchain with an append-only hash chain.

The ledger totally orders transactions, applies them against a contract
(the registry), and collects the events the contract emits into blocks.
There is no consensus: one sequencer commits blocks on demand or once a
submission batch fills up. Failed contract calls stay on-chain with a
failure marker and emit no events, mirroring reverted transactions.

Block height 0 is an empty genesis block created at construction, so the
zero cursor (0, 0, 0) sorts strictly before every real event position.
A block's timestamp is its height.

Optional persistence appends one canonical-JSON block per line to a file.
Opening the file re-executes every transaction and must reproduce every
stored block; a line that is not a well-formed block, or that replays to
a different block, raises ChainCorrupt at its height. `verify_chain_file`
checks a file without executing it: each line must be exactly the
canonical bytes of its block, with its height as timestamp and a correct
hash and linkage.
"""

from __future__ import annotations

import bisect
import json
import threading
from dataclasses import dataclass
from operator import attrgetter
from pathlib import Path
from typing import Protocol

from .errors import (
    AccountExists,
    BadNonce,
    ChainCorrupt,
    InvalidCursor,
    RegistryError,
    UnknownSender,
)
from .hashing import FAUCET_ACCOUNT, ZERO_HASH, canonical_bytes, digest, is_account_id

Cursor = tuple[int, int, int]
ZERO_CURSOR: Cursor = (0, 0, 0)

OP_CREATE_ACCOUNT = "create_account"

STATUS_OK = "ok"
STATUS_FAILED = "failed"


class Contract(Protocol):
    def apply(self, sender: str, call: dict, timestamp: int) -> list[tuple[str, dict]]: ...


@dataclass(frozen=True)
class LedgerTransaction:
    sender: str
    call: dict
    nonce: int


@dataclass(frozen=True)
class AppliedTransaction:
    sender: str
    call: dict
    nonce: int
    status: str
    error: str | None

    def to_dict(self) -> dict:
        return {
            "call": self.call,
            "error": self.error,
            "nonce": self.nonce,
            "sender": self.sender,
            "status": self.status,
        }


@dataclass(frozen=True)
class EventRecord:
    kind: str
    payload: dict
    height: int
    tx_index: int
    event_index: int
    timestamp: int

    @property
    def position(self) -> Cursor:
        return (self.height, self.tx_index, self.event_index)

    def to_dict(self) -> dict:
        # timestamp is block-derived and excluded from the canonical form
        return {
            "event_index": self.event_index,
            "height": self.height,
            "kind": self.kind,
            "payload": self.payload,
            "tx_index": self.tx_index,
        }


@dataclass
class Block:
    height: int
    prev_hash: str
    transactions: list[AppliedTransaction]
    events: list[EventRecord]
    timestamp: int
    block_hash: str = ""

    def content_dict(self) -> dict:
        return {
            "events": [e.to_dict() for e in self.events],
            "height": self.height,
            "prev_hash": self.prev_hash,
            "timestamp": self.timestamp,
            "transactions": [t.to_dict() for t in self.transactions],
        }

    def compute_hash(self) -> str:
        return digest(canonical_bytes(self.content_dict()))

    def to_dict(self) -> dict:
        d = self.content_dict()
        d["block_hash"] = self.block_hash
        return d


@dataclass
class TxReceipt:
    tx: LedgerTransaction
    status: str = "pending"
    error: str | None = None
    height: int | None = None
    tx_index: int | None = None

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


@dataclass(frozen=True)
class VerificationReport:
    ok: bool
    blocks_checked: int
    first_bad_height: int | None = None
    reason: str | None = None

    def to_dict(self) -> dict:
        return {
            "blocks_checked": self.blocks_checked,
            "first_bad_height": self.first_bad_height,
            "ok": self.ok,
            "reason": self.reason,
        }


def create_account_call(account: str) -> dict:
    return {"op": OP_CREATE_ACCOUNT, "args": {"account": account}}


class Ledger:
    """Single-writer transaction log over a contract.

    Submissions and commits are serialized through one lock; reads only
    ever see fully committed blocks.
    """

    def __init__(
        self,
        contract: Contract,
        *,
        path: str | Path | None = None,
        batch_size: int = 1,
    ):
        if batch_size < 1:
            raise ValueError("batch_size must be >= 1")
        self._contract = contract
        self._path = Path(path) if path is not None else None
        self._batch_size = batch_size
        self._lock = threading.Lock()
        self._blocks: list[Block] = []
        self._events: list[EventRecord] = []
        self._accounts: set[str] = set()
        self._nonces: dict[str, int] = {}
        self._accounts_submitted: set[str] = set()
        self._nonces_submitted: dict[str, int] = {}
        self._pending: list[tuple[LedgerTransaction, TxReceipt]] = []
        if self._path is not None and self._path.exists():
            self._replay_file()
        if not self._blocks:  # new, or a file emptied before genesis was written
            self._persist(*self._apply_block([]))

    @classmethod
    def open(cls, path: str | Path, contract: Contract, *, batch_size: int = 1) -> "Ledger":
        return cls(contract, path=path, batch_size=batch_size)

    # ------------------------------------------------------------------ reads

    @property
    def blocks(self) -> list[Block]:
        return self._blocks

    @property
    def height(self) -> int:
        return self._blocks[-1].height

    def known_accounts(self) -> set[str]:
        return set(self._accounts)

    def next_nonce(self, sender: str) -> int:
        return self._nonces_submitted.get(sender, 0) + 1

    def events_since(self, cursor: Cursor) -> list[EventRecord]:
        """All committed events strictly after the cursor, in total order."""
        cursor = tuple(cursor)  # type: ignore[assignment]
        start = bisect.bisect_right(self._events, cursor, key=attrgetter("position"))
        if cursor != ZERO_CURSOR and (start == 0 or self._events[start - 1].position != cursor):
            raise InvalidCursor(f"cursor {cursor} is not a committed event position")
        return self._events[start:]

    # ----------------------------------------------------------------- writes

    def create_account(self, account: str) -> TxReceipt:
        """Register a fresh account through the faucet sender."""
        tx = LedgerTransaction(FAUCET_ACCOUNT, create_account_call(account), 0)
        with self._lock:
            return self._submit_locked(tx)

    def submit(self, tx: LedgerTransaction) -> TxReceipt:
        """Queue a transaction; commits automatically once the batch fills."""
        with self._lock:
            return self._submit_locked(tx)

    def commit_block(self) -> Block:
        """Apply all pending transactions in submission order as one block."""
        with self._lock:
            return self._commit_locked()

    # --------------------------------------------------------------- internals

    def _submit_locked(self, tx: LedgerTransaction) -> TxReceipt:
        is_create, account = _faucet_creation(tx)
        if is_create:
            if account is None:
                raise UnknownSender(f"no well-formed account id in {tx.call!r}")
            if account in self._accounts_submitted:
                raise AccountExists(f"account {account} already exists")
            expected = self._nonces_submitted.get(FAUCET_ACCOUNT, 0) + 1
            tx = LedgerTransaction(FAUCET_ACCOUNT, tx.call, expected)
            self._accounts_submitted.add(account)
        else:
            if tx.sender not in self._accounts_submitted:
                raise UnknownSender(f"sender {tx.sender} is not a known account")
            expected = self._nonces_submitted.get(tx.sender, 0) + 1
            if tx.nonce != expected:
                raise BadNonce(f"nonce {tx.nonce} from {tx.sender}, expected {expected}")
        self._nonces_submitted[tx.sender] = tx.nonce
        receipt = TxReceipt(tx)
        self._pending.append((tx, receipt))
        if len(self._pending) >= self._batch_size:
            self._commit_locked()
        return receipt

    def _commit_locked(self) -> Block:
        pending, self._pending = self._pending, []
        block, content = self._apply_block([tx for tx, _ in pending])
        self._persist(block, content)
        for tx_index, ((_, receipt), applied) in enumerate(zip(pending, block.transactions)):
            receipt.status = applied.status
            receipt.error = applied.error
            receipt.height = block.height
            receipt.tx_index = tx_index
        return block

    def _apply_block(self, txs: list[LedgerTransaction]) -> tuple[Block, bytes]:
        """Execute transactions and seal the resulting block. Deterministic.

        Returns the block and the canonical bytes of its content, which
        its hash covers.
        """
        height = timestamp = len(self._blocks)
        applied: list[AppliedTransaction] = []
        events: list[EventRecord] = []
        for tx_index, tx in enumerate(txs):
            status, error, emitted = self._apply_tx(tx, timestamp)
            applied.append(AppliedTransaction(tx.sender, tx.call, tx.nonce, status, error))
            for event_index, (kind, payload) in enumerate(emitted):
                events.append(EventRecord(kind, payload, height, tx_index, event_index, timestamp))
            self._nonces[tx.sender] = tx.nonce
        prev = self._blocks[-1].block_hash if self._blocks else ZERO_HASH
        return self._seal(Block(height, prev, applied, events, timestamp))

    def _apply_tx(
        self, tx: LedgerTransaction, timestamp: int
    ) -> tuple[str, str | None, list[tuple[str, dict]]]:
        # account creation is a ledger-level op reserved to the faucet sender;
        # anything else is dispatched to the contract. Submission checks the
        # sender and nonce, so only a forged file fails these checks
        is_create, account = _faucet_creation(tx)
        if not (is_create or tx.sender in self._accounts):
            raise ChainCorrupt(f"unknown sender {tx.sender} at height {timestamp}")
        expected = self._nonces.get(tx.sender, 0) + 1
        if type(tx.nonce) is not int or tx.nonce != expected:
            raise ChainCorrupt(f"nonce {tx.nonce!r} from {tx.sender}, expected {expected}, "
                               f"at height {timestamp}")
        if is_create:
            if account is None:
                return STATUS_FAILED, "UnknownCall", []
            if account in self._accounts:
                return STATUS_FAILED, "AccountExists", []
            self._accounts.add(account)
            return STATUS_OK, None, []
        try:
            emitted = self._contract.apply(tx.sender, tx.call, timestamp)
        except RegistryError as exc:
            return STATUS_FAILED, exc.name, []
        return STATUS_OK, None, emitted

    def _seal(self, block: Block) -> tuple[Block, bytes]:
        content = canonical_bytes(block.content_dict())
        block.block_hash = digest(content)
        self._blocks.append(block)
        self._events.extend(block.events)
        return block, content

    def _persist(self, block: Block, content: bytes) -> None:
        if self._path is None:
            return
        with self._path.open("ab") as fh:
            fh.write(_block_line(block.block_hash, content) + b"\n")

    def _replay_file(self) -> None:
        assert self._path is not None
        for height, raw in enumerate(self._path.read_bytes().splitlines()):
            # genesis carries no transactions, whatever its line claims. Applying
            # a forged block can fail too: a sender that is not a string, or a
            # value with no canonical encoding (NaN, a lone surrogate)
            try:
                stored = json.loads(raw)
                txs = [LedgerTransaction(t["sender"], t["call"], t["nonce"])
                       for t in stored["transactions"]] if height else []
                block, _ = self._apply_block(txs)
            except (KeyError, TypeError, ValueError) as exc:
                raise ChainCorrupt(f"malformed block at height {height}: {exc!r}") from exc
            if block.to_dict() != stored:
                raise ChainCorrupt(f"replay diverged from stored block at height {height}")
        # resync submission-time views with the committed state
        self._accounts_submitted = set(self._accounts)
        self._nonces_submitted = dict(self._nonces)


def verify_chain_file(path: str | Path) -> VerificationReport:
    """Structural integrity check of a persisted ledger file.

    Detects any byte-level mutation: unparseable lines, a height or
    timestamp out of sequence, block hash mismatches, and broken prev-hash
    linkage, reported at the first failing height.
    """
    lines = Path(path).read_bytes().splitlines()
    prev = ZERO_HASH
    for height, raw in enumerate(lines):
        try:
            stored = json.loads(raw)
        except ValueError:  # not JSON, or not UTF-8
            return VerificationReport(False, height, height, "unparseable block")
        try:
            block = _block_from_dict(stored)
            content = canonical_bytes(block.content_dict())
            block_hash = digest(content)
            # the exact bytes the ledger writes for this block, so extra
            # or missing keys anywhere in the line show as a mismatch
            encoded = _block_line(block.block_hash, content)
        except (KeyError, TypeError, ValueError) as exc:
            return VerificationReport(False, height, height, f"malformed block: {exc!r}")
        if block.height != height:
            return VerificationReport(False, height, height, "height out of sequence")
        if block.timestamp != height:
            return VerificationReport(False, height, height, "timestamp is not the height")
        if block.prev_hash != prev:
            return VerificationReport(False, height, height, "broken linkage to previous block")
        if block_hash != block.block_hash:
            return VerificationReport(False, height, height, "block hash mismatch")
        if encoded != raw:
            return VerificationReport(False, height, height, "non-canonical block encoding")
        prev = block.block_hash
    return VerificationReport(True, len(lines))


def _block_line(block_hash: object, content: bytes) -> bytes:
    """A block's file line: its canonical form, spliced onto the content bytes.

    "block_hash" sorts before every content key, so it comes first.
    """
    return b'{"block_hash":' + canonical_bytes(block_hash) + b"," + content[1:]


def _faucet_creation(tx: LedgerTransaction) -> tuple[bool, str | None]:
    """Whether `tx` is the faucet's account creation, and the well-formed id it names."""
    call = tx.call
    if (tx.sender != FAUCET_ACCOUNT or not isinstance(call, dict)
            or call.get("op") != OP_CREATE_ACCOUNT):
        return False, None
    args = call.get("args")
    account = args.get("account") if isinstance(args, dict) else None
    return True, account if is_account_id(account) else None


def _block_from_dict(d: dict) -> Block:
    txs = [
        AppliedTransaction(t["sender"], t["call"], t["nonce"], t["status"], t["error"])
        for t in d["transactions"]
    ]
    events = [
        EventRecord(e["kind"], e["payload"], e["height"], e["tx_index"], e["event_index"],
                    d["timestamp"])
        for e in d["events"]
    ]
    return Block(d["height"], d["prev_hash"], txs, events, d["timestamp"], d["block_hash"])
