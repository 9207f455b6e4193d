"""Simulated single-sequencer blockchain with an append-only hash chain.

The ledger totally orders transactions, applies them against a contract
(the registry), and collects the events the contract emits into blocks.
There is no consensus: one sequencer commits each accepted transaction as
a block of its own. Failed contract calls stay on-chain with a failure
marker and emit no events, mirroring reverted transactions. A file may
still hold blocks with no or several transactions; open replays them.

Block height 0 is an empty genesis block created at construction, so the
zero cursor (0, 0, 0) sorts strictly before every real event position.
A block's timestamp is its height.

Optional persistence appends one canonical-JSON block per line to a file.
Opening the file re-executes its transactions, and every re-executed
block must encode to exactly the stored line; a line that is not a
well-formed block, that the writer's admission rule refuses, or that
replays to other bytes, raises ChainCorrupt at its height.
`verify_chain_file` checks a file without executing it: each line must be
exactly the canonical bytes of its block, with its height as timestamp and
a correct hash and linkage.

Checkpoint. For a contract with `snapshot()` and its inverse `restore()`
(the registry), open keeps a checkpoint beside the file, at
`<file>.checkpoint`: the canonical JSON object {"body": ..., "digest":
digest(canonical_bytes(body))}. The body anchors a prefix of the file (the
last block's height and hash, the start and end offsets of its line, and
the sha256 of the bytes before that end) and holds the accounts, nonces
and contract snapshot after that block. Open checks the self-digest, the
prefix sha256 and the anchor line, restores that state and re-executes
only the blocks after the anchor; the prefix blocks and events are parsed,
not re-executed, on first use. Events alone are decoded from where
`_block_line` puts them, each timed at its line's height: the prefix
sha256 proves the lines are those a full replay matched byte for byte, and
a line laid out otherwise is ChainCorrupt. If a check fails, open writes
one JSON line on stderr naming the reason and re-executes the whole file.
Any change to a byte of the prefix fails the prefix check, so open rejects
every file that a full replay rejects. A checkpoint whose two digests
match is trusted: `chain verify` deletes it and re-executes from genesis,
which writes a fresh one. Open writes a new checkpoint (a temporary file,
then `os.replace`) after a full replay, and after a restore only once the
tail it re-executed reaches `_CHECKPOINT_TAIL` blocks; a failed write is
ignored. So the checkpoint lags the head by fewer than that many blocks,
and a cut of the file's tail above the anchor still restores. A
checkpoint is a pure function of the prefix it anchors, so a stale one
that still passes the checks is still correct.
"""

from __future__ import annotations

import bisect
import contextlib
import hashlib
import json
import os
import re
import sys
import tempfile
import threading
from operator import attrgetter
from pathlib import Path
from typing import NamedTuple, Protocol

from .errors import (
    AccountExists,
    BadNonce,
    ChainCorrupt,
    InvalidCursor,
    RegistryError,
    TrailError,
    UnknownCall,
    UnknownSender,
)
from .hashing import (FAUCET_ACCOUNT, MAX_DEPTH, ZERO_HASH, canonical_bytes, depth, digest,
                      is_account_id)

Cursor = tuple[int, int, int]
ZERO_CURSOR: Cursor = (0, 0, 0)

OP_CREATE_ACCOUNT = "create_account"

STATUS_OK = "ok"
STATUS_FAILED = "failed"


class Contract(Protocol):
    """What a ledger executes transactions against.

    A contract that also has `snapshot() -> dict` and its inverse
    `restore(snapshot)`, which raises ValueError for ill-typed input, is
    checkpointed.
    """

    def apply(self, sender: str, call: dict, timestamp: int) -> list[tuple[str, dict]]: ...


LEDGER_FILE = "ledger.jsonl"  # its name in a working directory
CHECKPOINT_SUFFIX = ".checkpoint"
_CHECKPOINT_KEYS = frozenset({"accounts", "block_hash", "end", "height", "nonces",
                              "prefix_sha256", "registry", "start"})
_CHUNK = 1 << 20
# the tail a restore re-executes before open rewrites the checkpoint. A
# rewrite costs as much as re-executing a hundred or more blocks and grows
# with the chain; each open re-executes what the checkpoint lags by
_CHECKPOINT_TAIL = 32


def checkpoint_path(path: str | Path) -> Path:
    """Where the checkpoint of the ledger file at `path` is kept."""
    return Path(str(path) + CHECKPOINT_SUFFIX)


class LedgerTransaction(NamedTuple):
    sender: str
    call: dict
    nonce: int


class AppliedTransaction(NamedTuple):
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


class EventRecord(NamedTuple):
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


class Block:
    __slots__ = ("height", "prev_hash", "transactions", "events", "timestamp", "block_hash")

    def __init__(self, height: int, prev_hash: str, transactions: list[AppliedTransaction],
                 events: list[EventRecord], timestamp: int, block_hash: str = ""):
        self.height = height
        self.prev_hash = prev_hash
        self.transactions = transactions
        self.events = events
        self.timestamp = timestamp
        self.block_hash = block_hash

    def __eq__(self, other: object) -> bool:
        if type(other) is not Block:
            return NotImplemented
        return all(getattr(self, name) == getattr(other, name) for name in Block.__slots__)

    def content_dict(self) -> dict:
        return {
            "events": [e.to_dict() for e in self.events],
            "height": self.height,
            "prev_hash": self.prev_hash,
            "timestamp": self.timestamp,
            "transactions": [t.to_dict() for t in self.transactions],
        }

    def to_dict(self) -> dict:
        d = self.content_dict()
        d["block_hash"] = self.block_hash
        return d


class TxReceipt(NamedTuple):
    tx: LedgerTransaction
    status: str
    error: str | None
    height: int

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


class VerificationReport(NamedTuple):
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

    Each submission is checked, applied, sealed as one block and persisted
    under one lock; reads only ever see fully committed blocks.
    """

    def __init__(self, contract: Contract, *, path: str | Path | None = None):
        self._contract = contract
        self._path = Path(path) if path is not None else None
        self._checkpoint = (checkpoint_path(self._path)
                            if self._path is not None and hasattr(contract, "restore") else None)
        self._lock = threading.Lock()
        # blocks and events after the restored prefix, or all of them
        self._blocks: list[Block] = []
        self._events: list[EventRecord] = []
        # (block count, end offset, sha256) of the prefix before a restored
        # anchor, and which of "blocks" and "events" are still to parse from it
        self._prefix: tuple[int, int, str] | None = None
        self._unread: set[str] = set()
        self._next_height = 0
        self._head_hash = ZERO_HASH
        self._accounts: set[str] = set()
        self._nonces: dict[str, int] = {}
        if self._path is not None:
            try:
                os.makedirs(self._path.parent, exist_ok=True)
            except OSError as exc:
                raise ChainCorrupt(f"no directory for the ledger file: {exc}") from None
            if self._path.is_dir():
                raise ChainCorrupt(f"the ledger file {self._path} is a directory")
            if self._path.exists():
                self._replay_file()
        if not self._next_height:  # new, or a file emptied before genesis was written
            self._persist(*self._apply_block([], b""))

    @classmethod
    def open(cls, path: str | Path, contract: Contract) -> "Ledger":
        return cls(contract, path=path)

    # ------------------------------------------------------------------ reads

    @property
    def blocks(self) -> list[Block]:
        self._load_prefix("blocks")
        return self._blocks

    @property
    def height(self) -> int:
        return self._next_height - 1

    def known_accounts(self) -> set[str]:
        return set(self._accounts)

    def next_nonce(self, sender: str) -> int:
        return self._nonces.get(sender, 0) + 1

    def events_since(self, cursor: Cursor) -> list[EventRecord]:
        """All committed events strictly after the cursor, in total order."""
        cursor = tuple(cursor)  # type: ignore[assignment]
        self._load_prefix("events")
        start = bisect.bisect_right(self._events, cursor, key=attrgetter("position"))
        if cursor != ZERO_CURSOR and (start == 0 or self._events[start - 1].position != cursor):
            raise InvalidCursor(f"cursor {cursor} is not a committed event position")
        return self._events[start:]

    # ----------------------------------------------------------------- writes

    def create_account(self, account: str) -> TxReceipt:
        """Register a fresh account through the faucet sender."""
        return self.submit(LedgerTransaction(FAUCET_ACCOUNT, create_account_call(account), 0))

    def submit(self, tx: LedgerTransaction) -> TxReceipt:
        """Commit one transaction as a block of its own, if `_apply_tx` admits it.

        A refused transaction raises and changes nothing. A transaction from
        the faucet gets the faucet's next nonce, whatever `tx` holds. Like a
        replay, it applies (and returns in the receipt) the call decoded from
        its canonical encoding.
        """
        with self._lock:
            if tx.sender == FAUCET_ACCOUNT:
                tx = tx._replace(nonce=self.next_nonce(FAUCET_ACCOUNT))
            # the block's encoding must not fail after the call has been applied
            try:
                encoded = canonical_bytes(tx.call)
                call = _DECODER.raw_decode(encoded.decode("utf-8"))[0]
            except (TypeError, ValueError, RecursionError) as exc:
                raise UnknownCall(f"the call has no canonical encoding: {exc}") from exc
            tx = LedgerTransaction(tx.sender, call, tx.nonce)
            block, content = self._apply_block([tx], encoded)
            self._persist(block, content)
            applied = block.transactions[0]
            return TxReceipt(tx, applied.status, applied.error, block.height)

    # --------------------------------------------------------------- internals

    def _apply_block(self, txs: list[LedgerTransaction], raw: bytes) -> tuple[Block, bytes]:
        """Execute transactions and seal the resulting block. Deterministic.

        `raw` holds the bytes the calls were decoded from. Returns the block
        and the canonical bytes of its content, which its hash covers.
        """
        height = timestamp = self._next_height
        applied: list[AppliedTransaction] = []
        events: list[EventRecord] = []
        for tx_index, tx in enumerate(txs):
            status, error, emitted = self._apply_tx(tx, timestamp, raw)
            applied.append(AppliedTransaction(tx.sender, tx.call, tx.nonce, status, error))
            for event_index, (kind, payload) in enumerate(emitted):
                events.append(EventRecord(kind, payload, height, tx_index, event_index, timestamp))
            self._nonces[tx.sender] = tx.nonce
        return self._seal(Block(height, self._head_hash, applied, events, timestamp))

    def _apply_tx(
        self, tx: LedgerTransaction, timestamp: int, raw: bytes
    ) -> tuple[str, str | None, list[tuple[str, dict]]]:
        """The admission rule, run alike by the writer and by every replay.

        Raises UnknownCall, UnknownSender, BadNonce or AccountExists before
        anything changes. A call decoded from `raw` nests no deeper than `raw`
        holds opening brackets, so it is walked only when they exceed MAX_DEPTH.
        """
        if raw.count(b"[") + raw.count(b"{") > MAX_DEPTH and depth(tx.call) > MAX_DEPTH:
            raise UnknownCall(f"the call nests deeper than {MAX_DEPTH}")
        # account creation is a ledger-level op reserved to the faucet sender;
        # anything else is dispatched to the contract
        call = tx.call
        is_create = (tx.sender == FAUCET_ACCOUNT and isinstance(call, dict)
                     and call.get("op") == OP_CREATE_ACCOUNT)
        if not (is_create or isinstance(tx.sender, str) and tx.sender in self._accounts):
            raise UnknownSender(f"sender {tx.sender} is not a known account")
        expected = self._nonces.get(tx.sender, 0) + 1
        if type(tx.nonce) is not int or tx.nonce != expected:
            raise BadNonce(f"nonce {tx.nonce!r} from {tx.sender}, expected {expected}")
        if not is_create:
            try:
                return STATUS_OK, None, self._contract.apply(tx.sender, call, timestamp)
            except RegistryError as exc:
                return STATUS_FAILED, exc.name, []
        args = call.get("args")
        account = args.get("account") if isinstance(args, dict) else None
        if not is_account_id(account):
            raise UnknownSender("the faucet's call names no well-formed account id")
        if account in self._accounts:
            raise AccountExists(f"account {account} already exists")
        self._accounts.add(account)
        return STATUS_OK, None, []

    def _seal(self, block: Block) -> tuple[Block, bytes]:
        content = canonical_bytes(block.content_dict())
        block.block_hash = self._head_hash = digest(content)
        self._next_height += 1
        self._blocks.append(block)
        self._events.extend(block.events)
        return block, content

    def _persist(self, block: Block, content: bytes) -> None:
        if self._path is None:
            return
        with self._path.open("ab") as fh:
            fh.write(_block_line(block.block_hash, content) + b"\n")

    def _replay_file(self) -> None:
        """Re-execute the file after the checkpoint's anchor, or all of it."""
        assert self._path is not None
        with self._path.open("rb") as fh:
            sha = None
            if self._checkpoint is not None:
                sha = self._restore_checkpoint(fh)
            # blocks to re-execute before the checkpoint is rewritten: none after a full replay
            due = 0 if sha is None else _CHECKPOINT_TAIL
            if sha is None:
                fh.seek(0)
                sha = hashlib.sha256()
            anchor = None
            for start, end, raw in _read_lines(fh, sha):
                due -= 1
                height = self._next_height
                # genesis carries no transactions, whatever its line claims. Besides the
                # admission rule, a forged block fails on a value with no canonical
                # encoding (NaN, a lone surrogate) or one too deep for the interpreter
                try:
                    stored = json.loads(raw)
                    txs = [LedgerTransaction(t["sender"], t["call"], t["nonce"])
                           for t in stored["transactions"]] if height else []
                    block, content = self._apply_block(txs, raw)
                except (KeyError, TypeError, ValueError, RecursionError) as exc:
                    raise ChainCorrupt(f"malformed block at height {height}: {exc!r}") from exc
                except TrailError as exc:
                    raise ChainCorrupt(f"{exc.name}: {exc}, at height {height}") from exc
                if _block_line(block.block_hash, content) != raw:
                    raise ChainCorrupt(f"replay diverged from stored block at height {height}")
                # an anchor line must end in a newline, or the next append would join it
                anchor = (start, end) if end - start > len(raw) else None
        if anchor is not None and due <= 0 and self._checkpoint is not None:
            self._write_checkpoint(*anchor, sha.hexdigest())

    def _restore_checkpoint(self, fh) -> "hashlib._Hash | None":
        """Restore the state at the checkpoint's anchor and leave `fh` after it.

        Returns the sha256 of the prefix, to be continued over the tail.
        Returns None, with the state untouched, when there is no
        checkpoint or when it fails a check; the latter is reported as one
        JSON line on stderr.
        """
        assert self._checkpoint is not None
        try:
            data = self._checkpoint.read_bytes()
        except FileNotFoundError:
            return None
        except OSError as exc:
            return self._fall_back(f"unreadable checkpoint: {exc.strerror}")
        # the canonical form: "body" sorts before "digest"
        body_bytes, _, stored_digest = data.rpartition(b',"digest":')
        body_bytes = body_bytes.removeprefix(b'{"body":')
        if stored_digest != canonical_bytes(digest(body_bytes)) + b"}":
            return self._fall_back("checkpoint digest mismatch")
        try:
            body = json.loads(body_bytes)
        except (ValueError, RecursionError):
            return self._fall_back("checkpoint body is not JSON")
        if not _well_typed(body):
            return self._fall_back("ill-typed checkpoint body")
        height, start, end = body["height"], body["start"], body["end"]
        sha, remaining = hashlib.sha256(), end
        while remaining:
            chunk = fh.read(min(remaining, _CHUNK))
            if not chunk:
                return self._fall_back("anchor past the end of the ledger file")
            sha.update(chunk)
            remaining -= len(chunk)
        if sha.hexdigest() != body["prefix_sha256"]:
            return self._fall_back("ledger prefix digest mismatch")
        fh.seek(start)
        line = fh.read(end - start)
        try:
            anchor = json.loads(line)
        except (ValueError, RecursionError):
            anchor = None
        if not (line.count(b"\n") == 1 and line.endswith(b"\n")
                and isinstance(anchor, dict) and anchor.get("height") == height
                and anchor.get("block_hash") == body["block_hash"]):
            return self._fall_back("anchor line mismatch")
        try:
            self._contract.restore(body["registry"])  # type: ignore[attr-defined]
        except ValueError as exc:
            return self._fall_back(f"ill-typed registry snapshot: {exc}")
        self._accounts, self._nonces = set(body["accounts"]), dict(body["nonces"])
        self._next_height, self._head_hash = height + 1, body["block_hash"]
        self._prefix = (height + 1, end, body["prefix_sha256"])
        self._unread = {"blocks", "events"}
        return sha

    def _fall_back(self, reason: str) -> None:
        line = {"checkpoint": str(self._checkpoint), "fallback": "full replay", "reason": reason}
        sys.stderr.write(json.dumps(line, sort_keys=True) + "\n")

    def _write_checkpoint(self, start: int, end: int, prefix_sha: str) -> None:
        assert self._checkpoint is not None
        body_bytes = canonical_bytes({
            "accounts": sorted(self._accounts),
            "block_hash": self._head_hash,
            "end": end,
            "height": self._next_height - 1,
            "nonces": self._nonces,
            "prefix_sha256": prefix_sha,
            "registry": self._contract.snapshot(),  # type: ignore[attr-defined]
            "start": start,
        })
        data = (b'{"body":' + body_bytes + b',"digest":' + canonical_bytes(digest(body_bytes))
                + b"}")
        # the checkpoint only saves work, so a failed write must not fail the caller
        try:
            fd, tmp = tempfile.mkstemp(dir=self._checkpoint.parent,
                                       prefix=self._checkpoint.name + ".")
        except OSError:
            return
        try:
            with os.fdopen(fd, "wb") as fh:
                os.fchmod(fd, os.stat(self._path).st_mode & 0o666)  # readable as the ledger is
                fh.write(data)
            os.replace(tmp, self._checkpoint)
        except OSError:
            with contextlib.suppress(OSError):
                os.unlink(tmp)

    def _load_prefix(self, part: str) -> None:
        """Parse the prefix's blocks, or only its events; they are not re-executed.

        Events alone leave out every transaction, which a tracker never reads.
        """
        if part not in self._unread:
            return
        with self._lock:
            if part not in self._unread:
                return
            assert self._path is not None and self._prefix is not None
            count, end, prefix_sha = self._prefix
            sha, parsed = hashlib.sha256(), []
            with self._path.open("rb") as fh:
                for _, line_end, raw in _read_lines(fh, sha):
                    try:
                        parsed.append(_block_from_dict(json.loads(raw)) if part == "blocks"
                                      else _events_from_line(raw, len(parsed)))
                    except (AttributeError, KeyError, TypeError, ValueError, RecursionError) as exc:
                        raise ChainCorrupt(
                            f"malformed block at height {len(parsed)}: {exc!r}") from exc
                    if line_end >= end:
                        break
            if len(parsed) != count or sha.hexdigest() != prefix_sha:
                raise ChainCorrupt("the ledger file changed before its anchored prefix was read")
            if part == "blocks":
                self._blocks[:0] = parsed
                parsed = [b.events for b in parsed]
            if "events" in self._unread:
                self._events[:0] = [e for events in parsed for e in events]
            self._unread -= {part, "events"}


def verify_chain_file(path: str | Path) -> VerificationReport:
    """Structural integrity check of a persisted ledger file.

    Detects any byte-level mutation: unparseable lines, a height or
    timestamp out of sequence, block hash mismatches, and broken prev-hash
    linkage, reported at the first failing height.
    """
    with Path(path).open("rb") as fh:
        prev, checked = ZERO_HASH, 0
        for height, (_, _, raw) in enumerate(_read_lines(fh)):
            try:
                stored = json.loads(raw)
            except (ValueError, RecursionError):  # not JSON, not UTF-8, or nested too deep
                return VerificationReport(False, height, height, "unparseable block")
            try:
                block = _block_from_dict(stored)
                content = canonical_bytes(block.content_dict())
                block_hash = digest(content)
                # the exact bytes the ledger writes for this block, so extra
                # or missing keys anywhere in the line show as a mismatch
                encoded = _block_line(block.block_hash, content)
            except (KeyError, TypeError, ValueError, RecursionError) as exc:
                return VerificationReport(False, height, height, f"malformed block: {exc!r}")
            if block.height != height:
                return VerificationReport(False, height, height, "height out of sequence")
            if block.timestamp != height:
                return VerificationReport(False, height, height, "timestamp is not the height")
            if block.prev_hash != prev:
                return VerificationReport(False, height, height,
                                          "broken linkage to previous block")
            if block_hash != block.block_hash:
                return VerificationReport(False, height, height, "block hash mismatch")
            if encoded != raw:
                return VerificationReport(False, height, height, "non-canonical block encoding")
            prev = block.block_hash
            checked = height + 1
    return VerificationReport(True, checked)


def _read_lines(fh, sha=None):
    """The lines of a ledger file from `fh`'s position on, without their newline.

    Yields (start offset, end offset, bytes) and holds one line at a time.
    Only a newline ends a line. Every byte read is fed to `sha`, if given.
    """
    end = fh.tell()
    for line in fh:
        if sha is not None:
            sha.update(line)
        start, end = end, end + len(line)
        yield start, end, line[:-1] if line.endswith(b"\n") else line


def _well_typed(body: object) -> bool:
    """Whether a checkpoint body has its keys, with the types open relies on."""
    if not isinstance(body, dict) or body.keys() != _CHECKPOINT_KEYS:
        return False
    height, start, end = body["height"], body["start"], body["end"]
    return (all(type(v) is int for v in (height, start, end)) and 0 <= height
            and 0 <= start < end
            and all(isinstance(body[k], str) for k in ("block_hash", "prefix_sha256"))
            and isinstance(body["accounts"], list)
            and all(isinstance(a, str) for a in body["accounts"])
            and isinstance(body["nonces"], dict)
            and all(type(n) is int for n in body["nonces"].values()))


def _block_line(block_hash: object, content: bytes) -> bytes:
    """A block's file line: its canonical form, spliced onto the content bytes.

    "block_hash" sorts before every content key, so it comes first.
    """
    return b'{"block_hash":' + canonical_bytes(block_hash) + b"," + content[1:]


def _block_from_dict(d: dict) -> Block:
    txs = [
        AppliedTransaction(t["sender"], t["call"], t["nonce"], t["status"], t["error"])
        for t in d["transactions"]
    ]
    return Block(d["height"], d["prev_hash"], txs, _events_from_dict(d), d["timestamp"],
                 d["block_hash"])


def _events_from_dict(d: dict) -> list[EventRecord]:
    return [
        EventRecord(e["kind"], e["payload"], e["height"], e["tx_index"], e["event_index"],
                    d["timestamp"])
        for e in d["events"]
    ]


# the start of every `_block_line`: "block_hash", then "events", the first content key
_LINE_HEAD = re.compile(rb'\{"block_hash":"0x[0-9a-f]{64}","events":')
_DECODER = json.JSONDecoder()


def _events_from_line(raw: bytes, height: int) -> list[EventRecord]:
    """The events of the line at `height`, decoding nothing else; names interned, as a replay's."""
    head = _LINE_HEAD.match(raw)
    if head is None:
        raise ValueError("not laid out as a block line")
    return [EventRecord(sys.intern(e["kind"]), {sys.intern(k): v for k, v in e["payload"].items()},
                        e["height"], e["tx_index"], e["event_index"], height)
            for e in _DECODER.raw_decode(raw.decode("utf-8"), head.end())[0]]
