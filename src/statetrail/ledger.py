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
replays to other bytes, raises ChainCorrupt at its height. So a replay
that succeeds implies all that `verify_chain_file` checks without
executing: each line is exactly the canonical bytes of its block, with
its height as timestamp and a correct hash and linkage.

Checkpoint. For a contract with `snapshot()` and its inverse `restore()`
(the registry), open keeps a checkpoint beside the file, at
`<file>.checkpoint`: the canonical JSON object {"body": ..., "digest":
digest(canonical_bytes(body))}. The body names its format, anchors a
prefix of the file (the last block's height and hash, the start and end
offsets of its line, and the sha256 of the bytes before that end) and
holds the accounts, nonces and contract snapshot after that block. Open
checks the self-digest, the format, the prefix sha256 and the anchor line,
restores that state and re-executes only the blocks after the anchor; the
prefix blocks and events are parsed, not re-executed, on first use. Events
alone are decoded from where `_block_line` puts them, each timed at its
line's height: the prefix sha256 proves the lines are those a full replay
matched byte for byte, and a line laid out otherwise is ChainCorrupt. If a
check fails, open writes one JSON line on stderr naming the reason and
re-executes the whole file. Any change to a byte of the prefix fails the
prefix check, and the format changes with the admission rule and the line
format, so open rejects every file that a full replay rejects. A
checkpoint whose two digests match is trusted: `chain verify` deletes it
and re-executes from genesis, which writes a fresh one. Open writes a new
checkpoint (a temporary file, then `os.replace`) after a full replay, and
after a restore only once the tail it re-executed reaches
`_CHECKPOINT_TAIL` blocks; a failed write is ignored. So the checkpoint
lags the head by fewer than that many blocks, and a cut of the file's tail
above the anchor still restores. A checkpoint is a pure function of the
prefix it anchors, so a stale one that still passes the checks is still
correct.
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
                      is_account_id, loads)
from .store import open_regular

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
# bumped whenever the admission rule, the line format or the contract snapshot's shape changes
_CHECKPOINT_FORMAT = 2
_CHECKPOINT_KEYS = frozenset({"accounts", "block_hash", "end", "format", "height", "nonces",
                              "prefix_sha256", "registry", "start"})
_CHUNK = 1 << 16  # the one buffer a restore hashes the prefix through
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
        if account in self._accounts or account == FAUCET_ACCOUNT:
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
        with _open_ledger(self._path) as fh:
            sha = self._restore_checkpoint(fh)
            # the height a restore re-executes to before the checkpoint is rewritten (0: at once)
            due = 0 if sha is None else self._next_height + _CHECKPOINT_TAIL
            if sha is None:
                fh.seek(0)
                sha = hashlib.sha256()
            anchor = None
            for height, start, end, raw, (block, content) in _walk(
                    fh, self._replay_line, self._next_height, sha):
                if _block_line(block.block_hash, content) != raw:
                    raise ChainCorrupt(f"replay diverged from stored block at height {height}")
                # an anchor line must end in a newline, or the next append would join it
                anchor = (start, end) if end - start > len(raw) else None
        if anchor is not None and self._next_height >= due and self._checkpoint is not None:
            self._write_checkpoint(*anchor, sha.hexdigest())

    def _replay_line(self, raw: bytes, height: int) -> tuple[Block, bytes]:
        # the next block, re-executed. Genesis carries no transactions, whatever its line claims
        stored = _decoded(raw, height)
        txs = [LedgerTransaction(t["sender"], t["call"], t["nonce"])
               for t in stored["transactions"]] if height else []
        return self._apply_block(txs, raw)

    def _restore_checkpoint(self, fh) -> "hashlib._Hash | None":
        """Restore the state at the checkpoint's anchor and leave `fh` after it.

        Returns the sha256 of the prefix, to be continued over the tail, or
        None, with the state untouched, if there is no checkpoint or it fails
        a check; a failed check is reported as one JSON line on stderr.
        """
        if self._checkpoint is None:
            return None
        try:
            with open_regular(self._checkpoint) as checkpoint:
                data = checkpoint.read()
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
            body = _decoded(body_bytes)
        except _MALFORMED:
            return self._fall_back("checkpoint body is not JSON")
        if isinstance(body, dict) and body.get("format") != _CHECKPOINT_FORMAT:
            return self._fall_back("checkpoint of another format")
        if not _well_typed(body):
            return self._fall_back("ill-typed checkpoint body")
        height, start, end = body["height"], body["start"], body["end"]
        sha, buf = hashlib.sha256(), memoryview(bytearray(_CHUNK))
        while n := fh.readinto(buf[:min(end - fh.tell(), _CHUNK)]):
            sha.update(buf[:n])
        if fh.tell() < end:
            return self._fall_back("anchor past the end of the ledger file")
        if sha.hexdigest() != body["prefix_sha256"]:
            return self._fall_back("ledger prefix digest mismatch")
        fh.seek(start)
        line = fh.read(end - start)
        try:
            anchor = _decoded(line)
        except _MALFORMED:
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
            "format": _CHECKPOINT_FORMAT,
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
            sha, parsed, strings = hashlib.sha256(), [], {}  # equal strings, shared by this load
            decode = _block_from_line if part == "blocks" else (
                lambda raw, height: _events_from_line(raw, height, strings))
            with _open_ledger(self._path) as fh:
                for _, _, line_end, _, value in _walk(fh, decode, sha=sha):
                    parsed.append(value)
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
    linkage, reported at the first failing height. A file that cannot be
    opened raises ChainCorrupt.
    """
    prev, checked = ZERO_HASH, 0
    with _open_ledger(path) as fh:
        try:
            for height, _, _, raw, stored in _walk(fh, _decoded):
                try:
                    block = _block_from_dict(stored)
                    content = canonical_bytes(block.content_dict())
                    # what the ledger writes for it: any extra or missing key shows as a mismatch
                    encoded = _block_line(block.block_hash, content)
                except _MALFORMED as exc:
                    return VerificationReport(False, height, height, f"malformed block: {exc!r}")
                reason = ("height out of sequence" if block.height != height
                          else "timestamp is not the height" if block.timestamp != height
                          else "broken linkage to previous block" if block.prev_hash != prev
                          else "block hash mismatch" if digest(content) != block.block_hash
                          else "non-canonical block encoding" if encoded != raw else None)
                if reason:
                    return VerificationReport(False, height, height, reason)
                prev, checked = block.block_hash, height + 1
        except ChainCorrupt:  # not JSON, not UTF-8, or nested too deep
            return VerificationReport(False, checked, checked, "unparseable block")
    return VerificationReport(True, checked)


def _open_ledger(path: str | Path):
    """The ledger file, opened for reading; ChainCorrupt if it cannot be read."""
    try:
        return open_regular(path)
    except FileNotFoundError:
        raise ChainCorrupt(f"no ledger file at {path}") from None
    except IsADirectoryError:
        raise ChainCorrupt(f"the ledger file {path} is a directory") from None
    except OSError as exc:
        raise ChainCorrupt(f"cannot read {path}: {exc.strerror}") from None


# what decoding a malformed line raises; RecursionError only from the unbounded events-only one
_MALFORMED = (AttributeError, KeyError, TypeError, ValueError, RecursionError)


def _walk(fh, decode, height=0, sha=None):
    """Yield (height, start, end, bytes, decode(bytes, height)) for each line from `fh` on.

    Only a newline ends a line; `bytes` leaves it out. Every byte read is fed to `sha`, if
    given. A line that `decode` finds malformed or refuses is ChainCorrupt at its height.
    """
    end = fh.tell()
    for height, line in enumerate(fh, height):
        if sha is not None:
            sha.update(line)
        start, end = end, end + len(line)
        raw = line[:-1] if line.endswith(b"\n") else line
        try:
            value = decode(raw, height)
        except _MALFORMED as exc:
            raise ChainCorrupt(f"malformed block at height {height}: {exc!r}") from exc
        except TrailError as exc:  # a replay's admission rule
            raise ChainCorrupt(f"{exc.name}: {exc}, at height {height}") from exc
        yield height, start, end, raw, value


def _decoded(raw: bytes, height: int = 0) -> object:
    # a line wraps a call in 3 levels; 1 more, so that a call 1 too deep is named UnknownCall
    return loads(raw, MAX_DEPTH + 4)  # what every reader of a line but the events-only one uses


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


def _block_from_line(raw: bytes, height: int) -> Block:
    return _block_from_dict(_decoded(raw, height))


def _block_from_dict(d: dict) -> Block:
    txs = [AppliedTransaction(t["sender"], t["call"], t["nonce"], t["status"], t["error"])
           for t in d["transactions"]]
    return Block(d["height"], d["prev_hash"], txs,
                 [EventRecord(e["kind"], e["payload"], e["height"], e["tx_index"],
                              e["event_index"], d["timestamp"]) for e in d["events"]],
                 d["timestamp"], d["block_hash"])


# the start of every `_block_line`: "block_hash", then "events", the first content key
_LINE_HEAD = re.compile(rb'\{"block_hash":"0x[0-9a-f]{64}","events":')
_DECODER = json.JSONDecoder()


def _events_from_line(raw: bytes, height: int, strings: dict[str, str]) -> list[EventRecord]:
    """The events of the line at `height` alone; names interned, string values from `strings`."""
    head = _LINE_HEAD.match(raw)
    if head is None:
        raise ValueError("not laid out as a block line")
    return [EventRecord(sys.intern(e["kind"]),
                        {sys.intern(k): strings.setdefault(v, v) if type(v) is str else v
                         for k, v in e["payload"].items()},
                        e["height"], e["tx_index"], e["event_index"], height)
            for e in _DECODER.raw_decode(raw.decode("utf-8"), head.end())[0]]
