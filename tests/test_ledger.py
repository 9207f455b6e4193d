"""Ledger ordering, hash chain integrity, event log and persistence."""

import json
import random
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from statetrail.errors import (
    AccountExists,
    BadNonce,
    ChainCorrupt,
    InvalidCursor,
    TrailError,
    UnknownCall,
    UnknownSender,
)
from statetrail.hashing import FAUCET_ACCOUNT, MAX_DEPTH, ZERO_HASH, canonical_bytes, content_hash
from statetrail.ledger import (
    Ledger,
    LedgerTransaction,
    ZERO_CURSOR,
    checkpoint_path,
    create_account_call,
    verify_chain_file,
)

from statetrail.model import model_hash
from statetrail.registry import (
    Descriptor,
    Registry,
    call_delegate_access,
    call_register_instance,
    call_register_model,
    call_register_transition,
    call_terminate_instance,
)

from conftest import (
    ALICE,
    BOB,
    CARA,
    engine_for,
    make_world,
    minimal_model,
    on_a_fresh_stack,
    raw_submit,
)


class EchoContract:
    """Tiny contract stub: `emit` emits n events, `fail` reverts."""

    def apply(self, sender, call, ctx):
        if call["op"] == "fail":
            raise UnknownCall("stub failure")
        if call["op"] == "emit":
            return [("Echo", {"i": i, "sender": sender}) for i in range(call["args"]["n"])]
        return []


def echo_ledger(accounts=(ALICE, BOB), **kwargs) -> Ledger:
    ledger = Ledger(EchoContract(), **kwargs)
    for account in accounts:
        ledger.create_account(account)
    return ledger


def tx(sender, nonce, op="noop", **args):
    return LedgerTransaction(sender, {"op": op, "args": args}, nonce)


def nested(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


# values with no canonical encoding
DEEP = nested(100_000)
UNENCODABLE = {"surrogate": "\udcff", "nan": float("nan"), "bytes": b"x", "deep": DEEP}


def call_nested(depth):
    """A call whose lists and objects nest exactly `depth` deep; from 4 on, a register_model."""
    if depth < 4:
        return nested(depth - 1) if depth else "register_model"
    return call_register_model("0x" + "1" * 64, Descriptor("m", nested(depth - 4)))


# around the bound, and where the interpreter's recursion limit used to decide
DEPTHS = [0, 1, *range(MAX_DEPTH - 3, MAX_DEPTH + 2), 500, *range(980, 996), 1200]


def at_depth(frames, fn):
    """`fn()`, called about `frames` frames deeper than the caller."""
    return fn() if frames <= 0 else at_depth(frames - 1, fn)


def reopen_in_subprocess(path) -> bytes:
    """The registry snapshot a fresh interpreter replays from the file at `path`."""
    code = ("import sys; from statetrail.ledger import Ledger; "
            "from statetrail.registry import Registry; r = Registry(); "
            "from statetrail.hashing import canonical_bytes; Ledger.open(sys.argv[1], r); "
            "sys.stdout.buffer.write(canonical_bytes(r.snapshot()))")
    return subprocess.run([sys.executable, "-c", code, str(path)], capture_output=True,
                          check=True, timeout=60).stdout


class TestSubmission:
    def test_first_nonce_is_one(self):
        ledger = echo_ledger()
        receipt = ledger.submit(tx(ALICE, 1))
        assert receipt.ok

    def test_nonce_reuse_rejected(self):
        ledger = echo_ledger()
        ledger.submit(tx(ALICE, 1))
        with pytest.raises(BadNonce):
            ledger.submit(tx(ALICE, 1))

    def test_nonce_gap_rejected(self):
        ledger = echo_ledger()
        with pytest.raises(BadNonce):
            ledger.submit(tx(ALICE, 3))

    def test_unknown_sender_rejected(self):
        ledger = echo_ledger()
        with pytest.raises(UnknownSender):
            ledger.submit(tx("0x" + "9" * 40, 1))

    def test_duplicate_account_creation_rejected(self):
        ledger = echo_ledger()
        with pytest.raises(AccountExists):
            ledger.create_account(ALICE)

    def test_account_creation_is_faucet_only(self):
        # a regular sender naming the faucet op hits the contract instead,
        # which rejects it as an unknown call
        world = make_world()
        receipt = raw_submit(world.ledger, ALICE, {
            "op": "create_account", "args": {"account": "0x" + "7" * 40}})
        assert receipt.status == "failed" and receipt.error == "UnknownCall"
        assert "0x" + "7" * 40 not in world.ledger.known_accounts()

    def test_malformed_account_id_rejected_at_submit(self):
        # a faucet creation for a malformed id must not make the id a sender
        ledger = echo_ledger()
        height = ledger.height
        with pytest.raises(UnknownSender):
            ledger.submit(LedgerTransaction(FAUCET_ACCOUNT, create_account_call("bogus"), 0))
        with pytest.raises(UnknownSender):
            ledger.submit(tx("bogus", 1))
        assert ledger.height == height and "bogus" not in ledger.known_accounts()

    @pytest.mark.parametrize("call", [
        {"op": "create_account"},
        {"op": "create_account", "args": []},
        {"op": "create_account", "args": "0x" + "7" * 40},
        {"op": "create_account", "args": {}},
    ], ids=["no-args", "list-args", "string-args", "no-account"])
    def test_faucet_creation_without_account_object_rejected(self, call):
        ledger = echo_ledger()
        height = ledger.height
        with pytest.raises(UnknownSender):
            ledger.submit(LedgerTransaction(FAUCET_ACCOUNT, call, 0))
        assert ledger.height == height and ledger.known_accounts() == {ALICE, BOB}

    @pytest.mark.parametrize("nonce", [True, 1.0, "1", None])
    def test_nonce_of_another_type_rejected(self, nonce):
        ledger = echo_ledger()
        height = ledger.height
        with pytest.raises(BadNonce):
            ledger.submit(tx(ALICE, nonce))
        assert ledger.height == height and ledger.next_nonce(ALICE) == 1

    @pytest.mark.parametrize("value", UNENCODABLE.values(), ids=UNENCODABLE.keys())
    def test_call_with_no_encoding_rejected_before_it_applies(self, tmp_path, value):
        path = tmp_path / "ledger.jsonl"
        world = make_world(path=path)
        engine = engine_for(world, ALICE)
        mh = model_hash(minimal_model())
        with pytest.raises(UnknownCall):
            engine.submit_call(call_register_model(mh, Descriptor("m", value)))
        assert not world.registry.has_model(mh) and world.ledger.next_nonce(ALICE) == 1
        engine.submit_call(call_register_model(mh, Descriptor("m", "m")))
        assert Ledger.open(path, Registry()).height == world.ledger.height == 4
        assert verify_chain_file(path).ok

    def test_faucet_cannot_create_itself(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = make_world(path=path).ledger
        before = (ledger.height, ledger.next_nonce(FAUCET_ACCOUNT), path.read_bytes())
        with pytest.raises(AccountExists):
            ledger.create_account(FAUCET_ACCOUNT)
        assert (ledger.height, ledger.next_nonce(FAUCET_ACCOUNT), path.read_bytes()) == before
        assert FAUCET_ACCOUNT not in ledger.known_accounts()

    def test_nonces_are_per_sender(self):
        ledger = echo_ledger()
        ledger.submit(tx(ALICE, 1))
        ledger.submit(tx(BOB, 1))
        ledger.submit(tx(ALICE, 2))
        assert ledger.next_nonce(ALICE) == 3
        assert ledger.next_nonce(BOB) == 2

    @pytest.mark.parametrize("depth", DEPTHS)
    def test_a_call_is_refused_or_written_for_every_party(self, tmp_path, depth):
        path = tmp_path / "ledger.jsonl"
        world = make_world(path=path)
        ledger, registry = world.ledger, world.registry
        before = (ledger.height, ledger.next_nonce(ALICE), path.read_bytes())
        try:
            on_a_fresh_stack(lambda: raw_submit(ledger, ALICE, call_nested(depth)))
        except UnknownCall:
            assert depth > MAX_DEPTH
            assert (ledger.height, ledger.next_nonce(ALICE), path.read_bytes()) == before
            return
        assert depth <= MAX_DEPTH and ledger.height == before[0] + 1
        assert reopen_in_subprocess(path) == canonical_bytes(registry.snapshot())
        checkpoint_path(path).unlink()  # the reopen wrote it; replay the whole file again
        replayed = Registry()
        at_depth(60, lambda: Ledger.open(path, replayed))
        assert canonical_bytes(replayed.snapshot()) == canonical_bytes(registry.snapshot())

    # a submission that fails two checks: the call's is named first
    @pytest.mark.parametrize("sender, call, nonce", [
        ("0x" + "9" * 40, call_register_model("0x" + "1" * 64, Descriptor("m", float("nan"))), 1),
        (ALICE, call_register_model("0x" + "1" * 64, Descriptor("m", float("nan"))), 2),
        (FAUCET_ACCOUNT, dict(create_account_call(ALICE), nan=float("nan")), 0),
        ("0x" + "9" * 40, call_nested(MAX_DEPTH + 1), 1),
        (ALICE, call_nested(MAX_DEPTH + 1), 2),
        (FAUCET_ACCOUNT, dict(create_account_call(ALICE), deep=nested(MAX_DEPTH - 1)), 0),
    ], ids=["unknown-sender-unencodable", "bad-nonce-unencodable", "existing-unencodable",
            "unknown-sender-too-deep", "bad-nonce-too-deep", "existing-too-deep"])
    def test_a_call_that_fails_is_named_before_sender_nonce_and_account(
            self, sender, call, nonce):
        ledger = make_world(accounts=(ALICE,)).ledger
        height = ledger.height
        with pytest.raises(UnknownCall):
            ledger.submit(LedgerTransaction(sender, call, nonce))
        assert ledger.height == height
        assert ledger.next_nonce(ALICE) == 1 and ledger.next_nonce(FAUCET_ACCOUNT) == 2


class TestBlocks:
    def test_genesis_linkage(self):
        ledger = echo_ledger()
        genesis = ledger.blocks[0]
        assert genesis.height == 0
        assert genesis.prev_hash == ZERO_HASH
        assert genesis.transactions == []

    def test_empty_commit(self, tmp_path):
        # the ledger never writes an empty block after genesis, but a file may hold one
        path = tmp_path / "ledger.jsonl"
        echo_ledger(path=path)
        regroup(path, [1, 0, 1])
        assert verify_chain_file(path).ok
        ledger = Ledger.open(path, EchoContract())
        block = ledger.blocks[2]
        assert block.transactions == [] and block.events == []
        assert ledger.known_accounts() == {ALICE, BOB}
        assert ledger.submit(tx(ALICE, 1)).height == 4
        assert verify_chain_file(path).ok

    def test_failed_calls_stay_on_chain_without_events(self):
        ledger = echo_ledger()
        receipt = ledger.submit(tx(ALICE, 1, op="fail"))
        assert receipt.status == "failed"
        assert receipt.error == "UnknownCall"
        block = ledger.blocks[receipt.height]
        assert block.transactions[0].status == "failed"
        assert block.events == []

    def test_batch_mode_groups_transactions(self, tmp_path):
        # a block of several transactions, as a file may hold, replays in order
        path = tmp_path / "ledger.jsonl"
        ledger = echo_ledger(path=path)
        for i in range(1, 4):
            assert ledger.submit(tx(ALICE, i, op="emit", n=1)).height == 2 + i
        regroup(path, [1, 1, 3])
        assert verify_chain_file(path).ok
        replayed = Ledger.open(path, EchoContract())
        assert replayed.height == 3 and len(replayed.blocks[3].transactions) == 3
        assert [e.position for e in replayed.events_since(ZERO_CURSOR)] == \
               [(3, 0, 0), (3, 1, 0), (3, 2, 0)]
        assert replayed.next_nonce(ALICE) == 4

    def test_receipt_is_an_immutable_record(self):
        ledger = echo_ledger()
        receipt = ledger.submit(tx(ALICE, 1))
        assert receipt == (tx(ALICE, 1), "ok", None, ledger.height) and receipt.ok
        with pytest.raises(AttributeError):
            receipt.status = "failed"

    def test_timestamps_monotone(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = echo_ledger(path=path)
        for i in range(1, 5):
            ledger.submit(tx(ALICE, i))
        regroup(path, [1, 0, 1, 2, 0, 2])  # seven blocks with genesis
        stamps = [b.timestamp for b in Ledger.open(path, EchoContract()).blocks]
        assert stamps == list(range(7))  # each block's height: monotone, no repeats
        assert stamps == sorted(stamps) and len(set(stamps)) == len(stamps)


class TestEvents:
    def test_zero_cursor_on_empty_ledger(self):
        ledger = echo_ledger()
        assert ledger.events_since(ZERO_CURSOR) == []

    def test_three_transition_events_in_submission_order(self):
        # end-to-end: the real registry emits one event per transition
        world = make_world()
        engine = engine_for(world, ALICE)
        model = minimal_model()
        from statetrail.model import model_hash
        from statetrail.registry import Descriptor, call_register_model
        engine.submit_call(call_register_model(model_hash(model), Descriptor("m", "m")))
        state = engine.instantiate(model, Descriptor(id="i", name="i"), 1)
        doc = dict(
            name="pingpong", states=["A", "B"], initial="A", finals=[],
            transitions=[{"id": "t1", "from": "A", "to": "B"},
                         {"id": "t2", "from": "B", "to": "A"}],
            variables={},
        )
        from statetrail.model import validate_model
        model2 = validate_model(doc)
        for tid in ("t1", "t2", "t1"):
            state, _ = engine.fire_and_register(state, model2, tid)
        events = [e for e in world.ledger.events_since(ZERO_CURSOR)
                  if e.kind == "TransitionEvent"]
        assert len(events) == 3
        assert [e.payload["seq"] for e in events] == [1, 2, 3]

    def test_cursor_pagination_and_replayability(self):
        ledger = echo_ledger()
        raw_submit(ledger, ALICE, {"op": "emit", "args": {"n": 2}})
        raw_submit(ledger, ALICE, {"op": "emit", "args": {"n": 1}})
        all_events = ledger.events_since(ZERO_CURSOR)
        assert len(all_events) == 3
        assert ledger.events_since(ZERO_CURSOR) == all_events  # replayable
        tail = ledger.events_since(all_events[0].position)
        assert tail == all_events[1:]
        assert ledger.events_since(all_events[-1].position) == []

    def test_invalid_cursor(self):
        ledger = echo_ledger()
        raw_submit(ledger, ALICE, {"op": "emit", "args": {"n": 1}})
        with pytest.raises(InvalidCursor):
            ledger.events_since((999, 0, 0))

    def test_positions_unique_and_ordered(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = echo_ledger(path=path)
        for i in range(1, 7):
            ledger.submit(tx(ALICE, i, op="emit", n=2))
        regroup(path, [2, 2, 2, 2])  # two transactions of two events each per block
        positions = [e.position for e in Ledger.open(path, EchoContract()).events_since(ZERO_CURSOR)]
        assert positions == sorted(positions)
        assert len(positions) == len(set(positions)) == 12


def regroup(path, sizes):
    """Rewrite the chain so that block k holds the transactions of the next sizes[k-1] blocks.

    Genesis stays; events move with their transaction, and every hash and
    link is recomputed, as a sequencer that grouped its calls would write
    them. A size of 0 writes an empty block.
    """
    genesis, *rest = [json.loads(line) for line in path.read_bytes().splitlines()]
    assert sum(sizes) == len(rest)
    blocks = [genesis]
    for height, size in enumerate(sizes, 1):
        group, rest = rest[:size], rest[size:]
        block = {
            "events": [dict(e, height=height, tx_index=i)
                       for i, b in enumerate(group) for e in b["events"]],
            "height": height,
            "prev_hash": blocks[-1]["block_hash"],
            "timestamp": height,
            "transactions": [t for b in group for t in b["transactions"]],
        }
        blocks.append(dict(block, block_hash=content_hash(block)))
    path.write_bytes(b"".join(canonical_bytes(b) + b"\n" for b in blocks))


def edit_block(path, height, edit, reseal=False):
    """Rewrite one stored block in canonical form after `edit(block)`.

    With `reseal`, that block and every later one get fresh hashes and
    links, as a forger able to recompute them would write them.
    """
    blocks = [json.loads(line) for line in path.read_bytes().splitlines()]
    edit(blocks[height])
    if reseal:
        for prev, block in zip(blocks[height - 1:], blocks[height:]):
            block["prev_hash"] = prev["block_hash"]
            block["block_hash"] = content_hash(
                {k: v for k, v in block.items() if k != "block_hash"})
    path.write_bytes(b"".join(canonical_bytes(b) + b"\n" for b in blocks))


class TestChainIntegrity:
    def test_honest_run_verifies(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = echo_ledger(path=path)
        for i in range(1, 11):
            ledger.submit(tx(ALICE, i, op="emit", n=1))
        report = verify_chain_file(path)
        assert report.ok and report.blocks_checked == len(ledger.blocks)

    def test_tampered_payload_detected_at_height(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = echo_ledger(path=path)
        for i in range(1, 7):
            ledger.submit(tx(ALICE, i, op="emit", n=1))
        edit_block(path, 4, lambda b: b["transactions"][0].update(nonce=99))
        report = verify_chain_file(path)
        assert not report.ok
        assert report.first_bad_height == 4

    def test_relinked_prev_hash_detected(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = echo_ledger(path=path)
        for i in range(1, 7):
            ledger.submit(tx(ALICE, i))
        edit_block(path, 5, lambda b: b.update(prev_hash=ledger.blocks[3].block_hash))
        report = verify_chain_file(path)
        assert not report.ok and report.first_bad_height == 5

    @pytest.mark.parametrize("edit", [
        lambda b: b.update(extra=1),
        lambda b: b["events"][0].update(extra=1),
        lambda b: b["transactions"][0].update(extra=1),
    ], ids=["block", "event", "transaction"])
    def test_extra_key_detected_at_height(self, tmp_path, edit):
        path = tmp_path / "ledger.jsonl"
        ledger = echo_ledger(path=path)
        for i in range(1, 5):
            ledger.submit(tx(ALICE, i, op="emit", n=1))
        edit_block(path, 4, edit)
        report = verify_chain_file(path)
        assert not report.ok and report.first_bad_height == 4
        with pytest.raises(ChainCorrupt):
            Ledger.open(path, EchoContract())


    @pytest.mark.parametrize("block_hash, reason", [
        (5, "block hash mismatch"),
        ("A\u030a", "block hash mismatch"),
        ("0x" + "e\u0301" * 32, "block hash mismatch"),
        (None, "non-canonical block encoding"),
    ], ids=["number", "nfd-string", "nfd-hex", "escaped-stored-hash"])
    def test_ill_formed_block_hash_detected_at_height(self, tmp_path, block_hash, reason):
        path = tmp_path / "ledger.jsonl"
        ledger = echo_ledger(path=path)
        for i in range(1, 5):
            ledger.submit(tx(ALICE, i))
        lines = path.read_bytes().splitlines()
        if block_hash is None:  # the right hash, its first digit written as an escape
            lines[4] = lines[4].replace(b'"block_hash":"0', b'"block_hash":"\\u0030')
        else:  # written as is, without the canonical encoder's NFC step
            block = json.loads(lines[4])
            block["block_hash"] = block_hash
            lines[4] = json.dumps(block, sort_keys=True, separators=(",", ":"),
                                  ensure_ascii=False).encode("utf-8")
        path.write_bytes(b"\n".join(lines) + b"\n")
        report = verify_chain_file(path)
        assert not report.ok and report.first_bad_height == 4
        assert report.reason == reason

    @pytest.mark.parametrize("rewrite", [
        lambda line: b"\xef\xbb\xbf" + line,
        lambda line: line.decode("utf-8").encode("utf-16"),
        lambda line: line.replace(b'"status":"ok"', b'"status":"ok\xed\xa0\x80"'),
    ], ids=["bom", "utf-16", "raw-surrogate"])
    def test_line_that_is_not_strict_utf8_is_unparseable(self, tmp_path, rewrite):
        path = tmp_path / "ledger.jsonl"
        ledger = echo_ledger(path=path)
        for i in range(1, 4):
            ledger.submit(tx(ALICE, i))
        lines = path.read_bytes().splitlines()
        lines[4] = rewrite(lines[4])
        path.write_bytes(b"\n".join(lines) + b"\n")
        assert verify_chain_file(path) == (False, 4, 4, "unparseable block")
        with pytest.raises(ChainCorrupt, match="^malformed block at height 4"):
            Ledger.open(path, EchoContract())

    @pytest.mark.parametrize("make, text", [
        (lambda path: None, "no ledger file at "),
        (lambda path: path.mkdir(), " is a directory"),
        (lambda path: path.parent.rmdir() or path.parent.write_bytes(b""), "cannot read "),
    ], ids=["missing", "directory", "parent-is-a-file"])
    def test_file_that_cannot_be_read_is_chain_corrupt(self, tmp_path, make, text):
        path = tmp_path / "wd" / "ledger.jsonl"
        path.parent.mkdir()
        make(path)
        with pytest.raises(ChainCorrupt, match=text):
            verify_chain_file(path)


class TestPersistence:
    def test_replay_reconstructs_identical_chain(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = echo_ledger(path=path)
        for i in range(1, 6):
            ledger.submit(tx(ALICE, i, op="emit", n=i % 3))
        replayed = Ledger.open(path, EchoContract())
        assert [b.block_hash for b in replayed.blocks] == \
               [b.block_hash for b in ledger.blocks]
        assert replayed.events_since(ZERO_CURSOR) == ledger.events_since(ZERO_CURSOR)
        assert replayed.next_nonce(ALICE) == ledger.next_nonce(ALICE)

    def test_replay_continues_appending(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = echo_ledger(path=path)
        ledger.submit(tx(ALICE, 1))
        replayed = Ledger.open(path, EchoContract())
        replayed.submit(tx(ALICE, 2))
        report = verify_chain_file(path)
        assert report.ok and report.blocks_checked == len(replayed.blocks)

    def test_file_byte_flip_detected(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = echo_ledger(path=path)
        for i in range(1, 6):
            ledger.submit(tx(ALICE, i, op="emit", n=1))
        data = bytearray(path.read_bytes())
        rng = random.Random(5)
        pos = rng.randrange(len(data))
        while data[pos] in (10, 13):  # keep the line structure intact
            pos = rng.randrange(len(data))
        data[pos] = (data[pos] + 1) % 256 or 1
        path.write_bytes(bytes(data))
        assert not verify_chain_file(path).ok

    def test_replay_divergence_raises(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = echo_ledger(path=path)
        ledger.submit(tx(ALICE, 1, op="emit", n=1))
        lines = path.read_bytes().splitlines()
        doctored = json.loads(lines[-1])
        doctored["transactions"][0]["call"]["args"]["n"] = 2
        lines[-1] = canonical_bytes(doctored)
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ChainCorrupt):
            Ledger.open(path, EchoContract())

    def test_replay_of_a_batch_that_creates_and_uses_an_account(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = echo_ledger(accounts=(ALICE,), path=path)
        ledger.submit(tx(ALICE, 1))
        ledger.submit(tx(ALICE, 2))
        regroup(path, [3])
        replayed = Ledger.open(path, EchoContract())
        assert replayed.height == 1 and replayed.next_nonce(ALICE) == 3
        assert verify_chain_file(path).ok

    @pytest.mark.parametrize("descriptor", [
        {"id": "m", "name": "m", "extra": {1: "x"}},
        {"id": "m", "name": "m", "extra": {True: "x"}},
        {"id": "m", "name": "e\u0301", "extra": {"\u00e9": "a", "e\u0301": "b"}},
        {"id": "e\u0301", "name": "m"},
    ], ids=["int-key", "bool-key", "nfc-colliding-keys", "non-nfc-id"])
    def test_writer_applies_the_call_a_replay_applies(self, tmp_path, descriptor):
        # JSON turns a key into a string and the canonical form is NFC, so the
        # call a line holds can differ from the object that was submitted
        path = tmp_path / "ledger.jsonl"
        world = make_world(path=path)
        call = {"op": "register_model",
                "args": {"model_hash": model_hash(minimal_model()), "descriptor": descriptor}}
        receipt = raw_submit(world.ledger, ALICE, call)
        assert receipt.tx.call == json.loads(canonical_bytes(call))
        replayed = Registry()
        Ledger.open(path, replayed)
        assert replayed.snapshot() == world.registry.snapshot()

    def test_observers_see_identical_event_bytes(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        ledger = echo_ledger(path=path)
        rng = random.Random(11)
        nonces = {ALICE: 0, BOB: 0}
        for _ in range(20):
            sender = rng.choice([ALICE, BOB])
            nonces[sender] += 1
            ledger.submit(tx(sender, nonces[sender], op="emit", n=rng.randint(0, 2)))
        views = [Ledger.open(path, EchoContract()) for _ in range(3)]
        dumps = [
            b"".join(canonical_bytes(e.to_dict()) for e in v.events_since(ZERO_CURSOR))
            for v in views
        ]
        assert len(set(dumps)) == 1


class TestAdversarialFiles:
    """A forger who recomputes hashes and links still cannot crash a replay."""

    @staticmethod
    def forged_chain(tmp_path):
        path = tmp_path / "ledger.jsonl"
        world = make_world(path=path)  # blocks 1-3 create the accounts
        engine = engine_for(world, ALICE)
        engine.submit_call(call_register_model(model_hash(minimal_model()), Descriptor("m", "m")))
        return path  # block 4 holds the model registration

    @pytest.mark.parametrize("height, edit", [
        (1, lambda b: b["transactions"][0]["call"].update(args="0x" + "7" * 40)),
        (1, lambda b: b["transactions"][0]["call"].pop("args")),
        (4, lambda b: b["transactions"][0].update(call=5)),
        (4, lambda b: b["transactions"][0].pop("sender")),
        (4, lambda b: b["transactions"][0].update(sender=[ALICE])),
        (4, lambda b: b.update(transactions="x")),
        (4, lambda b: b.update(transactions=5)),
        (4, lambda b: b.update(transactions={"sender": ALICE})),
        (4, lambda b: b.pop("transactions")),
        (4, lambda b: b["transactions"][0].update(call={"op": "register_model", "args": {
            "model_hash": [], "descriptor": {"id": "m"}}})),
        (4, lambda b: b.update(timestamp=99)),
        (4, lambda b: b["transactions"][0].update(sender="0x" + "d" * 40)),
        (4, lambda b: b["transactions"][0].update(sender=FAUCET_ACCOUNT, nonce=4)),
        (4, lambda b: b["transactions"][0].update(nonce=7)),
        (4, lambda b: b["transactions"][0].update(nonce=True)),
        (2, lambda b: b["transactions"][0].update(nonce=5)),
    ], ids=["faucet-string-args", "faucet-no-args", "number-call", "no-sender",
            "list-sender", "string-transactions", "number-transactions",
            "object-transactions", "no-transactions", "list-hash", "timestamp",
            "never-created-sender", "faucet-as-contract-sender", "nonce-gap", "bool-nonce",
            "faucet-nonce-gap"])
    def test_resealed_forgery_is_chain_corrupt(self, tmp_path, height, edit):
        path = self.forged_chain(tmp_path)
        edit_block(path, height, edit, reseal=True)
        with pytest.raises(ChainCorrupt, match=f"at height {height}"):
            Ledger.open(path, Registry())

    def test_resealed_timestamp_fails_chain_verify(self, tmp_path):
        # the structural check holds the same timestamp rule as a replay
        path = self.forged_chain(tmp_path)
        edit_block(path, 4, lambda b: b.update(timestamp=99), reseal=True)
        report = verify_chain_file(path)
        assert not report.ok and report.first_bad_height == 4
        assert report.reason == "timestamp is not the height"

    @pytest.mark.parametrize("line", [
        b"[]", b"5", b"null", b'"block"', b"{}", b"NaN", b'{"height":"\xff"}',
        b'{"transactions":[{"call":NaN,"nonce":1,"sender":"x"}]}',
        b'{"transactions":[{"call":{},"nonce":1,"sender":"\\ud800"}]}',
    ])
    def test_line_that_is_not_a_block_is_chain_corrupt(self, tmp_path, line):
        path = self.forged_chain(tmp_path)
        lines = path.read_bytes().splitlines()
        lines[2] = line
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ChainCorrupt, match="at height 2"):
            Ledger.open(path, Registry())
        report = verify_chain_file(path)
        assert not report.ok and report.first_bad_height == 2

    @pytest.mark.parametrize("rewrite", [
        lambda line: json.dumps(json.loads(line), sort_keys=True, indent=1)
        .replace("\n", " ").encode(),
        lambda line: line.replace(b'"timestamp":1,', b'"timestamp":1.0,'),
    ], ids=["indent-1", "float-for-integer"])
    def test_same_block_in_other_bytes_is_chain_corrupt(self, tmp_path, rewrite):
        # the stored hash is left as it was: the block's values are unchanged
        path = self.forged_chain(tmp_path)
        lines = path.read_bytes().splitlines()
        lines[1] = rewrite(lines[1])
        assert json.loads(lines[1]) == json.loads(canonical_bytes(json.loads(lines[1])))
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ChainCorrupt, match="at height 1$"):
            Ledger.open(path, Registry())
        report = verify_chain_file(path)
        assert not report.ok and report.first_bad_height == 1

    @pytest.mark.parametrize("old, new", [
        (b',"height"', b',\r"height"'),
        (b'"register_model"', b'"register\r_model"'),
    ], ids=["between-tokens", "inside-a-string"])
    def test_bare_carriage_return_fails_at_one_height(self, tmp_path, old, new):
        # only a newline ends a line, in replay and in the structural check
        path = self.forged_chain(tmp_path)
        lines = path.read_bytes().splitlines()
        assert old in lines[4]
        lines[4] = lines[4].replace(old, new, 1)
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ChainCorrupt, match="at height 4"):
            Ledger.open(path, Registry())
        report = verify_chain_file(path)
        assert not report.ok and report.first_bad_height == 4

    def test_line_nested_too_deep_is_chain_corrupt(self, tmp_path):
        path = self.forged_chain(tmp_path)
        lines = path.read_bytes().splitlines()
        lines[2] = b"[" * 100_000 + b"]" * 100_000
        path.write_bytes(b"\n".join(lines) + b"\n")
        with pytest.raises(ChainCorrupt, match="at height 2"):
            Ledger.open(path, Registry())
        report = verify_chain_file(path)
        assert not report.ok and report.first_bad_height == 2

    @pytest.mark.parametrize("height, call, error, refusal", [
        (2, create_account_call(ALICE), "AccountExists", "AccountExists"),
        (2, create_account_call("bogus"), "UnknownCall", "UnknownSender"),
        (4, call_nested(MAX_DEPTH + 1), "InvalidDescriptor", "UnknownCall"),
    ], ids=["failed-creation-of-existing-account", "failed-creation-of-malformed-id",
            "call-nested-too-deep"])
    def test_line_that_the_admission_rule_refuses_is_chain_corrupt(self, tmp_path, height,
                                                                   call, error, refusal):
        # the line records what an older replay made of the call; no writer admits it
        path = self.forged_chain(tmp_path)
        edit_block(path, height, lambda b: b.update(events=[], transactions=[dict(
            b["transactions"][0], call=call, status="failed", error=error)]), reseal=True)
        assert verify_chain_file(path).ok
        with pytest.raises(ChainCorrupt, match=f"^{refusal}: .* at height {height}$"):
            Ledger.open(path, Registry())

    def test_line_where_the_faucet_creates_itself_is_chain_corrupt(self, tmp_path):
        # as the writer before the faucet's refusal wrote it: a successful creation
        from click.testing import CliRunner

        from statetrail.cli import cli

        path = self.forged_chain(tmp_path)
        edit_block(path, 2, lambda b: b["transactions"][0].update(
            call=create_account_call(FAUCET_ACCOUNT)), reseal=True)
        assert verify_chain_file(path).ok
        with pytest.raises(ChainCorrupt, match="^AccountExists: .* at height 2$"):
            Ledger.open(path, Registry())
        result = CliRunner().invoke(cli, ["--dir", str(tmp_path), "chain", "verify"])
        assert result.exit_code == 24
        assert json.loads(result.stdout)["detail"].startswith("AccountExists: ")

    def test_path_that_is_a_directory_is_chain_corrupt(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.mkdir()
        with pytest.raises(ChainCorrupt, match="is a directory"):
            Ledger.open(path, Registry())
        # nothing is written, neither inside the directory nor a checkpoint beside it
        assert list(tmp_path.rglob("*")) == [path]

    def test_missing_directories_are_created(self, tmp_path):
        path = tmp_path / "a" / "b" / "ledger.jsonl"
        Ledger.open(path, Registry()).create_account(ALICE)
        assert Ledger.open(path, Registry()).height == 1
        assert verify_chain_file(path).ok

    @pytest.mark.parametrize("under", ["F", "F/sub"])
    def test_directory_under_a_regular_file_is_chain_corrupt(self, tmp_path, under):
        (tmp_path / "F").write_bytes(b"")
        with pytest.raises(ChainCorrupt, match="no directory for the ledger file"):
            Ledger.open(tmp_path / under / "ledger.jsonl", Registry())
        assert list(tmp_path.rglob("*")) == [tmp_path / "F"]

    def test_empty_file_gets_a_genesis_block(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.touch()
        ledger = Ledger.open(path, EchoContract())
        ledger.create_account(ALICE)
        assert len(Ledger.open(path, EchoContract()).blocks) == 2
        assert verify_chain_file(path).ok


HASHES = st.sampled_from(["0x" + c * 64 for c in "123"])
DESCRIPTORS = st.builds(Descriptor, st.sampled_from(["d", ""]),
                        st.text(max_size=4) | st.sampled_from(list(UNENCODABLE.values())))
SUBMISSIONS = st.tuples(
    st.sampled_from([ALICE, BOB]) | st.sampled_from(["0x" + "9" * 40, "bogus", None, 5, [ALICE]]),
    st.one_of(
        st.builds(call_register_model, HASHES, DESCRIPTORS),
        st.builds(call_register_instance, HASHES, HASHES, DESCRIPTORS, HASHES),
        st.builds(call_register_transition, HASHES, HASHES, HASHES),
        st.builds(call_terminate_instance, HASHES),
        st.builds(call_delegate_access, HASHES, st.sampled_from([ALICE, BOB])),
    ),
    # an integer is an offset from the sender's next nonce
    st.integers(-1, 1) | st.sampled_from([True, 1.0, "1", None]),
) | st.tuples(st.just(FAUCET_ACCOUNT),
              st.builds(create_account_call,
                        st.sampled_from([CARA, ALICE, "bogus", *UNENCODABLE.values()])),
              st.just(0)) | st.tuples(st.sampled_from([ALICE, BOB]),
                                      st.builds(call_nested, st.sampled_from(DEPTHS)),
                                      st.integers(0, 1))


@settings(max_examples=60, deadline=None)
@given(st.lists(SUBMISSIONS, min_size=1, max_size=12))
def test_whatever_submit_accepts_replay_accepts(submissions):
    """A refused submission changes nothing; a replay accepts every accepted one."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "ledger.jsonl"
        registry = Registry()
        ledger = Ledger(registry, path=path)
        for account in (ALICE, BOB):
            ledger.create_account(account)

        def state(sender):
            senders = [s for s in (ALICE, BOB, CARA, FAUCET_ACCOUNT, sender) if isinstance(s, str)]
            return (ledger.height, path.read_bytes(), [ledger.next_nonce(s) for s in senders],
                    canonical_bytes(registry.snapshot()))

        for sender, call, nonce in submissions:
            if type(nonce) is int:
                nonce += ledger.next_nonce(sender) if isinstance(sender, str) else 1
            before = state(sender)
            try:
                receipt = ledger.submit(LedgerTransaction(sender, call, nonce))
            except TrailError:
                assert state(sender) == before  # refused: nothing changed
                continue
            data = path.read_bytes()
            assert receipt.height == ledger.height == before[0] + 1
            assert data.startswith(before[1]) and data.count(b"\n") == before[1].count(b"\n") + 1
        replayed = Registry()
        reopened = Ledger.open(path, replayed)
        assert canonical_bytes(replayed.snapshot()) == canonical_bytes(registry.snapshot())
        assert reopened.events_since(ZERO_CURSOR) == ledger.events_since(ZERO_CURSOR)
