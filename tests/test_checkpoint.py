"""Ledger checkpoints: restore, tail replay, every fallback, the trust boundary."""

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import settings, strategies as st
from hypothesis.stateful import RuleBasedStateMachine, precondition, rule

from statetrail.cli import cli
from statetrail.errors import ChainCorrupt
from statetrail.hashing import FAUCET_ACCOUNT, canonical_bytes, content_hash, digest
from statetrail.ledger import (_CHECKPOINT_TAIL, ZERO_CURSOR, Ledger, checkpoint_path,
                               create_account_call)
from statetrail.registry import (
    Descriptor,
    Registry,
    call_delegate_access,
    call_register_instance,
    call_register_model,
    call_register_transition,
)

from conftest import ALICE, BOB, CARA, make_world, raw_submit


class CountingRegistry(Registry):
    def __init__(self):
        super().__init__()
        self.applied = 0

    def apply(self, sender, call, timestamp):
        self.applied += 1
        return super().apply(sender, call, timestamp)


def h(label) -> str:
    return content_hash({"label": label})


def grow(ledger, start, count):
    """`count` registry calls from ALICE, numbered from `start`: models, an instance, steps."""
    for i in range(start, start + count):
        if i == 0:
            call = call_register_model(h("m"), Descriptor("m", "model m"))
        elif i == 1:
            call = call_register_instance(h("i"), h("m"), Descriptor("i", "run"), h(0))
        elif i == 2:
            call = call_delegate_access(h("m"), BOB)
        else:
            call = call_register_transition(h("i"), h(i - 3), h(i - 2))
        assert raw_submit(ledger, ALICE, call).ok


def chain(tmp_path, calls=6):
    """A fresh ledger file of 3 account blocks plus `calls` registry blocks."""
    path = tmp_path / "ledger.jsonl"
    grow(make_world(path=path).ledger, 0, calls)
    return path


def state(ledger, registry):
    return (canonical_bytes(registry.snapshot()), ledger.events_since(ZERO_CURSOR),
            [b.block_hash for b in ledger.blocks], ledger.known_accounts(),
            [ledger.next_nonce(a) for a in (ALICE, BOB, CARA, "0x" + "0" * 40)])


def full_replay(path, tmp_path):
    """The state a replay from genesis gives, from a copy without a checkpoint."""
    copy = tmp_path / "full-replay"
    copy.mkdir(exist_ok=True)
    shutil.copyfile(path, copy / path.name)
    registry = Registry()
    ledger = Ledger.open(copy / path.name, registry)
    checkpoint_path(copy / path.name).unlink(missing_ok=True)
    return state(ledger, registry)


def open_state(path):
    registry = Registry()
    return state(Ledger.open(path, registry), registry)


def fallback_lines(capsys) -> list:
    return [json.loads(line) for line in capsys.readouterr().err.splitlines()]


def seal(body: dict) -> bytes:
    body_bytes = canonical_bytes(body)
    return canonical_bytes({"body": json.loads(body_bytes), "digest": digest(body_bytes)})


def body_of(path) -> dict:
    return json.loads(checkpoint_path(path).read_bytes())["body"]


def chain_edit(edit):
    """An edit of the one transition chain in a body, [initial, post_1, ..., post_k]."""
    return lambda body: edit(next(iter(body["registry"]["transitions"].values())))


class TestRestore:
    def test_fresh_ledger_writes_no_checkpoint(self, tmp_path):
        path = chain(tmp_path)
        assert not checkpoint_path(path).exists()

    def test_first_open_is_silent_and_writes_the_checkpoint(self, tmp_path, capsys):
        path = chain(tmp_path)
        Ledger.open(path, Registry())
        assert capsys.readouterr().err == ""
        data = checkpoint_path(path).read_bytes()
        checkpoint = json.loads(data)
        assert data == canonical_bytes(checkpoint)
        assert checkpoint["digest"] == digest(canonical_bytes(checkpoint["body"]))
        assert checkpoint["body"]["height"] == 9
        assert checkpoint["body"]["end"] == path.stat().st_size

    def test_reopen_re_executes_exactly_the_tail(self, tmp_path):
        # a short tail is re-executed on every open and leaves the checkpoint
        # as it is; a tail of _CHECKPOINT_TAIL blocks is re-executed once
        path = chain(tmp_path, calls=6)
        first = CountingRegistry()
        Ledger.open(path, first)
        assert first.applied == 6
        written = checkpoint_path(path).read_bytes()
        grow(Ledger.open(path, Registry()), 6, 4)
        for _ in range(2):
            again = CountingRegistry()
            ledger = Ledger.open(path, again)
            assert again.applied == 4
            assert checkpoint_path(path).read_bytes() == written
            assert state(ledger, again) == full_replay(path, tmp_path)
        grow(ledger, 10, _CHECKPOINT_TAIL - 4)
        long_tail = CountingRegistry()
        ledger = Ledger.open(path, long_tail)
        assert long_tail.applied == _CHECKPOINT_TAIL
        assert body_of(path)["end"] == path.stat().st_size
        head = CountingRegistry()
        Ledger.open(path, head)
        assert head.applied == 0
        assert state(ledger, long_tail) == full_replay(path, tmp_path)

    def test_tail_cut_above_the_anchor_restores(self, tmp_path, capsys):
        path = chain(tmp_path)
        Ledger.open(path, Registry())
        grow(Ledger.open(path, Registry()), 6, 4)
        Ledger.open(path, Registry())  # re-executes a short tail: the anchor stays
        lines = path.read_bytes().splitlines(keepends=True)
        path.write_bytes(b"".join(lines[:-2]))
        counting = CountingRegistry()
        ledger = Ledger.open(path, counting)
        assert capsys.readouterr().err == ""
        assert ledger._prefix is not None and counting.applied == 2
        assert state(ledger, counting) == full_replay(path, tmp_path)

    def test_restored_ledger_appends_without_reading_the_prefix(self, tmp_path):
        path = chain(tmp_path)
        Ledger.open(path, Registry())
        ledger = Ledger.open(path, Registry())
        grow(ledger, 6, 2)
        assert ledger._prefix is not None
        assert ledger.height == 11
        assert open_state(path) == full_replay(path, tmp_path)

    def test_restored_state_equals_a_full_replay(self, tmp_path):
        path = chain(tmp_path)
        Ledger.open(path, Registry())
        assert open_state(path) == full_replay(path, tmp_path)

    def test_prefix_blocks_read_before_events(self, tmp_path):
        path = chain(tmp_path)
        Ledger.open(path, Registry())
        ledger = Ledger.open(path, Registry())
        checkpoint_path(path).unlink()
        replayed = Ledger.open(path, Registry())
        assert ledger._prefix is not None and replayed._prefix is None
        assert ledger.blocks == replayed.blocks
        assert ledger.events_since(ZERO_CURSOR) == replayed.events_since(ZERO_CURSOR)
        assert ledger.events_since(ZERO_CURSOR) == [e for b in ledger.blocks for e in b.events]

    def test_restored_events_equal_a_full_replay(self, tmp_path):
        # account blocks and a failed call emit no events; the events-only
        # parse must still give each event its block's height as timestamp
        path = chain(tmp_path)
        ledger = Ledger.open(path, Registry())
        assert not raw_submit(ledger, ALICE, call_register_model(h("m"), Descriptor("m", "m"))).ok
        grow(ledger, 6, 2)
        Ledger.open(path, Registry())  # anchors the checkpoint at the last block
        restored = Ledger.open(path, Registry())
        events = restored.events_since(ZERO_CURSOR)
        assert restored._unread == {"blocks"}
        checkpoint_path(path).unlink()
        assert events == Ledger.open(path, Registry()).events_since(ZERO_CURSOR)
        assert sorted({e.height for e in events}) == [5, 7, 8, 9, 11, 12]
        assert all(e.timestamp == e.height for e in events)

    def test_prefix_changed_after_open_is_chain_corrupt(self, tmp_path):
        path = chain(tmp_path)
        Ledger.open(path, Registry())
        ledger = Ledger.open(path, Registry())
        data = bytearray(path.read_bytes())
        data[data.index(b"register_model")] ^= 0x02
        path.write_bytes(bytes(data))
        with pytest.raises(ChainCorrupt, match="changed"):
            ledger.events_since(ZERO_CURSOR)

    def test_contract_without_snapshots_is_not_checkpointed(self, tmp_path):
        from test_ledger import EchoContract, echo_ledger, tx

        path = tmp_path / "ledger.jsonl"
        echo_ledger(path=path).submit(tx(ALICE, 1))
        Ledger.open(path, EchoContract())
        assert not checkpoint_path(path).exists()

    @pytest.mark.parametrize("broken", ["tempfile.mkstemp", "os.replace"])
    def test_failed_write_does_not_fail_open(self, tmp_path, monkeypatch, broken):
        def refuse(*args, **kwargs):
            raise PermissionError(13, "read-only directory")

        path = chain(tmp_path)
        monkeypatch.setattr(broken, refuse)
        assert open_state(path) == full_replay(path, tmp_path)
        assert not checkpoint_path(path).exists()
        assert not list(tmp_path.glob("ledger.jsonl.checkpoint*"))


class TestFallback:
    """Each bad checkpoint falls back with one stderr line to a full replay."""

    @staticmethod
    def check(path, tmp_path, capsys, reason):
        got = open_state(path)
        lines = fallback_lines(capsys)
        assert len(lines) == 1 and lines[0]["reason"].startswith(reason), lines
        assert got == full_replay(path, tmp_path)

    def test_truncated_at_every_byte(self, tmp_path, capsys):
        path = chain(tmp_path, calls=1)
        Ledger.open(path, Registry())
        data = checkpoint_path(path).read_bytes()
        expected = full_replay(path, tmp_path)
        capsys.readouterr()
        for cut in range(len(data)):
            checkpoint_path(path).write_bytes(data[:cut])
            assert open_state(path) == expected
            assert len(capsys.readouterr().err.splitlines()) == 1, cut

    @pytest.mark.parametrize("field", ["accounts", "block_hash", "end", "height", "nonces",
                                       "prefix_sha256", "registry", "start"])
    def test_flipped_byte_in_each_body_field(self, tmp_path, capsys, field):
        path = chain(tmp_path)
        Ledger.open(path, Registry())
        data = bytearray(checkpoint_path(path).read_bytes())
        at = data.index(b'"%s":' % field.encode()) + len(field) + 4
        data[at] ^= 0x01
        checkpoint_path(path).write_bytes(bytes(data))
        self.check(path, tmp_path, capsys, "checkpoint digest mismatch")

    def test_bad_digest(self, tmp_path, capsys):
        path = chain(tmp_path)
        Ledger.open(path, Registry())
        data = checkpoint_path(path).read_bytes()
        checkpoint_path(path).write_bytes(data[:-3] + b'0"}' if data[-3:-2] != b"0"
                                          else data[:-3] + b'1"}')
        self.check(path, tmp_path, capsys, "checkpoint digest mismatch")

    @pytest.mark.parametrize("edit, reason", [
        (lambda b: b.update(height=b["height"] - 1), "anchor line mismatch"),
        (lambda b: b.update(block_hash=h("x")), "anchor line mismatch"),
        (lambda b: b.update(start=b["start"] + 1), "anchor line mismatch"),
        (lambda b: b.update(end=b["end"] - 1), "ledger prefix digest mismatch"),
        (lambda b: b.update(prefix_sha256="0" * 64), "ledger prefix digest mismatch"),
        (lambda b: b.update(end=b["end"] + 10**6), "anchor past the end"),
        (lambda b: b.update(height="9"), "ill-typed checkpoint body"),
        (lambda b: b.update(start=b["end"]), "ill-typed checkpoint body"),
        (lambda b: b.update(extra=1), "ill-typed checkpoint body"),
        (lambda b: b["nonces"].update({ALICE: True}), "ill-typed checkpoint body"),
        (lambda b: b["registry"].pop("models"), "ill-typed registry snapshot"),
        (lambda b: b["registry"]["transitions"].clear(), "ill-typed registry snapshot"),
        (lambda b: next(iter(b["registry"]["instances"].values())).update(status="gone"),
         "ill-typed registry snapshot"),
        (chain_edit(lambda c: c.__delitem__(slice(1, None))), "ill-typed registry snapshot"),
        (chain_edit(lambda c: c.__setitem__(1, 1)), "ill-typed registry snapshot"),
        (chain_edit(lambda c: c.__setitem__(-1, h("x"))), "ill-typed registry snapshot"),
        (chain_edit(lambda c: c.pop(1)), "ill-typed registry snapshot"),
    ], ids=["height", "block-hash", "start", "end", "prefix", "past-eof", "string-height",
            "empty-line", "extra-key", "bool-nonce", "no-models", "no-transitions",
            "status", "chain-of-one", "chain-non-string", "chain-to-another-latest",
            "chain-shorter-than-count"])
    def test_resealed_body_that_fails_a_check(self, tmp_path, capsys, edit, reason):
        path = chain(tmp_path)
        Ledger.open(path, Registry())
        body = body_of(path)
        edit(body)
        checkpoint_path(path).write_bytes(seal(body))
        self.check(path, tmp_path, capsys, reason)

    def test_body_nested_too_deep(self, tmp_path, capsys):
        path = chain(tmp_path)
        Ledger.open(path, Registry())
        body = b"[" * 100_000 + b"]" * 100_000
        checkpoint_path(path).write_bytes(
            b'{"body":' + body + b',"digest":' + canonical_bytes(digest(body)) + b"}")
        self.check(path, tmp_path, capsys, "checkpoint body is not JSON")

    @pytest.mark.parametrize("edit", [
        lambda b: b.pop("format"),
        lambda b: b.update(format=b["format"] + 1),
        lambda b: b.update(format=str(b["format"])),
    ], ids=["no-format", "next-format", "string-format"])
    def test_body_of_another_format(self, tmp_path, capsys, edit):
        path = chain(tmp_path)
        Ledger.open(path, Registry())
        body = body_of(path)
        edit(body)
        checkpoint_path(path).write_bytes(seal(body))
        self.check(path, tmp_path, capsys, "checkpoint of another format")

    def test_format_1_falls_back_once_then_restores(self, tmp_path, capsys):
        # format 1 held one {pre_state, post_state, seq} object per transition
        path = chain(tmp_path)
        Ledger.open(path, Registry())
        body = body_of(path)
        body["format"] = 1
        body["registry"]["transitions"] = {
            ih: [{"post_state": post, "pre_state": pre, "seq": seq}
                 for seq, (pre, post) in enumerate(zip(c, c[1:]), 1)]
            for ih, c in body["registry"]["transitions"].items()}
        checkpoint_path(path).write_bytes(seal(body))
        self.check(path, tmp_path, capsys, "checkpoint of another format")
        assert body_of(path)["format"] == 2
        registry = Registry()
        ledger = Ledger.open(path, registry)
        assert capsys.readouterr().err == "" and ledger._prefix is not None
        assert (canonical_bytes(registry.snapshot()), ledger.events_since(ZERO_CURSOR)) == \
            full_replay(path, tmp_path)[:2]

    def test_anchor_past_eof_after_tail_truncation(self, tmp_path, capsys):
        # append enough for a reopen to move the anchor, then cut the file back
        path = chain(tmp_path)
        size = path.stat().st_size
        grow(Ledger.open(path, Registry()), 6, _CHECKPOINT_TAIL)
        Ledger.open(path, Registry())
        with path.open("r+b") as fh:
            fh.truncate(size)
        capsys.readouterr()
        self.check(path, tmp_path, capsys, "anchor past the end")

    def test_edited_prefix_byte_is_the_same_chain_corrupt(self, tmp_path, capsys):
        path = chain(tmp_path)
        Ledger.open(path, Registry())
        data = bytearray(path.read_bytes())
        data[data.index(b"register_model")] ^= 0x02
        path.write_bytes(bytes(data))
        with pytest.raises(ChainCorrupt) as restored:
            Ledger.open(path, Registry())
        lines = fallback_lines(capsys)
        assert len(lines) == 1 and lines[0]["reason"] == "ledger prefix digest mismatch"
        checkpoint_path(path).unlink()
        with pytest.raises(ChainCorrupt) as replayed:
            Ledger.open(path, Registry())
        assert str(restored.value) == str(replayed.value)

    def test_ledger_deleted_and_recreated(self, tmp_path, capsys):
        path = chain(tmp_path, calls=6)
        Ledger.open(path, Registry())
        path.unlink()
        world = make_world(path=path, accounts=(BOB, ALICE))
        grow(world.ledger, 0, 8)
        assert capsys.readouterr().err == ""
        self.check(path, tmp_path, capsys, "ledger prefix digest mismatch")

    def test_checkpoint_that_is_a_directory(self, tmp_path, capsys):
        path = chain(tmp_path)
        checkpoint_path(path).mkdir()
        got = open_state(path)
        lines = fallback_lines(capsys)
        assert len(lines) == 1 and lines[0]["reason"].startswith("unreadable checkpoint")
        assert got == full_replay(path, tmp_path)


class TestTrustBoundary:
    def test_chain_verify_replaces_a_forged_checkpoint(self, tmp_path):
        path = chain(tmp_path)
        Ledger.open(path, Registry())
        body = body_of(path)
        body["registry"]["instances"][h("i")]["owner"] = CARA
        checkpoint_path(path).write_bytes(seal(body))
        forged = Registry()
        Ledger.open(path, forged)
        assert forged.get_owner(h("i")) == CARA  # digests match: trusted
        result = CliRunner().invoke(cli, ["--dir", str(tmp_path), "chain", "verify"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["ok"] is True
        restored = Registry()
        Ledger.open(path, restored)
        assert restored.get_owner(h("i")) == ALICE
        assert open_state(path) == full_replay(path, tmp_path)

    def test_chain_verify_re_executes_a_resealed_forgery(self, tmp_path):
        # a forger who reseals a block, and a checkpoint over the forged
        # file, is trusted by open and caught by `chain verify`
        import hashlib

        from test_ledger import edit_block

        path = chain(tmp_path)
        Ledger.open(path, Registry())
        body = body_of(path)
        edit_block(path, 5, lambda b: b["transactions"][0].update(nonce=9), reseal=True)
        data = path.read_bytes()
        body["prefix_sha256"] = hashlib.sha256(data[:body["end"]]).hexdigest()
        body["block_hash"] = json.loads(data.splitlines()[-1])["block_hash"]
        checkpoint_path(path).write_bytes(seal(body))
        Ledger.open(path, Registry())
        result = CliRunner().invoke(cli, ["--dir", str(tmp_path), "chain", "verify"])
        assert result.exit_code == 24
        assert json.loads(result.output)["error"] == "ChainCorrupt"
        assert "nonce 9" in json.loads(result.output)["detail"]
        # the forged checkpoint is gone, so the forgery stays rejected
        assert not checkpoint_path(path).exists()
        with pytest.raises(ChainCorrupt, match="nonce 9"):
            Ledger.open(path, Registry())

    @pytest.mark.parametrize("rewrite", [
        lambda block: json.dumps(block, sort_keys=True).encode(),
        lambda block: canonical_bytes(dict(block, events=[dict(block["events"][0], payload=[])])),
    ], ids=["spaced", "list-payload"])
    def test_resealed_prefix_line_that_is_no_block_line_is_chain_corrupt(self, tmp_path,
                                                                          rewrite):
        # open trusts the resealed checkpoint; the events-only parse refuses the line
        import hashlib

        path = chain(tmp_path)
        Ledger.open(path, Registry())
        body = body_of(path)
        lines = path.read_bytes().splitlines(keepends=True)
        lines[5] = rewrite(json.loads(lines[5])) + b"\n"
        data = b"".join(lines)
        path.write_bytes(data)
        body.update(start=len(data) - len(lines[-1]), end=len(data),
                    prefix_sha256=hashlib.sha256(data).hexdigest())
        checkpoint_path(path).write_bytes(seal(body))
        result = CliRunner().invoke(cli, ["--dir", str(tmp_path), "track"])
        assert result.exit_code == 24, result.output
        assert json.loads(result.stdout)["error"] == "ChainCorrupt"
        assert "height 5" in json.loads(result.stdout)["detail"]
        assert "fallback" not in result.stderr

    def test_checkpoint_without_format_over_a_now_refused_line_is_not_restored(
            self, tmp_path, capsys):
        # as the code before the format key wrote it, over a faucet self-creation
        # that the admission rule admitted then and refuses now
        import hashlib

        from test_ledger import edit_block

        path = chain(tmp_path)
        Ledger.open(path, Registry())
        body = body_of(path)
        body.pop("format", None)
        edit_block(path, 2, lambda b: b["transactions"][0].update(
            call=create_account_call(FAUCET_ACCOUNT)), reseal=True)
        data = path.read_bytes()
        body["accounts"] = sorted({ALICE, CARA, FAUCET_ACCOUNT})
        body["prefix_sha256"] = hashlib.sha256(data[:body["end"]]).hexdigest()
        body["block_hash"] = json.loads(data.splitlines()[-1])["block_hash"]
        checkpoint_path(path).write_bytes(seal(body))
        with pytest.raises(ChainCorrupt, match="^AccountExists: .* at height 2$"):
            Ledger.open(path, Registry())
        lines = fallback_lines(capsys)
        assert len(lines) == 1 and lines[0]["reason"] == "checkpoint of another format"

    def test_chain_verify_with_a_checkpoint_that_is_a_directory(self, tmp_path):
        # open cannot read it, so it re-executes from genesis
        path = chain(tmp_path)
        checkpoint_path(path).mkdir()
        (checkpoint_path(path) / "x").write_bytes(b"")
        result = CliRunner().invoke(cli, ["--dir", str(tmp_path), "chain", "verify"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.stdout) == {"blocks_checked": 10, "first_bad_height": None,
                                             "ok": True, "reason": None}
        assert checkpoint_path(path).is_dir()

    def test_chain_verify_with_a_checkpoint_it_cannot_remove(self, tmp_path, monkeypatch):
        # a forged checkpoint left in place must not be restored from
        path = chain(tmp_path)
        Ledger.open(path, Registry())
        body = body_of(path)
        body["registry"]["instances"][h("i")]["owner"] = CARA
        checkpoint_path(path).write_bytes(seal(body))

        def refuse(self, missing_ok=False):
            raise PermissionError(13, "Permission denied", str(self))

        monkeypatch.setattr(Path, "unlink", refuse)
        result = CliRunner().invoke(cli, ["--dir", str(tmp_path), "chain", "verify"])
        assert result.exit_code == 24, result.output
        assert json.loads(result.stdout) == {
            "detail": f"cannot remove {checkpoint_path(path)}: Permission denied",
            "error": "ChainCorrupt"}

    def test_chain_verify_on_an_empty_file_writes_nothing(self, tmp_path):
        path = tmp_path / "ledger.jsonl"
        path.write_bytes(b"")
        result = CliRunner().invoke(cli, ["--dir", str(tmp_path), "chain", "verify"])
        assert result.exit_code == 0, result.output
        assert json.loads(result.output)["blocks_checked"] == 0
        assert path.read_bytes() == b""
        assert not checkpoint_path(path).exists()


class LedgerMachine(RuleBasedStateMachine):
    """Appends, reopens and tail truncations; every reopen equals a full replay."""

    def __init__(self):
        super().__init__()
        self.tmp = Path(tempfile.mkdtemp(prefix="statetrail-machine-"))
        self.path = self.tmp / "ledger.jsonl"
        make_world(path=self.path, accounts=(ALICE,))  # genesis and one account
        self.reopen()

    def teardown(self):
        shutil.rmtree(self.tmp)

    def reopen(self):
        registry = Registry()
        self.ledger = Ledger.open(self.path, registry)
        assert state(self.ledger, registry) == full_replay(self.path, self.tmp)

    @rule(count=st.integers(1, 3))
    def append(self, count):
        grow(self.ledger, self.ledger.height - 1, count)  # one registry call per block

    @rule()
    def reopen_rule(self):
        self.reopen()

    @precondition(lambda self: self.ledger.height > 1)
    @rule(cut=st.integers(1, 4))
    def truncate_tail(self, cut):
        lines = self.path.read_bytes().splitlines(keepends=True)
        self.path.write_bytes(b"".join(lines[:max(2, len(lines) - cut)]))
        self.reopen()


LedgerMachine.TestCase.settings = settings(max_examples=20, stateful_step_count=10,
                                           deadline=None)
TestLedgerMachine = LedgerMachine.TestCase
