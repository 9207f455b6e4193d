"""A standing sweep of hostile ledger and checkpoint files under the read commands.

The base is the workdir of `demo multiparty --steps 5`. One JSON node of
one block is replaced by a value of another type, with every hash and
link after it recomputed, or one node of the checkpoint body is, under a
matching digest. Whatever the edit, every read command ends in success
or a named error, prints sorted-key JSON lines, and prints the same bytes
when run again. A forged checkpoint with matching digests is trusted by
design, so the sweep asserts a named exit, not a rejection.
"""

import json
import shutil
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from statetrail.cli import cli
from statetrail.demo import multiparty
from statetrail.errors import EXIT_CODES, ChainCorrupt
from statetrail.hashing import canonical_bytes, content_hash, digest
from statetrail.ledger import LEDGER_FILE, Ledger, checkpoint_path, verify_chain_file
from statetrail.registry import Registry

VALUES = [None, 1.5, -1, 0, 2**70, True, "", "x", "0x" + "0" * 64, [], [[[[]]]], {},
          {"a": 1}]
EXITS = {0, 2, *EXIT_CODES.values()}


@pytest.fixture(scope="module")
def base(tmp_path_factory):
    workdir = tmp_path_factory.mktemp("hostile") / "demo"
    summary = multiparty(parties=3, steps=5, seed=7, workdir=workdir)
    assert checkpoint_path(workdir / LEDGER_FILE).is_file()
    return workdir, summary["instances"]


def nodes(value, path=()):
    """The path of every node of a JSON value, the root included."""
    yield path
    items = value.items() if isinstance(value, dict) else enumerate(value) \
        if isinstance(value, list) else ()
    for key, child in items:
        yield from nodes(child, (*path, key))


def replaced(value, path, new):
    if not path:
        return new
    *parents, last = path
    for key in parents:
        value = value[key]
    value[last] = new
    return None


def edit_at(value, pick, new):
    """`value` with the node numbered `pick` (modulo their count) replaced by `new`."""
    paths = list(nodes(value))
    root = replaced(value, paths[pick % len(paths)], new)
    return value if root is None else root


def sorted_object(pairs):
    keys = [k for k, _ in pairs]
    assert keys == sorted(keys), keys
    return dict(pairs)


def read_commands(instances):
    commands = [["track"]]
    for instance in instances:
        commands += [["protocol", "verify", instance], ["protocol", "export", instance]]
    return commands + [["chain", "verify"]]


def run_read_commands(workdir, instances):
    runner = CliRunner()
    for command in read_commands(instances):
        outputs = []
        for _ in range(2):
            result = runner.invoke(cli, ["--dir", str(workdir), *command])
            assert result.exit_code in EXITS, (command, result.exception, result.output)
            assert result.exception is None or isinstance(result.exception, SystemExit)
            for line in result.stdout_bytes.splitlines():
                assert isinstance(json.loads(line, object_pairs_hook=sorted_object), dict)
            outputs.append(result.stdout_bytes)
        assert outputs[0] == outputs[1], command


def copy_of(workdir, into):
    target = Path(into) / "wd"
    shutil.copytree(workdir, target)
    return target


@settings(max_examples=25, deadline=None)
@given(block=st.integers(0, 10**6), pick=st.integers(0, 10**6), new=st.sampled_from(VALUES),
       keep_checkpoint=st.booleans())
def test_resealed_ledger_edit(base, block, pick, new, keep_checkpoint):
    workdir, instances = base
    with tempfile.TemporaryDirectory() as tmp:
        wd = copy_of(workdir, tmp)
        path = wd / LEDGER_FILE
        blocks = [json.loads(line) for line in path.read_bytes().splitlines()]
        height = block % len(blocks)
        blocks[height] = edit_at(blocks[height], pick, new)
        prev = blocks[height - 1]["block_hash"] if height else None
        for later in blocks[height:]:
            if not isinstance(later, dict):
                break
            if prev is not None:
                later["prev_hash"] = prev
            later["block_hash"] = prev = content_hash(
                {k: v for k, v in later.items() if k != "block_hash"})
        path.write_bytes(b"".join(canonical_bytes(b) + b"\n" for b in blocks))
        if not keep_checkpoint:
            checkpoint_path(path).unlink()

        # a full re-execution that succeeds implies the structural check
        replayed = Path(tmp) / LEDGER_FILE  # beside the workdir, with no checkpoint
        shutil.copyfile(path, replayed)
        try:
            ledger = Ledger.open(replayed, Registry())
        except ChainCorrupt:
            pass
        else:
            report = verify_chain_file(replayed)
            assert report.ok and report.blocks_checked == ledger.height + 1

        run_read_commands(wd, instances)


@settings(max_examples=25, deadline=None)
@given(pick=st.integers(0, 10**6), new=st.sampled_from(VALUES))
def test_checkpoint_body_edit_under_a_matching_digest(base, pick, new):
    workdir, instances = base
    with tempfile.TemporaryDirectory() as tmp:
        wd = copy_of(workdir, tmp)
        checkpoint = checkpoint_path(wd / LEDGER_FILE)
        body = edit_at(json.loads(checkpoint.read_bytes())["body"], pick, new)
        body_bytes = canonical_bytes(body)
        checkpoint.write_bytes(b'{"body":' + body_bytes + b',"digest":'
                               + canonical_bytes(digest(body_bytes)) + b"}")
        run_read_commands(wd, instances)
