"""A standing sweep of hostile ledger and checkpoint files under the read commands.

The base is the workdir of `demo multiparty --steps 5`. One JSON node of
one block is replaced by a value of another type, with every hash and
link after it recomputed, or one node of the checkpoint body is, under a
matching digest. Whatever the edit, every read command ends in success
or a named error, prints sorted-key JSON lines, and prints the same bytes
when run again. A forged checkpoint with matching digests is trusted by
design, so the sweep asserts a named exit, not a rejection.

The sweep also reaches the documents a party reads from the store and its
account file. A state document, creation record or model document is
replaced by hostile bytes stored under their own hash, with every mention
of the old hash in the ledger rewritten and resealed, so that replay
accepts the file and the readers meet the bytes. The same bytes are
written to the account file. `instance step`, which writes, runs on a
fresh copy of the workdir each time.

Last, a FIFO stands in for a stored state, the checkpoint or the ledger
file. Opening or reading one would wait for a writer forever, so each
command runs in a fresh interpreter under a timeout, and must end in its
status or error name.
"""

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import given, settings, strategies as st

from statetrail.cli import cli
from statetrail.demo import derive_account, multiparty
from statetrail.errors import EXIT_CODES, ChainCorrupt
from statetrail.hashing import MAX_DEPTH, canonical_bytes, content_hash, digest
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


def variants(original):
    """Hostile stand-ins for the JSON object `original`: other shapes, other encodings,
    and the object with an extra key that makes it nest MAX_DEPTH - 1, MAX_DEPTH,
    MAX_DEPTH + 1 or 1000 deep."""
    text = original.decode("utf-8")
    return [
        *(canonical_bytes(v) for v in VALUES),
        b"\xef\xbb\xbf" + original,
        text.encode("utf-16"),
        text.encode("utf-16-le"),
        text.encode("utf-32"),
        *(original[:-1] + b',"~":' + b"[" * (d - 1) + b"]" * (d - 1) + b"}"
          for d in (MAX_DEPTH - 1, MAX_DEPTH, MAX_DEPTH + 1, 1000)),
    ]


VARIANTS = len(variants(b"{}"))
OWNER = derive_account(7, 0)  # the demo's first party, which owns the model and instance 0
ACCOUNT_FILE = canonical_bytes({"account": OWNER}) + b"\n"


def latest_state(workdir, instance):
    """The post state of the last transition event of `instance`, as the ledger holds it."""
    latest = None
    for line in (workdir / LEDGER_FILE).read_bytes().splitlines():
        for event in json.loads(line)["events"]:
            if event["payload"].get("instance_hash") == instance:
                latest = event["payload"].get("post_state", latest)
    return latest


def registered_model(workdir):
    """The hash of the model that the demo registers at height 4."""
    line = (workdir / LEDGER_FILE).read_bytes().splitlines()[4]
    return json.loads(line)["transactions"][0]["call"]["args"]["model_hash"]


def rehashed(workdir, old, content):
    """Store `content` under its own hash and put that hash everywhere the ledger says `old`."""
    new = digest(content)
    (workdir / "store" / new).write_bytes(content)
    path = workdir / LEDGER_FILE
    blocks = [json.loads(line.replace(old.encode(), new.encode()))
              for line in path.read_bytes().splitlines()]
    prev = None
    for block in blocks:
        if prev is not None:
            block["prev_hash"] = prev
        block["block_hash"] = prev = content_hash(
            {k: v for k, v in block.items() if k != "block_hash"})
    path.write_bytes(b"".join(canonical_bytes(b) + b"\n" for b in blocks))
    checkpoint_path(path).unlink(missing_ok=True)
    return new


def run_step(workdir, tmp, instance, account_file=ACCOUNT_FILE):
    """`instance step` on a fresh copy of `workdir`, with `account_file` as its account file."""
    wd = copy_of(workdir, Path(tempfile.mkdtemp(dir=tmp)))
    (wd / "account.json").write_bytes(account_file)
    result = CliRunner().invoke(cli, ["--dir", str(wd), "instance", "step", instance, "t_load"])
    assert result.exit_code in EXITS, (result.exception, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit)
    for line in result.stdout_bytes.splitlines():
        assert isinstance(json.loads(line, object_pairs_hook=sorted_object), dict)


@settings(max_examples=20, deadline=None)
@given(target=st.sampled_from(["state", "record", "model"]), which=st.integers(0, 1),
       variant=st.integers(0, VARIANTS - 1))
def test_store_document_replaced_under_its_own_hash(base, target, which, variant):
    workdir, instances = base
    with tempfile.TemporaryDirectory() as tmp:
        wd = copy_of(workdir, tmp)
        instance = instances[which]
        old = {"state": latest_state(wd, instance), "record": instance,
               "model": registered_model(wd)}[target]
        new = rehashed(wd, old, variants((wd / "store" / old).read_bytes())[variant])
        Ledger.open(wd / LEDGER_FILE, Registry())  # the readers, not replay, meet the bytes
        if target == "record":
            instances = [new if h == old else h for h in instances]
            instance = new
        run_read_commands(wd, instances)
        run_step(wd, tmp, instance)


@settings(max_examples=15, deadline=None)
@given(variant=st.integers(0, VARIANTS - 1), which=st.integers(0, 1))
def test_account_file_replaced(base, variant, which):
    workdir, instances = base
    with tempfile.TemporaryDirectory() as tmp:
        run_step(workdir, tmp, instances[which], variants(ACCOUNT_FILE.rstrip())[variant])


FIFO_READS = [["track"], ["protocol", "verify"], ["instance", "step"], ["chain", "verify"]]
# where the FIFO stands, and what each of FIFO_READS ends in, in turn
FIFO_OUTCOMES = {
    "store": ["ok", "VerificationFailed", "MissingContent", "ok"],
    "checkpoint": ["ok", "ok", "InstanceTerminated", "ok"],
    "ledger": ["ChainCorrupt"] * 4,
}


@pytest.mark.parametrize("where", FIFO_OUTCOMES)
def test_fifo_in_the_workdir_is_refused_not_waited_on(base, tmp_path, where):
    workdir, instances = base
    wd = copy_of(workdir, tmp_path)
    instance = instances[0]
    path = {"store": wd / "store" / latest_state(wd, instance),
            "checkpoint": checkpoint_path(wd / LEDGER_FILE), "ledger": wd / LEDGER_FILE}[where]
    arguments = {"protocol verify": [instance], "instance step": [instance, "t_more"]}
    for command, outcome in zip(FIFO_READS, FIFO_OUTCOMES[where]):
        path.unlink()  # a full replay rewrites the checkpoint
        os.mkfifo(path)
        result = subprocess.run(
            [sys.executable, "-m", "statetrail.cli", "--dir", str(wd), "--account", OWNER,
             *command, *arguments.get(" ".join(command), [])],
            capture_output=True, timeout=60)
        assert b"Traceback" not in result.stderr, result.stderr
        assert result.returncode == EXIT_CODES.get(outcome, 0), (command, result.stdout)
        lines = [json.loads(line) for line in result.stdout.splitlines()]
        if outcome != "ok":
            assert lines[-1]["error"] == outcome
        if outcome == "VerificationFailed":
            assert "unverified" in {line.get("status") for line in lines}
        if where == "checkpoint" and command != ["chain", "verify"]:  # which deletes it first
            reason = json.loads(result.stderr)["reason"]
            assert reason == "unreadable checkpoint: not a regular file"
