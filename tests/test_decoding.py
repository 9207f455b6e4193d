"""One decoding rule: every reader reaches one verdict on the same bytes, from any stack.

Each reader meets a JSON input that nests a given depth around its bound:
MAX_DEPTH for a document, MAX_DEPTH + 4 for a ledger line or a checkpoint
body. The reader runs once near the bottom of a fresh thread's stack and
once about `getrecursionlimit() - 150` frames deeper, where the
interpreter's recursion limit used to decide. Both runs must give the
same outcome, and the decoder refuses exactly the inputs nested deeper
than the bound.
"""

import contextlib
import io
import json
import shutil
import sys

import pytest

from statetrail.cli import CliConfig, _sender
from statetrail.engine import (InstanceState, creation_record, parse_creation_record,
                               parse_state_content, state_content)
from statetrail.errors import TrailError
from statetrail.hashing import MAX_DEPTH, canonical_bytes, digest
from statetrail.ledger import Ledger, checkpoint_path, verify_chain_file
from statetrail.model import canonical_serialize, model_hash, parse_model_bytes
from statetrail.registry import Descriptor, Registry, call_register_model

from conftest import ALICE, engine_for, make_world, minimal_model, on_a_fresh_stack

H = "0x" + "1" * 64
LINE_BOUND = MAX_DEPTH + 4  # a line wraps a call in three levels, plus one
# around the bound (as offsets from it), and where recursion limits used to decide
DEPTHS = {"bound-1": -1, "bound": 0, "bound+1": 1, "500": 500, "985": 985, "1200": 1200,
          "100000": 100_000}


def deeper(frames, fn):
    """`fn()`, called about `frames` frames deeper than the caller."""
    return fn() if frames <= 0 else deeper(frames - 1, fn)


def brackets(depth):
    return b"[" * depth + b"]" * depth


def with_extra_key(document, depth):
    """The canonical object `document` with a last key whose value makes it nest `depth` deep."""
    return document[:-1] + b',"~":' + brackets(depth - 1) + b"}"


def chain(workdir):
    """Blocks 1-3 create ALICE, BOB and CARA; block 4 registers a model."""
    path = workdir / "ledger.jsonl"
    world = make_world(path=path)
    engine_for(world, ALICE).submit_call(
        call_register_model(model_hash(minimal_model()), Descriptor("m", "m")))
    return path


def deep_line(workdir, depth):
    """`chain`, with block 4 resealed over a call whose descriptor name makes the line nest
    `depth` deep, recorded as the writer records a call that fails as InvalidDescriptor."""
    path = chain(workdir)
    lines = path.read_bytes().splitlines()
    call = call_register_model(model_hash(minimal_model()), Descriptor("m", "@"))
    content = canonical_bytes({
        "events": [], "height": 4, "prev_hash": json.loads(lines[3])["block_hash"],
        "timestamp": 4, "transactions": [{"call": call, "error": "InvalidDescriptor",
                                          "nonce": 1, "sender": ALICE, "status": "failed"}],
    }).replace(b'"name":"@"', b'"name":' + brackets(depth - 6))  # the line's 7th level
    lines[4] = b'{"block_hash":' + canonical_bytes(digest(content)) + b"," + content[1:]
    path.write_bytes(b"\n".join(lines) + b"\n")
    return path


def deep_checkpoint(workdir, depth):
    """`chain` and its checkpoint, whose body has an extra key nesting `depth` deep."""
    path = chain(workdir)
    Ledger.open(path, Registry())  # a full replay writes the checkpoint
    checkpoint = checkpoint_path(path)
    data = checkpoint.read_bytes()
    body = with_extra_key(data[len(b'{"body":'):data.rindex(b',"digest":')], depth)
    checkpoint.write_bytes(b'{"body":' + body + b',"digest":' + canonical_bytes(digest(body))
                           + b"}")
    return path


def account_file(workdir, depth):
    path = workdir / "account.json"
    path.write_bytes(with_extra_key(canonical_bytes({"account": ALICE}), depth))
    return CliConfig(workdir / "ledger.jsonl", workdir / "store", path, None, None)


def opened(path):
    """What open on `path` writes to stderr, and the height it reaches."""
    with contextlib.redirect_stderr(io.StringIO()) as err:
        height = Ledger.open(path, Registry()).height
    return f"{err.getvalue()}height {height}"


def document(content):
    return lambda workdir, depth: with_extra_key(content, depth)


# reader: (its bound, how to build its input, how to read it, what shows a refusal to decode)
READERS = {
    "ledger-line-verify": (LINE_BOUND, deep_line, lambda p: str(verify_chain_file(p).to_dict()),
                           "unparseable block"),
    "ledger-line-open": (LINE_BOUND, deep_line, opened, "nested deeper than"),
    "state-doc": (MAX_DEPTH, document(state_content(InstanceState(H, "A", {}, 0))),
                  lambda data: str(parse_state_content(data)), "nested deeper than"),
    "model-doc": (MAX_DEPTH, document(canonical_serialize(minimal_model())),
                  parse_model_bytes, "nested deeper than"),
    "creation-record": (MAX_DEPTH, document(creation_record(H, ALICE, Descriptor("d", "n"), 1)),
                        lambda data: sorted(parse_creation_record(data)), "nested deeper than"),
    "account-file": (MAX_DEPTH, account_file, _sender, "holds no account id"),
    "checkpoint-body": (LINE_BOUND, deep_checkpoint, opened, "checkpoint body is not JSON"),
}


def outcome(read, arg):
    try:
        return str(read(arg))
    except TrailError as exc:
        return f"{exc.name}: {exc}"


@pytest.mark.parametrize("offset", DEPTHS.values(), ids=DEPTHS.keys())
@pytest.mark.parametrize("reader", READERS)
def test_one_verdict_from_every_stack(tmp_path, reader, offset):
    bound, build, read, refusal = READERS[reader]
    depth = bound + offset if abs(offset) <= 1 else offset
    workdir = tmp_path / "wd"

    def run(stack):
        shutil.rmtree(workdir, ignore_errors=True)
        workdir.mkdir()
        arg = build(workdir, depth)
        return stack(lambda: outcome(read, arg))

    shallow = run(on_a_fresh_stack)
    deep = run(lambda fn: on_a_fresh_stack(
        lambda: deeper(sys.getrecursionlimit() - 150, fn)))
    assert deep == shallow
    assert (refusal in shallow) == (depth > bound), shallow
