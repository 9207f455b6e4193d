"""`chain verify` pinned on a table of ledger files: exit code and stdout bytes.

Each row builds a ledger file in `wd` and runs `chain verify` with a
relative `--dir`, so that no temporary path reaches stdout. The expected
values were recorded before `chain verify` became one re-execution; keep
them as they are.
"""

import hashlib
import json

import pytest
from click.testing import CliRunner

from statetrail.cli import cli
from statetrail.hashing import FAUCET_ACCOUNT, MAX_DEPTH, canonical_bytes, content_hash
from statetrail.ledger import Ledger, create_account_call
from statetrail.model import model_hash
from statetrail.registry import Descriptor, Registry, call_register_model

from conftest import ALICE, engine_for, make_world, minimal_model


def base_chain(path):
    """Blocks 1-3 create ALICE, BOB and CARA; block 4 registers a model."""
    world = make_world(path=path)
    engine_for(world, ALICE).submit_call(
        call_register_model(model_hash(minimal_model()), Descriptor("m", "m")))


def nested(depth):
    value = []
    for _ in range(depth):
        value = [value]
    return value


def blocks_of(path):
    return [json.loads(line) for line in path.read_bytes().splitlines()]


def write_blocks(path, blocks):
    path.write_bytes(b"".join(canonical_bytes(b) + b"\n" for b in blocks))


def rehash(block):
    block["block_hash"] = content_hash({k: v for k, v in block.items() if k != "block_hash"})


def resealed(height, edit):
    """Edit one block, then give it and every later block fresh hashes and links."""
    def build(path):
        blocks = blocks_of(path)
        edit(blocks[height])
        for prev, block in zip(blocks[height - 1:], blocks[height:]):
            block["prev_hash"] = prev["block_hash"]
            rehash(block)
        write_blocks(path, blocks)
    return build


def line_replaced(height, rewrite):
    """Replace the bytes of one line, leaving every other line as written."""
    def build(path):
        lines = path.read_bytes().splitlines()
        lines[height] = rewrite(lines[height])
        path.write_bytes(b"\n".join(lines) + b"\n")
    return build


def relinked(path):
    # block 3 links to block 1, with its own hash recomputed over the new link
    blocks = blocks_of(path)
    blocks[3]["prev_hash"] = blocks[1]["block_hash"]
    rehash(blocks[3])
    write_blocks(path, blocks)


def call_edited(path):
    blocks = blocks_of(path)
    blocks[4]["transactions"][0]["call"]["args"]["descriptor"]["name"] = "n"
    write_blocks(path, blocks)


def checkpointed(path):
    Ledger.open(path, Registry())


def refused(height, call, error):
    """A resealed line that records what an older replay made of a call no writer admits."""
    return resealed(height, lambda b: b.update(events=[], transactions=[dict(
        b["transactions"][0], call=call, status="failed", error=error)]))


def call_too_deep():
    return call_register_model("0x" + "1" * 64, Descriptor("m", nested(MAX_DEPTH - 3)))


ROWS = {
    "intact": lambda path: None,
    "intact-with-checkpoint": checkpointed,
    "no-final-newline": lambda path: path.write_bytes(path.read_bytes()[:-1]),
    "blank-final-line": lambda path: path.write_bytes(path.read_bytes() + b"\n"),
    # the structural reasons
    "unparseable-block": line_replaced(2, lambda line: b"not json"),
    "malformed-block": line_replaced(2, lambda line: b"{}"),
    "height-out-of-sequence": resealed(4, lambda b: b.update(height=5)),
    "timestamp-not-height": resealed(4, lambda b: b.update(timestamp=99)),
    "broken-linkage": relinked,
    "block-hash-mismatch": call_edited,
    "non-canonical-indent": line_replaced(1, lambda line: json.dumps(
        json.loads(line), sort_keys=True, indent=1).replace("\n", " ").encode()),
    "non-canonical-escape": line_replaced(
        4, lambda line: line.replace(b'"block_hash":"0', b'"block_hash":"\\u0030')),
    "nested-100000-deep": line_replaced(2, lambda line: b"[" * 100_000 + b"]" * 100_000),
    # lines that are not blocks
    "invalid-utf8-in-a-block": line_replaced(
        4, lambda line: line.replace(b"register_model", b"register\xffmodel")),
    "invalid-utf8": line_replaced(2, lambda line: b'{"height":"\xff"}'),
    "lone-surrogate": line_replaced(
        2, lambda line: b'{"transactions":[{"call":{},"nonce":1,"sender":"\\ud800"}]}'),
    "nan-call": line_replaced(
        2, lambda line: b'{"transactions":[{"call":NaN,"nonce":1,"sender":"x"}]}'),
    "list-line": line_replaced(2, lambda line: b"[]"),
    "bare-carriage-return": line_replaced(
        4, lambda line: line.replace(b',"height"', b',\r"height"', 1)),
    # replay divergence: the structural check passes
    "replay-divergence-status": resealed(
        4, lambda b: b["transactions"][0].update(status="failed", error="UnknownModel")),
    "replay-divergence-event": resealed(4, lambda b: b.update(events=[{
        "event_index": 0, "height": 4, "kind": "ModelRegistered", "payload": {},
        "tx_index": 0}])),
    # the admission refusals and shapes of TestAdversarialFiles
    "faucet-string-args": resealed(
        1, lambda b: b["transactions"][0]["call"].update(args="0x" + "7" * 40)),
    "faucet-no-args": resealed(1, lambda b: b["transactions"][0]["call"].pop("args")),
    "number-call": resealed(4, lambda b: b["transactions"][0].update(call=5)),
    "no-sender": resealed(4, lambda b: b["transactions"][0].pop("sender")),
    "list-sender": resealed(4, lambda b: b["transactions"][0].update(sender=[ALICE])),
    "string-transactions": resealed(4, lambda b: b.update(transactions="x")),
    "number-transactions": resealed(4, lambda b: b.update(transactions=5)),
    "object-transactions": resealed(4, lambda b: b.update(transactions={"sender": ALICE})),
    "no-transactions": resealed(4, lambda b: b.pop("transactions")),
    "list-hash": resealed(4, lambda b: b["transactions"][0].update(call={
        "op": "register_model", "args": {"model_hash": [], "descriptor": {"id": "m"}}})),
    "never-created-sender": resealed(
        4, lambda b: b["transactions"][0].update(sender="0x" + "d" * 40)),
    "faucet-as-contract-sender": resealed(
        4, lambda b: b["transactions"][0].update(sender=FAUCET_ACCOUNT, nonce=4)),
    "nonce-gap": resealed(4, lambda b: b["transactions"][0].update(nonce=7)),
    "bool-nonce": resealed(4, lambda b: b["transactions"][0].update(nonce=True)),
    "faucet-nonce-gap": resealed(2, lambda b: b["transactions"][0].update(nonce=5)),
    "failed-creation-of-existing-account": refused(2, create_account_call(ALICE),
                                                   "AccountExists"),
    "failed-creation-of-malformed-id": refused(2, create_account_call("bogus"), "UnknownCall"),
    "call-nested-too-deep": refused(4, call_too_deep(), "InvalidDescriptor"),
    # no chain
    "empty-file": lambda path: path.write_bytes(b""),
    "missing-file": lambda path: path.unlink(),
    "directory": lambda path: (path.unlink(), path.mkdir()),
}

# (exit code, sha256 of stdout), as the two-pass `chain verify` printed them
EXPECTED = {
    "intact": (0, "6d54514f99e52406410f0d9d9bb99b2fd8a6db47b2657101a745478260128a3e"),
    "intact-with-checkpoint":
        (0, "6d54514f99e52406410f0d9d9bb99b2fd8a6db47b2657101a745478260128a3e"),
    "no-final-newline": (0, "6d54514f99e52406410f0d9d9bb99b2fd8a6db47b2657101a745478260128a3e"),
    "blank-final-line": (24, "1960fbc862fc315674af6a19354988adadaef5c79698922c52ac0ffc4a109896"),
    "unparseable-block": (24, "390e81dacbfce5fbf3d42bf51afc5cb293fb753ae3af4b770b3e1b0cd9ad9373"),
    "malformed-block": (24, "52f54b32dd53ece2fae06f6145585952013b7ee0f8e50183647f24b21e842c1b"),
    "height-out-of-sequence":
        (24, "6c80b1a4a1a742bfefdbd2158ad3988e30619a1d124b19909fa4504909a6cae6"),
    "timestamp-not-height":
        (24, "79b207bb7f30ccb30805e0e9a89f7a4df06c9d876b080d07c09124f2c10dbf49"),
    "broken-linkage": (24, "bcb7d79beda6c29fa05b917882852fd5ddf3a778931c091dc50943ba3af757d9"),
    "block-hash-mismatch":
        (24, "729868b13d541eb2d143fc8a60b942aefd3538f83b6665f85ea6514099f64b89"),
    "non-canonical-indent":
        (24, "ae11e78dc4697db3739df6794067787778b76ee5ad4c7af6574a75df0d20734f"),
    "non-canonical-escape":
        (24, "afb0407acce8f6932eafcde9a03f4dd4c06cc8f33dce498061cddb0cb1a1e154"),
    "nested-100000-deep": (24, "390e81dacbfce5fbf3d42bf51afc5cb293fb753ae3af4b770b3e1b0cd9ad9373"),
    "invalid-utf8-in-a-block":
        (24, "24bc344933388363ee35ed891b1f93bc46253bdcadf772c1990b27b758120569"),
    "invalid-utf8": (24, "390e81dacbfce5fbf3d42bf51afc5cb293fb753ae3af4b770b3e1b0cd9ad9373"),
    "lone-surrogate": (24, "898dfed18003c5b9fc32bc821c369e3d9e8b26f26ca984a997d2b2ab86074dc4"),
    "nan-call": (24, "898dfed18003c5b9fc32bc821c369e3d9e8b26f26ca984a997d2b2ab86074dc4"),
    "list-line": (24, "36da2e5c7341dcc51675e4672c2d0e57acff0173665bb54ab0e58fe9925b3dba"),
    "bare-carriage-return":
        (24, "afb0407acce8f6932eafcde9a03f4dd4c06cc8f33dce498061cddb0cb1a1e154"),
    "replay-divergence-status":
        (24, "f387f4ffc1eadf78edcd5c83852f246586913ed6f812a074ad505b895d701394"),
    "replay-divergence-event":
        (24, "f387f4ffc1eadf78edcd5c83852f246586913ed6f812a074ad505b895d701394"),
    "faucet-string-args": (24, "5c7b397ccdd8e9fd6a65e2af8892a5b23830c8487df157e9827ccf132624b76f"),
    "faucet-no-args": (24, "5c7b397ccdd8e9fd6a65e2af8892a5b23830c8487df157e9827ccf132624b76f"),
    "number-call": (24, "f387f4ffc1eadf78edcd5c83852f246586913ed6f812a074ad505b895d701394"),
    "no-sender": (24, "3c90b6a93cf56f2c4c16a000b0c622087f9a954afe3370b4caaa947f54867311"),
    "list-sender": (24, "718b7d43923c8b4d45a95651955fc494e1b5b051d6533b1d40fca2dc961d40e0"),
    "string-transactions":
        (24, "dbef778ab3bddb704470c8d14d7357dbd4f710b5625bbf07a43948432431ef0d"),
    "number-transactions":
        (24, "ca9c03d30a197a7eb2c7b42e2d3ccf5a48cf280851b2ceeea5a33e8441d571b6"),
    "object-transactions":
        (24, "dbef778ab3bddb704470c8d14d7357dbd4f710b5625bbf07a43948432431ef0d"),
    "no-transactions": (24, "08b797b247e6267b28c5729316a819749029235414e8b5d6864608ad45a99b55"),
    "list-hash": (24, "f387f4ffc1eadf78edcd5c83852f246586913ed6f812a074ad505b895d701394"),
    "never-created-sender":
        (24, "19c884ec77f77daedbf6664211468cfd804bb60f08f97517a2d8f7e49f3f2394"),
    "faucet-as-contract-sender":
        (24, "18c3b4d4c7832fad35d59aaa28f498ba7488c58bf10c72ca484457a5d7fbda90"),
    "nonce-gap": (24, "e19de3e5f17220f8a9764b780684c846246a6b3487679611f5b511150299859e"),
    "bool-nonce": (24, "29a21d83bb0735631863bff75c0ec9d11cf69b5cc503445537109c31368e14c2"),
    "faucet-nonce-gap": (24, "14143d7f56be970765101dd2eaef1a734b2e1d3a0da863b82f37bcea2c30f8cf"),
    "failed-creation-of-existing-account":
        (24, "78e3d808b9aa3920de00f863b0a57e5218fd1a71a3844fb16641efcfdc130347"),
    "failed-creation-of-malformed-id":
        (24, "cbca4e11b913c3200d5464cfd10d2e603a05163f0211b325e5a3731060311cf8"),
    "call-nested-too-deep":
        (24, "96b3f94bd8cd5f2b47baa0eb388faf5f6c12d640c212120e52ffa75cb5b7429f"),
    "empty-file": (0, "290597a20bb7ea8a6c41892817803362e972885c7a706156afcc12df92f300cc"),
    "missing-file": (24, "f47a2ee70ba7b10536276725140f166112077ce8f05159d1782739091345a0ab"),
    "directory": (24, "f47a2ee70ba7b10536276725140f166112077ce8f05159d1782739091345a0ab"),
}


@pytest.mark.parametrize("row", ROWS)
def test_chain_verify_prints_what_it_printed(tmp_path, monkeypatch, row):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "wd" / "ledger.jsonl"
    base_chain(path)
    ROWS[row](path)
    result = CliRunner().invoke(cli, ["--dir", "wd", "chain", "verify"])
    got = (result.exit_code, hashlib.sha256(result.stdout_bytes).hexdigest())
    assert got == EXPECTED[row], result.stdout
