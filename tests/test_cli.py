"""Command-line surface: workflows, stable exit codes, determinism."""

import json
import random
import sys

import pytest
from click.testing import CliRunner

from statetrail.cli import cli, main
from statetrail.demo import multiparty
from statetrail.errors import EXIT_CODES
from statetrail.hashing import MAX_DEPTH

from conftest import ALICE, CYCLE_DOC, MINIMAL_DOC

runner = CliRunner()


def invoke(workdir, *args, seed=None):
    argv = ["--dir", str(workdir)]
    if seed is not None:
        argv += ["--seed", str(seed)]
    argv += list(args)
    return runner.invoke(cli, argv, catch_exceptions=False)


def last_json(result) -> dict:
    return json.loads(result.output.strip().splitlines()[-1])


def write_model(workdir, doc, name="model.json") -> str:
    path = workdir / name
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture
def workdir(tmp_path):
    return tmp_path


@pytest.fixture
def funded(workdir):
    result = invoke(workdir, "account", "new", seed=1)
    assert result.exit_code == 0
    return last_json(result)["account"]


def register_cycle(workdir) -> str:
    result = invoke(workdir, "model", "register", write_model(workdir, CYCLE_DOC))
    assert result.exit_code == 0, result.output
    return last_json(result)["model_hash"]


def create_instance(workdir, mh, nonce=1) -> str:
    result = invoke(workdir, "instance", "create", mh, "--nonce", str(nonce))
    assert result.exit_code == 0, result.output
    return last_json(result)["instance_hash"]


class TestAccounts:
    def test_new_account_is_seed_deterministic(self, tmp_path):
        a = invoke(tmp_path / "x", "account", "new", seed=9)
        b = invoke(tmp_path / "y", "account", "new", seed=9)
        assert last_json(a) == last_json(b)

    def test_commands_without_account_fail_cleanly(self, workdir):
        mh_file = write_model(workdir, CYCLE_DOC)
        result = invoke(workdir, "model", "register", mh_file)
        assert result.exit_code == EXIT_CODES["UnknownSender"]
        assert last_json(result)["error"] == "UnknownSender"


    @pytest.mark.parametrize("content", [
        b"not json", b'{"account": "\xff"}', b'{"acct": 1}', b"[1]", b'{"account": 1}',
    ], ids=["not-json", "not-utf8", "no-account-key", "not-an-object", "non-string"])
    def test_malformed_account_file_is_unknown_sender(self, workdir, content):
        account_file = workdir / "account.json"
        account_file.write_bytes(content)
        result = invoke(workdir, "model", "register", write_model(workdir, CYCLE_DOC))
        assert result.exit_code == EXIT_CODES["UnknownSender"]
        assert last_json(result)["error"] == "UnknownSender"
        assert str(account_file) in last_json(result)["detail"]

    def test_account_file_that_is_a_directory_is_checked_before_submitting(self, workdir):
        assert invoke(workdir, "account", "new", "--no-save", seed=1).exit_code == 0
        ledger = (workdir / "ledger.jsonl").read_bytes()
        account_file = workdir / "account.json"
        account_file.mkdir()
        result = invoke(workdir, "account", "new", seed=1)
        assert result.exit_code == EXIT_CODES["UnknownSender"]
        assert last_json(result)["error"] == "UnknownSender"
        assert str(account_file) in last_json(result)["detail"]
        assert (workdir / "ledger.jsonl").read_bytes() == ledger

    def test_account_file_under_a_regular_file_is_checked_before_submitting(self, workdir):
        assert invoke(workdir, "account", "new", "--no-save", seed=1).exit_code == 0
        ledger = (workdir / "ledger.jsonl").read_bytes()
        (workdir / "F").write_bytes(b"")
        account_file = workdir / "F" / "acct.json"
        result = runner.invoke(cli, ["--dir", str(workdir), "--seed", "1", "--account-file",
                                     str(account_file), "account", "new"],
                               catch_exceptions=False)
        assert result.exit_code == EXIT_CODES["UnknownSender"]
        assert last_json(result)["error"] == "UnknownSender"
        assert str(account_file) in last_json(result)["detail"]
        assert (workdir / "ledger.jsonl").read_bytes() == ledger


class TestModelCommands:
    def test_register_prints_model_hash(self, workdir, funded):
        mh = register_cycle(workdir)
        assert mh.startswith("0x") and len(mh) == 66

    def test_register_twice_is_duplicate(self, workdir, funded):
        register_cycle(workdir)
        result = invoke(workdir, "model", "register", write_model(workdir, CYCLE_DOC))
        assert result.exit_code == EXIT_CODES["DuplicateModel"]

    def test_name_with_no_encoding_is_unknown_call(self, workdir, funded):
        # a lone surrogate, as an undecodable command-line byte arrives
        ledger = (workdir / "ledger.jsonl").read_bytes()
        result = invoke(workdir, "model", "register", write_model(workdir, CYCLE_DOC),
                        "--name", "\udcff")
        assert result.exit_code == EXIT_CODES["UnknownCall"]
        assert last_json(result)["error"] == "UnknownCall"
        assert (workdir / "ledger.jsonl").read_bytes() == ledger
        register_cycle(workdir)
        assert invoke(workdir, "chain", "verify").exit_code == 0

    def test_invalid_model_maps_to_dangling_transition_code(self, workdir, funded):
        doc = dict(MINIMAL_DOC, transitions=[{"id": "t1", "from": "A", "to": "Z"}])
        result = invoke(workdir, "model", "register", write_model(workdir, doc))
        assert result.exit_code == EXIT_CODES["DanglingTransition"]
        assert last_json(result)["error"] == "DanglingTransition"


class TestInstanceCommands:
    def test_create_step_terminate_flow(self, workdir, funded):
        mh = register_cycle(workdir)
        ih = create_instance(workdir, mh)
        step = invoke(workdir, "instance", "step", ih, "ab")
        assert step.exit_code == 0
        assert last_json(step)["seq"] == 1
        done = invoke(workdir, "instance", "terminate", ih)
        assert done.exit_code == 0
        again = invoke(workdir, "instance", "step", ih, "bc")
        assert again.exit_code == EXIT_CODES["InstanceTerminated"]

    @pytest.mark.parametrize("command", [("step", "ab"), ("run", "--steps", "3")],
                             ids=["step", "run"])
    @pytest.mark.parametrize("foreign", [
        {"current_state": "p", "variables": {}},
        {"current_state": "p", "variables": {"n": 0, "m": 0}},
        {"current_state": "x", "variables": {"n": 0}},
        {"current_state": "p", "variables": {"n": 0}, "instance_hash": "0x" + "e" * 64},
        {"current_state": "p", "variables": {"n": 2.5}},
        {"current_state": "p", "variables": {"n": "2"}},
        {"current_state": "p", "variables": {"n": True}},
        {"current_state": "p", "variables": {"n": 0}, "step": True},
        {"current_state": ["p"], "variables": {"n": 0}},
    ], ids=["missing-variable", "extra-variable", "unknown-state", "other-instance",
            "float-variable", "string-variable", "bool-variable", "bool-step", "list-state"])
    def test_foreign_latest_state_is_corrupt_content(self, workdir, funded, command, foreign):
        from statetrail.hashing import canonical_bytes
        from statetrail.ledger import Ledger
        from statetrail.registry import Registry, call_register_transition
        from statetrail.store import DirectoryContentStore

        from conftest import raw_submit

        ih = create_instance(workdir, register_cycle(workdir))
        registry = Registry()
        ledger = Ledger.open(workdir / "ledger.jsonl", registry)
        bad = DirectoryContentStore(workdir / "store").put(
            canonical_bytes({"instance_hash": ih, "step": 1, **foreign}))
        initial = registry.get_instance(ih).latest_state
        assert raw_submit(ledger, funded, call_register_transition(ih, initial, bad)).ok
        blocks = (workdir / "ledger.jsonl").read_bytes().count(b"\n")
        result = invoke(workdir, "instance", *command[:1], ih, *command[1:])
        assert result.exit_code == EXIT_CODES["CorruptContent"]
        assert last_json(result)["error"] == "CorruptContent"
        assert (workdir / "ledger.jsonl").read_bytes().count(b"\n") == blocks

    def test_step_with_wrong_source_state(self, workdir, funded):
        mh = register_cycle(workdir)
        ih = create_instance(workdir, mh)
        result = invoke(workdir, "instance", "step", ih, "bc")
        assert result.exit_code == EXIT_CODES["WrongSourceState"]

    def test_run_walks_and_terminates(self, workdir, funded):
        mh = register_cycle(workdir)
        ih = create_instance(workdir, mh)
        result = invoke(workdir, "instance", "run", ih, "--steps", "6", "--seed", "3")
        assert result.exit_code == 0
        summary = last_json(result)
        assert summary == {"fired": 6, "instance_hash": ih, "terminated": True}

    def test_negative_steps_is_a_usage_error(self, workdir, funded):
        ih = create_instance(workdir, register_cycle(workdir))
        ledger = (workdir / "ledger.jsonl").read_bytes()
        result = invoke(workdir, "instance", "run", ih, "--steps", "-3")
        assert result.exit_code == 2
        assert (workdir / "ledger.jsonl").read_bytes() == ledger

    def test_create_without_stored_model_content(self, workdir, funded):
        fake = "0x" + "f" * 64
        result = invoke(workdir, "instance", "create", fake, "--nonce", "1")
        assert result.exit_code == EXIT_CODES["MissingContent"]


class TestTrackingCommands:
    def test_track_prints_one_line_per_entry(self, workdir, funded):
        mh = register_cycle(workdir)
        ih = create_instance(workdir, mh)
        invoke(workdir, "instance", "run", ih, "--steps", "4", "--seed", "2")
        result = invoke(workdir, "track")
        lines = [json.loads(l) for l in result.output.strip().splitlines()]
        assert [e["kind"] for e in lines] == ["creation"] + ["transition"] * 4 + [
            "termination"]

    def test_protocol_export_and_verify(self, workdir, funded):
        mh = register_cycle(workdir)
        ih = create_instance(workdir, mh)
        invoke(workdir, "instance", "run", ih, "--steps", "5", "--seed", "2")
        export = invoke(workdir, "protocol", "export", ih)
        assert export.exit_code == 0
        assert len(export.output.strip().splitlines()) == 7
        verify = invoke(workdir, "protocol", "verify", ih)
        assert verify.exit_code == 0
        assert json.loads(verify.output.strip().splitlines()[-1])["verified"] is True

    def test_tampered_store_entry_fails_verification(self, workdir, funded):
        mh = register_cycle(workdir)
        ih = create_instance(workdir, mh)
        invoke(workdir, "instance", "run", ih, "--steps", "3", "--seed", "2")
        rng = random.Random(0)
        store_dir = workdir / "store"
        victim = sorted(store_dir.iterdir())[rng.randrange(
            len(list(store_dir.iterdir())))]
        data = bytearray(victim.read_bytes())
        data[rng.randrange(len(data))] ^= 0x01
        victim.write_bytes(bytes(data))
        result = invoke(workdir, "protocol", "verify", ih)
        assert result.exit_code != 0

    def test_non_object_state_variables_fail_verification(self, workdir, funded):
        from statetrail.engine import state_hash
        from statetrail.hashing import canonical_bytes
        from statetrail.ledger import Ledger
        from statetrail.registry import Registry, call_register_transition
        from statetrail.store import DirectoryContentStore

        from conftest import raw_submit

        mh = register_cycle(workdir)
        ih = create_instance(workdir, mh)
        registry = Registry()
        ledger = Ledger.open(workdir / "ledger.jsonl", registry)
        store = DirectoryContentStore(workdir / "store")
        bad = store.put(canonical_bytes({
            "current_state": "q", "instance_hash": ih, "step": 1, "variables": []}))
        initial = registry.get_instance(ih).latest_state
        assert raw_submit(ledger, funded, call_register_transition(ih, initial, bad)).ok
        result = invoke(workdir, "protocol", "verify", ih)
        assert result.exit_code == EXIT_CODES["VerificationFailed"]
        lines = [json.loads(line) for line in result.output.strip().splitlines()]
        assert [line.get("status") for line in lines[:2]] == ["verified", "inconsistent"]
        assert lines[-1]["error"] == "VerificationFailed"

    @pytest.mark.parametrize("nesting", [MAX_DEPTH + 1, 985])
    def test_deep_creation_record_is_inconsistent_for_every_reader(self, workdir, funded,
                                                                   nesting):
        from statetrail.engine import InstanceState, state_content
        from statetrail.ledger import Ledger
        from statetrail.registry import Descriptor, Registry, call_register_instance
        from statetrail.store import DirectoryContentStore
        from statetrail.tracker import Tracker

        from conftest import on_a_fresh_stack, raw_submit

        mh = register_cycle(workdir)
        registry = Registry()
        ledger = Ledger.open(workdir / "ledger.jsonl", registry)
        store = DirectoryContentStore(workdir / "store")
        # bytes, not canonical_bytes: encoding the record would recurse as deep as it nests
        name = b"[" * (nesting - 2) + b"]" * (nesting - 2)
        ih = store.put(b'{"descriptor":{"extra":{},"id":"d","name":' + name
                       + b'},"model_hash":"' + mh.encode() + b'","nonce":1,"owner":"'
                       + funded.encode() + b'"}')
        initial = store.put(state_content(InstanceState(ih, "p", {"n": 0}, 0)))
        call = call_register_instance(ih, mh, Descriptor("d", "n"), initial)
        assert raw_submit(ledger, funded, call).ok

        def library_verify():
            tracker = Tracker(ledger, registry, store)
            tracker.catch_up()
            return tracker.verify_protocol(ih)

        assert on_a_fresh_stack(library_verify) == ["inconsistent"]
        result = invoke(workdir, "protocol", "verify", ih)
        assert result.exit_code == EXIT_CODES["VerificationFailed"]
        assert json.loads(result.output.splitlines()[0])["status"] == "inconsistent"

    def test_export_for_unknown_instance(self, workdir, funded):
        result = invoke(workdir, "protocol", "export", "0x" + "e" * 64)
        assert result.exit_code == EXIT_CODES["UnknownSubject"]


class TestChainCommands:
    def test_verify_intact_chain(self, workdir, funded):
        register_cycle(workdir)
        result = invoke(workdir, "chain", "verify")
        assert result.exit_code == 0
        assert json.loads(result.output.strip().splitlines()[0])["ok"] is True

    def test_verify_without_ledger(self, workdir):
        result = invoke(workdir, "chain", "verify")
        assert result.exit_code == EXIT_CODES["ChainCorrupt"]

    @pytest.mark.parametrize("command", [["track"], ["chain", "verify"]])
    def test_ledger_file_that_is_a_directory(self, workdir, command):
        (workdir / "ledger.jsonl").mkdir()
        result = invoke(workdir, *command)
        assert result.exit_code == EXIT_CODES["ChainCorrupt"]
        assert last_json(result)["error"] == "ChainCorrupt"
        assert "Traceback" not in result.output

    def test_store_that_is_a_file(self, workdir):
        (workdir / "store").write_bytes(b"")
        result = invoke(workdir, "track")
        assert result.exit_code == EXIT_CODES["MissingContent"]
        assert last_json(result)["error"] == "MissingContent"
        assert "Traceback" not in result.output

    def test_tampered_ledger_detected(self, workdir, funded):
        mh = register_cycle(workdir)
        ih = create_instance(workdir, mh)
        invoke(workdir, "instance", "step", ih, "ab")
        path = workdir / "ledger.jsonl"
        data = bytearray(path.read_bytes())
        idx = data.index(b"register_transition")
        data[idx] ^= 0x02
        path.write_bytes(bytes(data))
        result = invoke(workdir, "chain", "verify")
        assert result.exit_code == EXIT_CODES["ChainCorrupt"]
        report = json.loads(result.output.strip().splitlines()[0])
        assert report["ok"] is False and report["first_bad_height"] is not None

    @pytest.mark.parametrize("where", ["block", "event"])
    def test_extra_key_detected(self, workdir, funded, where):
        from statetrail.hashing import canonical_bytes

        ih = create_instance(workdir, register_cycle(workdir))
        invoke(workdir, "instance", "step", ih, "ab")
        path = workdir / "ledger.jsonl"
        lines = path.read_bytes().splitlines()
        block = json.loads(lines[-1])
        (block if where == "block" else block["events"][0])["extra"] = 1
        lines[-1] = canonical_bytes(block)
        path.write_bytes(b"\n".join(lines) + b"\n")
        result = invoke(workdir, "chain", "verify")
        assert result.exit_code == EXIT_CODES["ChainCorrupt"]
        report = json.loads(result.output.strip().splitlines()[0])
        assert report["ok"] is False and report["first_bad_height"] == len(lines) - 1


class TestDemo:
    def test_multiparty_summary(self, tmp_path):
        result = invoke(tmp_path, "demo", "multiparty", "--parties", "3",
                        "--steps", "8", "--seed", "7",
                        "--workdir", str(tmp_path / "demo"))
        assert result.exit_code == 0, result.output
        summary = last_json(result)
        assert summary["converged"] is True
        assert all(n == 10 for n in summary["entries"].values())

    @pytest.mark.parametrize("name", ["ledger.jsonl", "ledger.jsonl.checkpoint"])
    def test_ledger_file_that_is_a_directory_deletes_nothing(self, tmp_path, name):
        target = tmp_path / "demo"
        for stale in ("ledger.jsonl", "ledger.jsonl.checkpoint", "store/0x00"):
            (target / stale).parent.mkdir(parents=True, exist_ok=True)
            if stale == name:
                (target / stale).mkdir()
            else:
                (target / stale).write_bytes(b"old")
        before = sorted(target.rglob("*"))
        result = invoke(tmp_path, "demo", "multiparty", "--steps", "2",
                        "--workdir", str(target))
        assert result.exit_code == EXIT_CODES["ChainCorrupt"]
        assert last_json(result)["error"] == "ChainCorrupt"
        assert str(target / name) in last_json(result)["detail"]
        assert sorted(target.rglob("*")) == before

    @pytest.mark.parametrize("name", ["store", "exports"])
    def test_content_dir_that_is_a_file_deletes_nothing(self, tmp_path, name):
        target = tmp_path / "demo"
        for stale in ("ledger.jsonl", "ledger.jsonl.checkpoint", "store/0x00", "exports/x.jsonl"):
            path = target / (name if stale.startswith(name + "/") else stale)
            path.parent.mkdir(parents=True, exist_ok=True)
            path.write_bytes(b"old")
        before = {p: p.read_bytes() for p in target.rglob("*") if p.is_file()}
        result = invoke(tmp_path, "demo", "multiparty", "--steps", "2",
                        "--workdir", str(target))
        assert result.exit_code == EXIT_CODES["MissingContent"]
        assert last_json(result)["error"] == "MissingContent"
        assert str(target / name) in last_json(result)["detail"]
        assert {p: p.read_bytes() for p in target.rglob("*") if p.is_file()} == before

    def test_content_dir_that_is_a_symbolic_link_deletes_nothing(self, tmp_path):
        target, elsewhere = tmp_path / "demo", tmp_path / "elsewhere"
        (target / "exports").mkdir(parents=True)
        elsewhere.mkdir()
        (elsewhere / "0x00").write_bytes(b"old")
        (target / "store").symlink_to(elsewhere, target_is_directory=True)
        before = sorted(tmp_path.rglob("*"))
        result = invoke(tmp_path, "demo", "multiparty", "--steps", "2",
                        "--workdir", str(target))
        assert result.exit_code == EXIT_CODES["MissingContent"]
        assert str(target / "store") in last_json(result)["detail"]
        assert sorted(tmp_path.rglob("*")) == before

    def test_same_seed_twice_gives_identical_exports(self, tmp_path):
        outs = []
        for sub in ("one", "two"):
            result = invoke(tmp_path, "demo", "multiparty", "--steps", "6",
                            "--seed", "21", "--workdir", str(tmp_path / sub))
            assert result.exit_code == 0
            outs.append(last_json(result)["export_digest"])
        assert outs[0] == outs[1]

    def test_seed_7_output_bytes_are_pinned(self, tmp_path):
        # the ledger file, the model hash and the exports are the system's
        # own standard of sameness; any change to them is a format change
        import hashlib

        result = invoke(tmp_path, "demo", "multiparty", "--parties", "3", "--steps", "50",
                        "--seed", "7", "--workdir", str(tmp_path / "demo"))
        assert result.exit_code == 0, result.output
        summary = last_json(result)
        ledger = (tmp_path / "demo" / "ledger.jsonl").read_bytes()
        assert hashlib.sha256(ledger).hexdigest() == \
            "4ec4ee592bda267d3299fdcb1bb45b5eb15a333aa847bb193eb1a9f70f567f7e"
        assert summary["model_hash"] == \
            "0xf9eb6305a8ebdb9eda9354e62bcb8474282591108e52f6c3595db33ba88be1e6"
        assert sorted(summary["export_digest"].values()) == [
            "0x02640b1ea5e799b3ac8b3212b11f19b14e76fbf9363b74ee31fecb1d7e74893f",
            "0xa039ac621e8a6a627ef82cfa18b1702cb276f9d1d261b33858c5d1eb30790d3c",
        ]

    @pytest.mark.parametrize("faulted, expected", [
        (False, {
            "track": (0, "30b8e71ac8b6e48b2f9f835ebb9348d274c866288f3c6dfc8dc046084bb95ce4"),
            "run-1": (0, "e3d5480ea557559872e369b271c157919b31e76962ebd29f620cb68f83f4e488"),
            "run-2": (0, "ded6d28426063204673b3fb42a9b5767dbd765e140ea214b1029274312ac6685"),
        }),
        (True, {
            "track": (0, "389e4207bb6522137e6878ad18e3898a9a3b67bfa7ba0442ae45180debf282c5"),
            "run-1": (60, "1e699fdc1e3f7970a1035363743a5030f7d787877859fa4df3daaa0451e3d4d9"),
            "run-2": (0, "ded6d28426063204673b3fb42a9b5767dbd765e140ea214b1029274312ac6685"),
            "forged": (60, "6158d97b5e1a9a054af61f60834c69f2171b4cbe7dec01270a0414aacb03cefb"),
        }),
    ], ids=["clean", "faulted"])
    def test_seed_7_verify_and_track_stdout_are_pinned(self, tmp_path, faulted, expected):
        # stdout bytes and exit codes of the party commands; the faulted
        # workdir has one store file deleted and one illegal hop registered
        import hashlib

        from statetrail.demo import derive_account, multiparty
        from statetrail.hashing import canonical_bytes
        from statetrail.ledger import ZERO_CURSOR, Ledger
        from statetrail.registry import Registry, call_register_transition
        from statetrail.store import DirectoryContentStore

        from conftest import raw_submit

        wd = tmp_path / "demo"
        summary = multiparty(parties=3, steps=50, seed=7, workdir=wd)
        commands = {"track": ["track"]}  # and `protocol verify` of each instance
        for label, ih in zip(("run-1", "run-2"), summary["instances"]):
            commands[label] = ["protocol", "verify", ih]
        if faulted:
            owner = derive_account(7, 0)
            created = invoke(wd, "--account", owner, "instance", "create",
                             summary["model_hash"], "--nonce", "2")
            forged = last_json(created)["instance_hash"]
            registry = Registry()
            ledger = Ledger.open(wd / "ledger.jsonl", registry)
            store = DirectoryContentStore(wd / "store")
            hop = store.put(canonical_bytes({  # idle -> moving: no transition
                "current_state": "moving", "instance_hash": forged, "step": 1,
                "variables": {"items": 0}}))
            initial = registry.get_instance(forged).latest_state
            assert raw_submit(ledger, owner, call_register_transition(forged, initial, hop)).ok
            victim = next(e.payload["post_state"] for e in ledger.events_since(ZERO_CURSOR)
                          if e.payload.get("instance_hash") == summary["instances"][0]
                          and e.payload.get("seq") == 10)
            (wd / "store" / victim).unlink()
            commands["forged"] = ["protocol", "verify", forged]
        got = {}
        for label, args in commands.items():
            result = runner.invoke(cli, ["--dir", str(wd), *args])
            got[label] = (result.exit_code, hashlib.sha256(result.stdout_bytes).hexdigest())
        assert got == expected

    def test_rerun_in_same_workdir_is_reproducible(self, tmp_path):
        # the last run writes a shorter ledger, which the first run's
        # checkpoint would no longer fit, unless the rerun removes it
        digests = []
        for steps in ("5", "5", "4"):
            result = invoke(tmp_path, "demo", "multiparty", "--steps", steps,
                            "--seed", "3", "--workdir", str(tmp_path / "demo"))
            assert result.exit_code == 0
            assert "fallback" not in result.output
            digests.append(last_json(result)["export_digest"])
        assert digests[0] == digests[1]

    @pytest.mark.parametrize("option", [("--parties", "1"), ("--parties", "0"),
                                        ("--steps", "-1")],
                             ids=["one-party", "no-party", "negative-steps"])
    def test_out_of_range_option_is_a_usage_error(self, tmp_path, option):
        result = runner.invoke(cli, ["demo", "multiparty", *option,
                                     "--workdir", str(tmp_path / "demo")])
        assert result.exit_code == 2
        assert not (tmp_path / "demo").exists()

    @pytest.mark.parametrize("kwargs", [{"parties": 1}, {"steps": -1}],
                             ids=["one-party", "negative-steps"])
    def test_library_refuses_out_of_range_before_touching_the_workdir(self, tmp_path, kwargs):
        old = tmp_path / "demo" / "ledger.jsonl"
        old.parent.mkdir()
        old.write_bytes(b"old")
        with pytest.raises(ValueError):
            multiparty(workdir=tmp_path / "demo", **kwargs)
        assert list(tmp_path.rglob("*")) == [old.parent, old]
        assert old.read_bytes() == b"old"

    def test_library_rerun_in_same_workdir_is_reproducible(self, tmp_path):
        first = multiparty(steps=2, workdir=tmp_path / "demo")
        assert multiparty(steps=2, workdir=tmp_path / "demo") == first


class TestDelegation:
    def test_two_party_flow_via_account_flags(self, workdir):
        invoke(workdir, "account", "new", "--no-save", seed=1)
        invoke(workdir, "account", "new", "--no-save", seed=1)
        # the two derived accounts are a function of (seed, creation order)
        from statetrail.demo import derive_account
        owner, helper = derive_account(1, 0), derive_account(1, 1)
        mh_result = runner.invoke(cli, [
            "--dir", str(workdir), "--account", owner,
            "model", "register", write_model(workdir, CYCLE_DOC)])
        mh = last_json(mh_result)["model_hash"]
        denied = runner.invoke(cli, [
            "--dir", str(workdir), "--account", helper,
            "instance", "create", mh, "--nonce", "1"])
        assert denied.exit_code == EXIT_CODES["NotAuthorized"]
        granted = runner.invoke(cli, [
            "--dir", str(workdir), "--account", owner, "delegate", mh, helper])
        assert granted.exit_code == 0
        allowed = runner.invoke(cli, [
            "--dir", str(workdir), "--account", helper,
            "instance", "create", mh, "--nonce", "1"])
        assert allowed.exit_code == 0, allowed.output


class TestExitCodes:
    def test_codes_are_a_stable_injective_enumeration(self):
        codes = list(EXIT_CODES.values())
        assert len(codes) == len(set(codes))
        assert 0 not in codes and 1 not in codes and 2 not in codes

    def test_output_lines_are_json_objects(self, workdir, funded):
        mh = register_cycle(workdir)
        for result in (invoke(workdir, "track"), invoke(workdir, "chain", "verify")):
            for line in result.output.strip().splitlines():
                assert isinstance(json.loads(line), dict)


class TestEnvironment:
    def test_working_directory_from_environment(self, tmp_path):
        result = runner.invoke(cli, ["--seed", "4", "account", "new", "--no-save"],
                               env={"STATETRAIL_DIR": str(tmp_path)},
                               catch_exceptions=False)
        assert result.exit_code == 0
        assert (tmp_path / "ledger.jsonl").exists()

    def test_former_option_variables_are_not_read(self, tmp_path, monkeypatch, capsys):
        # the variables click derives for every option under a STATETRAIL
        # prefix, each set to a value that would change the outcome
        former = {
            "STATETRAIL_ACCOUNT": ALICE,
            "STATETRAIL_ACCOUNT_FILE": str(tmp_path / "acct.json"),
            "STATETRAIL_SEED": "5",
            "STATETRAIL_ACCOUNT_NEW_SAVE": "false",
            "STATETRAIL_MODEL_REGISTER_ID": "x",
            "STATETRAIL_MODEL_REGISTER_NAME": "x",
            "STATETRAIL_INSTANCE_CREATE_NONCE": "9",
            "STATETRAIL_INSTANCE_CREATE_ID": "x",
            "STATETRAIL_INSTANCE_CREATE_NAME": "x",
            "STATETRAIL_INSTANCE_RUN_STEPS": "1",
            "STATETRAIL_INSTANCE_RUN_SEED": "1",
            "STATETRAIL_DEMO_MULTIPARTY_PARTIES": "2",
            "STATETRAIL_DEMO_MULTIPARTY_STEPS": "2",
            "STATETRAIL_DEMO_MULTIPARTY_SEED": "8",
            "STATETRAIL_DEMO_MULTIPARTY_WORKDIR": str(tmp_path / "elsewhere"),
        }
        argv = ["statetrail", "demo", "multiparty", "--workdir", str(tmp_path / "demo")]
        monkeypatch.setattr(sys, "argv", argv)
        outputs = []
        for env in ({}, former):
            for name in former:
                monkeypatch.delenv(name, raising=False)
            for name, value in env.items():
                monkeypatch.setenv(name, value)
            with pytest.raises(SystemExit) as exited:
                main()
            assert exited.value.code == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        summary = json.loads(outputs[0])
        assert summary["parties"] == 3 and set(summary["entries"].values()) == {52}


H = "0x" + "e" * 64
HOSTILE_COMMANDS = {
    "track": ["track"],
    "chain-verify": ["chain", "verify"],
    "protocol-verify": ["protocol", "verify", H],
    "protocol-export": ["protocol", "export", H],
    "instance-step": ["instance", "step", H, "ab"],
    "instance-run": ["instance", "run", H],
    "instance-terminate": ["instance", "terminate", H],
    "instance-create": ["instance", "create", H, "--nonce", "1"],
    "model-register": ["model", "register", "MODEL"],
    "account-new": ["account", "new"],
    "delegate": ["delegate", H, ALICE],
    "demo-multiparty": ["demo", "multiparty", "--steps", "2", "--workdir", "WORKDIR"],
}


def dir_under_a_file(tmp_path):
    (tmp_path / "F").write_bytes(b"")
    return tmp_path / "F" / "sub"


def ledger_is_a_directory(tmp_path):
    (tmp_path / "wd" / "ledger.jsonl").mkdir(parents=True)
    return tmp_path / "wd"


def store_is_a_file(tmp_path):
    (tmp_path / "wd").mkdir()
    (tmp_path / "wd" / "store").write_bytes(b"")
    return tmp_path / "wd"


@pytest.mark.parametrize("layout", [dir_under_a_file, ledger_is_a_directory, store_is_a_file],
                         ids=lambda layout: layout.__name__.replace("_", "-"))
@pytest.mark.parametrize("command", HOSTILE_COMMANDS.values(), ids=HOSTILE_COMMANDS.keys())
def test_hostile_workdir_ends_in_a_named_error(tmp_path, layout, command):
    workdir = layout(tmp_path)
    model_file = write_model(tmp_path, CYCLE_DOC)
    args = [{"MODEL": model_file, "WORKDIR": str(workdir)}.get(a, a) for a in command]
    result = runner.invoke(cli, ["--dir", str(workdir), "--account", ALICE, *args])
    assert result.exit_code in EXIT_CODES.values(), result.output
    error = json.loads(result.stdout.splitlines()[-1])
    assert error.keys() == {"detail", "error"}
    assert EXIT_CODES[error["error"]] == result.exit_code
