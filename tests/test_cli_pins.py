"""CLI surface pins, independent of the parser the CLI is built on.

One scripted session in one working directory runs every command with
every option, the usage errors and every exit code the CLI can reach.
Each step pins its exit code and the sha256 of its stdout, with the
temporary directory written as TMP. The CLI is driven only through
`cli.main(args, prog_name)`, which is all `CliRunner.invoke` calls.
"""

import hashlib
import json

from click.testing import CliRunner

from statetrail.cli import cli
from statetrail.errors import EXIT_CODES
from statetrail.model import model_hash, validate_model

from conftest import CYCLE_DOC, MINIMAL_DOC

H = "0x" + "e" * 64
STRANGER = "0x" + "5" * 40
GUARDED_DOC = {
    "name": "guarded", "states": ["a", "b"], "initial": "a", "finals": [],
    "transitions": [{"id": "go", "from": "a", "to": "b",
                     "guard": {"var": "n", "op": ">", "value": 0}}],
    "variables": {"n": 0},
}
INVALID_DOCS = {
    "InvalidModelDocument": dict(MINIMAL_DOC, extra=1),
    "EmptyStates": dict(MINIMAL_DOC, states=[], transitions=[]),
    "MissingInitial": dict(MINIMAL_DOC, initial="Z"),
    "DanglingTransition": dict(MINIMAL_DOC, transitions=[{"id": "t1", "from": "A", "to": "Z"}]),
    "DuplicateTransitionId": dict(MINIMAL_DOC, transitions=[
        {"id": "t1", "from": "A", "to": "B"}, {"id": "t1", "from": "B", "to": "A"}]),
    "UnknownVariable": dict(MINIMAL_DOC, transitions=[
        {"id": "t1", "from": "A", "to": "B", "effect": {"var": "x", "add": 1}}]),
}


def corrupt_latest_state(tmp, values):
    """Overwrite the latest state that the step of the delegated instance stored."""
    (tmp / "wd" / "store" / values["step_delegated"]["post_state"]).write_bytes(b"{}")


def tamper_ledger(tmp, values):
    path = tmp / "wd" / "ledger.jsonl"
    data = bytearray(path.read_bytes())
    data[data.index(b"register_transition")] ^= 0x02
    path.write_bytes(bytes(data))


# (label, argv, expected exit code); "{name}" is a value from an earlier step
# or a file of the session, "{label[key]}" a key of that step's last JSON line
SESSION = [
    ("no-account", ["--dir", "{wd}", "model", "register", "{cycle}"], "UnknownSender"),
    ("alice", ["--dir", "{wd}", "--seed", "1", "account", "new"], 0),
    ("bob", ["--dir", "{wd}", "--seed", "1", "account", "new", "--no-save"], 0),
    ("cara", ["--dir", "{wd}", "--seed", "1", "--account-file", "{tmp}/cara.json",
              "account", "new", "--save"], 0),
    ("register", ["--dir", "{wd}", "model", "register", "{cycle}", "--id", "cyc",
                  "--name", "Cycle"], 0),
    ("register-again", ["--dir", "{wd}", "model", "register", "{cycle}"], "DuplicateModel"),
    ("register-unencodable-name", ["--dir", "{wd}", "model", "register", "{cycle}",
                                   "--name", "\udcff"], "UnknownCall"),
    ("register-guarded", ["--dir", "{wd}", "model", "register", "{guarded}"], 0),
    *((f"invalid-{name}", ["--dir", "{wd}", "model", "register", "{%s}" % name], name)
      for name in INVALID_DOCS),
    ("stranger-register", ["--dir", "{wd}", "--account", STRANGER, "model", "register",
                           "{minimal}"], "UnknownSender"),
    ("create-unregistered", ["--dir", "{wd}", "instance", "create", "{minimal_hash}",
                             "--nonce", "1"], "ModelNotRegistered"),
    ("create-unstored", ["--dir", "{wd}", "instance", "create", H, "--nonce", "1"],
     "MissingContent"),
    ("create", ["--dir", "{wd}", "instance", "create", "{register[model_hash]}", "--nonce",
                "1", "--id", "i1", "--name", "run"], 0),
    ("create-again", ["--dir", "{wd}", "instance", "create", "{register[model_hash]}",
                      "--nonce", "1", "--id", "i1", "--name", "run"], "DuplicateInstance"),
    ("create-denied", ["--dir", "{wd}", "--account", "{bob[account]}", "instance", "create",
                       "{register[model_hash]}", "--nonce", "2"], "NotAuthorized"),
    ("delegate", ["--dir", "{wd}", "delegate", "{register[model_hash]}", "{bob[account]}"], 0),
    ("create-delegated", ["--dir", "{wd}", "--account", "{bob[account]}", "instance", "create",
                          "{register[model_hash]}", "--nonce", "2"], 0),
    ("create-from-account-file", ["--dir", "{wd}", "--account-file", "{tmp}/cara.json",
                                  "instance", "create", "{register[model_hash]}",
                                  "--nonce", "3"], "NotAuthorized"),
    ("create-third", ["--dir", "{wd}", "instance", "create", "{register[model_hash]}",
                      "--nonce", "3"], 0),
    ("create-guarded", ["--dir", "{wd}", "instance", "create",
                        "{register_guarded[model_hash]}", "--nonce", "1"], 0),
    ("step", ["--dir", "{wd}", "instance", "step", "{create[instance_hash]}", "ab"], 0),
    ("step-wrong-source", ["--dir", "{wd}", "instance", "step", "{create[instance_hash]}",
                           "ab"], "WrongSourceState"),
    ("step-unknown-transition", ["--dir", "{wd}", "instance", "step",
                                 "{create[instance_hash]}", "zz"], "UnknownTransition"),
    ("step-unknown-instance", ["--dir", "{wd}", "instance", "step", H, "ab"],
     "UnknownSubject"),
    ("step-guard", ["--dir", "{wd}", "instance", "step", "{create_guarded[instance_hash]}",
                    "go"], "GuardFailed"),
    ("run", ["--dir", "{wd}", "instance", "run", "{create[instance_hash]}", "--steps", "4",
             "--seed", "3"], 0),
    ("run-nothing-enabled", ["--dir", "{wd}", "instance", "run",
                             "{create_guarded[instance_hash]}"], 0),
    ("create-fourth", ["--dir", "{wd}", "instance", "create", "{register[model_hash]}",
                       "--nonce", "4"], 0),
    ("run-defaults", ["--dir", "{wd}", "instance", "run", "{create_fourth[instance_hash]}"],
     0),
    ("terminate", ["--dir", "{wd}", "instance", "terminate", "{create_third[instance_hash]}"],
     0),
    ("step-terminated", ["--dir", "{wd}", "instance", "step", "{create_third[instance_hash]}",
                         "ab"], "InstanceTerminated"),
    ("terminate-unknown", ["--dir", "{wd}", "instance", "terminate", H], "UnknownInstance"),
    ("step-delegated", ["--dir", "{wd}", "--account", "{bob[account]}", "instance", "step",
                        "{create_delegated[instance_hash]}", "ab"], 0),
    ("track", ["--dir", "{wd}", "track"], 0),
    ("track-from-environment", ["track"], 0),
    ("track-from-working-directory", ["track"], 0),
    ("export", ["--dir", "{wd}", "protocol", "export", "{create[instance_hash]}"], 0),
    ("verify", ["--dir", "{wd}", "protocol", "verify", "{create[instance_hash]}"], 0),
    ("export-unknown", ["--dir", "{wd}", "protocol", "export", H], "UnknownSubject"),
    ("verify-unknown", ["--dir", "{wd}", "protocol", "verify", H], "UnknownSubject"),
    ("chain-verify", ["--dir", "{wd}", "chain", "verify"], 0),
    ("step-corrupt", ["--dir", "{wd}", "--account", "{bob[account]}", "instance", "step",
                      "{create_delegated[instance_hash]}", "bc"], "CorruptContent"),
    ("verify-corrupt", ["--dir", "{wd}", "protocol", "verify",
                        "{create_delegated[instance_hash]}"], "VerificationFailed"),
    ("chain-verify-no-ledger", ["--dir", "{tmp}/empty", "chain", "verify"], "ChainCorrupt"),
    ("demo", ["demo", "multiparty", "--parties", "2", "--steps", "3", "--seed", "5",
              "--workdir", "{tmp}/demo"], 0),
    ("demo-defaults", ["demo", "multiparty", "--workdir", "{tmp}/demo"], 0),
    # usage errors: exit 2, nothing on stdout, the ledger untouched
    ("demo-one-party", ["demo", "multiparty", "--parties", "1", "--workdir", "{tmp}/d2"], 2),
    ("demo-negative-steps", ["demo", "multiparty", "--steps", "-1", "--workdir", "{tmp}/d2"],
     2),
    ("demo-workdir-file", ["demo", "multiparty", "--workdir", "{cycle}"], 2),
    ("demo-parties-not-int", ["demo", "multiparty", "--parties", "x"], 2),
    ("run-negative-steps", ["--dir", "{wd}", "instance", "run",
                            "{create_delegated[instance_hash]}", "--steps", "-1"], 2),
    ("run-seed-not-int", ["--dir", "{wd}", "instance", "run",
                          "{create_delegated[instance_hash]}", "--seed", "x"], 2),
    ("register-missing-file", ["--dir", "{wd}", "model", "register", "{tmp}/missing.json"], 2),
    ("register-directory", ["--dir", "{wd}", "model", "register", "{tmp}"], 2),
    ("register-no-file", ["--dir", "{wd}", "model", "register"], 2),
    ("dir-is-a-file", ["--dir", "{cycle}", "track"], 2),
    ("account-file-is-a-directory", ["--dir", "{wd}", "--account-file", "{tmp}",
                                     "account", "new"], 2),
    ("seed-not-int", ["--dir", "{wd}", "--seed", "x", "account", "new"], 2),
    ("create-no-nonce", ["--dir", "{wd}", "instance", "create", "{register[model_hash]}"], 2),
    ("create-nonce-not-int", ["--dir", "{wd}", "instance", "create",
                              "{register[model_hash]}", "--nonce", "x"], 2),
    ("step-extra-argument", ["--dir", "{wd}", "instance", "step", H, "ab", "cd"], 2),
    ("delegate-one-argument", ["--dir", "{wd}", "delegate", H], 2),
    ("unknown-command", ["--dir", "{wd}", "nope"], 2),
    ("unknown-subcommand", ["--dir", "{wd}", "instance", "nope"], 2),
    ("unknown-option", ["--dir", "{wd}", "--nope", "track"], 2),
    ("abbreviated-option", ["--dir", "{wd}", "--acc", STRANGER, "track"], 2),
    ("option-after-command", ["track", "--dir", "{wd}"], 2),
    ("no-command", [], 2),
    ("no-subcommand", ["--dir", "{wd}", "protocol"], 2),
    # last: the ledger is edited
    ("chain-verify-tampered", ["--dir", "{wd}", "chain", "verify"], "ChainCorrupt"),
]

BEFORE = {
    "step-corrupt": corrupt_latest_state,
    "chain-verify-tampered": tamper_ledger,
}

PINNED = {
    "no-account": (20, "afcf468d34797b9761a469b300e192ffc12a8a6c6662762d246a3196fc021bf5"),
    "alice": (0, "200ac81b75796b01e70fbbdd78cfcfb95c9a64ccc594bb733bee27ac7030f17b"),
    "bob": (0, "4f7d56b5e9b81962c790ccb9f8dfa3f8e23c45d66a05a731e4a11cb6a3fb001d"),
    "cara": (0, "5477391a35835710d3c0105be6579434fbbe4ce5db2eabfe1df9fca2d6d5d961"),
    "register": (0, "4e23d7697f20fd3b9478a2bdb5d047d0ab36f59f2289f448466d119d8781c69f"),
    "register-again": (30, "2924540b0b478a0f32dc26d936e8286802b8884b4de095255edc5d37cd5cc07f"),
    "register-unencodable-name":
        (29, "3183fbe3550917ee0853eccbe1bc6ff0f39b67364539ae9cd5a0c7521969f1b6"),
    "register-guarded": (0, "25dc6c99d415f591614902fb125ac1c3cadb929776e0a5b2924d7a822a4df41b"),
    "invalid-InvalidModelDocument":
        (10, "cd4e13a6b03b682587446f2feb0585a8e88d587d48695759d8b57d62e3458506"),
    "invalid-EmptyStates":
        (11, "14ece6bbd7cd1bbba0e3187a21ca2d73855d181dd46b5c3215ebd28973faa100"),
    "invalid-MissingInitial":
        (12, "768b45b6f692c706b7d9107c2233cd5a76884e6e1e9ade0b91fb339f264e2487"),
    "invalid-DanglingTransition":
        (13, "f313b6323bed00116aed2246273570c89c70fb6ba25d1d2bd0e7acea3b5479cd"),
    "invalid-DuplicateTransitionId":
        (14, "6de212fee3b11e39bb646f0f373e286dd80ada7abd9ac71b7b311a510730069d"),
    "invalid-UnknownVariable":
        (15, "b53cafc76bc67c3e54749629a0d8098c8f3a941ddbd78c157826bb4fe3ed1440"),
    "stranger-register": (20, "00468f8888e403af432cc7e4472c932d9a2ed05175e9df37501506e0a57ce0d3"),
    "create-unregistered":
        (40, "ade842277d5e9b38a590d2c043b4265db40f2613cddd61e075dc83a5bafd49fb"),
    "create-unstored": (51, "4a6ccf89d8176b42a171286fbb608ac62d72b5e7f8c4c54b21cf21763660f990"),
    "create": (0, "ca2640ad3579a78f445d1a6259b73f0ef6264f9176442b0545a07313860bb178"),
    "create-again": (34, "4318e8920c42e70c2b68324ed41a838e34f454cdb4a4895dd86ddb55c440be2c"),
    "create-denied": (33, "cbbcf96084118dcd38f9a96d8af77cb5075944b79c75eaac210725620494fdbf"),
    "delegate": (0, "9ccea1bffe49727f81566f47cb56c12e4e481a5e11f537a860c073e2e8036570"),
    "create-delegated": (0, "95507d40c9b4677ebb966238eed2efac523d0fb4c471fe3feff07540d62d944c"),
    "create-from-account-file":
        (33, "cbbcf96084118dcd38f9a96d8af77cb5075944b79c75eaac210725620494fdbf"),
    "create-third": (0, "dc7a262d37d199b24490420460e4f6fb948db3fef2d5480daad311bb16dd1d19"),
    "create-guarded": (0, "d9fbed89995b3b317ad0e2a96917e026b67c89a98e4c8cc12ddfc633b7a0536d"),
    "step": (0, "b9e2eb92f9999b00393cedaa10792ccf286c603abcee680bdec6065fa5e6a6ba"),
    "step-wrong-source": (42, "6132cb54efb87ee52ead5102873697a153e7a61b3e4876923ac5d528d01e9097"),
    "step-unknown-transition":
        (41, "739efbc20adc769f83d21ff022cd250e1d7cefe2733b7c8080fc867223cb7154"),
    "step-unknown-instance":
        (38, "0839db26a0b8a1765c99b6fecc4fcaaac10075fe89771ac7500af304bea48460"),
    "step-guard": (43, "9619518da3bd9256273d73aa647e7f59973bf9cb671afb1dc9e7b7e490b75bbf"),
    "run": (0, "0728db3c0643aed5e31f571b9485035838ee45693d616be8fe809fca47861d51"),
    "run-nothing-enabled": (0, "815cb6a5114e3b8cc4cd000dafea78073449a23368dfe6c00298b8a89e746b7d"),
    "create-fourth": (0, "2773152f67d67adc92682e8bfe83e8818ea2c0e732e461d746402c2d85d6bc4e"),
    "run-defaults": (0, "e8a80522ab13059ebd353f69e93a9f0d562c521ddc6c9e34b85853f853349c92"),
    "terminate": (0, "c268e7eff257380b18871d8731b8de51ea01346c148da99e5d685fcf1bb760bb"),
    "step-terminated": (36, "7e2515cb67c8fe1c11134f1b3c69e6b8e183214a70db263193bfb1d43a413d6e"),
    "terminate-unknown": (35, "74c47833240945906937a471193a2ea09ee63924e8fe3f5700e1bfebd904c303"),
    "step-delegated": (0, "79e83d7e27e21149be525dde3f4814851f713d3bd1c2bd5a925f3f0a3bfca503"),
    "track": (0, "f86a61ab16dbb43d6b94dc4392d47be0ce645b1210924a888dcc5c7fd70b9cd8"),
    "track-from-environment":
        (0, "f86a61ab16dbb43d6b94dc4392d47be0ce645b1210924a888dcc5c7fd70b9cd8"),
    "track-from-working-directory":
        (0, "f86a61ab16dbb43d6b94dc4392d47be0ce645b1210924a888dcc5c7fd70b9cd8"),
    "export": (0, "c7e5d0fc5c5a258729f9579342968343658e693fb901d74d99cf0db72e97bc4a"),
    "verify": (0, "2a78d167fa5bb03cd80db537486e0ae38757ffd82aadc03195ec90af439deccb"),
    "export-unknown": (38, "cb346b87fe26508080fd3075064517bcceadc4a707134eed9b6d04bf2478554c"),
    "verify-unknown": (38, "cb346b87fe26508080fd3075064517bcceadc4a707134eed9b6d04bf2478554c"),
    "chain-verify": (0, "9ffc294579228c995767749a084d3d02bed296f9ca10096db3e75ff49aab0417"),
    "step-corrupt": (52, "6042caf6b6aa87c1d1004fe9804b8ff1ce3e37889d0a53b00de3282d5b2b64ae"),
    "verify-corrupt": (60, "290bfa4f28aba8512057f0e34d4c98c19f125d141646b2ec7f857f7d376d8b36"),
    "chain-verify-no-ledger":
        (24, "82583911b61a44e705c04ab19db70e9f2cf327bf6d1b2bdb103772b72acbe8d8"),
    "demo": (0, "c61cc8d23ff22e3e0e8ff1065828e4cb06094b92f73bb804b112eb62f3a8d0e3"),
    "demo-defaults": (0, "17917583917bd05087b704c8fdf01a353fbf189974cfdd6d8e8fea3fda2b1650"),
    "chain-verify-tampered":
        (24, "ededafe791573b95ca379047cf78c9d801335f44d1c0b43392b1176fde9141e2"),
}

COMMANDS = [[], ["account"], ["account", "new"], ["model"], ["model", "register"],
            ["delegate"], ["instance"], ["instance", "create"], ["instance", "step"],
            ["instance", "run"], ["instance", "terminate"], ["track"], ["protocol"],
            ["protocol", "export"], ["protocol", "verify"], ["chain"], ["chain", "verify"],
            ["demo"], ["demo", "multiparty"]]


def test_session_exit_codes_and_stdout_are_pinned(tmp_path, monkeypatch):
    monkeypatch.delenv("STATETRAIL_DIR", raising=False)
    runner = CliRunner()
    values = {"tmp": str(tmp_path), "wd": str(tmp_path / "wd"),
              "minimal_hash": model_hash(validate_model(MINIMAL_DOC))}
    for name, doc in {"cycle": CYCLE_DOC, "guarded": GUARDED_DOC, "minimal": MINIMAL_DOC,
                      **INVALID_DOCS}.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(doc))
        values[name] = str(tmp_path / f"{name}.json")
    got = {}
    for label, argv, expected in SESSION:
        key = label.replace("-", "_")
        if label in BEFORE:
            BEFORE[label](tmp_path, values)
        env = {"STATETRAIL_DIR": values["wd"]} if label == "track-from-environment" else {}
        if label == "track-from-working-directory":
            monkeypatch.chdir(tmp_path / "wd")
        ledger = (tmp_path / "wd" / "ledger.jsonl")
        before = ledger.read_bytes() if ledger.exists() else None
        result = runner.invoke(cli, [a.format_map(values) for a in argv], env=env)
        monkeypatch.chdir(tmp_path)
        code = EXIT_CODES[expected] if isinstance(expected, str) else expected
        assert result.exit_code == code, (label, result.output)
        if code == 2:
            assert result.stdout_bytes == b"", label
            assert (ledger.read_bytes() if ledger.exists() else None) == before, label
        elif code:
            error = json.loads(result.stdout_bytes.splitlines()[-1])
            assert error.keys() == {"detail", "error"} and error["error"] == expected, label
        out = result.stdout_bytes.replace(str(tmp_path).encode(), b"TMP")
        if result.stdout_bytes.strip():
            values[key] = json.loads(result.stdout_bytes.splitlines()[-1])
        if code != 2:
            got[label] = (result.exit_code, hashlib.sha256(out).hexdigest())
    assert got["track-from-environment"] == got["track-from-working-directory"] == got["track"]
    assert got == PINNED


def test_every_command_has_help():
    runner = CliRunner()
    for path in COMMANDS:
        result = runner.invoke(cli, [*path, "--help"])
        assert result.exit_code == 0, path
        assert b"Usage" in result.stdout_bytes, path


def test_every_reachable_exit_code_is_pinned():
    reached = {expected for _, _, expected in SESSION if isinstance(expected, str)}
    # reachable only by a concurrent writer, or by a library caller
    unreached = {"BadNonce", "InvalidCursor", "AccountExists",
                 "InvalidDescriptor", "StaleChain", "UnknownModel",
                 "RegistrationFailed", "OutOfOrderEvent", "ConvergenceFailed"}
    assert reached | unreached == set(EXIT_CODES)
