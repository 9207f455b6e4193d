"""Public surface: package exports, CLI options and error names.

These pins make a change to the surface a deliberate edit of this file.
"""

import subprocess
import sys

import statetrail
from statetrail import errors
from statetrail.cli import cli
from statetrail.errors import EXIT_CODES, RegistrationFailed, TrailError, error_class


def test_package_exports():
    assert statetrail.__all__ == [
        "Block",
        "ContentStore",
        "Descriptor",
        "DirectoryContentStore",
        "Engine",
        "EventRecord",
        "ExecutionTrace",
        "FAUCET_ACCOUNT",
        "InstanceProtocol",
        "InstanceRecord",
        "InstanceState",
        "Ledger",
        "LedgerTransaction",
        "ModelRecord",
        "ProtocolEntry",
        "Registry",
        "StateMachineModel",
        "Tracker",
        "TransitionDef",
        "TransitionRecord",
        "TxReceipt",
        "ZERO_CURSOR",
        "ZERO_HASH",
        "canonical_bytes",
        "canonical_serialize",
        "content_hash",
        "demo_model",
        "digest",
        "enabled_transitions",
        "export_protocol",
        "fire",
        "import_protocol",
        "load_model_file",
        "model_hash",
        "multiparty",
        "parse_model_bytes",
        "parse_state_content",
        "state_content",
        "state_hash",
        "validate_model",
        "verify_chain_file",
        "verify_entry",
    ]
    assert all(hasattr(statetrail, name) for name in statetrail.__all__)


def test_registry_changes_only_through_apply():
    assert [name for name in dir(statetrail.Registry) if not name.startswith("_")] == [
        "apply",
        "get_instance",
        "get_model",
        "get_owner",
        "get_transitions",
        "has_model",
        "instance_hashes",
        "restore",
        "snapshot",
        "snapshot_bytes",
    ]


def test_star_import_binds_every_export():
    namespace = {}
    exec("from statetrail import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(statetrail.__all__)


def test_cli_import_leaves_out_what_only_some_commands_run():
    # a fresh interpreter, since this one has imported every module already
    code = ("import sys, statetrail.cli; print(sorted({'statetrail.tracker', 'statetrail.demo',"
            " 'dataclasses'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out == "[]\n"


def test_cli_global_options_and_commands():
    assert [opt for param in cli.params for opt in param.opts] == [
        "--dir", "--account", "--account-file", "--seed"]
    assert sorted(cli.commands) == [
        "account", "chain", "delegate", "demo", "instance", "model", "protocol", "track"]


def test_error_names_map_back_to_their_classes():
    for name in EXIT_CODES:
        cls = getattr(errors, name)
        assert issubclass(cls, TrailError)
        assert error_class(name) is cls


def test_unknown_error_name_gives_registration_failed():
    for name in ("NoSuchError", "", "exit_code", "EXIT_CODES"):
        assert error_class(name) is RegistrationFailed
