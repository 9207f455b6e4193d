"""Public surface: package exports, CLI options and error names.

These pins make a change to the surface a deliberate edit of this file.
"""

import argparse
import subprocess
import sys
import warnings

import statetrail
from statetrail import errors
from statetrail.cli import COMMANDS, GLOBAL_OPTIONS, _parser
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
        "get_owner",
        "get_transitions",
        "has_model",
        "restore",
        "snapshot",
    ]


def test_star_import_binds_every_export():
    namespace = {}
    exec("from statetrail import *", namespace)
    assert sorted(set(namespace) - {"__builtins__"}) == sorted(statetrail.__all__)


def test_cli_import_leaves_out_what_only_some_commands_run():
    # a fresh interpreter, since this one has imported every module already
    code = ("import sys, statetrail.cli; print(sorted({'statetrail.tracker', 'statetrail.demo',"
            " 'dataclasses', 'click'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out == "[]\n"


def test_cli_global_options_and_commands():
    assert [names for names, _ in GLOBAL_OPTIONS] == [
        ("--dir",), ("--account",), ("--account-file",), ("--seed",)]
    assert {" ".join(words): [names[0] for names, _ in arguments]
            for words, _, arguments in COMMANDS} == {
        "account new": ["--save"],
        "model register": ["model_file", "--id", "--name"],
        "delegate": ["subject_hash", "delegate_account"],
        "instance create": ["model_hash", "--nonce", "--id", "--name"],
        "instance step": ["instance_hash", "transition_id"],
        "instance run": ["instance_hash", "--steps", "--seed"],
        "instance terminate": ["instance_hash"],
        "track": [],
        "protocol export": ["instance_hash"],
        "protocol verify": ["instance_hash"],
        "chain verify": [],
        "demo multiparty": ["--parties", "--steps", "--seed", "--workdir"],
    }


def test_cli_parser_builds_without_warnings():
    # argparse deprecates a metavar on a flag from 3.12 and refuses it from 3.14,
    # and every command builds the whole tree, so a warning here breaks them all
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        parsers = [_parser("statetrail")]
    flags = []
    while parsers:
        for action in parsers.pop()._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            elif action.nargs == 0:
                flags.append((action.option_strings, action.metavar))
    assert ["--save", "--no-save"] in [names for names, _ in flags]
    assert [metavar for _, metavar in flags if metavar is not None] == []


def test_error_names_map_back_to_their_classes():
    for name in EXIT_CODES:
        cls = getattr(errors, name)
        assert issubclass(cls, TrailError)
        assert error_class(name) is cls


def test_unknown_error_name_gives_registration_failed():
    for name in ("NoSuchError", "", "exit_code", "EXIT_CODES"):
        assert error_class(name) is RegistrationFailed
