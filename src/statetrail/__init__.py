"""Tracked execution of state-machine models on a simulated ledger.

Models and their run-time instances are registered by content hash on an
append-only ledger through a registry contract; an engine fires guarded
transitions and registers each pre/post state pair; tracker clients
rebuild per-instance protocols from the emitted events and verify them
against the model.

The names below are imported from their modules on first use, so a
program that imports one module pays for that module alone.
"""

from importlib import import_module

_ORIGINS = {
    "demo": ("demo_model", "multiparty"),
    "engine": ("Engine", "ExecutionTrace", "InstanceState", "enabled_transitions", "fire",
               "parse_state_content", "state_content", "state_hash"),
    "hashing": ("FAUCET_ACCOUNT", "ZERO_HASH", "canonical_bytes", "content_hash", "digest"),
    "ledger": ("Block", "EventRecord", "Ledger", "LedgerTransaction", "TxReceipt",
               "ZERO_CURSOR", "verify_chain_file"),
    "model": ("StateMachineModel", "TransitionDef", "canonical_serialize", "load_model_file",
              "model_hash", "parse_model_bytes", "validate_model"),
    "registry": ("Descriptor", "InstanceRecord", "ModelRecord", "Registry", "TransitionRecord"),
    "store": ("ContentStore", "DirectoryContentStore"),
    "tracker": ("InstanceProtocol", "ProtocolEntry", "Tracker", "export_protocol",
                "import_protocol", "verify_entry"),
}
_MODULE_OF = {name: module for module, names in _ORIGINS.items() for name in names}

__all__ = sorted(_MODULE_OF)

__version__ = "0.1.0"


def __getattr__(name: str):
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value

