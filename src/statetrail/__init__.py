"""Tracked execution of state-machine models on a simulated ledger.

Models and their run-time instances are registered by content hash on an
append-only ledger through a registry contract; an engine fires guarded
transitions and registers each pre/post state pair; tracker clients
rebuild per-instance protocols from the emitted events and verify them
against the model.
"""

from .demo import demo_model, multiparty
from .engine import (
    Engine,
    ExecutionTrace,
    InstanceState,
    enabled_transitions,
    fire,
    parse_state_content,
    state_content,
    state_hash,
)
from .hashing import FAUCET_ACCOUNT, ZERO_HASH, canonical_bytes, content_hash, digest
from .ledger import (
    Block,
    EventRecord,
    Ledger,
    LedgerTransaction,
    TxReceipt,
    ZERO_CURSOR,
    verify_chain_file,
)
from .model import (
    StateMachineModel,
    TransitionDef,
    canonical_serialize,
    load_model_file,
    model_hash,
    parse_model_bytes,
    validate_model,
)
from .registry import (
    Descriptor,
    InstanceRecord,
    ModelRecord,
    Registry,
    TransitionRecord,
)
from .store import ContentStore, DirectoryContentStore
from .tracker import (
    InstanceProtocol,
    ProtocolEntry,
    Tracker,
    export_protocol,
    import_protocol,
    verify_entry,
)

__all__ = [
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

__version__ = "0.1.0"
