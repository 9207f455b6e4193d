"""Error taxonomy with stable names and CLI exit codes.

Each failure mode has one exception class; its class name is the stable
error name used in on-ledger failure markers and CLI output, and the
EXIT_CODES table maps those names to process exit codes. 0 is reserved
for full success, 1 for unexpected internal failures.
"""

from __future__ import annotations


class TrailError(Exception):
    """Base class for all named failures."""

    @property
    def name(self) -> str:
        return type(self).__name__


# model document validation
class InvalidModelDocument(TrailError): ...
class EmptyStates(TrailError): ...
class MissingInitial(TrailError): ...
class DanglingTransition(TrailError): ...
class DuplicateTransitionId(TrailError): ...
class UnknownVariable(TrailError): ...


# ledger
class UnknownSender(TrailError): ...
class BadNonce(TrailError): ...
class InvalidCursor(TrailError): ...
class AccountExists(TrailError): ...
class ChainCorrupt(TrailError): ...


# registry
class RegistryError(TrailError):
    """Failures raised while applying a registry call; recorded on-ledger."""


class UnknownCall(RegistryError): ...
class DuplicateModel(RegistryError): ...
class InvalidDescriptor(RegistryError): ...
class UnknownModel(RegistryError): ...
class NotAuthorized(RegistryError): ...
class DuplicateInstance(RegistryError): ...
class UnknownInstance(RegistryError): ...
class InstanceTerminated(RegistryError): ...
class StaleChain(RegistryError): ...
class UnknownSubject(RegistryError): ...


# engine
class ModelNotRegistered(TrailError): ...
class UnknownTransition(TrailError): ...
class WrongSourceState(TrailError): ...
class GuardFailed(TrailError): ...
class RegistrationFailed(TrailError): ...


# tracker / content store
class OutOfOrderEvent(TrailError): ...
class MissingContent(TrailError): ...
class CorruptContent(TrailError): ...


# CLI-level outcomes that are reports rather than exceptions
class VerificationFailed(TrailError): ...
class ConvergenceFailed(TrailError): ...


EXIT_CODES: dict[str, int] = {
    "InvalidModelDocument": 10,
    "EmptyStates": 11,
    "MissingInitial": 12,
    "DanglingTransition": 13,
    "DuplicateTransitionId": 14,
    "UnknownVariable": 15,
    "UnknownSender": 20,
    "BadNonce": 21,
    "InvalidCursor": 22,
    "AccountExists": 23,
    "ChainCorrupt": 24,
    "UnknownCall": 29,
    "DuplicateModel": 30,
    "InvalidDescriptor": 31,
    "UnknownModel": 32,
    "NotAuthorized": 33,
    "DuplicateInstance": 34,
    "UnknownInstance": 35,
    "InstanceTerminated": 36,
    "StaleChain": 37,
    "UnknownSubject": 38,
    "ModelNotRegistered": 40,
    "UnknownTransition": 41,
    "WrongSourceState": 42,
    "GuardFailed": 43,
    "RegistrationFailed": 44,
    "OutOfOrderEvent": 50,
    "MissingContent": 51,
    "CorruptContent": 52,
    "VerificationFailed": 60,
    "ConvergenceFailed": 61,
}


def exit_code(error: TrailError) -> int:
    return EXIT_CODES.get(error.name, 1)


def error_class(name: str) -> type[TrailError]:
    """Resolve a stable error name back to its exception class."""
    cls = globals().get(name)
    if isinstance(cls, type) and issubclass(cls, TrailError):
        return cls
    return RegistrationFailed
