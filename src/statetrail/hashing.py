"""Canonical JSON bytes and content hashing.

Every hashable value in the system (models, instance states, blocks,
registry calls) is serialized to one canonical byte form: UTF-8 JSON with
keys sorted by code point, no insignificant whitespace, all strings in
Unicode NFC. Hashes are SHA-256 digests rendered as "0x" + 64 lowercase
hex digits.
"""

from __future__ import annotations

import hashlib
import json
import re
import unicodedata
from typing import Any

HASH_HEX_LEN = 64
ZERO_HASH = "0x" + "0" * HASH_HEX_LEN

ACCOUNT_HEX_LEN = 40
FAUCET_ACCOUNT = "0x" + "0" * ACCOUNT_HEX_LEN

_HASH_RE = re.compile(r"^0x[0-9a-f]{64}$")
_ACCOUNT_RE = re.compile(r"^0x[0-9a-f]{40}$")


def nfc(value: Any) -> Any:
    """The value with every string in it, keys included, in Unicode NFC."""
    if isinstance(value, str):
        return unicodedata.normalize("NFC", value)
    if isinstance(value, dict):
        return {nfc(k): nfc(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [nfc(v) for v in value]
    return value


def canonical_bytes(value: Any) -> bytes:
    """Serialize a JSON-compatible value to its canonical byte form."""
    return json.dumps(
        nfc(value),
        sort_keys=True,
        separators=(",", ":"),
        ensure_ascii=False,
        allow_nan=False,
    ).encode("utf-8")


def digest(data: bytes) -> str:
    """SHA-256 of raw bytes as a 0x-prefixed lowercase hex string."""
    return "0x" + hashlib.sha256(data).hexdigest()


def content_hash(value: Any) -> str:
    """Digest of the canonical byte form of a JSON-compatible value."""
    return digest(canonical_bytes(value))


def is_content_hash(value: object) -> bool:
    return isinstance(value, str) and _HASH_RE.match(value) is not None


def is_account_id(value: object) -> bool:
    return isinstance(value, str) and _ACCOUNT_RE.match(value) is not None
