"""Canonical JSON bytes and content hashing.

Every hashable value in the system (models, instance states, blocks,
registry calls) is serialized to one canonical byte form: UTF-8 JSON with
keys sorted by code point, no insignificant whitespace, all strings in
Unicode NFC. Hashes are SHA-256 digests rendered as "0x" + 64 lowercase
hex digits.

`canonical_bytes` serializes first and checks the whole text for NFC in
one C call. Strings sit between ASCII quotes, which never compose or
reorder with their neighbours, so NFC text means every string and key in
it is NFC and the text is already canonical. Only text that fails the
check (non-NFC input, or an escaped control character followed by a
combining mark), or that has no encoding, is encoded again after the
`nfc` walk. So the walk runs only for non-NFC input and those rare
cases, and the bytes are the same as walking every value first.

`JSONEncoder.encode` builds a C encoder and a float formatter on every
call; `canonical_bytes` calls one C encoder built at import, with the
same bytes and the same errors.
"""

from __future__ import annotations

import hashlib
import json
import re
import unicodedata
from json.encoder import c_make_encoder, encode_basestring
from typing import Any

HASH_HEX_LEN = 64
ZERO_HASH = "0x" + "0" * HASH_HEX_LEN

ACCOUNT_HEX_LEN = 40
FAUCET_ACCOUNT = "0x" + "0" * ACCOUNT_HEX_LEN

# how deep the lists and objects of an admitted call or record may nest: far below any
# recursion limit, so what a party accepts depends on neither its interpreter nor its stack
MAX_DEPTH = 32

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


_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"), ensure_ascii=False,
                            allow_nan=False)

if c_make_encoder is not None:
    # (markers, default, encoder, indent, key and item separators, sort_keys, skipkeys,
    # allow_nan); markers None: a value that contains itself is a RecursionError, as in nfc
    _C_ENCODE = c_make_encoder(None, _ENCODER.default, encode_basestring, None,
                               ":", ",", True, False, False)

    def _encode(value: Any) -> str:
        return "".join(_C_ENCODE(value, 0))
else:
    _encode = _ENCODER.encode


def canonical_bytes(value: Any) -> bytes:
    """Serialize a JSON-compatible value to its canonical byte form."""
    try:
        text = _encode(value)
    except (TypeError, ValueError):
        text = None  # NFC can merge two keys and drop the value that failed
    if text is None or not unicodedata.is_normalized("NFC", text):
        text = _encode(nfc(value))
    return text.encode("utf-8")


def depth(value: Any) -> int:
    """How deep lists and objects nest in `value`: 0 for a scalar, 1 for [] or {}.

    Walks one level at a time, so no depth exhausts the stack.
    """
    count, level = 0, [value]
    while level := [v for v in level if isinstance(v, (dict, list, tuple))]:
        count += 1
        level = [x for v in level for x in (v.values() if isinstance(v, dict) else v)]
    return count


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
