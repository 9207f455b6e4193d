"""Hash-addressed content stores.

The ledger records only hashes; parties resolve them to bytes through a
content store. Keys are the digest of the content, and reads re-verify,
so a missing entry (MissingContent) is always distinguishable from a
tampered one (CorruptContent).
"""

from __future__ import annotations

from pathlib import Path

from .errors import CorruptContent, MissingContent
from .hashing import digest, is_content_hash


class ContentStore:
    """In-memory hash -> bytes map."""

    def __init__(self) -> None:
        self._entries: dict[str, bytes] = {}

    def put(self, content: bytes) -> str:
        key = digest(content)
        self._entries[key] = content
        return key

    def has(self, key: str) -> bool:
        return key in self._entries

    def get(self, key: str) -> bytes:
        if key not in self._entries:
            raise MissingContent(f"no content stored for {key}")
        content = self._entries[key]
        if digest(content) != key:
            raise CorruptContent(f"stored content does not hash to {key}")
        return content


class DirectoryContentStore:
    """On-disk store: one file per hash, named by the 0x-hex digest."""

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)

    def _path(self, key: str) -> Path:
        if not is_content_hash(key):
            raise MissingContent(f"malformed content hash {key!r}")
        return self.root / key

    def put(self, content: bytes) -> str:
        key = digest(content)
        self._path(key).write_bytes(content)
        return key

    def has(self, key: str) -> bool:
        return is_content_hash(key) and self._path(key).is_file()

    def get(self, key: str) -> bytes:
        try:
            content = self._path(key).read_bytes()
        except (FileNotFoundError, IsADirectoryError):
            raise MissingContent(f"no content stored for {key}") from None
        if digest(content) != key:
            raise CorruptContent(f"stored content does not hash to {key}")
        return content
