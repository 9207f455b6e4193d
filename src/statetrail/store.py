"""Hash-addressed content stores.

The ledger records only hashes; parties resolve them to bytes through a
content store. Keys are the digest of the content, and reads re-verify,
so a missing entry (MissingContent) is always distinguishable from a
tampered one (CorruptContent).
"""

from __future__ import annotations

import contextlib
import os
import stat
import threading

from .errors import CorruptContent, MissingContent
from .hashing import digest, is_content_hash

STORE_DIR = "store"  # its name in a working directory


class NotRegularFile(OSError): ...  # a FIFO or device where a regular file was expected


def open_regular(path: str | os.PathLike, buffering: int = -1):
    """Open a regular file for reading without blocking; a FIFO or device raises NotRegularFile."""
    fd = os.open(path, os.O_RDONLY | os.O_NONBLOCK)
    if stat.S_ISREG(mode := os.fstat(fd).st_mode):
        return open(fd, "rb", buffering)
    os.close(fd)
    raise (IsADirectoryError if stat.S_ISDIR(mode) else NotRegularFile)(0, "not a regular file")


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
    """On-disk store: one file per hash, named by the 0x-hex digest.

    A file appears at its key only whole: `put` writes a temporary file
    beside it, named for the writing process and thread, and renames it.
    """

    def __init__(self, root: str | os.PathLike):
        self.root = os.fspath(root)
        try:
            os.makedirs(self.root, exist_ok=True)
        except (FileExistsError, NotADirectoryError):
            raise MissingContent(f"the content store {self.root} is not a directory") from None

    def _path(self, key: str) -> str:
        if not is_content_hash(key):
            raise MissingContent(f"malformed content hash {key!r}")
        return os.path.join(self.root, key)

    def put(self, content: bytes) -> str:
        key = digest(content)
        path = self._path(key)
        tmp = f"{path}.{os.getpid()}-{threading.get_ident()}.tmp"
        try:
            with open(tmp, "wb") as fh:
                fh.write(content)
            os.replace(tmp, path)
        except BaseException:
            with contextlib.suppress(OSError):
                os.unlink(tmp)
            raise
        return key

    def has(self, key: str) -> bool:
        return is_content_hash(key) and os.path.isfile(self._path(key))

    def get(self, key: str) -> bytes:
        try:
            with open_regular(self._path(key), buffering=0) as fh:
                content = fh.read()
        except (FileNotFoundError, IsADirectoryError, NotRegularFile):
            raise MissingContent(f"no content stored for {key}") from None
        if digest(content) != key:
            raise CorruptContent(f"stored content does not hash to {key}")
        return content
