"""Durable files: JSON-lines record logs and whole-file replacement.

Every file kept across a restart is written here, so the rules for a
crash mid-write live in one place.  A :class:`RecordLog` (the queue
WAL, the observation cache, a span trace) gets each record in one
``write``; replay cuts off a torn final line (never acknowledged) and
terminates a parsable one, and any other unparsable line raises.
:func:`atomic_write` replaces an artifact or manifest whole.
"""

from __future__ import annotations

import json
import os
from pathlib import Path
from typing import Iterator

__all__ = ["RecordLog", "TornRecord", "atomic_write", "read_records"]


class TornRecord(ValueError):
    """The final line does not parse and has no newline; ``offset`` is
    the byte at which it starts."""

    def __init__(self, message: str, offset: int):
        super().__init__(message)
        self.offset = offset


def read_records(path: str | Path, kind: str) -> Iterator[tuple[int, dict]]:
    """Yield ``(line_no, record)`` per non-blank line of a JSON-lines
    file; an unparsable line raises ``ValueError("<path>:<line>:
    malformed <kind> line")``, a :class:`TornRecord` if it is final and
    unterminated."""
    offset = 0
    with Path(path).open("rb") as fh:
        for line_no, raw in enumerate(fh, start=1):
            if line := raw.strip():
                try:
                    record = json.loads(line)
                except ValueError as exc:
                    message = f"{path}:{line_no}: malformed {kind} line"
                    if raw.endswith(b"\n"):
                        raise ValueError(message) from exc
                    raise TornRecord(message, offset) from exc
                yield line_no, record
            offset += len(raw)


def _write_all(fd: int, data: bytes) -> None:
    view = memoryview(data)
    while view:  # one write unless the kernel takes less
        view = view[os.write(fd, view):]


class RecordLog:
    """An append-only JSON-lines file, created (with its directory) on
    construction.  It holds no file handle, so owners need no ``close``
    and stay picklable; ``fsync`` syncs every append."""

    def __init__(self, path: str | Path, kind: str, fsync: bool = False):
        self.path = Path(path)
        self.kind = kind
        self.fsync = fsync
        self.torn = 0  # torn final records dropped by replay()
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.open("ab").close()

    def replay(self) -> Iterator[tuple[int, dict]]:
        """Yield the intact records, then repair the tail so the next
        append starts a line of its own."""
        try:
            yield from read_records(self.path, self.kind)
        except TornRecord as torn:
            os.truncate(self.path, torn.offset)
            self.torn += 1
            return
        with self.path.open("rb") as fh:
            fh.seek(max(fh.seek(0, os.SEEK_END) - 1, 0))
            if fh.read(1) not in (b"", b"\n"):
                self.append(b"\n")

    def append(self, data: bytes) -> None:
        """Append whole, already-framed record lines."""
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
        try:
            _write_all(fd, data)
            if self.fsync:
                os.fsync(fd)
        finally:
            os.close(fd)


def atomic_write(path: str | Path, data: bytes) -> None:
    """Replace ``path`` whole: write and fsync ``<path>.tmp``, rename it
    over ``path``, fsync the directory.  A crash leaves the old file or
    the new one (and maybe a stale ``.tmp`` the next write replaces)."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        _write_all(fd, data)
        os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)
    fd = os.open(path.parent, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
