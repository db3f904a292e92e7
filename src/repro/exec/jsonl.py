"""Reading append-only JSONL files that a crash may have cut short, and
replacing whole files so that a crash never cuts them.

Every durable log of the project -- the history database, the service
result store, the telemetry trace sink -- appends one JSON document per
line.  A process killed mid-append leaves a final line with no trailing
newline; every earlier line is complete.  :class:`JsonlReader` is the one
rule for reading such a file: the complete prefix loads, the torn tail
is dropped with one warning on stderr that names the dropped bytes, and
:attr:`JsonlReader.torn_at` tells a writer where to truncate before its
next append (:func:`cut_torn_tail`).  A malformed line anywhere else is
not a crash artifact and stays an error.

Files that are rewritten whole -- a check baseline, a compacted history
database, a disk-cache entry, a Chrome trace -- go through
:func:`replace_file` instead: a reader sees the old bytes or the new
ones, never a prefix.
"""

from __future__ import annotations

import json
import os
import sys
import threading
from pathlib import Path
from typing import Any, Iterator


class JsonlReader:
    """Iterate ``(lineno, document)`` over the complete lines of a file.

    Blank lines are skipped.  A complete line that is not JSON raises
    ``error(f"{path}:{lineno}: not JSON: ...")``.  After iteration,
    :attr:`torn_at` is ``None`` for an intact file, else the byte length
    of its newline-terminated prefix.
    """

    def __init__(self, path: str | Path, error: type[Exception],
                 who: str):
        self.path = path
        self.error = error
        self.who = who
        self.torn_at: int | None = None

    def __iter__(self) -> Iterator[tuple[int, Any]]:
        complete = 0   # bytes of the file in newline-terminated lines
        with open(self.path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                if not raw.endswith(b"\n"):
                    self.torn_at = complete
                    print(f"{self.who}: warning: {self.path}: dropped "
                          f"{len(raw)} byte(s) of a torn final line (an "
                          f"append was cut short)", file=sys.stderr)
                    return
                complete += len(raw)
                line = raw.strip()
                if not line:
                    continue
                try:
                    obj = json.loads(line)
                except ValueError as exc:   # not JSON, or not UTF-8
                    raise self.error(
                        f"{self.path}:{lineno}: not JSON: {exc}") from exc
                yield lineno, obj


def cut_torn_tail(path: str | Path, torn_at: int | None) -> None:
    """Truncate ``path`` back to the complete prefix a
    :class:`JsonlReader` found (nothing to do when ``torn_at`` is None)."""
    if torn_at is not None:
        with open(path, "r+b") as fh:
            fh.truncate(torn_at)


def replace_file(path: str | Path, text: str) -> None:
    """Write ``text`` to ``path`` atomically.

    The bytes go to a sibling temp file that ``os.replace`` then moves
    over ``path``, so a write that fails part-way leaves the previous
    file byte for byte; the temp file is removed on failure.  Its name
    (``<name>.<pid>.<thread>.tmp``) is unique per writer and matches no
    ``*.json``/``*.jsonl`` glob, so concurrent writers of one path and
    directory scans never see it.
    """
    target = Path(path)
    tmp = target.with_name(
        f"{target.name}.{os.getpid()}.{threading.get_ident()}.tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, target)
    finally:
        tmp.unlink(missing_ok=True)     # only left over if the write failed
