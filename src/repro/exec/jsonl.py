"""The project's one append-only log and one canonical encoding, and
replacing whole files so that a crash never cuts them.

Every durable log -- the history database, the service result store,
the telemetry trace -- is a :class:`JsonlLog`: a header document on the
first line, then one JSON document per appended line.  A process
killed mid-append leaves a final line with no trailing newline; the
complete prefix loads, the torn tail is dropped with one warning on
stderr that names the dropped bytes, and the next append cuts it off.
A malformed line anywhere else is not a crash artifact and stays an
error.  Every line, and every content hash
(:func:`repro.exec.cache.stable_hash`), is encoded by :data:`ENCODER`.

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
from typing import Any, Iterable, Iterator

#: the canonical encoding: sorted keys, no whitespace, ASCII only
ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


def encode_line(doc: Any) -> str:
    """One canonical JSONL line (newline included)."""
    return ENCODER.encode(doc) + "\n"


def json_safe(value: Any) -> Any:
    """``value`` with tuples as lists, keys as strings and every leaf
    JSON cannot hold as its ``str``."""
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if isinstance(value, dict):
        return {str(k): json_safe(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [json_safe(v) for v in value]
    return str(value)


class JsonlLog:
    """An append-only JSONL file whose first line is ``header``.

    A line is the header when it agrees with ``header`` on every field
    but ``version``; a later copy of it is skipped.  A malformed file
    raises ``error`` led by ``path:lineno``; ``who`` leads the torn-tail
    warning.  Appends write the header when the complete prefix holds
    none -- tracked in memory, so an append is one ``open`` and no
    ``stat``.
    """

    def __init__(self, path: str | Path, header: dict[str, Any],
                 error: type[Exception], who: str):
        self.path = path
        self.header = header
        self.error = error
        self.who = who
        self._marks = {k: v for k, v in header.items()
                       if k != "version"}.items()
        self._torn_at: int | None = None  # complete prefix of a torn file
        self._headed = False              # the complete prefix has a header

    def _is_header(self, doc: Any) -> bool:
        return isinstance(doc, dict) and doc.items() >= self._marks

    def read(self, *, header: bool = False) -> Iterator[tuple[int, Any]]:
        """Iterate ``(lineno, document)`` over the record lines (with
        ``header``, the header line first).  Blank lines are skipped."""
        self._torn_at, self._headed = None, False
        complete = 0   # bytes of the file in newline-terminated lines
        with open(self.path, "rb") as fh:
            for lineno, raw in enumerate(fh, start=1):
                if not raw.endswith(b"\n"):
                    self._torn_at = complete
                    print(f"{self.who}: warning: {self.path}: dropped "
                          f"{len(raw)} byte(s) of a torn final line (an "
                          f"append was cut short)", file=sys.stderr)
                    return
                complete += len(raw)
                line = raw.strip()
                if not line:
                    continue
                try:
                    doc = json.loads(line)
                except ValueError as exc:   # not JSON, or not UTF-8
                    raise self.error(
                        f"{self.path}:{lineno}: not JSON: {exc}") from exc
                if self._headed:
                    if not self._is_header(doc):
                        yield lineno, doc
                elif self._is_header(doc):
                    self._headed = True
                    if header:
                        yield lineno, doc
                else:
                    raise self.error(
                        f"{self.path}:{lineno}: not a "
                        f"{self.header['schema']!r} file: the first line "
                        f"must be its meta header (a JSON object)")

    def sniff(self) -> bool:
        """Whether the first line is this log's header (no warning)."""
        try:
            with open(self.path, "rb") as fh:
                return self._is_header(json.loads(next(
                    raw for raw in fh if raw.strip())))
        except (OSError, ValueError, StopIteration):
            return False

    def append(self, doc: Any) -> None:
        """Append one document (after the header, on a clean line)."""
        if self._torn_at is not None:   # an append cut short by a crash
            with open(self.path, "r+b") as fh:
                fh.truncate(self._torn_at)
            self._torn_at = None
        line = encode_line(doc)
        if not self._headed:
            line = encode_line(self.header) + line
            self._headed = True
        with open(self.path, "a", encoding="utf-8") as fh:
            fh.write(line)

    def rewrite(self, docs: Iterable[Any]) -> None:
        """Replace the file atomically with the header and ``docs``."""
        replace_file(self.path, "".join(map(encode_line,
                                            (self.header, *docs))))
        self._torn_at, self._headed = None, True


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
