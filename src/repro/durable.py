"""How a file reaches disk and how it is read back.

* :func:`atomic_write` replaces a whole file: temp file beside the
  target → fsync → :func:`os.replace` → fsync of the directory.  A
  reader sees the complete old file or the complete new one, and a
  failure at any step leaves no temp file behind.  :func:`write_text`,
  :func:`write_jsonl` and :func:`write_npz` are its text, JSON-lines and
  numpy-archive forms.
* :func:`append_record` appends and fsyncs (the publisher's update log).
* :class:`LineAppender` appends flushed, not fsynced, lines (span and
  event streams): a crash may lose or tear the last line, and
  :func:`read_jsonl` skips and counts a torn line instead of raising.
"""

from __future__ import annotations

import json
import numbers
import os
import pathlib
import threading
import uuid
from typing import IO, Any, Callable, Iterable, Mapping, TextIO, TypeVar, Union

import numpy as np

PathLike = Union[str, os.PathLike]
T = TypeVar("T")


def _fsync_dir(directory: str) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def atomic_write(path: PathLike, write_fn: Callable[[IO[bytes]], T]) -> T:
    """Replace ``path`` with what ``write_fn`` writes to a binary handle.

    Creates the parent directory if needed and returns ``write_fn``'s
    result.  If any step raises, the temp file is removed and ``path``
    keeps its previous content (a failed directory fsync comes after the
    rename, so the new content is already in place then).
    """
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    os.makedirs(directory, exist_ok=True)
    tmp = f"{path}.tmp.{os.getpid()}.{uuid.uuid4().hex[:8]}"
    try:
        with open(tmp, "xb") as fh:
            result = write_fn(fh)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except FileNotFoundError:
            pass
        raise
    _fsync_dir(directory)
    return result


def write_text(path: PathLike, text: str) -> pathlib.Path:
    """Atomically replace ``path`` with UTF-8 ``text``."""
    atomic_write(path, lambda fh: fh.write(text.encode("utf-8")))
    return pathlib.Path(path)


def write_jsonl(path: PathLike, docs: Iterable[Mapping[str, Any]]) -> pathlib.Path:
    """Atomically replace ``path`` with one JSON object per line."""
    return write_text(
        path,
        "".join(
            json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
            for doc in docs
        ),
    )


def write_npz(path: PathLike, arrays: Mapping[str, np.ndarray]) -> pathlib.Path:
    """Atomically replace ``path`` with a compressed ``.npz`` of ``arrays``.

    Like ``np.savez_compressed`` given a path, appends ``.npz`` to a path
    that does not end with it; returns the path written.
    """
    path = os.fspath(path)
    if not path.endswith(".npz"):
        path += ".npz"
    atomic_write(path, lambda fh: np.savez_compressed(fh, **arrays))
    return pathlib.Path(path)


def read_jsonl(path: PathLike) -> tuple[list[dict[str, Any]], int]:
    """Read a JSON-lines file -> ``(docs, n_torn_lines)``.

    A process killed mid-flush leaves a truncated final line; such a
    line (or any line that is not a JSON object, e.g. binary garbage) is
    skipped and counted rather than raised.  Blank lines are ignored.
    Raises :class:`OSError` only when the file cannot be opened.
    """
    docs: list[dict[str, Any]] = []
    n_torn = 0
    with open(path, "r", encoding="utf-8", errors="replace") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            try:
                doc = json.loads(line)
            except json.JSONDecodeError:
                n_torn += 1
                continue
            if isinstance(doc, dict):
                docs.append(doc)
            else:
                n_torn += 1
    return docs, n_torn


def append_record(path: PathLike, data: bytes) -> None:
    """Append ``data`` to ``path`` and fsync before returning.

    The first append, which creates the file, also fsyncs the directory
    so the new entry survives a crash.
    """
    path = os.fspath(path)
    created = not os.path.exists(path)
    with open(path, "ab") as fh:
        fh.write(data)
        fh.flush()
        os.fsync(fh.fileno())
    if created:
        _fsync_dir(os.path.dirname(path) or ".")


class LineAppender:
    """Appends one line at a time to a text file, flushing each line.

    Thread-safe; appends after :meth:`close` are silently dropped, so a
    sink torn down while another thread is still emitting never raises.
    """

    def __init__(self, path: PathLike) -> None:
        self.path = pathlib.Path(path)
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self._lock = threading.Lock()
        self._fh: TextIO | None = self.path.open("a", encoding="utf-8")

    def append(self, line: str) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.write(line + "\n")
                self._fh.flush()

    def flush(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.flush()

    def close(self) -> None:
        with self._lock:
            if self._fh is not None:
                self._fh.close()
                self._fh = None


def to_jsonable(value: Any) -> Any:
    """Best-effort conversion to JSON-safe types.

    Numeric scalars (numpy's too) become ``int``/``float``, objects with
    a ``to_dict`` method are converted through it, mappings and
    collections recursively, and anything else falls back to ``repr``.
    """
    if value is None or isinstance(value, (bool, int, float, str)):
        return value
    if isinstance(value, numbers.Integral):
        return int(value)
    if isinstance(value, numbers.Real):
        return float(value)
    if hasattr(value, "to_dict"):
        return to_jsonable(value.to_dict())
    if isinstance(value, Mapping):
        return {str(k): to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set, frozenset)):
        return [to_jsonable(v) for v in value]
    return repr(value)
