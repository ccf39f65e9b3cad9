"""Write-ahead run journal for supervised sweeps.

One :class:`RunJournal` is one JSONL file inside a run directory: a
header line naming the run fingerprint, then one record per completed
(or quarantined) topology task.  Every append rewrites the file through
an fsync'd tmp-file + ``os.replace`` sequence, so a SIGKILL at any
instant leaves either the previous journal or the new one — never a
torn line.  ``--resume <run_dir>`` replays the journal: tasks recorded
as ``done`` are restored bit-for-bit from their pickled payload and
skipped; everything else re-runs.

Any unparsable line raises
:class:`repro.errors.ResumeMismatchError` carrying the offending
1-based line number — a journal that cannot be trusted must not be
silently half-replayed.  ``salvage=True`` relaxes that for the tail
only: the journal is truncated at the *first* corrupted record (with a
logged warning naming the line and how many records were dropped) and
every intact record before it is replayed normally.  Header corruption
still hard-fails — without a trusted header there is nothing to salvage
against.
"""

from __future__ import annotations

import base64
import json
import os
import pathlib
import pickle
from typing import Any, Dict, List, Optional, Tuple, Union

from repro.errors import ResumeMismatchError
from repro.obs.logs import get_logger

__all__ = [
    "JOURNAL_SCHEMA",
    "RunJournal",
    "atomic_write_text",
    "clean_stale_tmp",
    "encode_payload",
    "decode_payload",
]

_log = get_logger(__name__)

#: Schema version of the journal layout; bump on record changes.
JOURNAL_SCHEMA = 1


def atomic_write_text(
    path: Union[str, pathlib.Path],
    text: Union[str, bytes],
    durable: bool = True,
    tmp_token: Optional[str] = None,
) -> None:
    """Write ``text`` to ``path`` atomically (tmp file, fsync, rename).

    ``text`` is written as UTF-8; bytes are written as they are.  The
    containing directory is fsync'd too when the platform allows
    it, so the rename itself survives a crash.  ``durable=False`` skips
    both fsyncs: readers still never observe a torn file (the rename is
    what guarantees that), but an OS crash may lose the write — the
    right trade for advisory artifacts like trace flushes, where the
    fsync would dominate the cost of the write itself.

    ``tmp_token`` makes the scratch name writer-unique
    (``<name>.<token>.tmp``).  Required whenever *several processes*
    may write the same path concurrently — service replicas sharing a
    cache directory — because two writers interleaving on one shared
    tmp file could rename a torn mix of both payloads.  Tokened tmp
    files still match the ``*.tmp`` glob of :func:`clean_stale_tmp`.
    """
    path = os.fspath(path)
    data = text.encode("utf-8") if isinstance(text, str) else text
    tmp = f"{path}.{tmp_token}.tmp" if tmp_token else f"{path}.tmp"
    fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o666)
    try:
        view = memoryview(data)
        while view:
            view = view[os.write(fd, view):]
        if durable:
            os.fsync(fd)
    finally:
        os.close(fd)
    os.replace(tmp, path)
    if not durable:
        return
    try:
        dir_fd = os.open(os.path.dirname(path) or ".", os.O_RDONLY)
    except OSError:  # pragma: no cover - e.g. platforms without dir fds
        return
    try:
        os.fsync(dir_fd)
    except OSError:  # pragma: no cover
        pass
    finally:
        os.close(dir_fd)


def clean_stale_tmp(directory: Union[str, pathlib.Path]) -> List[pathlib.Path]:
    """Remove leftover ``*.tmp`` files from an interrupted atomic write.

    A crash between the tmp-file write and the ``os.replace`` in
    :func:`atomic_write_text` (durable or not) strands a ``*.tmp`` next
    to the real artifact.  The stranded file holds a superseded or
    partial payload and must never be read; on the next run over the
    same directory it is deleted.  Returns the paths removed.
    """
    directory = pathlib.Path(directory)
    removed: List[pathlib.Path] = []
    if not directory.is_dir():
        return removed
    for tmp in sorted(directory.glob("*.tmp")):
        try:
            tmp.unlink()
        except OSError:  # pragma: no cover - racing writer/permissions
            continue
        removed.append(tmp)
    if removed:
        _log.warning(
            "removed stale tmp file(s) from an interrupted write",
            extra={
                "directory": str(directory),
                "files": [p.name for p in removed],
            },
        )
    return removed


def encode_payload(values: Any) -> Optional[str]:
    """Pickle + base64 a task's result values for a journal record.

    Returns None when the values cannot be pickled (e.g. raw
    ``SweepOutcome``\\ s holding SuperLU handles) — the record is still
    journaled, but resume will re-run the task instead of restoring it.
    """
    try:
        raw = pickle.dumps(values, protocol=pickle.HIGHEST_PROTOCOL)
    except Exception:
        return None
    return base64.b64encode(raw).decode("ascii")


def decode_payload(text: str) -> Any:
    """Inverse of :func:`encode_payload` (bit-exact round trip)."""
    return pickle.loads(base64.b64decode(text.encode("ascii")))


class RunJournal:
    """An append-only JSONL journal with atomic, fsync'd writes."""

    def __init__(self, path: Union[str, pathlib.Path]):
        self.path = pathlib.Path(path)
        self._lines: list = []

    # ------------------------------------------------------------------
    @classmethod
    def start(cls, path: Union[str, pathlib.Path], header: Dict) -> "RunJournal":
        """Create (or truncate) a journal with a fresh header line."""
        journal = cls(path)
        journal._lines = [
            json.dumps(
                {"kind": "header", "schema": JOURNAL_SCHEMA, **header},
                sort_keys=True,
            )
        ]
        journal._flush()
        return journal

    @classmethod
    def open_existing(
        cls, path: Union[str, pathlib.Path], salvage: bool = False
    ) -> Tuple["RunJournal", Dict, Dict[str, Dict]]:
        """Load a journal for resume.

        Returns ``(journal, header, task_records)`` where
        ``task_records`` maps task fingerprints to their latest record.
        Raises :class:`ResumeMismatchError` (with the 1-based line
        number) on any corrupted, truncated or unknown record — unless
        ``salvage`` is set, in which case the journal is truncated at
        the first corrupted record (warning logged with the drop count)
        and the intact prefix is replayed.  A corrupted *header* always
        raises: the salvage must have a trusted run identity to salvage
        against.
        """
        journal = cls(path)
        path = journal.path
        if not path.exists():
            raise ResumeMismatchError(f"no journal at {path}")
        header: Optional[Dict] = None
        records: Dict[str, Dict] = {}
        lines = path.read_text(encoding="utf-8").splitlines()
        if not lines:
            raise ResumeMismatchError(f"journal {path} is empty", line=1)
        for number, line in enumerate(lines, start=1):
            try:
                record = cls._parse_line(path, number, line)
            except ResumeMismatchError:
                if not salvage or number == 1:
                    raise
                dropped = len(lines) - (number - 1)
                _log.warning(
                    "salvage: truncating journal at first corrupted record",
                    extra={
                        "journal": str(path),
                        "line": number,
                        "dropped_records": dropped,
                    },
                )
                lines = lines[: number - 1]
                journal._lines = list(lines)
                journal._flush()
                break
            if number == 1:
                header = record
            else:
                records[record["fingerprint"]] = record
        if header is None:  # pragma: no cover - unreachable (line 1 checked)
            raise ResumeMismatchError(f"journal {path} has no header", line=1)
        journal._lines = list(lines)
        return journal, header, records

    @classmethod
    def _parse_line(
        cls, path: pathlib.Path, number: int, line: str
    ) -> Dict:
        """Parse and validate one journal line (1-based ``number``)."""
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ResumeMismatchError(
                f"journal {path}: corrupted or truncated record at "
                f"line {number}: {exc.msg}",
                line=number,
            ) from None
        if not isinstance(record, dict) or "kind" not in record:
            raise ResumeMismatchError(
                f"journal {path}: line {number} is not a journal record",
                line=number,
            )
        if number == 1:
            if record["kind"] != "header":
                raise ResumeMismatchError(
                    f"journal {path}: first line is not a header",
                    line=1,
                )
            if record.get("schema") != JOURNAL_SCHEMA:
                raise ResumeMismatchError(
                    f"journal {path}: schema {record.get('schema')!r} "
                    f"!= expected {JOURNAL_SCHEMA}",
                    line=1,
                )
            return record
        if record["kind"] == "task":
            if "fingerprint" not in record or "status" not in record:
                raise ResumeMismatchError(
                    f"journal {path}: task record at line {number} is "
                    "missing its fingerprint or status",
                    line=number,
                )
            return record
        raise ResumeMismatchError(
            f"journal {path}: unknown record kind "
            f"{record['kind']!r} at line {number}",
            line=number,
        )

    # ------------------------------------------------------------------
    def append(self, record: Dict) -> None:
        """Durably append one record (atomic rewrite + fsync)."""
        self._lines.append(json.dumps(record, sort_keys=True))
        self._flush()

    def _flush(self) -> None:
        atomic_write_text(self.path, "\n".join(self._lines) + "\n")

    def __len__(self) -> int:
        return len(self._lines)
