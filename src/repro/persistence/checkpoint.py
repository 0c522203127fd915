"""Checkpointing: fold the WAL into a fresh database image.

A checkpoint is the streamed database image (:func:`repro.storage.codec.
save_database`) whose header also carries the WAL high-water mark at the
moment it was taken.  The image is written one record at a time, so a
checkpoint never holds the database as JSON-ready objects.  Installation is
atomic -- written to a temporary file, fsynced, then :func:`os.replace`d
over the previous checkpoint, with the directory fsynced so the rename
itself is durable.  A crash at any point therefore leaves either the old
checkpoint or the new one, never a partial file; an error mid-write
removes the temporary file and leaves the old checkpoint in place.

After a successful install the WAL can be truncated; if the crash lands
between install and truncation, recovery skips every WAL record whose
``seq`` is at or below the checkpoint's ``wal_seq`` -- replaying a record
the image already contains would double-apply it.
"""

from __future__ import annotations

import os
from contextlib import suppress
from typing import TYPE_CHECKING

from repro.errors import StorageError
from repro.storage.codec import load_database, save_database

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.core.database import Database


def write_checkpoint(
    db: "Database", path: str, wal_seq: int, fed: dict | None = None
) -> None:
    """Atomically install a checkpoint of ``db`` stamped with ``wal_seq``.

    ``fed`` optionally folds the site's federation delivery state (outbox /
    applied / next_seq, see :class:`repro.persistence.manager.FedState`)
    into the header, so truncating the WAL does not forget in-flight
    cross-site batches.
    """
    tmp_path = path + ".tmp"
    try:
        save_database(db, tmp_path, wal_seq=wal_seq, fed=fed)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp_path)
        raise
    os.replace(tmp_path, path)
    _fsync_directory(os.path.dirname(path) or ".")


def read_checkpoint(
    path: str, schema, **db_kwargs
) -> tuple["Database", dict] | None:
    """Rebuild the checkpointed database and return it with the image
    header (``wal_seq``, ``fed``), or ``None`` when none has been taken."""
    if not os.path.exists(path):
        return None
    db, header = load_database(path, schema, **db_kwargs)
    if "wal_seq" not in header:
        raise StorageError(f"checkpoint {path!r} is missing required fields")
    return db, header


def _fsync_directory(directory: str) -> None:
    fd = os.open(directory, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)
