"""The WAL and checkpoint formats are pinned byte for byte.

A deterministic script touches every durable record kind -- each primitive
(a delete of a connected instance included), an Undo, one online
reorganisation epoch and every federation journal call -- on a durable
database.  The sha256 of the log it leaves, and of the checkpoint that
then folds it, must equal constants captured before the record path was
unified: a refactor of the journal may move code, never a byte.  The
checkpoint constant was re-captured once since, for image format 3, whose
header line alone differs: it carries the transaction-id allocator
(``next_txn_id``).
"""

import hashlib

from repro.core.database import Database
from repro.persistence.manager import CHECKPOINT_NAME, WAL_NAME
from repro.workloads.topologies import build_chain, link, sum_node_schema

WAL_SHA256 = "b54ddc188c526b8431578aa290b013f69851bbcbc308880f4a2a7f45e9e1a1a9"
CHECKPOINT_SHA256 = "6199bb14800a1e159d13e63a81acfcc7de086cc28eb1d49df9bbda8e9104ce34"


def _sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _script(db) -> None:
    chain = build_chain(db, 4, weight=2)  # creates and connects
    db.set_attr(chain[0], "weight", 9)
    extra = db.create("node", weight=5)
    link(db, chain[-1], extra)
    with db.transaction("rewire"):
        db.disconnect(extra, "inputs", chain[-1], "outputs")
        db.connect(extra, "inputs", chain[1], "outputs")
    assert db.get_attr(extra, "total") == 5 + 9 + 2
    db.delete(chain[2])  # connected on both sides
    db.set_attr(chain[1], "weight", 4)
    db.undo()
    db.reorganize_online()
    db.reorg.run_to_completion()
    fed = db.persistence
    fed.log_fed_send("a>b", 1, [(extra, "weight", 5)])
    fed.log_fed_send("a>b", 2, [(chain[0], "weight", 9), (extra, "weight", 6)])
    fed.log_fed_ack("a>b", 1)
    fed.log_fed_recv("b>a", 3)
    fed.log_fed_migrate("begin", extra, "a", "b")
    fed.log_fed_migrate("end", extra, "a", "b")


def test_wal_and_checkpoint_bytes_are_pinned(tmp_path):
    directory = tmp_path / "db"
    db = Database.open(str(directory), sum_node_schema(), sync=False)
    _script(db)
    wal_sha = _sha256(directory / WAL_NAME)
    db.checkpoint()
    db.close()
    assert (wal_sha, _sha256(directory / CHECKPOINT_NAME)) == (
        WAL_SHA256,
        CHECKPOINT_SHA256,
    )
