"""Transactions, undo, rollback, and timestamp concurrency control.

* :mod:`repro.txn.log` -- inverse records and first-class deltas (the
  paper's space-efficient rollback: log only the *initial* changes).
* :mod:`repro.txn.transaction` -- the one transaction model for embedded
  and served work (one id allocator, one live-transaction table),
  autocommit, commit-time constraint audit, and the ``Undo`` meta-action.
* :mod:`repro.txn.timestamps` -- basic timestamp-ordering CC.
* :mod:`repro.txn.manager` -- multi-user sessions and the deterministic
  interleaving scheduler with abort/restart.
"""

from repro.txn.log import (
    ConnectRecord,
    CreateRecord,
    Delta,
    DeleteRecord,
    DisconnectRecord,
    LogRecord,
    SetAttrRecord,
)
from repro.txn.manager import MultiUserScheduler, ScheduleResult, Session
from repro.txn.timestamps import CCStats, TimestampManager
from repro.txn.transaction import TransactionManager

__all__ = [
    "CCStats",
    "ConnectRecord",
    "CreateRecord",
    "Delta",
    "DeleteRecord",
    "DisconnectRecord",
    "LogRecord",
    "MultiUserScheduler",
    "ScheduleResult",
    "Session",
    "SetAttrRecord",
    "TimestampManager",
    "TransactionManager",
]
