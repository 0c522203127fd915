"""Correctness checks: counted, and any failure fails the run."""

from __future__ import annotations


class Checks:
    """Correctness checks; every failure is counted and fails the run."""

    def __init__(self, corrupt: bool = False) -> None:
        self.run = 0
        self.failures: list[str] = []
        #: ``--corrupt``: spoil the first expected value, to show the
        #: comparison catches it and the command exits non-zero.
        self.corrupt = corrupt

    def expect(self, ok: bool, message: str) -> None:
        self.run += 1
        if not ok:
            self.failures.append(message)

    def equal(self, got, want, what: str) -> None:
        if self.corrupt:
            self.corrupt, want = False, ("corrupted", want)
        self.expect(got == want, f"{what}: got {got!r}, expected {want!r}")
