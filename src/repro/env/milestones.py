"""The milestone manager (Figure 1 and Section 4).

"The data type 'milestone' within an environment typically models the
scheduled and expected completion times of a software component.  One
milestone may depend on another, and changing the expected completion date
for one milestone may have effects that ripple throughout the expected
completion dates for other milestones in the system."

:class:`MilestoneManager` wraps Figure 1's class (compiled from the data
language, exactly as printed) with a by-name application API:

* ``exp_compl`` -- the expected completion time: local work added to the
  latest ``exp_time`` received from everything depended on (Figure 1's
  rule, verbatim);
* ``late`` -- ``later_than(exp_compl, sched_compl)``;
* the Section 4 extensibility story is reproduced by
  :meth:`add_very_late_support`, which extends the live schema with the
  ``very_late`` attribute and a predicate subtype *without touching any
  existing tool code*; existing mutators keep working and membership
  tracks automatically.
"""

from __future__ import annotations

from repro.core.database import Database
from repro.core.schema import Schema
from repro.dsl import compile_schema
from repro.errors import CactisError

MILESTONE_SCHEMA = """
relationship milestone_dep is
    exp_time : time from plug;
end relationship;

object class milestone is
  relationships
    depends_on  : milestone_dep multi socket; /* things this one waits for */
    consists_of : milestone_dep multi plug;   /* things that wait for it   */
  attributes
    sched_compl : time;    /* originally scheduled completion time */
    local_work  : time;    /* time to complete milestone alone     */
    exp_compl   : time;    /* expected completion time             */
    late        : boolean; /* is this milestone expected late      */
  rules
    /* sum local work and latest of things depended on (Figure 1) */
    exp_compl = begin
        latest : time;
        latest := TIME0;
        for each dep related to depends_on do
            latest := later_of(latest, dep.exp_time);
        end for;
        return latest + local_work;
    end;
    late = later_than(exp_compl, sched_compl);
    consists_of exp_time = exp_compl;
end object;
"""

VERY_LATE_EXTENSION = """
object class very_late_milestone subtype of milestone
    where exp_compl > sched_compl + {limit} is
  attributes
    very_late : boolean; /* derived marker: always true for members */
  rules
    very_late = true;
end object;
"""


class MilestoneError(CactisError):
    """Milestone-manager misuse (duplicate or unknown names)."""


def milestone_schema() -> Schema:
    """Figure 1's schema, compiled from the data language."""
    return compile_schema(MILESTONE_SCHEMA)


class MilestoneManager:
    """Project-schedule tracking over Figure 1's milestone objects."""

    def __init__(self, db: Database | None = None) -> None:
        self.db = db if db is not None else Database(milestone_schema())
        self._iid_of: dict[str, int] = {}
        self._name_of: dict[int, str] = {}

    # -- construction ------------------------------------------------------------

    def add_milestone(self, name: str, scheduled: int, work: int) -> int:
        """Register a milestone with its schedule and local work estimate."""
        if name in self._iid_of:
            raise MilestoneError(f"milestone {name!r} already exists")
        iid = self.db.create("milestone", sched_compl=scheduled, local_work=work)
        self._iid_of[name] = iid
        self._name_of[iid] = name
        return iid

    def depends(self, name: str, on: str) -> None:
        """Declare that ``name`` cannot finish before ``on`` does."""
        self.db.connect(
            self._iid(name), "depends_on", self._iid(on), "consists_of"
        )

    def drop_dependency(self, name: str, on: str) -> None:
        self.db.disconnect(
            self._iid(name), "depends_on", self._iid(on), "consists_of"
        )

    def _iid(self, name: str) -> int:
        try:
            return self._iid_of[name]
        except KeyError:
            raise MilestoneError(f"unknown milestone {name!r}") from None

    # -- updates (the "existing tools") ---------------------------------------

    def set_work(self, name: str, work: int) -> None:
        """Revise the local work estimate; effects ripple automatically."""
        self.db.set_attr(self._iid(name), "local_work", work)

    def slip(self, name: str, extra_work: int) -> None:
        """Add ``extra_work`` to a milestone's local work."""
        iid = self._iid(name)
        self.db.set_attr(
            iid, "local_work", self.db.get_attr(iid, "local_work") + extra_work
        )

    def reschedule(self, name: str, scheduled: int) -> None:
        self.db.set_attr(self._iid(name), "sched_compl", scheduled)

    # -- queries ------------------------------------------------------------

    def expected(self, name: str) -> int:
        return self.db.get_attr(self._iid(name), "exp_compl")

    def scheduled(self, name: str) -> int:
        return self.db.get_attr(self._iid(name), "sched_compl")

    def is_late(self, name: str) -> bool:
        return bool(self.db.get_attr(self._iid(name), "late"))

    def late_milestones(self) -> list[str]:
        return sorted(name for name in self._iid_of if self.is_late(name))

    def names(self) -> list[str]:
        return sorted(self._iid_of)

    def report(self) -> list[tuple[str, int, int, bool]]:
        """``(name, scheduled, expected, late)`` rows, sorted by name."""
        return [
            (
                name,
                self.scheduled(name),
                self.expected(name),
                self.is_late(name),
            )
            for name in self.names()
        ]

    def critical_path(self, name: str) -> list[str]:
        """The dependency chain that determines ``name``'s completion time.

        Walks backward choosing, at each milestone, the dependency with the
        latest expected completion -- the chain a project manager must
        shorten to pull the date in.
        """
        path = [name]
        current = self._iid(name)
        while True:
            deps = self.db.peers(current, "depends_on")
            if not deps:
                return list(reversed(path))
            latest = max(deps, key=lambda d: (self.db.get_attr(d, "exp_compl"), -d))
            path.append(self._name_of[latest])
            current = latest

    # -- Section 4 extensibility ------------------------------------------------

    def add_very_late_support(self, limit: int) -> None:
        """Dynamically add the ``very_late`` subtype (Section 4's example).

        "We can add a 'very_late' attribute to a milestone ... existing
        tools which indirectly modify the expected completion date of
        milestones would not be affected at all by this new attribute."
        No existing manager method changes; membership tracks the data.
        """
        source = VERY_LATE_EXTENSION.format(limit=limit)
        with self.db.extend_schema() as schema:
            compile_schema(source, schema=schema, freeze=False)

    def very_late_milestones(self) -> list[str]:
        """Milestones currently in the ``very_late_milestone`` subtype."""
        if "very_late_milestone" not in self.db.schema.classes:
            raise MilestoneError(
                "very_late support has not been added; call "
                "add_very_late_support(limit) first"
            )
        return sorted(
            self._name_of[iid]
            for iid in self.db.instances_of("very_late_milestone")
        )
