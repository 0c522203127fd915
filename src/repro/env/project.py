"""A project master database (Section 3's object inventory).

"The sorts of object generally included in descriptions of existing and
proposed environments include software components and software
dependencies, versions, documentation, requirements, milestone reports,
test data, verification results, bug reports, etc."

This module models a slice of that inventory with derived rollups that
exercise multi-level transitive propagation:

* **components** form a containment tree; each component's ``total_cost``
  is its local cost plus its parts' total costs, and its
  ``open_bug_weight`` aggregates open bug severities from itself and its
  parts;
* **bug reports** attach to components and transmit their severity while
  open (closing a bug is a one-attribute update whose effects ripple to
  every ancestor's health);
* a component's ``health`` summarises its subtree: ``green`` (no open bug
  weight), ``amber``, or ``red``.

A constraint keeps costs non-negative, demonstrating commit-time vetoes.
"""

from __future__ import annotations

from repro.core.database import Database
from repro.core.schema import Schema
from repro.dsl import compile_schema
from repro.errors import CactisError

PROJECT_SCHEMA = """
relationship contains is
    cost       : integer from plug;
    bug_weight : integer from plug;
end relationship;

relationship reported_against is
    severity_open : integer from plug;
end relationship;

object class component is
  relationships
    parts   : contains multi socket;        /* subcomponents            */
    part_of : contains plug;                /* at most one parent       */
    bugs    : reported_against multi socket;
  attributes
    name        : string;
    local_cost  : integer;
    total_cost  : integer;
    open_bug_weight : integer;
    health      : string;
  rules
    total_cost = begin
        total : integer;
        total := local_cost;
        for each part related to parts do
            total := total + part.cost;
        end for;
        return total;
    end;
    open_bug_weight = begin
        weight : integer;
        weight := 0;
        for each part related to parts do
            weight := weight + part.bug_weight;
        end for;
        for each bug related to bugs do
            weight := weight + bug.severity_open;
        end for;
        return weight;
    end;
    health = begin
        if open_bug_weight == 0 then
            return "green";
        end if;
        if open_bug_weight < 10 then
            return "amber";
        end if;
        return "red";
    end;
    part_of cost = total_cost;
    part_of bug_weight = open_bug_weight;
  constraints
    nonnegative_cost : local_cost >= 0;
end object;

object class bug_report is
  relationships
    against : reported_against plug;        /* the component blamed */
  attributes
    title    : string;
    severity : integer = 1;
    open     : boolean = true;
  rules
    against severity_open = begin
        if open then
            return severity;
        end if;
        return 0;
    end;
  constraints
    positive_severity : severity >= 1;
end object;
"""


class ProjectError(CactisError):
    """Project-database misuse (duplicate or unknown names)."""


def project_schema() -> Schema:
    """Compile the project master schema."""
    return compile_schema(PROJECT_SCHEMA)


class ProjectDatabase:
    """By-name application API over the project master schema."""

    def __init__(self, db: Database | None = None) -> None:
        self.db = db if db is not None else Database(project_schema())
        self._component_of: dict[str, int] = {}
        self._bug_counter = 0
        self._bugs: dict[int, int] = {}  # bug number -> instance id

    # -- components ------------------------------------------------------------

    def add_component(
        self, name: str, cost: int = 0, parent: str | None = None
    ) -> int:
        if name in self._component_of:
            raise ProjectError(f"component {name!r} already exists")
        iid = self.db.create("component", name=name, local_cost=cost)
        self._component_of[name] = iid
        if parent is not None:
            self.db.connect(iid, "part_of", self._cid(parent), "parts")
        return iid

    def move_component(self, name: str, new_parent: str | None) -> None:
        """Re-parent a component; rollups adjust on both sides."""
        iid = self._cid(name)
        for peer in self.db.peers(iid, "part_of"):
            self.db.disconnect(iid, "part_of", peer, "parts")
        if new_parent is not None:
            self.db.connect(iid, "part_of", self._cid(new_parent), "parts")

    def set_cost(self, name: str, cost: int) -> None:
        self.db.set_attr(self._cid(name), "local_cost", cost)

    def _cid(self, name: str) -> int:
        try:
            return self._component_of[name]
        except KeyError:
            raise ProjectError(f"unknown component {name!r}") from None

    # -- bugs ------------------------------------------------------------

    def file_bug(self, component: str, title: str, severity: int = 1) -> int:
        """File a bug; returns its bug number."""
        iid = self.db.create("bug_report", title=title, severity=severity)
        self.db.connect(iid, "against", self._cid(component), "bugs")
        self._bug_counter += 1
        self._bugs[self._bug_counter] = iid
        return self._bug_counter

    def close_bug(self, bug_number: int) -> None:
        self.db.set_attr(self._bug(bug_number), "open", False)

    def reopen_bug(self, bug_number: int) -> None:
        self.db.set_attr(self._bug(bug_number), "open", True)

    def _bug(self, bug_number: int) -> int:
        try:
            return self._bugs[bug_number]
        except KeyError:
            raise ProjectError(f"unknown bug #{bug_number}") from None

    # -- queries ------------------------------------------------------------

    def total_cost(self, name: str) -> int:
        return self.db.get_attr(self._cid(name), "total_cost")

    def open_bug_weight(self, name: str) -> int:
        return self.db.get_attr(self._cid(name), "open_bug_weight")

    def health(self, name: str) -> str:
        return self.db.get_attr(self._cid(name), "health")

    def components(self) -> list[str]:
        return sorted(self._component_of)

    def status_report(self) -> list[tuple[str, int, int, str]]:
        """``(name, total_cost, open_bug_weight, health)`` rows by name."""
        return [
            (
                name,
                self.total_cost(name),
                self.open_bug_weight(name),
                self.health(name),
            )
            for name in self.components()
        ]
