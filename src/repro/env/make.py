"""The make facility (Figures 2-4).

Two reproductions of the paper's make capability are provided:

1. :class:`MakeFacility` -- the production variant.  ``make_rule`` objects
   carry the paper's two relationships (``output`` to dependents,
   ``depends_on`` to prerequisites) and two attributes (``file_name``,
   ``make_command``).  File modification times enter the database as an
   intrinsic ``file_mtime`` attribute synchronised from the simulated file
   system, so the derived attributes stay *pure* functions of database
   state:

   * the transmitted ``mod_time`` is Figure 3's "youngest of this object
     and everything it depends on";
   * the derived ``needs_rebuild`` is Figure 4's staleness test
     (missing target, or any dependency subtree younger than the target).

   :meth:`MakeFacility.build` walks prerequisites depth-first and runs
   ``make_command`` for exactly the stale rules, in dependency order --
   the observable behaviour of Figure 4's ``up_to_date`` rule -- with every
   executed command recorded in the runner's journal.

2. :func:`figure4_schema_source` -- the *literal* Figures 2-4 rules in the
   data language, side effects and all (``up_to_date`` issues
   ``system_command`` from inside the rule body).  Faithful to the paper's
   text; see :meth:`MakeFacility.build_figure4` for the driver that
   iterates it to a fixed point.  The pure variant is preferred for real
   use because rule bodies with side effects depend on evaluation order,
   a hazard the paper's own chunked evaluator shares.
"""

from __future__ import annotations

from repro.core.atoms import TIME_FUTURE
from repro.core.database import Database
from repro.core.rules import AttributeTarget, Local, Received, Rule, TransmitTarget
from repro.core.schema import (
    AttrKind,
    AttributeDef,
    End,
    FlowDecl,
    ObjectClass,
    PortDef,
    RelationshipType,
    Schema,
)
from repro.env.files import CommandRunner, SimulatedFileSystem
from repro.errors import CactisError

#: intrinsic sentinel meaning "the file does not exist".
MISSING = -1


def make_schema() -> Schema:
    """The pure-rule make schema (Figure 2's class, Figures 3-4's logic)."""
    schema = Schema()
    schema.add_relationship_type(
        RelationshipType(
            "make_result",
            [
                # Figure 3: the youngest modification time of the subtree,
                # flowing from a prerequisite (socket side consumes it).
                FlowDecl("mod_time", "time", End.PLUG, default=0),
            ],
        )
    )

    def youngest(file_mtime: int, dep_times: list[int]) -> int:
        # Figure 3: "compute and return the youngest of things this object
        # depends on".  A missing file is infinitely new (TIME_FUTURE) so
        # everything downstream sees itself as stale.
        own = TIME_FUTURE if file_mtime == MISSING else file_mtime
        result = own
        for t in dep_times:
            if t > result:
                result = t
        return result

    def stale(file_mtime: int, dep_times: list[int]) -> bool:
        # Figure 4's test: recreate when the target is missing or any
        # dependency subtree is younger than the target file.
        if file_mtime == MISSING:
            return True
        return any(t > file_mtime for t in dep_times)

    schema.add_class(
        ObjectClass(
            "make_rule",
            attributes=[
                AttributeDef("file_name", "string"),
                AttributeDef("make_command", "string"),
                AttributeDef("file_mtime", "integer", default=MISSING),
                AttributeDef("needs_rebuild", "boolean", AttrKind.DERIVED),
                AttributeDef("youngest", "time", AttrKind.DERIVED),
            ],
            ports=[
                # Figure 2: "output: to things that depend on this object;
                # depends_on: to things this object depends on".
                PortDef("output", "make_result", End.PLUG, multi=True),
                PortDef("depends_on", "make_result", End.SOCKET, multi=True),
            ],
            rules=[
                Rule(
                    AttributeTarget("youngest"),
                    {
                        "file_mtime": Local("file_mtime"),
                        "dep_times": Received("depends_on", "mod_time"),
                    },
                    youngest,
                ),
                Rule(
                    TransmitTarget("output", "mod_time"),
                    {"y": Local("youngest")},
                    lambda y: y,
                ),
                Rule(
                    AttributeTarget("needs_rebuild"),
                    {
                        "file_mtime": Local("file_mtime"),
                        "dep_times": Received("depends_on", "mod_time"),
                    },
                    stale,
                ),
            ],
        )
    )
    return schema.freeze()


class MakeError(CactisError):
    """Make-facility misuse: unknown targets, dependency cycles, etc."""


class MakeFacility:
    """A make tool whose dependency logic lives in database rules."""

    def __init__(
        self,
        fs: SimulatedFileSystem,
        runner: CommandRunner,
        db: Database | None = None,
    ) -> None:
        self.fs = fs
        self.runner = runner
        self.db = db if db is not None else Database(make_schema())
        self._rule_of: dict[str, int] = {}

    # -- graph construction ------------------------------------------------------

    def add_rule(
        self,
        file_name: str,
        make_command: str = "",
        depends_on: list[str] | None = None,
    ) -> int:
        """Register a target (or source, with no command) and its deps.

        Dependencies must already be registered -- like a Makefile read
        top-down from leaves.  Returns the instance id.
        """
        if file_name in self._rule_of:
            raise MakeError(f"a rule for {file_name!r} already exists")
        iid = self.db.create(
            "make_rule",
            file_name=file_name,
            make_command=make_command,
            file_mtime=self._mtime(file_name),
        )
        self._rule_of[file_name] = iid
        for dep_name in depends_on or []:
            dep = self._iid(dep_name)
            self.db.connect(iid, "depends_on", dep, "output")
        return iid

    def add_dependency(self, target: str, prerequisite: str) -> None:
        self.db.connect(
            self._iid(target), "depends_on", self._iid(prerequisite), "output"
        )

    def _iid(self, file_name: str) -> int:
        try:
            return self._rule_of[file_name]
        except KeyError:
            raise MakeError(f"no rule for {file_name!r}") from None

    def _mtime(self, file_name: str) -> int:
        return self.fs.mod_time(file_name) if self.fs.exists(file_name) else MISSING

    # -- synchronisation ------------------------------------------------------

    def note_file_changed(self, file_name: str) -> None:
        """Propagate an external file change into the database.

        The user edited (or deleted) a file: its ``file_mtime`` intrinsic is
        updated, and the incremental engine ripples staleness to every
        dependent rule automatically.
        """
        self.db.set_attr(self._iid(file_name), "file_mtime", self._mtime(file_name))

    def sync_all(self) -> None:
        """Re-synchronise every registered file's mtime in one batched wave."""
        with self.db.batch():
            for file_name in self._rule_of:
                self.note_file_changed(file_name)

    # -- queries ------------------------------------------------------------

    def needs_rebuild(self, file_name: str) -> bool:
        return bool(self.db.get_attr(self._iid(file_name), "needs_rebuild"))

    def out_of_date_targets(self) -> list[str]:
        """Every registered target that is currently stale (has a command)."""
        return sorted(
            name
            for name, iid in self._rule_of.items()
            if self.db.get_attr(iid, "make_command")
            and self.db.get_attr(iid, "needs_rebuild")
        )

    # -- building ------------------------------------------------------------

    def build(self, target: str) -> list[str]:
        """Bring ``target`` up to date; returns the commands executed.

        Prerequisites are visited depth-first (postorder), so every command
        runs only after its inputs are current -- the recursion implicit in
        Figure 4's ``VOID(dep.up_to_date)`` -- and only stale rules run
        their command.
        """
        executed: list[str] = []
        visiting: set[int] = set()
        done: set[int] = set()

        def visit(iid: int) -> None:
            if iid in done:
                return
            if iid in visiting:
                raise MakeError(
                    f"dependency cycle through "
                    f"{self.db.get_attr(iid, 'file_name')!r}"
                )
            visiting.add(iid)
            for dep in self.db.peers(iid, "depends_on"):
                visit(dep)
            if self.db.get_attr(iid, "needs_rebuild"):
                command = self.db.get_attr(iid, "make_command")
                file_name = self.db.get_attr(iid, "file_name")
                if command:
                    self.runner.run(command)
                    executed.append(command)
                    self.note_file_changed(file_name)
                elif not self.fs.exists(file_name):
                    raise MakeError(
                        f"{file_name!r} does not exist and has no make command"
                    )
            visiting.discard(iid)
            done.add(iid)

        visit(self._iid(target))
        return executed


# ---------------------------------------------------------------------------
# the literal Figures 2-4 variant
# ---------------------------------------------------------------------------


def figure4_schema_source() -> str:
    """The make_rule class exactly as Figures 2-4 write it.

    ``up_to_date`` really does call ``system_command`` from inside the rule
    body; compile with ``functions={"file_mod_time": ..., "system_command":
    ...}`` bound to a :class:`SimulatedFileSystem` and
    :class:`CommandRunner` (see :func:`compile_figure4_schema`).
    """
    return """
    relationship make_result is
        mod_time   : time    from plug default 0;
        up_to_date : integer from plug default 1;
    end relationship;

    object class make_rule is
      relationships
        output     : make_result multi plug;   /* to things that depend on this object */
        depends_on : make_result multi socket; /* to things this object depends on */
      attributes
        file_name    : string;  /* path name of file to create */
        make_command : string;  /* text of command to create the file */
      rules
        /* Figure 3: the youngest of this object and the things it depends on */
        output mod_time = begin
            youngest : time;
            youngest := file_mod_time(file_name);
            for each dep related to depends_on do
                youngest := later_of(youngest, dep.mod_time);
            end for;
            return youngest;
        end;
        /* Figure 4: ensure this object and everything below it is current */
        output up_to_date = begin
            need_recreate : boolean;
            this_time     : time;
            need_recreate := false;
            this_time := file_mod_time(file_name);
            for each dep related to depends_on do
                void(dep.up_to_date);
                if later_than(dep.mod_time, this_time) then
                    need_recreate := true;
                end if;
            end for;
            if need_recreate then
                system_command(make_command);
            end if;
            return 1;
        end;
    end object;
    """


def compile_figure4_schema(
    fs: SimulatedFileSystem, runner: CommandRunner
) -> Schema:
    """Compile the literal Figures 2-4 class against a simulated world."""
    from repro.dsl import compile_schema

    def file_mod_time(name: str) -> int:
        # Reproduction erratum: the paper says file_mod_time returns "a time
        # in the distant future if the file does not exist", but with that
        # convention Figure 4 can never rebuild a *missing target* --
        # ``later_than(dep.mod_time, TIME_FUTURE)`` is always false.  The
        # distant-future convention only makes sense for the *transmitted*
        # youngest-time of Figure 3 (forcing dependents stale).  Returning
        # the distant past for missing files makes both figures behave as
        # make must; see EXPERIMENTS.md (E9) for the full analysis.
        return fs.mod_time(name) if fs.exists(name) else 0

    def system_command(command: str) -> int:
        if command:
            runner.run(command)
        return 0

    return compile_schema(
        figure4_schema_source(),
        functions={
            "file_mod_time": file_mod_time,
            "system_command": system_command,
        },
    )


class Figure4Make:
    """Driver for the literal Figures 2-4 rules.

    Because ``file_mod_time`` reads state outside the database, the cached
    ``mod_time``/``up_to_date`` values must be invalidated whenever the file
    system may have changed; :meth:`build` does so and then demands the
    target's ``up_to_date``, repeating until a pass executes no command
    (side-effecting rules may observe a prerequisite's pre-rebuild
    ``mod_time`` within a single pass; each pass rebuilds at least the
    deepest stale rule, so the iteration converges in at most
    dependency-depth passes).
    """

    def __init__(self, fs: SimulatedFileSystem, runner: CommandRunner) -> None:
        self.fs = fs
        self.runner = runner
        self.db = Database(compile_figure4_schema(fs, runner))
        self._rule_of: dict[str, int] = {}

    def add_rule(
        self,
        file_name: str,
        make_command: str = "",
        depends_on: list[str] | None = None,
    ) -> int:
        if file_name in self._rule_of:
            raise MakeError(f"a rule for {file_name!r} already exists")
        iid = self.db.create(
            "make_rule", file_name=file_name, make_command=make_command
        )
        self._rule_of[file_name] = iid
        for dep_name in depends_on or []:
            dep = self._rule_of.get(dep_name)
            if dep is None:
                raise MakeError(f"no rule for {dep_name!r}")
            self.db.connect(iid, "depends_on", dep, "output")
        return iid

    def invalidate_world(self) -> None:
        """Mark every file-derived value stale (the file system moved on)."""
        slots = []
        for iid in self._rule_of.values():
            slots.append((iid, "output>mod_time"))
            slots.append((iid, "output>up_to_date"))
        self.db.engine.invalidate_derived(slots)

    def build(self, target: str, max_passes: int = 64) -> list[str]:
        """Bring ``target`` current with the paper's own rules; returns
        the commands executed across all passes."""
        iid = self._rule_of.get(target)
        if iid is None:
            raise MakeError(f"no rule for {target!r}")
        executed: list[str] = []
        for __ in range(max_passes):
            before = len(self.runner.journal)
            self.invalidate_world()
            self.db.get_transmitted(iid, "output", "up_to_date")
            ran = self.runner.journal[before:]
            executed.extend(ran)
            if not ran:
                return executed
        raise MakeError(f"build of {target!r} did not converge")
