"""End-to-end: one database hosting the whole software environment.

Section 3: Cactis can "represent the entire range of data within a system
... all the way up to facts about the personnel involved in a project ...
in a single unified framework."  This test compiles the milestone schema
and the project-master schema into ONE database, links them (a milestone
tracks each component), layers versioning and the presentation panel on
top, and drives a realistic episode through every subsystem at once.
"""

import pytest

from repro.core.database import Database
from repro.dsl import compile_schema
from repro.core.schema import Schema
from repro.env.milestones import MILESTONE_SCHEMA
from repro.env.presentation import ReportView
from repro.env.project import PROJECT_SCHEMA
from repro.errors import TransactionAborted
from repro.versions import VersionStream

LINKING_EXTENSION = """
relationship tracks is
    weight : integer from plug;
end relationship;

object class tracked_component subtype of component is
  relationships
    tracked_by : tracks multi plug;
  rules
    tracked_by weight = open_bug_weight;
end object;
"""


@pytest.fixture
def environment():
    schema = Schema()
    compile_schema(MILESTONE_SCHEMA, schema=schema, freeze=False)
    compile_schema(PROJECT_SCHEMA, schema=schema, freeze=False)
    compile_schema(LINKING_EXTENSION, schema=schema, freeze=True)
    return Database(schema, pool_capacity=256)


class TestUnifiedEnvironment:
    def test_full_episode(self, environment):
        db = environment
        stream = VersionStream(db)

        # --- populate: components + milestones in one database -----------
        compiler = db.create(
            "tracked_component", name="compiler", local_cost=50
        )
        editor = db.create("tracked_component", name="editor", local_cost=30)
        suite = db.create("component", name="suite", local_cost=5)
        db.connect(compiler, "part_of", suite, "parts")
        db.connect(editor, "part_of", suite, "parts")

        ship = db.create("milestone", sched_compl=40, local_work=2)
        build_all = db.create("milestone", sched_compl=30, local_work=25)
        db.connect(ship, "depends_on", build_all, "consists_of")

        assert db.get_attr(suite, "total_cost") == 85
        assert db.get_attr(ship, "exp_compl") == 27
        stream.tag("baseline")

        # --- the panel mirrors both subsystems ---------------------------
        panel = ReportView(db, title="program status")
        panel.add_row("suite cost", suite, "total_cost")
        panel.add_row("suite health", suite, "health")
        panel.add_row("ship expected", ship, "exp_compl")
        first_render = panel.render()
        assert "suite cost" in first_render

        # --- a bug lands; health and the panel react ----------------------
        bug = db.create("bug_report", title="codegen fault", severity=11)
        db.connect(bug, "against", compiler, "bugs")
        assert db.get_attr(suite, "health") == "red"
        assert panel.is_stale()
        panel.render()

        # --- the schedule slips; constraint guards costs ------------------
        db.set_attr(build_all, "local_work", 45)
        assert db.get_attr(ship, "late") is True
        with pytest.raises(TransactionAborted):
            db.set_attr(compiler, "local_cost", -10)
        assert db.get_attr(suite, "total_cost") == 85

        stream.tag("crunch")

        # --- fix the bug; everything recovers -----------------------------
        db.set_attr(bug, "open", False)
        assert db.get_attr(suite, "health") == "green"
        db.set_attr(build_all, "local_work", 20)
        assert db.get_attr(ship, "late") is False
        stream.tag("recovered")

        # --- time travel across the whole environment ---------------------
        stream.checkout("crunch")
        assert db.get_attr(suite, "health") == "red"
        assert db.get_attr(ship, "late") is True
        stream.checkout("baseline")
        assert db.get_attr(suite, "health") == "green"
        assert db.get_attr(ship, "exp_compl") == 27
        stream.checkout("recovered")
        assert db.get_attr(suite, "health") == "green"
        assert db.get_attr(ship, "exp_compl") == 22

    def test_cross_schema_link(self, environment):
        """The tracked_component extension transmits bug weight out of the
        project subsystem; any consumer schema can subscribe to it."""
        db = environment
        component = db.create("tracked_component", name="kernel", local_cost=9)
        bug = db.create("bug_report", title="panic", severity=6)
        db.connect(bug, "against", component, "bugs")
        assert db.get_transmitted(component, "tracked_by", "weight") == 6
        db.set_attr(bug, "open", False)
        assert db.get_transmitted(component, "tracked_by", "weight") == 0

    def test_persistence_of_the_whole_environment(self, environment, tmp_path):
        from repro.storage.codec import load_database, save_database

        db = environment
        component = db.create("tracked_component", name="kernel", local_cost=9)
        milestone = db.create("milestone", sched_compl=10, local_work=4)
        path = tmp_path / "env.json"
        save_database(db, str(path))

        schema = Schema()
        compile_schema(MILESTONE_SCHEMA, schema=schema, freeze=False)
        compile_schema(PROJECT_SCHEMA, schema=schema, freeze=False)
        compile_schema(LINKING_EXTENSION, schema=schema, freeze=True)
        restored, __ = load_database(str(path), schema)
        assert restored.get_attr(component, "total_cost") == 9
        assert restored.get_attr(milestone, "exp_compl") == 4
