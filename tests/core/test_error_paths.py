"""Failure handling: rule errors, bad schemas at runtime, error hierarchy."""

import pytest

from repro.core.database import Database
from repro.core.rules import AttributeTarget, Local, Rule
from repro.core.schema import AttrKind, AttributeDef, ObjectClass, Schema
from repro.errors import (
    CactisError,
    ConcurrencyAbort,
    ConstraintViolation,
    CycleError,
    DslCompileError,
    DslSyntaxError,
    RuleEvaluationError,
    SchemaError,
    TransactionAborted,
    UnknownAttributeError,
    UnknownInstanceError,
)


def failing_rule_schema() -> Schema:
    schema = Schema()
    schema.add_class(
        ObjectClass(
            "fragile",
            attributes=[
                AttributeDef("x", "integer"),
                AttributeDef("inverse", "integer", AttrKind.DERIVED),
            ],
            rules=[
                Rule(
                    AttributeTarget("inverse"),
                    {"x": Local("x")},
                    lambda x: 100 // x,  # raises ZeroDivisionError on x=0
                )
            ],
        )
    )
    return schema.freeze()


class TestRuleFailures:
    def test_rule_error_wrapped_and_identified(self):
        db = Database(failing_rule_schema())
        iid = db.create("fragile", x=0)
        with pytest.raises(RuleEvaluationError) as excinfo:
            db.get_attr(iid, "inverse")
        assert excinfo.value.slot == (iid, "inverse")
        assert isinstance(excinfo.value.cause, ZeroDivisionError)

    def test_rule_error_in_primitive_rolls_back(self):
        db = Database(failing_rule_schema())
        iid = db.create("fragile", x=4)
        db.watch(iid, "inverse")  # makes the rule run during propagation
        with pytest.raises(RuleEvaluationError):
            db.set_attr(iid, "x", 0)
        # The failing update was rolled back.
        assert db.get_attr(iid, "x") == 4
        assert db.get_attr(iid, "inverse") == 25

    def test_database_usable_after_rule_error(self):
        db = Database(failing_rule_schema())
        bad = db.create("fragile", x=0)
        with pytest.raises(RuleEvaluationError):
            db.get_attr(bad, "inverse")
        good = db.create("fragile", x=5)
        assert db.get_attr(good, "inverse") == 20


class TestFreezeCollectsAllViolations:
    def test_single_violation_is_reported_bare(self):
        schema = Schema()
        schema.add_class(
            ObjectClass(
                "c", attributes=[AttributeDef("x", "no_such_atom")]
            )
        )
        with pytest.raises(SchemaError) as excinfo:
            schema.freeze()
        assert "schema violations" not in str(excinfo.value)
        assert "no_such_atom" in str(excinfo.value)

    def test_violations_across_classes_reported_together(self):
        schema = Schema()
        schema.add_class(
            ObjectClass("a", attributes=[AttributeDef("x", "no_such_atom")])
        )
        schema.add_class(
            ObjectClass(
                "b",
                attributes=[
                    AttributeDef("y", "integer", AttrKind.DERIVED)
                ],  # derived but no rule
            )
        )
        schema.add_class(ObjectClass("c", supertype="missing"))
        with pytest.raises(SchemaError) as excinfo:
            schema.freeze()
        message = str(excinfo.value)
        assert "3 schema violations" in message
        assert "no_such_atom" in message
        assert "'y'" in message
        assert "missing" in message

    def test_failed_freeze_leaves_schema_reusable(self):
        schema = Schema()
        schema.add_class(
            ObjectClass("a", attributes=[AttributeDef("x", "no_such_atom")])
        )
        with pytest.raises(SchemaError):
            schema.freeze()
        fixed = Schema()
        fixed.add_class(
            ObjectClass("a", attributes=[AttributeDef("x", "integer")])
        )
        assert fixed.freeze() is fixed


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "exc_type",
        [
            SchemaError,
            CycleError,
            ConstraintViolation,
            TransactionAborted,
            ConcurrencyAbort,
            RuleEvaluationError,
            DslSyntaxError,
            DslCompileError,
            UnknownInstanceError,
        ],
    )
    def test_all_derive_from_cactis_error(self, exc_type):
        assert issubclass(exc_type, CactisError)

    def test_concurrency_abort_is_transaction_aborted(self):
        assert issubclass(ConcurrencyAbort, TransactionAborted)

    def test_cycle_error_carries_slots(self):
        error = CycleError([(1, "a"), (2, "b")])
        assert error.slots == ((1, "a"), (2, "b"))
        assert "(1, 'a')" in str(error)

    def test_constraint_violation_carries_context(self):
        error = ConstraintViolation("cap", 7)
        assert error.constraint_name == "cap"
        assert error.instance_id == 7

    def test_dsl_syntax_error_position(self):
        error = DslSyntaxError("bad token", 3, 9)
        assert (error.line, error.column) == (3, 9)
        assert "line 3" in str(error)


class TestOperationsOnMissingInstances:
    def test_every_primitive_rejects_unknown_iid(self, db):
        with pytest.raises(UnknownInstanceError):
            db.get_attr(999, "weight")
        with pytest.raises(UnknownInstanceError):
            db.set_attr(999, "weight", 1)
        with pytest.raises(UnknownInstanceError):
            db.delete(999)
        iid = db.create("node")
        with pytest.raises(UnknownInstanceError):
            db.connect(iid, "inputs", 999, "outputs")
        with pytest.raises(UnknownInstanceError):
            db.view(999).get("weight")


class TestFailedWatch:
    """A watch is validated exactly like ``get_attr``: failing changes nothing."""

    def test_failed_watch_leaves_no_standing_demand(self, db):
        iid = db.create("node", weight=1)
        with pytest.raises(UnknownAttributeError):
            db.watch(iid, "nope")
        ghost = db.next_instance_id
        with pytest.raises(UnknownInstanceError):
            db.watch(ghost, "total")
        assert db.engine.standing_demands == set()
        assert db.metrics()["engine"]["standing_demands"] == 0
        # The id the failed watch named is allocated next: its total stays
        # lazy like any unwatched slot instead of being evaluated every wave.
        assert db.create("node", weight=2) == ghost
        db.get_attr(ghost, "total")
        before = db.engine.counters.rule_evaluations
        db.set_attr(ghost, "weight", 3)
        assert db.engine.counters.rule_evaluations == before
        assert (ghost, "total") in db.engine.out_of_date
