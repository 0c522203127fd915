"""The code snippets shipped in README/package docstrings must keep working,
and every file or ``make`` target a document cites must exist."""

import pytest

from tests.doccheck import (
    ROOT,
    assert_cited_files_exist,
    assert_cited_make_targets_exist,
    prose_docs,
)
from repro import (
    AttrKind,
    AttributeDef,
    AttributeTarget,
    Database,
    End,
    FlowDecl,
    Local,
    ObjectClass,
    PortDef,
    Received,
    RelationshipType,
    Rule,
    Schema,
    TransmitTarget,
)


@pytest.mark.parametrize(
    "doc", prose_docs(), ids=lambda path: path.relative_to(ROOT).as_posix()
)
def test_cited_files_and_make_targets_exist(doc):
    assert_cited_files_exist(doc)
    assert_cited_make_targets_exist(doc)


def test_readme_quickstart():
    schema = Schema()
    schema.add_relationship_type(
        RelationshipType("dep", [FlowDecl("total", "integer", End.PLUG)])
    )
    schema.add_class(ObjectClass(
        "node",
        attributes=[
            AttributeDef("weight", "integer"),
            AttributeDef("total", "integer", AttrKind.DERIVED),
        ],
        ports=[
            PortDef("inputs", "dep", End.SOCKET, multi=True),
            PortDef("outputs", "dep", End.PLUG, multi=True),
        ],
        rules=[
            Rule(AttributeTarget("total"),
                 {"w": Local("weight"), "ins": Received("inputs", "total")},
                 lambda w, ins: w + sum(ins)),
            Rule(TransmitTarget("outputs", "total"),
                 {"t": Local("total")}, lambda t: t),
        ],
    ))

    db = Database(schema)
    a = db.create("node", weight=1)
    b = db.create("node", weight=2)
    db.connect(b, "inputs", a, "outputs")
    assert db.get_attr(b, "total") == 3
    db.set_attr(a, "weight", 10)
    assert db.get_attr(b, "total") == 12
    db.undo()
    assert db.get_attr(b, "total") == 3


def test_readme_dsl_figure1():
    from repro.dsl import compile_schema

    schema = compile_schema("""
        relationship milestone_dep is
            exp_time : time from plug;
        end relationship;

        object class milestone is
          relationships
            depends_on  : milestone_dep multi socket;
            consists_of : milestone_dep multi plug;
          attributes
            sched_compl : time;
            local_work  : time;
            exp_compl   : time;
            late        : boolean;
          rules
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
    """)
    db = Database(schema)
    m = db.create("milestone", local_work=3, sched_compl=2)
    assert db.get_attr(m, "exp_compl") == 3
    assert db.get_attr(m, "late") is True


def test_tutorial_ticket_schema():
    from repro.dsl import compile_schema

    schema = compile_schema("""
    relationship blocking is
        open_weight : integer from plug;
    end relationship;

    object class ticket is
      relationships
        blocks     : blocking multi plug;
        blocked_by : blocking multi socket;
      attributes
        title    : string;
        severity : integer = 1;
        open     : boolean = true;
        effective_weight : integer;
      rules
        effective_weight = begin
            w : integer;
            if open then
                w := severity;
            end if;
            for each dep related to blocked_by do
                w := w + dep.open_weight;
            end for;
            return w;
        end;
        blocks open_weight = effective_weight;
      constraints
        sane_severity : severity >= 1 and severity <= 10;
    end object;
    """)
    db = Database(schema)
    parser = db.create("ticket", title="parser crash", severity=7)
    lexer = db.create("ticket", title="lexer bug", severity=4)
    db.connect(parser, "blocked_by", lexer, "blocks")
    assert db.get_attr(parser, "effective_weight") == 11
    db.set_attr(lexer, "open", False)
    assert db.get_attr(parser, "effective_weight") == 7
    db.undo()
    assert db.get_attr(parser, "effective_weight") == 11

    from repro.errors import TransactionAborted
    import pytest

    with pytest.raises(TransactionAborted):
        db.set_attr(parser, "severity", 11)
