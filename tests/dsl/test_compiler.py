"""Compiler tests: dependency analysis and rule interpretation."""

import pytest

from repro.core.database import Database
from repro.core.rules import Local, Received
from repro.dsl import compile_schema
from repro.errors import DslCompileError, DslRuntimeError

BASIC = """
relationship dep is
    total : integer from plug;
end relationship;

object class node is
  relationships
    ins  : dep multi socket;
    outs : dep multi plug;
  attributes
    weight : integer;
    total  : integer;
  rules
    total = begin
        acc : integer;
        acc := weight;
        for each d related to ins do
            acc := acc + d.total;
        end for;
        return acc;
    end;
    outs total = total;
end object;
"""


class TestCompiledSchemaWorks:
    def test_end_to_end(self):
        db = Database(compile_schema(BASIC))
        a = db.create("node", weight=1)
        b = db.create("node", weight=2)
        db.connect(b, "ins", a, "outs")
        assert db.get_attr(b, "total") == 3
        db.set_attr(a, "weight", 10)
        assert db.get_attr(b, "total") == 12

    def test_attr_with_rule_promoted_to_derived(self):
        schema = compile_schema(BASIC)
        assert schema.resolved("node").attributes["total"].derived

    def test_dependencies_declared(self):
        schema = compile_schema(BASIC)
        rule = schema.resolved("node").rule_for["total"]
        inputs = set(rule.inputs.values())
        assert Local("weight") in inputs
        assert Received("ins", "total") in inputs


class TestExpressionSemantics:
    def compile_fn(self, expr, attrs="x : integer; y : integer;"):
        source = (
            f"object class c is attributes {attrs} d : integer; "
            f"rules d = {expr}; end;"
        )
        schema = compile_schema(source)
        return schema.resolved("c").rule_for["d"]

    def test_arithmetic(self):
        rule = self.compile_fn("x * 2 + y - 1")
        assert rule.body(l_x=3, l_y=4) == 9

    def test_integer_division(self):
        rule = self.compile_fn("x / y")
        assert rule.body(l_x=7, l_y=2) == 3  # C semantics

    def test_modulo(self):
        rule = self.compile_fn("x % y")
        assert rule.body(l_x=7, l_y=3) == 1

    def test_comparisons(self):
        rule = self.compile_fn("x <= y")
        assert rule.body(l_x=1, l_y=2) is True
        assert rule.body(l_x=3, l_y=2) is False

    def test_boolean_logic(self):
        rule = self.compile_fn("x > 0 and not (y > 0)")
        assert rule.body(l_x=1, l_y=0) is True
        assert rule.body(l_x=1, l_y=1) is False

    def test_constants(self):
        rule = self.compile_fn("TIME0 + 1")
        assert rule.body() == 1

    def test_builtin_functions(self):
        rule = self.compile_fn("later_of(x, y) + min(x, y)")
        assert rule.body(l_x=3, l_y=5) == 8

    def test_custom_functions_and_constants(self):
        source = (
            "object class c is attributes d : integer; "
            "rules d = twice(BASE); end;"
        )
        schema = compile_schema(
            source, functions={"twice": lambda v: 2 * v}, constants={"BASE": 21}
        )
        assert schema.resolved("c").rule_for["d"].body() == 42


class TestBlockSemantics:
    def test_local_variable_default(self):
        source = (
            "object class c is attributes d : integer; rules d = begin "
            "acc : integer; return acc; end; end;"
        )
        schema = compile_schema(source)
        assert schema.resolved("c").rule_for["d"].body() == 0

    def test_if_else(self):
        source = (
            "object class c is attributes x : integer; d : string; "
            "rules d = begin if x > 0 then return \"pos\"; "
            "else return \"neg\"; end if; end; end;"
        )
        rule = compile_schema(source).resolved("c").rule_for["d"]
        assert rule.body(l_x=5) == "pos"
        assert rule.body(l_x=-5) == "neg"

    def test_missing_return_raises(self):
        source = (
            "object class c is attributes d : integer; rules d = begin "
            "x : integer; end; end;"
        )
        rule = compile_schema(source).resolved("c").rule_for["d"]
        with pytest.raises(DslRuntimeError, match="without a return"):
            rule.body()

    def test_for_each_iterates_connection_order(self):
        db = Database(compile_schema(BASIC))
        hub = db.create("node", weight=0)
        for w in (1, 2, 3):
            up = db.create("node", weight=w)
            db.connect(hub, "ins", up, "outs")
        assert db.get_attr(hub, "total") == 6

    def test_loop_with_no_value_reference_gets_implicit_dep(self):
        source = """
        relationship dep is total : integer from plug; end;
        object class c is
          relationships ins : dep multi socket;
          attributes n : integer;
          rules n = begin
              count : integer;
              for each d related to ins do
                  count := count + 1;
              end for;
              return count;
          end;
        end;
        """
        schema = compile_schema(source)
        rule = schema.resolved("c").rule_for["n"]
        assert Received("ins", "total") in set(rule.inputs.values())


class TestCompileErrors:
    def test_unknown_name(self):
        with pytest.raises(DslCompileError, match="unknown name"):
            compile_schema(
                "object class c is attributes d : integer; rules d = ghost; end;"
            )

    def test_unknown_function(self):
        with pytest.raises(DslCompileError, match="unknown function"):
            compile_schema(
                "object class c is attributes d : integer; rules d = frob(1); end;"
            )

    def test_for_each_over_single_port_rejected(self):
        source = """
        relationship dep is total : integer from plug; end;
        object class c is
          relationships one : dep socket;
          attributes d : integer;
          rules d = begin
              for each x related to one do void(x.total); end for;
              return 0;
          end;
        end;
        """
        with pytest.raises(DslCompileError, match="Multi port"):
            compile_schema(source)

    def test_field_ref_on_multi_port_rejected(self):
        source = """
        relationship dep is total : integer from plug; end;
        object class c is
          relationships many : dep multi socket;
          attributes d : integer;
          rules d = many.total;
        end;
        """
        with pytest.raises(DslCompileError, match="For Each"):
            compile_schema(source)

    def test_unknown_flow_value_rejected(self):
        source = """
        relationship dep is total : integer from plug; end;
        object class c is
          relationships one : dep socket;
          attributes d : integer;
          rules d = one.ghost;
        end;
        """
        with pytest.raises(DslCompileError, match="does not receive"):
            compile_schema(source)

    def test_unknown_recovery_function(self):
        source = (
            "object class c is attributes x : integer; "
            "constraints pos : x >= 0 recover fixit; end;"
        )
        with pytest.raises(DslCompileError, match="recovery"):
            compile_schema(source)


    def test_unknown_local_variable_type_is_a_positioned_compile_error(self):
        # Used to compile and fail only at the first get_attr, as a
        # RuleEvaluationError wrapping a DslRuntimeError.
        source = (
            "object class c is\n"
            "  attributes d : integer;\n"
            "  rules d = begin\n"
            "      v : bogus;\n"
            "      return 0;\n"
            "  end;\n"
            "end;\n"
        )
        with pytest.raises(DslCompileError, match="unknown atom type 'bogus'") as err:
            compile_schema(source)
        assert (err.value.line, err.value.column) == (4, 7)

    LOOP = """
    relationship dep is total : integer from plug; end;
    object class node is
      relationships
        ins  : dep multi socket;
        outs : dep multi plug;
      attributes
        weight : integer;
        total  : integer;
      rules
        total = begin
            acc : integer;
            {decl}
            for each d related to ins do
                acc := acc + {read};
            end for;
            return acc + {after};
        end;
        outs total = total;
    end;
    """

    def test_bare_loop_variable_rejected(self):
        # Used to compile, return 0 while nothing was connected, and raise
        # DslRuntimeError at the first evaluation with a connection.
        source = self.LOOP.format(decl="", read="d", after="0")
        with pytest.raises(DslCompileError, match="loop variable 'd' used bare") as err:
            compile_schema(source)
        assert (err.value.line, err.value.column) == (15, 30)

    def test_loop_variable_shadows_a_block_variable_only_inside_its_loop(self):
        decl = "d : integer; d := weight;"
        with pytest.raises(DslCompileError, match="loop variable 'd' used bare"):
            compile_schema(self.LOOP.format(decl=decl, read="d", after="0"))
        db = Database(
            compile_schema(self.LOOP.format(decl=decl, read="d.total", after="d"))
        )
        a = db.create("node", weight=3)
        b = db.create("node", weight=5)
        db.connect(b, "ins", a, "outs")
        assert db.get_attr(a, "total") == 3
        assert db.get_attr(b, "total") == 3 + 5  # a.total, then the variable d


class TestSingleValuedPortAccess:
    def test_direct_field_ref_on_single_port(self):
        source = """
        relationship dep is total : integer from plug; end;
        object class consumer is
          relationships one : dep socket;
          attributes d : integer;
          rules d = one.total + 1;
        end;
        object class producer is
          relationships out : dep multi plug;
          attributes v : integer;
          rules out total = v;
        end;
        """
        db = Database(compile_schema(source))
        p = db.create("producer", v=10)
        c = db.create("consumer")
        db.connect(c, "one", p, "out")
        assert db.get_attr(c, "d") == 11

    def test_dangling_single_port_uses_flow_default(self):
        source = """
        relationship dep is total : integer from plug default 7; end;
        object class consumer is
          relationships one : dep socket;
          attributes d : integer;
          rules d = one.total + 1;
        end;
        """
        db = Database(compile_schema(source))
        c = db.create("consumer")
        assert db.get_attr(c, "d") == 8


class TestInheritanceInDsl:
    def test_subclass_uses_supertype_attrs(self):
        source = (
            "object class base is attributes x : integer; end;"
            "object class sub subtype of base is "
            "attributes d : integer; rules d = x + 1; end;"
        )
        db = Database(compile_schema(source))
        iid = db.create("sub", x=4)
        assert db.get_attr(iid, "d") == 5
