"""Unit tests for the rule-body codegen.

Covers the public contract of :mod:`repro.compile`: which bodies compile
(every DSL body, when it is compiled from source), which stay native, how
structurally identical bodies share one code object and for how long, and
the kwargs adapter of :class:`CompiledBody`.
"""

from __future__ import annotations

import gc

import pytest

from tests.references import ReferenceInterpreter

from repro.compile import CompiledBody, code_cache_size
from repro.core.database import Database
from repro.core.rules import AttributeTarget
from repro.dsl import compile_schema
from repro.errors import DslRuntimeError
from repro.workloads import sum_node_schema

CHAIN_SRC = """
relationship dep is total : integer from plug; end;
object class node is
  relationships
    inputs  : dep multi socket;
    outputs : dep multi plug;
  attributes
    weight : integer;
    total  : integer;
  rules
    total = begin
        acc : integer;
        acc := weight;
        for each src related to inputs do
            acc := acc + src.total;
        end for;
        return acc;
    end;
    outputs total = total;
end;
"""


def _target_key(target):
    if isinstance(target, AttributeTarget):
        return target.attr
    return f"{target.port}>{target.value}"


def _rule_bodies(schema, class_name):
    return {
        _target_key(rule.target): rule.body
        for rule in schema.resolved(class_name).rules
    }


class TestCompilePass:
    def test_dsl_rules_become_compiled_bodies(self):
        schema = compile_schema(CHAIN_SRC)
        bodies = _rule_bodies(schema, "node")
        assert all(isinstance(b, CompiledBody) for b in bodies.values())
        stats = schema.compile_stats
        assert stats["rules_compiled"] == 2
        assert stats["native_bodies"] == 0
        assert stats["compile_seconds"] > 0

    def test_compiled_schema_computes_like_the_paper_example(self):
        db = Database(compile_schema(CHAIN_SRC))
        a = db.create("node", weight=3)
        b = db.create("node", weight=4)
        db.connect(b, "inputs", a, "outputs")
        assert db.get_attr(b, "total") == 7
        db.set_attr(a, "weight", 10)
        assert db.get_attr(b, "total") == 14

    def test_compile_metrics_reflect_pass(self):
        db = Database(compile_schema(CHAIN_SRC))
        a = db.create("node", weight=1)
        db.get_attr(a, "total")
        flat = db.metrics().flatten()
        assert flat["compile.rules_compiled"] == 2
        assert flat["compile.plans_built"] >= 1
        assert flat["compile.plan_instances"] >= 1

    def test_native_python_bodies_stay_native(self):
        schema = sum_node_schema()
        stats = schema.compile_stats
        assert stats["rules_compiled"] == 0
        assert stats["native_bodies"] == 2
        bodies = _rule_bodies(schema, "node")
        assert not any(isinstance(b, CompiledBody) for b in bodies.values())

    def test_bodies_are_compiled_before_freeze(self):
        schema = compile_schema(CHAIN_SRC, freeze=False)
        bodies = [rule.body for rule in schema.classes["node"].rules]
        assert len(bodies) == 2
        assert all(isinstance(b, CompiledBody) for b in bodies)
        assert schema.compile_stats["rules_compiled"] == 2


class TestCanonicalizationAndCache:
    def test_structurally_identical_rules_share_one_code_object(self):
        # Same body shape, different class/attribute/variable names: the
        # canonical source is identical, so the second compile is a cache
        # hit onto the same function object.
        src = """
        object class alpha is
          attributes x : integer; d : integer;
          rules d = begin
              t : integer;
              t := x + 1;
              return t * 2;
          end;
        end;
        object class beta is
          attributes other : integer; dd : integer;
          rules dd = begin
              acc : integer;
              acc := other + 1;
              return acc * 2;
          end;
        end;
        """
        schema = compile_schema(src)
        body_a = _rule_bodies(schema, "alpha")["d"]
        body_b = _rule_bodies(schema, "beta")["dd"]
        assert isinstance(body_a, CompiledBody)
        assert body_a.source == body_b.source
        assert body_a.fn is body_b.fn
        assert schema.compile_stats["cache_hits"] >= 1

    def test_different_environment_objects_do_not_alias(self):
        # Identical source but different registered functions must compile
        # to *different* closures.
        src = """
        object class c is
          attributes x : integer; d : integer;
          rules d = f(x);
        end;
        """
        s1 = compile_schema(src, functions={"f": lambda v: v + 1})
        s2 = compile_schema(src, functions={"f": lambda v: v - 1})
        b1 = _rule_bodies(s1, "c")["d"]
        b2 = _rule_bodies(s2, "c")["d"]
        assert b1.source == b2.source
        assert b1.fn is not b2.fn
        assert b1(l_x=10) == 11
        assert b2(l_x=10) == 9

    def test_cache_does_not_pin_dropped_bodies(self):
        # Bodies differing only in a literal each get a code object; once
        # their schemas are gone, so are the cache entries.
        gc.collect()
        before = code_cache_size()
        for i in range(300):
            compile_schema(
                "object class c is attributes x : integer; d : integer;"
                f" rules d = x + {i}; end;"
            )
        gc.collect()
        assert code_cache_size() - before < 10


class TestCompiledBodyAdapter:
    def test_kwargs_call_matches_positional_fast_path(self):
        schema = compile_schema(CHAIN_SRC)
        body = _rule_bodies(schema, "node")["total"]
        kwargs = {"l_weight": 5, "r_inputs__total": [1, 2, 3]}
        args = [kwargs[name] for name in body.kwnames]
        assert body(**kwargs) == body.fn(*args) == 11

    def test_missing_input_raises_dsl_runtime_error(self):
        schema = compile_schema(CHAIN_SRC)
        body = _rule_bodies(schema, "node")["total"]
        with pytest.raises(DslRuntimeError, match="missing rule input"):
            body(l_weight=5)

    def test_reference_interpreter_agrees(self):
        schema = compile_schema(CHAIN_SRC)
        body = _rule_bodies(schema, "node")["total"]
        reference = ReferenceInterpreter(body, schema.atoms)
        kwargs = {"l_weight": 2, "r_inputs__total": [10, 20]}
        assert body(**kwargs) == reference(**kwargs) == 32
