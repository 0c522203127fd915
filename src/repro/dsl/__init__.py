"""The Cactis data language processor.

A small schema language reproducing the paper's Figures 1-4, with a lexer
(:mod:`repro.dsl.lexer`), recursive-descent parser (:mod:`repro.dsl.parser`),
AST (:mod:`repro.dsl.ast`), the one name resolver every consumer of a rule
body reads (:mod:`repro.dsl.resolve`), and compiler to schema objects with
statically declared dependencies (:mod:`repro.dsl.compiler`).

Example (Figure 1's milestone class)::

    from repro.dsl import compile_schema

    schema = compile_schema('''
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
    ''')
"""

from repro.dsl.compiler import (
    DEFAULT_CONSTANTS,
    DEFAULT_FUNCTIONS,
    SchemaCompiler,
    compile_schema,
)
from repro.dsl.lexer import Token, tokenize
from repro.dsl.printer import format_schema
from repro.dsl.query import Query, compile_query, run_query
from repro.dsl.parser import Parser, parse

__all__ = [
    "DEFAULT_CONSTANTS",
    "DEFAULT_FUNCTIONS",
    "Parser",
    "Query",
    "compile_query",
    "format_schema",
    "run_query",
    "SchemaCompiler",
    "Token",
    "compile_schema",
    "parse",
    "tokenize",
]
