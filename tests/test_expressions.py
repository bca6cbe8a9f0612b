"""Reference suite for the tiny expression grammar."""

import ast
import builtins
import math

import numpy as np
import pytest

from engellab.calculus import Chart
from engellab.errors import ConfigError, ExpressionDomainError
from engellab.expressions import (MAX_DEPTH, Expression, one_form_from_exprs,
                                  scalar_field_from_expr, vector_field_from_exprs)
from engellab.jets import Jet

CH = Chart("c", ("x", "y", "z"))


@pytest.mark.parametrize("text,env,value", [
    ("1 + 2*3", {}, 7.0),
    ("2^3", {}, 8.0),
    ("2**3", {}, 8.0),
    ("-x + y", {"x": 1.0, "y": 5.0}, 4.0),
    ("x*y - z/2", {"x": 2.0, "y": 3.0, "z": 4.0}, 4.0),
    ("sin(x)^2 + cos(x)^2", {"x": 0.7}, 1.0),
    ("exp(0)", {}, 1.0),
    ("sqrt(x^2)", {"x": 3.0}, 3.0),
    ("log(exp(x))", {"x": 1.3}, 1.3),
    ("x^-1", {"x": 4.0}, 0.25),
    ("-(x + y)*2", {"x": 1.0, "y": 2.0}, -6.0),
    ("1.5e2", {}, 150.0),
    ("+x", {"x": 2.0}, 2.0),
    # whitespace of any kind between tokens, and decimal leading zeros
    ("x\n+\ty ", {"x": 1.0, "y": 2.0}, 3.0),
    ("007 + 00.5", {}, 7.5),
    ("x ^ - 2.0", {"x": 2.0}, 0.25),
])
def test_reference_values(text, env, value):
    e = Expression(text, tuple(env))
    assert abs(e(env) - value) < 1e-12


@pytest.mark.parametrize("text", [
    "x +", "sin x", "(x", "x ^ y", "x ^ 1.5", "2 $ 3", "unknown_sym", "",
    # literals outside the number form
    "0x10", "0b1", "0o7", "1_000", "1j", "True", "x + None",
    # exponents other than a signed number literal
    "x^(2)", "x^-(2)", "x^(-2)", "x^+2", "x^2^2", "x ^ 1e400",
    # Python syntax outside the grammar
    "x # comment", "sin(x,)", "sin(x, y)", "sin()", "x % 2", "x // 2", "x.real",
    "x if y else 1", "-x(y)", "sin", "pow(x, 2)", "await x", "\uff58",
    # a tree deeper than the limit (the CLI tests nest past the parser's own)
    pytest.param("+".join(["x"] * (MAX_DEPTH + 2)), id="sum-deeper-than-MAX_DEPTH"),
])
def test_parse_errors(text):
    with pytest.raises(ConfigError):
        Expression(text, ("x", "y"))


def test_nesting_at_the_limit_evaluates():
    e = Expression("+".join(["x"] * (MAX_DEPTH + 1)), ("x",))
    assert e({"x": 1.0}) == MAX_DEPTH + 1
    assert e({"x": Jet.seeds([1.0], 1)[0]}).gradient()[0] == MAX_DEPTH + 1


def test_text_is_parsed_but_never_compiled_or_run(monkeypatch):
    real_compile = builtins.compile

    def parse_only(source, filename, mode, flags=0, *args, **kwargs):
        assert flags & ast.PyCF_ONLY_AST, "config text compiled to code"
        return real_compile(source, filename, mode, flags, *args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("config text run")

    monkeypatch.setattr(builtins, "compile", parse_only)
    monkeypatch.setattr(builtins, "eval", refuse)
    monkeypatch.setattr(builtins, "exec", refuse)
    e = Expression("sin(x)^2 + exp(-y)/3", ("x", "y"))
    assert abs(e({"x": 0.5, "y": 0.0}) - (math.sin(0.5) ** 2 + 1 / 3)) < 1e-15


def test_evaluates_on_jets():
    e = Expression("x*y + sin(x)", ("x", "y"))
    seeds = Jet.seeds([0.3, 0.5], 3)
    got = e(dict(zip(("x", "y"), seeds)))
    assert abs(got.value - (0.15 + math.sin(0.3))) < 1e-14
    # d/dx at the base point
    assert abs(got.gradient()[0] - (0.5 + math.cos(0.3))) < 1e-14


def test_jet_overflow_is_a_domain_error_at_the_point():
    # on floats exp(100)^10 overflows and raises; on jets at a lone point it
    # raises the same error, where it used to give an inf jet and a warning
    f = scalar_field_from_expr(Chart("c", ("x",)), "exp(x)^10")
    for evaluate in (lambda: f([100.0]), lambda: f.taylor([100.0], 1),
                     lambda: f.taylor([100.0], 0)):
        with pytest.raises(ExpressionDomainError) as err:
            evaluate()
        assert err.value.point == [100.0]
    with pytest.raises(ExpressionDomainError, match="overflow"):
        Expression("exp(x)^10", ("x",))({"x": Jet.variable(0, 1, 1, base=100.0)})
    for text in ("x/y", "1/x"):  # NumPy scalars: invalid and divide raise too
        with pytest.raises(ExpressionDomainError):
            Expression(text, ("x", "y"))({"x": np.float64(0.0), "y": np.float64(0.0)})
    assert f([1.0]) == math.exp(1.0) ** 10


@pytest.mark.parametrize("text", ["x^2", "x^3", "x^-2", "x/y", "(x + y)^3/y^2"])
def test_arrays_evaluate_entry_by_entry_bit_for_bit(text):
    # a batch's array gives, entry by entry, the value at each point alone:
    # NumPy's array powers round otherwise than Python's float powers
    rng = np.random.default_rng(20)
    x, y = rng.uniform(-3.0, 3.0, (2, 100_000))
    e = Expression(text, ("x", "y"))
    got = e({"x": x, "y": y})
    want = [e({"x": a, "y": b}) for a, b in zip(x.tolist(), y.tolist())]
    assert np.array_equal(got.view(np.int64), np.array(want).view(np.int64))


def test_field_constructors_validate_arity():
    with pytest.raises(ConfigError):
        vector_field_from_exprs(CH, ["x", "y"])
    with pytest.raises(ConfigError):
        one_form_from_exprs(CH, ["x"])


def test_field_roundtrip():
    X = vector_field_from_exprs(CH, ["y*z", "-x", "1"])
    p = [0.2, 0.4, -0.6]
    assert np.allclose(X(p), [0.4 * -0.6, -0.2, 1.0])
    f = scalar_field_from_expr(CH, "x + 2*y^2")
    assert abs(f(p) - (0.2 + 2 * 0.16)) < 1e-14
