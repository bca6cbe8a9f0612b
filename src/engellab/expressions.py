"""Tiny expression language for defining fields in CLI configs.

Grammar (documented in README), with ``**`` for ``^`` and any whitespace
between tokens:

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := ('-' | '+') factor | atom ('^' ['-'] number)?
    atom    := number | variable | func '(' expr ')' | '(' expr ')'
    func    := 'sin' | 'cos' | 'exp' | 'sqrt' | 'log'
    number  := (digits '.' [digits] | '.' digits | digits) [('e' | 'E') ['+' | '-'] digits]

Python's parser (:func:`ast.parse`) reads the text, and its tree is compiled
once into closures over a whitelist of this grammar's nodes.  Any other node
or character, a non-integral exponent, and literals of another form (hex,
octal, binary, underscored, complex, boolean) are a
:class:`~engellab.errors.ConfigError`; the text is only parsed, never
compiled to code nor run.  Expressions evaluate with generic arithmetic, so
they work on floats, jets and the float arrays of a batch, where the functions
and ``^`` (:func:`~engellab.jets.power`) go entry by entry as on floats.
"""

from __future__ import annotations

import ast
import operator
import re
import warnings

import numpy as np

from . import jets
from .calculus import OneForm, ScalarField, VectorField
from .errors import ConfigError, ExpressionDomainError, JetDomainError

_FUNCS = {"sin": jets.sin, "cos": jets.cos, "exp": jets.exp,
          "sqrt": jets.sqrt, "log": jets.log}
_BINOPS = {ast.Add: operator.add, ast.Sub: operator.sub,
           ast.Mult: operator.mul, ast.Div: operator.truediv}

# deepest expression tree: compiling and evaluating one recurse once a level
MAX_DEPTH = 200

_BAD_CHAR = re.compile(r"[^\w.+\-*/() ]", re.ASCII)
_NUMBER = re.compile(r"(\d+\.\d*|\.\d+|\d+)([eE][+-]?\d+)?")
# what follows a power's base: its closing parentheses, '**', a signed literal
_EXPONENT = re.compile(r"\)*\*\*(-?" + _NUMBER.pattern + ")")
# leading zeros of a literal, which Python refuses in integer literals
_LEADING_ZEROS = re.compile(r"(?<![\w.])0+(?=\d)")


class Expression:
    """A parsed expression; call with a variable environment."""

    def __init__(self, text, variables):
        self.text = text
        self.variables = tuple(variables)
        src = " ".join(text.replace("^", "**").split())
        bad = _BAD_CHAR.search(src)
        if bad:
            raise ConfigError(f"bad character in expression: {bad.group()!r}")
        src = _LEADING_ZEROS.sub("", src)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error")  # a SyntaxWarning rejects too
                tree = ast.parse(src, mode="eval").body
        except SyntaxError as exc:
            raise ConfigError(f"cannot parse expression: {exc.msg}") from None
        except (RecursionError, MemoryError):  # the parser's stack overflowed
            raise ConfigError("expression nested too deeply to parse") from None
        self._fn = _compile(tree, src, set(self.variables))

    def __call__(self, env):
        """Evaluate on floats or jets, with NumPy's float errors raised; a
        domain error (of a float or a jet function), division by zero,
        overflow or an invalid operation becomes a
        :class:`~engellab.errors.ExpressionDomainError` (a geometry error)
        at the evaluation point."""
        try:
            with np.errstate(divide="raise", over="raise", invalid="raise"):
                return self._fn(env)
        except (ValueError, ArithmeticError, JetDomainError) as exc:
            point = [jets.value(env[name]) for name in self.variables]
            raise ExpressionDomainError(f"{self.text!r}: {exc}", point=point) from exc

    def __repr__(self):
        return f"Expression({self.text!r})"


def _compile(tree, src, variables):
    """One closure ``env -> value`` for the tree parsed from ``src``, of
    whitelisted nodes only; an operation evaluates its left operand first."""

    def comp(node, depth):
        if depth > MAX_DEPTH:
            raise ConfigError(f"expression nested deeper than {MAX_DEPTH} levels")
        match node:
            case ast.Constant():
                text = src[node.col_offset:node.end_col_offset]
                if not _NUMBER.fullmatch(text):
                    raise ConfigError(f"not a number literal: {text!r}")
                value = float(text)
                return lambda env: value
            case ast.Name(id=name) if name in variables:
                return operator.itemgetter(name)
            case ast.Name(id=name):
                raise ConfigError(f"unknown symbol {name!r} (variables: {sorted(variables)})")
            case ast.UnaryOp(op=ast.UAdd(), operand=arg):
                return comp(arg, depth + 1)
            case ast.UnaryOp(op=ast.USub(), operand=arg):
                f = comp(arg, depth + 1)
                return lambda env: -f(env)
            case ast.BinOp(op=ast.Pow()):
                m = _EXPONENT.fullmatch(src[node.left.end_col_offset:node.end_col_offset]
                                        .replace(" ", ""))
                if not (m and float(m[1]).is_integer()):
                    raise ConfigError("exponent must be an integer")
                base, e = comp(node.left, depth + 1), int(float(m[1]))
                return lambda env: jets.power(base(env), e)
            case ast.BinOp(op=op) if type(op) in _BINOPS:
                fn, left = _BINOPS[type(op)], comp(node.left, depth + 1)
                right = comp(node.right, depth + 1)
                return lambda env: fn(left(env), right(env))
            case ast.Call(func=ast.Name(id=name), args=[arg], keywords=[]) if name in _FUNCS:
                fn, f = _FUNCS[name], comp(arg, depth + 1)
                return lambda env: fn(f(env))
        raise ConfigError(f"not in the expression grammar: {ast.get_source_segment(src, node)!r}")

    return comp(tree, 0)


def _component_rule(chart, texts):
    exprs = [Expression(t, chart.coords) for t in texts]

    def rule(xs):
        env = dict(zip(chart.coords, xs))
        return [e(env) for e in exprs]

    return rule


def vector_field_from_exprs(chart, texts, name=""):
    """Vector field whose components are expression strings in the chart
    coordinates."""
    if len(texts) != chart.dim:
        raise ConfigError(f"need {chart.dim} components for chart {chart.name!r}, got {len(texts)}")
    return VectorField(chart, components=_component_rule(chart, texts), name=name)


def one_form_from_exprs(chart, texts, name=""):
    if len(texts) != chart.dim:
        raise ConfigError(f"need {chart.dim} components for chart {chart.name!r}, got {len(texts)}")
    return OneForm(chart, components=_component_rule(chart, texts), name=name)


def scalar_field_from_expr(chart, text, name=""):
    expr = Expression(text, chart.coords)

    def rule(xs):
        return [expr(dict(zip(chart.coords, xs)))]

    return ScalarField(chart, components=rule, name=name)
