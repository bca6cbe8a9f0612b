"""Tiny expression language for defining fields in CLI configs.

Grammar (documented in README):

    expr    := term (('+' | '-') term)*
    term    := factor (('*' | '/') factor)*
    factor  := ('-' | '+') factor | atom ('^' integer)?
    atom    := number | variable | func '(' expr ')' | '(' expr ')'
    func    := 'sin' | 'cos' | 'exp' | 'sqrt' | 'log'

This covers sums of monomial-coefficient terms plus the elementary functions
of affine arguments used throughout the desk-scale examples, while staying
trivially parseable.  Parsed expressions evaluate with generic arithmetic, so
they work on floats and on jets.
"""

from __future__ import annotations

import re

from . import jets
from .calculus import OneForm, ScalarField, VectorField
from .errors import ConfigError, ExpressionDomainError, JetDomainError

_FUNCS = {"sin": jets.sin, "cos": jets.cos, "exp": jets.exp,
          "sqrt": jets.sqrt, "log": jets.log}

_TOKEN = re.compile(r"\s*(?:(\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?|([A-Za-z_][A-Za-z_0-9]*)|(\*\*|[()+\-*/^]))")


def _tokenize(text):
    tokens, pos = [], 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            raise ConfigError(f"bad character in expression at: {text[pos:pos+10]!r}")
        num, name, op = m.groups()
        if num is not None:
            tokens.append(("num", float(m.group(0))))
        elif name is not None:
            tokens.append(("name", name))
        else:
            tokens.append(("op", "^" if op == "**" else op))
        pos = m.end()
    tokens.append(("end", None))
    return tokens


class Expression:
    """A parsed expression; call with a variable environment."""

    def __init__(self, text, variables):
        self.text = text
        self.variables = tuple(variables)
        self._ast = _Parser(_tokenize(text), set(variables)).parse()

    def __call__(self, env):
        """Evaluate on floats or jets; a domain error (of a float or a jet
        function), division by zero or overflow becomes a
        :class:`~engellab.errors.ExpressionDomainError` (a geometry error)
        at the evaluation point."""
        try:
            return _eval(self._ast, env)
        except (ValueError, ZeroDivisionError, OverflowError, JetDomainError) as exc:
            point = [v.value if isinstance(v, jets.Jet) else v
                     for v in (env[name] for name in self.variables)]
            raise ExpressionDomainError(f"{self.text!r}: {exc}", point=point) from exc

    def __repr__(self):
        return f"Expression({self.text!r})"


class _Parser:
    def __init__(self, tokens, varnames):
        self.tokens = tokens
        self.i = 0
        self.varnames = varnames

    def peek(self):
        return self.tokens[self.i]

    def next(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, op):
        kind, val = self.next()
        if kind != "op" or val != op:
            raise ConfigError(f"expected {op!r}, got {val!r}")

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            raise ConfigError(f"trailing tokens after expression: {self.peek()[1]!r}")
        return node

    def expr(self):
        node = self.term()
        while self.peek() == ("op", "+") or self.peek() == ("op", "-"):
            op = self.next()[1]
            node = (op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek() == ("op", "*") or self.peek() == ("op", "/"):
            op = self.next()[1]
            node = (op, node, self.factor())
        return node

    def factor(self):
        if self.peek() == ("op", "-"):
            self.next()
            return ("neg", self.factor())
        if self.peek() == ("op", "+"):
            self.next()
            return self.factor()
        node = self.atom()
        if self.peek() == ("op", "^"):
            self.next()
            kind, val = self.next()
            sign = 1
            if (kind, val) == ("op", "-"):
                sign = -1
                kind, val = self.next()
            if kind != "num" or val != int(val):
                raise ConfigError("exponent must be an integer")
            return ("pow", node, sign * int(val))
        return node

    def atom(self):
        kind, val = self.next()
        if kind == "num":
            return ("num", val)
        if kind == "name":
            if val in _FUNCS:
                self.expect_op("(")
                arg = self.expr()
                self.expect_op(")")
                return ("call", val, arg)
            if val not in self.varnames:
                raise ConfigError(f"unknown symbol {val!r} (variables: {sorted(self.varnames)})")
            return ("var", val)
        if (kind, val) == ("op", "("):
            node = self.expr()
            self.expect_op(")")
            return node
        raise ConfigError(f"unexpected token {val!r}")


def _eval(node, env):
    tag = node[0]
    if tag == "num":
        return node[1]
    if tag == "var":
        return env[node[1]]
    if tag == "neg":
        return -_eval(node[1], env)
    if tag == "+":
        return _eval(node[1], env) + _eval(node[2], env)
    if tag == "-":
        return _eval(node[1], env) - _eval(node[2], env)
    if tag == "*":
        return _eval(node[1], env) * _eval(node[2], env)
    if tag == "/":
        return _eval(node[1], env) / _eval(node[2], env)
    if tag == "pow":
        e = node[2]
        base = _eval(node[1], env)
        if e < 0:
            return (base ** (-e)).reciprocal() if hasattr(base, "reciprocal") else base ** e
        return base ** e
    if tag == "call":
        return _FUNCS[node[1]](_eval(node[2], env))
    raise ConfigError(f"corrupt expression node {tag!r}")


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
