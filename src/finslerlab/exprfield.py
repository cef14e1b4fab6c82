"""Tiny expression grammar for user-supplied metric/1-form entries.

Entries are arithmetic over the coordinate names x1..xn with sqrt, exp, log
and atan; expressions are parsed once with the ast module and evaluated
through the jet-aware math, so user fields are automatically differentiable.

A metric is given as semicolon-separated rows of comma-separated entries
("1+0.1*x1, 0; 0, 1"); it is symmetrized on input.  A 1-form is a single
comma-separated row.
"""

from __future__ import annotations

import ast

import numpy as np

from . import jets
from .geometry import MetricField, OneFormField

__all__ = ["parse_scalar", "metric_from_exprs", "oneform_from_exprs"]

_FUNCS = {
    "sqrt": jets.sqrt,
    "exp": jets.exp,
    "log": jets.log,
    "atan": jets.arctan,
    "arctan": jets.arctan,
}

_BINOPS = {
    ast.Add: lambda a, b: a + b,
    ast.Sub: lambda a, b: a - b,
    ast.Mult: lambda a, b: a * b,
    ast.Div: lambda a, b: a / b,
}


def parse_scalar(src: str, dim: int):
    """Compile one scalar expression into a jet-transparent callable of x."""
    try:
        tree = ast.parse(src.strip(), mode="eval")
    except SyntaxError as exc:
        raise ValueError(f"cannot parse expression {src!r}: {exc}") from exc
    names = {f"x{i + 1}": i for i in range(dim)}

    def ev(node, x):
        if isinstance(node, ast.Expression):
            return ev(node.body, x)
        if isinstance(node, ast.Constant):
            if not isinstance(node.value, (int, float)):
                raise ValueError(f"non-numeric constant {node.value!r}")
            return float(node.value)
        if isinstance(node, ast.Name):
            if node.id not in names:
                raise ValueError(f"unknown name {node.id!r} (use x1..x{dim})")
            return x[..., names[node.id]]
        if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
            v = ev(node.operand, x)
            return -v if isinstance(node.op, ast.USub) else v
        if isinstance(node, ast.BinOp):
            if isinstance(node.op, ast.Pow):
                expo = ev(node.right, x)
                if not isinstance(expo, float):
                    raise ValueError("exponent must be a numeric constant")
                return jets.power(ev(node.left, x), expo)
            op = _BINOPS.get(type(node.op))
            if op is None:
                raise ValueError(f"operator {type(node.op).__name__} not allowed")
            return op(ev(node.left, x), ev(node.right, x))
        if isinstance(node, ast.Call):
            if not isinstance(node.func, ast.Name) or node.func.id not in _FUNCS:
                raise ValueError("only sqrt/exp/log/atan calls are allowed")
            if len(node.args) != 1 or node.keywords:
                raise ValueError("functions take exactly one positional argument")
            return _FUNCS[node.func.id](ev(node.args[0], x))
        raise ValueError(f"unsupported syntax: {type(node).__name__}")

    # validate once against a dummy point so bad input fails at parse time
    ev(tree, np.zeros(dim))
    return lambda x: ev(tree, x)


def metric_from_exprs(src: str, dim: int, domain_radius: float = 1.0) -> MetricField:
    """MetricField from 'a11,..,a1n; ...; an1,..,ann' (symmetrized)."""
    rows = [r.split(",") for r in src.split(";")]
    if len(rows) != dim or any(len(r) != dim for r in rows):
        raise ValueError(f"metric expression must be {dim}x{dim} entries")
    fns = [[parse_scalar(e, dim) for e in row] for row in rows]
    basis = np.eye(dim)

    def mat(x):
        acc = 0.0
        for i in range(dim):
            for j in range(i, dim):
                e = np.outer(basis[i], basis[j])
                if i != j:
                    e = e + e.T
                    entry = 0.5 * (fns[i][j](x) + fns[j][i](x))
                else:
                    entry = fns[i][j](x)
                acc = jets.e2(entry) * e + acc
        return jets.lift(acc, x)

    return MetricField(dim, mat, domain_radius=domain_radius, name="custom")


def oneform_from_exprs(src: str, dim: int) -> OneFormField:
    """OneFormField from 'b1, ..., bn'."""
    entries = src.split(",")
    if len(entries) != dim:
        raise ValueError(f"1-form expression must have {dim} entries")
    fns = [parse_scalar(e, dim) for e in entries]
    basis = np.eye(dim)

    def cov(x):
        acc = 0.0
        for i in range(dim):
            acc = jets.col(fns[i](x)) * basis[i] + acc
        return jets.lift(acc, x)

    return OneFormField(dim, cov, name="custom")

