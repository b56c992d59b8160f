"""Brute-force rational evaluator used as the fuzz oracle.

Expressions are its own tuples, ("num", literal) or (op, left, right) with
op one of "add", "sub", "mul", "div"; values are hand-rolled (numerator,
denominator) integer pairs with gcd reduction. No Fraction, no float and no
pcqa import, so it shares nothing with the library's execution path: the
library sees only the fully parenthesised source `to_source` writes. Also
hosts the seeded random expression generator.
"""

from __future__ import annotations

import math
import random

_SYMBOL = {"add": "+", "sub": "-", "mul": "*", "div": "/"}


def _reduce(num: int, den: int) -> tuple[int, int]:
    if den < 0:
        num, den = -num, -den
    g = math.gcd(abs(num), den)
    return (num // g, den // g) if g else (0, 1)


def _literal_pair(literal: str) -> tuple[int, int]:
    sign = -1 if literal.startswith("-") else 1
    body = literal.lstrip("-")
    if "." in body:
        whole, frac = body.split(".")
        whole = whole or "0"
        num = int(whole) * 10 ** len(frac) + int(frac)
        return _reduce(sign * num, 10 ** len(frac))
    return _reduce(sign * int(body), 1)


class OracleZeroDivision(ZeroDivisionError):
    """The first division by zero in evaluation order (left operand, right
    operand, then the operation); `expr` is that division's expression."""

    def __init__(self, expr: tuple):
        super().__init__("division by zero")
        self.expr = expr


def oracle_eval(expr: tuple) -> tuple[int, int]:
    """Evaluate an arithmetic expression tuple to a reduced rational pair;
    a division by zero raises OracleZeroDivision."""
    if expr[0] == "num":
        return _literal_pair(expr[1])
    op, left, right = expr
    a, b = oracle_eval(left)
    c, d = oracle_eval(right)
    if op == "add":
        return _reduce(a * d + c * b, b * d)
    if op == "sub":
        return _reduce(a * d - c * b, b * d)
    if op == "mul":
        return _reduce(a * c, b * d)
    if c == 0:
        raise OracleZeroDivision(expr)
    return _reduce(a * d, b * c)


def to_source(expr: tuple) -> str:
    """Fully parenthesised derivation source: every operation in parentheses."""
    if expr[0] == "num":
        return expr[1]
    op, left, right = expr
    return f"({to_source(left)}{_SYMBOL[op]}{to_source(right)})"


def random_arithmetic_expr(rng: random.Random, depth: int = 4) -> tuple:
    """Random arithmetic expression: depth <= 4, decimal literals with <= 3 fraction digits."""
    if depth == 0 or rng.random() < 0.3:
        whole = rng.randint(0, 9999)
        frac_digits = rng.randint(0, 3)
        if frac_digits:
            frac = "".join(rng.choice("0123456789") for _ in range(frac_digits))
            literal = f"{whole}.{frac}"
        else:
            literal = str(whole)
        if rng.random() < 0.15:
            literal = "-" + literal
        return ("num", literal)
    op = rng.choice(["add", "sub", "mul", "div"])
    return (
        op,
        random_arithmetic_expr(rng, depth - 1),
        random_arithmetic_expr(rng, depth - 1),
    )


ZERO_LITERALS = ("0", "0.0", "-0", "-0.000")


def random_zero_divisor_expr(rng: random.Random, depth: int = 4) -> tuple:
    """Like random_arithmetic_expr, but half of the divisors are zero: a zero
    literal or an exact cancellation (x-x) of a random subexpression x."""
    if depth == 0 or rng.random() < 0.3:
        return random_arithmetic_expr(rng, 0)
    op = rng.choice(["add", "sub", "mul", "div"])
    left = random_zero_divisor_expr(rng, depth - 1)
    right = random_zero_divisor_expr(rng, depth - 1)
    if op == "div" and rng.random() < 0.5:
        if rng.random() < 0.5:
            right = ("num", rng.choice(ZERO_LITERALS))
        else:
            x = random_arithmetic_expr(rng, rng.randint(0, 2))
            right = ("sub", x, x)
    return (op, left, right)
