"""Ordinals below epsilon_0 in Cantor normal form.

An Ordinal is a decreasing sum of terms w^e * c with ordinal exponents e
and positive integer coefficients c; the empty sum is 0.  Addition and
multiplication are the standard set-theoretic operations, so addition is
non-commutative (1 + w = w) and multiplication distributes over addition
from the left: a*(b+c) = a*b + a*c.

Exponent nesting is capped at depth 4; deeper towers raise CapacityError.
The textual syntax is `w^2*3 + w*1 + 5`, with parentheses for nested
exponents such as `w^(w*2)*3`.
"""
from __future__ import annotations

import re
from functools import total_ordering

from .errors import CapacityError, InputError, WindowEscape
from .report import Verdict

DEPTH_LIMIT = 4


@total_ordering
class Ordinal:
    __slots__ = ("terms",)

    def __init__(self, terms=()):
        terms = tuple(terms)
        for exp, coeff in terms:
            if not isinstance(exp, Ordinal):
                raise InputError("exponents must be Ordinals")
            if not isinstance(coeff, int) or coeff < 1:
                raise InputError("coefficients must be positive integers")
        for i in range(len(terms) - 1):
            if ord_cmp(terms[i][0], terms[i + 1][0]) != "gt":
                raise InputError("exponents must be strictly decreasing")
        object.__setattr__(self, "terms", terms)
        if self.depth() > DEPTH_LIMIT:
            raise CapacityError(f"ordinal exceeds exponent depth {DEPTH_LIMIT}")

    def __setattr__(self, name, value):
        raise AttributeError("Ordinal is immutable")

    @classmethod
    def from_int(cls, n: int) -> "Ordinal":
        if n < 0:
            raise InputError("ordinals are non-negative")
        if n == 0:
            return ZERO
        return cls(((ZERO, n),))

    def depth(self) -> int:
        if not self.terms:
            return 0
        return 1 + max(e.depth() for e, _ in self.terms)

    def is_zero(self) -> bool:
        return not self.terms

    def is_natural(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and self.terms[0][0].is_zero())

    def as_int(self) -> int:
        if self.is_zero():
            return 0
        if not self.is_natural():
            raise InputError(f"{self} is not a natural number")
        return self.terms[0][1]

    def __eq__(self, other) -> bool:
        return isinstance(other, Ordinal) and self.terms == other.terms

    def __lt__(self, other) -> bool:
        return ord_cmp(self, other) == "lt"

    def __hash__(self) -> int:
        return hash(self.terms)

    def __add__(self, other) -> "Ordinal":
        return ord_add(self, other)

    def __mul__(self, other) -> "Ordinal":
        return ord_mul(self, other)

    def __repr__(self) -> str:
        return f"Ordinal({self})"

    def __str__(self) -> str:
        return format_ordinal(self)


ZERO = Ordinal()
ONE = Ordinal.from_int(1)


def omega(coeff: int = 1) -> Ordinal:
    return Ordinal(((ONE, coeff),))


def omega_power(exp: Ordinal | int, coeff: int = 1) -> Ordinal:
    if isinstance(exp, int):
        exp = Ordinal.from_int(exp)
    return Ordinal(((exp, coeff),))


def ord_cmp(a: Ordinal, b: Ordinal) -> str:
    """Three-way comparison: "lt" | "eq" | "gt"."""
    for (ea, ca), (eb, cb) in zip(a.terms, b.terms):
        c = ord_cmp(ea, eb)
        if c != "eq":
            return c
        if ca != cb:
            return "lt" if ca < cb else "gt"
    if len(a.terms) != len(b.terms):
        return "lt" if len(a.terms) < len(b.terms) else "gt"
    return "eq"


def ord_add(a: Ordinal, b: Ordinal) -> Ordinal:
    """CNF addition: terms of a below the leading exponent of b vanish."""
    if b.is_zero():
        return a
    if a.is_zero():
        return b
    eb = b.terms[0][0]
    keep = [t for t in a.terms if ord_cmp(t[0], eb) == "gt"]
    merged = list(b.terms)
    boundary = [t for t in a.terms if ord_cmp(t[0], eb) == "eq"]
    if boundary:
        merged[0] = (eb, boundary[0][1] + b.terms[0][1])
    return Ordinal(tuple(keep) + tuple(merged))


def ord_mul(a: Ordinal, b: Ordinal) -> Ordinal:
    """CNF multiplication via left distributivity over b's terms."""
    if a.is_zero() or b.is_zero():
        return ZERO
    result = ZERO
    ea, ca = a.terms[0]
    for eb, cb in b.terms:
        if eb.is_zero():
            # a * n = (leading term scaled by n) + tail of a
            piece = Ordinal(((ea, ca * cb),) + a.terms[1:])
        else:
            piece = Ordinal(((ord_add(ea, eb), cb),))
        result = ord_add(result, piece)
    return result


def ord_sup(ordinals) -> Ordinal:
    """Maximum of a non-empty finite set (ordinals are linearly ordered)."""
    ordinals = list(ordinals)
    if not ordinals:
        raise InputError("sup of an empty set of ordinals")
    best = ordinals[0]
    for o in ordinals[1:]:
        if ord_cmp(best, o) == "lt":
            best = o
    return best


# ---------------------------------------------------------------------------
# parsing and printing

_TOKEN = re.compile(r"\s*(w|\d+|[\^*+()])")


def parse_ordinal(text: str) -> Ordinal:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise InputError(f"bad ordinal syntax at {text[pos:]!r}")
            break
        tokens.append(m.group(1))
        pos = m.end()
    result, rest = _parse_sum(tokens)
    if rest:
        raise InputError(f"trailing ordinal tokens {rest!r}")
    return result


def _parse_sum(tokens):
    total, tokens = _parse_term(tokens)
    while tokens and tokens[0] == "+":
        nxt, tokens = _parse_term(tokens[1:])
        total = ord_add(total, nxt)
    return total, tokens


def _parse_term(tokens):
    if not tokens:
        raise InputError("empty ordinal term")
    tok = tokens[0]
    if tok == "w":
        tokens = tokens[1:]
        exp = ONE
        if tokens and tokens[0] == "^":
            exp, tokens = _parse_atom(tokens[1:])
        coeff = 1
        if tokens and tokens[0] == "*":
            if len(tokens) < 2 or not tokens[1].isdigit():
                raise InputError("coefficient must be an integer")
            coeff = int(tokens[1])
            tokens = tokens[2:]
        if coeff == 0:
            return ZERO, tokens
        return omega_power(exp, coeff), tokens
    if tok.isdigit():
        return Ordinal.from_int(int(tok)), tokens[1:]
    raise InputError(f"unexpected token {tok!r} in ordinal")


def _parse_atom(tokens):
    if not tokens:
        raise InputError("missing exponent")
    if tokens[0] == "(":
        inner, tokens = _parse_sum(tokens[1:])
        if not tokens or tokens[0] != ")":
            raise InputError("unbalanced parenthesis in ordinal")
        return inner, tokens[1:]
    if tokens[0].isdigit():
        return Ordinal.from_int(int(tokens[0])), tokens[1:]
    if tokens[0] == "w":
        # bare `w^w...` exponent without parentheses
        return _parse_term(tokens)
    raise InputError(f"bad exponent token {tokens[0]!r}")


def format_ordinal(o: Ordinal) -> str:
    if o.is_zero():
        return "0"
    parts = []
    for exp, coeff in o.terms:
        if exp.is_zero():
            parts.append(str(coeff))
            continue
        if exp == ONE:
            head = "w"
        elif exp.is_natural():
            head = f"w^{exp.as_int()}"
        else:
            head = f"w^({format_ordinal(exp)})"
        parts.append(head if coeff == 1 else f"{head}*{coeff}")
    return " + ".join(parts)


# ---------------------------------------------------------------------------
# the idempotent max-addition reduct


class MaxReduct:
    """A finite ordinal window with add = max and mul = ordinal product.

    The max addition is commutative and idempotent, and the product
    distributes over it from both sides.  Products that leave the window
    raise WindowEscape naming the offending pair; nothing is clipped.
    """

    def __init__(self, window):
        window = sorted(set(window), key=_key_of)
        if not window:
            raise InputError("empty ordinal window")
        if not window[0].is_zero():
            window = [ZERO] + window
        self.window = tuple(window)

    def add(self, a: Ordinal, b: Ordinal) -> Ordinal:
        self._require(a)
        self._require(b)
        return a if ord_cmp(a, b) != "lt" else b

    def mul(self, a: Ordinal, b: Ordinal) -> Ordinal:
        self._require(a)
        self._require(b)
        r = ord_mul(a, b)
        if r not in self.window:
            raise WindowEscape(f"product {a} * {b} = {r} escapes the window", a, b)
        return r

    def _require(self, a: Ordinal) -> None:
        if a not in self.window:
            raise InputError(f"{a} not in window")

    def check_distributivity(self) -> tuple[Verdict, list]:
        """Both distributive laws over all in-window triples.

        Triples whose products escape are collected (as escapes), not
        silently skipped or clipped.
        """
        escapes = []
        for a in self.window:
            for b in self.window:
                for c in self.window:
                    try:
                        lhs = self.mul(c, self.add(a, b))
                        rhs = self.add(self.mul(c, a), self.mul(c, b))
                        if lhs != rhs:
                            return Verdict.failed("max-reduct-left-dist", (c, a, b, lhs, rhs)), escapes
                        lhs = self.mul(self.add(a, b), c)
                        rhs = self.add(self.mul(a, c), self.mul(b, c))
                        if lhs != rhs:
                            return Verdict.failed("max-reduct-right-dist", (a, b, c, lhs, rhs)), escapes
                    except WindowEscape as esc:
                        escapes.append(esc.operands)
        return Verdict.passed("max-reduct-dist"), escapes


def _key_of(o: Ordinal):
    # total order key consistent with ord_cmp, for deterministic windows
    return tuple((_key_of(e), c) for e, c in o.terms)
