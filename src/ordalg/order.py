"""Order-theoretic foundations: materialized order relations, axiom
checkers with witnesses, and finite sup/inf.

Relations are stored as explicit pair sets rather than comparison
callbacks so that every axiom check is an exhaustive scan and every
failure comes with a concrete witness tuple.
"""
from __future__ import annotations

from .errors import InputError
from .report import Verdict

Mode = str  # "directed" | "linear"


class OrderRelation:
    """A binary relation `leq` over a finite carrier of identifiers.

    The carrier and the pairs are never mutated after construction:
    `above[x]` (the z with x <= z) and `below[x]` (the z with z <= x) are
    built from them once, and bounds and extrema are read from those sets.
    """

    def __init__(self, carrier: tuple[str, ...], pairs: frozenset[tuple[str, str]]):
        self.carrier = carrier
        self.pairs = pairs
        seen = set(carrier)
        if len(seen) != len(carrier):
            raise InputError("carrier contains duplicate identifiers")
        above = {x: set() for x in self.carrier}
        below = {x: set() for x in self.carrier}
        for x, y in self.pairs:
            if x not in seen or y not in seen:
                raise InputError(f"relation mentions unknown identifier in pair ({x},{y})")
            above[x].add(y)
            below[y].add(x)
        self.above = {x: frozenset(up) for x, up in above.items()}
        self.below = {x: frozenset(down) for x, down in below.items()}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.carrier, self.pairs) == (other.carrier, other.pairs)

    @classmethod
    def chain(cls, elements) -> "OrderRelation":
        """Total order in the listed element order."""
        elements = tuple(elements)
        pairs = frozenset(
            (elements[i], elements[j])
            for i in range(len(elements))
            for j in range(i, len(elements))
        )
        return cls(elements, pairs)

    @classmethod
    def from_covers(cls, elements, covers) -> "OrderRelation":
        """Reflexive-transitive closure of the given covering pairs, by
        Warshall's algorithm on the sets of elements above each element."""
        elements = tuple(elements)
        above = {x: {x} for x in elements}
        for x, y in covers:
            # a pair naming an unknown element is kept for the constructor to refuse
            above.setdefault(x, {x}).add(y)
        for k in elements:
            for up in above.values():
                if k in up:
                    up |= above[k]
        return cls(elements, frozenset((x, y) for x, up in above.items() for y in up))

    def leq(self, x: str, y: str) -> bool:
        return (x, y) in self.pairs

    def lt(self, x: str, y: str) -> bool:
        return x != y and (x, y) in self.pairs

    def comparable(self, x: str, y: str) -> bool:
        return (x, y) in self.pairs or (y, x) in self.pairs

    def join(self, a: str, b: str) -> str:
        """The larger of two comparable elements; callers check that
        they are comparable."""
        return b if (a, b) in self.pairs else a

    def meet(self, a: str, b: str) -> str:
        """The smaller of two comparable elements."""
        return a if (a, b) in self.pairs else b

    def bounds(self, subset, up: bool) -> list[str]:
        """The upper bounds of the subset when `up`, else the lower bounds,
        in carrier order."""
        sets = self.above if up else self.below
        common = set(self.carrier)
        for x in subset:
            common.intersection_update(sets.get(x, ()))
        return [z for z in self.carrier if z in common]


class OrderedCarrier:
    """An order together with its distinguished minimal element (zero)."""

    def __init__(self, order: OrderRelation, zero: str):
        self.order = order
        self.zero = zero
        if zero not in order.carrier:
            raise InputError(f"zero element {self.zero!r} not in carrier")
        for x in order.carrier:
            if not order.leq(zero, x):
                raise InputError(f"zero element {self.zero!r} is not minimal: not leq {x!r}")


def check_order_axioms(order: OrderRelation, mode: Mode) -> Verdict:
    """Exhaustively verify the ordering axioms for the requested mode.

    directed: transitivity, reflexivity, and upper bounds for all pairs.
    linear:   directed axioms plus the strict-order axioms on `<`
              (which force antisymmetry).  On a finite carrier a linear
              order is a well-order, so no subset scan is needed.

    Returns the first violated axiom with a minimal witness.
    """
    if mode not in ("directed", "linear"):
        raise InputError(f"unknown order mode {mode!r}")
    if not order.carrier:
        raise InputError("carrier must be non-empty")
    law = f"order-{mode}"
    for x in order.carrier:  # D2
        if not order.leq(x, x):
            return Verdict.failed(law, ("D2", x))
    above = order.above
    for x, y in order.pairs:  # D1
        escaped = above[y] - above[x]
        if escaped:
            z = next(z for z in order.carrier if z in escaped)
            return Verdict.failed(law, ("D1", x, y, z))
    if mode == "directed":
        for x in order.carrier:  # D3
            for y in order.carrier:
                if above[x].isdisjoint(above[y]):
                    return Verdict.failed(law, ("D3", x, y))
        return Verdict.passed(law)
    # strict-order axioms; LO1 follows from D1 plus LO2 but is scanned anyway
    for x in order.carrier:
        for y in order.carrier:
            if order.lt(x, y) and order.lt(y, x):
                return Verdict.failed(law, ("LO2", x, y))
            if x != y and not order.comparable(x, y):
                return Verdict.failed(law, ("LO3", x, y))
    for x in order.carrier:
        for y in order.carrier:
            if not order.lt(x, y):
                continue
            for z in order.carrier:
                if order.lt(y, z) and not order.lt(x, z):
                    return Verdict.failed(law, ("LO1", x, y, z))
    return Verdict.passed(law)


def sup_over(subset, order: OrderRelation) -> str | None:
    """Least upper bound inside the carrier, or None when there is none."""
    return _extremum(subset, order, True)


def inf_over(subset, order: OrderRelation) -> str | None:
    """Greatest lower bound inside the carrier, or None."""
    return _extremum(subset, order, False)


def _extremum(subset, order: OrderRelation, up: bool) -> str | None:
    """The least upper bound when `up`, else the greatest lower bound."""
    subset = set(subset)
    if not subset:
        raise InputError(f"{'sup' if up else 'inf'} of an empty subset")
    if not subset <= order.above.keys():
        raise InputError("subset not contained in carrier")
    bounds = order.bounds(subset, up)
    # the least upper bound lies below every upper bound, and dually
    beyond = order.above if up else order.below
    every = set(bounds)
    for z in bounds:
        if every <= beyond[z]:
            return z
    return None
