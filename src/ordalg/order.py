"""Order-theoretic foundations: materialized order relations, axiom
checkers with witnesses, and finite sup/inf.

The elements of an order are codes 0..n-1 in carrier order; `carrier`
keeps their names.  Every list of names becomes codes here: `encode`
codes a carrier once, and `codes` looks up the names a constructor is
given in such a code.  Names are read only where an order is built (its
pairs are pairs of names) and where a failing axiom names its witness.
Everything else reads code-indexed tables built once: the up-sets and
down-sets, and `picks`, the one place that join, meet and comparability
are read from.  Every axiom check is an exhaustive scan, and every
failure comes with a concrete witness tuple.  An order has no distinguished
element: `structures.FinStruct` checks that the zero it names is least.
"""
from __future__ import annotations

from .errors import InputError
from .report import Verdict

Mode = str  # "directed" | "linear"


def encode(what: str, names) -> dict:
    """The codes 0..n-1 of the names, in order; a repeated name is refused.
    `what` names one name, after its owner and ": " if any: "G: element"."""
    code = {x: i for i, x in enumerate(names)}
    if len(code) < len(names):
        owner, sep, noun = what.rpartition(": ")
        raise InputError(f"{owner}{sep}repeated {noun} in {' '.join(names)}")
    return code


def codes(what: str, names, code: dict) -> tuple:
    """The code of each name, in order; a name that `code` does not hold
    is refused, named after `what`, as in "z: zero element"."""
    try:
        return tuple(code[x] for x in names)
    except KeyError as exc:
        raise InputError(f"{what} {exc.args[0]!r} not in carrier") from None


class OrderRelation:
    """A binary relation `leq` over a finite carrier of named elements.

    It is never mutated after construction.  `code` maps names to codes,
    `above[x]` (the z with x <= z) and `below[x]` (the z with z <= x) are
    frozensets of codes, and `picks[a][b]` is (join, meet) of comparable
    a and b, the larger and the smaller, or None when they are
    incomparable.  `extrema[up]` keeps the sup (up) or inf of each set of
    codes once it is decided.
    """

    def __init__(self, carrier: tuple[str, ...], pairs):
        self.carrier = carrier
        code = self.code = encode("element", carrier)
        above = [set() for _ in carrier]
        for x, y in pairs:
            if x not in code or y not in code:
                raise InputError(f"relation mentions unknown identifier in pair ({x},{y})")
            above[code[x]].add(code[y])
        n = range(len(carrier))
        self.above = tuple(map(frozenset, above))
        self.below = tuple(frozenset(x for x in n if y in above[x]) for y in n)
        self.picks = tuple(
            tuple((b, a) if b in above[a] else (a, b) if a in above[b] else None for b in n) for a in n
        )
        self.extrema = {True: {}, False: {}}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.carrier, self.above) == (other.carrier, other.above)

    @classmethod
    def chain(cls, elements) -> "OrderRelation":
        """Total order in the listed element order."""
        elements = tuple(elements)
        pairs = ((elements[i], elements[j]) for i in range(len(elements)) for j in range(i, len(elements)))
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
        return cls(elements, ((x, y) for x, up in above.items() for y in up))

    def leq(self, x: int, y: int) -> bool:
        return y in self.above[x]

    def lt(self, x: int, y: int) -> bool:
        return x != y and y in self.above[x]

    def comparable(self, x: int, y: int) -> bool:
        return self.picks[x][y] is not None

    def named(self, witness: tuple) -> tuple:
        """A witness with each code replaced by its element's name; tags
        (strings) are kept."""
        return tuple(w if isinstance(w, str) else self.carrier[w] for w in witness)


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
    witness = axiom_failure(order, mode)
    return Verdict.passed(law) if witness is None else Verdict.failed(law, order.named(witness))


def axiom_failure(order: OrderRelation, mode: Mode) -> tuple | None:
    """The first violated axiom, tagged, with the codes of its witness."""
    E = range(len(order.carrier))
    above = order.above
    for x in E:  # D2
        if x not in above[x]:
            return ("D2", x)
    for x in E:  # D1
        for y in sorted(above[x]):
            escaped = above[y] - above[x]
            if escaped:
                return ("D1", x, y, min(escaped))
    if mode == "directed":
        for x in E:  # D3
            for y in E:
                if above[x].isdisjoint(above[y]):
                    return ("D3", x, y)
        return None
    # strict-order axioms; LO1 is implied: x < y < z gives x <= z by D1, and x = z fails LO2
    for x in E:
        for y in E:
            if order.lt(x, y) and order.lt(y, x):
                return ("LO2", x, y)
            if x != y and not order.comparable(x, y):
                return ("LO3", x, y)
    return None


def sup_over(subset, order: OrderRelation) -> int | None:
    """Least upper bound of a set of codes inside the carrier, or None
    when there is none."""
    return _extremum(subset, order, True)


def inf_over(subset, order: OrderRelation) -> int | None:
    """Greatest lower bound inside the carrier, or None."""
    return _extremum(subset, order, False)


def _extremum(subset, order: OrderRelation, up: bool) -> int | None:
    """The least upper bound when `up`, else the greatest lower bound;
    each is decided once per set of codes and kept in `order.extrema`."""
    subset = frozenset(subset)
    known = order.extrema[up]
    if subset in known:
        return known[subset]
    if not subset:
        raise InputError(f"{'sup' if up else 'inf'} of an empty subset")
    sets = order.above if up else order.below
    try:
        common = frozenset.intersection(*[sets[x] for x in subset])
    except (IndexError, TypeError):
        raise InputError("subset not contained in carrier") from None
    # the least upper bound lies below every upper bound, and dually
    known[subset] = next((z for z in sorted(common) if common <= sets[z]), None)
    return known[subset]
