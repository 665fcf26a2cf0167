"""Finite semirings, quasirings and groupoids given by operation tables.

A FinStruct owns two total operation tables over an ordered carrier,
validates the neutral/absorption laws at construction and re-verifies
every declared law flag, so a constructed structure is trustworthy.

Its elements are codes 0..n-1 in carrier order, and every module
computes on codes: `add[a][b]` and `mul[a][b]` are rows of codes.  The
element names (`names`) are read where a structure is built, whose
order codes them (`order.encode`), whose zero and one `order.codes`
looks up and whose tables `code_rows` turns into rows of codes (as it
does for groupoids and actions), and where a name is printed: a failing
law's witness, an error message, and `__str__` of the values that hold
codes (functions, value tables, s-product elements).

Law checkers are exact and return the first violating tuple of the full
scan.  Associativity and distributivity are decided from a generating
set G of the operation (Clifford and Preston, The Algebraic Theory of
Semigroups I, 1961, section 1.2):

- Light's test: * is associative iff (x*g)*y = x*(g*y) for every g in G
  and all x, y, since the g that pass are closed under *.
- If mul is associative, L_ab = L_a o L_b and R_ab = R_b o R_a, and a
  composite of add-endomorphisms is one, so a distributive law holds iff
  it holds for every a in the mul generators.

G is picked greedily in carrier order, so each other element is a
product of earlier generators.  The first a failing a distributive law
is then a generator, and the scan over G finds the full scan's first
witness.  A failing associative law is scanned again over all of E.

Every element of (E, max) is its own generator, so Light's test is
cubic on a max chain.  An add that picks the larger of every pair of a
total, transitive order is associative outright: each side of
(a+b)+c = a+(b+c) picks the larger of a, b and c, and the right operand
of a tie.  assoc-add is decided by that O(n^2) test where it applies.
"""
from __future__ import annotations

from itertools import product

from .errors import CapacityError, InputError
from .order import OrderRelation, axiom_failure, codes
from .report import Verdict

LAWS = (
    "assoc-add",
    "assoc-mul",
    "comm-add",
    "comm-mul",
    "left-dist",
    "right-dist",
    "neutral",
    "absorb",
    "quasi-solvable",
)

# Law flags are re-checked at construction: about 0.02 s for
# maxplus_chain(64) on one Xeon core under Python 3.11, spread over
# coding the tables, building the order and the distributive scans over
# the mul generators; assoc-add, max on a chain, is an O(n^2) test.
CARRIER_CAP = 64


def require_desk_scale(name: str, size: int) -> None:
    if size > CARRIER_CAP:
        raise CapacityError(f"{name}: carrier of {size} elements exceeds the cap {CARRIER_CAP}")


class FinStruct:
    """A finite double-operation structure (semiring / quasiring / worse).

    `flags` declare which optional laws the structure claims; each one is
    re-checked at construction.  Identity semantics: two FinStructs are
    the same structure only if they are the same object.

    It is built from its order, `add` and `mul` tables keyed by pairs of
    element names, and the names of `zero`, which must be least, and
    `one`; construction replaces each by codes (`order.codes`,
    `code_rows`), and nothing is mutated after that.  `check_law` keeps
    each verdict in `verdicts`, so the laws decided at construction are
    not scanned again.
    """

    def __init__(
        self, name: str, order: OrderRelation, add: dict, mul: dict, zero: str, one: str,
        flags: frozenset = frozenset(),
    ):
        self.name = name
        self.order = order
        self.add = add
        self.mul = mul
        self.zero = zero
        self.one = one
        self.flags = flags
        self.verdicts = {}
        self.__post_init__()  # the validation, a method of its own so perfbench/spans.py can time it

    def __post_init__(self):
        names = self.names = self.order.carrier
        require_desk_scale(self.name, len(names))
        self.elements = range(len(names))
        code = self.code = self.order.code
        [self.zero] = codes(f"{self.name}: zero element", (self.zero,), code)
        for x, name in enumerate(names):
            if x not in self.order.above[self.zero]:
                raise InputError(f"{self.name}: zero element {names[self.zero]!r} is not minimal: not leq {name!r}")
        for label in ("add", "mul"):
            setattr(self, label, code_rows(f"{self.name}: {label}", getattr(self, label), names, names, code))
        [self.one] = codes(f"{self.name}: one", (self.one,), code)
        v = check_law(self, "neutral")
        if not v:
            raise InputError(f"{self.name}: neutral law fails at {v.witness}")
        v = check_law(self, "absorb")
        if not v:
            raise InputError(f"{self.name}: absorption fails at {v.witness}")
        # unknown flags first, then LAWS order: a frozenset's order depends on string hashing
        unknown = sorted(self.flags - set(LAWS))
        if unknown:
            raise InputError(f"{self.name}: unknown law flag {unknown[0]!r}")
        for flag in (law for law in LAWS if law in self.flags):
            v = check_law(self, flag)
            if not v:
                raise InputError(f"{self.name}: declared flag {flag} fails at {v.witness}")

    def leq(self, a: int, b: int) -> bool:
        return b in self.order.above[a]


def code_rows(what: str, table: dict, rows, columns, code: dict) -> tuple:
    """A table keyed by pairs (r, c) of names, as rows of codes: entry
    [i][j] is the code of table[rows[i], columns[j]].  This is where the
    names of every operation and action table become codes; a missing
    pair, or a value that `code` does not hold, is refused."""
    for r, c in product(rows, columns):
        if (r, c) not in table:
            raise InputError(f"{what} table missing ({r},{c})")
        if table[r, c] not in code:
            raise InputError(f"{what}({r},{c}) = {table[r, c]!r} outside carrier")
    return tuple(tuple(code[table[r, c]] for c in columns) for r in rows)


def check_law(s: FinStruct, law: str) -> Verdict:
    """Decide one law exactly; a failure's witness is the first violating
    tuple over all pairs/triples, in element names.  The decision runs
    once per structure and law; its verdict is kept on `s`."""
    verdict = s.verdicts.get(law)
    if verdict is None:
        witness = _scan_law(s, law)
        verdict = Verdict.passed(law) if witness is None else Verdict.failed(law, s.order.named(witness))
        s.verdicts[law] = verdict
    return verdict


def _generators(op, E) -> tuple:
    """A generating set of the operation `op`, a table of rows, picked greedily
    in carrier order: an element is picked when it is not yet a product
    of earlier picks, and the closure takes products in both orders."""
    gens, closed, seen = [], [], set()
    for g in E:
        if g in seen:
            continue
        gens.append(g)
        seen.add(g)
        todo = [g]
        while todo:
            x = todo.pop()
            closed.append(x)
            ox = op[x]
            for y in closed:
                for z in (ox[y], op[y][x]):
                    if z not in seen:
                        seen.add(z)
                        todo.append(z)
    return tuple(gens)


def _is_max_on_chain(op, order: OrderRelation) -> bool:
    """Whether `op` picks the larger of every pair, all pairs comparable,
    in a transitive order (see the module docstring).  Transitivity is
    not implied: on a cycle a < b < c < a the larger is not associative."""
    for row, picks in zip(op, order.picks):
        for value, pick in zip(row, picks):
            if pick is None or value != pick[0]:
                return False
    return axiom_failure(order, "directed") is None


def _assoc_failure(op, E, middle) -> tuple | None:
    """The first (a, b, c, (ab)c, a(bc)) with (ab)c != a(bc), b in `middle`."""
    for a in E:
        oa = op[a]
        for b in middle:
            oab, ob = op[oa[b]], op[b]
            for c in E:
                if oab[c] != oa[ob[c]]:
                    return (a, b, c, oab[c], oa[ob[c]])
    return None


def _dist_failure(mul, add, E, left) -> tuple | None:
    """The first (a, b, c, a(b+c), ab+ac) with a(b+c) != ab+ac, a in `left`."""
    for a in left:
        ma = mul[a]
        for b in E:
            ab, amb = add[b], add[ma[b]]
            for c in E:
                lhs = ma[ab[c]]
                rhs = amb[ma[c]]
                if lhs != rhs:
                    return (a, b, c, lhs, rhs)
    return None


def _scan_law(s: FinStruct, law: str) -> tuple | None:
    """The codes of the law's first violating tuple, after a tag where
    the law has parts, or None when it holds."""
    E = s.elements
    if law == "assoc-add" or law == "assoc-mul":
        # Light's test: the middle factors b that associate with every pair
        # are closed under the operation, so a generating set decides; the
        # full scan runs only to find a failing law's first witness.
        op = s.add if law == "assoc-add" else s.mul
        if law == "assoc-add" and _is_max_on_chain(op, s.order):
            return None
        return _assoc_failure(op, E, _generators(op, E)) and _assoc_failure(op, E, E)
    if law == "comm-add" or law == "comm-mul":
        op = s.add if law == "comm-add" else s.mul
        return next(((a, b, op[a][b], op[b][a]) for a, b in product(E, repeat=2) if op[a][b] != op[b][a]), None)
    if law == "left-dist" or law == "right-dist":
        # (b+c)a = ba+ca reads as left-dist on the columns of mul
        mul = s.mul if law == "left-dist" else tuple(zip(*s.mul))
        # With mul associative, the a that distribute are closed under mul
        # (see the module docstring), so the mul generators decide, and the
        # first failing a of the full scan is a generator.
        left = _generators(s.mul, E) if check_law(s, "assoc-mul") else E
        return _dist_failure(mul, s.add, E, left)
    zero, one, add, mul = s.zero, s.one, s.add, s.mul
    if law == "neutral":
        for a in E:
            if add[a][zero] != a or add[zero][a] != a:
                return ("add-neutral", a)
        for a in E:
            if a != zero and (mul[a][one] != a or mul[one][a] != a):
                return ("mul-neutral", a)
        return None
    if law == "absorb":
        return next((("absorb", a) for a in E if mul[a][zero] != zero or mul[zero][a] != zero), None)
    if law == "quasi-solvable":
        # ax = b and xa = b solvable on the carrier minus zero: the row and
        # column maps of the mul table must be surjective there.
        nz = [x for x in E if x != zero]
        for a in nz:
            row = {mul[a][x] for x in nz}
            col = {mul[x][a] for x in nz}
            for b in nz:
                if b not in row:
                    return ("row", a, b)
                if b not in col:
                    return ("col", a, b)
        return None
    raise InputError(f"unknown law {law!r}")


class Homomorphism:
    """A map between carriers, given by the names of each element and its
    image and kept as codes: `mapping[a]` is the image of a."""

    def __init__(self, source: FinStruct, target: FinStruct, mapping: dict):
        self.source = source
        self.target = target
        for a in source.names:
            if a not in mapping:
                raise InputError(f"homomorphism map missing element {a!r}")
        self.mapping = codes("image", [mapping[a] for a in source.names], target.code)


def check_homomorphism(h: Homomorphism) -> Verdict:
    """Order-preserving algebraic homomorphism check.

    Unit preservation is waived when the source is the trivial one-point
    structure, whose single element is both zero and one.
    """
    s, t, m = h.source, h.target, h.mapping
    law = "homomorphism"
    if m[s.zero] != t.zero:
        return Verdict.failed(law, ("zero", s.names[s.zero], t.names[m[s.zero]]))
    if len(s.elements) > 1 and m[s.one] != t.one:
        return Verdict.failed(law, ("one", s.names[s.one], t.names[m[s.one]]))
    for a in s.elements:
        for b in s.elements:
            if m[s.add[a][b]] != t.add[m[a]][m[b]]:
                return Verdict.failed(law, s.order.named(("add", a, b)))
            if m[s.mul[a][b]] != t.mul[m[a]][m[b]]:
                return Verdict.failed(law, s.order.named(("mul", a, b)))
            if s.leq(a, b) and not t.leq(m[a], m[b]):
                return Verdict.failed(law, s.order.named(("order", a, b)))
    return Verdict.passed(law)


# ---------------------------------------------------------------------------
# stock structures


def _struct(name, names, addf, mulf, flags) -> FinStruct:
    """The structure on the chain of `names`, zero first and the unit
    second, whose operations `addf` and `mulf` act on codes."""
    E = range(len(names))
    add = {(names[a], names[b]): names[addf(a, b)] for a in E for b in E}
    mul = {(names[a], names[b]): names[mulf(a, b)] for a in E for b in E}
    order, one = OrderRelation.chain(names), names[min(1, len(E) - 1)]
    return FinStruct(name, order, add, mul, names[0], one, frozenset(flags))


SEMIRING = ("assoc-add", "assoc-mul", "comm-add", "comm-mul", "left-dist", "right-dist")


def boolean_semiring(name: str = "bool") -> FinStruct:
    """{0,1} with add = or, mul = and."""
    return _struct(name, ("0", "1"), max, min, SEMIRING)


def maxplus_chain(n: int, name: str | None = None) -> FinStruct:
    """Saturating max-plus chain with an absorbing bottom.

    Element "0" is the bottom (add-neutral and mul-absorbing); element
    "k" for k >= 1 stands for the tropical value k-1, so "1" is the
    multiplicative unit and i*j saturates at the top of the chain.
    """
    if n < 2:
        raise InputError("maxplus chain needs at least 2 elements")
    name = name or f"maxplus{n}"
    require_desk_scale(name, n)

    def mulf(i, j):
        return 0 if i == 0 or j == 0 else min(i + j - 1, n - 1)

    return _struct(name, tuple(map(str, range(n))), max, mulf, SEMIRING)


def trivial_structure(name: str = "trivial") -> FinStruct:
    """The one-point structure {0}; zero and one coincide."""
    return _struct(name, ("0",), max, min, ())


def right_dist_only(name: str = "rdist") -> FinStruct:
    """A four-element structure that is right- but not left-distributive.

    add is max on the chain 0 < 1 < 2 < 3; mul has 0 absorbing, 1 neutral,
    and projects onto the second factor on the top part (a*b = b for
    a,b >= 2).  Every column of the mul table is monotone, so (b+c)a =
    ba+ca holds, while row 3 is not (3*2 = 2 < 3 = 3*1), which breaks
    a(b+c) = ab+ac at a=3, b=1, c=2.  This is the only such table with
    this chain, unit and addition.
    """

    def mulf(a, b):
        return 0 if a == 0 or b == 0 else a if b == 1 else b

    return _struct(name, ("0", "1", "2", "3"), max, mulf, ("assoc-add", "comm-add", "right-dist"))


def direct_product(s1: FinStruct, s2: FinStruct, name: str | None = None) -> FinStruct:
    """Componentwise product structure; element names are "a,b" pairs,
    and the code of (a, b) is a * |s2| + b."""
    n2 = len(s2.elements)
    names = tuple(f"{a},{b}" for a in s1.names for b in s2.names)
    E = range(len(names))

    def table(op1, op2):
        return {(names[x], names[y]): names[op1[x // n2][y // n2] * n2 + op2[x % n2][y % n2]] for x in E for y in E}

    pairs = ((names[x], names[y]) for x in E for y in E if s1.leq(x // n2, y // n2) and s2.leq(x % n2, y % n2))
    zero = names[s1.zero * n2 + s2.zero]
    flags = frozenset((s1.flags & s2.flags) - {"quasi-solvable"})
    order, one = OrderRelation(names, pairs), names[s1.one * n2 + s2.one]
    add, mul = table(s1.add, s2.add), table(s1.mul, s2.mul)
    return FinStruct(name or f"{s1.name}x{s2.name}", order, add, mul, zero, one, flags)
