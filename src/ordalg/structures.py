"""Finite semirings, quasirings and groupoids given by operation tables.

A FinStruct owns two total operation tables over an ordered carrier,
validates the neutral/absorption laws at construction and re-verifies
every declared law flag, so a constructed structure is trustworthy.
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
"""
from __future__ import annotations

from itertools import product

from .errors import CapacityError, InputError
from .order import OrderedCarrier, OrderRelation
from .report import Verdict

Table = dict  # (str, str) -> str

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

# Law flags are re-checked at construction: about 0.05 s for
# maxplus_chain(64) on one Xeon core under Python 3.11, most of it the
# assoc-add scan, whose max chain needs every element as a generator.
CARRIER_CAP = 64


def require_desk_scale(name: str, size: int) -> None:
    if size > CARRIER_CAP:
        raise CapacityError(f"{name}: carrier of {size} elements exceeds the cap {CARRIER_CAP}")


class FinStruct:
    """A finite double-operation structure (semiring / quasiring / worse).

    `flags` declare which optional laws the structure claims; each one is
    re-checked at construction.  Identity semantics: two FinStructs are
    the same structure only if they are the same object.

    The carrier and the `add`/`mul` tables are never mutated after
    construction: `check_law` keeps each verdict in `verdicts`, so the
    laws decided at construction are not scanned again, and the scans
    read the tables as rows built once (`rows["mul"][a][b]` is a*b).
    """

    def __init__(
        self, name: str, carrier: OrderedCarrier, add: Table, mul: Table, zero: str, one: str,
        flags: frozenset = frozenset(),
    ):
        self.name = name
        self.carrier = carrier
        self.add = add
        self.mul = mul
        self.zero = zero
        self.one = one
        self.flags = flags
        self.verdicts = {}
        self.rows = {}
        self.__post_init__()  # the validation, a method of its own so perfbench/spans.py can time it

    def __post_init__(self):
        elems = self.elements
        require_desk_scale(self.name, len(elems))
        eset = set(elems)
        for label, table in (("add", self.add), ("mul", self.mul)):
            rows = self.rows[label] = {}
            for a in elems:
                row = rows[a] = {}
                for b in elems:
                    if (a, b) not in table:
                        raise InputError(f"{self.name}: {label} table missing ({a},{b})")
                    value = row[b] = table[(a, b)]
                    if value not in eset:
                        raise InputError(f"{self.name}: {label}({a},{b}) = {value!r} outside carrier")
        if self.zero != self.carrier.zero:
            raise InputError(f"{self.name}: zero {self.zero!r} differs from order minimum")
        if self.one not in eset:
            raise InputError(f"{self.name}: one {self.one!r} not in carrier")
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

    @property
    def elements(self) -> tuple[str, ...]:
        return self.carrier.order.carrier

    @property
    def order(self) -> OrderRelation:
        return self.carrier.order

    def addv(self, a: str, b: str) -> str:
        return self.add[(a, b)]

    def mulv(self, a: str, b: str) -> str:
        return self.mul[(a, b)]

    def leq(self, a: str, b: str) -> bool:
        return self.order.leq(a, b)

    def has_zero_divisors(self) -> bool:
        return any(
            self.mulv(a, b) == self.zero
            for a in self.elements
            for b in self.elements
            if a != self.zero and b != self.zero
        )


def check_law(s: FinStruct, law: str) -> Verdict:
    """Decide one law exactly; a failure's witness is the first violating
    tuple over all pairs/triples.  The decision runs once per structure
    and law; its verdict is kept on `s`."""
    verdict = s.verdicts.get(law)
    if verdict is None:
        verdict = s.verdicts[law] = _scan_law(s, law)
    return verdict


def _generators(rows: dict, E) -> tuple:
    """A generating set of the operation given by `rows`, picked greedily
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
            rx = rows[x]
            for y in closed:
                for z in (rx[y], rows[y][x]):
                    if z not in seen:
                        seen.add(z)
                        todo.append(z)
    return tuple(gens)


def _assoc_failure(rows: dict, E, middle) -> tuple | None:
    """The first (a, b, c, (ab)c, a(bc)) with (ab)c != a(bc), b in `middle`."""
    for a in E:
        ra = rows[a]
        for b in middle:
            rab, rb = rows[ra[b]], rows[b]
            for c in E:
                if rab[c] != ra[rb[c]]:
                    return (a, b, c, rab[c], ra[rb[c]])
    return None


def _dist_failure(mrows: dict, arows: dict, E, left) -> tuple | None:
    """The first (a, b, c, a(b+c), ab+ac) with a(b+c) != ab+ac, a in `left`."""
    for a in left:
        ma = mrows[a]
        for b in E:
            ab, amb = arows[b], arows[ma[b]]
            for c in E:
                lhs = ma[ab[c]]
                rhs = amb[ma[c]]
                if lhs != rhs:
                    return (a, b, c, lhs, rhs)
    return None


def _scan_law(s: FinStruct, law: str) -> Verdict:
    E = s.elements
    if law == "assoc-add" or law == "assoc-mul":
        # Light's test: the middle factors b that associate with every pair
        # are closed under the operation, so a generating set decides; the
        # full scan runs only to find a failing law's first witness.
        rows = s.rows["add" if law == "assoc-add" else "mul"]
        witness = _assoc_failure(rows, E, _generators(rows, E)) and _assoc_failure(rows, E, E)
        return Verdict.failed(law, witness) if witness else Verdict.passed(law)
    if law == "comm-add" or law == "comm-mul":
        op = s.add if law == "comm-add" else s.mul
        for a, b in product(E, repeat=2):
            if op[(a, b)] != op[(b, a)]:
                return Verdict.failed(law, (a, b, op[(a, b)], op[(b, a)]))
        return Verdict.passed(law)
    if law == "left-dist" or law == "right-dist":
        mrows, arows = s.rows["mul"], s.rows["add"]
        if law == "right-dist":
            # (b+c)a = ba+ca reads as left-dist on the columns of mul
            mrows = {a: {b: mrows[b][a] for b in E} for a in E}
        # With mul associative, the a that distribute are closed under mul
        # (see the module docstring), so the mul generators decide, and the
        # first failing a of the full scan is a generator.
        left = _generators(s.rows["mul"], E) if check_law(s, "assoc-mul") else E
        witness = _dist_failure(mrows, arows, E, left)
        return Verdict.failed(law, witness) if witness else Verdict.passed(law)
    if law == "neutral":
        for a in E:
            if s.addv(a, s.zero) != a or s.addv(s.zero, a) != a:
                return Verdict.failed(law, ("add-neutral", a))
        if len(E) > 1:
            for a in E:
                if a == s.zero:
                    continue
                if s.mulv(a, s.one) != a or s.mulv(s.one, a) != a:
                    return Verdict.failed(law, ("mul-neutral", a))
        return Verdict.passed(law)
    if law == "absorb":
        for a in E:
            if s.mulv(a, s.zero) != s.zero or s.mulv(s.zero, a) != s.zero:
                return Verdict.failed(law, ("absorb", a))
        return Verdict.passed(law)
    if law == "quasi-solvable":
        # ax = b and xa = b solvable on the carrier minus zero: the row and
        # column maps of the mul table must be surjective there.
        nz = [x for x in E if x != s.zero]
        for a in nz:
            row = {s.mulv(a, x) for x in nz}
            col = {s.mulv(x, a) for x in nz}
            for b in nz:
                if b not in row:
                    return Verdict.failed(law, ("row", a, b))
                if b not in col:
                    return Verdict.failed(law, ("col", a, b))
        return Verdict.passed(law)
    raise InputError(f"unknown law {law!r}")


class Homomorphism:
    def __init__(self, source: FinStruct, target: FinStruct, mapping: dict):
        self.source = source
        self.target = target
        self.mapping = mapping
        for a in source.elements:
            if a not in mapping:
                raise InputError(f"homomorphism map missing element {a!r}")
            if mapping[a] not in set(target.elements):
                raise InputError(f"image {mapping[a]!r} not in target carrier")

    def __call__(self, a: str) -> str:
        return self.mapping[a]


def check_homomorphism(h: Homomorphism) -> Verdict:
    """Order-preserving algebraic homomorphism check.

    Unit preservation is waived when the source is the trivial one-point
    structure, whose single element is both zero and one.
    """
    s, t, m = h.source, h.target, h.mapping
    law = "homomorphism"
    if m[s.zero] != t.zero:
        return Verdict.failed(law, ("zero", s.zero, m[s.zero]))
    if len(s.elements) > 1 and m[s.one] != t.one:
        return Verdict.failed(law, ("one", s.one, m[s.one]))
    for a in s.elements:
        for b in s.elements:
            if m[s.addv(a, b)] != t.addv(m[a], m[b]):
                return Verdict.failed(law, ("add", a, b))
            if m[s.mulv(a, b)] != t.mulv(m[a], m[b]):
                return Verdict.failed(law, ("mul", a, b))
            if s.leq(a, b) and not t.leq(m[a], m[b]):
                return Verdict.failed(law, ("order", a, b))
    return Verdict.passed(law)


# ---------------------------------------------------------------------------
# stock structures


def _struct(name, elems, addf, mulf, zero, one, flags) -> FinStruct:
    add = {(a, b): addf(a, b) for a in elems for b in elems}
    mul = {(a, b): mulf(a, b) for a in elems for b in elems}
    carrier = OrderedCarrier(OrderRelation.chain(elems), elems[0])
    return FinStruct(name, carrier, add, mul, zero, one, frozenset(flags))


def boolean_semiring(name: str = "bool") -> FinStruct:
    """{0,1} with add = or, mul = and."""
    elems = ("0", "1")
    return _struct(
        name,
        elems,
        lambda a, b: "1" if "1" in (a, b) else "0",
        lambda a, b: "1" if a == b == "1" else "0",
        "0",
        "1",
        ("assoc-add", "assoc-mul", "comm-add", "comm-mul", "left-dist", "right-dist"),
    )


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
    elems = tuple(str(i) for i in range(n))

    def addf(a, b):
        return str(max(int(a), int(b)))

    def mulf(a, b):
        i, j = int(a), int(b)
        if i == 0 or j == 0:
            return "0"
        return str(min(i + j - 1, n - 1))

    return _struct(
        name,
        elems,
        addf,
        mulf,
        "0",
        "1",
        ("assoc-add", "assoc-mul", "comm-add", "comm-mul", "left-dist", "right-dist"),
    )


def trivial_structure(name: str = "trivial") -> FinStruct:
    """The one-point structure {0}; zero and one coincide."""
    elems = ("0",)
    return _struct(name, elems, lambda a, b: "0", lambda a, b: "0", "0", "0", ())


def right_dist_only(name: str = "rdist") -> FinStruct:
    """A four-element structure that is right- but not left-distributive.

    add is max on the chain 0 < 1 < 2 < 3; mul has 0 absorbing, 1 neutral,
    and projects onto the second factor on the top part (a*b = b for
    a,b >= 2).  Every column of the mul table is monotone, so (b+c)a =
    ba+ca holds, while row 3 is not (3*2 = 2 < 3 = 3*1), which breaks
    a(b+c) = ab+ac at a=3, b=1, c=2.  This is the only such table with
    this chain, unit and addition.
    """
    elems = ("0", "1", "2", "3")
    mul = {}
    for a in elems:
        for b in elems:
            if a == "0" or b == "0":
                mul[(a, b)] = "0"
            elif a == "1":
                mul[(a, b)] = b
            elif b == "1":
                mul[(a, b)] = a
            else:
                mul[(a, b)] = b
    add = {(a, b): str(max(int(a), int(b))) for a in elems for b in elems}
    carrier = OrderedCarrier(OrderRelation.chain(elems), "0")
    return FinStruct(
        name, carrier, add, mul, "0", "1", frozenset(("assoc-add", "comm-add", "right-dist"))
    )


def direct_product(s1: FinStruct, s2: FinStruct, name: str | None = None) -> FinStruct:
    """Componentwise product structure; element ids are "a,b" pairs."""

    def pid(a, b):
        return f"{a},{b}"

    elems = tuple(pid(a, b) for a in s1.elements for b in s2.elements)
    split = {pid(a, b): (a, b) for a in s1.elements for b in s2.elements}
    pairs = set()
    for x in elems:
        for y in elems:
            (a1, b1), (a2, b2) = split[x], split[y]
            if s1.leq(a1, a2) and s2.leq(b1, b2):
                pairs.add((x, y))
    order = OrderRelation(elems, frozenset(pairs))
    zero = pid(s1.zero, s2.zero)
    add = {}
    mul = {}
    for x in elems:
        for y in elems:
            (a1, b1), (a2, b2) = split[x], split[y]
            add[(x, y)] = pid(s1.addv(a1, a2), s2.addv(b1, b2))
            mul[(x, y)] = pid(s1.mulv(a1, a2), s2.mulv(b1, b2))
    flags = frozenset((s1.flags & s2.flags) - {"quasi-solvable"})
    return FinStruct(
        name or f"{s1.name}x{s2.name}",
        OrderedCarrier(order, zero),
        add,
        mul,
        zero,
        pid(s1.one, s2.one),
        flags,
    )
