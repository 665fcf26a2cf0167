"""The space of K-valued maps on a finite point set.

A FunctionSpace fixes the point set, the coefficient structure K and an
optional monotone variant ("+" for non-decreasing, "-" for
non-increasing, in the order the points are listed).  Construction
verifies that suprema of all possible function images exist in K, so
sup-style functionals are total on the space.  The member functions are
enumerated only up to `FUNCTION_CAP` value tuples.

A function's values are the codes of K's elements (see `structures`),
and it keeps its K, so a space refuses a function into another K.
`function` is where value names are read, from a workspace or an `eval`
literal, and looked up by `order.codes`; `member` makes a function from
codes.  A space codes its points by position once (`code`, made by
`order.encode`), where functionals look up the points they are given.
Names are applied only by `KFunction.__str__`, which reads its K's
names.  On a space with no variant, a member's position in `functions()`
is its value tuple read as a number in base |K|; only a monotone space
keeps a position map.
"""
from __future__ import annotations

from collections.abc import Iterator
from itertools import combinations, combinations_with_replacement, product

from .errors import CapacityError, IncomparableError, InputError
from .order import OrderRelation, codes, encode, sup_over
from .structures import FinStruct


FUNCTION_CAP = 2**16
VARIANTS = ("+", "-")
SIDES = ("left", "right")


def pair_without_sup(order: OrderRelation, size: int) -> tuple | None:
    """The names of the first pair of carrier elements, in `combinations`
    order, with no sup, when function images of up to `size` elements are
    possible; None when there is none or size < 2.  In a preorder pairs suffice:
    a singleton is its own sup and, by induction, sup(A + {c}) is
    sup({sup A, c}), so every image set has a sup when every pair does."""
    if size < 2:
        return None
    pairs = combinations(range(len(order.carrier)), 2)
    pair = next((p for p in pairs if sup_over(p, order) is None), None)
    return None if pair is None else order.named(pair)


class KFunction:
    """A total map from the point tuple to codes of the elements of K,
    stored aligned with the domain so functions hash by value; two
    functions are equal when they also share their K."""

    __slots__ = ("domain", "values", "K")

    def __init__(self, domain: tuple[str, ...], values: tuple[int, ...], K: FinStruct):
        self.domain = domain
        self.values = values
        self.K = K
        if len(domain) != len(values):
            raise InputError("function values must align with the domain")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.K is other.K and (self.domain, self.values) == (other.domain, other.values)

    def __hash__(self):
        return hash((self.domain, self.values))

    def __call__(self, x: str) -> int:
        try:
            return self.values[self.domain.index(x)]
        except ValueError:
            raise InputError(f"point {x!r} not in domain") from None

    def __str__(self) -> str:
        # a value that is no code of K, as a bad value table can give, prints as it is
        named = dict(enumerate(self.K.names))
        inner = ", ".join(f"{x}: {named.get(v, v)}" for x, v in zip(self.domain, self.values))
        return "{" + inner + "}"


class FunctionSpace:
    """The K-valued functions on `points`, optionally monotone in their listed order.

    The points, K and the variant are never mutated after
    construction, so what is derived from them is built once, on first
    use: the member functions (and, on a monotone space, their positions
    by value tuple), their one-point lower neighbours and their constant
    shifts (`lower_neighbours`, `shift_map`), which laws of functionals
    are decided from, and one lazy compile of each law's instances per
    grid, run as far as scans read (`functionals.law_instances`); the join
    and meet instances keep the positions of the guarded vee and wedge of
    each pair they read (`join_meet_at`).
    """

    def __init__(self, points, K: FinStruct, variant: str | None = None, name: str = ""):
        self.points = tuple(points)
        self.K = K
        self.variant = variant
        self.name = name or f"C({','.join(self.points)};{K.name})"
        if not self.points:
            raise InputError("point set must be non-empty")
        self.code = encode("point", self.points)
        if variant not in (None, *VARIANTS):
            raise InputError(f"unknown variant {variant!r}")
        self._funcs: tuple[KFunction, ...] | None = None
        self._positions: dict[tuple, int] | None = None
        self._lower: list[tuple[int, list[int]]] | None = None
        self._shifts: dict[tuple, tuple[tuple, list]] = {}
        self._instances: dict[str | tuple, Iterator] = {}
        self._check_sup_condition()

    # -- construction-time guarantee that sups of images exist --------------

    def _check_sup_condition(self):
        if self.variant is not None:
            # monotone images are chains; finite chains always have sups
            return
        pair = pair_without_sup(self.K.order, min(len(self.points), len(self.K.elements)))
        if pair is not None:
            raise InputError(f"K has no sup for image set {set(pair)}; the space is not admissible")

    # -- membership and enumeration -----------------------------------------

    def function(self, values) -> KFunction:
        """The function with these values, given by element names: a dict
        by point, or a sequence aligned with the points."""
        if isinstance(values, dict):
            odd = set(values).symmetric_difference(self.points)
            if odd:
                raise InputError(f"function points differ from the space's at {sorted(odd)}")
            vals = tuple(values[x] for x in self.points)
        else:
            vals = tuple(values)
            if len(vals) != len(self.points):
                raise InputError("function values must align with the domain")
        return self.member(codes("value", vals, self.K.code))

    def member(self, values: tuple) -> KFunction:
        """The function with these value codes, refused when it is not
        monotone on a monotone space."""
        f = KFunction(self.points, values, self.K)
        if self.variant is not None and not self.is_monotone(f):
            raise InputError(f"function {f} is not monotone {self.variant}")
        return f

    def constant(self, c: int) -> KFunction:
        if c not in self.K.elements:
            raise InputError(f"value {c!r} not in K")
        return self.member((c,) * len(self.points))

    @property
    def over_a_chain(self) -> bool:
        """No variant and K a chain: every pair of functions is then a join and meet instance."""
        return self.variant is None and all(None not in row for row in self.K.order.picks)

    def is_monotone(self, f: KFunction) -> bool:
        """Whether f is monotone in the space's variant, the points read in their listed order."""
        if self.variant is None:
            raise InputError(f"{self.name} has no monotone variant")
        leq, pairs = self.K.leq, combinations_with_replacement(f.values, 2)
        return all(leq(a, b) if self.variant == "+" else leq(b, a) for a, b in pairs)

    def functions(self) -> tuple[KFunction, ...]:
        """All member functions, in a fixed enumeration order; refused
        before any is made when there are more than `FUNCTION_CAP`
        value tuples to run through."""
        if self._funcs is None:
            count = len(self.K.elements) ** len(self.points)
            if count > FUNCTION_CAP:
                raise CapacityError(f"{count} functions on {self.name} exceed the cap {FUNCTION_CAP}")
            points, K = self.points, self.K
            out = [KFunction(points, vals, K) for vals in product(K.elements, repeat=len(points))]
            if self.variant is not None:
                out = [f for f in out if self.is_monotone(f)]
            self._funcs = tuple(out)
        return self._funcs

    def position(self, f: KFunction) -> int:
        """The index of f in `functions()`."""
        i = self._index(f.values) if f.domain == self.points and f.K is self.K else None
        if i is None:
            raise InputError(f"{f} is not a function of {self.name}")
        return i

    def position_of(self, f: KFunction):
        """The index of f in `functions()`, or f itself when it is not a
        member (a shift or sum can leave a monotone space); a function
        into another K is refused."""
        if f.K is not self.K:
            raise InputError(f"{f} is not a function of {self.name}")
        i = self._index(f.values) if f.domain == self.points else None
        return f if i is None else i

    def positions_within(self, choices) -> list[int]:
        """The positions of the members whose value at each point is one
        of that point's choices, in enumeration order when every choice
        lists its values in code order."""
        return [i for i in map(self._index, product(*choices)) if i is not None]

    def _index(self, values: tuple) -> int | None:
        """The position of the member with these values, or None: in
        base |K| on a space with no variant, else from the position map."""
        if self.variant is None:
            n, i = len(self.K.elements), 0
            for v in values:
                if not 0 <= v < n:
                    return None
                i = i * n + v
            return i
        if self._positions is None:
            self._positions = {g.values: i for i, g in enumerate(self.functions())}
        return self._positions.get(values)

    def _require(self, *fs: KFunction):
        """Refuse f unless it maps the points into K (a shift out of a monotone space may be no member)."""
        for f in fs:
            if f.domain != self.points or f.K is not self.K:
                raise InputError(f"{f} is not a function of {self.name}")

    # -- pointwise algebra ----------------------------------------------------

    def pointwise(self, op: str, f: KFunction, g: KFunction) -> KFunction:
        self._require(f, g)
        table = self.K.add if op == "add" else self.K.mul
        return KFunction(self.points, tuple(table[a][b] for a, b in zip(f.values, g.values)), self.K)

    def add(self, f: KFunction, g: KFunction) -> KFunction:
        return self.pointwise("add", f, g)

    def odot(self, c: int, f: KFunction, side: str = "left") -> KFunction:
        """Add the constant c on the named side of every value."""
        return self._with_constant("add", c, f, side)

    def scale(self, b: int, f: KFunction, side: str = "left") -> KFunction:
        """Multiply by the constant b on the named side (homogeneity tests)."""
        return self._with_constant("mul", b, f, side)

    def _with_constant(self, op: str, c: int, f: KFunction, side: str) -> KFunction:
        self._require(f)
        if side == "left":
            return self.pointwise(op, self.constant(c), f)
        if side == "right":
            return self.pointwise(op, f, self.constant(c))
        raise InputError(f"unknown side {side!r}")

    def comparable_pointwise(self, f: KFunction, g: KFunction) -> str | None:
        """None when every point has comparable values, else the first
        incomparable point."""
        self._require(f, g)
        picks = self.K.order.picks
        for x, a, b in zip(self.points, f.values, g.values):
            if picks[a][b] is None:
                return x
        return None

    def vee(self, f: KFunction, g: KFunction) -> KFunction:
        """Pointwise max; refuses when some point has incomparable values."""
        return self._guarded(f, g, 0)

    def wedge(self, f: KFunction, g: KFunction) -> KFunction:
        """Pointwise min under the same comparability guard."""
        return self._guarded(f, g, 1)

    def _guarded(self, f: KFunction, g: KFunction, k: int) -> KFunction:
        """The pointwise join (k = 0) or meet (k = 1), read from K's picks."""
        bad = self.comparable_pointwise(f, g)
        if bad is not None:
            raise IncomparableError(f"values incomparable at point {bad!r}", bad)
        picks = self.K.order.picks
        return KFunction(self.points, tuple(picks[a][b][k] for a, b in zip(f.values, g.values)), self.K)

    def leq(self, f: KFunction, g: KFunction) -> bool:
        """The pointwise order, read point by point from K's up-sets."""
        self._require(f, g)
        return all(map(frozenset.__contains__, map(self.K.order.above.__getitem__, f.values), g.values))

    # -- relations among members, by position in `functions()`, once made -------

    def join_meet_at(self, i: int, j: int, k: int) -> int | None:
        """The position of vee (k = 0) or wedge (k = 1) of the members at
        positions i and j, or None when some point has incomparable values,
        read from K's (join, meet) of each pair of values (the vee and wedge
        of two members are members, monotone ones too)."""
        picks, funcs, picked = self.K.order.picks, self._funcs, []
        for a, b in zip(funcs[i].values, funcs[j].values):
            pair = picks[a][b]
            if pair is None:
                return None
            picked.append(pair[k])
        return self._index(tuple(picked))

    def lower_neighbours(self) -> list[tuple[int, list[int]]]:
        """Each member's position with those of its one-point lower
        neighbours, the members equal to it but strictly lower at one
        point; made once, each member after its neighbours (in K's partial
        order their values have fewer elements below them)."""
        if self._lower is None:
            below, funcs, self._lower = self.K.order.below, self.functions(), []
            for q in sorted(range(len(funcs)), key=lambda q: sum(len(below[v]) for v in funcs[q].values)):
                vs = funcs[q].values
                cut = (vs[:x] + (a,) + vs[x + 1 :] for x, v in enumerate(vs) for a in below[v] - {v})
                self._lower.append((q, [r for r in map(self._index, cut) if r is not None]))
        return self._lower

    def shift_map(self, op: str, c: int, side: str) -> tuple[tuple, list]:
        """The constant c put on `side` by K's add (op "add", as `odot`) or
        mul ("mul", as `scale`), as a row, row[a] = c o a, and as the
        position of c o f for each member f in order; made once.  A shift
        that is not a member, as on a monotone space, is kept as the function."""
        if (op, c, side) not in self._shifts:
            table = self.K.add if op == "add" else self.K.mul
            row = table[c] if side == "left" else tuple(r[c] for r in table)
            if self.variant is None:  # c o f has the digit row[f(x)] at x, in base |K|
                m = len(self.points)
                shifted = list(map(sum, product(*([a * len(row) ** (m - 1 - x) for a in row] for x in range(m)))))
            else:
                shift = self.odot if op == "add" else self.scale
                shifted = [self.position_of(shift(c, f, side)) for f in self.functions()]
            self._shifts[op, c, side] = row, shifted
        return self._shifts[op, c, side]
