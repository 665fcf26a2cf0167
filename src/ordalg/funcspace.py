"""The space of K-valued maps on a finite point set.

A FunctionSpace fixes the point set, the coefficient structure K and an
optional monotone variant ("+" for non-decreasing, "-" for
non-increasing, which requires a linear point order).  Construction
verifies that suprema of all possible function images exist in K, so
sup-style functionals are total on the space.  The member functions are
enumerated only up to `FUNCTION_CAP` value tuples.
"""
from __future__ import annotations

from collections import defaultdict
from itertools import combinations, product

from .errors import CapacityError, IncomparableError, InputError
from .order import OrderRelation, check_order_axioms, sup_over
from .structures import FinStruct


FUNCTION_CAP = 2**16


def pair_without_sup(order: OrderRelation, size: int) -> tuple | None:
    """The first pair of carrier elements, in `combinations` order, with
    no sup, when function images of up to `size` elements are possible;
    None when there is none or size < 2.  In a preorder pairs suffice:
    a singleton is its own sup and, by induction, sup(A + {c}) is
    sup({sup A, c}), so every image set has a sup when every pair does."""
    if size < 2:
        return None
    return next((p for p in combinations(order.carrier, 2) if sup_over(p, order) is None), None)


class KFunction:
    """A total map from the point tuple to K element ids, stored aligned
    with the domain so functions hash and compare by value."""

    def __init__(self, domain: tuple[str, ...], values: tuple[str, ...]):
        self.domain = domain
        self.values = values
        if len(domain) != len(values):
            raise InputError("function values must align with the domain")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.domain, self.values) == (other.domain, other.values)

    def __hash__(self):
        return hash((self.domain, self.values))

    def __call__(self, x: str) -> str:
        try:
            return self.values[self.domain.index(x)]
        except ValueError:
            raise InputError(f"point {x!r} not in domain") from None

    def __str__(self) -> str:
        inner = ", ".join(f"{x}: {v}" for x, v in zip(self.domain, self.values))
        return "{" + inner + "}"


class FunctionSpace:
    """The K-valued functions on `points`, optionally monotone.

    The points, K and the point order are never mutated after
    construction, so what is derived from them is built once, on first
    use: the member functions and their positions by value tuple, and, by
    position and each when first read, the order of two members
    (`leq_at`), their guarded vee and wedge (`join_meet_at`), the members
    below a member (`down_set`, read by `check_weak_properties`), the
    constant shifts of a member (`shift_at`) and the law instances of
    functionals on the space (`functionals.law_instances`).
    """

    def __init__(
        self,
        points,
        K: FinStruct,
        point_order: OrderRelation | None = None,
        variant: str | None = None,
        name: str = "",
    ):
        self.points = tuple(points)
        self.K = K
        self.point_order = point_order
        self.variant = variant
        self.name = name or f"C({','.join(self.points)};{K.name})"
        if not self.points:
            raise InputError("point set must be non-empty")
        if len(set(self.points)) < len(self.points):
            raise InputError(f"repeated point in {' '.join(self.points)}")
        if variant not in (None, "+", "-"):
            raise InputError(f"unknown variant {variant!r}")
        if variant is not None:
            if point_order is None:
                raise InputError("monotone variants need a linear point order")
            if not check_order_axioms(point_order, "linear"):
                raise InputError("monotone variants need a linear point order")
        self._funcs: tuple[KFunction, ...] | None = None
        self._positions: dict[tuple, int] | None = None
        # rows by first position: small positions are shared ints, so keys cost nothing
        self._leq: defaultdict[int, dict[int, bool]] = defaultdict(dict)
        self._join_meet: defaultdict[int, dict[int, tuple | None]] = defaultdict(dict)
        self._below: dict[int, list[int]] = {}
        # (join, meet) of each comparable pair of values
        order = K.order
        comparable = ((a, b) for a in K.elements for b in order.above[a] | order.below[a])
        self._picks = {(a, b): (order.join(a, b), order.meet(a, b)) for a, b in comparable}
        self._shift_positions: dict[tuple, int | KFunction] = {}
        self._instances: dict[str, list] = {}
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
        if isinstance(values, dict):
            odd = set(values).symmetric_difference(self.points)
            if odd:
                raise InputError(f"function points differ from the space's at {sorted(odd)}")
            vals = tuple(values[x] for x in self.points)
        else:
            vals = tuple(values)
            if len(vals) != len(self.points):
                raise InputError("function values must align with the domain")
        eset = set(self.K.elements)
        for v in vals:
            if v not in eset:
                raise InputError(f"value {v!r} not in K")
        f = KFunction(self.points, vals)
        if self.variant is not None and not self.is_monotone(f, self.variant):
            raise InputError(f"function {f} is not monotone {self.variant}")
        return f

    def constant(self, c: str) -> KFunction:
        return self.function({x: c for x in self.points})

    def is_monotone(self, f: KFunction, variant: str) -> bool:
        if self.point_order is None:
            raise InputError("no point order declared")
        for x in self.points:
            for y in self.points:
                if self.point_order.leq(x, y):
                    a, b = f(x), f(y)
                    ok = self.K.leq(a, b) if variant == "+" else self.K.leq(b, a)
                    if not ok:
                        return False
        return True

    def functions(self) -> tuple[KFunction, ...]:
        """All member functions, in a fixed enumeration order; refused
        before any is made when there are more than `FUNCTION_CAP`
        value tuples to run through."""
        if self._funcs is None:
            count = len(self.K.elements) ** len(self.points)
            if count > FUNCTION_CAP:
                raise CapacityError(f"{count} functions on {self.name} exceed the cap {FUNCTION_CAP}")
            out = []
            for vals in product(self.K.elements, repeat=len(self.points)):
                f = KFunction(self.points, vals)
                if self.variant is None or self.is_monotone(f, self.variant):
                    out.append(f)
            self._funcs = tuple(out)
        return self._funcs

    def position(self, f: KFunction) -> int:
        """The index of f in `functions()`."""
        i = self.position_of(f)
        if i is f:
            raise InputError(f"{f} is not a function of {self.name}")
        return i

    def position_of(self, f: KFunction):
        """The index of f in `functions()`, or f itself when it is not a
        member (a shift or sum can leave a monotone space)."""
        return self._position_map().get(f.values, f) if f.domain == self.points else f

    def positions_within(self, choices) -> list[int]:
        """The positions of the members whose value at each point is one
        of that point's choices, in enumeration order when every choice
        lists its values in `K.elements` order."""
        get = self._position_map().get
        return [i for i in map(get, product(*choices)) if i is not None]

    def _position_map(self) -> dict[tuple, int]:
        if self._positions is None:
            self._positions = {g.values: i for i, g in enumerate(self.functions())}
        return self._positions

    def _require(self, *fs: KFunction):
        for f in fs:
            if f.domain != self.points:
                raise InputError("domain mismatch")

    # -- pointwise algebra ----------------------------------------------------

    def pointwise(self, op: str, f: KFunction, g: KFunction) -> KFunction:
        self._require(f, g)
        table = self.K.add if op == "add" else self.K.mul
        return KFunction(self.points, tuple(table[(a, b)] for a, b in zip(f.values, g.values)))

    def add(self, f: KFunction, g: KFunction) -> KFunction:
        return self.pointwise("add", f, g)

    def odot(self, c: str, f: KFunction, side: str = "left") -> KFunction:
        """Add the constant c on the named side of every value."""
        return self._with_constant("add", c, f, side)

    def scale(self, b: str, f: KFunction, side: str = "left") -> KFunction:
        """Multiply by the constant b on the named side (homogeneity tests)."""
        return self._with_constant("mul", b, f, side)

    def _with_constant(self, op: str, c: str, f: KFunction, side: str) -> KFunction:
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
        comparable = self.K.order.comparable
        for x, a, b in zip(self.points, f.values, g.values):
            if not comparable(a, b):
                return x
        return None

    def vee(self, f: KFunction, g: KFunction) -> KFunction:
        """Pointwise max; refuses when some point has incomparable values."""
        return self._guarded(f, g, self.K.order.join)

    def wedge(self, f: KFunction, g: KFunction) -> KFunction:
        """Pointwise min under the same comparability guard."""
        return self._guarded(f, g, self.K.order.meet)

    def _guarded(self, f: KFunction, g: KFunction, pick) -> KFunction:
        bad = self.comparable_pointwise(f, g)
        if bad is not None:
            raise IncomparableError(f"values incomparable at point {bad!r}", bad)
        return KFunction(self.points, tuple(map(pick, f.values, g.values)))

    def leq(self, f: KFunction, g: KFunction) -> bool:
        """The pointwise order, read point by point from K's up-sets."""
        self._require(f, g)
        above = self.K.order.above
        for a, b in zip(f.values, g.values):
            if b not in above[a]:
                return False
        return True

    # -- relations among members, by position ----------------------------------

    def leq_at(self, i: int, j) -> bool:
        """Whether the member at position i is below j: the member at
        position j, decided once per pair, or a function outside the
        space, compared directly."""
        if isinstance(j, KFunction):
            return self.leq(self._funcs[i], j)
        row = self._leq[i]
        if j not in row:
            row[j] = self.leq(self._funcs[i], self._funcs[j])
        return row[j]

    def join_meet_at(self, i: int, j: int, k: int) -> int | None:
        """The position of vee (k = 0) or wedge (k = 1) of the members at
        positions i and j, or None when some point has incomparable values.
        Both are decided once per pair, from K's (join, meet) of each pair
        of values, and looked up by value tuple (the vee and wedge of two
        members are members, monotone ones too)."""
        row = self._join_meet[i]
        if j not in row:
            picks = list(map(self._picks.get, zip(self._funcs[i].values, self._funcs[j].values)))
            row[j] = None if None in picks else tuple(map(self._position_map().__getitem__, zip(*picks)))
        halves = row[j]
        return None if halves is None else halves[k]

    def down_set(self, q: int) -> list[int]:
        """The positions of the members below the member at position q, decided once per q."""
        if q not in self._below:
            self._below[q] = self.positions_within([self.K.order.below[v] for v in self._funcs[q].values])
        return self._below[q]

    def shift_at(self, op: str, c: str, side: str, i: int):
        """The position of the constant shift of the member at position i,
        by `odot` (op "add") or `scale` (op "mul"); a shift that is not a
        member, as in a monotone space, is returned as the function."""
        key = (op, c, side, i)
        if key not in self._shift_positions:
            g = (self.odot if op == "add" else self.scale)(c, self._funcs[i], side)
            self._shift_positions[key] = self.position_of(g)
        return self._shift_positions[key]

    # -- supports ---------------------------------------------------------------

    def support(self, f: KFunction) -> frozenset:
        self._require(f)
        return frozenset(x for x, v in zip(self.points, f.values) if v != self.K.zero)

    def indicator(self, E) -> KFunction:
        E = set(E)
        vals = tuple(self.K.one if x in E else self.K.zero for x in self.points)
        return KFunction(self.points, vals)
