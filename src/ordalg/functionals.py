"""Skew idempotent functionals on finite function spaces.

Functionals are symbolic constructor trees (evaluation at a point, sup
or inf over a subset, weighted combination, an explicit value table, or
a functional pulled back along a map of functions: the pushforward along
a point map and the monad's flattening).  Equality between functionals
is extensional: two functionals are the same when they agree on every
function of the space, and `signature`, their values in enumeration
order, decides it.  The monad check takes signatures on the base space
only; the flattening and the pushforwards it compares are evaluated
lazily there.
"""
from __future__ import annotations

import random
from collections.abc import Callable
from functools import cached_property, lru_cache
from itertools import islice, product, tee
from operator import itemgetter

from .errors import (
    CapacityError,
    IncomparableError,
    InputError,
    PreconditionError,
)
from .funcspace import SIDES, FunctionSpace, KFunction
from .order import codes, inf_over, sup_over
from .report import AxiomReport, Verdict, first_failure
from .structures import FinStruct


class Functional:
    """Base: a K-valued map on a function space."""

    space: FunctionSpace

    def value(self, f: KFunction) -> int:
        raise NotImplementedError

    @cached_property
    def values(self) -> LazyValues:
        """The one cache of the functional's values, which every checker reads."""
        return LazyValues(self)


class Dirac(Functional):
    def __init__(self, space: FunctionSpace, point: str):
        self.space = space
        [self.at] = codes("Dirac point", (point,), space.code)

    def value(self, f: KFunction) -> int:
        self.space._require(f)
        return f.values[self.at]

    def __str__(self) -> str:
        return f"dirac {self.space.points[self.at]}"


class _Extremum(Functional):
    """The `bound` ("sup" or "inf") of the function values over a fixed
    non-empty subset."""

    bound = "sup"

    def __init__(self, space: FunctionSpace, subset: frozenset):
        self.space = space
        self.subset = subset
        name = type(self).__name__
        if not subset:
            raise InputError(f"{name} needs a non-empty subset")
        # looked up by name, since a frozenset's order depends on string hashing
        self.at = sorted(codes(f"{name} point", sorted(subset), space.code))

    def value(self, f: KFunction) -> int:
        self.space._require(f)
        pick = sup_over if self.bound == "sup" else inf_over
        v = pick(frozenset(map(f.values.__getitem__, self.at)), self.space.K.order)
        if v is None:
            raise CapacityError(f"image of {f} over {set(self.subset)} has no {self.bound} in K")
        return v

    def __str__(self) -> str:
        return f"{self.bound}_over {{" + ", ".join(sorted(self.subset)) + "}"


class SupOver(_Extremum):
    bound = "sup"


class InfOver(_Extremum):
    bound = "inf"


class TableFunctional(Functional):
    """An arbitrary functional given by its full value table."""

    def __init__(self, space: FunctionSpace, table: tuple):
        self.space = space
        self.table = table

    def value(self, f: KFunction) -> int:
        try:
            return self.table[self.space.position(f)]
        except IndexError:
            raise InputError(f"{f} not in the functional's space") from None

    def __str__(self) -> str:
        return f"table{tuple(self.space.K.names[v] for v in self.table)}"


class WeightedCombo(Functional):
    def __init__(self, space: FunctionSpace, side: str, coeffs: tuple, parts: tuple):
        self.space = space
        self.side = side
        self.coeffs = coeffs
        self.parts = parts

    def value(self, f: KFunction) -> int:
        K = self.space.K
        pieces = []
        for c, part in zip(self.coeffs, self.parts):
            v = part.value(f)
            pieces.append(K.mul[c][v] if self.side == "left" else K.mul[v][c])
        total = pieces[0]
        for p in pieces[1:]:
            total = K.add[total][p]
        return total

    def __str__(self) -> str:
        cs = ", ".join(self.space.K.names[c] for c in self.coeffs)
        ps = ", ".join(str(p) for p in self.parts)
        return f"combo {self.side} [{cs}] [{ps}]"


def weighted_combo(side: str, coeffs, parts) -> WeightedCombo:
    """Validated weighted combination: positive coefficients, given by
    their names, summing to one, over a distributive K."""
    coeffs = tuple(coeffs)
    parts = tuple(parts)
    if side not in SIDES:
        raise InputError(f"unknown side {side!r}")
    if not parts or len(coeffs) != len(parts):
        raise InputError("coefficients and parts must align and be non-empty")
    space = parts[0].space
    if any(p.space is not space for p in parts):
        raise InputError("all parts must live on the same space")
    K = space.K
    if not {"left-dist", "right-dist"} <= K.flags:
        raise PreconditionError("weighted combinations need a distributive K")
    coeffs = codes("coefficient", coeffs, K.code)
    if K.zero in coeffs:
        raise PreconditionError("coefficients must be strictly positive")
    total = coeffs[0]
    for c in coeffs[1:]:
        total = K.add[total][c]
    if total != K.one:
        raise PreconditionError(f"coefficients sum to {K.names[total]!r}, not one")
    return WeightedCombo(space, side, coeffs, parts)


# ---------------------------------------------------------------------------
# extensional identity


def signature(nu: Functional) -> tuple:
    if isinstance(nu, TableFunctional):
        return nu.table
    return tuple(nu.value(f) for f in nu.space.functions())


def tabulate(nu: Functional) -> TableFunctional:
    """nu as a value table; a table is returned as it is."""
    return nu if isinstance(nu, TableFunctional) else TableFunctional(nu.space, signature(nu))


TABLE_CAP = 100_000


def enumerate_functionals(space: FunctionSpace, instances=()):
    """The K-valued functionals on the space that pass the given law
    instances, as value tables in `product` order; every table when there
    are none.

    `instances` are triples as `law_instances` makes them.  Positions are
    assigned in `functions()` order, each trying the value codes in
    order, and a partial table is dropped as soon as an
    instance whose positions are all assigned fails its test.  The cap
    counts every table and is applied before `instances` is read; an
    instance at a function outside the space is refused before any table
    is made.
    """
    funcs = space.functions()
    elements = space.K.elements
    total = len(elements) ** len(funcs)
    if total > TABLE_CAP:
        raise CapacityError(f"{total} functionals exceed the cap {TABLE_CAP}")
    due = [[] for _ in funcs]
    for positions, test, _ in instances:
        for p in positions:
            if isinstance(p, KFunction):
                message = f"a constant shift leaves the monotone space {space.name!r}: {p} is not a function of it"
                raise InputError(message)
        due[max(positions)].append((test, positions))
    values = [None] * len(funcs)
    tries = [iter(elements)]
    while tries:
        i = len(tries) - 1
        for v in tries[i]:
            values[i] = v
            if all(test(values, positions) for test, positions in due[i]):
                break
        else:
            tries.pop()
            continue
        if len(tries) == len(funcs):
            yield TableFunctional(space, tuple(values))
        else:
            tries.append(iter(elements))


def law_instances(space: FunctionSpace, laws, cells=None):
    """The instances of the named laws on the space, as triples
    (positions, test, witness): `test(values, positions)` reads a
    functional's values at the positions and holds or not, and
    `witness(values, positions)`, called only on a failure, gives its
    witness and note.  This is the one definition of these laws: the
    enumerator prunes on the tests, and each checker's verdict is the
    first failing instance of its law (`law_verdict`).

    The laws are "normalized", "left-shift", "right-shift", "join" and
    "meet" (`check_idempotent`), "weakly-additive", "order-preserving"
    and "non-expanding" (`check_weak_properties`) and "add"
    (`check_kind`), each in its checker's cell order, and
    "left-homogeneous" and "right-homogeneous", which no checker runs and
    `law_verdict` decides.  A law's instances over its whole grid, or
    over `cells`, a sampled grid from `_grid`, are compiled lazily, once
    per space and grid, and only as far as some reader has read; every
    reader gets that one sequence, in one order, however readers
    interleave.  A compile that raises is not kept, and a reader whose
    copy it cut short reads on from a fresh compile.  A shift or sum that
    leaves a monotone space keeps the function as its position (the order
    laws compare it with f as they compile, and read members only).
    Nothing is made before the first instance is read, so the enumerator
    applies its cap first.
    """
    for law in laws:
        key = law if cells is None else (law, cells)
        read = 0
        while True:
            made = space._instances.get(key)
            if made is None:  # a tee that is never read: each reader reads a copy of it from the start
                made = space._instances[key] = tee(_instances(space, law, cells), 1)[0]
            try:
                for instance in islice(made.__copy__(), read, None):
                    read += 1
                    yield instance
            except (Exception, KeyboardInterrupt):  # the compile raised, and a generator that raised yields no more
                space._instances.pop(key, None)
                raise
            if space._instances.get(key) is made:  # else another reader's compile raised and cut this copy short
                break


def require_additive(K: FinStruct) -> None:
    """Refuse a K whose addition is not commutative and associative, as the law add needs."""
    if not {"comm-add", "assoc-add"} <= K.flags:
        raise PreconditionError("kind add needs commutative associative addition in K")


def _instances(space: FunctionSpace, law: str, cells):
    """The (positions, test, witness) instances of one law over `cells`,
    or over the law's whole grid when it is None, in scan order."""
    K = space.K
    names = K.names
    funcs = space.functions()
    n = range(len(funcs))
    if law == "normalized":
        for c in K.elements:
            yield (
                (space.position(space.constant(c)),),
                lambda t, pos, c=c: t[pos[0]] == c,
                lambda t, pos, c=c: ((names[c], names[t[pos[0]]]), ""),
            )
    elif law in SHIFT_LAWS and law != "non-expanding":
        op, sides = _shifts_read(law)
        arrange = itemgetter(1, 0, 2, 3) if law == "weakly-additive" else (lambda w: w[:2]) if op == "mul" else tuple
        laws = {(c, s): _shift_law(space, op, c, s, arrange) for c in K.elements for s in sides}
        if law == "weakly-additive":  # h outer, c inner, the right side before the left
            grid = product(n, K.elements, sides)
        else:
            grid = ((p, c, sides[0]) for c, p in (product(K.elements, n) if cells is None else cells))
        for p, c, side in grid:
            shifted, test, witness = laws[c, side]
            yield (p, shifted[p]), test, witness
    elif law in ("join", "meet"):
        k = 0 if law == "join" else 1
        picks = K.order.picks

        def test(t, pos):
            p, q, r = pos
            pair = picks[t[p]][t[q]]
            return pair is not None and t[r] == pair[k]

        def witness(t, pos):
            p, q, r = pos
            a, b = t[p], t[q]
            if picks[a][b] is None:
                return (funcs[p], funcs[q], names[a], names[b]), "values incomparable"
            return (funcs[p], funcs[q], names[t[r]], names[picks[a][b][k]]), ""

        for p, q in product(n, n) if cells is None else cells:
            r = space.join_meet_at(p, q, k)
            if r is not None:
                yield (p, q, r), test, witness
    elif law == "add":
        require_additive(K)
        add = K.add

        def test(t, pos):
            p, q, r = pos
            return t[r] == add[t[p]][t[q]]

        def witness(t, pos):
            p, q, r = pos
            return (funcs[p], funcs[q], names[t[r]], names[add[t[p]][t[q]]]), ""

        for p, q in product(n, n):
            yield (p, q, space.position_of(space.add(funcs[p], funcs[q]))), test, witness
    elif law in ("order-preserving", "non-expanding"):
        # nu(f) <= c o nu(h) at f <= c o h, c added on the right, then on the left, or
        # nu(f) <= nu(h) at f <= h; a shift outside a monotone space is compared as it is
        shifts = [(None, None)] if law == "order-preserving" else list(product(K.elements, ("right", "left")))
        laws = {shift: _bound_law(space, *shift) for shift in shifts}
        maps = {(c, side): space.shift_map("add", c, side)[1] for c, side in shifts if c is not None}
        for p, q in product(n, n) if cells is None else cells:
            under = {}  # f is compared once with each distinct shift of h
            for c, side in shifts:
                g = q if c is None else maps[c, side][q]
                if g not in under:
                    under[g] = space.leq(funcs[p], funcs[g] if isinstance(g, int) else g)
                if under[g]:
                    yield (p, q), *laws[c, side]
    else:
        raise InputError(f"unknown law {law!r}")


def _shifts_read(law: str) -> tuple[str, tuple]:
    """The op ("add" or "mul") and the sides of the constant shifts a law of `SHIFT_LAWS` reads."""
    sides = (law.split("-")[0],) if law.startswith(SIDES) else ("right", "left")
    return "mul" if law.endswith("homogeneous") else "add", sides


def _shift_law(space: FunctionSpace, op: str, c: int, side: str, arrange):
    """The positions of c o f by position of f (`FunctionSpace.shift_map`),
    and the test and witness of nu(c o f) = c o nu(f) at positions
    (f, c o f), with o the add (op "add") or mul ("mul") of K put on
    `side`; the witness is `arrange((c, f, lhs, rhs))`, in names."""
    row, shifted = space.shift_map(op, c, side)
    names, funcs = space.K.names, space.functions()

    def test(t, pos):
        return t[pos[1]] == row[t[pos[0]]]

    def witness(t, pos):
        p, q = pos
        return arrange((names[c], funcs[p], names[t[q]], names[row[t[p]]])), ""

    return shifted, test, witness


def _bound_law(space: FunctionSpace, c: int | None, side: str | None):
    """The test and witness of nu(f) <= c o nu(h) at positions (f, h),
    with c added on `side`, or of nu(f) <= nu(h) when c is None; the
    witness is (f, h, c, side), or (f, h, nu(f), nu(h)), in names."""
    add, leq, names, funcs = space.K.add, space.K.leq, space.K.names, space.functions()

    def test(t, pos):
        nf, nh = t[pos[0]], t[pos[1]]
        return leq(nf, nh if c is None else add[nh][c] if side == "right" else add[c][nh])

    def witness(t, pos):
        p, q = pos
        return (funcs[p], funcs[q], *((names[t[p]], names[t[q]]) if c is None else (names[c], side))), ""

    return test, witness


IDEMPOTENT_AXIOMS = ("normalized", "left-shift", "right-shift", "join", "meet")
# the laws that read constant shifts, which `law_verdict` decides from the shift maps
SHIFT_LAWS = ("left-shift", "right-shift", "left-homogeneous", "right-homogeneous", "weakly-additive", "non-expanding")


def enumerate_idempotent(space: FunctionSpace, axioms=IDEMPOTENT_AXIOMS):
    """All functionals passing the named idempotency axioms, exhaustively:
    the tables that pass every instance of the axioms.  These are the
    instances `check_idempotent` scans, so a table it yields is not
    checked again.

    The default demands all five rules.  Note that the meet rule cuts the
    family down to point evaluations whenever the space has two or more
    points: a sup over a larger subset sends the pointwise min of two
    crossing functions below the min of its values.
    """
    return list(enumerate_functionals(space, law_instances(space, axioms)))


# ---------------------------------------------------------------------------
# axiom checkers


@lru_cache(maxsize=8)
def _grid(first, second, budget, seed):
    """The cells (a, b) of first x second, and whether they were sampled:
    None for all of them when they fit the budget, else `budget` random
    draws, made once for the functionals that share them."""
    if budget is None or len(first) * len(second) <= budget:
        return None, False
    rng = random.Random(seed)
    return tuple((rng.choice(first), rng.choice(second)) for _ in range(budget)), True


class LazyValues(dict):
    """A functional's values by position, each evaluated once, when first
    read; a function outside the space (a shift can leave a monotone
    space) is evaluated as it is.  A table's values are its own.  Each
    functional has one, `Functional.values`, shared by every checker."""

    def __init__(self, nu: Functional):
        super().__init__(enumerate(nu.table) if isinstance(nu, TableFunctional) else ())
        self.nu = nu
        self.funcs = nu.space.functions()

    def __missing__(self, p):
        v = self[p] = self.nu.value(p if isinstance(p, KFunction) else self.funcs[p])
        return v

    @cached_property
    def table(self) -> list[int]:
        """The values of every member, in position order."""
        return list(map(self.__getitem__, range(len(self.funcs))))

    @cached_property
    def bounds(self) -> list[frozenset]:
        """bounds[q]: the upper bounds of the values over the members below
        the member f at q, which is above[nu(f)] cut by the bounds of f's
        one-point lower neighbours.  A member g < f is below the neighbour
        that takes g's value at one point where they differ: any on a space
        with no variant, the first on a "+" space and the last on a "-" one."""
        above, bounds = self.nu.space.K.order.above, [None] * len(self.funcs)
        for q, lower in self.nu.space.lower_neighbours():
            bounds[q] = above[self[q]].intersection(*map(bounds.__getitem__, lower))
        return bounds


def law_verdict(values: LazyValues, law: str, cells=None, name: str = "") -> Verdict:
    """The verdict, named `name` or else `law`, of the law's instances
    over `cells` (see `law_instances`) for the functional read by
    `values`: failed at the first failing instance, with its witness.
    On the exhaustive grid some laws are decided by a theorem, and their
    instances are read, as every scan reads them, only for a failure's witness.

    On a chain K and a space with no variant, `join` and `meet` are
    decided from the point maps phi_x(a) = nu(e_x(a)), where e_x(a) is a
    at x and u elsewhere, u the unit of the pick v (bottom for join, top
    for meet):
    nu preserves v exactly when each phi_x does and nu(f) = V_x phi_x(f(x))
    for every f.  This is the finite density representation of idempotent
    measures (Zarichnyi, Izv. Math. 74 (2010); Litvinov, Maslov, Shpiz,
    Math. Notes 69 (2001)).
    Only if: f = V_x e_x(f(x)), and phi_x(a v b) = nu(e_x(a) v e_x(b)) = phi_x(a) v phi_x(b).
    If: nu(f v g) = V_x phi_x(f(x) v g(x)) = V_x phi_x(f(x)) v V_x phi_x(g(x)) = nu(f) v nu(g).
    The chain makes every pair an instance and no variant every e_x(a) a
    member.  This reads |C(X,K)||X| + |X||K|^2 values, not |C(X,K)|^2 pairs.

    The shift laws and homogeneity read the whole value table t over the
    shift maps (row, P) of `shift_map`: the instance at (c, f) is
    t[P[f]] = row[t[f]], so the law holds at c exactly when
    `list(map(t.__getitem__, P)) == list(map(row.__getitem__, t))`.
    Weak additivity's instances are those of both shift laws, so on the
    whole grid it is their conjunction.

    `order-preserving` and `non-expanding` read the upper bounds of nu
    over each down-set (`LazyValues.bounds`): nu(f) <= b for all f <= g
    exactly when b bounds the down-set of g, so they hold when each nu(h),
    or c o nu(h), bounds the down-set of h, or of c o h.  A shift that
    leaves a monotone space has no position, so there the laws that read
    shifts are scanned.
    """
    space, K = values.nu.space, values.nu.space.K
    decided = None
    if cells is None and law in ("join", "meet") and space.over_a_chain:
        decided = _point_maps_hold(values, ("join", "meet").index(law))
    elif cells is None and law == "order-preserving":
        decided = all(map(frozenset.__contains__, values.bounds, values.table))
    elif cells is None and law in SHIFT_LAWS:
        op, sides = _shifts_read(law)
        maps = [space.shift_map(op, c, s) for c in K.elements for s in sides]
        if space.variant is None or all(isinstance(q, int) for _, P in maps for q in P):
            t = values.table
            if law == "non-expanding":
                bounds = values.bounds
                decided = all(row[v] in bounds[q] for row, P in maps for q, v in zip(P, t))
            else:
                decided = all(list(map(t.__getitem__, P)) == list(map(row.__getitem__, t)) for row, P in maps)
    if not decided:
        for positions, test, witness in law_instances(space, (law,), cells):
            if not test(values, positions):
                return Verdict.failed(name or law, *witness(values, positions))
    return Verdict.passed(name or law)


def _point_maps_hold(values: LazyValues, k: int) -> bool:
    """Whether each point map of the functional read by `values` preserves
    the k-pick and the functional, by position, is their k-pick (see `law_verdict`)."""
    space = values.nu.space
    picks, elements = space.K.order.picks, space.K.elements
    n, m = len(elements), len(space.points)
    u = next(u for u in elements if all(picks[u][a][k] == a for a in elements))
    # e_x(a) differs from the constant u in digit x of its position in base |K|
    at_u = space.position(space.constant(u))
    maps = [[values[at_u + (a - u) * n ** (m - 1 - x)] for a in elements] for x in range(m)]
    if any(phi[picks[a][b][k]] != picks[phi[a]][phi[b]][k] for phi in maps for a in elements for b in elements):
        return False
    folds = maps[0]
    for phi in maps[1:]:
        folds = [picks[v][w][k] for v in folds for w in phi]
    return all(values[i] == v for i, v in enumerate(folds))


def check_idempotent(nu: Functional, budget: int | None = None, seed: int = 0) -> AxiomReport:
    """Normalization, both constant-shift rules, and compatibility with
    pointwise max/min on pairs whose values are pointwise comparable.  The
    shift cells and the pairs are sampled when their grid exceeds the
    budget.  Each function is evaluated at most once (`Functional.values`)."""
    n = range(len(nu.space.functions()))
    cells, shifts_sampled = _grid(nu.space.K.elements, n, budget, seed)
    pairs, pairs_sampled = _grid(n, n, budget, seed)
    grids = {"normalized": None, "left-shift": cells, "right-shift": cells, "join": pairs, "meet": pairs}
    verdicts = {law: law_verdict(nu.values, law, grid) for law, grid in grids.items()}
    return AxiomReport(verdicts, shifts_sampled or pairs_sampled)


def check_weak_properties(nu: Functional, budget: int | None = None, seed: int = 0) -> AxiomReport:
    """Weak additivity, order preservation and the non-expansion
    property, plus the consistency entry asserting that the first two
    force the last; normalization is decided by `check_idempotent`.  The
    pairs (f, h) of the two order laws are sampled when their grid
    exceeds the budget.  Each function is evaluated at most once
    (`Functional.values`)."""
    n = range(len(nu.space.functions()))
    pairs, sampled = _grid(n, n, budget, seed)
    grids = {"weakly-additive": None, "order-preserving": pairs, "non-expanding": pairs}
    report = AxiomReport({law: law_verdict(nu.values, law, grid) for law, grid in grids.items()}, sampled)
    implied = all(report[law] for law in ("weakly-additive", "order-preserving")) and not report["non-expanding"]
    report.add(Verdict(not implied, "weak-implies-nonexpanding", (str(nu),) if implied else None))
    return report


# ---------------------------------------------------------------------------
# supports


class SupportReport:
    def __init__(self, support: frozenset, degenerate: bool):
        self.support = support
        self.degenerate = degenerate

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.support, self.degenerate) == (other.support, other.degenerate)


def supported_on(nu: Functional, E) -> bool:
    """All functions vanishing on E are sent to zero; only their values
    are read (`Functional.values`), in enumeration order."""
    space = nu.space
    E = frozenset(E)
    if not E <= set(space.points):
        raise InputError("E is not a subset of the point set")
    K, values = space.K, nu.values  # made over `functions()`, so under its cap
    choices = [(K.zero,) if x in E else K.elements for x in space.points]
    return all(values[i] == K.zero for i in space.positions_within(choices))


def support_of(nu: Functional) -> SupportReport:
    """Intersection of all point sets the functional is supported on.

    Supported sets are closed upward: a function that vanishes on E'
    containing E also vanishes on E, so a functional supported on E is
    supported on E'.  Hence some set supports nu exactly when the whole
    point set does, and a point x lies in every supported set exactly
    when the points other than x do not support nu.  So n + 1 scans of
    `supported_on` decide the support, each over the functions of the
    space and so guarded by `FUNCTION_CAP`.  When not even the whole
    point set supports the functional, the support notion degenerates
    to the whole set and the report is flagged.
    """
    points = frozenset(nu.space.points)
    if not supported_on(nu, points):
        return SupportReport(points, True)
    return SupportReport(frozenset(x for x in nu.space.points if not supported_on(nu, points - {x})), False)


# ---------------------------------------------------------------------------
# the monad structure


class FunctionalFamily:
    """An indexed family of functionals treated as a point set, in the
    order given, together with the function space over it."""

    def __init__(self, space: FunctionSpace, members: tuple, prefix: str = "n"):
        self.space = space
        self.members = tuple(members)
        self.prefix = prefix
        self._bars = {}
        self.__post_init__()  # the upper space, a method of its own so perfbench/spans.py can time it

    def __post_init__(self):
        self.ids = tuple(f"{self.prefix}{i}" for i in range(len(self.members)))
        self.upper = FunctionSpace(self.ids, self.space.K, name=f"C({self.prefix}-family)")

    def bar(self, g: KFunction) -> KFunction:
        """The evaluation function induced by g on the family, made once per g."""
        if g not in self._bars:
            self._bars[g] = self.upper.member(tuple(m.value(g) for m in self.members))
        return self._bars[g]


class Pulled(Functional):
    """f -> inner(pull(f)): a functional on `space` that evaluates
    `inner` at the function `pull` makes of each argument, on demand;
    `kind` names the construction when it is printed."""

    def __init__(self, space: FunctionSpace, inner: Functional, pull: Callable[[KFunction], KFunction], kind: str):
        self.space = space
        self.inner = inner
        self.pull = pull
        self.kind = kind

    def value(self, f: KFunction) -> int:
        return self.inner.value(self.pull(f))

    def __str__(self) -> str:
        return f"{self.kind} of {self.inner}"


def xi(family: FunctionalFamily, lam: Functional) -> Pulled:
    """Flattening: the second-level functional evaluated on the bar image
    of each base function."""
    if lam.space is not family.upper:
        raise InputError("xi expects a functional on the family's upper space")
    return Pulled(family.space, lam, family.bar, "flattening")


def pushforward(lam: Functional, point_map: dict, target: FunctionSpace) -> Pulled:
    """The functor's action on a map: lam pushed along `point_map`, from
    lam's points into the points of `target`, as t -> lam(t o point_map).
    The map and the target are checked once, here, and the map is kept as
    the position in the target of each of lam's points; evaluation is
    lazy, and refuses a t that is not a function of the target."""
    inner = lam.space
    if set(point_map) != set(inner.points):
        raise InputError("point map domain must be the functional's points")
    at = codes("point map value", [point_map[p] for p in inner.points], target.code)
    if target.K is not inner.K:
        raise InputError("target space has another coefficient structure")

    def pull(t: KFunction) -> KFunction:
        target._require(t)
        return inner.member(tuple(t.values[i] for i in at))

    return Pulled(target, lam, pull, "pushforward")


SUBSET_CAP = 64
MONAD_LAWS = ("family-hosts-units", "unit-eta-outer", "unit-eta-inner", "bar-constant", "bar-join", "assoc")


def generated_family(space: FunctionSpace, prefix: str = "n") -> FunctionalFamily:
    """The sups over non-empty subsets of the points in the order of their
    bitmasks (point i is bit i), a sup over one point being that point's
    Dirac; beyond `SUBSET_CAP` subsets, the Diracs and the sup over all
    points.  This is the canonical idempotent stock on a space, used as
    higher-level families in the monad checks.  Since zero is least in K,
    the members are pairwise distinct whenever K has two elements."""
    points = space.points
    n = len(points)
    masks = range(1, 2**n) if 2**n - 1 <= SUBSET_CAP else [*(1 << i for i in range(n)), 2**n - 1]
    members = []
    for m in masks:
        E = [x for i, x in enumerate(points) if m >> i & 1]
        members.append(Dirac(space, E[0]) if len(E) == 1 else SupOver(space, frozenset(E)))
    return FunctionalFamily(space, members, prefix=prefix)


def monad_check(space: FunctionSpace, family=None) -> AxiomReport:
    """Both unit laws, the two laws of the evaluation map bar, and
    associativity of the flattening, for `family` or, by default, for
    I(X): every functional passing the normalization, shift and join axioms.

    On a chain K and a space with no variant (`over_a_chain`), the
    default family is a monad by double dualization (Kock, Math. Scand.
    27 (1970); for idempotent functionals, Zarichnyi, Izv. Math. 74
    (2010)), so its six records pass and nothing is enumerated.  Each
    member of I(X) preserves constants, the shifts c + f and f + c, and
    pointwise joins, so bar(f) = (n(f))_n commutes with all four.  On a
    chain every pair of functions, on X and on the family, is a join
    instance, so xi(lam) = lam o bar is in I(X) for every lam in I(I(X)),
    which gives assoc as below.  Diracs pass all four laws
    (family-hosts-units), xi(delta_n) = n (unit-eta-outer),
    xi(pushforward(nu, eta)) = nu since bar(f) o eta = f (unit-eta-inner),
    and every member passes normalized and join (bar-constant, bar-join).

    A declared family, a K with incomparable elements and a monotone
    space are scanned.  The base family is deduplicated and sorted by its
    values on the base space; higher-level functionals are evaluated only
    at the bar images the laws read, never over a whole upper space.  The
    unit laws compare their two sides on the functions of the base
    space.  The other three records are read from what is already
    decided, because bar(g) is (m(g))_m and each side of each law is read
    member by member:
    - bar-constant: bar(c) is the constant c exactly when every member
      sends the constant c to c.  So it fails at the least constant at
      which some member fails `normalized`.
    - bar-join: at f, g with a pointwise join, bar(f v g) = (m(f v g))_m
      and bar f v bar g = (m(f) v m(g))_m, defined and equal exactly when
      every member passes its `join` instance at (f, g).  So it fails at
      the least, in product order, of the members' first failing pairs,
      and only there is its witness built.
    - assoc: for tau on the functions of the second-level family (the
      lam on C(family)), the flattened flattening sends g to
      tau((lam(bar g))_lam).  The flattening of tau pushed along
      lam -> n_lam, the member equal to xi(lam), sends g to
      tau((n_lam(g))_lam), and n_lam(g) = xi(lam)(g) = lam(bar g).  So
      the sides agree for every tau once each xi(lam) is a member, and
      no third-level family is built.  The scan reads as second level
      only the sups over subsets of the family (`generated_family`), so
      where the flattening of one is not a member, the record is
      inconclusive.
    """
    if family is None and space.over_a_chain:
        return AxiomReport({law: Verdict.passed(law) for law in MONAD_LAWS})
    report = AxiomReport()
    if family is None:
        family = enumerate_idempotent(space, ("normalized", "left-shift", "right-shift", "join"))
    by_sig = {}
    for nu in family:
        by_sig.setdefault(signature(nu), nu)
    sigs = sorted(by_sig)
    fam = FunctionalFamily(space, [by_sig[s] for s in sigs], prefix="n")
    id_of = dict(zip(sigs, fam.ids))

    eta_map = {x: id_of.get(signature(Dirac(space, x))) for x in space.points}
    inconclusive = tuple(x for x, pid in eta_map.items() if pid is None)
    if inconclusive:
        report.add(
            Verdict.failed(
                "family-hosts-units",
                inconclusive,
                note="family lacks point evaluations; unit law cannot be expressed",
            )
        )
        return report
    report.add(Verdict.passed("family-hosts-units"))

    outer = (
        (pid,)
        for pid, nu in zip(fam.ids, fam.members)
        if signature(xi(fam, Dirac(fam.upper, pid))) != signature(nu)
    )
    report.add(first_failure("unit-eta-outer", outer))
    inner = (
        (str(nu),)
        for nu in fam.members
        if signature(xi(fam, pushforward(nu, eta_map, fam.upper))) != signature(nu)
    )
    report.add(first_failure("unit-eta-inner", inner))

    bent = [v.witness[0] for v in (law_verdict(nu.values, "normalized") for nu in fam.members) if not v]
    report.add(first_failure("bar-constant", ((b,) for b in sorted(bent, key=space.K.code.get))))
    bars = Verdict.passed("bar-join")
    crossed = [v.witness[:2] for v in (law_verdict(nu.values, "join") for nu in fam.members) if not v]
    if crossed:
        f, g = min(crossed, key=lambda pair: tuple(map(space.position, pair)))
        try:
            rhs = fam.upper.vee(fam.bar(f), fam.bar(g))
            bars = Verdict.failed("bar-join", (f, g, fam.bar(space.vee(f, g)), rhs))
        except IncomparableError as exc:
            bars = Verdict.failed("bar-join", (f, g), note=str(exc))
    report.add(bars)

    fam2 = generated_family(fam.upper, prefix="m")
    unclosed = next((pid2 for pid2, lam in zip(fam2.ids, fam2.members) if signature(xi(fam, lam)) not in id_of), None)
    if unclosed is None:
        report.add(Verdict.passed("assoc"))
    else:
        report.add(Verdict.failed("assoc", (unclosed,), note="inconclusive: family not closed under flattening"))
    return report
