"""Groupoid actions with cocycles, the induced representation on function
spaces, convolution of functionals, and the quasiring/ideal checks for
the resulting families.

The composition convention follows the representation identity: applying
g and then h equals applying their product, i.e. v_h(v_g(x)) = v_{gh}(x),
which together with the cocycle rule makes T_g T_h = T_{gh}.

Everything after the action check reads positions in C(G,K): an action
translates each function once (`ActionSystem.moved`), the invariance
check reads translates from that table, and nu * lam reads nu along a
map of positions made once per lam table (`ActionSystem.along`), since
h_f(g) = lam(T_g f) depends on lam and f, not on nu.  An algebra reads
each product of two members and each member's kind verdict from its own
tables; the support bound reads only the point maps v_g.

Values of K are codes (see `structures`); so are points and groupoid
elements, by position.  Names are read only where a groupoid or an
action is built, and applied only in a witness or a message: G codes
its elements (`order.encode`) and an action's space its points, the
unit and L are looked up by `order.codes`, and the tables keyed by pairs
of names become rows of codes through `code_rows`.

On a chain K, of kind join or meet, nu keeps the pick v (max or min)
exactly when nu(f) = V_x phi_x(f(x)) for monotone point maps phi_x that
share their value at u, the unit of v (`functionals.law_verdict`; the
finite density representation: Litvinov, Maslov, Shpiz, Math. Notes 69
(2001); Zarichnyi, Izv. Math. 74 (2010)), so `all_kind_functionals`
makes the family from tuples of such maps.  With a cocycle constant
one, T_g f = f o v_g commutes with the pointwise pick, so
h_{f v f'} = h_f v h_{f'} for lam in the family, and nu * lam keeps the
law, as nu + lam does value by value: `kind_algebra` marks the whole
family closed (`by_theorem`) with no product made, and refuses a family
over the budget before it makes a table; `check_quasiring` and
`check_ideal` decide its laws from their premises.  Kind add, a K that
is not a chain, a cocycle not constant one and any other seed are closed
by `saturate`, a scan of every sum and product, and their laws scanned.
"""
from __future__ import annotations

from functools import cache, cached_property, partial, reduce
from itertools import combinations_with_replacement, product
from math import comb

from .errors import CapacityError, IncomparableError, InputError, PreconditionError
from .funcspace import FunctionSpace, KFunction
from .functionals import (
    TABLE_CAP,
    Dirac,
    Functional,
    TableFunctional,
    enumerate_functionals,
    law_instances,
    law_verdict,
    require_additive,
    support_of,
    tabulate,
)
from .order import codes, encode
from .report import AxiomReport, Verdict, first_failure
from .structures import FinStruct, code_rows

KINDS = ("add", "join", "meet")
VALUE_CAP = 10_000_000  # the values of the tables point maps make: about 80 MB of references
PAIR_CAP = 1_000_000  # the (member, invariant member) pairs of an ideal check: about 250 MB of products


class Groupoid:
    """One total binary operation with a two-sided unit; no other laws.
    Built from names and kept as codes, by position in `elements`:
    table[a][b] is the code of the product of a and b, and unit a code."""

    def __init__(self, name: str, elements: tuple, table: dict, unit: str):
        self.name = name
        self.elements = elements
        code = encode(f"{name}: element", elements)
        [self.unit] = codes(f"{name}: unit", (unit,), code)
        self.table = code_rows(f"{name}: product", table, elements, elements, code)
        for a in range(len(elements)):
            if self.table[self.unit][a] != a or self.table[a][self.unit] != a:
                raise InputError(f"{name}: unit is not neutral at {elements[a]!r}")


class ActionSystem:
    """A groupoid action on a finite set with a cocycle into an
    associative part of the coefficient structure, built from the maps
    v and rho keyed by pairs (g, x) of names and kept as codes, with one
    row per element of G: act[g][x] is the code of v_g(x) in `space.code`,
    and rho[g][x] that of rho(g,x) in K.  L is a set of codes.
    The algebra checks refuse a cocycle not constant one (`_require_unit_cocycle`)."""

    def __init__(self, G: Groupoid, K: FinStruct, points: tuple, v: dict, L: frozenset, rho: dict):
        self.G = G
        self.K = K
        self.points = points
        self.space = FunctionSpace(points, K)
        self.act = code_rows("act", v, G.elements, points, self.space.code)
        self.rho = code_rows("rho", rho, G.elements, points, K.code)
        self.L = frozenset(codes("L element", sorted(L), K.code))
        self.along = cache(self._positions_along)

    @cached_property
    def moved(self) -> tuple:
        """The translation table, made on first use: moved[g][i] is the
        position in `space.functions()` of T_g f_i for the element of code g."""
        position, funcs = self.space.position, self.space.functions()
        return tuple(tuple(position(apply_T(self, g, f)) for f in funcs) for g in range(len(self.act)))

    def _positions_along(self, table: tuple) -> tuple:
        """What `along` makes once per table: entry i is the position, in base
        |K|, of h(g) = table[moved[g][i]]; `position` refuses an h outside C(G,K)."""
        hs = [tuple(table[j] for j in column) for column in zip(*self.moved)]
        pi = tuple(map(self.space._index, hs))
        if None in pi:  # a value of the table is no code of K; position raises
            self.space.position(KFunction(self.points, hs[pi.index(None)], self.K))
        return pi


def check_action(sys: ActionSystem) -> Verdict:
    """All representation and cocycle identities, exhaustively, on the code rows."""
    G, K, act, rho, mul = sys.G, sys.K, sys.act, sys.rho, sys.K.mul
    law, gs, xs = "action", range(len(G.elements)), range(len(sys.points))

    def at(*gx):  # a witness: the names of elements of G and, last, of a point
        return (*(G.elements[g] for g in gx[:-1]), sys.points[gx[-1]])

    for x in xs:
        if act[G.unit][x] != x:
            return Verdict.failed(law, ("unit-action", *at(x)))
    for g, h, x in product(gs, gs, xs):
        if act[h][act[g][x]] != act[G.table[g][h]][x]:
            return Verdict.failed(law, ("composition", *at(g, h, x)))
    if not {K.zero, K.one} <= sys.L:
        return Verdict.failed(law, ("L-units", frozenset(K.names[a] for a in sys.L)))
    for a, b in product(sorted(sys.L), repeat=2):
        if mul[a][b] not in sys.L:
            return Verdict.failed(law, K.order.named(("L-closed", a, b)))
        for c in K.elements:
            if mul[a][mul[b][c]] != mul[mul[a][b]][c]:
                return Verdict.failed(law, K.order.named(("L-assoc", a, b, c)))
    bad = [at(g, x) for g, x in product(gs, xs) if rho[g][x] == K.zero or rho[g][x] not in sys.L]
    if bad:  # the first by name
        raise InputError("cocycle value at ({},{}) must lie in L minus zero".format(*min(bad)))
    for x in xs:
        if rho[G.unit][x] != K.one:
            return Verdict.failed(law, ("cocycle-unit", *at(x)))
    for g, h, x in product(gs, gs, xs):
        if mul[rho[g][x]][rho[h][act[g][x]]] != rho[G.table[g][h]][x]:
            return Verdict.failed(law, ("cocycle", *at(g, h, x)))
    return Verdict.passed(law)


def apply_T(sys: ActionSystem, g: int, f: KFunction) -> KFunction:
    """x maps to rho(g,x) * f(v_g(x)), for the element of code g."""
    return sys.space.member(tuple(sys.K.mul[r][f.values[y]] for r, y in zip(sys.rho[g], sys.act[g])))


def _require_action_space(nu: Functional, sys: ActionSystem) -> None:
    """Refuse a functional whose positions are not those of C(G,K), or a table too short for them."""
    sp, short = nu.space, isinstance(nu, TableFunctional) and len(nu.table) < len(sys.space.functions())
    if short or (sp.points, sp.K, sp.variant) != (sys.space.points, sys.K, None):
        raise InputError("functional does not live on C(G,K)")


def convolve(nu: Functional, lam: Functional, sys: ActionSystem) -> TableFunctional:
    """nu * lam as a value table: (nu * lam)(f) = nu(h_f), read along
    lam's positions `sys.along` (see the module docstring).  A lam that is
    not a table is tabulated; nu is read through its `values`."""
    if tuple(sys.points) != tuple(sys.G.elements):
        raise PreconditionError("convolution requires the action on X = G itself")
    for part in (nu, lam):
        _require_action_space(part, sys)
    return TableFunctional(sys.space, tuple(map(nu.values.__getitem__, sys.along(tabulate(lam).table))))


def dirac_unit(sys: ActionSystem) -> Dirac:
    return Dirac(sys.space, sys.G.elements[sys.G.unit])


# ---------------------------------------------------------------------------
# functional kinds and invariance


def check_kind(nu: Functional, kind: str) -> Verdict:
    """add: plain additivity (needs commutative associative addition in K);
    join/meet: compatibility with guarded pointwise max/min.  The verdict
    is the first failing instance of the law (`law_instances`)."""
    _require_kind(kind, nu.space.K)
    return law_verdict(nu.values, kind, name=f"kind-{kind}")


def check_invariant(nu: Functional, sys: ActionSystem) -> Verdict:
    """Invariance under the whole representation: the functional cannot
    tell a function from any of its translates."""
    _require_action_space(nu, sys)
    values, funcs, names = nu.values, sys.space.functions(), sys.K.names
    for g, row in zip(sys.G.elements, sys.moved):
        for i, j in enumerate(row):
            if values[j] != values[i]:
                return Verdict.failed("invariant", (g, funcs[i], names[values[j]], names[values[i]]))
    return Verdict.passed("invariant")


def _require_kind(kind: str, K: FinStruct) -> None:
    """Refuse an unknown kind, and kind add over a K whose addition is not commutative and associative."""
    if kind not in KINDS:
        raise InputError(f"unknown kind {kind!r}")
    if kind == "add":
        require_additive(K)


def plus_kind(kind: str, nu: Functional, lam: Functional) -> TableFunctional:
    """The kind's addition of two functionals, value by value."""
    space, K = nu.space, nu.space.K
    _require_kind(kind, K)
    nus, lams = nu.values, lam.values
    pairs = ((nus[i], lams[i]) for i in range(len(space.functions())))
    if kind == "add":
        return TableFunctional(space, tuple(K.add[a][b] for a, b in pairs))
    k, picks, values = (0 if kind == "join" else 1), K.order.picks, []
    for a, b in pairs:
        if picks[a][b] is None:
            a, b = K.names[a], K.names[b]
            raise IncomparableError(f"values {a!r}, {b!r} incomparable", a, b)
        values.append(picks[a][b][k])
    return TableFunctional(space, tuple(values))


# ---------------------------------------------------------------------------
# saturation, quasiring and ideal checks


class ConvAlgebra:
    """A family of value tables on C(G,K) with the kind addition ("plus")
    and convolution ("star").  It keeps one object per table (`member`),
    registered when it enters, so each product of two tables is keyed by
    their identities, made once, by `combine`, and read from there; so are
    each table's verdicts of `check_kind` and `check_invariant`, by
    `passes_kind` and `invariant`.  `by_theorem` marks the whole kind
    family that `kind_algebra` closes by the theorem of the module docstring."""

    def __init__(self, kind: str, sys: ActionSystem, members: tuple):
        _require_kind(kind, sys.K)
        self.kind = kind
        self.sys = sys
        self.saturated = self.by_theorem = False
        self.rounds = 0
        self._made = {}
        self.passes_kind = cache(lambda nu: bool(check_kind(nu, kind)))
        self.invariant = cache(lambda nu: bool(check_invariant(nu, sys)))
        self._tables = {}
        self.members = tuple(map(self.member, members))

    def member(self, nu: TableFunctional) -> TableFunctional:
        """The algebra's one object for nu's table."""
        return self._tables.setdefault(nu.table, nu)

    def combine(self, op: str, nu: TableFunctional, lam: TableFunctional, keep: bool = True) -> TableFunctional:
        """nu + lam for op "plus", nu * lam for op "star", as a value
        table; nu, lam and a result made before or kept are objects of `member`."""
        key = (op, nu, lam)
        made = self._made.get(key)
        if made is None:
            made = plus_kind(self.kind, nu, lam) if op == "plus" else convolve(nu, lam, self.sys)
            if keep:
                made = self._made[key] = self.member(made)
        return made


def all_kind_functionals(sys: ActionSystem, kind: str) -> list[TableFunctional]:
    """Every functional on C(G,K) passing the kind check (the seed family),
    in `product` order: made from point maps on a chain, of kind join or
    meet (see the module docstring); else the tables that pass every
    instance of the kind's law, as `check_kind` scans them."""
    _require_kind(kind, sys.K)
    if kind != "add" and sys.space.over_a_chain:
        return [TableFunctional(sys.space, t) for t in _point_map_tables(sys.space, ("join", "meet").index(kind))]
    return list(enumerate_functionals(sys.space, law_instances(sys.space, (kind,))))


def _point_map_count(space: FunctionSpace) -> int:
    """The tuples of point maps of `_point_map_tables`, one per table,
    refused over the caps: comb(2n - 2 - i, n - 1) maps for each point
    with phi(u) the i-th element out from u."""
    n, m = len(space.K.elements), len(space.points)
    total = sum(comb(2 * n - 2 - i, n - 1) ** m for i in range(n))
    if total > TABLE_CAP:
        raise CapacityError(f"{total} point-map candidates exceed the cap {TABLE_CAP}")
    if total * n**m > VALUE_CAP:
        raise CapacityError(f"{total} point-map tables of {n**m} values exceed the cap {VALUE_CAP} values")
    return total


def _point_map_tables(space: FunctionSpace, k: int) -> list[tuple]:
    """The tables of V_x phi_x(f(x)), sorted, for the tuples of point maps
    phi_x monotone for the k-pick with one value at its unit u: sequences,
    from u outwards, that never step back.  They are counted before any table is made."""
    _point_map_count(space)
    K, m = space.K, len(space.points)
    n, picks = len(K.elements), K.order.picks
    chain = sorted(K.elements, key=lambda a: len((K.order.above, K.order.below)[k][a]), reverse=True)
    maps = {}  # by their value at u
    for values in combinations_with_replacement(chain, n):
        maps.setdefault(values[0], []).append([values[chain.index(a)] for a in K.elements])

    def fold(outer, inner):  # the position of f is its values in base n, the first point leading
        return [picks[v][w][k] for v in outer for w in inner]

    return sorted(tuple(reduce(fold, phis)) for group in maps.values() for phis in product(group, repeat=m))


def kind_algebra(sys: ActionSystem, kind: str, budget: int) -> ConvAlgebra:
    """The algebra of the whole kind family (`all_kind_functionals`).
    Where the theorem of the module docstring applies, it is closed with
    no product made, and a family over the budget is refused before any
    table is made; elsewhere it is closed by `saturate`."""
    if kind not in ("join", "meet") or not (sys.space.over_a_chain and _unit_cocycle(sys)):
        return saturate(all_kind_functionals(sys, kind), sys, kind, budget)
    size = _point_map_count(sys.space)
    if size > budget:
        raise CapacityError(f"{size} {kind} functionals exceed the budget {budget}")
    alg = ConvAlgebra(kind, sys, all_kind_functionals(sys, kind))
    alg.saturated = alg.by_theorem = True
    return alg


def saturate(seed, sys: ActionSystem, kind: str, budget: int = 4096) -> ConvAlgebra:
    """Close the seed family under the kind addition and convolution, up
    to extensional identity, until stable or out of budget.  A pair that
    an earlier round combined is read back from the algebra."""
    alg = ConvAlgebra(kind, sys, ())
    members = dict.fromkeys(alg.member(tabulate(nu)) for nu in seed)
    while len(members) <= budget:
        alg.rounds += 1
        current = list(members)
        for nu, lam in product(current, repeat=2):
            for op in ("plus", "star"):
                members.setdefault(alg.combine(op, nu, lam))
        if len(members) == len(current):
            alg.saturated = True
            break
    alg.members = tuple(members)
    return alg


def check_quasiring(alg: ConvAlgebra) -> AxiomReport:
    """Closure of both operations, the two distributive laws between the
    kind addition and convolution, and neutrality of the unit evaluation.

    Right law, (n1 + n2) * lam = n1 * lam + n2 * lam: the left side reads
    n1 + n2 along lam's positions pi (`sys.along`), and `plus_kind` adds
    value by value, so at i both sides are plus(n1[pi(i)], n2[pi(i)]).
    Left law, lam * (n1 + n2) = lam * n1 + lam * n2: with h^nu_f(g) =
    nu(T_g f), h^{n1+n2}_f = h^{n1}_f + h^{n2}_f pointwise, defined as
    n1 + n2 is, so at f the sides are lam(h1 + h2) and lam(h1) + lam(h2),
    an instance of lam's kind law (`law_instances`).  So only a lam that
    fails `check_kind` is scanned, over (n1, n2) and then lam in member
    order, and only there are sums made: none in the theorem's family
    (`by_theorem`), whose members pass their kind by construction.
    Closure is scanned only in an algebra that is not saturated.  Unit:
    delta_e * nu = nu(T_e .) = nu, and nu * delta_e reads h_f(g) =
    f(v_g(e)) = f(g), in any algebra on X = G with cocycle one, v_e the
    identity and v_g(e) = g (`_unit_acts`); else it is one scan.
    """
    report = AxiomReport()
    members = alg.members
    star, plus = partial(alg.combine, "star"), partial(alg.combine, "plus")
    if alg.saturated:
        report.add(Verdict.passed("closure-add"))
        report.add(Verdict.passed("closure-conv"))
    else:
        inside = set(members)
        report.add(Verdict.failed("closure-add", None, note="saturation budget exhausted"))
        leaves = ((str(nu), str(lam)) for nu, lam in product(members, repeat=2) if star(nu, lam) not in inside)
        report.add(first_failure("closure-conv", leaves))

    report.add(Verdict.passed("conv-right-dist"))

    def undistributed():
        failing = [lam for lam in members if not alg.passes_kind(lam)]
        for n1, n2, lam in product(members, members, failing):
            if star(lam, plus(n1, n2)) is not plus(star(lam, n1), star(lam, n2)):
                yield (str(n1), str(n2), str(lam))

    report.add(Verdict.passed("conv-left-dist") if alg.by_theorem else first_failure("conv-left-dist", undistributed()))
    delta = alg.member(tabulate(dirac_unit(alg.sys)))
    moved = ((str(nu),) for nu in members if {star(nu, delta), star(delta, nu)} != {nu})
    report.add(Verdict.passed("unit-neutral") if _unit_acts(alg.sys) else first_failure("unit-neutral", moved))
    return report


def _unit_acts(sys: ActionSystem) -> bool:  # the unit's premise (`check_quasiring`), on X = G
    act, e, on_G = sys.act, sys.G.unit, tuple(sys.points) == tuple(sys.G.elements)
    fixes = on_G and act[e] == tuple(range(len(act))) and all(row[e] == g for g, row in enumerate(act))
    return fixes and _unit_cocycle(sys)


def _unit_cocycle(sys: ActionSystem) -> bool:
    return all(v == sys.K.one for row in sys.rho for v in row)


def _require_unit_cocycle(sys: ActionSystem) -> None:
    """Refuse an action whose cocycle is not constant one."""
    if not _unit_cocycle(sys):
        raise PreconditionError("convolution needs a cocycle constant one")


def invariant_subfamily(alg: ConvAlgebra) -> list[TableFunctional]:
    return [nu for nu in alg.members if alg.invariant(nu)]


def check_ideal(H, alg: ConvAlgebra) -> AxiomReport:
    """The three ideal inclusions for the invariant sub-family H, where
    membership means passing the invariance and kind checks.  In the
    theorem's family (`by_theorem`), which is closed, on X = G and with H
    drawn from its members, an inclusion is decided when its premise holds:
    ideal-add always, since a pick of invariant members is invariant value
    by value; ideal-left when `check_action` holds, so T_g T_k = T_{gk}
    and an invariant lam has h_{T_k f} = h_f; ideal-right when also
    v_k(x) = xk, so h_{T_k f} = T_k h_f.  Else it is a scan, whose products
    are not kept, refused past `PAIR_CAP` pairs of a member and one of H."""
    sys = alg.sys
    _require_unit_cocycle(sys)
    report = AxiomReport()
    H = list(map(alg.member, H))
    if not all(map(alg.invariant, H)):
        raise PreconditionError("H contains a non-invariant functional")
    drawn = alg.by_theorem and tuple(sys.points) == tuple(sys.G.elements) and set(H) <= set(alg.members)
    acts = drawn and bool(check_action(sys))
    regular = acts and all(row[x] == sys.G.table[x][k] for k, row in enumerate(sys.act) for x in range(len(row)))
    if not regular and len(alg.members) * len(H) > PAIR_CAP:
        raise CapacityError(f"{len(alg.members)} members by {len(H)} invariant ones exceed the cap {PAIR_CAP} pairs")

    def member_of_H(made: TableFunctional) -> bool:  # a member's verdicts are kept, a new product's are not
        if (nu := alg._tables.get(made.table)) is None:
            return bool(check_invariant(made, sys)) and bool(check_kind(made, alg.kind))
        return alg.invariant(nu) and alg.passes_kind(nu)

    pairs = product(H, repeat=2)
    outside = ((str(a), str(b)) for a, b in pairs if not member_of_H(alg.combine("plus", a, b, keep=False)))
    report.add(Verdict.passed("ideal-add") if drawn else first_failure("ideal-add", outside))

    # nu * lam stays in H for every member nu and lam in H, and with the
    # convolution flipped, lam * nu
    def leaves(flip):
        for nu, lam in product(alg.members, H):
            a, b = (lam, nu) if flip else (nu, lam)
            if not member_of_H(alg.combine("star", a, b, keep=False)):
                yield (str(a), str(b))

    report.add(Verdict.passed("ideal-left") if acts else first_failure("ideal-left", leaves(False)))
    report.add(Verdict.passed("ideal-right") if regular else first_failure("ideal-right", leaves(True)))
    return report


# ---------------------------------------------------------------------------
# the support bound of invariant functionals


def support_bounds(nu: Functional, sys: ActionSystem) -> Verdict:
    """The support of an invariant functional lies in P, the fixed point
    of A -> union of v_g(A) over g other than the unit, from the whole
    point set X (P is X when G is only its unit).

    The map is monotone and its first step shrinks X, so the iterates
    shrink to P, and after k steps they are the union of v_w(X) over the
    words w of k non-unit elements; so P is that union for |w| >= |X|.
    Invariance gives nu(f) = nu(T_w f) for every such word, and T_w f
    reads f only on v_w(X), which lies in P.  So if f vanishes on P,
    then T_w f = 0, because zero absorbs, and nu(f) = nu(0) = 0 whenever
    some set supports nu.  A degenerate support (no set supports nu)
    passes with a note; a failure's witness is (support, P), each sorted.
    """
    if not check_invariant(nu, sys):
        raise PreconditionError("support bounds require an invariant functional")
    moving = [row for g, row in enumerate(sys.act) if g != sys.G.unit]
    bound = frozenset(range(len(sys.points)))
    while moving:
        image = frozenset(row[x] for row in moving for x in bound)
        if image == bound:
            break
        bound = image
    bound = frozenset(sys.points[x] for x in bound)  # by name, as `support_of` gives the support
    rep = support_of(nu)
    if rep.degenerate:
        return Verdict.passed("support-bound", "support degenerate")
    if rep.support <= bound:
        return Verdict.passed("support-bound")
    return Verdict.failed("support-bound", (tuple(sorted(rep.support)), tuple(sorted(bound))))
