"""Scan definitions that the library replaced by lookups, kept as oracles.

Each function here is the body the library had before it read
precomputed sets and tables: bounds and extrema by scanning the pairs of
an order, the admissibility of a function space by every subset of K
up to the size of its point set, the order axioms by element loops, the
pointwise order of a function space point by point, the members of a
monotone space by every value tuple, the cubic law scans
over all triples, and
the shifted product by a scan of the whole index window with a linear
lookup of element values, the laws of functionals as one loop per
checker over the functions of the space (order preservation and
non-expansion as one joint scan of the pairs) and the functionals that
pass them as a filter of every value table, the monad of functionals
extensionally, with families deduplicated and sorted by their value
tables over the upper spaces and the flattening tabulated there, its
assoc record also as the lazy comparison of both sides for every
third-level functional, and convolution with each translate made on
names by `translate` where it is read and products cached by the tables
of their factors, the bound on the
support of an invariant functional as the union of the images of the
points under every long enough word of non-unit elements, the support
of a functional as the intersection over every subset of its points
that supports it, each subset decided by a walk over every function,
the shifted product's directedness, lexicographic order and
transfer of distributivity by scans over the pairs and triples of a
window, and its non-associativity search with every triple evaluated,
zero operands included.  Tests
compare the library against them verdict by verdict and witness by
witness.  The support section also keeps the minimality criterion and
the restriction-agreement condition that tests pin supports against.

The library computes on the codes of elements; these scans compute on
their names.  An order is read as its pairs of names, K's operations as
tables keyed by pairs of names, a function and an s-product element by
the names of their values, and a value is coded again only to make a
function or a value table.  So every comparison with the library also
checks its encoding.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from functools import cache
from itertools import combinations, islice, product

from ordalg import functionals
from ordalg.convolution import check_kind, dirac_unit
from ordalg.errors import CapacityError, IncomparableError, InputError, PreconditionError
from ordalg.funcspace import FunctionSpace, KFunction
from ordalg.functionals import (
    Dirac,
    Functional,
    SupOver,
    SupportReport,
    TableFunctional,
    signature,
    tabulate,
)
from ordalg.report import AxiomReport, Verdict


# -- names -------------------------------------------------------------------


def pairs(order) -> list:
    """The pairs (x, y) of names with x <= y, in carrier order."""
    names = order.carrier
    return [(names[x], names[y]) for x in range(len(names)) for y in sorted(order.above[x])]


def named(f) -> tuple:
    """The names of a function's values, aligned with its points."""
    return tuple(f.K.names[v] for v in f.values)


def make(space, values):
    """The function with these named values, a member of the space or not."""
    return KFunction(space.points, tuple(space.K.code[v] for v in values), space.K)


@cache
class Named:
    """K on names: its carrier, zero and one, both operations as tables
    keyed by pairs of names, and its order as pairs of names; made once
    per structure."""

    def __init__(self, K):
        names = K.names
        self.elements, self.zero, self.one = names, names[K.zero], names[K.one]
        self.add, self.mul = (
            {(names[a], names[b]): names[rows[a][b]] for a in K.elements for b in K.elements} for rows in (K.add, K.mul)
        )
        self.pairs = set(pairs(K.order))

    def leq(self, a, b) -> bool:
        return (a, b) in self.pairs

    def comparable(self, a, b) -> bool:
        return (a, b) in self.pairs or (b, a) in self.pairs

    def join(self, a, b):
        return b if (a, b) in self.pairs else a

    def meet(self, a, b):
        return a if (a, b) in self.pairs else b


# -- order ---------------------------------------------------------------------


def bounds(order, subset, up: bool) -> list:
    """The names of the bounds of a set of names, in carrier order."""
    leq = set(pairs(order))
    if up:
        return [z for z in order.carrier if all((x, z) in leq for x in subset)]
    return [z for z in order.carrier if all((z, x) in leq for x in subset)]


def extremum(subset, order, up: bool):
    subset = list(subset)
    if not subset:
        raise InputError(f"{'sup' if up else 'inf'} of an empty subset")
    if not set(subset) <= set(order.carrier):
        raise InputError("subset not contained in carrier")
    leq = set(pairs(order))
    found = bounds(order, subset, up)
    for z in found:
        if all(((z, w) if up else (w, z)) in leq for w in found):
            return z
    return None


def subset_without_sup(order, size: int):
    """The first subset of up to `size` carrier elements, by size and
    then in `combinations` order, with no sup; None when every one has."""
    for k in range(1, size + 1):
        for subset in combinations(order.carrier, k):
            if extremum(subset, order, True) is None:
                return subset
    return None


def check_order_axioms(order, mode: str) -> Verdict:
    law = f"order-{mode}"
    leq = set(pairs(order))

    def lt(x, y):
        return x != y and (x, y) in leq

    for x in order.carrier:  # D2
        if (x, x) not in leq:
            return Verdict.failed(law, ("D2", x))
    for x, y in pairs(order):  # D1
        for z in order.carrier:
            if (y, z) in leq and (x, z) not in leq:
                return Verdict.failed(law, ("D1", x, y, z))
    if mode == "directed":
        for x in order.carrier:  # D3
            for y in order.carrier:
                if not bounds(order, (x, y), True):
                    return Verdict.failed(law, ("D3", x, y))
        return Verdict.passed(law)
    for x in order.carrier:
        for y in order.carrier:
            if lt(x, y) and lt(y, x):
                return Verdict.failed(law, ("LO2", x, y))
            if x != y and (x, y) not in leq and (y, x) not in leq:
                return Verdict.failed(law, ("LO3", x, y))
    for x in order.carrier:
        for y in order.carrier:
            if not lt(x, y):
                continue
            for z in order.carrier:
                if lt(y, z) and not lt(x, z):
                    return Verdict.failed(law, ("LO1", x, y, z))
    return Verdict.passed(law)


# -- function spaces -------------------------------------------------------------


def pointwise_leq(space, f, g) -> bool:
    leq = set(pairs(space.K.order))
    return all((a, b) in leq for a, b in zip(named(f), named(g)))


def monotone_members(space) -> list:
    """The names of the values of a monotone space's members, in the order
    of `product`: the value tuples in which each point's value and that of
    every later listed point, itself included, are in the variant's order."""
    leq, n = set(pairs(space.K.order)), len(space.points)
    out = []
    for vals in product(space.K.names, repeat=n):
        steps = [(vals[i], vals[j]) for i in range(n) for j in range(i, n)]
        if all((a, b) in leq if space.variant == "+" else (b, a) in leq for a, b in steps):
            out.append(vals)
    return out


# -- functionals -------------------------------------------------------------------


def evaluator(nu):
    """nu as a function of functions to names, each evaluated once."""
    values = {}
    names = nu.space.K.names

    def value(f):
        if f not in values:
            values[f] = names[nu.value(f)]
        return values[f]

    return value


def grid(first, second, budget, seed):
    if budget is None or len(first) * len(second) <= budget:
        return product(first, second), False
    rng = random.Random(seed)
    return [(rng.choice(first), rng.choice(second)) for _ in range(budget)], True


def normalized(space, value) -> Verdict:
    for c in space.K.names:
        v = value(space.function({x: c for x in space.points}))
        if v != c:
            return Verdict.failed("normalized", (c, v))
    return Verdict.passed("normalized")


def check_join_meet(space, value, pairs, laws: dict) -> dict:
    """Guarded pointwise max ("join") and min ("meet") on pairs of
    functions; `laws` maps each kind to the law name of its verdict."""
    K = Named(space.K)
    todo = [(law, K.join if kind == "join" else K.meet) for kind, law in laws.items()]
    failed = {}
    for f, g in pairs:
        if not all(map(K.comparable, named(f), named(g))):
            continue
        a, b = value(f), value(g)
        comparable = K.comparable(a, b)
        for law, pick in todo:
            if law in failed:
                continue
            if not comparable:
                failed[law] = Verdict.failed(law, (f, g, a, b), note="values incomparable")
                continue
            lhs = value(make(space, map(pick, named(f), named(g))))
            rhs = pick(a, b)
            if lhs != rhs:
                failed[law] = Verdict.failed(law, (f, g, lhs, rhs))
        if len(failed) == len(todo):
            break
    return {law: failed.get(law, Verdict.passed(law)) for law in laws.values()}


def constant_law(space, value, cells, op: str, laws: dict, witness=tuple) -> dict:
    """nu(c o f) = c o nu(f) on (c, f) cells, o the add or the mul of K
    put on each side that `laws` names; sides sharing a law name fail at
    the first failing side."""
    K = Named(space.K)
    table = K.add if op == "add" else K.mul
    sides = list(laws.items())
    todo = len(set(laws.values()))
    failed = {}
    for c, f in cells:
        nf = value(f)
        for side, law in sides:
            if law in failed:
                continue
            shifted = (table[(c, a)] if side == "left" else table[(a, c)] for a in named(f))
            lhs = value(make(space, shifted))
            rhs = table[(c, nf)] if side == "left" else table[(nf, c)]
            if lhs != rhs:
                failed[law] = Verdict.failed(law, witness((c, f, lhs, rhs)))
        if len(failed) == todo:
            break
    return {law: failed.get(law, Verdict.passed(law)) for law in laws.values()}


def check_idempotent(nu, budget=None, seed=0) -> AxiomReport:
    value = evaluator(nu)
    space = nu.space
    funcs = space.functions()
    report = AxiomReport()
    report.add(normalized(space, value))
    cells, shifts_sampled = grid(space.K.names, funcs, budget, seed)
    pairs, pairs_sampled = grid(funcs, funcs, budget, seed)
    shifts = constant_law(space, value, cells, "add", {"left": "left-shift", "right": "right-shift"})
    join_meet = check_join_meet(space, value, pairs, {"join": "join", "meet": "meet"})
    for verdict in (*shifts.values(), *join_meet.values()):
        report.add(verdict)
    report.sampled = shifts_sampled or pairs_sampled
    return report


def enumerate_idempotent(space, axioms) -> list:
    """Every value table on the space, in product order, whose report by
    `check_idempotent` passes the named axioms.  Normalization, which
    most tables fail, is read before the whole report."""
    kept = []
    for values in product(space.K.elements, repeat=len(space.functions())):
        nu = TableFunctional(space, values)
        if "normalized" in axioms and not normalized(space, evaluator(nu)):
            continue
        report = check_idempotent(nu)
        if all(report[law].holds for law in axioms):
            kept.append(nu)
    return kept


def weak_laws(nu) -> dict:
    """Weak additivity (h outer, c inner, the right side first), as
    `check_weak_properties` reports it."""
    value = evaluator(nu)
    space = nu.space
    cells = ((c, h) for h in space.functions() for c in space.K.names)
    laws = {"right": "weakly-additive", "left": "weakly-additive"}
    return constant_law(space, value, cells, "add", laws, witness=lambda w: (w[1], w[0], w[2], w[3]))


def weak_order_laws(nu, budget=None, seed=0) -> dict:
    """Order preservation (f <= h gives nu(f) <= nu(h)) and non-expansion
    (f <= c o h gives nu(f) <= c o nu(h), c added on the right, then on
    the left), by one joint scan of the pairs (f, h), sampled as
    `check_weak_properties` samples them, each law failing at its first
    failing pair; and whether the pairs were sampled."""
    value = evaluator(nu)
    space = nu.space
    K = Named(space.K)
    funcs = space.functions()
    pairs, sampled = grid(funcs, funcs, budget, seed)
    op = ne = None
    for f, h in pairs:
        nf, nh = value(f), value(h)
        if op is None and pointwise_leq(space, f, h) and not K.leq(nf, nh):
            op = (f, h, nf, nh)
        for c, side in product(K.elements, ("right", "left")):
            if ne is not None:
                break
            bound = K.add[(nh, c)] if side == "right" else K.add[(c, nh)]
            shifted = (K.add[(a, c)] if side == "right" else K.add[(c, a)] for a in named(h))
            if all(map(K.leq, named(f), shifted)) and not K.leq(nf, bound):
                ne = (f, h, c, side)
        if op is not None and ne is not None:
            break
    laws = {"order-preserving": op, "non-expanding": ne}
    return {law: Verdict(w is None, law, w) for law, w in laws.items()}, sampled


def check_homogeneous(nu) -> dict:
    space = nu.space
    cells = product(space.K.names, space.functions())
    laws = {"left": "left-homogeneous", "right": "right-homogeneous"}
    return constant_law(space, evaluator(nu), cells, "mul", laws, witness=lambda w: w[:2])


def check_kind(nu, kind: str) -> Verdict:
    space = nu.space
    law = f"kind-{kind}"
    value = evaluator(nu)
    if kind != "add":
        pairs = product(space.functions(), repeat=2)
        return check_join_meet(space, value, pairs, {kind: law})[law]
    if not {"comm-add", "assoc-add"} <= space.K.flags:
        raise PreconditionError("kind add needs commutative associative addition in K")
    add = Named(space.K).add
    for f, g in product(space.functions(), repeat=2):
        lhs = value(make(space, (add[ab] for ab in zip(named(f), named(g)))))
        rhs = add[(value(f), value(g))]
        if lhs != rhs:
            return Verdict.failed(law, (f, g, lhs, rhs))
    return Verdict.passed(law)


# -- the monad ---------------------------------------------------------------------


class FunctionalFamily:
    """The members deduplicated by signature, the first of each kept, and
    sorted by it; ids in that order."""

    def __init__(self, space, members, prefix="n"):
        sigs = {}
        for m in members:
            sigs.setdefault(signature(m), m)
        self.space = space
        self.members = tuple(sigs[s] for s in sorted(sigs))
        self.ids = tuple(f"{prefix}{i}" for i in range(len(self.members)))
        self.upper = FunctionSpace(self.ids, space.K, name=f"C({prefix}-family)")
        self.by_sig = {signature(m): pid for pid, m in zip(self.ids, self.members)}

    def id_of(self, nu):
        return self.by_sig.get(signature(nu))

    def bar(self, g):
        names = self.space.K.names
        return self.upper.function({pid: names[m.value(g)] for pid, m in zip(self.ids, self.members)})


def xi(family, lam):
    return TableFunctional(
        family.space, tuple(lam.value(family.bar(g)) for g in family.space.functions())
    )


def generated_family(space, prefix="n"):
    members = [Dirac(space, x) for x in space.points]
    n = len(space.points)
    if 2**n - 1 <= 64:
        subsets = [frozenset(c) for size in range(1, n + 1) for c in combinations(space.points, size)]
    else:
        subsets = [frozenset((x,)) for x in space.points] + [frozenset(space.points)]
    members.extend(SupOver(space, E) for E in subsets)
    return FunctionalFamily(space, members, prefix=prefix)


def pushed(lam, point_map, upper):
    inner = lam.space
    return TableFunctional(
        upper,
        tuple(
            lam.value(inner.function({p: t.K.names[t(point_map[p])] for p in inner.points}))
            for t in upper.functions()
        ),
    )


def _members(space, family):
    if family is not None:
        return tuple(family)
    return tuple(enumerate_idempotent(space, ("normalized", "left-shift", "right-shift", "join")))


def monad_check(space, family=None) -> AxiomReport:
    report = AxiomReport()
    fam = FunctionalFamily(space, _members(space, family), prefix="n")
    eta_map = {x: fam.id_of(Dirac(space, x)) for x in space.points}
    inconclusive = tuple(x for x, pid in eta_map.items() if pid is None)
    if inconclusive:
        note = "family lacks point evaluations; unit law cannot be expressed"
        report.add(Verdict.failed("family-hosts-units", inconclusive, note=note))
        return report
    report.add(Verdict.passed("family-hosts-units"))

    unit1 = Verdict.passed("unit-eta-outer")
    for pid, nu in zip(fam.ids, fam.members):
        if signature(xi(fam, Dirac(fam.upper, pid))) != signature(nu):
            unit1 = Verdict.failed("unit-eta-outer", (pid,))
            break
    report.add(unit1)

    unit2 = Verdict.passed("unit-eta-inner")
    for nu in fam.members:
        if signature(xi(fam, pushed(nu, eta_map, fam.upper))) != signature(nu):
            unit2 = Verdict.failed("unit-eta-inner", (str(nu),))
            break
    report.add(unit2)

    barc = Verdict.passed("bar-constant")
    for b in space.K.names:
        if fam.bar(space.function(dict.fromkeys(space.points, b))) != fam.upper.function(dict.fromkeys(fam.ids, b)):
            barc = Verdict.failed("bar-constant", (b,))
            break
    report.add(barc)

    barv = Verdict.passed("bar-join")
    for f, g in product(space.functions(), repeat=2):
        if space.comparable_pointwise(f, g) is not None:
            continue
        lhs = fam.bar(space.vee(f, g))
        try:
            rhs = fam.upper.vee(fam.bar(f), fam.bar(g))
        except IncomparableError as exc:
            barv = Verdict.failed("bar-join", (f, g), note=str(exc))
            break
        if lhs != rhs:
            barv = Verdict.failed("bar-join", (f, g, lhs, rhs))
            break
    report.add(barv)

    fam2 = generated_family(fam.upper, prefix="m")
    ximap = {}
    for pid2, lam in zip(fam2.ids, fam2.members):
        target = fam.id_of(xi(fam, lam))
        if target is None:
            note = "inconclusive: family not closed under flattening"
            report.add(Verdict.failed("assoc", (pid2,), note=note))
            return report
        ximap[pid2] = target

    assoc = Verdict.passed("assoc")
    fam3 = generated_family(fam2.upper, prefix="t")
    for tau in fam3.members:
        lhs = xi(fam, xi(fam2, tau))
        rhs = xi(fam, pushed(tau, ximap, fam.upper))
        if signature(lhs) != signature(rhs):
            assoc = Verdict.failed("assoc", (str(tau),))
            break
    report.add(assoc)
    return report


def flattening_assoc(space, family=None) -> Verdict:
    """The assoc record as the comparison of its two sides: for each tau
    of the third-level generated family, the flattened flattening
    xi(xi2(tau)) against the flattening of tau pushed along the
    flattening of the second-level family, each read at the base
    functions through the library's lazy `xi` and `pushforward`.  It is
    inconclusive, as in `monad_check`, where a flattening of the
    second-level family is not a member."""
    fam = FunctionalFamily(space, _members(space, family), prefix="n")
    fam2 = functionals.generated_family(fam.upper, prefix="m")
    ximap = {}
    for pid2, lam in zip(fam2.ids, fam2.members):
        ximap[pid2] = fam.id_of(functionals.xi(fam, lam))
        if ximap[pid2] is None:
            return Verdict.failed("assoc", (pid2,), note="inconclusive: family not closed under flattening")
    for tau in functionals.generated_family(fam2.upper, prefix="t").members:
        lhs = functionals.xi(fam, functionals.xi(fam2, tau))
        rhs = functionals.xi(fam, functionals.pushforward(tau, ximap, fam.upper))
        if signature(lhs) != signature(rhs):
            return Verdict.failed("assoc", (str(tau),))
    return Verdict.passed("assoc")


# -- convolution -------------------------------------------------------------------


def image(sys, g, x):
    """v_g(x) by name, decoded from the action's rows."""
    return sys.points[sys.act[sys.G.elements.index(g)][sys.points.index(x)]]


def translate(sys, g, f):
    """T_g f on names: x -> rho(g,x) * f(v_g(x)), with rho(g,x) decoded
    from the action's rows and f read by point name."""
    K, names, k = Named(sys.K), sys.K.names, sys.G.elements.index(g)
    values = {x: K.mul[(names[sys.rho[k][i]], names[f(image(sys, g, x))])] for i, x in enumerate(sys.points)}
    return sys.space.function(values)


@dataclass(frozen=True, eq=False)
class Convolution(Functional):
    """(outer * inner)(f) = outer(g -> inner(T_g f)), with each translate
    made by `translate` when it is read."""

    space: FunctionSpace
    outer: Functional
    inner: Functional
    sys: object

    def value(self, f):
        names = self.space.K.names
        h = self.space.function(
            {g: names[self.inner.value(translate(self.sys, g, f))] for g in self.sys.G.elements}
        )
        return self.outer.value(h)


def plus_kind(kind, nu, lam):
    space = nu.space
    K = Named(space.K)
    pick = (lambda a, b: K.add[(a, b)]) if kind == "add" else K.join if kind == "join" else K.meet
    value_nu, value_lam = evaluator(nu), evaluator(lam)
    values = []
    for f in space.functions():
        a, b = value_nu(f), value_lam(f)
        if kind != "add" and not K.comparable(a, b):
            raise IncomparableError(f"values {a!r}, {b!r} incomparable", a, b)
        values.append(space.K.code[pick(a, b)])
    return TableFunctional(space, tuple(values))


class ConvAlgebra:
    """Products cached by the tables of their factors."""

    def __init__(self, kind, sys, members=(), saturated=False, rounds=0):
        self.kind, self.sys, self.members = kind, sys, tuple(members)
        self.saturated, self.rounds = saturated, rounds
        self.made = {}

    def combine(self, op, nu, lam):
        key = (op, nu.table, lam.table)
        if key not in self.made:
            if op == "plus":
                made = plus_kind(self.kind, nu, lam)
            else:
                made = Convolution(self.sys.space, nu, lam, self.sys)
            self.made[key] = tabulate(made)
        return self.made[key]


def saturate(seed, sys, kind, budget=4096):
    alg = ConvAlgebra(kind, sys)
    members = {}
    for nu in seed:
        tab = tabulate(nu)
        members.setdefault(tab.table, tab)
    while len(members) <= budget:
        alg.rounds += 1
        current = list(members.values())
        for nu, lam in product(current, repeat=2):
            for op in ("plus", "star"):
                made = alg.combine(op, nu, lam)
                members.setdefault(made.table, made)
        if len(members) == len(current):
            alg.saturated = True
            break
    alg.members = tuple(members.values())
    return alg


def check_quasiring(alg) -> AxiomReport:
    report = AxiomReport()
    members = alg.members
    tables = {m.table for m in members}
    closure = {"closure-add": "plus", "closure-conv": "star"}
    failed = {}
    for nu, lam in product(members, repeat=2):
        for law, op in closure.items():
            if law not in failed and alg.combine(op, nu, lam).table not in tables:
                failed[law] = Verdict.failed(law, (str(nu), str(lam)))
    if not alg.saturated:
        failed["closure-add"] = Verdict.failed("closure-add", None, note="saturation budget exhausted")
    for law in closure:
        report.add(failed.get(law, Verdict.passed(law)))

    def star(a, b, flip):
        return alg.combine("star", b, a) if flip else alg.combine("star", a, b)

    dist = {"conv-right-dist": False, "conv-left-dist": True}
    failed = {}
    for n1, n2, lam in product(members, repeat=3):
        total = alg.combine("plus", n1, n2)
        for law, flip in dist.items():
            if law in failed:
                continue
            lhs = star(total, lam, flip)
            rhs = alg.combine("plus", star(n1, lam, flip), star(n2, lam, flip))
            if lhs.table != rhs.table:
                failed[law] = Verdict.failed(law, (str(n1), str(n2), str(lam)))
    for law in dist:
        report.add(failed.get(law, Verdict.passed(law)))

    unit = Verdict.passed("unit-neutral")
    delta = tabulate(dirac_unit(alg.sys))
    for nu in members:
        if {alg.combine("star", nu, delta).table, alg.combine("star", delta, nu).table} != {nu.table}:
            unit = Verdict.failed("unit-neutral", (str(nu),))
            break
    report.add(unit)
    return report


def check_invariant(nu, sys) -> Verdict:
    value = evaluator(nu)
    for g in sys.G.elements:
        for f in sys.space.functions():
            if value(translate(sys, g, f)) != value(f):
                return Verdict.failed("invariant", (g, f, value(translate(sys, g, f)), value(f)))
    return Verdict.passed("invariant")


def invariant_subfamily(alg) -> list:
    return [nu for nu in alg.members if check_invariant(nu, alg.sys)]


def check_ideal(H, alg) -> AxiomReport:
    sys = alg.sys
    if any(c != sys.K.one for row in sys.rho for c in row):
        raise PreconditionError("convolution needs a cocycle constant one")
    report = AxiomReport()
    H = list(H)
    for lam in H:
        if not check_invariant(lam, sys):
            raise PreconditionError("H contains a non-invariant functional")

    def member_of_H(nu):
        return bool(check_invariant(nu, sys)) and bool(check_kind(nu, alg.kind))

    add_cl = Verdict.passed("ideal-add")
    for l1, l2 in product(H, repeat=2):
        if not member_of_H(alg.combine("plus", l1, l2)):
            add_cl = Verdict.failed("ideal-add", (str(l1), str(l2)))
            break
    report.add(add_cl)
    failed = {}
    for nu, lam in product(alg.members, H):
        for law, a, b in (("ideal-left", nu, lam), ("ideal-right", lam, nu)):
            if law not in failed and not member_of_H(alg.combine("star", a, b)):
                failed[law] = Verdict.failed(law, (str(a), str(b)))
    for law in ("ideal-left", "ideal-right"):
        report.add(failed.get(law, Verdict.passed(law)))
    return report


def word_bound(sys) -> frozenset:
    """The bound on supports of invariant functionals, as the union of
    v_w(X) over every word w of |X| non-unit elements, each word applied
    point by point; X itself when G is only its unit."""
    points = frozenset(sys.points)
    moving = [g for g in sys.G.elements if g != sys.G.elements[sys.G.unit]]
    if not moving:
        return points
    bound = set()
    for word in product(moving, repeat=len(points)):
        for x in points:
            for g in word:
                x = image(sys, g, x)
            bound.add(x)
    return frozenset(bound)


def support_bounds(nu, sys) -> Verdict:
    """The support-bound record from the support of every subset and the
    bound of every word."""
    if not check_invariant(nu, sys):
        raise PreconditionError("support bounds require an invariant functional")
    rep = support_of(nu)
    if rep.degenerate:
        return Verdict.passed("support-bound", "support degenerate")
    bound = word_bound(sys)
    if rep.support <= bound:
        return Verdict.passed("support-bound")
    return Verdict.failed("support-bound", (tuple(sorted(rep.support)), tuple(sorted(bound))))


# -- supports ----------------------------------------------------------------------


def supported_on(nu, E) -> bool:
    """All functions vanishing on E are sent to zero, by a walk over every
    function, each point of E read through the function."""
    space = nu.space
    zero, value = space.K.names[space.K.zero], evaluator(nu)
    for f in space.functions():
        if all(f.K.names[f(x)] == zero for x in E) and value(f) != zero:
            return False
    return True


def support_of(nu) -> SupportReport:
    """The intersection of the supported sets, by a scan of all 2^n
    subsets of the points."""
    points = nu.space.points
    supported = [
        frozenset(subset)
        for size in range(len(points) + 1)
        for subset in combinations(points, size)
        if supported_on(nu, subset)
    ]
    if not supported:
        return SupportReport(frozenset(points), True)
    return SupportReport(frozenset(points).intersection(*supported), False)


def vanishes_agreement(nu, E) -> bool:
    """The equivalent support condition: the value depends only on the
    restriction to E."""
    funcs, value = nu.space.functions(), evaluator(nu)
    for f in funcs:
        for g in funcs:
            if all(f.K.names[f(x)] == g.K.names[g(x)] for x in E) and value(f) != value(g):
                return False
    return True


def is_support(nu, E) -> bool:
    """Minimality criterion: supported on E, and no proper subset pins
    the value down."""
    if not supported_on(nu, E):
        return False
    return not any(
        vanishes_agreement(nu, sub) for size in range(len(E)) for sub in combinations(sorted(E), size)
    )


# -- structures --------------------------------------------------------------------


def check_law(s, law: str) -> Verdict:
    """The scans of the laws over all pairs or triples, or over the
    carrier, one named table lookup per operand, in carrier order."""
    K = Named(s)
    E = K.elements
    if law in ("comm-add", "comm-mul"):
        op = K.add if law == "comm-add" else K.mul
        for a, b in product(E, repeat=2):
            if op[(a, b)] != op[(b, a)]:
                return Verdict.failed(law, (a, b, op[(a, b)], op[(b, a)]))
        return Verdict.passed(law)
    if law == "neutral":
        # zero is an add unit on every element, one a mul unit off zero (where absorb decides)
        for a in E:
            if K.add[(a, K.zero)] != a or K.add[(K.zero, a)] != a:
                return Verdict.failed(law, ("add-neutral", a))
        for a in E:
            if a != K.zero and (K.mul[(a, K.one)] != a or K.mul[(K.one, a)] != a):
                return Verdict.failed(law, ("mul-neutral", a))
        return Verdict.passed(law)
    if law == "absorb":
        for a in E:
            if K.mul[(a, K.zero)] != K.zero or K.mul[(K.zero, a)] != K.zero:
                return Verdict.failed(law, ("absorb", a))
        return Verdict.passed(law)
    if law in ("assoc-add", "assoc-mul"):
        op = K.add if law == "assoc-add" else K.mul
        for a, b, c in product(E, repeat=3):
            if op[(op[(a, b)], c)] != op[(a, op[(b, c)])]:
                return Verdict.failed(law, (a, b, c, op[(op[(a, b)], c)], op[(a, op[(b, c)])]))
        return Verdict.passed(law)
    if law in ("left-dist", "right-dist"):
        mul = K.mul if law == "left-dist" else {(y, x): v for (x, y), v in K.mul.items()}
        for a, b, c in product(E, repeat=3):
            lhs = mul[(a, K.add[(b, c)])]
            rhs = K.add[(mul[(a, b)], mul[(a, c)])]
            if lhs != rhs:
                return Verdict.failed(law, (a, b, c, lhs, rhs))
        return Verdict.passed(law)
    raise InputError(f"no oracle for law {law!r}")


# -- the shifted product -----------------------------------------------------------


def get(element, j: int, zero: str) -> str:
    """The name of the element's value at index j."""
    for k, v in element.items:
        if k == j:
            return element.names[v]
    return zero


def s_mu(op: str, y, z, scheme):
    K = Named(scheme.component)
    zero = K.zero
    table = K.add if op == "add" else K.mul
    s, r = scheme.psi[op], scheme.phi[op]
    touched = set(y.support)
    for j in scheme.window:
        if get(z, j + r, zero) != zero:
            touched.add(j)
    out = {}
    for j in sorted(touched):
        if j not in scheme.window:
            raise CapacityError(f"support index {j} outside the active window")
        if j - s not in scheme.window:
            raise CapacityError(f"shifted index psi({j}) = {j - s} escapes the window")
        zv = get(z, j + r, zero)
        if scheme.embed is not None:
            for _ in range(r):
                zv = scheme.embed[zv]
        value = table[(get(y, j, zero), zv)]
        if value != zero:
            out[j - s] = value
    return scheme.element({j: scheme.component.code[v] for j, v in out.items()})


# -- the shifted product's order and distributivity ---------------------------------


def componentwise_leq(y, z, scheme) -> bool:
    K = Named(scheme.component)
    for j in sorted(set(y.support) | set(z.support)):
        if not K.leq(get(y, j, K.zero), get(z, j, K.zero)):
            return False
    return True


def lex_compare(y, z, scheme) -> str:
    """Lexicographic comparison by the least differing index."""
    K = Named(scheme.component)
    for j in sorted(set(y.support) | set(z.support)):
        a, b = get(y, j, K.zero), get(z, j, K.zero)
        if a == b:
            continue
        if K.leq(a, b):
            return "lt"
        if K.leq(b, a):
            return "gt"
        raise IncomparableError(f"component values {a!r}, {b!r} incomparable at index {j}", j, a, b)
    return "eq"


def directed_failure(scheme, pairs=None):
    """The first of the pairs (default: every pair of the window's
    elements) with no common upper bound among the window's elements, or
    None."""
    grid = list(scheme.all_elements())
    above = {y: {w for w in grid if componentwise_leq(y, w, scheme)} for y in grid}
    for y, z in product(grid, repeat=2) if pairs is None else pairs:
        if above[y].isdisjoint(above[z]):
            return y, z
    return None


def lex_failure(scheme, pairs=None):
    """The first of the pairs (default: every pair of the window's
    elements) that the order by least differing index does not order
    strictly and totally, or None."""
    for y, z in product(list(scheme.all_elements()), repeat=2) if pairs is None else pairs:
        try:
            c1, c2 = lex_compare(y, z, scheme), lex_compare(z, y, scheme)
        except IncomparableError:
            return y, z
        if (c1 == "eq") != (y == z) or {c1, c2} not in ({"eq"}, {"lt", "gt"}):
            return y, z
    return None


def check_transfer_distributivity(scheme, side: str, triples) -> Verdict:
    """The side's distributivity over the given triples, each operation
    scanned over the window.  Triples whose evaluation escapes the window
    are skipped."""
    if scheme.psi["add"] or scheme.phi["add"]:
        raise PreconditionError("transfer requires identity shifts for add")
    if side not in ("left", "right"):
        raise InputError(f"unknown side {side!r}")
    law = f"transfer-{side}-dist"

    # right-dist (b+c)a = ba+ca reads as left-dist a(b+c) = ab+ac with
    # the operands of mul flipped
    def mul(y, z):
        return s_mu("mul", z, y, scheme) if side == "right" else s_mu("mul", y, z, scheme)

    for a, b, c in triples:
        try:
            lhs = mul(a, s_mu("add", b, c, scheme))
            rhs = s_mu("add", mul(a, b), mul(a, c), scheme)
        except CapacityError:
            continue
        if lhs != rhs:
            return Verdict.failed(law, (a, b, c, lhs, rhs))
    return Verdict.passed(law)


def nonassoc_search(scheme, budget: int) -> tuple:
    """The non-associativity search with every triple evaluated by the
    window scan `s_mu`, zero operands included, `a` outermost, over the
    first 64 elements on the window's first |window| - 2r indices, each
    made by `IndexScheme.element`: (witness, tested, diff_index), the
    witness None when no triple within the budget differs."""
    sub = scheme.window[: max(1, len(scheme.window) - 2 * scheme.phi["mul"])]
    grid = islice(product(scheme.component.elements, repeat=len(sub)), 64)
    sample = [scheme.element(dict(zip(sub, values))) for values in grid]
    zero = Named(scheme.component).zero
    tested = 0
    for a, b, c in product(sample, repeat=3):
        if tested >= budget:
            break
        tested += 1
        try:
            left = s_mu("mul", s_mu("mul", a, b, scheme), c, scheme)
            right = s_mu("mul", a, s_mu("mul", b, c, scheme), scheme)
        except CapacityError:
            continue
        if left != right:
            support = sorted(set(left.support) | set(right.support))
            diff = next(j for j in support if get(left, j, zero) != get(right, j, zero))
            return (a, b, c, left, right), tested, diff
    return None, tested, None
