"""Scan definitions that the library replaced by lookups, kept as oracles.

Each function here is the body the library had before it read
precomputed sets and tables: bounds and extrema by scanning the pairs of
an order, the order axioms by element loops, the pointwise order of a
function space point by point, the cubic law scans over all triples, and
the shifted product by a scan of the whole index window with a linear
lookup of element values, the laws of functionals as one loop per
checker over the functions of the space, and the monad of functionals
extensionally, with families deduplicated and sorted by their value
tables over the upper spaces and the flattening tabulated there.  Tests
compare the library against them verdict by verdict and witness by
witness.
"""
from __future__ import annotations

import random
from itertools import combinations, product

from ordalg import (
    AxiomReport,
    CapacityError,
    Dirac,
    FunctionSpace,
    IncomparableError,
    InputError,
    PreconditionError,
    SupOver,
    TableFunctional,
    Verdict,
    enumerate_idempotent,
    signature,
)


# -- order ---------------------------------------------------------------------


def bounds(order, subset, up: bool) -> list:
    pairs = order.pairs
    if up:
        return [z for z in order.carrier if all((x, z) in pairs for x in subset)]
    return [z for z in order.carrier if all((z, x) in pairs for x in subset)]


def extremum(subset, order, up: bool):
    subset = list(subset)
    if not subset:
        raise InputError(f"{'sup' if up else 'inf'} of an empty subset")
    if not set(subset) <= set(order.carrier):
        raise InputError("subset not contained in carrier")
    pairs = order.pairs
    found = bounds(order, subset, up)
    for z in found:
        if all(((z, w) if up else (w, z)) in pairs for w in found):
            return z
    return None


def check_order_axioms(order, mode: str) -> Verdict:
    law = f"order-{mode}"
    for x in order.carrier:  # D2
        if not order.leq(x, x):
            return Verdict.failed(law, ("D2", x))
    for x, y in order.pairs:  # D1
        for z in order.carrier:
            if order.leq(y, z) and not order.leq(x, z):
                return Verdict.failed(law, ("D1", x, y, z))
    if mode == "directed":
        for x in order.carrier:  # D3
            for y in order.carrier:
                if not bounds(order, (x, y), True):
                    return Verdict.failed(law, ("D3", x, y))
        return Verdict.passed(law)
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
    if mode == "linear":
        return Verdict.passed(law)
    n = len(order.carrier)
    if n > 16:
        return Verdict.passed(law, note="WO via linearity (carrier > 16)")
    for size in range(1, n + 1):
        for subset in combinations(order.carrier, size):
            if not any(all(order.leq(m, x) for x in subset) for m in subset):
                return Verdict.failed(law, ("WO", subset))
    return Verdict.passed(law)


# -- function spaces -------------------------------------------------------------


def pointwise_leq(space, f, g) -> bool:
    return all(space.K.leq(a, b) for a, b in zip(f.values, g.values))


# -- functionals -------------------------------------------------------------------


def evaluator(nu):
    """nu as a function of functions, each evaluated once."""
    values = {}

    def value(f):
        if f not in values:
            values[f] = nu.value(f)
        return values[f]

    return value


def grid(first, second, budget, seed):
    if budget is None or len(first) * len(second) <= budget:
        return product(first, second), False
    rng = random.Random(seed)
    return [(rng.choice(first), rng.choice(second)) for _ in range(budget)], True


def normalized(space, value) -> Verdict:
    for c in space.K.elements:
        v = value(space.constant(c))
        if v != c:
            return Verdict.failed("normalized", (c, v))
    return Verdict.passed("normalized")


def check_join_meet(space, value, pairs, laws: dict) -> dict:
    """Guarded pointwise max ("join") and min ("meet") on pairs of
    functions; `laws` maps each kind to the law name of its verdict."""
    order = space.K.order
    ops = {"join": (space.vee, order.join), "meet": (space.wedge, order.meet)}
    todo = [(law, *ops[kind]) for kind, law in laws.items()]
    failed = {}
    for f, g in pairs:
        if space.comparable_pointwise(f, g) is not None:
            continue
        a, b = value(f), value(g)
        comparable = order.comparable(a, b)
        for law, combine, pick in todo:
            if law in failed:
                continue
            if not comparable:
                failed[law] = Verdict.failed(law, (f, g, a, b), note="values incomparable")
                continue
            lhs = value(combine(f, g))
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
    table = space.K.add if op == "add" else space.K.mul
    shift = space.odot if op == "add" else space.scale
    sides = list(laws.items())
    todo = len(set(laws.values()))
    failed = {}
    for c, f in cells:
        nf = value(f)
        for side, law in sides:
            if law in failed:
                continue
            lhs = value(shift(c, f, side))
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
    cells, shifts_sampled = grid(space.K.elements, funcs, budget, seed)
    pairs, pairs_sampled = grid(funcs, funcs, budget, seed)
    shifts = constant_law(space, value, cells, "add", {"left": "left-shift", "right": "right-shift"})
    join_meet = check_join_meet(space, value, pairs, {"join": "join", "meet": "meet"})
    for verdict in (*shifts.values(), *join_meet.values()):
        report.add(verdict)
    report.sampled = shifts_sampled or pairs_sampled
    return report


def weak_laws(nu) -> dict:
    """Weak additivity (h outer, c inner, the right side first) and
    normalization, as `check_weak_properties` reports them."""
    value = evaluator(nu)
    space = nu.space
    cells = ((c, h) for h in space.functions() for c in space.K.elements)
    laws = {"right": "weakly-additive", "left": "weakly-additive"}
    wa = constant_law(space, value, cells, "add", laws, witness=lambda w: (w[1], w[0], w[2], w[3]))
    return {**wa, "normalized": normalized(space, value)}


def check_homogeneous(nu) -> dict:
    space = nu.space
    cells = product(space.K.elements, space.functions())
    laws = {"left": "left-homogeneous", "right": "right-homogeneous"}
    return constant_law(space, evaluator(nu), cells, "mul", laws, witness=lambda w: w[:2])


def check_kind(nu, kind: str) -> Verdict:
    space = nu.space
    K = space.K
    law = f"kind-{kind}"
    if kind != "add":
        pairs = product(space.functions(), repeat=2)
        return check_join_meet(space, evaluator(nu), pairs, {kind: law})[law]
    if not {"comm-add", "assoc-add"} <= K.flags:
        raise PreconditionError("kind add needs commutative associative addition in K")
    for f, g in product(space.functions(), repeat=2):
        lhs = nu.value(space.add(f, g))
        rhs = K.addv(nu.value(f), nu.value(g))
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
        return self.upper.function({pid: m.value(g) for pid, m in zip(self.ids, self.members)})


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
            lam.value(inner.function({p: t(point_map[p]) for p in inner.points}))
            for t in upper.functions()
        ),
    )


def monad_check(space, family=None) -> AxiomReport:
    report = AxiomReport()
    members = (
        tuple(family)
        if family is not None
        else tuple(enumerate_idempotent(space, ("normalized", "left-shift", "right-shift", "join")))
    )
    fam = FunctionalFamily(space, members, prefix="n")
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
    for b in space.K.elements:
        if fam.bar(space.constant(b)) != fam.upper.constant(b):
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
    fam3 = generated_family(fam2.upper, prefix="t")
    ximap = {}
    for pid2, lam in zip(fam2.ids, fam2.members):
        target = fam.id_of(xi(fam, lam))
        if target is None:
            note = "inconclusive: family not closed under flattening"
            report.add(Verdict.failed("assoc", (pid2,), note=note))
            return report
        ximap[pid2] = target

    assoc = Verdict.passed("assoc")
    for tau in fam3.members:
        lhs = xi(fam, xi(fam2, tau))
        rhs = xi(fam, pushed(tau, ximap, fam.upper))
        if signature(lhs) != signature(rhs):
            assoc = Verdict.failed("assoc", (str(tau),))
            break
    report.add(assoc)
    return report


# -- structures --------------------------------------------------------------------


def check_law(s, law: str) -> Verdict:
    """The triple scans of the cubic laws, one table lookup per operand."""
    E = s.elements
    if law in ("assoc-add", "assoc-mul"):
        op = s.add if law == "assoc-add" else s.mul
        for a, b, c in product(E, repeat=3):
            if op[(op[(a, b)], c)] != op[(a, op[(b, c)])]:
                return Verdict.failed(law, (a, b, c, op[(op[(a, b)], c)], op[(a, op[(b, c)])]))
        return Verdict.passed(law)
    if law in ("left-dist", "right-dist"):
        mul = s.mul if law == "left-dist" else {(y, x): v for (x, y), v in s.mul.items()}
        for a, b, c in product(E, repeat=3):
            lhs = mul[(a, s.addv(b, c))]
            rhs = s.addv(mul[(a, b)], mul[(a, c)])
            if lhs != rhs:
                return Verdict.failed(law, (a, b, c, lhs, rhs))
        return Verdict.passed(law)
    raise InputError(f"no oracle for law {law!r}")


# -- the shifted product -----------------------------------------------------------


def get(element, j: int, zero: str) -> str:
    for k, v in element.items:
        if k == j:
            return v
    return zero


def s_mu(op: str, y, z, scheme):
    K = scheme.component
    zero = K.zero
    table = K.add if op == "add" else K.mul
    touched = set(y.support)
    for j in scheme.window:
        if get(z, scheme.phi_at(op, j), zero) != zero:
            touched.add(j)
    out = {}
    for j in sorted(touched):
        if j not in scheme.window:
            raise CapacityError(f"support index {j} outside the active window")
        target = scheme.psi_at(op, j)
        if target not in scheme.window:
            raise CapacityError(f"shifted index psi({j}) = {target} escapes the window")
        pj = scheme.phi_at(op, j)
        zv = get(z, pj, zero)
        value = table[(get(y, j, zero), scheme.embed_down(pj, j, zv))]
        if value != zero:
            out[target] = value
    return scheme.element(out)
