"""Kind checks and kind additions of convolution, pinned by hand-verified
witnesses, the agreement of the join/meet scans of `check_kind` and
`check_idempotent`, the witnesses of the mirrored quasiring and ideal
laws on a hand-built algebra, a hand-closed saturation, the products
of an algebra being made once each and no distributive triple scanned
when every member passes its kind, a left-law witness replayed on the
translate oracle, the seed family, made from point maps on a chain,
against the exhaustive filter, the whole family of kind join or meet on
a chain closed by the theorem as `saturate` and the oracle close it
(also on Z5 over bool, past the table cap), its laws decided from their
premises as the same family scanned and the oracle decide them, also on
actions that miss a premise, with no enumeration, saturation, product or
kind scan on the conv-z4 workload, ideal scans that keep no product, an
algebra of an unknown kind or of kind add without its laws refused when
it is built, the action and cocycle laws, T_g T_h = T_gh, the unit of convolution, a part on another space or a value outside K
refused, each translate made once per action and each row of
translates against the oracle's translate on names, each right factor's
position map made once per table, the positional convolution, of
symbolic parts, of random tables and of whole algebras, against the
translate-by-translate path of tests/scan_oracles.py, and the support
bound of invariant functionals against the images of every word, with
the support reported by a stand-in so that the record can fail."""
from collections import Counter
from functools import cache, partial
from itertools import combinations, product
from pathlib import Path

import pytest
import scan_oracles
from hypothesis import given, settings, strategies as st

from ordalg import convolution
from ordalg.convolution import (
    ActionSystem,
    ConvAlgebra,
    Groupoid,
    all_kind_functionals,
    apply_T,
    check_action,
    check_ideal,
    check_kind,
    check_quasiring,
    convolve,
    dirac_unit,
    invariant_subfamily,
    kind_algebra,
    plus_kind,
    saturate,
    support_bounds,
)
from ordalg.errors import CapacityError, IncomparableError, InputError, PreconditionError
from ordalg.funcspace import FunctionSpace, KFunction
from ordalg.functionals import (
    Dirac,
    Functional,
    InfOver,
    LazyValues,
    SupOver,
    SupportReport,
    TableFunctional,
    check_idempotent,
    enumerate_functionals,
    signature,
    tabulate,
)
from ordalg.order import OrderRelation
from ordalg.report import Verdict, first_failure
from ordalg.structures import SEMIRING, FinStruct, boolean_semiring, direct_product, maxplus_chain, trivial_structure
from ordalg.suites import suite_convolution
from ordalg.workspace import Workspace, parse

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"

BOOL = boolean_semiring()
MP3 = maxplus_chain(3)
MP4 = maxplus_chain(4)
SQUARE = direct_product(boolean_semiring("a"), boolean_semiring("b"))


def table(sp, values):
    """The value table of these element names."""
    return TableFunctional(sp, tuple(sp.K.code[v] for v in values))


def names(nu):
    """The element names of a value table."""
    return tuple(nu.space.K.names[v] for v in nu.table)


def bool_square():
    """bool on two points; functions in order (0,0), (0,1), (1,0), (1,1)."""
    sp = FunctionSpace(("x1", "x2"), BOOL)
    return sp, sp.functions()


def square_point():
    """bool x bool on one point; "0,1" and "1,0" are incomparable."""
    sp = FunctionSpace(("x",), SQUARE)
    return sp, sp.functions()


def refuse(*args, **kwargs):
    """A stand-in for a scan that must not run."""
    raise AssertionError("a scan ran where a theorem decides")


class TestCheckKind:
    @pytest.mark.parametrize("kind", ["join", "meet", "add"])
    def test_dirac_passes(self, kind):
        sp, _ = bool_square()
        v = check_kind(Dirac(sp, "x1"), kind)
        assert v.holds and v.law == f"kind-{kind}" and v.witness is None

    def test_sup_passes_join_and_add(self):
        sp, _ = bool_square()
        nu = SupOver(sp, frozenset(("x1", "x2")))
        assert check_kind(nu, "join")
        assert check_kind(nu, "add")

    def test_sup_fails_meet(self):
        # wedge((0,1), (1,0)) = (0,0) has sup 0, while min(1, 1) = 1
        sp, (f0, f1, f2, f3) = bool_square()
        v = check_kind(SupOver(sp, frozenset(("x1", "x2"))), "meet")
        assert not v.holds
        assert (v.law, v.witness, v.note) == ("kind-meet", (f1, f2, "0", "1"), "")

    def test_inf_fails_join(self):
        # vee((0,1), (1,0)) = (1,1) has inf 1, while max(0, 0) = 0
        sp, (f0, f1, f2, f3) = bool_square()
        v = check_kind(InfOver(sp, frozenset(("x1", "x2"))), "join")
        assert (v.holds, v.law, v.witness) == (False, "kind-join", (f1, f2, "1", "0"))
        assert check_kind(InfOver(sp, frozenset(("x1", "x2"))), "meet")

    def test_inf_fails_add(self):
        sp, (f0, f1, f2, f3) = bool_square()
        v = check_kind(InfOver(sp, frozenset(("x1", "x2"))), "add")
        assert (v.holds, v.law, v.witness) == (False, "kind-add", (f1, f2, "1", "0"))

    @pytest.mark.parametrize("kind", ["join", "meet"])
    def test_incomparable_values(self, kind):
        # (f1, f3) is the first comparable pair with incomparable values
        sp, (f0, f1, f2, f3) = square_point()
        nu = table(sp, ("0,0", "0,1", "1,0", "1,0"))
        v = check_kind(nu, kind)
        assert not v.holds
        assert v.witness == (f1, f3, "0,1", "1,0")
        assert v.note == "values incomparable"

    def test_add_needs_commutative_associative_addition(self):
        sp = FunctionSpace(("x",), trivial_structure())
        with pytest.raises(PreconditionError):
            check_kind(Dirac(sp, "x"), "add")


class TestPlusKind:
    def test_values(self):
        sp, _ = bool_square()
        d1, d2 = Dirac(sp, "x1"), Dirac(sp, "x2")
        assert names(plus_kind("join", d1, d2)) == ("0", "1", "1", "1")
        assert names(plus_kind("meet", d1, d2)) == ("0", "0", "0", "1")
        assert names(plus_kind("add", d1, d2)) == ("0", "1", "1", "1")
        assert names(plus_kind("meet", d1, d1)) == ("0", "0", "1", "1")

    def test_values_on_a_non_chain(self):
        sp, _ = square_point()
        nu = table(sp, ("0,1", "0,1", "1,1", "0,0"))
        lam = table(sp, ("1,1", "0,0", "1,0", "0,0"))
        assert names(plus_kind("join", nu, lam)) == ("1,1", "0,1", "1,1", "0,0")
        assert names(plus_kind("meet", nu, lam)) == ("0,1", "0,0", "1,0", "0,0")

    @pytest.mark.parametrize("kind", ["join", "meet"])
    def test_incomparable_values_raise(self, kind):
        sp, _ = square_point()
        lam = table(sp, ("0,1",) * 4)
        with pytest.raises(IncomparableError) as err:
            plus_kind(kind, Dirac(sp, "x"), lam)
        assert str(err.value) == "values '1,0', '0,1' incomparable"
        assert err.value.witness == ("1,0", "0,1")


@pytest.mark.parametrize("make", [bool_square, square_point])
def test_idempotent_join_meet_agree_with_check_kind(make):
    sp, _ = make()
    for nu in enumerate_functionals(sp):
        rep = check_idempotent(nu)
        for kind in ("join", "meet"):
            mine, theirs = rep[kind], check_kind(nu, kind)
            assert (mine.holds, mine.witness, mine.note) == (
                theirs.holds,
                theirs.witness,
                theirs.note,
            )


def left_zero_action():
    """bool over the monoid {e, a, b} acting on itself by right
    multiplication: e is the unit, and a, b are left zeros (xy = x)."""
    elems = ("e", "a", "b")
    table = {(x, y): y if x == "e" else x for x in elems for y in elems}
    v = {(g, x): table[(x, g)] for g in elems for x in elems}
    rho = {(g, x): "1" for g in elems for x in elems}
    sys = ActionSystem(Groupoid("lz", elems, table, "e"), BOOL, elems, v, frozenset(BOOL.names), rho)
    assert check_action(sys)
    return sys


def test_mirrored_laws_on_an_unsaturated_algebra():
    sys = left_zero_action()
    n1, n2, n3 = (
        table(sys.space, values) for values in ("00100000", "01000100", "10001000")
    )
    alg = ConvAlgebra("join", sys, (n1, n2, n3))
    rep = check_quasiring(alg)
    assert rep["closure-add"].note == "saturation budget exhausted"
    # the join of two functionals is taken value by value, so convolving
    # it from the left always distributes
    assert rep["conv-right-dist"].holds
    assert rep["conv-left-dist"].witness == (str(n1), str(n2), str(n3))
    H = invariant_subfamily(alg)
    assert H == [n2, n3]
    ideal = check_ideal(H, alg)
    # n2 is invariant but not join-compatible, so n2 + n2 = n2 leaves H
    assert ideal["ideal-add"].witness == (str(n2), str(n2))
    assert ideal["ideal-left"].witness == (str(n3), str(n2))
    assert ideal["ideal-right"].witness == (str(n2), str(n1))


# The functions of the left-zero space, in order (e, a, b) = 000, 001, ...,
# 111.  nu is 1 where f(e) = 0 and f(a) != f(b).  With rho = 1,
# T_g f = (f(g), f(a), f(b)), so (nu * lam)(f) = nu(h) with h(e) = lam(f).
NU = "01100000"
# round 1: nu + nu = nu, and nu * nu is 1 where f(e) = 1 and f(a) != f(b)
MU = "00000110"
# round 2: nu + mu is 1 where f(a) != f(b); nu * mu = mu * nu = nu and
# mu * mu = mu
SIGMA = "01100110"
# round 3: sigma ignores f(e), so h is constant and nu * sigma = 0; round
# 4 finds nothing new, since every product with the zero table is zero
ZERO = "00000000"


def tables(members):
    return ["".join(names(m)) for m in members]


@pytest.mark.parametrize(
    "budget, rounds, saturated, members",
    [(4096, 4, True, [NU, MU, SIGMA, ZERO]), (2, 2, False, [NU, MU, SIGMA])],
)
def test_saturate_reaches_the_hand_closed_family(budget, rounds, saturated, members):
    sys = left_zero_action()
    alg = saturate([table(sys.space, NU)], sys, "join", budget=budget)
    assert (tables(alg.members), alg.rounds, alg.saturated) == (members, rounds, saturated)


@pytest.mark.parametrize("seed", ["hand-closed", "all-join"])
def test_each_product_is_made_once(monkeypatch, seed):
    sys = left_zero_action()
    if seed == "hand-closed":
        family = [table(sys.space, NU)]
    else:
        family = all_kind_functionals(sys, "join")
    made = Counter()
    for name in ("convolve", "plus_kind"):

        def record(*args, original=getattr(convolution, name), name=name):
            made[(name,) + tuple(signature(a) for a in args if isinstance(a, Functional))] += 1
            return original(*args)

        monkeypatch.setattr(convolution, name, record)
    alg = saturate(family, sys, "join")
    check_quasiring(alg)
    check_ideal(invariant_subfamily(alg), alg)
    assert made and max(made.values()) == 1
    # every sum and every product of two members is made
    assert len(made) >= 2 * len(alg.members) ** 2


def test_distributivity_reads_the_sums_only_when_every_member_passes_its_kind(monkeypatch):
    sys = z2_action(MP3)
    alg = saturate(all_kind_functionals(sys, "join"), sys, "join")
    reads = Counter()
    combine = ConvAlgebra.combine

    def counted(self, op, nu, lam):
        reads[op] += 1
        return combine(self, op, nu, lam)

    monkeypatch.setattr(ConvAlgebra, "combine", counted)
    rep = check_quasiring(alg)
    m = len(alg.members)
    assert m > 10 and all(rep.verdicts.values())
    assert all(map(alg.passes_kind, alg.members))
    # the saturated algebra is closed, so closure scans no pair, and the
    # distributive laws scan no triple; the cyclic action fixes the unit's
    # premise, so the unit reads no product either
    assert reads == {}


def test_a_wrong_sum_fails_the_left_law_at_its_first_triple():
    sys = left_zero_action()
    alg = saturate([table(sys.space, NU)], sys, "join")
    nu, mu, sigma, zero = alg.members
    # a wrong sum: nu + mu read as zero.  The right law holds by
    # construction and is not scanned.  nu fails kind-join, so the left
    # law is scanned at lam = nu; the pair (nu, mu) is the first to fail,
    # at lam = nu and at lam = sigma, and the first lam is kept
    alg._made["plus", nu, mu] = zero
    rep = check_quasiring(alg)
    assert not alg.passes_kind(nu)
    assert rep["conv-right-dist"].holds
    assert rep["conv-left-dist"].witness == (str(nu), str(mu), str(nu))


class TestTableLookup:
    def test_value_reads_the_position_of_the_function(self):
        sp, funcs = bool_square()
        nu = TableFunctional(sp, ("a", "b", "c", "d"))
        assert [nu.value(f) for f in funcs] == ["a", "b", "c", "d"]

    def test_function_outside_the_space(self):
        sp, _ = bool_square()
        nu = table(sp, ("0", "1", "1", "1"))
        with pytest.raises(InputError):
            nu.value(KFunction(("x1",), (1,), BOOL))
        with pytest.raises(InputError):
            nu.value(KFunction(("x1", "x2"), (1, 7), BOOL))

    def test_table_shorter_than_the_space(self):
        sp, funcs = bool_square()
        nu = TableFunctional(sp, ("0", "1"))
        assert nu.value(funcs[1]) == "1"
        with pytest.raises(InputError):
            nu.value(funcs[2])


def cyclic_action(n, K):
    """Z_n acting on itself by addition, with the unit cocycle."""
    elems = tuple(str(i) for i in range(n))
    table = {(a, b): str((int(a) + int(b)) % n) for a in elems for b in elems}
    v = {(g, x): table[(x, g)] for g in elems for x in elems}
    rho = {(g, x): K.names[K.one] for g in elems for x in elems}
    return ActionSystem(Groupoid(f"Z{n}", elems, table, "0"), K, elems, v, frozenset(K.names), rho)


def shuffled_chain(names):
    """max and min on the chain 0 < 1 < ... of integer names, listed in
    the carrier in the given order, so that codes do not follow the chain."""
    E = [(a, b) for a in names for b in names]
    add = {(a, b): max(a, b, key=int) for a, b in E}
    mul = {(a, b): min(a, b, key=int) for a, b in E}
    order = OrderRelation(tuple(names), ((a, b) for a, b in E if int(a) <= int(b)))
    return FinStruct(f"chain{''.join(names)}", order, add, mul, "0", max(names, key=int), frozenset(SEMIRING))


# the cyclic actions whose spaces have at most 4096 tables, and the left-zero action
SEED_CASES = {
    **{
        f"Z{n}-{K.name}": partial(cyclic_action, n, K)
        for K in (BOOL, MP3, shuffled_chain(("1", "0")), shuffled_chain(("0", "2", "1")))
        for n in (1, 2, 3)
        if len(K.elements) ** (len(K.elements) ** n) <= 4096
    },
    "left-zero": left_zero_action,
}


@pytest.mark.parametrize("kind", ["join", "meet", "add"])
@pytest.mark.parametrize("case", SEED_CASES)
def test_seed_family_equals_the_exhaustive_filter(case, kind):
    # on these chains join and meet are made from point maps, and add by the enumerator
    sys = SEED_CASES[case]()
    assert check_action(sys)
    exhaustive = [nu.table for nu in enumerate_functionals(sys.space) if check_kind(nu, kind)]
    assert [nu.table for nu in all_kind_functionals(sys, kind)] == exhaustive


def test_seed_family_of_kind_add_needs_commutative_associative_addition():
    sys = cyclic_action(1, trivial_structure())
    with pytest.raises(PreconditionError):
        all_kind_functionals(sys, "add")


def test_an_algebra_of_an_unknown_kind_is_refused():
    # when the algebra is built, and by the kind addition, which does not read it as the meet
    sys = z2_action()
    e, a = Dirac(sys.space, "e"), Dirac(sys.space, "a")
    with pytest.raises(InputError, match="unknown kind 'sum'"):
        saturate([e, a], sys, "sum")
    with pytest.raises(InputError, match="unknown kind 'sum'"):
        plus_kind("sum", e, a)


def test_an_algebra_of_kind_add_needs_commutative_associative_addition():
    sys = cyclic_action(1, trivial_structure())
    with pytest.raises(PreconditionError, match="kind add needs commutative associative addition in K"):
        ConvAlgebra("add", sys, (TableFunctional(sys.space, (0,)),))


def test_seed_family_of_an_unknown_kind_is_refused():
    with pytest.raises(InputError):
        all_kind_functionals(cyclic_action(1, BOOL), "sum")


def z2_action(K=BOOL, v=None, L=None, rho=None):
    """Z2 = {e, a} acting on itself, with the given changes to its action
    map, L and cocycle; unchanged it passes every action law."""
    elems = ("e", "a")
    table = {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "e"}
    maps = {("e", "e"): "e", ("e", "a"): "a", ("a", "e"): "a", ("a", "a"): "e"}
    cocycle = {(g, x): K.names[K.one] for g in elems for x in elems}
    return ActionSystem(
        Groupoid("Z2", elems, table, "e"),
        K,
        elems,
        {**maps, **(v or {})},
        frozenset(K.names) if L is None else frozenset(L),
        {**cocycle, **(rho or {})},
    )


class TestCheckAction:
    def test_z2_passes(self):
        v = check_action(z2_action())
        assert v.holds and v.law == "action"

    @pytest.mark.parametrize(
        "changes, witness",
        [
            # the unit swaps the points
            ({"v": {("e", "e"): "a", ("e", "a"): "e"}}, ("unit-action", "e")),
            # a sends both points to e: a then a sends a to e, but aa = e fixes it
            ({"v": {("a", "e"): "e", ("a", "a"): "e"}}, ("composition", "a", "a", "a")),
            ({"L": {"1"}}, ("L-units", frozenset({"1"}))),
            # in the max-plus chain of 4, 2 * 2 = 3
            ({"K": MP4, "L": {"0", "1", "2"}}, ("L-closed", "2", "2")),
            ({"K": MP3, "rho": {("e", "a"): "2"}}, ("cocycle-unit", "a")),
            # rho(a, e) * rho(a, a) = 2 * 2 = 2, not rho(aa, e) = rho(e, e) = 1
            ({"K": MP3, "rho": {("a", "e"): "2", ("a", "a"): "2"}}, ("cocycle", "a", "a", "e")),
        ],
        ids=["unit-action", "composition", "L-units", "L-closed", "cocycle-unit", "cocycle"],
    )
    def test_each_failing_branch(self, changes, witness):
        v = check_action(z2_action(**changes))
        assert (v.holds, v.law, v.witness) == (False, "action", witness)

    def test_a_repeated_groupoid_element_is_refused(self):
        table = {(x, y): x for x in "ea" for y in "ea"}
        with pytest.raises(InputError, match="G: repeated element in e a e"):
            Groupoid("G", ("e", "a", "e"), table, "e")

    @pytest.mark.parametrize("value", ["0", "2"])
    def test_cocycle_value_outside_L_minus_zero(self, value):
        sys = z2_action(MP3, L={"0", "1"}, rho={("a", "e"): value})
        with pytest.raises(InputError, match=r"cocycle value at \(a,e\)"):
            check_action(sys)


def skewed_left_zero_action():
    """mp3 over the left-zero monoid {e, a, b} acting on itself by right
    multiplication, with the cocycle 2 at (a, e) and 1 elsewhere: the
    cocycle rule holds because 2 * 1 = 2 and a b = a a = a."""
    elems = ("e", "a", "b")
    table = {(x, y): y if x == "e" else x for x in elems for y in elems}
    v = {(g, x): table[(x, g)] for g in elems for x in elems}
    rho = {(g, x): "2" if (g, x) == ("a", "e") else "1" for g in elems for x in elems}
    return ActionSystem(Groupoid("lz", elems, table, "e"), MP3, elems, v, frozenset(MP3.names), rho)


def test_representation_composes():
    # T_g T_h = T_gh; the monoid is not commutative, so T_a T_b = T_a
    # differs from T_b T_a = T_b
    sys = skewed_left_zero_action()
    assert check_action(sys)
    G = sys.G
    for g, h in product(range(len(G.elements)), repeat=2):
        for f in sys.space.functions():
            assert apply_T(sys, g, apply_T(sys, h, f)) == apply_T(sys, G.table[g][h], f)
    f = sys.space.function(("1", "1", "1"))
    a, b = map(G.elements.index, "ab")
    assert scan_oracles.named(apply_T(sys, a, f)) == ("2", "1", "1")
    assert scan_oracles.named(apply_T(sys, b, f)) == ("1", "1", "1")


@pytest.mark.parametrize("values", ["01101001", "10010110", "00000001"])
def test_dirac_unit_is_neutral_on_both_sides(values):
    sys = left_zero_action()
    nu = table(sys.space, values)
    delta = dirac_unit(sys)
    assert signature(convolve(nu, delta, sys)) == nu.table
    assert signature(convolve(delta, nu, sys)) == nu.table


@pytest.mark.parametrize(
    "space",
    [
        FunctionSpace(("e", "a"), MP3),
        FunctionSpace(("a", "e"), BOOL),
        FunctionSpace(("e", "a"), BOOL, "+"),
    ],
    ids=["other-K", "points-reordered", "monotone"],
)
def test_convolve_refuses_a_part_on_another_space(space):
    # a part's table would be read at the positions of the action's space
    sys = z2_action()
    nu = table(space, ("1",) * len(space.functions()))
    for parts in ((nu, dirac_unit(sys)), (dirac_unit(sys), nu)):
        with pytest.raises(InputError, match="does not live on C"):
            convolve(*parts, sys)


def test_convolve_refuses_a_table_shorter_than_the_space():
    # a product reads a table by index, so a short one is refused before it is read;
    # a sum reads a short table through its values, which refuse the first missing one
    sys = z2_action()
    short = TableFunctional(sys.space, (0, 1))
    for parts in ((short, dirac_unit(sys)), (dirac_unit(sys), short)):
        with pytest.raises(InputError, match="does not live on C"):
            convolve(*parts, sys)
        with pytest.raises(InputError, match="not in the functional's space"):
            plus_kind("join", *parts)


def test_an_inner_value_outside_K_is_refused():
    # the product is tabulated at once, so the bad value is met in convolve
    sys = z2_action()
    # code 7 names no element of bool
    lam = TableFunctional(sys.space, (0, 1, 7, 1))
    with pytest.raises(InputError, match="is not a function of"):
        convolve(dirac_unit(sys), lam, sys)


def test_each_translate_is_made_once(monkeypatch):
    calls = Counter()

    def counted(sys, g, f, original=convolution.apply_T):
        calls[(g, f)] += 1
        return original(sys, g, f)

    monkeypatch.setattr(convolution, "apply_T", counted)
    sys = cyclic_action(4, BOOL)
    ws = Workspace()
    ws.actions["Z4"], ws.kinds["Z4"] = sys, "join"
    records = suite_convolution(ws, 20000, 0)
    assert [r.verdict.holds for r in records] == [True] * 12
    assert sum(calls.values()) == len(sys.G.elements) * len(sys.space.functions()) == 64
    assert set(calls.values()) == {1}


def test_each_invariance_is_decided_once_per_algebra(monkeypatch):
    # 17 members, each decided once by the algebra, and the 3 invariant ones
    # once more by `support_bounds`, which takes no algebra
    calls = Counter()

    def counted(nu, sys, original=convolution.check_invariant):
        calls[nu.table] += 1
        return original(nu, sys)

    monkeypatch.setattr(convolution, "check_invariant", counted)
    ws = Workspace()
    ws.actions["Z4"], ws.kinds["Z4"] = cyclic_action(4, BOOL), "join"
    records = suite_convolution(ws, 20000, 0)
    supports = [r for r in records if r.verdict.law == "support-bound"]
    assert (len(calls), len(supports), sum(calls.values())) == (17, 3, 20)
    assert Counter(calls.values()) == {1: 14, 2: 3}


def skewed_seed(sys):
    """Two Diracs and a sup; on the skewed action the algebra they
    generate saturates at 11 members."""
    sp = sys.space
    return [Dirac(sp, "e"), Dirac(sp, "a"), SupOver(sp, frozenset(("a", "b")))]


def every_kind_functional(kind):
    return lambda sys: all_kind_functionals(sys, kind)


# (action, seed family, kind, saturation budget)
ORACLE_CASES = {
    "demo-Z2-bool": (z2_action, every_kind_functional("join"), "join", 4096),
    "demo-Z2-bool-meet": (z2_action, every_kind_functional("meet"), "meet", 4096),
    "Z4-bool": (lambda: cyclic_action(4, BOOL), every_kind_functional("join"), "join", 4096),
    "left-zero": (left_zero_action, every_kind_functional("join"), "join", 4096),
    "left-zero-add": (left_zero_action, every_kind_functional("add"), "add", 4096),
    # saturates at NU, MU, SIGMA, ZERO; the first three fail kind-join, and
    # conv-left-dist fails at (NU, MU, NU)
    "left-zero-hand-closed": (left_zero_action, lambda sys: [table(sys.space, NU)], "join", 4096),
    "skewed-left-zero": (skewed_left_zero_action, skewed_seed, "join", 4096),
    "skewed-left-zero-unsaturated": (skewed_left_zero_action, skewed_seed, "join", 8),
    "Z2-mp3": (lambda: z2_action(MP3), every_kind_functional("join"), "join", 4096),
}


def outcome(check, *args):
    """A check's report as (law, verdict) pairs in report order, or the
    precondition it refuses."""
    try:
        result = check(*args)
    except PreconditionError as exc:
        return str(exc)
    return list(result.verdicts.items())


def records_of(alg):
    """Every record the convolution suite reads from an algebra, in its order."""
    H = invariant_subfamily(alg)
    return (
        outcome(check_quasiring, alg),
        outcome(check_ideal, H, alg),
        tables(H),
        [support_bounds(nu, alg.sys) for nu in H],
    )


@cache
def oracle_records(oracle):
    """The same records by the oracle, made once per oracle algebra."""
    H = scan_oracles.invariant_subfamily(oracle)
    return (
        outcome(scan_oracles.check_quasiring, oracle),
        outcome(scan_oracles.check_ideal, H, oracle),
        tables(H),
        [scan_oracles.support_bounds(nu, oracle.sys) for nu in H],
    )


def assert_agrees_with_the_oracle(alg, oracle):
    members = alg.members
    assert tables(members) == tables(oracle.members)
    for nu, lam in product(members, repeat=2):
        for op in ("plus", "star"):
            made, want = alg.combine(op, nu, lam), oracle.combine(op, nu, lam)
            assert made.table == want.table, (op, nu, lam)
    assert records_of(alg) == oracle_records(oracle)


def nilpotent_action():
    """bool over the monoid {e, s, z} with s s = z and z absorbing,
    acting on x1, x2, x3 by the shift s: x1 -> x2 -> x3 -> x3 and the
    constant z: every point -> x3.  The images of the non-unit maps
    shrink X to {x2, x3} and then to {x3}."""
    elems, points = ("e", "s", "z"), ("x1", "x2", "x3")
    table = {(g, h): h if g == "e" else g if h == "e" else "z" for g in elems for h in elems}
    shift = {"x1": "x2", "x2": "x3", "x3": "x3"}
    v = {(g, x): {"e": x, "s": shift[x], "z": "x3"}[g] for g in elems for x in points}
    rho = {(g, x): "1" for g in elems for x in points}
    sys = ActionSystem(Groupoid("nil", elems, table, "e"), BOOL, points, v, frozenset(BOOL.names), rho)
    assert check_action(sys)
    return sys


def reported(support):
    """A stand-in for `support_of` that reports this non-degenerate support."""
    return lambda nu: SupportReport(frozenset(support), False)


def test_a_support_outside_the_bound_fails_the_record(monkeypatch):
    """On the left-zero action a and b send every point into {a, b}, so
    the bound is {a, b}: a support reported as {e, a, b} fails with the
    witness (support, bound), and one reported as {a, b} passes."""
    sys = left_zero_action()
    nu = SupOver(sys.space, frozenset(("a", "b")))
    assert support_bounds(nu, sys) == Verdict.passed("support-bound")
    assert scan_oracles.word_bound(sys) == {"a", "b"}
    monkeypatch.setattr(convolution, "support_of", reported({"e", "a", "b"}))
    assert support_bounds(nu, sys) == Verdict.failed("support-bound", (("a", "b", "e"), ("a", "b")))
    monkeypatch.setattr(convolution, "support_of", reported({"a", "b"}))
    assert support_bounds(nu, sys) == Verdict.passed("support-bound")


def test_the_bound_of_a_group_action_is_every_point(monkeypatch):
    sys = cyclic_action(4, BOOL)
    assert scan_oracles.word_bound(sys) == set(sys.points)
    monkeypatch.setattr(convolution, "support_of", reported(sys.points))
    assert support_bounds(SupOver(sys.space, frozenset(sys.points)), sys) == Verdict.passed("support-bound")


def test_the_bound_shrinks_until_it_is_fixed(monkeypatch):
    sys = nilpotent_action()
    nu = Dirac(sys.space, "x3")
    assert scan_oracles.word_bound(sys) == {"x3"}
    assert support_bounds(nu, sys) == Verdict.passed("support-bound")
    with pytest.raises(PreconditionError):
        support_bounds(Dirac(sys.space, "x2"), sys)
    # x2 is still in the bound after one step, but not at the fixed point
    monkeypatch.setattr(convolution, "support_of", reported({"x2"}))
    assert support_bounds(nu, sys) == Verdict.failed("support-bound", (("x2",), ("x3",)))


BOUND_CASES = {
    **{case: make_sys for case, (make_sys, _, _, _) in ORACLE_CASES.items()},
    "Z1-bool": lambda: cyclic_action(1, BOOL),
    "nilpotent": nilpotent_action,
}


@pytest.mark.parametrize("case", BOUND_CASES)
def test_the_bound_agrees_with_the_word_oracle_on_every_support(case, monkeypatch):
    """The zero functional is invariant on every action; each subset of
    the points, reported as its support, passes exactly when the word
    oracle's bound contains it, and fails with the same witness."""
    sys = BOUND_CASES[case]()
    zero = TableFunctional(sys.space, (sys.K.zero,) * len(sys.space.functions()))
    for size in range(len(sys.points) + 1):
        for support in combinations(sys.points, size):
            for module in (convolution, scan_oracles):
                monkeypatch.setattr(module, "support_of", reported(support))
            assert support_bounds(zero, sys) == scan_oracles.support_bounds(zero, sys), support


@cache
def oracle_of(case):
    """The oracle's saturation of an ORACLE_CASES entry, made once for every test that reads it."""
    make_sys, make_seed, kind, budget = ORACLE_CASES[case]
    sys = make_sys()
    return scan_oracles.saturate(make_seed(sys), sys, kind, budget=budget)


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_saturated_algebra_agrees_with_the_translate_oracle(case):
    make_sys, make_seed, kind, budget = ORACLE_CASES[case]
    sys = make_sys()
    assert check_action(sys)
    alg = saturate(make_seed(sys), sys, kind, budget=budget)
    oracle = oracle_of(case)
    assert (alg.rounds, alg.saturated) == (oracle.rounds, oracle.saturated)
    assert_agrees_with_the_oracle(alg, oracle)


# the ORACLE_CASES on a chain whose seed is the whole family of a kind join or meet
THEOREM_CASES = ["demo-Z2-bool", "demo-Z2-bool-meet", "Z4-bool", "left-zero", "Z2-mp3"]


@pytest.mark.parametrize("case", THEOREM_CASES)
def test_the_whole_kind_family_is_closed_by_the_theorem_as_the_scans_close_it(case, monkeypatch):
    make_sys, make_seed, kind, budget = ORACLE_CASES[case]
    sys = make_sys()
    seed = make_seed(sys)
    assert sys.space.over_a_chain and kind != "add"
    scanned = saturate(seed, sys, kind, budget=budget)
    assert (scanned.rounds, scanned.saturated, tables(scanned.members)) == (1, True, tables(seed))
    monkeypatch.setattr(convolution, "saturate", refuse)
    alg = kind_algebra(sys, kind, budget)
    assert (alg.rounds, alg.saturated, alg._made, tables(alg.members)) == (0, True, {}, tables(seed))
    assert records_of(alg) == records_of(scanned)
    assert_agrees_with_the_oracle(alg, oracle_of(case))


def left_multiplication_action():
    """bool over the left-zero monoid {e, a, b} acting on itself by left
    multiplication, v_g(x) = gx.  It fails `check_action`: v_b(v_a(e)) = b,
    while v_ab(e) = v_a(e) = a."""
    elems = ("e", "a", "b")
    table = {(x, y): y if x == "e" else x for x in elems for y in elems}
    rho = {(g, x): "1" for g in elems for x in elems}
    sys = ActionSystem(Groupoid("lz", elems, table, "e"), BOOL, elems, table, frozenset(BOOL.names), rho)
    assert not check_action(sys)
    return sys


# (action, kind, the laws scanned on its whole kind family): on the
# cyclic and right-regular actions every law is decided; Z2 fixing every
# point misses the premises of the unit and of ideal-right, and the left
# multiplication fails `check_action`, the premise of both ideal products
DECISION_CASES = {
    **{case: (ORACLE_CASES[case][0], ORACLE_CASES[case][2], set()) for case in THEOREM_CASES},
    "Z5-bool": (lambda: cyclic_action(5, BOOL), "join", set()),
    "Z2-fixing": (lambda: z2_action(v={("a", "e"): "e", ("a", "a"): "a"}), "join", {"unit-neutral", "ideal-right"}),
    "left-multiplication": (left_multiplication_action, "join", {"ideal-left", "ideal-right"}),
}


@pytest.mark.parametrize("case", DECISION_CASES)
def test_each_decision_agrees_with_its_scan_and_the_oracle(case, monkeypatch):
    make_sys, kind, scanned = DECISION_CASES[case]
    sys = make_sys()
    alg, unmarked = kind_algebra(sys, kind, 4096), kind_algebra(sys, kind, 4096)
    unmarked.by_theorem = False
    assert alg.by_theorem
    laws = []
    monkeypatch.setattr(convolution, "first_failure", lambda law, leaves: laws.append(law) or first_failure(law, leaves))
    if not scanned:
        for name in ("convolve", "plus_kind", "check_kind"):
            monkeypatch.setattr(convolution, name, refuse)
    decided = records_of(alg)
    assert set(laws) == scanned
    monkeypatch.undo()
    # the oracle scans closure whatever it is told, so it is told the family is saturated
    oracle = oracle_of(case) if case in THEOREM_CASES else scan_oracles.ConvAlgebra(kind, sys, alg.members, True)
    assert tables(oracle.members) == tables(alg.members)
    assert decided == records_of(unmarked) == oracle_records(oracle)


def test_a_family_over_the_budget_is_refused_before_any_table_is_made(monkeypatch):
    # the theorem closes the family, so no scan of its pairs stands in for the refusal
    for name in ("_point_map_tables", "saturate"):
        monkeypatch.setattr(convolution, name, refuse)
    with pytest.raises(CapacityError, match="^17 join functionals exceed the budget 16$"):
        kind_algebra(cyclic_action(4, BOOL), "join", 16)


@pytest.mark.parametrize(
    "make_sys, kind", [(left_zero_action, "add"), (skewed_left_zero_action, "join")], ids=["add", "skewed-cocycle"]
)
def test_off_the_theorem_the_whole_kind_family_is_saturated_by_scan(monkeypatch, make_sys, kind):
    sys, calls = make_sys(), []
    monkeypatch.setattr(convolution, "saturate", lambda seed, *args: calls.append((tables(seed), args)) or "scanned")
    assert kind_algebra(sys, kind, 7) == "scanned"
    assert calls == [(tables(all_kind_functionals(sys, kind)), (sys, kind, 7))]


def test_an_ideal_check_past_the_pair_cap_is_refused_before_any_product(monkeypatch):
    # an algebra that `saturate` closed scans its ideal laws, so the cap applies
    sys = cyclic_action(4, BOOL)
    alg = saturate(all_kind_functionals(sys, "join"), sys, "join")
    H = invariant_subfamily(alg)
    monkeypatch.setattr(convolution, "PAIR_CAP", 17 * 3 - 1)
    for name in ("convolve", "plus_kind"):
        monkeypatch.setattr(convolution, name, refuse)
    with pytest.raises(CapacityError, match="^17 members by 3 invariant ones exceed the cap 50 pairs$"):
        check_ideal(H, alg)
    # under the cap the scan runs, and reads only products `saturate` made
    monkeypatch.setattr(convolution, "PAIR_CAP", 17 * 3)
    assert check_ideal(H, alg).verdicts


def test_an_ideal_scan_keeps_none_of_its_products():
    # an algebra not closed by the theorem scans every ideal law; its
    # products, and their verdicts, are made for the scan and not kept
    sys = left_zero_action()
    alg = ConvAlgebra("join", sys, tuple(table(sys.space, v) for v in ("00100000", "01000100", "10001000")))
    H = invariant_subfamily(alg)
    assert [v.holds for v in check_ideal(H, alg).verdicts.values()] == [False] * 3
    assert (alg._made, len(alg._tables)) == ({}, 3)
    assert max(alg.invariant.cache_info().currsize, alg.passes_kind.cache_info().currsize) <= 3


def test_z5_over_bool_is_closed_by_the_theorem_as_saturate_closes_it(monkeypatch):
    # 2**32 value tables, which the enumerator refuses, and 33 join functionals
    sys = cyclic_action(5, BOOL)
    seed = all_kind_functionals(sys, "join")
    assert len(seed) == 33 and all(scan_oracles.check_kind(nu, "join") for nu in seed)
    scanned = saturate(seed, sys, "join")
    # one round makes every sum and product of the 33, 2178 in all, and finds nothing new
    assert (scanned.rounds, scanned.saturated, len(scanned._made)) == (1, True, 2 * 33**2)
    assert tables(scanned.members) == tables(seed)
    monkeypatch.setattr(convolution, "saturate", refuse)
    assert records_of(kind_algebra(sys, "join", 4096)) == records_of(scanned)


def test_the_conv_z4_workload_makes_no_enumeration_and_no_saturation(monkeypatch):
    monkeypatch.syspath_prepend(str(GOLDEN.parent))
    import workloads

    # nor any product or kind scan: every law of the algebra is decided by its theorem
    for name in ("enumerate_functionals", "saturate", "convolve", "plus_kind", "check_kind"):
        monkeypatch.setattr(convolution, name, refuse)
    records = suite_convolution(parse(workloads.conv_z4(0)), 20000, 0)
    printed = "".join(r.as_record_line() + "\n" for r in records)
    assert printed.encode("utf-8") == (GOLDEN / "conv-z4.records").read_bytes()


def test_a_left_law_witness_fails_on_the_translate_oracle():
    """The first conv-left-dist witness (n1, n2, lam) of the hand-closed
    case, evaluated without the checker: lam * (n1 + n2) and
    lam * n1 + lam * n2 differ at some function."""
    make_sys, make_seed, kind, budget = ORACLE_CASES["left-zero-hand-closed"]
    sys = make_sys()
    alg = saturate(make_seed(sys), sys, kind, budget=budget)
    verdict = check_quasiring(alg)["conv-left-dist"]
    by_name = {str(nu): nu for nu in alg.members}
    n1, n2, lam = (by_name[w] for w in verdict.witness)
    assert tables([n1, n2, lam]) == [NU, MU, NU]
    sp = sys.space
    lhs = scan_oracles.Convolution(sp, lam, scan_oracles.plus_kind(kind, n1, n2), sys)
    rhs = scan_oracles.plus_kind(
        kind, scan_oracles.Convolution(sp, lam, n1, sys), scan_oracles.Convolution(sp, lam, n2, sys)
    )
    assert any(lhs.value(f) != rhs.value(f) for f in sp.functions())


def test_unsaturated_algebra_agrees_with_the_translate_oracle():
    sys = left_zero_action()
    members = [table(sys.space, v) for v in ("00100000", "01000100", "10001000")]
    alg = ConvAlgebra("join", sys, tuple(members))
    assert_agrees_with_the_oracle(alg, scan_oracles.ConvAlgebra("join", sys, members))


@pytest.mark.parametrize("case", ORACLE_CASES)
def test_convolve_agrees_with_the_translate_oracle_on_symbolic_parts(case):
    # each Dirac, the sup over all points and a seed table, in both orders
    make_sys, make_seed, _, _ = ORACLE_CASES[case]
    sys = make_sys()
    sp = sys.space
    parts = [Dirac(sp, x) for x in sp.points]
    parts += [SupOver(sp, frozenset(sp.points)), tabulate(make_seed(sys)[-1])]
    for nu, lam in product(parts, repeat=2):
        made = convolve(nu, lam, sys)
        assert isinstance(made, TableFunctional)
        assert made.table == signature(scan_oracles.Convolution(sp, nu, lam, sys)), (str(nu), str(lam))


@pytest.mark.parametrize(
    "make_sys",
    [lambda: z2_action(MP3), left_zero_action, lambda: cyclic_action(4, BOOL)],
    ids=["Z2-mp3", "left-zero", "Z4-bool"],
)
def test_each_position_map_is_made_once_per_right_table(make_sys, monkeypatch):
    """Across saturate, check_quasiring and check_ideal on the all-join
    seed, the position map of a right factor is made once per distinct
    table; a product builds no function, reads no `position` and fills
    no `LazyValues`."""
    made, read, inside, built = Counter(), set(), [], Counter()
    positions_along = ActionSystem._positions_along

    def counted_map(self, lam_table):
        made[lam_table] += 1
        return positions_along(self, lam_table)

    monkeypatch.setattr(ActionSystem, "_positions_along", counted_map)
    sys = make_sys()
    sys.moved  # the translation table is made once per action, before any product
    for cls, name in ((KFunction, "__init__"), (FunctionSpace, "position"), (LazyValues, "__init__")):

        def counted(*args, original=getattr(cls, name), name=name):
            built[name] += bool(inside)
            return original(*args)

        monkeypatch.setattr(cls, name, counted)
    original_convolve = convolution.convolve

    def watched(nu, lam, sys):
        read.add(lam.table)
        inside.append(lam)
        try:
            return original_convolve(nu, lam, sys)
        finally:
            inside.pop()

    monkeypatch.setattr(convolution, "convolve", watched)
    alg = saturate(all_kind_functionals(sys, "join"), sys, "join")
    check_quasiring(alg)
    check_ideal(invariant_subfamily(alg), alg)
    assert set(made) == read and set(made.values()) == {1}
    assert len(made) <= len({nu.table for nu in alg.members}) + 1  # the members, and the unit Dirac
    assert sum(built.values()) == 0, built


# the five actions of ORACLE_CASES, each once
ACTIONS = {make_sys: case for case, (make_sys, *_) in reversed(ORACLE_CASES.items())}


@pytest.mark.parametrize("make_sys", ACTIONS, ids=ACTIONS.values())
def test_each_translation_row_agrees_with_the_translate_oracle(make_sys):
    """Row k of `moved` holds the positions of T_g f, g = G.elements[k], made
    on names; the skewed action is the one whose cocycle is not constant one."""
    sys = make_sys()
    funcs, position = sys.space.functions(), sys.space.position
    for g, row in zip(sys.G.elements, sys.moved, strict=True):
        assert row == tuple(position(scan_oracles.translate(sys, g, f)) for f in funcs), g


@cache
def kept(make_sys):
    """One action per maker, kept across hypothesis examples."""
    return make_sys()


@pytest.mark.parametrize("make_sys", ACTIONS, ids=ACTIONS.values())
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_convolve_agrees_with_the_translate_oracle_on_random_tables(make_sys, data):
    """Random value tables in K; lam is also given as a second object with
    an equal table, which reads the position map made for the first.  The
    action is kept across examples, so its maps build up."""
    sys = kept(make_sys)
    n = len(sys.space.functions())
    values = st.lists(st.sampled_from(sys.K.elements), min_size=n, max_size=n)
    nu, lam = (TableFunctional(sys.space, tuple(data.draw(values))) for _ in range(2))
    twin = TableFunctional(sys.space, tuple(list(lam.table)))
    assert twin.table is not lam.table
    want = signature(scan_oracles.Convolution(sys.space, nu, lam, sys))
    assert convolve(nu, lam, sys).table == convolve(nu, twin, sys).table == want
