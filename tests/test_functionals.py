from collections import Counter
from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations, product
from pathlib import Path

import pytest
import scan_oracles
from hypothesis import given, settings, strategies as st

from ordalg import functionals, structures
from ordalg.convolution import check_kind
from ordalg.errors import CapacityError, InputError, PreconditionError
from ordalg.funcspace import FunctionSpace, KFunction
from ordalg.functionals import (
    IDEMPOTENT_AXIOMS,
    TABLE_CAP,
    Dirac,
    Functional,
    InfOver,
    LazyValues,
    SupOver,
    SupportReport,
    TableFunctional,
    check_idempotent,
    check_weak_properties,
    enumerate_functionals,
    enumerate_idempotent,
    law_instances,
    law_verdict,
    monad_check,
    pushforward,
    signature,
    support_of,
    supported_on,
    tabulate,
    weighted_combo,
)
from ordalg.order import OrderRelation
from ordalg.structures import (
    FinStruct,
    boolean_semiring,
    check_law,
    direct_product,
    maxplus_chain,
    right_dist_only,
    trivial_structure,
)
from ordalg.suites import suite_idempotent
from ordalg.workspace import parse

BOOL = boolean_semiring()
MP3 = maxplus_chain(3)
MP4 = maxplus_chain(4)


def bool_space(points=("x1", "x2")):
    return FunctionSpace(points, BOOL)


def mp3_space(points=("x1", "x2", "x3")):
    return FunctionSpace(points, MP3)


def homogeneity(nu):
    """The verdicts of both homogeneity laws, as `law_verdict` decides them."""
    values = LazyValues(nu)
    return {law: law_verdict(values, law) for law in ("left-homogeneous", "right-homogeneous")}


class TestEval:
    def test_dirac_evaluates(self):
        sp = mp3_space()
        f = sp.function({"x1": "1", "x2": "2", "x3": "0"})
        assert Dirac(sp, "x2").value(f) == 2

    def test_sup_over_subset(self):
        sp = mp3_space()
        f = sp.function({"x1": "2", "x2": "1", "x3": "0"})
        assert SupOver(sp, frozenset({"x1", "x3"})).value(f) == 2

    def test_sup_over_constants_normalizes(self):
        sp = mp3_space()
        nu = SupOver(sp, frozenset(sp.points))
        for c in MP3.elements:
            assert nu.value(sp.constant(c)) == c

    def test_empty_subset_rejected(self):
        with pytest.raises(InputError):
            SupOver(mp3_space(), frozenset())


class TestIdempotentAxioms:
    def test_dirac_passes_everything(self):
        for sp in (bool_space(), mp3_space(("x1", "x2"))):
            for x in sp.points:
                assert all(check_idempotent(Dirac(sp, x)).verdicts.values())

    def test_sup_functional_passes_all_but_meet(self):
        sp = mp3_space()
        for size in (1, 2, 3):
            for subset in combinations(sp.points, size):
                rep = check_idempotent(SupOver(sp, frozenset(subset)))
                for law in ("normalized", "left-shift", "right-shift", "join"):
                    assert rep[law].holds, (subset, law)
                if size == 1:
                    assert rep["meet"].holds

    def test_meet_defect_witness_is_genuine(self):
        # the pointwise min of two crossing functions drops below the min
        # of the sup values; the checker must catch exactly that
        sp = mp3_space()
        nu = SupOver(sp, frozenset({"x1", "x2"}))
        rep = check_idempotent(nu)
        assert not rep["meet"].holds
        f, g, lhs, rhs = rep["meet"].witness
        assert MP3.names[nu.value(sp.wedge(f, g))] == lhs and lhs != rhs

    def test_constant_zero_fails_normalization(self):
        sp = bool_space()
        lam = TableFunctional(sp, tuple(0 for _ in sp.functions()))
        rep = check_idempotent(lam)
        assert not rep["normalized"].holds
        c, got = rep["normalized"].witness
        assert c == "1" and got == "0"


class TestWeakProperties:
    def test_sup_functional_weakly_additive_and_order_preserving(self):
        sp = mp3_space()
        rep = check_weak_properties(SupOver(sp, frozenset({"x1", "x3"})))
        assert rep["weakly-additive"].holds
        assert rep["order-preserving"].holds
        assert rep["non-expanding"].holds
        # normalization is decided once, by check_idempotent
        laws = ["weakly-additive", "order-preserving", "non-expanding", "weak-implies-nonexpanding"]
        assert list(rep.verdicts) == laws

    def test_dirac_non_expanding(self):
        sp = mp3_space(("x1", "x2"))
        assert check_weak_properties(Dirac(sp, "x1"))["non-expanding"].holds

    def test_squaring_breaks_weak_additivity(self):
        # f(x)*f(x) on the 4-chain: order preserving, but adding a
        # constant before squaring overshoots
        sp = FunctionSpace(("x1", "x2"), MP4)
        table = tuple(MP4.mul[f("x1")][f("x1")] for f in sp.functions())
        lam = TableFunctional(sp, table)
        rep = check_weak_properties(lam)
        assert rep["order-preserving"].holds
        assert not rep["weakly-additive"].holds

    def test_implication_consistency_over_full_enumeration(self):
        sp = bool_space()
        for nu in enumerate_functionals(sp):
            rep = check_weak_properties(nu)
            assert rep["weak-implies-nonexpanding"].holds


def test_weak_properties_obey_the_budget():
    sp = FunctionSpace(tuple(f"x{i}" for i in range(6)), MP3)
    nu = Counting(SupOver(sp, frozenset(("x1", "x4"))))
    rep = check_weak_properties(nu, budget=20000, seed=0)
    assert rep.sampled
    assert all(v.holds for v in rep.verdicts.values())
    # the sampled pairs are read from the one value cache: each function is evaluated at most once
    assert max(nu.calls.values()) == 1


class TestHomogeneity:
    def test_dirac_homogeneous(self):
        sp = mp3_space(("x1", "x2"))
        rep = homogeneity(Dirac(sp, "x2"))
        assert rep["left-homogeneous"].holds and rep["right-homogeneous"].holds

    def test_sup_functional_homogeneous_on_chain(self):
        sp = mp3_space(("x1", "x2"))
        rep = homogeneity(SupOver(sp, frozenset(sp.points)))
        assert rep["left-homogeneous"].holds and rep["right-homogeneous"].holds


class TestWeightedCombo:
    def test_unit_coefficient_is_identity(self):
        sp = bool_space()
        nu = SupOver(sp, frozenset(sp.points))
        combo = weighted_combo("left", ["1"], [nu])
        assert signature(combo) == signature(nu)

    def test_boolean_dirac_combo_is_idempotent(self):
        sp = bool_space()
        combo = weighted_combo("left", ["1", "1"], [Dirac(sp, "x1"), Dirac(sp, "x2")])
        rep = check_idempotent(combo)
        for law in ("normalized", "left-shift", "right-shift", "join"):
            assert rep[law].holds

    def test_zero_coefficient_rejected(self):
        sp = bool_space()
        with pytest.raises(PreconditionError):
            weighted_combo("left", ["0", "1"], [Dirac(sp, "x1"), Dirac(sp, "x2")])

    def test_sum_must_be_one(self):
        sp = FunctionSpace(("x1", "x2"), MP3)
        with pytest.raises(PreconditionError):
            weighted_combo("left", ["2"], [Dirac(sp, "x1")])

    def test_distributive_coefficients_needed(self):
        rd = right_dist_only()
        sp = FunctionSpace(("x1",), rd)
        with pytest.raises(PreconditionError):
            weighted_combo("left", ["1"], [Dirac(sp, "x1")])

    def test_homogeneous_parts_give_homogeneous_combo(self):
        sp = bool_space()
        combo = weighted_combo("right", ["1", "1"], [Dirac(sp, "x1"), Dirac(sp, "x2")])
        rep = homogeneity(combo)
        assert rep["left-homogeneous"].holds and rep["right-homogeneous"].holds


JOIN_AXIOMS = ("normalized", "left-shift", "right-shift", "join")


class TestPushforward:
    @pytest.mark.parametrize("K", [BOOL, MP3], ids=["bool", "mp3"])
    def test_identity_pushforward_is_identity(self, K):
        sp = FunctionSpace(("x1", "x2"), K)
        for nu in enumerate_idempotent(sp, JOIN_AXIOMS):
            pushed = pushforward(nu, {"x1": "x1", "x2": "x2"}, sp)
            assert signature(pushed) == signature(nu)

    @pytest.mark.parametrize("K", [BOOL, MP3], ids=["bool", "mp3"])
    def test_constant_map_reads_the_point(self, K):
        sp = FunctionSpace(("x1", "x2"), K)
        nu = SupOver(sp, frozenset(sp.points))
        target = FunctionSpace(("y",), K)
        pushed = pushforward(nu, {"x1": "y", "x2": "y"}, target)
        assert pushed.space is target
        for g in target.functions():
            assert pushed.value(g) == g("y")

    @pytest.mark.parametrize("K", [BOOL, MP3], ids=["bool", "mp3"])
    def test_composition_functor_law(self, K):
        spx = FunctionSpace(("x1", "x2"), K)
        points = spx.points
        maps = [dict(zip(points, images)) for images in product(points, repeat=2)]
        family = enumerate_idempotent(spx, JOIN_AXIOMS)
        for f in maps:
            for s in maps:
                fs = {x: f[s[x]] for x in points}
                for nu in family:
                    once = pushforward(nu, fs, spx)
                    stepwise = pushforward(pushforward(nu, s, spx), f, spx)
                    assert signature(once) == signature(stepwise)

    @pytest.mark.parametrize(
        "point_map, K",
        [
            ({"x1": "y"}, BOOL),
            ({"x1": "y", "x2": "y", "x3": "y"}, BOOL),
            ({"x1": "y", "x2": "z"}, BOOL),
            ({"x1": "y", "x2": "y"}, MP3),
        ],
        ids=["domain-not-the-points", "domain-beyond-the-points", "image-outside-the-target", "target-over-another-K"],
    )
    def test_refusals_are_input_errors(self, point_map, K):
        with pytest.raises(InputError):
            pushforward(Dirac(bool_space(), "x1"), point_map, FunctionSpace(("y",), K))

    def test_a_function_of_another_space_is_refused(self):
        # {y: 2} on C(y;mp3) has the target's points but not its K; 2 is no code of bool
        pushed = pushforward(Dirac(bool_space(), "x1"), {"x1": "y", "x2": "y"}, FunctionSpace(("y",), BOOL))
        with pytest.raises(InputError, match=r"is not a function of C\(y;bool\)"):
            pushed.value(FunctionSpace(("y",), MP3).function({"y": "2"}))

    def test_str_names_the_construction(self):
        sp = bool_space()
        target = FunctionSpace(("y",), BOOL)
        pushed = pushforward(SupOver(sp, frozenset(sp.points)), {"x1": "y", "x2": "y"}, target)
        assert str(pushed) == "pushforward of sup_over {x1, x2}"
        assert str(pushforward(pushed, {"y": "y"}, target)) == "pushforward of pushforward of sup_over {x1, x2}"

    def test_flattening_prints_its_kind_and_refuses_a_foreign_space(self):
        family = functionals.generated_family(bool_space())
        lam = Dirac(family.upper, family.ids[-1])
        assert str(functionals.xi(family, lam)) == f"flattening of {lam}"
        with pytest.raises(InputError):
            functionals.xi(family, Dirac(bool_space(), "x1"))

    def test_monad_check_pushes_with_the_public_pushforward(self, monkeypatch):
        domains = []

        def spy(lam, point_map, target):
            domains.append(lam.space.points)
            return pushforward(lam, point_map, target)

        monkeypatch.setattr(functionals, "pushforward", spy)
        sp = bool_space()
        # the default family, given, so that the scan runs
        assert all(monad_check(sp, enumerate_idempotent(sp, AXIOM_SETS[1])).verdicts.values())
        # only unit-eta-inner pushes, and only base functionals; assoc follows from closure
        assert {d[0][0] for d in domains} == {"x"}

    @pytest.mark.parametrize("K", [BOOL, MP3], ids=["bool", "mp3"])
    def test_pushforward_preserves_passing_axioms(self, K):
        sp = FunctionSpace(("x1", "x2"), K)
        fmap = {"x1": "x2", "x2": "x2"}
        for nu in [Dirac(sp, "x1"), SupOver(sp, frozenset(sp.points))]:
            before = check_idempotent(nu)
            pushed = pushforward(nu, fmap, sp)
            after = check_idempotent(pushed)
            for law, verdict in before.verdicts.items():
                if verdict.holds:
                    assert after[law].holds, law

    @pytest.mark.parametrize("K", [BOOL, MP3], ids=["bool", "mp3"])
    def test_monomorphic_on_injective_maps(self, K):
        spx = FunctionSpace(("x1", "x2"), K)
        spy = FunctionSpace(("x1", "x2", "x3"), K)
        inject = {"x1": "x1", "x2": "x2"}
        family = enumerate_idempotent(spx, JOIN_AXIOMS)
        for n1 in family:
            for n2 in family:
                if signature(n1) == signature(n2):
                    continue
                p1 = pushforward(n1, inject, spy)
                p2 = pushforward(n2, inject, spy)
                assert signature(p1) != signature(p2)

    @pytest.mark.parametrize("K", [BOOL, MP3], ids=["bool", "mp3"])
    def test_a_dirac_goes_to_the_dirac_at_the_image(self, K):
        # naturality of the unit: pushing delta_x along f gives delta_f(x)
        spx = FunctionSpace(("x1", "x2"), K)
        spy = FunctionSpace(("y1", "y2", "y3"), K)
        for images in product(spy.points, repeat=2):
            fmap = dict(zip(spx.points, images))
            for x in spx.points:
                pushed = pushforward(Dirac(spx, x), fmap, spy)
                assert signature(pushed) == signature(Dirac(spy, fmap[x]))

    @pytest.mark.parametrize("K", [BOOL, MP3], ids=["bool", "mp3"])
    def test_a_sup_over_goes_to_the_sup_over_the_image(self, K):
        spx = FunctionSpace(("x1", "x2", "x3"), K)
        spy = FunctionSpace(("y1", "y2"), K)
        for images in product(spy.points, repeat=3):
            fmap = dict(zip(spx.points, images))
            for size in (1, 2, 3):
                for E in combinations(spx.points, size):
                    pushed = pushforward(SupOver(spx, frozenset(E)), fmap, spy)
                    image = frozenset(fmap[x] for x in E)
                    assert signature(pushed) == signature(SupOver(spy, image))

    def test_evaluation_is_lazy_and_reads_the_inner_once(self):
        sp = bool_space()
        inner = Counting(SupOver(sp, frozenset(sp.points)))
        target = FunctionSpace(("y1", "y2", "y3"), BOOL)
        pushed = pushforward(inner, {"x1": "y1", "x2": "y3"}, target)
        assert not inner.calls
        for t in target.functions():
            assert pushed.value(t) == BOOL.add[t("y1")][t("y3")]
        # each target function is read through one composite t o f
        assert sum(inner.calls.values()) == len(target.functions())
        assert set(inner.calls) == set(sp.functions())


MAKERS = pytest.mark.parametrize(
    "make",
    [
        lambda sp: TableFunctional(sp, (0,) * len(sp.functions())),
        lambda sp: Dirac(sp, "x1"),
        lambda sp: SupOver(sp, frozenset(sp.points)),
        lambda sp: InfOver(sp, frozenset(sp.points)),
    ],
    ids=["table", "dirac", "sup", "inf"],
)


@MAKERS
def test_a_function_into_another_K_is_refused(make):
    """At the same points, bool's f = (1, 1) has the codes of mp3's
    (1, 1), position 4 of the mp3 space."""
    f = bool_space().function({"x1": "1", "x2": "1"})
    with pytest.raises(InputError, match=r"\{x1: 1, x2: 1\} is not a function of C\(x1,x2;maxplus3\)"):
        make(FunctionSpace(("x1", "x2"), MP3)).value(f)


@MAKERS
def test_a_function_on_other_points_is_refused(make):
    """f = (1, 0, 1) on (x1, x2, x3) has a value at x1 and at x2, but it is
    no function of the space on (x1, x2): every kind of functional says so."""
    f = bool_space(("x1", "x2", "x3")).function(["1", "0", "1"])
    with pytest.raises(InputError, match=r"\{x1: 1, x2: 0, x3: 1\} is not a function of C\(x1,x2;bool\)"):
        make(bool_space()).value(f)


class TestSupports:
    def test_dirac_support(self):
        sp = mp3_space()
        rep = support_of(Dirac(sp, "x2"))
        assert rep.support == frozenset({"x2"})
        assert not rep.degenerate

    def test_sup_over_support_with_minimality(self):
        sp = mp3_space()
        E = frozenset({"x1", "x3"})
        nu = SupOver(sp, E)
        rep = support_of(nu)
        assert rep.support == E
        assert scan_oracles.is_support(nu, E)
        assert not scan_oracles.is_support(nu, frozenset({"x1"}))

    def test_zero_functional_supported_everywhere(self):
        sp = bool_space()
        zero = TableFunctional(sp, tuple(0 for _ in sp.functions()))
        rep = support_of(zero)
        assert rep.support == frozenset()
        assert supported_on(zero, frozenset())

    def test_degenerate_support_flagged(self):
        sp = bool_space()
        one = TableFunctional(sp, tuple(1 for _ in sp.functions()))
        rep = support_of(one)
        assert rep.degenerate

    @pytest.mark.parametrize("K", [BOOL, MP3], ids=["bool", "mp3"])
    def test_n_plus_one_point_sets_decide_the_support(self, K, monkeypatch):
        scanned = []

        def counted(nu, E):
            scanned.append(frozenset(E))
            return supported_on(nu, E)

        monkeypatch.setattr(functionals, "supported_on", counted)
        sp = FunctionSpace(("x1", "x2", "x3", "x4"), K)
        top = K.elements[-1]
        for nu, support in (
            (Dirac(sp, "x2"), {"x2"}),
            (SupOver(sp, frozenset({"x1", "x3"})), {"x1", "x3"}),
            (InfOver(sp, frozenset(sp.points)), set()),
        ):
            scanned.clear()
            assert support_of(nu) == SupportReport(frozenset(support), False)
            assert len(scanned) <= len(sp.points) + 1
        scanned.clear()
        assert support_of(TableFunctional(sp, tuple(top for _ in sp.functions()))).degenerate
        assert scanned == [frozenset(sp.points)]

    def test_exact_on_nine_points(self):
        sp = bool_space(tuple(f"x{i}" for i in range(1, 10)))
        spike = sp.function(["1"] + ["0"] * 8)
        cases = (
            (Dirac(sp, "x5"), {"x5"}),
            (SupOver(sp, frozenset({"x2", "x7"})), {"x2", "x7"}),
            # x1 is in the support only through the one function e_x1 of
            # the 512, which a sample of the functions can miss
            (TableFunctional(sp, tuple(1 if f == spike else 0 for f in sp.functions())), {"x1"}),
        )
        for nu, support in cases:
            assert support_of(nu) == SupportReport(frozenset(support), False)

    def test_agreement_equivalence_on_join_family(self):
        # supported-on and restriction-agreement coincide on the
        # normalized join-compatible family
        for pts in (("x1", "x2"), ("x1", "x2", "x3")):
            sp = bool_space(pts)
            family = enumerate_idempotent(
                sp, ("normalized", "left-shift", "right-shift", "join")
            )
            assert family
            for nu in family:
                for size in range(len(sp.points) + 1):
                    for subset in combinations(sp.points, size):
                        assert supported_on(nu, subset) == scan_oracles.vanishes_agreement(nu, subset)

    def test_intersection_of_supports_on_join_family(self):
        for pts in (("x1", "x2"), ("x1", "x2", "x3")):
            sp = bool_space(pts)
            for nu in enumerate_idempotent(
                sp, ("normalized", "left-shift", "right-shift", "join")
            ):
                sets = [
                    frozenset(s)
                    for size in range(len(sp.points) + 1)
                    for s in combinations(sp.points, size)
                    if supported_on(nu, s)
                ]
                for E in sets:
                    for F in sets:
                        assert supported_on(nu, E & F)

    def test_meet_like_functional_breaks_both_support_properties(self):
        # the pointwise-and functional is weakly additive and order
        # preserving yet is supported on each singleton without being
        # supported on their empty intersection, and its value is not
        # determined by the restriction to a singleton; the properties
        # above genuinely need the join rule
        sp = bool_space()
        land = TableFunctional(sp, tuple(BOOL.mul[f("x1")][f("x2")] for f in sp.functions()))
        weak = check_weak_properties(land)
        assert weak["weakly-additive"].holds and weak["order-preserving"].holds
        assert supported_on(land, {"x1"}) and supported_on(land, {"x2"})
        assert not supported_on(land, frozenset())
        assert not scan_oracles.vanishes_agreement(land, {"x1"})


class TestSupportImageLaw:
    @pytest.mark.parametrize("K", [BOOL, MP3], ids=["bool", "mp3"])
    def test_pushforward_support_is_image_of_support(self, K):
        sp = FunctionSpace(("x1", "x2"), K)
        points = sp.points
        family = [Dirac(sp, x) for x in points]
        family += [SupOver(sp, frozenset(s)) for size in (1, 2) for s in combinations(points, size)]
        for images in product(points, repeat=2):
            fmap = dict(zip(points, images))
            for nu in family:
                pushed = pushforward(nu, fmap, sp)
                lhs = support_of(pushed).support
                rhs = frozenset(fmap[x] for x in support_of(nu).support)
                assert lhs == rhs


class TestMonad:
    def test_monad_laws_on_boolean_square(self):
        rep = monad_check(bool_space())
        assert all(rep.verdicts.values())

    def test_monad_laws_on_chain(self):
        rep = monad_check(FunctionSpace(("x1", "x2"), MP3))
        assert all(rep.verdicts.values())

    def test_family_without_diracs_is_inconclusive(self):
        sp = bool_space()
        rep = monad_check(sp, family=[SupOver(sp, frozenset(sp.points))])
        assert not rep["family-hosts-units"].holds


def skew_structure():
    """The chain 0 < 1 < 2 whose addition keeps its right argument above
    zero, so a constant added on the left and on the right differ."""
    elems = ("0", "1", "2")
    add = {(a, b): a if b == "0" else b for a in elems for b in elems}
    mul = {(a, b): "0" if "0" in (a, b) else max(a, b) for a in elems for b in elems}
    return FinStruct("skew", OrderRelation.chain(elems), add, mul, "0", "1")


CONSTANT_AND_ORDER_LAWS = {
    "left-shift": check_idempotent,
    "right-shift": check_idempotent,
    "weakly-additive": check_weak_properties,
    "order-preserving": check_weak_properties,
    "non-expanding": check_weak_properties,
    "left-homogeneous": homogeneity,
    "right-homogeneous": homogeneity,
}


def plain(witness):
    """A witness with each function replaced by the names of its values."""
    return tuple(scan_oracles.named(w) if isinstance(w, KFunction) else w for w in witness)


class TestPinnedWitnesses:
    """The first failing value table, in enumeration order, of each law
    that is scanned cell by cell or pair by pair, and the witness of its
    first failing instance."""

    @pytest.mark.parametrize(
        "law, index, witness",
        [
            ("left-shift", 0, ("1", ("0", "0"), "0", "1")),
            ("right-shift", 0, ("1", ("0", "0"), "0", "1")),
            ("weakly-additive", 0, (("0", "0"), "1", "0", "1")),
            ("order-preserving", 2, (("1", "0"), ("1", "1"), "1", "0")),
            ("non-expanding", 2, (("1", "0"), ("1", "1"), "0", "right")),
            ("left-homogeneous", 8, ("0", ("0", "0"))),
            ("right-homogeneous", 8, ("0", ("0", "0"))),
        ],
    )
    def test_bool_on_two_points(self, law, index, witness):
        assert self.first_failure(bool_space(), law) == (index, witness)

    @pytest.mark.parametrize(
        "law, index, witness",
        [
            ("left-shift", 0, ("1", ("0",), "0", "1")),
            ("right-shift", 0, ("1", ("0",), "0", "1")),
            ("weakly-additive", 0, (("0",), "1", "0", "1")),
            ("order-preserving", 4, (("2",), ("3",), "1", "0")),
            ("non-expanding", 4, (("2",), ("3",), "0", "right")),
            ("left-homogeneous", 1, ("2", ("2",))),
            ("right-homogeneous", 1, ("2", ("2",))),
        ],
    )
    def test_mp4_on_one_point(self, law, index, witness):
        assert self.first_failure(FunctionSpace(("x",), MP4), law) == (index, witness)

    @pytest.mark.parametrize(
        "law, index, witness",
        [
            ("order-preserving", 9, (("1", "0", "0"), ("1", "0", "1"), "1", "0")),
            ("non-expanding", 9, (("1", "0", "0"), ("1", "0", "1"), "0", "right")),
        ],
    )
    def test_normalized_bool_on_three_points(self, law, index, witness):
        sp = bool_space(("x1", "x2", "x3"))
        assert self.first_failure(sp, law, normalized=True) == (index, witness)

    def test_sides_of_a_skew_addition_fail_apart(self):
        # table 83 of the skew chain on two points is normalized; adding 1
        # on the left of (0, 2) gives (1, 2), which it sends to 0, while
        # right shifts all hold.  Weak additivity checks the right side of
        # each cell first: at h = (0, 1), c = 2 only the left side fails.
        sp = FunctionSpace(("x1", "x2"), skew_structure())
        nu = list(enumerate_functionals(sp))[83]
        assert nu.table == (0, 0, 0, 0, 1, 0, 0, 0, 2)
        idem = check_idempotent(nu)
        assert idem["normalized"].holds and idem["right-shift"].holds
        assert plain(idem["left-shift"].witness) == ("1", ("0", "2"), "0", "1")
        weak = check_weak_properties(nu)
        assert plain(weak["weakly-additive"].witness) == (("0", "1"), "2", "0", "2")

    def test_homogeneity_sides_fail_at_their_own_cells(self):
        # right_dist_only multiplies a*b = b above one.  The table sends
        # 3 to 2 and every other value to 0.  At b = 2, f = 3 only the
        # right side fails: f*2 = 2 goes to 0, not to 2*2 = 2.  The left
        # side first fails at b = 3, f = 1: 3*1 = 3 goes to 2, not to 3*0.
        sp = FunctionSpace(("x",), right_dist_only())
        nu = list(enumerate_functionals(sp))[2]
        assert nu.table == (0, 0, 0, 2)
        rep = homogeneity(nu)
        assert plain(rep["left-homogeneous"].witness) == ("3", ("1",))
        assert plain(rep["right-homogeneous"].witness) == ("2", ("3",))

    @staticmethod
    def first_failure(space, law, normalized=False):
        check = CONSTANT_AND_ORDER_LAWS[law]
        for i, nu in enumerate(enumerate_functionals(space)):
            if normalized and not check_idempotent(nu)["normalized"].holds:
                continue
            verdict = check(nu)[law]
            if not verdict.holds:
                return i, plain(verdict.witness)
        return None


# Every space of at most 4096 tables over these structures on 1-3 points;
# the skew chain is the one whose left and right shifts differ.
ORACLE_STRUCTURES = [
    BOOL,
    maxplus_chain(2),
    MP3,
    MP4,
    right_dist_only(),
    trivial_structure(),
    direct_product(boolean_semiring("a"), boolean_semiring("b")),
    skew_structure(),
]
ORACLE_SPACES = [
    FunctionSpace(("x1", "x2", "x3")[:n], K)
    for K in ORACLE_STRUCTURES
    for n in (1, 2, 3)
    if len(K.elements) ** (len(K.elements) ** n) <= 4096
]
AXIOM_SETS = [
    IDEMPOTENT_AXIOMS,
    ("normalized", "left-shift", "right-shift", "join"),
    *((law,) for law in IDEMPOTENT_AXIOMS),
]


class TestShiftOutsideTheSpace:
    """On a non-decreasing space over the skew chain, 2 + (0, 1) = (2, 1)
    leaves the space.  A symbolic functional is evaluated there; a value
    table has no value there.  Reporting such a cell as outside the space
    instead is still open."""

    def space(self):
        return FunctionSpace(("x1", "x2"), skew_structure(), variant="+")

    def test_a_symbolic_functional_is_evaluated_outside(self):
        sp = self.space()
        nu = SupOver(sp, frozenset(sp.points))
        idem = check_idempotent(nu)
        assert not idem.sampled
        assert [law for law, v in idem.verdicts.items() if not v.holds] == ["left-shift"]
        assert plain(idem["left-shift"].witness) == ("2", ("0", "1"), "2", "1")
        weak = check_weak_properties(nu)
        assert [law for law, v in weak.verdicts.items() if not v.holds] == ["weakly-additive"]
        assert plain(weak["weakly-additive"].witness) == (("0", "1"), "2", "2", "1")

    def test_a_table_has_no_value_outside(self):
        sp = self.space()
        with pytest.raises(InputError, match=r"\{x1: 2, x2: 1\} is not a function of"):
            check_idempotent(tabulate(Dirac(sp, "x1")))

    def test_the_order_laws_of_every_table_compare_a_shift_outside(self):
        # the order laws read no value outside the space, so a table has
        # them; with a shift outside, non-expansion is scanned, not decided
        sp = self.space()
        for nu in enumerate_functionals(sp):
            want = scan_oracles.weak_order_laws(nu)[0]
            assert {law: law_verdict(LazyValues(nu), law) for law in want} == want


class TestPrunedEnumeration:
    @pytest.mark.parametrize("space", ORACLE_SPACES, ids=lambda sp: sp.name)
    def test_pruned_equals_the_exhaustive_filter(self, space):
        reports = [(nu.table, scan_oracles.check_idempotent(nu)) for nu in enumerate_functionals(space)]
        for axioms in AXIOM_SETS:
            exhaustive = [table for table, rep in reports if all(rep[a].holds for a in axioms)]
            pruned = [nu.table for nu in enumerate_idempotent(space, axioms)]
            assert pruned == exhaustive, axioms

    @pytest.mark.parametrize(
        "space", [*ORACLE_SPACES, TestShiftOutsideTheSpace().space()], ids=lambda sp: sp.name + (sp.variant or "")
    )
    def test_pruned_on_the_order_laws_equals_the_scan_oracle(self, space):
        wants = [(nu.table, scan_oracles.weak_order_laws(nu)[0]) for nu in enumerate_functionals(space)]
        for laws in (("order-preserving",), ("non-expanding",), ("order-preserving", "non-expanding")):
            exhaustive = [table for table, want in wants if all(want[law].holds for law in laws)]
            pruned = [nu.table for nu in enumerate_functionals(space, law_instances(space, laws))]
            assert pruned == exhaustive, laws

    def test_bool_on_one_point_keeps_the_identity(self):
        assert [nu.table for nu in enumerate_idempotent(bool_space(("x",)))] == [(0, 1)]

    def test_capacity_is_refused_before_any_table(self, monkeypatch):
        def build(*args):
            raise AssertionError("a table was built")

        monkeypatch.setattr(functionals, "TableFunctional", build)
        sp = mp3_space()
        total = 3**27
        assert total > TABLE_CAP
        with pytest.raises(CapacityError) as err:
            enumerate_idempotent(sp)
        assert str(err.value) == f"{total} functionals exceed the cap {TABLE_CAP}"

    def test_unknown_law_is_refused(self):
        with pytest.raises(InputError):
            enumerate_idempotent(bool_space(("x",)), ("normalised",))


@dataclass(frozen=True, eq=False)
class Counting(Functional):
    """Another functional's values, counting the evaluations per function."""

    inner: Functional
    calls: Counter = field(default_factory=Counter)

    @property
    def space(self):
        return self.inner.space

    def value(self, f):
        self.calls[f] += 1
        return self.inner.value(f)


def demo_functionals():
    text = (Path(__file__).resolve().parent.parent / "docs" / "demo.workspace").read_text()
    return parse(text).functionals


def mp3_functionals():
    sp = FunctionSpace(("a", "b", "c", "d"), MP3)
    s2 = SupOver(sp, frozenset("ac"))
    i2 = InfOver(sp, frozenset("bd"))
    return {
        "d0": Dirac(sp, "b"),
        "s3": SupOver(sp, frozenset("bcd")),
        "cl": weighted_combo("left", ("1", "1"), (s2, Dirac(sp, "d"))),
        "cr": weighted_combo("right", ("1", "1"), (i2, Dirac(sp, "a"))),
    }


CHECKS = {"idempotent": check_idempotent, "weak": check_weak_properties}


class TestEvaluatedOnce:
    @pytest.mark.parametrize("check", sorted(CHECKS))
    @pytest.mark.parametrize("name", sorted(mp3_functionals()))
    def test_each_function_is_evaluated_at_most_once(self, check, name):
        # both checkers read the functional's one value cache, however often they run
        nu = Counting(mp3_functionals()[name])
        first = CHECKS[check](nu)
        assert nu.calls and max(nu.calls.values()) == 1
        assert CHECKS[check](nu) == first
        for other in CHECKS.values():
            other(nu)
            other(nu, budget=40, seed=3)
        assert max(nu.calls.values()) == 1

    @pytest.mark.parametrize("check", sorted(CHECKS))
    @pytest.mark.parametrize(
        "name, nu",
        [*sorted(demo_functionals().items()), *sorted(mp3_functionals().items())],
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_symbolic_and_tabulated_reports_agree(self, check, name, nu):
        table = tabulate(nu)
        assert CHECKS[check](nu) == CHECKS[check](table)
        assert CHECKS[check](nu, budget=40, seed=3) == CHECKS[check](table, budget=40, seed=3)

    def test_an_evaluation_error_surfaces(self):
        sp = FunctionSpace(("x1", "x2"), MP3)
        bad = sp.function({"x1": "2", "x2": "1"})

        class Failing(Dirac):
            def value(self, f):
                if f == bad:
                    raise CapacityError(f"no value at {f}")
                return super().value(f)

        for check in CHECKS.values():
            with pytest.raises(CapacityError, match="no value at"):
                check(Failing(sp, "x1"))


def picked(monkeypatch) -> Counter:
    """The (i, j, k) that `FunctionSpace.join_meet_at` is asked for from now on, counted."""
    asked, join_meet_at = Counter(), FunctionSpace.join_meet_at

    def counted(self, i, j, k):
        asked[i, j, k] += 1
        return join_meet_at(self, i, j, k)

    monkeypatch.setattr(FunctionSpace, "join_meet_at", counted)
    return asked


def compared(monkeypatch) -> Counter:
    """The pairs (f, g) that `FunctionSpace.leq` is asked to compare from now on, counted."""
    pairs, leq = Counter(), FunctionSpace.leq

    def counted(self, f, g):
        pairs[f, g] += 1
        return leq(self, f, g)

    monkeypatch.setattr(FunctionSpace, "leq", counted)
    return pairs


class TestSharedRelations:
    """The lower neighbours, the shift maps and the instances of a grid,
    with the vee and wedge of the pairs its join and meet laws read, are
    decided once per space, for what scans read, and shared by every
    functional on it: a grid's instances are compiled once, lazily, only
    as far as some scan has read them; the pointwise order is compared
    once per pair a grid's order laws read."""

    def test_sampled_grids_store_only_the_pairs_they_read(self, monkeypatch):
        sp = FunctionSpace(tuple(f"x{i}" for i in range(6)), MP3)
        nu = SupOver(sp, frozenset(("x1", "x4")))
        funcs = sp.functions()
        n = len(funcs)
        cells = functionals._grid(range(n), range(n), 20000, 0)[0]
        pairs = set(cells)
        assert len(pairs) < 20000 < n * n
        reads, asked = compared(monkeypatch), picked(monkeypatch)

        idem = check_idempotent(nu, budget=20000, seed=0)
        assert idem.sampled
        assert all(idem[law].holds for law in ("normalized", "left-shift", "right-shift", "join"))
        assert plain(idem["meet"].witness) == (
            ("1", "2", "0", "1", "0", "0"),
            ("1", "0", "2", "1", "1", "1"),
            "0",
            "1",
        )
        assert not reads
        # the join instances are compiled at every sampled cell, and the
        # meet instances only up to the cell of the witness
        w = cells.index(tuple(map(sp.position, idem["meet"].witness[:2])))
        assert w + 1 < len(cells)
        assert asked == Counter((i, j, 0) for i, j in cells) + Counter((i, j, 1) for i, j in cells[: w + 1])

        weak = check_weak_properties(nu, budget=20000, seed=0)
        assert weak.sampled and all(v.holds for v in weak.verdicts.values())
        # every verdict holds, so order preservation reads the pair (f, h) of
        # each cell, and non-expansion f with each distinct constant shift
        # of h: the pointwise order is compared once for each pair read
        want = Counter((funcs[i], funcs[j]) for i, j in cells)
        for i, j in cells:
            shifted = {sp.shift_map("add", c, side)[1][j] for c, side in product(MP3.elements, ("right", "left"))}
            want.update((funcs[i], funcs[g]) for g in shifted)
        assert reads == want
        # the instances of the grid are compiled once, for every functional on
        # the space: a Dirac passes, so its scan runs the meet compile on to the end
        assert check_weak_properties(Dirac(sp, "x2"), budget=20000, seed=0) == weak
        passed = check_idempotent(Dirac(sp, "x2"), budget=20000, seed=0)
        assert passed.sampled and all(passed.verdicts.values())
        assert check_idempotent(nu, budget=20000, seed=0) == idem
        assert reads == want and asked == Counter((i, j, k) for i, j in cells for k in (0, 1))

    def test_exhaustive_grids_fill_the_tables_once_per_space(self, monkeypatch):
        # bool x bool is no chain, so its join and meet pairs are scanned
        sp = FunctionSpace(("x1", "x2", "x3"), direct_product(boolean_semiring("a"), boolean_semiring("b")))
        n = len(sp.functions())
        asked = picked(monkeypatch)

        def sizes():
            instances = {key: id(made) for key, made in sp._instances.items()}
            return instances, {key: id(made) for key, made in sp._shifts.items()}, len(sp._lower)

        for check in CHECKS.values():
            check(Dirac(sp, "x1"))
        first = sizes()
        assert {"join", "meet"} <= first[0].keys() and len(first[1]) == 2 * len(sp.K.elements) and first[2] == n
        assert asked == Counter((i, j, k) for i in range(n) for j in range(n) for k in (0, 1))
        for check in CHECKS.values():
            check(SupOver(sp, frozenset(sp.points)))
            check(Dirac(sp, "x3"))
        assert sizes() == first and sum(asked.values()) == 2 * n * n

    def test_passing_chain_laws_fill_no_join_meet_entry(self, monkeypatch):
        # over mp3 a law that holds is decided from the point maps
        sp = mp3_space()
        asked = picked(monkeypatch)
        for check in CHECKS.values():
            for x in ("x1", "x3"):
                assert all(check(Dirac(sp, x)).verdicts.values())
        assert not asked and not {"join", "meet"} & sp._instances.keys()

    def test_a_refused_compile_is_not_kept(self, monkeypatch):
        # a compile that raises, at once or part way, leaves no entry, so the next reader compiles again
        sp = bool_space(("x",))
        for _ in range(2):
            with pytest.raises(InputError, match="unknown law 'normalised'"):
                enumerate_idempotent(sp, ("normalised",))
            assert "normalised" not in sp._instances
        assert [nu.table for nu in enumerate_idempotent(sp)] == [(0, 1)]

        sp = FunctionSpace(("x1", "x2"), direct_product(boolean_semiring("a"), boolean_semiring("b")))
        want = [positions for positions, _, _ in functionals._instances(sp, "join", None)]
        join_meet_at = FunctionSpace.join_meet_at

        def interrupted(self, i, j, k):
            if (i, j) == (0, 5):
                raise KeyboardInterrupt
            return join_meet_at(self, i, j, k)

        monkeypatch.setattr(FunctionSpace, "join_meet_at", interrupted)
        with pytest.raises(KeyboardInterrupt):
            list(law_instances(sp, ("join",)))
        monkeypatch.setattr(FunctionSpace, "join_meet_at", join_meet_at)
        assert "join" not in sp._instances
        assert [positions for positions, _, _ in law_instances(sp, ("join",))] == want

    def test_a_reader_cut_short_by_another_readers_compile_reads_on(self, monkeypatch):
        # the interrupt ends the compile both readers share; the reader that had read one
        # instance reads the rest from a fresh compile, not only those already compiled
        sp = FunctionSpace(("x1", "x2"), direct_product(boolean_semiring("a"), boolean_semiring("b")))
        want = [positions for positions, _, _ in functionals._instances(sp, "join", None)]
        join_meet_at = FunctionSpace.join_meet_at

        def interrupted(self, i, j, k):
            if (i, j) == (0, 5):
                raise KeyboardInterrupt
            return join_meet_at(self, i, j, k)

        reader = law_instances(sp, ("join",))
        first = next(reader)
        monkeypatch.setattr(FunctionSpace, "join_meet_at", interrupted)
        with pytest.raises(KeyboardInterrupt):
            list(law_instances(sp, ("join",)))
        monkeypatch.setattr(FunctionSpace, "join_meet_at", join_meet_at)
        assert len(want) == 196 and [positions for positions, _, _ in (first, *reader)] == want

    def test_interleaved_readers_read_one_compile(self):
        # bool x bool is no chain, so its join and meet laws keep every pair
        sp = FunctionSpace(("x1", "x2"), direct_product(boolean_semiring("a"), boolean_semiring("b")))
        n = range(len(sp.functions()))
        cells = functionals._grid(n, n, 50, 1)[0]
        for law, grid in (("meet", None), ("join", cells), ("order-preserving", cells), ("weakly-additive", None)):
            want = [positions for positions, _, _ in functionals._instances(sp, law, grid)]
            first, second = law_instances(sp, (law,), grid), law_instances(sp, (law,), grid)
            ahead = [next(first) for _ in range(3)]  # first leads second by three instances
            pairs = list(zip(first, second))
            ones, twos = ahead + [a for a, _ in pairs], [b for _, b in pairs] + list(second)
            assert len(want) > 6 and [positions for positions, _, _ in ones] == want
            assert ones == twos == list(law_instances(sp, (law,), grid))


SYMBOLIC_SPACE = """
[structure mp3]
builtin = max-plus-chain 3

[space S]
structure = mp3
points = a b c d

[functional d0]
space = S
kind = dirac
point = d

[functional d1]
space = S
kind = dirac
point = b

[functional s2]
space = S
kind = sup_over
set = a d

[functional s3]
space = S
kind = sup_over
set = a b c

[functional i2]
space = S
kind = inf_over
set = b c

[functional cl]
space = S
kind = combo
side = left
coeffs = 1 1
parts = s2 d1

[functional cr]
space = S
kind = combo
side = right
coeffs = 1 1
parts = i2 d0
"""


def test_the_idempotent_suite_compares_no_pair_when_the_order_laws_hold(monkeypatch):
    """Order preservation and non-expansion are decided from down-sets, so
    the seven functionals of the space, all of whose order laws hold,
    never compare two functions pointwise."""
    ws = parse(SYMBOLIC_SPACE)
    reads = compared(monkeypatch)
    records = suite_idempotent(ws, 20000, 0)
    assert len(ws.functionals) == 7 and len(records) == 7 * 9
    assert all(r.verdict.holds for r in records if r.check_id.startswith("weak/"))
    assert not reads


def test_the_idempotent_suite_picks_each_vee_and_wedge_at_most_once(monkeypatch):
    """A failing join or meet law decided by a theorem finds its witness
    in the instances every scan reads, so no pair is picked twice."""
    ws = parse(SYMBOLIC_SPACE)
    asked = picked(monkeypatch)
    records = suite_idempotent(ws, 20000, 0)
    assert not all(r.verdict.holds for r in records if r.verdict.law in ("join", "meet"))
    assert asked and max(asked.values()) == 1


def test_the_demo_decides_its_shift_laws_from_shared_shift_maps(monkeypatch):
    """On the demo workspace no shift law compiles an instance list, and
    each shift map is made once per (op, c, side) and read by every
    functional on its space."""
    shift_map, made, read = FunctionSpace.shift_map, Counter(), Counter()

    def counted(self, op, c, side):
        made[self, op, c, side] += (op, c, side) not in self._shifts
        read[self, op, c, side] += 1
        return shift_map(self, op, c, side)

    monkeypatch.setattr(FunctionSpace, "shift_map", counted)
    ws = parse((Path(__file__).resolve().parent.parent / "docs" / "demo.workspace").read_text())
    records = suite_idempotent(ws, 20000, 0)
    assert any(r.verdict.holds for r in records if r.verdict.law.endswith("shift"))
    for nu in ws.functionals.values():
        homogeneity(nu)
    for space in ws.spaces.values():
        assert not set(space._instances) & set(functionals.SHIFT_LAWS)
    on_space = Counter(nu.space for nu in ws.functionals.values())
    assert made and set(made.values()) == {1}
    assert all(read[key] >= on_space[key[0]] > 1 for key in made)


def outcome(check, *args):
    """What a check returns, or the precondition it refuses."""
    try:
        return check(*args)
    except PreconditionError as exc:
        return str(exc)


class TestLawsAgainstTheScanOracles:
    """The checkers that run `law_instances` give the verdicts, witnesses
    and notes of the loops they replaced (tests/scan_oracles.py), in the
    same report order."""

    @pytest.mark.parametrize("space", ORACLE_SPACES, ids=lambda sp: sp.name)
    def test_every_table(self, space):
        for nu in enumerate_functionals(space):
            self.assert_agree(nu)

    @pytest.mark.parametrize(
        "name, nu",
        [*sorted(demo_functionals().items()), *sorted(mp3_functionals().items())],
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_symbolic_functionals(self, name, nu):
        self.assert_agree(nu)

    @staticmethod
    def assert_agree(nu):
        for budget, seed in ((None, 0), (40, 3)):
            got = check_idempotent(nu, budget, seed)
            want = scan_oracles.check_idempotent(nu, budget, seed)
            assert list(got.verdicts.items()) == list(want.verdicts.items())
            assert got.sampled == want.sampled
        weak = check_weak_properties(nu)
        for law, verdict in scan_oracles.weak_laws(nu).items():
            assert weak[law] == verdict
        for budget, seed in ((None, 0), (40, 3)):
            weak = check_weak_properties(nu, budget, seed)
            want, sampled = scan_oracles.weak_order_laws(nu, budget, seed)
            assert {law: weak[law] for law in want} == want
            assert weak.sampled == sampled
            implied = weak["weakly-additive"].holds and want["order-preserving"].holds
            assert weak["weak-implies-nonexpanding"].holds == (not implied or want["non-expanding"].holds)
        assert list(homogeneity(nu).items()) == list(scan_oracles.check_homogeneous(nu).items())
        for kind in ("join", "meet", "add"):
            assert outcome(check_kind, nu, kind) == outcome(scan_oracles.check_kind, nu, kind)

    def test_shifts_outside_a_monotone_space(self):
        sp = TestShiftOutsideTheSpace().space()
        for nu in (SupOver(sp, frozenset(sp.points)), Dirac(sp, "x1"), InfOver(sp, frozenset(sp.points))):
            self.assert_agree(nu)


@st.composite
def point_map_tables(draw):
    """nu(f) = the pick of phi_x(f(x)) over x, max (k = 0) or min (k = 1),
    for monotone point maps phi_x drawn on bool, mp3 or mp4 over 2-3
    points (no such space is among `ORACLE_SPACES` but bool's), and nu
    with one cell changed."""
    K = draw(st.sampled_from([BOOL, MP3, MP4]))
    space = FunctionSpace(("x1", "x2", "x3")[: draw(st.integers(2, 3))], K)
    k = draw(st.integers(0, 1))
    n = len(K.elements)
    chain = sorted(K.elements, key=lambda a: len(K.order.below[a]))
    values = st.lists(st.sampled_from(chain), min_size=n, max_size=n)
    maps = [dict(zip(chain, sorted(draw(values), key=chain.index))) for _ in space.points]
    picks = K.order.picks

    def nu(f):
        return reduce(lambda a, b: picks[a][b][k], (phi[v] for phi, v in zip(maps, f.values)))

    table = tuple(map(nu, space.functions()))
    i, d = draw(st.integers(0, len(table) - 1)), draw(st.integers(1, n - 1))
    bent = (*table[:i], (table[i] + d) % n, *table[i + 1 :])
    return ("join", "meet")[k], TableFunctional(space, table), TableFunctional(space, bent)


class TestPointMapsAgainstTheScanOracles:
    """On chains, `join` and `meet` are decided from the point maps; the
    verdicts and witnesses are those of the pair scans."""

    @settings(max_examples=40, deadline=None)
    @given(point_map_tables())
    def test_built_and_perturbed_tables(self, drawn):
        law, built, bent = drawn
        assert check_kind(built, law).holds
        for nu in (built, bent):
            for k, kind in enumerate(("join", "meet")):
                assert functionals._point_maps_hold(LazyValues(nu), k) == scan_oracles.check_kind(nu, kind).holds
            for budget, seed in ((None, 0), (40, 3)):
                got = check_idempotent(nu, budget, seed)
                want = scan_oracles.check_idempotent(nu, budget, seed)
                assert list(got.verdicts.items()) == list(want.verdicts.items())
                assert got.sampled == want.sampled
                # the order laws, decided from the down-set bounds on the exhaustive grid
                weak = check_weak_properties(nu, budget, seed)
                want, sampled = scan_oracles.weak_order_laws(nu, budget, seed)
                want.update(scan_oracles.weak_laws(nu))
                assert ({law: weak[law] for law in want}, weak.sampled) == (want, sampled)
            for kind in ("join", "meet", "add"):
                assert outcome(check_kind, nu, kind) == outcome(scan_oracles.check_kind, nu, kind)

    @pytest.mark.parametrize(
        "space, budget, read",
        [
            (mp3_space(), None, True),
            (mp3_space(), 27, False),
            (FunctionSpace(("x1", "x2"), direct_product(boolean_semiring("a"), boolean_semiring("b"))), None, False),
            (TestShiftOutsideTheSpace().space(), None, False),
        ],
        ids=["exhaustive", "sampled", "no-chain", "monotone"],
    )
    def test_when_the_point_maps_are_read(self, monkeypatch, space, budget, read):
        """Only on the exhaustive grid, on a chain, with no variant."""
        hold, calls = functionals._point_maps_hold, []

        def watched(values, k):
            if not read:
                raise AssertionError("the point maps were read")
            calls.append(k)
            return hold(values, k)

        monkeypatch.setattr(functionals, "_point_maps_hold", watched)
        nu = SupOver(space, frozenset(space.points))
        got = check_idempotent(nu, budget, 0)
        assert list(got.verdicts.items()) == list(scan_oracles.check_idempotent(nu, budget, 0).verdicts.items())
        assert calls == ([0, 1] if read else [])


# spaces beyond `ORACLE_SPACES` whose shift laws are decided: no shift leaves them
DECIDED_SPACES = [
    mp3_space(),
    bool_space(("x1", "x2", "x3", "x4")),
    FunctionSpace(("x1", "x2"), MP4),
    FunctionSpace(("x1", "x2"), direct_product(boolean_semiring("a"), boolean_semiring("b"))),
    FunctionSpace(("x1", "x2"), right_dist_only()),
    FunctionSpace(("x1", "x2", "x3"), MP3, variant="+"),
    FunctionSpace(("x1", "x2", "x3", "x4"), MP3, variant="-"),
]


def cyclic_structure():
    """The chain 0 < 1 < 2 with addition and multiplication mod 3: a
    constant shift wraps around, so it leaves a monotone space."""
    elems = ("0", "1", "2")
    add = {(a, b): str((int(a) + int(b)) % 3) for a in elems for b in elems}
    mul = {(a, b): str(int(a) * int(b) % 3) for a in elems for b in elems}
    return FinStruct("z3", OrderRelation.chain(elems), add, mul, "0", "1")


# monotone spaces with several shifts outside them; on the first, two
# tables break non-expansion only at a shift outside
OUTSIDE_SPACES = [
    FunctionSpace(("x1", "x2"), cyclic_structure(), variant="+"),
    FunctionSpace(("x1", "x2", "x3"), cyclic_structure(), variant="-"),
    FunctionSpace(("x1", "x2", "x3"), skew_structure(), variant="+"),
]
DECIDED_LAWS = (*functionals.SHIFT_LAWS, "order-preserving")


@st.composite
def bent_tables(draw, spaces):
    """The value table of a Dirac, sup or inf on a drawn space, or that
    table with one cell in its last quarter changed, so that a law may
    fail only at a late instance."""
    space = draw(st.sampled_from(spaces))
    subset = frozenset(draw(st.lists(st.sampled_from(space.points), min_size=1, unique=True)))
    kind = draw(st.sampled_from((Dirac, SupOver, InfOver)))
    table = list(signature(Dirac(space, min(subset)) if kind is Dirac else kind(space, subset)))
    if draw(st.booleans()):
        i = draw(st.integers(3 * len(table) // 4, len(table) - 1))
        table[i] = draw(st.sampled_from([v for v in space.K.elements if v != table[i]]))
    return TableFunctional(space, tuple(table))


def oracle_laws(nu) -> dict:
    """The verdicts of `DECIDED_LAWS` from the scan oracles."""
    shifts = {law: v for law, v in scan_oracles.check_idempotent(nu).verdicts.items() if law.endswith("-shift")}
    weak = scan_oracles.weak_laws(nu)
    return {**shifts, **weak, **scan_oracles.weak_order_laws(nu)[0], **scan_oracles.check_homogeneous(nu)}


class TestShiftDecisionAgainstTheScanOracles:
    """The shift family and the order laws, decided from the shift maps
    and the lower neighbours' bounds, give the verdicts and witnesses of
    the scans; where a shift leaves a monotone space they are scanned."""

    # every table of `ORACLE_SPACES` is `TestLawsAgainstTheScanOracles.test_every_table`
    @settings(max_examples=40, deadline=None)
    @given(bent_tables(DECIDED_SPACES))
    def test_drawn_tables(self, nu):
        values = LazyValues(nu)
        assert {law: law_verdict(values, law) for law in DECIDED_LAWS} == oracle_laws(nu)

    @pytest.mark.parametrize("space", OUTSIDE_SPACES, ids=lambda sp: sp.name + sp.variant)
    def test_several_shifts_leave_the_space(self, space):
        shifts = product(("add", "mul"), space.K.elements, ("left", "right"))
        outside = [q for op, c, side in shifts for q in space.shift_map(op, c, side)[1] if isinstance(q, KFunction)]
        assert len(outside) >= 3

    def test_every_table_outside(self):
        # a table has no value outside the space, but its order laws read none
        for nu in enumerate_functionals(OUTSIDE_SPACES[0]):
            want = scan_oracles.weak_order_laws(nu)[0]
            assert {law: law_verdict(LazyValues(nu), law) for law in want} == want

    @settings(max_examples=30, deadline=None)
    @given(bent_tables(OUTSIDE_SPACES[1:]))
    def test_drawn_tables_outside(self, nu):
        want = scan_oracles.weak_order_laws(nu)[0]
        assert {law: law_verdict(LazyValues(nu), law) for law in want} == want

    @pytest.mark.parametrize(
        "nu",
        [
            *(kind(sp, frozenset(E)) for sp in OUTSIDE_SPACES[1:] for kind in (SupOver, InfOver) for E in combinations(sp.points, 2)),
            *(Dirac(sp, x) for sp in OUTSIDE_SPACES for x in sp.points),
        ],
        ids=lambda nu: f"{nu.space.K.name}-{nu}",
    )
    def test_symbolic_functionals_outside(self, nu):
        # a symbolic functional is evaluated at a shift outside the space
        TestLawsAgainstTheScanOracles.assert_agree(nu)


def test_the_enumerator_refuses_a_shift_outside_the_space(monkeypatch):
    def build(*args):
        raise AssertionError("a table was built")

    monkeypatch.setattr(functionals, "TableFunctional", build)
    with pytest.raises(InputError, match=r"\{x1: 2, x2: 1\} is not a function of"):
        enumerate_idempotent(TestShiftOutsideTheSpace().space())


class TestSupportAgainstTheOracle:
    """`support_of` reads n + 1 point sets; the oracle intersects every
    subset of the points that supports the functional."""

    @pytest.mark.parametrize("space", ORACLE_SPACES, ids=lambda sp: sp.name)
    def test_every_table(self, space):
        for nu in enumerate_functionals(space):
            assert support_of(nu) == scan_oracles.support_of(nu)

    @pytest.mark.parametrize(
        "name, nu",
        [*sorted(demo_functionals().items()), *sorted(mp3_functionals().items())],
        ids=lambda v: v if isinstance(v, str) else "",
    )
    def test_symbolic_functionals(self, name, nu):
        assert support_of(nu) == scan_oracles.support_of(nu)

    @pytest.mark.parametrize(
        "space", [*ORACLE_SPACES, TestShiftOutsideTheSpace().space()], ids=lambda sp: sp.name + (sp.variant or "")
    )
    def test_supported_on_every_table_and_point_set(self, space):
        point_sets = [E for size in range(len(space.points) + 1) for E in combinations(space.points, size)]
        for nu in enumerate_functionals(space):
            for E in point_sets:
                assert supported_on(nu, E) == scan_oracles.supported_on(nu, E)

    def test_only_the_functions_vanishing_on_E_are_read(self, monkeypatch):
        sp = FunctionSpace(("x1", "x2", "x3", "x4"), MP3)
        nu = Counting(tabulate(SupOver(sp, frozenset({"x1", "x3"}))))

        def called(self, x):
            raise AssertionError("a function was read point by point")

        monkeypatch.setattr(KFunction, "__call__", called)
        assert supported_on(nu, {"x1", "x3"})
        vanishing = [f for f in sp.functions() if f.values[0] == f.values[2] == 0]
        assert list(nu.calls) == vanishing and set(nu.calls.values()) == {1}


MONAD_SPACES = [
    *(FunctionSpace(("x1", "x2", "x3")[:n], K) for K in (BOOL, maxplus_chain(2), trivial_structure()) for n in (1, 2, 3)),
    *(FunctionSpace(("x1",), K) for K in ORACLE_STRUCTURES if K.name in ("maxplus3", "maxplus4", "rdist", "axb", "skew")),
    FunctionSpace(("x1", "x2"), skew_structure()),
]


def bent_diracs(space, *bends):
    """The Diracs, then, when K has two elements or more, for each (c, v)
    the value table of the first Dirac with the constant c sent to v,
    both indices into K's codes."""
    diracs = [Dirac(space, x) for x in space.points]
    codes = space.K.elements
    tables = []
    for c, v in bends if len(codes) > 1 else ():
        table = list(signature(diracs[0]))
        table[space.position(space.constant(codes[c]))] = codes[v]
        tables.append(TableFunctional(space, tuple(table)))
    return diracs + tables


MONAD_FAMILIES = {
    # the default family, given, so that the scan runs on a chain too
    "default": lambda sp: enumerate_idempotent(sp, AXIOM_SETS[1]),
    "diracs": lambda sp: [Dirac(sp, x) for x in sp.points],
    "sup": lambda sp: [SupOver(sp, frozenset(sp.points))],
    "diracs+inf": lambda sp: [*(Dirac(sp, x) for x in sp.points), InfOver(sp, frozenset(sp.points))],
    "dup-rev": lambda sp: [Dirac(sp, x) for x in sp.points * 2][::-1],
    "diracs+sup": lambda sp: [*(Dirac(sp, x) for x in sp.points), SupOver(sp, frozenset(sp.points))],
    # not normalized: the member sorted first bends the last constant,
    # a later one the second, which is the least bent constant
    "diracs+bent": lambda sp: bent_diracs(sp, (-1, 0), (1, -1)),
    # the last constant sent to the one before: on the diamond, the
    # comparable constants 0,1 and 1,1 go to the incomparable 0,1 and 1,0
    "diracs+crossed": lambda sp: bent_diracs(sp, (-1, -2)),
}


class TestMonadAgainstTheOracle:
    """The lazy `monad_check` gives the verdicts, witnesses and notes of
    the extensional one (tests/scan_oracles.py), in the same report
    order."""

    @pytest.mark.parametrize("family", MONAD_FAMILIES)
    @pytest.mark.parametrize("space", MONAD_SPACES, ids=lambda sp: sp.name)
    def test_reports_agree(self, space, family):
        got = monad_check(space, MONAD_FAMILIES[family](space))
        want = scan_oracles.monad_check(space, MONAD_FAMILIES[family](space))
        assert list(got.verdicts.items()) == list(want.verdicts.items())

    def test_each_bar_image_is_made_once(self, monkeypatch):
        """bar(g) is made once per base function and kept on the family, so
        on mp3 over 2 points the default family (11 tables, 9 functions),
        given so that the scan runs, is read at most twice per member and
        function, not once per bar.  The extensional oracle would enumerate
        the 3^11 functions on the family, past `FUNCTION_CAP`, so the records
        are compared with those of bar remade on every call, and every one
        holds."""
        def remade(fam, g):
            return fam.upper.member(tuple(m.value(g) for m in fam.members))

        def check():
            sp = FunctionSpace(("x1", "x2"), MP3)
            return monad_check(sp, MONAD_FAMILIES["default"](sp))

        with monkeypatch.context() as patch:
            patch.setattr(functionals.FunctionalFamily, "bar", remade)
            want = check()
        reads = Counter()
        value = TableFunctional.value

        def counted(self, f):
            reads[id(self), f] += 1
            return value(self, f)

        monkeypatch.setattr(TableFunctional, "value", counted)
        got = check()
        assert len(reads) == 11 * 9 and sum(reads.values()) <= 2 * 11 * 9
        assert list(got.verdicts.items()) == list(want.verdicts.items())
        assert len(got.verdicts) == 6 and all(got.verdicts.values())

    def test_the_bar_failures_are_reached(self):
        sp = FunctionSpace(("x1",), MP3)
        assert monad_check(sp, MONAD_FAMILIES["diracs+bent"](sp))["bar-constant"].witness == ("1",)
        sp = next(sp for sp in MONAD_SPACES if sp.K.name == "axb")
        verdict = monad_check(sp, MONAD_FAMILIES["diracs+crossed"](sp))["bar-join"]
        assert (plain(verdict.witness), verdict.note) == ((("0,1",), ("1,1",)), "values incomparable at point 'n0'")

    def test_the_inconclusive_witnesses_are_reached(self):
        sp = FunctionSpace(("x1", "x2"), skew_structure())
        for family, pid in (("diracs", "m2"), ("diracs+inf", "m5")):
            verdict = monad_check(sp, MONAD_FAMILIES[family](sp))["assoc"]
            assert (verdict.witness, verdict.note) == ((pid,), "inconclusive: family not closed under flattening")

    @pytest.mark.parametrize(
        "space",
        [*(bool_space(("x1", "x2", "x3", "x4", "x5", "x6", "x7")[:n]) for n in range(1, 8)), mp3_space()],
        ids=lambda sp: sp.name,
    )
    def test_generated_members_come_in_signature_order(self, space):
        got = [signature(m) for m in functionals.generated_family(space).members]
        assert got == [signature(m) for m in scan_oracles.generated_family(space).members]

    def test_no_upper_space_is_enumerated(self, monkeypatch):
        sp = FunctionSpace(("x1", "x2"), MP3)
        read = Counter()
        for name in ("functions", "position"):
            method = getattr(FunctionSpace, name)

            def counted(self, *args, method=method, name=name):
                read[self.name, name] += 1
                return method(self, *args)

            monkeypatch.setattr(FunctionSpace, name, counted)
        assert all(monad_check(sp, MONAD_FAMILIES["default"](sp)).verdicts.values())
        assert read and {space for space, _ in read} == {sp.name}

    def test_one_generated_family_and_no_pair_of_functions(self, monkeypatch):
        # the default family's enumeration compiles the join grid, so the family is given
        sp = FunctionSpace(("x1", "x2"), MP3)
        asked = picked(monkeypatch)
        prefixes = []
        generated = functionals.generated_family
        monkeypatch.setattr(
            functionals, "generated_family", lambda space, prefix: prefixes.append(prefix) or generated(space, prefix)
        )
        assert all(monad_check(sp, MONAD_FAMILIES["diracs+sup"](sp)).verdicts.values())
        assert prefixes == ["m"] and not asked


def chain_census():
    """The 243 structures on the chain 0 < a < 1 in which 0 is neutral
    for add and absorbing for mul and 1 is a mul unit: a+a, a+1, 1+a,
    1+1 and a*a are free."""
    elems = ("0", "a", "1")
    order = OrderRelation.chain(elems)
    for i, sums in enumerate(product(elems, repeat=4)):
        add = {(x, y): y if x == "0" else x for x in elems for y in elems if "0" in (x, y)}
        add.update(zip(product(("a", "1"), repeat=2), sums))
        for square in elems:
            mul = {(x, y): "0" if "0" in (x, y) else y if x == "1" else x for x in elems for y in elems}
            mul["a", "a"] = square
            yield FinStruct(f"census{i}{square}", order, add, mul, "0", "1")


def test_assoc_add_equals_the_triple_scan_on_the_census():
    """assoc-add, decided without Light's test where add is max on a
    chain, equals the full triple scan on every census structure and
    every oracle structure, on both paths."""
    paths = Counter()
    for K in [*chain_census(), *ORACLE_STRUCTURES]:
        assert check_law(K, "assoc-add") == scan_oracles.check_law(K, "assoc-add")
        paths[structures._is_max_on_chain(K.add, K.order), check_law(K, "assoc-add").holds] += 1
    assert paths.keys() == {(True, True), (False, True), (False, False)}


@pytest.mark.parametrize("family", ["default", "diracs", "diracs+sup"])
def test_closure_gives_assoc_on_the_chain_census(family):
    """Wherever the flattening is closed on the family, the two sides of
    assoc, compared for every third-level functional, agree, and
    `monad_check`, which compares none, gives the same record."""
    make = MONAD_FAMILIES[family]
    closed = 0
    for K in chain_census():
        for sp in (FunctionSpace(("x1",), K), FunctionSpace(("x1", "x2"), K)):
            given = make(sp)
            want = scan_oracles.flattening_assoc(sp, given)
            assert monad_check(sp, given)["assoc"] == want
            if not want.note:
                assert want.holds
                closed += 1
    assert closed


MONAD_RECORDS = ["family-hosts-units", "unit-eta-outer", "unit-eta-inner", "bar-constant", "bar-join", "assoc"]


def refuse(*args, **kwargs):
    raise AssertionError("the default family on a chain was enumerated or scanned")


@pytest.mark.parametrize(
    "space",
    [
        bool_space(),
        FunctionSpace(("x1", "x2"), MP3),
        FunctionSpace(("x1", "x2"), maxplus_chain(6)),
        # 6^8 functions, past `FUNCTION_CAP`
        FunctionSpace(tuple(f"x{i}" for i in range(8)), maxplus_chain(6)),
        FunctionSpace(("x1", "x2"), right_dist_only()),
        FunctionSpace(("x1", "x2"), skew_structure()),
    ],
    ids=lambda sp: sp.name,
)
def test_on_a_chain_the_default_family_passes_without_a_scan(space, monkeypatch):
    # the double-dualization theorem decides it (see `monad_check`)
    for name in ("enumerate_functionals", "FunctionalFamily", "generated_family", "signature", "xi"):
        monkeypatch.setattr(functionals, name, refuse)
    monkeypatch.setattr(FunctionSpace, "functions", refuse)
    assert space.over_a_chain
    got = monad_check(space)
    assert [(law, v.holds, v.witness, v.note) for law, v in got.verdicts.items()] == [
        (law, True, None, "") for law in MONAD_RECORDS
    ]


@pytest.mark.parametrize(
    "space",
    [
        next(sp for sp in MONAD_SPACES if sp.K.name == "axb"),
        FunctionSpace(("x1", "x2", "x3"), BOOL, variant="+"),
        FunctionSpace(("x1", "x2"), MP3, variant="-"),
    ],
    ids=lambda sp: sp.name + (sp.variant or ""),
)
def test_off_a_chain_the_default_family_is_scanned(space, monkeypatch):
    scanned = []
    enumerate_ = functionals.enumerate_idempotent

    def spy(sp, axioms):
        scanned.append(sp)
        return enumerate_(sp, axioms)

    monkeypatch.setattr(functionals, "enumerate_idempotent", spy)
    assert not space.over_a_chain
    got = monad_check(space)
    assert scanned == [space]
    assert got == monad_check(space, MONAD_FAMILIES["default"](space))
    if space.variant is None:  # the oracle's family and flattening read every function of K^X
        assert got == scan_oracles.monad_check(space)


def flattens_into_the_family(space) -> bool:
    """Whether every lam in I(F), F the enumerated default family on the
    space, flattens into F, with the family and its flattening made by the
    oracle; False, with nothing checked, when I(F) is past the caps."""
    fam = scan_oracles.FunctionalFamily(space, enumerate_idempotent(space, AXIOM_SETS[1]))
    try:
        second = enumerate_idempotent(fam.upper, AXIOM_SETS[1])
    except CapacityError:
        return False
    assert second and all(fam.id_of(scan_oracles.xi(fam, lam)) is not None for lam in second)
    return True


def test_the_chain_census_is_a_monad_where_the_second_level_can_be_enumerated():
    """The six passing records on the chain census agree with the
    oracle's scan over one point, and with the flattening of the whole
    second level I(F) over two points, wherever I(F) fits the caps."""
    fits = 0
    for K in chain_census():
        one, two = FunctionSpace(("x1",), K), FunctionSpace(("x1", "x2"), K)
        assert monad_check(one) == scan_oracles.monad_check(one)
        assert list(monad_check(two).verdicts) == MONAD_RECORDS and all(monad_check(two).verdicts.values())
        fits += flattens_into_the_family(two)
    assert fits == 231
    assert flattens_into_the_family(bool_space())
