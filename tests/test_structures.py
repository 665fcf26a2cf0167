import random

import pytest

import scan_oracles
from ordalg import (
    CapacityError,
    FinStruct,
    Homomorphism,
    InputError,
    OrderedCarrier,
    OrderRelation,
    boolean_semiring,
    check_exact_chain,
    check_homomorphism,
    check_law,
    direct_product,
    enumerate_ideals,
    image,
    is_simple,
    kernel,
    maxplus_chain,
    right_dist_only,
    trivial_structure,
)
from ordalg import structures

BOOL = boolean_semiring()
MP3 = maxplus_chain(3)
RD = right_dist_only()


class TestLaws:
    @pytest.mark.parametrize("law", ["assoc-add", "left-dist", "right-dist"])
    def test_maxplus_laws(self, law):
        assert check_law(MP3, law).holds

    @pytest.mark.parametrize(
        "law", ["assoc-add", "assoc-mul", "comm-add", "comm-mul", "left-dist", "right-dist"]
    )
    def test_boolean_all_laws(self, law):
        assert check_law(BOOL, law).holds

    def test_nonassoc_witness_reported(self):
        elems = ("0", "1", "2", "3")
        add = {(a, b): max(a, b) for a in elems for b in elems}
        top = {("2", "2"): "0", ("2", "3"): "0", ("3", "2"): "0", ("3", "3"): "1"}
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
                    mul[(a, b)] = top[(a, b)]
        s = FinStruct("na", OrderedCarrier(OrderRelation.chain(elems), "0"), add, mul, "0", "1")
        v = check_law(s, "assoc-mul")
        assert not v.holds
        a, b, c, lhs, rhs = v.witness
        # the witness re-evaluates to a genuine violation
        assert mul[(mul[(a, b)], c)] == lhs and mul[(a, mul[(b, c)])] == rhs and lhs != rhs

    def test_right_dist_fixture_is_one_sided(self):
        assert check_law(RD, "right-dist").holds
        v = check_law(RD, "left-dist")
        assert not v.holds
        assert v.witness[:3] == ("3", "1", "2")

    def test_quasi_solvable(self):
        assert check_law(BOOL, "quasi-solvable").holds
        # maxplus saturates, so 1 is unreachable from row 2 on {1,2}
        v = check_law(MP3, "quasi-solvable")
        assert not v.holds

    def test_declared_flag_reverified_at_construction(self):
        elems = ("0", "1")
        add = {(a, b): "1" if "1" in (a, b) else "0" for a in elems for b in elems}
        mul = {(a, b): "1" if a == b == "1" else "0" for a in elems for b in elems}
        order = OrderedCarrier(OrderRelation.chain(elems), "0")
        with pytest.raises(InputError):
            FinStruct("bad", order, add, mul, "0", "1", frozenset({"no-such-law"}))

    def test_absorption_enforced(self):
        elems = ("0", "1")
        add = {(a, b): "1" if "1" in (a, b) else "0" for a in elems for b in elems}
        mul = {(a, b): "1" for a in elems for b in elems}  # 0 not absorbing
        order = OrderedCarrier(OrderRelation.chain(elems), "0")
        with pytest.raises(InputError):
            FinStruct("bad", order, add, mul, "0", "1")


class TestIdeals:
    def test_boolean_ideals(self):
        assert enumerate_ideals(BOOL) == [frozenset({"0"}), frozenset({"0", "1"})]

    def test_zero_is_always_an_ideal(self):
        for s in (BOOL, MP3, RD):
            assert frozenset({s.zero}) in enumerate_ideals(s)

    def test_maxplus_ideals_are_mul_absorbing(self):
        ideals = enumerate_ideals(MP3)
        assert sorted(map(sorted, ideals)) == [["0"], ["0", "1", "2"], ["0", "2"]]
        for A in ideals:
            for a in A:
                for k in MP3.elements:
                    assert MP3.mulv(a, k) in A and MP3.mulv(k, a) in A

    def test_ideals_closed_under_intersection(self):
        for s in (BOOL, MP3, RD):
            ideals = enumerate_ideals(s)
            for A in ideals:
                for B in ideals:
                    assert A & B in ideals

    def test_capacity_guard(self):
        big = maxplus_chain(17)
        with pytest.raises(CapacityError):
            enumerate_ideals(big)

    def test_simplicity(self):
        assert is_simple(BOOL)
        assert not is_simple(trivial_structure())
        assert not is_simple(direct_product(BOOL, BOOL))
        assert not is_simple(MP3)


class TestHomomorphisms:
    def test_identity_holds(self):
        h = Homomorphism(BOOL, BOOL, {"0": "0", "1": "1"})
        assert check_homomorphism(h).holds

    def test_constant_to_zero_fails_on_unit(self):
        h = Homomorphism(BOOL, BOOL, {"0": "0", "1": "0"})
        v = check_homomorphism(h)
        assert not v.holds
        assert v.witness[0] == "one"

    def test_chain_inclusion(self):
        mp2 = maxplus_chain(2)
        h = Homomorphism(mp2, MP3, {"0": "0", "1": "1"})
        assert check_homomorphism(h).holds

    def test_image_out_of_carrier_rejected(self):
        with pytest.raises(InputError):
            Homomorphism(BOOL, BOOL, {"0": "0", "1": "7"})

    def test_kernel_is_an_ideal(self):
        h = Homomorphism(BOOL, BOOL, {"0": "0", "1": "1"})
        assert kernel(h) in enumerate_ideals(BOOL)


class TestExactChains:
    def test_zero_into_identity_is_exact(self):
        triv = trivial_structure()
        inj = Homomorphism(triv, BOOL, {"0": "0"})
        ident = Homomorphism(BOOL, BOOL, {"0": "0", "1": "1"})
        assert check_exact_chain([inj, ident]).holds

    def test_positionwise_verdicts(self):
        ident = Homomorphism(BOOL, BOOL, {"0": "0", "1": "1"})
        collapse = Homomorphism(BOOL, BOOL, {"0": "0", "1": "0"})
        # identity's image is all of K and the collapse kills all of K
        assert image(ident) == kernel(collapse)
        assert check_exact_chain([ident, collapse]).holds
        assert check_exact_chain([collapse, ident]).holds
        # zero-inclusion followed by the collapse is where exactness breaks
        triv = trivial_structure()
        inj = Homomorphism(triv, BOOL, {"0": "0"})
        v = check_exact_chain([inj, collapse])
        assert not v.holds
        position, im, ker = v.witness
        assert position == 0
        assert im == frozenset({"0"})
        assert ker == frozenset({"0", "1"})

    def test_single_hom_vacuously_exact(self):
        ident = Homomorphism(BOOL, BOOL, {"0": "0", "1": "1"})
        assert check_exact_chain([ident]).holds

    def test_non_composable_rejected(self):
        ident = Homomorphism(BOOL, BOOL, {"0": "0", "1": "1"})
        other = Homomorphism(MP3, MP3, {e: e for e in MP3.elements})
        with pytest.raises(InputError):
            check_exact_chain([ident, other])


def test_nontriviality_predicate():
    assert MP3.is_nontrivial()  # element 2 is neutral for nothing
    assert not BOOL.is_nontrivial()  # only 0 and 1
    assert not trivial_structure().is_nontrivial()


def test_zero_divisors_flag():
    assert not BOOL.has_zero_divisors()
    assert not MP3.has_zero_divisors()


def random_structure(rng, n):
    """A chain 0 < 1 < ... with random tables that keep zero neutral for
    add and absorbing for mul, and one neutral for mul."""
    elems = tuple(str(i) for i in range(n))
    add, mul = {}, {}
    for a in elems:
        for b in elems:
            add[(a, b)] = b if a == "0" else a if b == "0" else rng.choice(elems)
            if "0" in (a, b):
                mul[(a, b)] = "0"
            elif "1" in (a, b):
                mul[(a, b)] = b if a == "1" else a
            else:
                mul[(a, b)] = rng.choice(elems)
    return FinStruct("r", OrderedCarrier(OrderRelation.chain(elems), "0"), add, mul, "0", "1")


class TestLawScans:
    def test_cubic_scans_equal_the_triple_scans(self):
        rng = random.Random(0)
        failed = 0
        for trial in range(300):
            s = random_structure(rng, 2 + trial % 4)
            for law in ("assoc-add", "assoc-mul", "left-dist", "right-dist"):
                verdict = check_law(s, law)
                assert verdict == scan_oracles.check_law(s, law)
                failed += not verdict.holds
        assert failed > 300

    def test_a_verdict_is_scanned_once(self, monkeypatch):
        scanned = []
        scan = structures._scan_law

        def counting(s, law):
            scanned.append(law)
            return scan(s, law)

        monkeypatch.setattr(structures, "_scan_law", counting)
        s = right_dist_only()
        assert scanned == ["neutral", "absorb", *s.flags]
        scanned.clear()
        for law in ("neutral", "absorb", *s.flags):
            assert check_law(s, law).holds
        assert scanned == []
        first = check_law(s, "left-dist")
        assert check_law(s, "left-dist") is first
        assert scanned == ["left-dist"]
        # another structure with the same tables is scanned on its own
        assert not check_law(right_dist_only(), "left-dist").holds
        assert scanned.count("left-dist") == 2

    def test_an_unknown_law_is_refused_every_time(self):
        for _ in range(2):
            with pytest.raises(InputError):
                check_law(BOOL, "assoc")
        assert "assoc" not in BOOL.verdicts
