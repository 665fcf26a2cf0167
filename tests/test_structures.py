import copy
import random
from itertools import product

import pytest

import scan_oracles
from ordalg.errors import CapacityError, InputError
from ordalg.order import OrderRelation
from ordalg.report import Verdict
from ordalg.structures import (
    FinStruct,
    Homomorphism,
    boolean_semiring,
    check_homomorphism,
    check_law,
    direct_product,
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
        s = FinStruct("na", OrderRelation.chain(elems), add, mul, "0", "1")
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
        order = OrderRelation.chain(elems)
        with pytest.raises(InputError):
            FinStruct("bad", order, add, mul, "0", "1", frozenset({"no-such-law"}))

    def test_absorption_enforced(self):
        elems = ("0", "1")
        add = {(a, b): "1" if "1" in (a, b) else "0" for a in elems for b in elems}
        mul = {(a, b): "1" for a in elems for b in elems}  # 0 not absorbing
        order = OrderRelation.chain(elems)
        with pytest.raises(InputError):
            FinStruct("bad", order, add, mul, "0", "1")

    def test_zero_must_be_in_the_carrier_and_least(self):
        # refused before the tables are read, so empty tables get no further
        order = OrderRelation.chain(("a", "b"))
        with pytest.raises(InputError, match=r"^z: zero element 'c' not in carrier$"):
            FinStruct("z", order, {}, {}, "c", "a")
        with pytest.raises(InputError, match=r"^z: zero element 'b' is not minimal: not leq 'a'$"):
            FinStruct("z", order, {}, {}, "b", "a")


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
    return FinStruct("r", OrderRelation.chain(elems), add, mul, "0", "1")


class TestLawScans:
    def test_cubic_scans_equal_the_triple_scans(self):
        rng = random.Random(0)
        structs = [random_structure(rng, 2 + trial % 4) for trial in range(300)]
        structs += [perturbed_structure(rng, 3 + trial % 4) for trial in range(300)]
        failed = rescanned = 0
        for s in structs:
            for law in ("assoc-add", "assoc-mul", "left-dist", "right-dist"):
                verdict = check_law(s, law)
                assert verdict == scan_oracles.check_law(s, law)
                failed += not verdict.holds
                if law.startswith("assoc") and not verdict.holds:
                    # a middle factor off the generators: the scan over G alone
                    # would report a later triple
                    gens = structures._generators(getattr(s, law[-3:]), s.elements)
                    rescanned += s.code[verdict.witness[1]] not in gens
        assert failed > 1500 and rescanned > 100
        # structures whose mul is associative, where dist reads generators only
        builtins = (BOOL, MP3, RD, trivial_structure())
        structs = [maxplus_mul_structure(rng, 2 + trial % 5) for trial in range(200)]
        structs += [direct_product(s1, s2) for s1 in builtins for s2 in builtins]
        structs += [maxplus_chain(k) for k in (*range(2, 21), 60)]
        dist = set()
        for s in structs:
            assert check_law(s, "assoc-mul").holds
            for law in ("assoc-add", "assoc-mul", "left-dist", "right-dist"):
                verdict = check_law(s, law)
                assert verdict == scan_oracles.check_law(s, law)
                if law.endswith("dist"):
                    dist.add(verdict.holds)
        assert dist == {True, False}

    def test_pair_and_carrier_scans_equal_the_oracle_scans(self):
        rng = random.Random(1)
        structs = [random_structure(rng, 2 + trial % 4) for trial in range(100)]
        structs += [perturbed_structure(rng, 3 + trial % 4) for trial in range(100)]
        structs += [free_structure(rng, 2 + trial % 3) for trial in range(200)]
        holds, parts = {law: set() for law in ("comm-add", "comm-mul", "neutral", "absorb")}, set()
        for s in structs:
            for law, seen in holds.items():
                verdict = check_law(s, law)
                assert verdict == scan_oracles.check_law(s, law)
                seen.add(verdict.holds)
                if law == "neutral" and not verdict.holds:
                    parts.add(verdict.witness[0])
        # each law holds somewhere and fails somewhere, neutral at each of its parts
        assert all(seen == {True, False} for seen in holds.values())
        assert parts == {"add-neutral", "mul-neutral"}

    def test_dist_reads_generators_only_when_mul_is_associative(self):
        s = guard_structure()
        gens = structures._generators(s.mul, s.elements)
        assert s.order.named(gens) == ("0", "1", "2")
        assert not check_law(s, "assoc-mul").holds
        # each L_g for a generator g is an add-endomorphism ...
        assert structures._dist_failure(s.mul, s.add, s.elements, gens) is None
        # ... yet L_3 is not: 3*(1+1) = 3*2 = 1, while 3*1 + 3*1 = 3+3 = 3
        verdict = check_law(s, "left-dist")
        assert verdict == Verdict.failed("left-dist", ("3", "1", "1", "1", "3"))
        assert verdict == scan_oracles.check_law(s, "left-dist")

    def test_maxplus60_decides_the_mul_laws_on_three_generators(self, monkeypatch):
        ranges = []
        for name in ("_assoc_failure", "_dist_failure"):

            def recording(*args, scan=getattr(structures, name)):
                ranges.append((args[0], args[-1]))
                return scan(*args)

            monkeypatch.setattr(structures, name, recording)
        s = maxplus_chain(60)
        gens = (0, 1, 2)
        assert structures._generators(s.mul, s.elements) == gens
        # assoc-mul, left-dist and right-dist each ran once, never over all of E,
        # and assoc-add, max on a chain, ran no scan
        assert [r for rows, r in ranges] == [gens, gens, gens]
        assert check_law(s, "assoc-add").holds

    def test_the_larger_of_a_cyclic_total_relation_is_not_associative(self):
        # every pair is comparable and add picks the larger, but a <= b <= c <= a
        # is not transitive: (a+b)+c = b+c = c while a+(b+c) = a+c = a
        elems = ("0", "a", "b", "c")
        pairs = [(x, x) for x in elems] + [("0", x) for x in elems] + [("a", "b"), ("b", "c"), ("c", "a")]
        order = OrderRelation(elems, pairs)
        add = {(x, y): order.carrier[order.picks[i][j][0]] for i, x in enumerate(elems) for j, y in enumerate(elems)}
        mul = {(x, y): y if x == "a" else x if y == "a" else "0" for x in elems for y in elems}
        s = FinStruct("cycle", order, add, mul, "0", "a")
        assert all(p is not None for row in order.picks for p in row)
        assert not structures._is_max_on_chain(s.add, s.order)
        verdict = check_law(s, "assoc-add")
        assert verdict == Verdict.failed("assoc-add", ("a", "b", "c", "c", "a"))
        assert verdict == scan_oracles.check_law(s, "assoc-add")

    def test_a_verdict_is_scanned_once(self, monkeypatch):
        scanned = []
        scan = structures._scan_law

        def counting(s, law):
            scanned.append(law)
            return scan(s, law)

        monkeypatch.setattr(structures, "_scan_law", counting)
        s = right_dist_only()
        # right-dist reads the assoc-mul verdict, which is scanned with it
        expected = ["neutral", "absorb"]
        for flag in (law for law in structures.LAWS if law in s.flags):
            expected += [flag, "assoc-mul"] if flag == "right-dist" else [flag]
        assert scanned == expected
        scanned.clear()
        for law in ("neutral", "absorb", "assoc-mul", *s.flags):
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


def perturbed_structure(rng, n):
    """The saturating sum on the chain 0 < 1 < ... as add and the mul of
    maxplus_chain(n), each with one or two entries off zero and one
    changed at random: both stay nearly associative, with few generators."""
    elems = tuple(str(i) for i in range(n))
    add = {(a, b): str(min(int(a) + int(b), n - 1)) for a, b in product(elems, repeat=2)}
    mul = scan_oracles.Named(maxplus_chain(n)).mul
    for table, low in ((add, 1), (mul, 2)):
        for _ in range(rng.randint(1, 2)):
            table[(rng.choice(elems[low:]), rng.choice(elems[low:]))] = rng.choice(elems)
    return FinStruct("p", OrderRelation.chain(elems), add, mul, "0", "1")


def free_structure(rng, n):
    """A copy of `random_structure(rng, n)` with both tables drawn at
    random, which construction would refuse when zero or one is no unit
    or zero does not absorb; no verdict is kept on it yet."""
    s = copy.copy(random_structure(rng, n))
    s.add, s.mul = (tuple(tuple(rng.choice(s.elements) for _ in s.elements) for _ in s.elements) for _ in range(2))
    s.verdicts = {}
    return s


def maxplus_mul_structure(rng, n):
    """The mul of maxplus_chain(n), which is associative, with a random
    add that keeps zero neutral."""
    elems = tuple(str(i) for i in range(n))
    add = {(a, b): b if a == "0" else a if b == "0" else rng.choice(elems) for a, b in product(elems, repeat=2)}
    mul = scan_oracles.Named(maxplus_chain(n)).mul
    return FinStruct("m", OrderRelation.chain(elems), add, mul, "0", "1")


def guard_structure():
    """The chain 0 < 1 < 2 < 3 with 0 add-neutral and mul-absorbing, 1 the
    mul unit, 2*2 = 3, 2*3 = 3, 3*2 = 1, 3*3 = 3, 1+1 = 2, 2+1 = 2 and every
    other sum of nonzero elements 3.  Its mul is not associative,
    (3*2)*2 = 2 but 3*(2*2) = 3, and is generated by {0, 1, 2}."""
    elems = ("0", "1", "2", "3")
    add = dict(zip(product(elems, repeat=2), "0123" "1233" "2233" "3333"))
    mul = dict(zip(product(elems, repeat=2), "0000" "0123" "0233" "0313"))
    return FinStruct("g", OrderRelation.chain(elems), add, mul, "0", "1")
