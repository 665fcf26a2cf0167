from itertools import product

import pytest
from hypothesis import given, settings, strategies as st

from ordalg.errors import CapacityError, InputError, WindowEscape
from ordalg.ordinals import (
    MaxReduct,
    ONE,
    Ordinal,
    ZERO,
    format_ordinal,
    omega,
    omega_power,
    ord_add,
    ord_cmp,
    ord_mul,
    ord_sup,
    parse_ordinal,
)
from ordertype_oracle import (
    oracle_add,
    oracle_cmp,
    oracle_mul,
    ordinal_to_vec,
    vec_to_ordinal,
)

W = omega()


def nat(n):
    return Ordinal.from_int(n)


class TestBasics:
    def test_zero_units(self):
        for x in (ZERO, nat(5), W, ord_add(W, nat(1))):
            assert ord_add(ZERO, x) == x
            assert ord_add(x, ZERO) == x
            assert ord_mul(ONE, x) == x
            assert ord_mul(x, ONE) == x
            assert ord_mul(ZERO, x) == ZERO
            assert ord_mul(x, ZERO) == ZERO

    def test_addition_noncommutative(self):
        assert ord_add(ONE, W) == W
        assert ord_add(W, ONE) == parse_ordinal("w + 1")

    def test_multiplication_noncommutative(self):
        assert ord_mul(W, nat(2)) == parse_ordinal("w*2")
        assert ord_mul(nat(2), W) == W

    def test_canonical_invariants_enforced(self):
        with pytest.raises(InputError):
            Ordinal(((ZERO, 0),))  # zero coefficient
        with pytest.raises(InputError):
            Ordinal(((ZERO, 1), (ONE, 1)))  # increasing exponents

    def test_depth_cap(self):
        t3 = omega_power(omega_power(W))  # w^(w^w), depth 4
        assert t3.depth() == 4
        with pytest.raises(CapacityError):
            omega_power(t3)

    def test_sup(self):
        assert ord_sup([nat(5)]) == nat(5)
        assert ord_sup([nat(3), W, ord_mul(W, nat(2))]) == ord_mul(W, nat(2))
        assert ord_sup([omega_power(2), ord_add(ord_mul(W, nat(7)), nat(4))]) == omega_power(2)
        with pytest.raises(InputError):
            ord_sup([])


class TestParsePrint:
    @pytest.mark.parametrize(
        "text,canonical",
        [
            ("0", "0"),
            ("5", "5"),
            ("w", "w"),
            ("w*3", "w*3"),
            ("w^2*3 + w*1 + 5", "w^2*3 + w + 5"),
            ("w^(w*2)*3 + w^2", "w^(w*2)*3 + w^2"),
            ("w^w", "w^(w)"),
            ("1 + w", "w"),
        ],
    )
    def test_roundtrip_canonical(self, text, canonical):
        o = parse_ordinal(text)
        assert format_ordinal(o) == canonical
        assert parse_ordinal(format_ordinal(o)) == o

    def test_bad_syntax(self):
        for bad in ("w^", "w*x", "3 +", "(w", "w^(w"):
            with pytest.raises(InputError):
                parse_ordinal(bad)


def window_vecs(coeff=3):
    return list(product(range(coeff + 1), repeat=3))


class TestAgainstOrderTypeOracle:
    def test_add_below_w3(self):
        vecs = window_vecs()
        for u in vecs:
            for v in vecs:
                got = ordinal_to_vec(ord_add(vec_to_ordinal(u), vec_to_ordinal(v)))
                assert got == oracle_add(u, v), (u, v)

    def test_mul_below_w3(self):
        vecs = window_vecs()
        for u in vecs:
            for v in vecs:
                got = ordinal_to_vec(ord_mul(vec_to_ordinal(u), vec_to_ordinal(v)))
                assert got == oracle_mul(u, v), (u, v)

    def test_cmp_below_w3(self):
        vecs = window_vecs()
        for u in vecs:
            for v in vecs:
                assert ord_cmp(vec_to_ordinal(u), vec_to_ordinal(v)) == oracle_cmp(u, v)


@st.composite
def small_ordinals(draw):
    vec = draw(st.tuples(*[st.integers(0, 3)] * 3))
    return vec_to_ordinal(vec)


@settings(max_examples=120, deadline=None)
@given(small_ordinals(), small_ordinals(), small_ordinals())
def test_associativity_sampled(a, b, c):
    assert ord_add(ord_add(a, b), c) == ord_add(a, ord_add(b, c))
    assert ord_mul(ord_mul(a, b), c) == ord_mul(a, ord_mul(b, c))


@settings(max_examples=120, deadline=None)
@given(small_ordinals(), small_ordinals(), small_ordinals(), small_ordinals())
def test_addition_monotone_sampled(a, b, c, d):
    if ord_cmp(a, c) != "gt" and ord_cmp(b, d) != "gt":
        assert ord_cmp(ord_add(a, b), ord_add(c, d)) != "gt"


def test_exactly_one_distributivity_side():
    # left: a*(b+c) = a*b + a*c holds on the whole sampled window
    vecs = window_vecs(2)
    for u, v, w_ in product(vecs, repeat=3):
        a, b, c = map(vec_to_ordinal, (u, v, w_))
        assert ord_mul(a, ord_add(b, c)) == ord_add(ord_mul(a, b), ord_mul(a, c))
    # right: (b+c)*a fails, canonically at (1+1)*w
    lhs = ord_mul(ord_add(ONE, ONE), W)
    rhs = ord_add(ord_mul(ONE, W), ord_mul(ONE, W))
    assert lhs == W and rhs == ord_mul(W, nat(2)) and lhs != rhs


def test_linear_order_axioms():
    vecs = window_vecs(2)
    ords = [vec_to_ordinal(v) for v in vecs]
    for a in ords:
        for b in ords:
            c1, c2 = ord_cmp(a, b), ord_cmp(b, a)
            assert (c1 == "eq") == (a == b)
            assert {c1, c2} in ({"eq"}, {"lt", "gt"})
    # sup agrees with pairwise max folded in any order
    sample = [ords[7], ords[3], ords[11], ords[3]]
    folded = sample[0]
    for o in sample[1:]:
        folded = o if ord_cmp(folded, o) == "lt" else folded
    assert ord_sup(sample) == folded == ord_sup(reversed(sample))


class TestMaxReduct:
    def window(self):
        w2 = omega_power(2)
        return MaxReduct([ZERO, ONE, nat(2), nat(4), W, ord_mul(W, nat(2)), w2])

    def test_idempotent_add(self):
        r = self.window()
        assert r.add(W, W) == W

    def test_left_dist_example(self):
        r = self.window()
        a, b, c = W, nat(2), W
        lhs = r.mul(c, r.add(a, b))
        rhs = r.add(r.mul(c, a), r.mul(c, b))
        assert lhs == rhs == omega_power(2)

    def test_right_dist_example(self):
        r = self.window()
        a, b, c = ONE, W, nat(2)
        lhs = r.mul(r.add(a, b), c)
        rhs = r.add(r.mul(a, c), r.mul(b, c))
        assert lhs == rhs == ord_mul(W, nat(2))

    def test_escape_names_the_pair(self):
        r = self.window()
        w2 = omega_power(2)
        with pytest.raises(WindowEscape) as err:
            r.mul(w2, w2)
        assert err.value.operands == (w2, w2)

    def test_distributivity_scan_flags_escapes(self):
        verdict, escapes = self.window().check_distributivity()
        assert verdict.holds
        assert escapes  # w^2 * w and friends leave the window
