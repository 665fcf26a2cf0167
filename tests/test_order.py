import pytest
from hypothesis import given, settings, strategies as st

import scan_oracles
from ordalg.errors import InputError
from ordalg.order import OrderRelation, check_order_axioms, inf_over, sup_over
from ordalg.funcspace import pair_without_sup


def divisibility_order():
    elems = ("1", "2", "3", "6")
    return OrderRelation(elems, frozenset((x, y) for x in elems for y in elems if int(y) % int(x) == 0))


def diamond():
    # 0 < 1, 2 < 3 with 1, 2 incomparable
    return OrderRelation.from_covers(("0", "1", "2", "3"), [("0", "1"), ("0", "2"), ("1", "3"), ("2", "3")])


class TestOrderAxioms:
    def test_chain_is_linear(self):
        assert check_order_axioms(OrderRelation.chain("abc"), "linear").holds

    def test_antichain_fails_directed_with_witness(self):
        v = check_order_axioms(OrderRelation.from_covers("ab", []), "directed")
        assert not v.holds
        assert v.witness == ("D3", "a", "b")

    def test_divisibility_is_directed(self):
        # 6 bounds every pair
        assert check_order_axioms(divisibility_order(), "directed").holds

    def test_divisibility_is_not_linear(self):
        v = check_order_axioms(divisibility_order(), "linear")
        assert not v.holds
        assert v.witness[0] == "LO3"

    def test_missing_reflexivity_reported(self):
        order = OrderRelation(("a", "b"), frozenset({("a", "a"), ("a", "b")}))
        v = check_order_axioms(order, "directed")
        assert v.witness == ("D2", "b")

    def test_broken_transitivity_reported(self):
        pairs = {("a", "a"), ("b", "b"), ("c", "c"), ("a", "b"), ("b", "c")}
        order = OrderRelation(("a", "b", "c"), frozenset(pairs))
        v = check_order_axioms(order, "directed")
        assert v.witness == ("D1", "a", "b", "c")

    def test_antisymmetry_needed_for_linear(self):
        # a <= b and b <= a with a != b: a preorder, not a linear order
        pairs = {("a", "a"), ("b", "b"), ("a", "b"), ("b", "a")}
        order = OrderRelation(("a", "b"), frozenset(pairs))
        assert check_order_axioms(order, "directed").holds
        v = check_order_axioms(order, "linear")
        assert v.witness[0] == "LO2"

    def test_linear_implies_comparable(self):
        for order in (OrderRelation.chain("abcd"), divisibility_order(), diamond()):
            if check_order_axioms(order, "linear").holds:
                E = range(len(order.carrier))
                assert all(order.comparable(x, y) for x in E for y in E)

    def test_well_is_not_a_mode(self):
        # on a finite carrier, linear already means well-ordered
        with pytest.raises(InputError):
            check_order_axioms(OrderRelation.chain("ab"), "well")

    def test_unknown_identifier_rejected(self):
        with pytest.raises(InputError):
            OrderRelation(("a",), frozenset({("a", "z")}))

    def test_empty_carrier_rejected(self):
        with pytest.raises(InputError):
            check_order_axioms(OrderRelation((), frozenset()), "directed")


class TestSupInf:
    """Elements are given and returned as codes, their places in the carrier."""

    def test_singleton(self):
        order = diamond()
        assert sup_over({2}, order) == 2

    def test_diamond_join(self):
        assert sup_over({1, 2}, diamond()) == 3
        assert inf_over({1, 2}, diamond()) == 0

    def test_absent_sup(self):
        order = OrderRelation.from_covers("ab", [])
        assert sup_over({0, 1}, order) is None

    def test_empty_subset_is_input_error(self):
        with pytest.raises(InputError):
            sup_over(set(), diamond())

    def test_linear_sup_is_maximum(self):
        order = OrderRelation.chain("abcde")
        for subset in ((0, 2), (1, 4, 0), (3,)):
            assert sup_over(subset, order) == max(subset)

    def test_monotone_in_subset(self):
        order = divisibility_order()
        small = sup_over({1}, order)
        big = sup_over({1, 2}, order)
        assert (order.carrier[small], order.carrier[big]) == ("2", "6")
        assert order.leq(small, big)


@st.composite
def random_covers(draw):
    n = draw(st.integers(min_value=1, max_value=4))
    elems = tuple(f"e{i}" for i in range(n))
    covers = draw(
        st.lists(st.tuples(st.sampled_from(elems), st.sampled_from(elems)), max_size=6)
    )
    return elems, covers


def random_preorders():
    return random_covers().map(lambda drawn: OrderRelation.from_covers(*drawn))


def reachability(elems, covers) -> frozenset:
    """The reflexive-transitive closure by a breadth-first search from
    every element."""
    succ = {x: [y for a, y in covers if a == x] for x in elems}
    pairs = set()
    for x in elems:
        seen, frontier = {x}, [x]
        while frontier:
            frontier = [z for y in frontier for z in succ[y] if z not in seen]
            seen.update(frontier)
        pairs.update((x, z) for z in seen)
    return frozenset(pairs)


@settings(max_examples=100, deadline=None)
@given(random_covers())
def test_from_covers_is_the_reachability_closure(drawn):
    elems, covers = drawn
    order = OrderRelation.from_covers(elems, covers)
    assert order.carrier == elems
    assert set(scan_oracles.pairs(order)) == reachability(elems, covers)


def test_from_covers_closes_a_long_chain():
    elems = tuple(f"e{i}" for i in range(40))
    order = OrderRelation.from_covers(elems, list(zip(elems, elems[1:])))
    assert order == OrderRelation.chain(elems)


@settings(max_examples=60, deadline=None)
@given(random_preorders())
def test_generated_orders_mode_hierarchy(order):
    if check_order_axioms(order, "linear").holds:
        assert check_order_axioms(order, "directed").holds


@settings(max_examples=60, deadline=None)
@given(random_preorders(), st.data())
def test_sup_is_genuinely_least_upper_bound(order, data):
    subset = data.draw(
        st.lists(st.sampled_from(range(len(order.carrier))), min_size=1, max_size=3, unique=True)
    )
    v = sup_over(subset, order)
    if v is not None:
        assert all(order.leq(x, v) for x in subset)
        for z in range(len(order.carrier)):
            if all(order.leq(x, z) for x in subset):
                assert order.leq(v, z)


@settings(max_examples=150, deadline=None)
@given(random_covers())
def test_pairs_decide_the_sup_condition(drawn):
    # the subset scan over images of up to `size` elements, against the
    # pair check a function space runs at construction
    order = OrderRelation.from_covers(*drawn)
    for size in range(len(order.carrier) + 2):
        assert pair_without_sup(order, size) == scan_oracles.subset_without_sup(order, size)


class TestPairWithoutSup:
    def test_images_of_fewer_than_two_elements_need_no_check(self):
        order = OrderRelation.from_covers(("a", "b"), [])
        assert pair_without_sup(order, 0) is None
        assert pair_without_sup(order, 1) is None
        assert pair_without_sup(order, 2) == ("a", "b")

    def test_a_chain_has_every_sup(self):
        assert pair_without_sup(OrderRelation.chain(("0", "1", "2", "3")), 4) is None

    def test_a_diamond_with_a_top_has_every_sup(self):
        order = OrderRelation.from_covers(
            ("0", "a", "b", "1"), [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")]
        )
        assert pair_without_sup(order, 4) is None

    def test_the_first_failing_pair_in_combinations_order(self):
        # a and b have two minimal upper bounds p and q, and p, q none
        elems = ("0", "a", "b", "p", "q")
        covers = [("0", "a"), ("0", "b"), ("a", "p"), ("b", "p"), ("a", "q"), ("b", "q")]
        order = OrderRelation.from_covers(elems, covers)
        assert pair_without_sup(order, 2) == ("a", "b")


@st.composite
def random_relations(draw):
    """Arbitrary pair sets, so that reflexivity, transitivity and
    directedness can each fail."""
    n = draw(st.integers(min_value=1, max_value=4))
    elems = tuple(f"e{i}" for i in range(n))
    pairs = draw(st.frozensets(st.tuples(st.sampled_from(elems), st.sampled_from(elems))))
    return OrderRelation(elems, pairs)


class TestLookupsAgainstPairScans:
    """Extrema and the order axioms read the up-sets and down-sets
    of the relation; each equals its pair-scan definition."""

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(random_preorders(), random_relations()), st.data())
    def test_extrema(self, order, data):
        # the library reads codes, the oracle names
        subset = data.draw(st.lists(st.sampled_from(range(len(order.carrier))), min_size=1, max_size=3))
        names = [order.carrier[x] for x in subset]
        for up, extremum in ((True, sup_over), (False, inf_over)):
            got = extremum(subset, order)
            assert (got if got is None else order.carrier[got]) == scan_oracles.extremum(names, order, up)

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(random_preorders(), random_relations()))
    def test_order_axioms_in_every_mode(self, order):
        for mode in ("directed", "linear"):
            assert check_order_axioms(order, mode) == scan_oracles.check_order_axioms(order, mode)

    def test_a_failing_transitivity_names_the_first_escape_in_carrier_order(self):
        order = OrderRelation(("a", "b", "c", "d"), frozenset(
            [(x, x) for x in "abcd"] + [("a", "b"), ("b", "d"), ("b", "c")]
        ))
        verdict = check_order_axioms(order, "directed")
        assert verdict.witness == ("D1", "a", "b", "c")

    def test_subset_outside_the_carrier_is_refused(self):
        with pytest.raises(InputError):
            sup_over([0, 1], OrderRelation.chain(["e0"]))
