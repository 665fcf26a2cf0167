from itertools import product

import pytest

import scan_oracles
from ordalg import funcspace
from ordalg.errors import CapacityError, IncomparableError, InputError
from ordalg.funcspace import FunctionSpace, KFunction
from ordalg.order import OrderRelation, sup_over
from ordalg.structures import (
    FinStruct,
    boolean_semiring,
    direct_product,
    maxplus_chain,
    right_dist_only,
)

BOOL = boolean_semiring()
MP3 = maxplus_chain(3)
MP4 = maxplus_chain(4)


def space(points=("x1", "x2"), K=BOOL, **kw):
    return FunctionSpace(points, K, **kw)


class TestPointwise:
    def test_zero_constant_is_neutral(self):
        sp = space()
        for f in sp.functions():
            assert sp.add(f, sp.constant(0)) == f
            assert sp.pointwise("mul", f, sp.constant(0)) == sp.constant(0)

    def test_maxplus_values(self):
        sp = space(K=MP4)
        f = sp.function({"x1": "1", "x2": "2"})
        g = sp.function({"x1": "2", "x2": "0"})
        assert sp.add(f, g) == sp.function({"x1": "2", "x2": "2"})
        assert sp.pointwise("mul", f, g) == sp.function({"x1": "2", "x2": "0"})

    def test_domain_mismatch(self):
        sp = space()
        other = KFunction(("y1", "y2"), (0, 0), BOOL)
        with pytest.raises(InputError):
            sp.add(sp.constant(0), other)


class TestOdot:
    def test_zero_shift_is_identity(self):
        sp = space(K=MP3)
        for f in sp.functions():
            assert sp.odot(0, f, "left") == f
            assert sp.odot(0, f, "right") == f

    def test_constants_compose(self):
        sp = space(K=MP3)
        for c in MP3.elements:
            for b in MP3.elements:
                assert sp.odot(c, sp.constant(b), "left") == sp.constant(MP3.add[c][b])

    def test_sides_differ_for_noncommutative_addition(self):
        # a two-element carrier with ordered-pair addition biased right
        elems = ("0", "1", "2")
        add = {}
        for a in elems:
            for b in elems:
                if a == "0":
                    add[(a, b)] = b
                elif b == "0":
                    add[(a, b)] = a
                else:
                    add[(a, b)] = b  # keep the right argument
        mul = {(a, b): "0" if "0" in (a, b) else ("2" if "2" in (a, b) else "1") for a in elems for b in elems}
        K = FinStruct("skew", OrderRelation.chain(elems), add, mul, "0", "1")
        sp = space(K=K)
        f = sp.constant(2)
        assert sp.odot(1, f, "left") == sp.constant(2)
        assert sp.odot(1, sp.constant(1), "right") == sp.constant(1)
        assert sp.add(f, sp.constant(1)) == sp.constant(1)  # f (+) 1 keeps right

    def test_odot_and_scale_on_both_sides(self):
        # rdist multiplies a*b = b above one, so 3*2 = 2 and 2*3 = 3
        K = right_dist_only()
        sp = space(K=K)
        f = sp.function({"x1": "2", "x2": "0"})
        assert sp.scale(3, f, "left") == sp.function({"x1": "2", "x2": "0"})
        assert sp.scale(3, f, "right") == sp.function({"x1": "3", "x2": "0"})
        assert sp.scale(1, f, "right") == f
        assert sp.odot(1, f, "left") == sp.function({"x1": "2", "x2": "1"})
        assert sp.odot(3, f, "right") == sp.constant(3)
        for op in (sp.odot, sp.scale):
            with pytest.raises(InputError):
                op(7, f, "left")  # not an element of K
            with pytest.raises(InputError):
                op(1, KFunction(("y1", "y2"), (0, 0), K), "left")

    def test_unknown_side_rejected(self):
        sp = space(K=MP3)
        for op in (sp.odot, sp.scale):
            with pytest.raises(InputError):
                op(1, sp.constant(0), "middle")


class TestVeeWedge:
    def test_idempotent(self):
        sp = space(K=MP3)
        for f in sp.functions():
            assert sp.vee(f, f) == f
            assert sp.wedge(f, f) == f

    def test_chain_values(self):
        sp = space(K=MP4)
        f = sp.function({"x1": "1", "x2": "3"})
        g = sp.function({"x1": "2", "x2": "2"})
        assert sp.vee(f, g) == sp.function({"x1": "2", "x2": "3"})
        assert sp.wedge(f, g) == sp.function({"x1": "1", "x2": "2"})

    def test_refusal_names_the_point(self):
        K = direct_product(boolean_semiring("a"), boolean_semiring("b"))
        sp = space(K=K)
        f = sp.function({"x1": "1,0", "x2": "0,0"})
        g = sp.function({"x1": "0,1", "x2": "0,0"})
        with pytest.raises(IncomparableError) as err:
            sp.vee(f, g)
        assert err.value.witness == ("x1",)


class TestForeignStructure:
    """A function into bool is not a function of the mp3 space on the
    same points, though its codes are codes of mp3."""

    def test_equal_values_into_another_K_are_not_equal(self):
        B, M = space(K=BOOL), space(K=MP3)
        f, g = B.function({"x1": "1", "x2": "1"}), M.function({"x1": "1", "x2": "1"})
        assert f.values == g.values and hash(f) == hash(g)
        assert f != g
        assert f not in M.functions()

    @pytest.mark.parametrize("find", ["position", "position_of"])
    def test_a_position_is_refused(self, find):
        B, M = space(K=BOOL), space(K=MP3)
        with pytest.raises(InputError, match="is not a function of"):
            getattr(M, find)(B.function({"x1": "1", "x2": "1"}))


class TestSupport:
    def test_support_ideal_closure_exhaustive(self):
        # the functions that vanish off E are closed under add, and
        # under mul by any function on either side
        sp = space(points=("x1", "x2", "x3"))
        off = [i for i, x in enumerate(sp.points) if x not in {"x1", "x3"}]

        def vanishes_off_E(f):
            return all(f.values[i] == BOOL.zero for i in off)

        members = [f for f in sp.functions() if vanishes_off_E(f)]
        assert len(members) == 4
        for f in members:
            for g in sp.functions():
                assert vanishes_off_E(sp.pointwise("mul", f, g))
                assert vanishes_off_E(sp.pointwise("mul", g, f))
            for h in members:
                assert vanishes_off_E(sp.add(f, h))


class TestMonotoneVariants:
    def chain_space(self, variant):
        return FunctionSpace(("x1", "x2", "x3"), MP3, variant)

    def test_membership_verified_at_construction(self):
        sp = self.chain_space("+")
        with pytest.raises(InputError):
            sp.function({"x1": "2", "x2": "0", "x3": "0"})

    def test_closed_under_add_mul_and_constants(self):
        for variant in ("+", "-"):
            sp = self.chain_space(variant)
            members = list(sp.functions())
            member_set = set(members)
            for c in MP3.elements:
                assert sp.constant(c) in member_set
            for f in members:
                for g in members:
                    assert sp.add(f, g) in member_set
                    assert sp.pointwise("mul", f, g) in member_set

    def test_vee_wedge_stay_monotone(self):
        sp = self.chain_space("+")
        members = list(sp.functions())
        for f in members:
            for g in members:
                assert sp.is_monotone(sp.vee(f, g))
                assert sp.is_monotone(sp.wedge(f, g))


class TestLawInheritance:
    def test_pointwise_structure_inherits_laws(self):
        sp = space(points=("x1", "x2"), K=MP3)
        add = lambda f, g: sp.pointwise("add", f, g)
        mul = lambda f, g: sp.pointwise("mul", f, g)
        for f, g, h in product(sp.functions(), repeat=3):
            for op in (add, mul):
                assert op(op(f, g), h) == op(f, op(g, h))
                assert op(f, g) == op(g, f)
            assert mul(f, add(g, h)) == add(mul(f, g), mul(f, h))
            assert mul(add(g, h), f) == add(mul(g, f), mul(h, f))

    def test_directedness_via_constant_bound(self):
        sp = space(points=("x1", "x2"), K=MP3)
        for f in sp.functions():
            for h in sp.functions():
                a = sup_over(set(f.values), MP3.order)
                b = sup_over(set(h.values), MP3.order)
                c = a if MP3.leq(b, a) else b
                bound = sp.constant(c)
                assert sp.leq(f, bound) and sp.leq(h, bound)


def test_sup_condition_enforced_at_construction():
    # a carrier where {a,b} has two minimal upper bounds and hence no sup;
    # a function space over it must be refused
    elems = ("0", "a", "b", "p", "q")
    covers = [("0", "a"), ("0", "b"), ("a", "p"), ("b", "p"), ("a", "q"), ("b", "q")]
    order = OrderRelation.from_covers(elems, covers)
    assert sup_over({1, 2}, order) is None
    add = {}
    for i, x in enumerate(elems):
        for j, y in enumerate(elems):
            s = sup_over({i, j}, order)
            add[(x, y)] = elems[s] if s is not None else "p"
    mul = {}
    for x in elems:
        for y in elems:
            if x == "0" or y == "0":
                mul[(x, y)] = "0"
            elif x == "a":
                mul[(x, y)] = y
            elif y == "a":
                mul[(x, y)] = x
            else:
                mul[(x, y)] = "p"
    K = FinStruct("nosup", order, add, mul, "0", "a")
    with pytest.raises(InputError):
        FunctionSpace(("x1", "x2"), K)


class TestFunctionCap:
    def test_the_cap_admits_its_own_count(self, monkeypatch):
        monkeypatch.setattr(funcspace, "FUNCTION_CAP", 8)
        assert len(space(points=("x1", "x2", "x3")).functions()) == 8

    def test_one_past_the_cap_is_refused_with_count_and_cap(self, monkeypatch):
        monkeypatch.setattr(funcspace, "FUNCTION_CAP", 8)
        sp = space(points=("x1", "x2", "x3"), K=MP3)
        with pytest.raises(CapacityError, match="27 functions on .* exceed the cap 8"):
            sp.functions()

    def test_the_cap_counts_value_tuples_before_the_monotone_filter(self, monkeypatch):
        # 10 non-increasing functions, but 27 value tuples to run through
        monkeypatch.setattr(funcspace, "FUNCTION_CAP", 26)
        points = ("x1", "x2", "x3")
        sp = space(points=points, K=MP3, variant="-")
        with pytest.raises(CapacityError, match="27 functions"):
            sp.functions()

    def test_a_space_over_the_cap_still_builds_functions(self):
        # parsing and pointwise work never enumerate the space
        points = tuple(f"x{i}" for i in range(17))
        sp = space(points=points)
        f = sp.function({x: "1" for x in points})
        assert sp.pointwise("add", f, sp.constant(0)) == f
        with pytest.raises(CapacityError):
            sp.functions()


def skew_chain():
    """0 < 1 < 2 with an addition that keeps its right argument above
    zero: shifting a non-decreasing function can leave the space."""
    elems = ("0", "1", "2")
    add = {(a, b): a if b == "0" else b for a in elems for b in elems}
    mul = {(a, b): "0" if "0" in (a, b) else max(a, b) for a in elems for b in elems}
    return FinStruct("skew", OrderRelation.chain(elems), add, mul, "0", "1")


LEQ_SPACES = [
    space(),
    space(points=("x1", "x2", "x3"), K=MP3),
    space(K=direct_product(boolean_semiring("p"), boolean_semiring("q"))),
    space(points=("x1", "x2", "x3"), K=MP3, variant="-"),
    space(points=("x1", "x2"), K=skew_chain(), variant="+"),
]

MONOTONE_SPACES = [sp for sp in LEQ_SPACES if sp.variant] + [space(points=("x1", "x2", "x3"), K=MP3, variant="+")]


@pytest.mark.parametrize("sp", MONOTONE_SPACES, ids=lambda sp: sp.name + sp.variant)
def test_monotone_members_are_read_in_the_listed_point_order(sp):
    want = scan_oracles.monotone_members(sp)
    assert [scan_oracles.named(f) for f in sp.functions()] == want
    for values in product(sp.K.elements, repeat=len(sp.points)):
        f = KFunction(sp.points, values, sp.K)
        assert sp.is_monotone(f) == (scan_oracles.named(f) in want)


def test_a_space_with_no_variant_has_no_monotone_test():
    with pytest.raises(InputError, match=r"^C\(x1,x2;bool\) has no monotone variant$"):
        space().is_monotone(space().constant(0))


class TestOrderLookups:
    @pytest.mark.parametrize("sp", LEQ_SPACES, ids=lambda sp: sp.name + (sp.variant or ""))
    def test_leq_is_the_pointwise_order_on_members_and_their_shifts(self, sp):
        members = sp.functions()
        shifted = {sp.odot(c, f, side) for c in sp.K.elements for f in members for side in ("left", "right")}
        outside = shifted - set(members)
        funcs = list(members) + sorted(outside, key=lambda f: f.values)
        for f, g in product(funcs, repeat=2):
            assert sp.leq(f, g) == scan_oracles.pointwise_leq(sp, f, g), (f, g)
        if sp.variant == "+":
            assert outside

    @pytest.mark.parametrize("sp", LEQ_SPACES, ids=lambda sp: sp.name + (sp.variant or ""))
    def test_down_sets_vee_and_wedge_are_the_pointwise_ones(self, sp):
        # a member's down-set is itself with its one-point lower neighbours' down-sets
        members, down = sp.functions(), {}
        for q, lower in sp.lower_neighbours():
            g = members[q]
            one_point = [i for i, f in enumerate(members) if sum(a != b for a, b in zip(f.values, g.values)) == 1]
            assert sorted(lower) == [i for i in one_point if scan_oracles.pointwise_leq(sp, members[i], g)]
            down[q] = {q}.union(*map(down.__getitem__, lower))
        for q, g in enumerate(members):
            assert sorted(down[q]) == [i for i, f in enumerate(members) if scan_oracles.pointwise_leq(sp, f, g)]
        incomparable = 0
        for (i, f), (j, g) in product(enumerate(members), repeat=2):
            try:
                want = sp.position(sp.vee(f, g)), sp.position(sp.wedge(f, g))
            except IncomparableError:
                want, incomparable = (None, None), incomparable + 1
            assert (sp.join_meet_at(i, j, 0), sp.join_meet_at(i, j, 1)) == want
        if sp.K.name == "pxq":
            assert incomparable

    def test_positions_within_keep_enumeration_order(self):
        sp = space(points=("x1", "x2", "x3"), K=MP3, variant="-")
        members = sp.functions()
        choices = [MP3.elements, (0,), MP3.elements]
        want = [i for i, f in enumerate(members) if f.values[1] == 0]
        assert sp.positions_within(choices) == want and len(want) == 3

    def test_a_function_on_other_points_has_no_position(self):
        sp = space()
        f = KFunction(("y1", "y2"), (0, 1), BOOL)
        assert sp.position_of(f) is f
        with pytest.raises(InputError, match="is not a function of"):
            sp.position(f)

    def test_a_repeated_point_is_refused(self):
        with pytest.raises(InputError, match="repeated point in x1 x2 x1"):
            space(points=("x1", "x2", "x1"))

    def test_a_dict_naming_a_foreign_or_missing_point_is_refused(self):
        sp = space()
        with pytest.raises(InputError, match=r"differ from the space's at \['bogus'\]"):
            sp.function({"x1": "0", "x2": "1", "bogus": "1"})
        with pytest.raises(InputError, match=r"differ from the space's at \['x2'\]"):
            sp.function({"x1": "0"})
        assert sp.function({"x1": "0", "x2": "1"}).values == (0, 1)

    @pytest.mark.parametrize("sp", LEQ_SPACES, ids=lambda sp: sp.name + (sp.variant or ""))
    def test_shift_maps_are_the_pointwise_shifts(self, sp):
        K, members = scan_oracles.Named(sp.K), sp.functions()
        outside = 0
        for op, c, side in product(("add", "mul"), sp.K.elements, ("left", "right")):
            table, a = (K.add if op == "add" else K.mul), sp.K.names[c]
            row, shifted = sp.shift_map(op, c, side)
            assert [sp.K.names[v] for v in row] == [table[(a, b) if side == "left" else (b, a)] for b in K.elements]
            for f, g in zip(members, shifted):
                want = scan_oracles.make(sp, [table[(a, b) if side == "left" else (b, a)] for b in scan_oracles.named(f)])
                assert (members[g] if isinstance(g, int) else g) == want
                outside += not isinstance(g, int)
        assert bool(outside) == (sp.K.name == "skew")

    def test_a_shift_map_is_made_once(self):
        sp = space(points=("x1", "x2"), K=MP3)
        f = sp.function({"x1": "1", "x2": "0"})
        i = sp.functions().index(f)
        made = sp.shift_map("add", 2, "right")
        assert sp.functions()[made[1][i]] == sp.odot(2, f, "right") == sp.pointwise("add", f, sp.constant(2))
        assert sp.shift_map("add", 2, "right") is made
        assert sp.functions()[sp.shift_map("mul", 2, "right")[1][i]] == sp.scale(2, f, "right")
        assert len(sp._shifts) == 2

    def test_leq_refuses_a_foreign_domain(self):
        sp = space()
        with pytest.raises(InputError):
            sp.leq(KFunction(("y",), (0,), BOOL), sp.constant(0))
