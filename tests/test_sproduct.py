import random
from itertools import islice, product
from pathlib import Path

import pytest

import scan_oracles

from ordalg import sproduct
from ordalg.errors import CapacityError, IncomparableError, InputError, PreconditionError
from ordalg.order import OrderRelation
from ordalg.sproduct import WINDOW_CAP, IndexScheme, SuppElement, find_nonassoc_witness, s_mu
from ordalg.structures import (
    FinStruct,
    boolean_semiring,
    direct_product,
    maxplus_chain,
    right_dist_only,
)
from ordalg.suites import scheme_law
from ordalg.workspace import parse
from scan_oracles import check_transfer_distributivity, componentwise_leq, lex_compare

BOOL = boolean_semiring()
MP3 = maxplus_chain(3)
BB = direct_product(boolean_semiring("p"), boolean_semiring("q"))
ZERO = SuppElement((), BOOL.names)


def bool_scheme(phi_mul=1, window=range(0, 5)):
    return IndexScheme(BOOL, window, psi={"add": 0, "mul": 0}, phi={"add": 0, "mul": phi_mul})


class TestSMu:
    def test_zero_times_zero(self):
        sch = bool_scheme()
        z = sch.element({})
        assert s_mu("mul", z, z, sch) == ZERO
        assert s_mu("add", z, z, sch) == ZERO

    def test_identity_shifts_degenerate_to_componentwise(self):
        sch = IndexScheme(MP3, range(0, 3))
        y = sch.element({0: 1, 1: 2})
        z = sch.element({0: 2, 2: 1})
        s = s_mu("add", y, z, sch)
        for j in range(3):
            assert s.get(j, 0) == MP3.add[y.get(j, 0)][z.get(j, 0)]
        p = s_mu("mul", y, z, sch)
        for j in range(3):
            assert p.get(j, 0) == MP3.mul[y.get(j, 0)][z.get(j, 0)]

    def test_shifted_product_formula(self):
        sch = bool_scheme()
        y = sch.element({0: 1})
        z = sch.element({1: 1})
        assert s_mu("mul", y, z, sch) == sch.element({0: 1})
        # support that never meets the shifted support vanishes
        z2 = sch.element({3: 1})
        assert s_mu("mul", y, z2, sch) == ZERO

    def test_window_escape_names_index(self):
        sch = IndexScheme(BOOL, range(0, 3), psi={"add": 0, "mul": 1}, phi={"add": 0, "mul": 0})
        y = sch.element({0: 1})
        z = sch.element({0: 1})
        with pytest.raises(CapacityError) as err:
            s_mu("mul", y, z, sch)
        assert "psi(0) = -1" in str(err.value)

    def test_unknown_op_rejected(self):
        sch = bool_scheme()
        with pytest.raises(InputError):
            s_mu("div", sch.element({}), sch.element({}), sch)


class TestScheme:
    def test_shift_validation(self):
        # only non-negative integer offsets are shifts; a table is refused
        refused = [
            ({"add": -1, "mul": 0}, {"add": 0, "mul": 0}),
            ({"add": 0, "mul": 0}, {"add": 0, "mul": -2}),
            ({"add": 0, "mul": {0: 0, 1: 0, 2: 1}}, {"add": 0, "mul": 0}),
            ({"add": 0, "mul": 0}, {"add": 0, "mul": {0: 1}}),
            ({"add": 0, "mul": 0}, {"add": True, "mul": 0}),
            ({"add": 0, "mul": 0}, {"add": 0}),
        ]
        for psi, phi in refused:
            with pytest.raises(InputError):
                IndexScheme(BOOL, range(0, 3), psi=psi, phi=phi)

    def test_offsets_are_kept_as_declared(self):
        sch = IndexScheme(BOOL, range(-2, 3), psi={"add": 0, "mul": 2}, phi={"add": 1, "mul": 3})
        assert (sch.psi, sch.phi) == ({"add": 0, "mul": 2}, {"add": 1, "mul": 3})
        assert sch.down == {op: (0, 1) for op in ("add", "mul")}

    def test_the_embedding_table_is_the_rth_power(self):
        swap = {"0,0": "0,0", "0,1": "1,0", "1,0": "0,1", "1,1": "1,1"}
        sch = IndexScheme(BB, range(0, 3), phi={"add": 2, "mul": 10**12 + 1}, embed=swap)
        assert sch.down["add"] == tuple(BB.elements)
        assert sch.down["mul"] == tuple(BB.code[swap[a]] for a in BB.names)

    def test_a_window_beyond_the_cap_is_refused(self):
        assert IndexScheme(BOOL, range(0, WINDOW_CAP)).window == range(0, WINDOW_CAP)
        with pytest.raises(CapacityError, match="window of 10001 indices exceeds the cap 10000"):
            IndexScheme(BOOL, range(-1, WINDOW_CAP))
        with pytest.raises(InputError):
            IndexScheme(BOOL, range(3, 3))

    def test_embedding_must_be_strictly_monotone_hom(self):
        with pytest.raises(InputError):
            IndexScheme(BOOL, range(0, 3), embed={"0": "0", "1": "0"})

    def test_element_validation(self):
        sch = bool_scheme()
        with pytest.raises(InputError):
            sch.element({9: 1})
        with pytest.raises(InputError):
            sch.element({0: 7})


class TestTheta:
    def test_theta_is_a_homomorphism_for_identity_shifts(self):
        sch = IndexScheme(BOOL, range(0, 4))

        def theta(x):  # the diagonal embedding over the window
            return sch.element({j: x for j in sch.window})

        for x in BOOL.elements:
            for z in BOOL.elements:
                assert s_mu("mul", theta(x), theta(z), sch) == theta(BOOL.mul[x][z])
                assert s_mu("add", theta(x), theta(z), sch) == theta(BOOL.add[x][z])


class TestLexCompare:
    def chain_scheme(self):
        return IndexScheme(MP3, range(0, 3))

    def test_equal(self):
        sch = self.chain_scheme()
        y = sch.element({1: 2})
        assert lex_compare(y, y, sch) == "eq"

    def test_least_differing_index_wins(self):
        sch = self.chain_scheme()
        y = sch.element({0: 1})
        z = sch.element({1: 2})
        assert lex_compare(y, z, sch) == "gt"  # index 0: 1 > 0
        assert lex_compare(z, y, sch) == "lt"

    def test_incomparable_components_rejected(self):
        K = direct_product(boolean_semiring("b1"), boolean_semiring("b2"))
        sch = IndexScheme(K, range(0, 2))
        y = sch.element({0: K.code["1,0"]})
        z = sch.element({0: K.code["0,1"]})
        with pytest.raises(IncomparableError):
            lex_compare(y, z, sch)

    def test_strict_linear_order_on_grid(self):
        sch = self.chain_scheme()
        grid = list(sch.all_elements())
        assert len(grid) == 27
        for y in grid:
            for z in grid:
                c1, c2 = lex_compare(y, z, sch), lex_compare(z, y, sch)
                assert (c1 == "eq") == (y == z)
                assert {c1, c2} in ({"eq"}, {"lt", "gt"})
        # transitivity of the strict part
        lt = {(y, z) for y in grid for z in grid if lex_compare(y, z, sch) == "lt"}
        for y, z in lt:
            for w in grid:
                if (z, w) in lt:
                    assert (y, w) in lt


class TestNonassociativity:
    def test_witness_found_over_boolean(self):
        result = find_nonassoc_witness(bool_scheme(), 1000)
        assert result.found
        a, b, c, left, right = result.witness
        sch = bool_scheme()
        assert s_mu("mul", s_mu("mul", a, b, sch), c, sch) == left
        assert s_mu("mul", a, s_mu("mul", b, c, sch), sch) == right
        assert left != right
        zero = BOOL.zero
        assert left.get(result.diff_index, zero) != right.get(result.diff_index, zero)

    def test_identity_phi_is_a_precondition_error(self):
        sch = IndexScheme(BOOL, range(0, 4))
        with pytest.raises(PreconditionError):
            find_nonassoc_witness(sch, 1000)

    def test_all_zero_never_witnesses(self):
        sch = bool_scheme()
        z = sch.element({})
        left = s_mu("mul", s_mu("mul", z, z, sch), z, sch)
        right = s_mu("mul", z, s_mu("mul", z, z, sch), sch)
        assert left == right


class TestTransfer:
    @pytest.mark.parametrize("component,side", [(BOOL, "left"), (BOOL, "right"), (MP3, "left"), (MP3, "right"), (right_dist_only(), "right")])
    def test_distributivity_transfers(self, component, side):
        sch = IndexScheme(component, range(0, 5), psi={"add": 0, "mul": 0}, phi={"add": 0, "mul": 1})
        pool = list(islice(sch.all_elements(range(0, 2)), 16))
        triples = list(product(pool, repeat=3))[:600]
        assert check_transfer_distributivity(sch, side, triples).holds

    def test_left_transfer_fails_on_the_right_dist_component(self):
        # the component breaks a(b+c) = ab+ac at a=3, b=1, c=2; phi moves b
        # and c up one index, so they are read one level above a
        sch = IndexScheme(right_dist_only(), range(0, 4), psi={"add": 0, "mul": 0}, phi={"add": 0, "mul": 1})
        pool = list(sch.all_elements(range(0, 2)))
        triples = list(product(pool, repeat=3))
        v = check_transfer_distributivity(sch, "left", triples)
        assert v.law == "transfer-left-dist"
        assert [str(x) for x in v.witness] == ["{0: 3}", "{1: 1}", "{1: 2}", "{0: 2}", "{0: 3}"]
        assert triples.index(v.witness[:3]) == 3090
        assert scheme_law(sch, "transfer-left") == v
        assert scheme_law(sch, "transfer-right").holds
        assert check_transfer_distributivity(sch, "right", triples).holds
        with pytest.raises(InputError):
            check_transfer_distributivity(sch, "middle", triples)

    def test_add_shift_must_be_identity(self):
        sch = IndexScheme(BOOL, range(0, 5), psi={"add": 0, "mul": 0}, phi={"add": 1, "mul": 1})
        with pytest.raises(PreconditionError):
            check_transfer_distributivity(sch, "left", [])


class TestDirectedness:
    def test_componentwise_order_directed_and_compatible(self):
        sch = IndexScheme(MP3, range(0, 2))
        grid = list(sch.all_elements())
        top = sch.element({0: 2, 1: 2})
        for y in grid:
            assert componentwise_leq(y, top, sch)
        # operation compatibility on comparable quadruples
        for a, c in product(grid, repeat=2):
            if not componentwise_leq(a, c, sch):
                continue
            for b, d in product(grid[:5], repeat=2):
                if not componentwise_leq(b, d, sch):
                    continue
                for op in ("add", "mul"):
                    assert componentwise_leq(s_mu(op, a, b, sch), s_mu(op, c, d, sch), sch)


def random_element(rng, scheme, edge=3):
    """An element with a random support, drawn more often near the ends
    of the window so that shifts escape it."""
    window = scheme.window
    nonzero = [v for v in scheme.component.elements if v != scheme.component.zero]
    near = list(window[:edge]) + list(window[-edge:])
    indices = rng.sample(near, rng.randint(0, 2)) + rng.sample(list(window), rng.randint(0, 3))
    return scheme.element({j: rng.choice(nonzero) for j in indices})


ORACLE_SCHEMES = {
    "bool": IndexScheme(BOOL, range(0, 12), psi={"add": 1, "mul": 0}, phi={"add": 0, "mul": 1}),
    "mp3": IndexScheme(MP3, range(-3, 9), psi={"add": 0, "mul": 2}, phi={"add": 1, "mul": 3}),
    "rdist": IndexScheme(right_dist_only(), range(0, 10), psi={"add": 0, "mul": 2}, phi={"add": 0, "mul": 1}),
    # the swap of the two factors is a strictly monotone injective embedding
    "embed": IndexScheme(
        BB,
        range(0, 10),
        psi={"add": 0, "mul": 1},
        phi={"add": 2, "mul": 3},
        embed={"0,0": "0,0", "0,1": "1,0", "1,0": "0,1", "1,1": "1,1"},
    ),
}


def agrees_with_the_scan(op, y, z, scheme) -> bool:
    """Assert that s_mu equals the window scan, or escapes with the same
    message; return whether it escaped."""
    try:
        expected = scan_oracles.s_mu(op, y, z, scheme)
    except CapacityError as exc:
        with pytest.raises(CapacityError) as err:
            s_mu(op, y, z, scheme)
        assert str(err.value) == str(exc)
        return True
    assert s_mu(op, y, z, scheme) == expected
    return False


class TestSMuAgainstWindowScan:
    """s_mu visits y's support and the phi-preimages of z's support; it
    equals the scan of the whole window, escapes included."""

    @pytest.mark.parametrize("name", sorted(ORACLE_SCHEMES))
    def test_random_pairs(self, name):
        scheme = ORACLE_SCHEMES[name]
        rng = random.Random(name)
        escapes = 0
        for _ in range(400):
            y, z = random_element(rng, scheme), random_element(rng, scheme)
            escapes += sum(agrees_with_the_scan(op, y, z, scheme) for op in ("add", "mul"))
        assert escapes > 0

    @pytest.mark.parametrize("window", [range(0, 1), range(0, 3), range(-2, 2)], ids=lambda w: f"{w.start}:{w.stop}")
    @pytest.mark.parametrize("component", [BOOL, MP3], ids=["bool", "mp3"])
    def test_every_pair_on_small_windows(self, component, window):
        # add runs the offsets (s, r) and mul runs (r, s), so each
        # operation meets all nine pairs of offsets 0-2
        grid = list(IndexScheme(component, window).all_elements())
        escapes = 0
        for s, r in product(range(3), repeat=2):
            scheme = IndexScheme(component, window, psi={"add": s, "mul": r}, phi={"add": r, "mul": s})
            for y, z, op in product(grid, grid, ("add", "mul")):
                escapes += agrees_with_the_scan(op, y, z, scheme)
        assert 0 < escapes < 18 * len(grid) ** 2

    @pytest.mark.parametrize("name", sorted(ORACLE_SCHEMES))
    def test_results_are_canonical_without_the_element_constructor(self, name, monkeypatch):
        scheme = ORACLE_SCHEMES[name]
        rng = random.Random(name)
        pairs = [(random_element(rng, scheme), random_element(rng, scheme)) for _ in range(200)]

        def refused(self, mapping):
            raise AssertionError("s_mu built its result through IndexScheme.element")

        monkeypatch.setattr(IndexScheme, "element", refused)
        results = []
        for (y, z), op in product(pairs, ("add", "mul")):
            try:
                results.append(s_mu(op, y, z, scheme))
            except CapacityError:
                continue
        monkeypatch.undo()
        assert len(results) > 200
        for got in results:
            again = scheme.element(dict(got.items))
            assert got == again and hash(got) == hash(again) and got.by_index == again.by_index

    def test_values_are_read_by_index(self):
        sch = bool_scheme()
        y = sch.element({3: 1, 1: 1})
        assert y.items == ((1, 1), (3, 1))
        assert [y.get(j, 0) for j in range(5)] == [0, 1, 0, 1, 0]
        assert y == sch.element({1: 1, 3: 1}) and hash(y) == hash(sch.element({1: 1, 3: 1}))


# the schemes of the symbolic benchmark workload (perfbench/workloads.py)
SYMBOLIC_SCHEMES = {
    "shiftA": IndexScheme(MP3, range(0, 150), psi={"add": 0, "mul": 0}, phi={"add": 0, "mul": 1}),
    "shiftB": IndexScheme(right_dist_only(), range(0, 150), psi={"add": 1, "mul": 0}, phi={"add": 0, "mul": 2}),
    "shiftC": IndexScheme(MP3, range(0, 150), psi={"add": 1, "mul": 100}, phi={"add": 0, "mul": 1}),
}


def demo_scheme() -> IndexScheme:
    return parse((Path(__file__).resolve().parent.parent / "docs" / "demo.workspace").read_text()).schemes["Sch"]


def nonassoc_scheme(name: str) -> IndexScheme:
    if name == "bool_scheme":
        return bool_scheme()
    if name == "demo":
        return demo_scheme()
    return {**SYMBOLIC_SCHEMES, **ORACLE_SCHEMES}[name]


class TestNonassocSearchAgainstTheOracle:
    """The search skips the triples with a zero operand; the oracle
    evaluates every triple, and both give the same result.  On a sample
    of 64 elements only budget 5000 reaches past the first 64**2
    triples, all of which have a = 0."""

    @pytest.mark.parametrize("name", ["bool_scheme", "demo", *sorted(SYMBOLIC_SCHEMES), *sorted(ORACLE_SCHEMES)])
    def test_every_budget(self, name):
        scheme = nonassoc_scheme(name)
        for budget in (1, 64, 65, 1000, 5000):
            got = find_nonassoc_witness(scheme, budget)
            witness, tested, diff = scan_oracles.nonassoc_search(scheme, budget)
            assert got.tested == tested and got.diff_index == diff
            assert (got.witness is None) == (witness is None)
            if witness is not None:
                assert [y.items for y in got.witness] == [y.items for y in witness]

    def test_zero_operand_triples_are_not_evaluated(self, monkeypatch):
        calls, made = [], []

        def counting(op, y, z, scheme, s_mu=sproduct.s_mu):
            calls.append((y, z))
            made.append(s_mu(op, y, z, scheme))
            return made[-1]

        monkeypatch.setattr(sproduct, "s_mu", counting)
        result = find_nonassoc_witness(SYMBOLIC_SCHEMES["shiftA"], 1000)
        assert result.tested == 1000 and not result.found and calls == []
        # on the demo's scheme no triple operand that s_mu gets is zero
        result = find_nonassoc_witness(demo_scheme(), 1000)
        assert [str(y) for y in result.witness[:3]] == ["{1: 1}", "{2: 1}", "{2: 1}"] and result.tested == 138
        operands = [y for call in calls for y in call if not any(y is m for m in made)]
        assert operands and all(y.items for y in operands)


def table_struct(name, elements, order, one, add, mul):
    """A structure from its rows, each a string of results in the order of
    `elements`, with every law flag it satisfies declared."""

    def table(rows):
        return {(a, b): v for a, row in zip(elements, rows) for b, v in zip(elements, row.split())}

    flags = frozenset(("assoc-add", "assoc-mul", "comm-add", "comm-mul", "left-dist", "right-dist"))
    relation = OrderRelation.from_covers(elements, order)
    return FinStruct(name, relation, table(add), table(mul), elements[0], one, flags)


# 0 < a, b < 1: the four-element Boolean algebra, join and meet
DIAMOND = table_struct(
    "diamond",
    ("0", "a", "b", "1"),
    [("0", "a"), ("0", "b"), ("a", "1"), ("b", "1")],
    "1",
    ["0 a b 1", "a a 1 1", "b 1 b 1", "1 1 1 1"],
    ["0 0 0 0", "0 a 0 a", "0 0 b b", "0 a b 1"],
)
# 0 < a, 0 < b with no top; add and mul are max on 0 < a < b, 0 absorbing for mul
VEE = table_struct(
    "vee", ("0", "a", "b"), [("0", "a"), ("0", "b")], "a", ["0 a b", "a a b", "b b b"], ["0 0 0", "0 a b", "0 b b"]
)
RDIST = right_dist_only()
# the transpose of RDIST: left- but not right-distributive
LDIST = FinStruct(
    "ldist",
    RDIST.order,
    scan_oracles.Named(RDIST).add,
    {(b, a): v for (a, b), v in scan_oracles.Named(RDIST).mul.items()},
    "0",
    "1",
    frozenset(("assoc-add", "comm-add", "left-dist")),
)
DECIDED = {"bool": BOOL, "mp3": MP3, "rdist": RDIST, "ldist": LDIST, "diamond": DIAMOND, "vee": VEE}


class TestSchemeLawsAgainstTheScans:
    """`scheme_law` decides directed, lex and transfer from the
    component's laws; the scans over every pair and triple of small
    windows agree, and each failing witness fails again in them."""

    @pytest.mark.parametrize("size", [1, 2, 3, 4])
    @pytest.mark.parametrize("name", sorted(DECIDED))
    def test_every_pair(self, name, size):
        K = DECIDED[name]
        for law, scan in (("directed", scan_oracles.directed_failure), ("lex", scan_oracles.lex_failure)):
            failure = scan(IndexScheme(K, range(-1, size - 1)))
            for phi in (0, 1):
                scheme = IndexScheme(K, range(-1, size - 1), phi={"add": 0, "mul": phi})
                verdict = scheme_law(scheme, law)
                assert verdict.holds == (failure is None)
                if not verdict.holds:
                    assert scan(scheme, [verdict.witness]) == verdict.witness

    def test_the_order_witnesses_are_monomials(self):
        for K, law in ((DIAMOND, "lex"), (VEE, "directed"), (VEE, "lex")):
            verdict = scheme_law(IndexScheme(K, range(2, 5)), law)
            assert [str(y) for y in verdict.witness] == ["{2: a}", "{2: b}"]
        assert scheme_law(IndexScheme(DIAMOND, range(0, 3)), "directed").holds

    @pytest.mark.parametrize("size", [1, 2])
    @pytest.mark.parametrize("name", sorted(DECIDED) + ["diamond-swap"])
    def test_every_triple(self, name, size):
        K = DECIDED[name.split("-")[0]]
        # swapping a and b is an automorphism of the diamond, so t^r is not the identity for odd r
        embed = {"0": "0", "a": "b", "b": "a", "1": "1"} if name == "diamond-swap" else None
        failures = expected = 0
        for psi, phi in product((0, 1), repeat=2):
            # one side of rdist and ldist fails, and shows on windows of more than s + r indices
            expected += name in ("rdist", "ldist") and psi + phi < size
            scheme = IndexScheme(K, range(0, size), psi={"add": 0, "mul": psi}, phi={"add": 0, "mul": phi}, embed=embed)
            triples = list(product(list(scheme.all_elements()), repeat=3))
            for side in ("left", "right"):
                verdict = scheme_law(scheme, f"transfer-{side}")
                scanned = check_transfer_distributivity(scheme, side, triples)
                assert verdict.holds == scanned.holds
                if not verdict.holds:
                    failures += 1
                    assert check_transfer_distributivity(scheme, side, [verdict.witness[:3]]) == verdict
        assert failures == expected
