"""The shifted product construction over an integer index line.

Elements are finite-support tuples over copies of one component
structure; the binary operations re-index through a pair of shift maps
per operation and push the right operand through iterated embeddings,
which is what makes the product non-associative as soon as the phi shift
actually moves indices.

The product's order and distributivity laws follow index by index from
the component's, so `suites.scheme_law` decides them from the laws the
component has already checked.  Non-associativity has no such reading,
and `find_nonassoc_witness` searches for it over a bounded sample.

A triple with an all-zero operand is never a witness.  A FinStruct is
refused unless 0 absorbs under mul on both sides (`check_law(K,
"absorb")` at construction), and an embedding is refused unless it maps
zero to zero (`check_homomorphism`), so t^r_0 fixes zero.  So every
entry of y*0 or 0*z is zero, and both association orders of a triple
with a zero operand are the zero element, or escape the window.  The
search counts such triples without evaluating them.

Entries hold codes of the component's elements (see `structures`);
an element's `__str__` prints their names.
"""
from __future__ import annotations

from itertools import islice, product

from .errors import CapacityError, InputError, PreconditionError
from .structures import FinStruct, Homomorphism, check_homomorphism

OPS = ("add", "mul")


class SuppElement:
    """Finite-support element: stored entries are nonzero, absent means 0.
    Values are looked up through `by_index`, the entries as a dict;
    `names` are the component's element names, read only to print."""

    def __init__(self, items: tuple[tuple[int, int], ...], names: tuple[str, ...]):
        self.items = items
        self.by_index = dict(items)
        self.names = names

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.items == other.items

    def __hash__(self):
        return hash((self.items,))

    def get(self, j: int, zero: int) -> int:
        return self.by_index.get(j, zero)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(k for k, _ in self.items)

    def __str__(self) -> str:
        if not self.items:
            return "{}"
        return "{" + ", ".join(f"{k}: {self.names[v]}" for k, v in self.items) + "}"


WINDOW_CAP = 10_000


class IndexScheme:
    """Shift offsets, embeddings and the active index window.

    Each operation has two non-negative integer offsets, `psi[op] = s`
    and `phi[op] = r`, read as psi(j) = j - s and phi(j) = j + r.  The
    embedding `embed` is a single one-step map, and t^r applies it r
    times; identity when None.  The embedding is given by element names
    and kept as the codes of a `Homomorphism`.  A window of more than
    `WINDOW_CAP` indices is refused.

    The component, the window and the offsets are never mutated after
    construction: `down[op]` is the table of t^r_0 by code over the
    component, which `s_mu` reads.
    """

    def __init__(
        self, component: FinStruct, window: range, psi: dict | None = None, phi: dict | None = None,
        embed: dict | None = None,
    ):
        self.component = component
        self.window = window
        self.psi = {"add": 0, "mul": 0} if psi is None else psi
        self.phi = {"add": 0, "mul": 0} if phi is None else phi
        self.embed = embed
        size = window.stop - window.start
        if size <= 0:
            raise InputError("empty index window")
        if size > WINDOW_CAP:
            raise CapacityError(f"window of {size} indices exceeds the cap {WINDOW_CAP}")
        for op in OPS:
            if op not in self.psi or op not in self.phi:
                raise InputError(f"missing shift maps for operation {op!r}")
            for name, m in (("psi", self.psi[op]), ("phi", self.phi[op])):
                if type(m) is not int or m < 0:
                    raise InputError(f"{name}[{op}] must be a non-negative integer offset, got {m!r}")
        step = tuple(component.elements)
        if self.embed is not None:
            hom = Homomorphism(self.component, self.component, dict(self.embed))
            v = check_homomorphism(hom)
            if not v:
                raise InputError(f"embedding is not a homomorphism: {v.witness}")
            if len(set(self.embed.values())) != len(self.embed):
                raise InputError("embedding must be injective")
            order, step = self.component.order, hom.mapping
            for a in self.component.elements:
                for b in self.component.elements:
                    if order.lt(a, b) and not order.lt(step[a], step[b]):
                        a, b = order.carrier[a], order.carrier[b]
                        raise InputError(f"embedding not strictly monotone at ({a},{b})")
        self.down = {op: tuple(_iterate(step, self.phi[op], a) for a in component.elements) for op in OPS}

    # -- element constructors ------------------------------------------------

    def element(self, mapping: dict) -> SuppElement:
        """The element with these entries, codes by index."""
        zero = self.component.zero
        items = []
        for j, v in sorted(mapping.items()):
            if j not in self.window:
                raise InputError(f"index {j} outside the active window")
            if v not in self.component.elements:
                raise InputError(f"unknown component element {v!r}")
            if v != zero:
                items.append((j, v))
        return SuppElement(tuple(items), self.component.names)

    def all_elements(self, indices=None):
        """Deterministic enumeration of every element supported on the
        given indices (default: the whole window), in increasing order of
        index.  Each element is made from its nonzero entries: the indices
        are checked against the window once, and the values are the
        carrier's codes."""
        indices = sorted(set(self.window if indices is None else indices))
        outside = [j for j in indices if j not in self.window]
        if outside:
            raise InputError(f"index {min(outside)} outside the active window")
        zero, names = self.component.zero, self.component.names
        for values in product(self.component.elements, repeat=len(indices)):
            yield SuppElement(tuple((j, v) for j, v in zip(indices, values) if v != zero), names)


def _iterate(step: tuple, r: int, a: int) -> int:
    """step applied r times to a.  The embedding permutes the finite
    carrier, so r is read modulo the length of a's cycle."""
    cycle = [a]
    while step[cycle[-1]] != a:
        cycle.append(step[cycle[-1]])
    return cycle[r % len(cycle)]


def s_mu(op: str, y: SuppElement, z: SuppElement, scheme: IndexScheme) -> SuppElement:
    """One product operation: the value at psi(j) = j - s combines y at j
    with z read at phi(j) = j + r and embedded by t^r.  Zero results are
    dropped, so the output is canonical.  Only y's support and the window
    indices k - r for k in z's support are visited, in increasing order,
    so the entries come out sorted."""
    if op not in OPS:
        raise InputError(f"unknown operation {op!r}")
    K = scheme.component
    zero = K.zero
    table = K.add if op == "add" else K.mul
    s, r, down = scheme.psi[op], scheme.phi[op], scheme.down[op]
    lo, hi = scheme.window.start, scheme.window.stop
    ys, zs = y.by_index, z.by_index
    items = []
    for j in sorted(set(ys).union([k - r for k in zs if lo + r <= k < hi + r])):
        if not lo <= j < hi:
            raise CapacityError(f"support index {j} outside the active window")
        target = j - s
        if target < lo:
            raise CapacityError(f"shifted index psi({j}) = {target} escapes the window")
        value = table[ys.get(j, zero)][down[zs.get(j + r, zero)]]
        if value != zero:
            items.append((target, value))
    return SuppElement(tuple(items), K.names)


class SearchResult:
    def __init__(self, witness: tuple | None, tested: int, diff_index: int | None = None):
        self.witness = witness
        self.tested = tested
        self.diff_index = diff_index

    @property
    def found(self) -> bool:
        return self.witness is not None


def find_nonassoc_witness(scheme: IndexScheme, budget: int) -> SearchResult:
    """Search for (a,b,c) where the two association orders of mul differ,
    over at most `budget` triples of the sample, `a` outermost.

    Every triple scanned counts in `tested`, but `s_mu` runs only on
    triples whose three operands are nonzero: a zero operand makes both
    orders zero or escape (see the module docstring).  The sample's first
    element is zero, so its first len(sample)**2 triples are counted, not
    evaluated.

    Requires the phi shift of mul to actually move indices (the
    construction degenerates to the plain product otherwise) and at least
    two component elements, so that a difference can show up at all.
    """
    op = "mul"
    if not scheme.phi[op]:
        raise PreconditionError("phi must satisfy j < phi(j) for the non-associativity search")
    if len(scheme.component.elements) < 2:
        raise PreconditionError("components must have at least two elements")
    sub = scheme.window[: max(1, len(scheme.window) - 2 * scheme.phi[op])]
    sample = list(islice(scheme.all_elements(sub), 64))
    tested = 0
    for a, b, c in product(sample, repeat=3):
        if tested >= budget:
            break
        tested += 1
        if not (a.items and b.items and c.items):
            continue
        try:
            left = s_mu(op, s_mu(op, a, b, scheme), c, scheme)
            right = s_mu(op, a, s_mu(op, b, c, scheme), scheme)
        except CapacityError:
            continue
        if left != right:
            diff = _first_diff(left, right, scheme)
            return SearchResult((a, b, c, left, right), tested, diff)
    return SearchResult(None, tested)


def _first_diff(y: SuppElement, z: SuppElement, scheme: IndexScheme) -> int:
    zero = scheme.component.zero
    for j in sorted(set(y.support) | set(z.support)):
        if y.get(j, zero) != z.get(j, zero):
            return j
    raise InputError("elements do not differ")
