"""The shifted product construction over an integer index line.

Elements are finite-support tuples over copies of one component
structure; the binary operations re-index through a pair of shift maps
per operation and push the right operand through iterated embeddings,
which is what makes the product non-associative as soon as the phi shift
actually moves indices.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice, product

from .errors import CapacityError, IncomparableError, InputError, PreconditionError
from .structures import FinStruct, Homomorphism, check_homomorphism
from .report import Verdict

OPS = ("add", "mul")


@dataclass(frozen=True)
class SuppElement:
    """Finite-support element: stored entries are nonzero, absent means 0.
    Values are looked up through `by_index`, the entries as a dict."""

    items: tuple[tuple[int, str], ...]
    by_index: dict = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "by_index", dict(self.items))

    def get(self, j: int, zero: str) -> str:
        return self.by_index.get(j, zero)

    @property
    def support(self) -> tuple[int, ...]:
        return tuple(k for k, _ in self.items)

    def is_zero(self) -> bool:
        return not self.items

    def __str__(self) -> str:
        if not self.items:
            return "{}"
        return "{" + ", ".join(f"{k}: {v}" for k, v in self.items) + "}"


@dataclass(frozen=True, eq=False)
class IndexScheme:
    """Shift maps, embeddings and the active index window.

    Shifts are given per operation either as non-negative integers
    (psi(j) = j - s, phi(j) = j + r) or as explicit monotone tables over
    the window; integers become tables at construction.  The embedding
    `embed` is a single one-step map applied (j - k) times for t^j_k;
    identity when None.

    The component, the window and the maps are never mutated after
    construction: `phi_inverse[op]` maps phi(j) back to j for j in the
    window (phi is strictly monotone there), `elements` is the component
    carrier as a set, and `plan[op]` holds, for each j in the window,
    psi(j) (None when it escapes the window), phi(j) and the table of
    t^{phi(j)}_j over the component, which `s_mu` reads.
    """

    component: FinStruct
    window: range
    psi: dict = field(default_factory=lambda: {"add": 0, "mul": 0})
    phi: dict = field(default_factory=lambda: {"add": 0, "mul": 0})
    embed: dict | None = None
    phi_inverse: dict = field(init=False, repr=False)
    elements: frozenset = field(init=False, repr=False)
    plan: dict = field(init=False, repr=False)

    def __post_init__(self):
        if len(self.window) == 0:
            raise InputError("empty index window")
        for op in OPS:
            if op not in self.psi or op not in self.phi:
                raise InputError(f"missing shift maps for operation {op!r}")
            self._validate_map(self.psi[op], op, down=True)
            self._validate_map(self.phi[op], op, down=False)
        for name, sign in (("psi", -1), ("phi", 1)):
            tables = {
                op: {j: j + sign * m for j in self.window} if isinstance(m, int) else m
                for op, m in getattr(self, name).items()
            }
            object.__setattr__(self, name, tables)
        inverse = {op: {self.phi[op][j]: j for j in self.window} for op in OPS}
        object.__setattr__(self, "phi_inverse", inverse)
        object.__setattr__(self, "elements", frozenset(self.component.elements))
        if self.embed is not None:
            hom = Homomorphism(self.component, self.component, dict(self.embed))
            v = check_homomorphism(hom)
            if not v:
                raise InputError(f"embedding is not a homomorphism: {v.witness}")
            if len(set(self.embed.values())) != len(self.embed):
                raise InputError("embedding must be injective")
            order = self.component.order
            for a in self.component.elements:
                for b in self.component.elements:
                    if order.lt(a, b) and not order.lt(self.embed[a], self.embed[b]):
                        raise InputError(f"embedding not strictly monotone at ({a},{b})")
        # one embedding table per distance phi(j) - j, shared by every j at that distance
        psi, phi, window = self.psi, self.phi, self.window
        distances = {phi[op][j] - j for op in OPS for j in window}
        down = {d: {a: self.embed_down(d, 0, a) for a in self.elements} for d in distances}

        def step(op, j):
            return psi[op][j] if psi[op][j] in window else None, phi[op][j], down[phi[op][j] - j]

        object.__setattr__(self, "plan", {op: {j: step(op, j) for j in window} for op in OPS})

    def _validate_map(self, m, op, down: bool):
        if isinstance(m, int):
            if m < 0:
                raise InputError(f"{op} shift must be non-negative")
            return
        if not isinstance(m, dict):
            raise InputError("shift map must be an int shift or an explicit table")
        for j in self.window:
            if j not in m:
                raise InputError(f"{op} shift table missing index {j}")
        vals = [m[j] for j in self.window]
        if any(b <= a for a, b in zip(vals, vals[1:])):
            raise InputError(f"{op} shift table must be strictly monotone")
        if down:
            if any(m[j] > j for j in self.window):
                raise InputError(f"psi[{op}] must satisfy psi(j) <= j")
        else:
            if any(m[j] < j for j in self.window):
                raise InputError(f"phi[{op}] must satisfy j <= phi(j)")

    def psi_at(self, op: str, j: int) -> int:
        return self.psi[op][j]

    def phi_at(self, op: str, j: int) -> int:
        return self.phi[op][j]

    def phi_moves(self, op: str) -> bool:
        return any(self.phi[op][j] > j for j in self.window)

    def embed_down(self, j: int, k: int, a: str) -> str:
        """t^j_k(a): push a from level j down to level k <= j."""
        if k > j:
            raise InputError("embeddings only go downward in index")
        if self.embed is None:
            return a
        for _ in range(j - k):
            a = self.embed[a]
        return a

    # -- element constructors ------------------------------------------------

    def element(self, mapping: dict) -> SuppElement:
        zero = self.component.zero
        items = []
        for j, v in sorted(mapping.items()):
            if j not in self.window:
                raise InputError(f"index {j} outside the active window")
            if v not in self.elements:
                raise InputError(f"unknown component element {v!r}")
            if v != zero:
                items.append((j, v))
        return SuppElement(tuple(items))

    def all_elements(self, indices=None):
        """Deterministic enumeration of every element supported on the
        given indices (default: the whole window)."""
        indices = tuple(self.window if indices is None else indices)
        for values in product(self.component.elements, repeat=len(indices)):
            yield self.element(dict(zip(indices, values)))


def s_mu(op: str, y: SuppElement, z: SuppElement, scheme: IndexScheme) -> SuppElement:
    """One product operation: the value at psi(j) combines y at j with the
    embedded z value read at phi(j).  Zero results are dropped, so the
    output is canonical.  Only y's support and the window indices that
    phi sends into z's support are visited, in increasing order, so the
    entries come out sorted (psi is strictly monotone)."""
    if op not in OPS:
        raise InputError(f"unknown operation {op!r}")
    K = scheme.component
    zero = K.zero
    table = K.add if op == "add" else K.mul
    ys, zs = y.by_index, z.by_index
    inverse = scheme.phi_inverse[op]
    touched = set(ys).union(inverse[k] for k in zs if k in inverse)
    plan = scheme.plan[op]
    items = []
    for j in sorted(touched):
        if j not in plan:
            raise CapacityError(f"support index {j} outside the active window")
        target, pj, down = plan[j]
        if target is None:
            raise CapacityError(f"shifted index psi({j}) = {scheme.psi_at(op, j)} escapes the window")
        value = table[(ys.get(j, zero), down[zs.get(pj, zero)])]
        if value != zero:
            items.append((target, value))
    return SuppElement(tuple(items))


def componentwise_leq(y: SuppElement, z: SuppElement, scheme: IndexScheme) -> bool:
    zero = scheme.component.zero
    order = scheme.component.order
    for j in sorted(set(y.support) | set(z.support)):
        if not order.leq(y.get(j, zero), z.get(j, zero)):
            return False
    return True


def lex_compare(y: SuppElement, z: SuppElement, scheme: IndexScheme) -> str:
    """Lexicographic comparison by the least differing index."""
    zero = scheme.component.zero
    order = scheme.component.order
    for j in sorted(set(y.support) | set(z.support)):
        a, b = y.get(j, zero), z.get(j, zero)
        if a == b:
            continue
        if order.lt(a, b):
            return "lt"
        if order.lt(b, a):
            return "gt"
        raise IncomparableError(f"component values {a!r}, {b!r} incomparable at index {j}", j, a, b)
    return "eq"


@dataclass(frozen=True)
class SearchResult:
    witness: tuple | None
    tested: int
    diff_index: int | None = None

    @property
    def found(self) -> bool:
        return self.witness is not None


def find_nonassoc_witness(op: str, scheme: IndexScheme, budget: int = 1000) -> SearchResult:
    """Search for (a,b,c) where the two association orders differ.

    Requires the phi shift of the operation to actually move indices (the
    construction degenerates to the plain product otherwise) and at least
    two component elements, so that a difference can show up at all.
    """
    if not scheme.phi_moves(op):
        raise PreconditionError("phi must satisfy j < phi(j) for the non-associativity search")
    if len(scheme.component.elements) < 2:
        raise PreconditionError("components must have at least two elements")
    sub = scheme.window[: max(1, len(scheme.window) - 2 * _max_shift(scheme, op))]
    sample = list(islice(scheme.all_elements(sub), 64))
    tested = 0
    for a, b, c in product(sample, repeat=3):
        if tested >= budget:
            break
        tested += 1
        try:
            left = s_mu(op, s_mu(op, a, b, scheme), c, scheme)
            right = s_mu(op, a, s_mu(op, b, c, scheme), scheme)
        except CapacityError:
            continue
        if left != right:
            diff = _first_diff(left, right, scheme)
            return SearchResult((a, b, c, left, right), tested, diff)
    return SearchResult(None, tested)


def _max_shift(scheme: IndexScheme, op: str) -> int:
    return max(scheme.phi[op][j] - j for j in scheme.window)


def _first_diff(y: SuppElement, z: SuppElement, scheme: IndexScheme) -> int:
    zero = scheme.component.zero
    for j in sorted(set(y.support) | set(z.support)):
        if y.get(j, zero) != z.get(j, zero):
            return j
    raise InputError("elements do not differ")


def check_transfer_distributivity(scheme: IndexScheme, side: str, triples) -> Verdict:
    """Distributivity transfer: with identity shifts on add, each side
    that holds in the component holds for the product operations."""
    if any(scheme.psi_at("add", j) != j or scheme.phi_at("add", j) != j for j in scheme.window):
        raise PreconditionError("transfer requires identity shifts for add")
    if side not in ("left", "right"):
        raise InputError(f"unknown side {side!r}")
    law = f"transfer-{side}-dist"

    # right-dist (b+c)a = ba+ca reads as left-dist a(b+c) = ab+ac with
    # the operands of mul flipped
    def mul(y, z):
        return s_mu("mul", z, y, scheme) if side == "right" else s_mu("mul", y, z, scheme)

    for a, b, c in triples:
        lhs = mul(a, s_mu("add", b, c, scheme))
        rhs = s_mu("add", mul(a, b), mul(a, c), scheme)
        if lhs != rhs:
            return Verdict.failed(law, (a, b, c, lhs, rhs))
    return Verdict.passed(law)
