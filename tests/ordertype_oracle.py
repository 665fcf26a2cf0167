"""Independent order-type oracle for small ordinal arithmetic.

Ordinals below w^k are realized as concrete well-ordered sets: finite
unions of boxes in N^k under lexicographic order, where each box is a
product of finite ranges and copies of N.  Sums are realized by tagged
concatenation, products by coordinate concatenation (major factor first),
and the order type of a realization is extracted by structural recursion
on the first coordinate: finite segments contribute repeated slice types,
the infinite tail contributes slice-type times omega.

No Cantor-normal-form term manipulation is shared with the library code:
multiplication here never touches exponent arithmetic, and addition only
uses the absorption rule forced by the semantics (lower segments before a
higher one vanish).  Vectors are little-endian level counts: v[i] is the
coefficient of w^i.
"""
from __future__ import annotations

_MEMO: dict = {}


# -- realizations -----------------------------------------------------------


def seg(vec) -> tuple:
    """Boxes realizing the initial segment of N^k below the tuple with the
    given little-endian coefficients."""
    big = tuple(reversed(tuple(vec)))
    k = len(big)
    boxes = []
    for i in range(k):
        if big[i] > 0:
            dims = (
                tuple(("f", big[j], big[j] + 1) for j in range(i))
                + (("f", 0, big[i]),)
                + tuple(("i", 0) for _ in range(i + 1, k))
            )
            boxes.append(dims)
    return tuple(boxes)


def _pad(boxes, width):
    return tuple(box + (("f", 0, 1),) * (width - len(box)) for box in boxes)


def concat(r1, r2) -> tuple:
    """Realization of the ordered sum: all of r1 before all of r2."""
    width = max([len(b) for b in r1 + r2], default=0)
    first = tuple((("f", 0, 1),) + box for box in _pad(r1, width))
    second = tuple((("f", 1, 2),) + box for box in _pad(r2, width))
    return first + second


def lexprod(major, minor) -> tuple:
    """Realization of the product: one copy of `minor` per element of
    `major`, major coordinates in front."""
    return tuple(b + a for b in major for a in minor)


# -- order-type extraction ----------------------------------------------------


def _contains(dim, value: int) -> bool:
    if dim[0] == "f":
        return dim[1] <= value < dim[2]
    return dim[1] <= value


def otype(boxes) -> tuple:
    """Little-endian coefficient vector of the realization's order type."""
    boxes = tuple(boxes)
    key = boxes
    hit = _MEMO.get(key)
    if hit is not None:
        return hit
    if not boxes:
        result = ()
    elif len(boxes[0]) == 0:
        result = (1,)
    else:
        pts = set()
        has_tail = False
        for box in boxes:
            d = box[0]
            pts.add(d[1])
            if d[0] == "f":
                pts.add(d[2])
            else:
                has_tail = True
        pts = sorted(pts)
        total: tuple = ()
        for a, b in zip(pts, pts[1:]):
            active = tuple(box[1:] for box in boxes if _contains(box[0], a))
            if active:
                total = vec_add(total, vec_repeat(otype(active), b - a))
        if has_tail:
            active = tuple(box[1:] for box in boxes if _contains(box[0], pts[-1]))
            if active:
                total = vec_add(total, vec_omega(otype(active)))
        result = total
    _MEMO[key] = result
    return result


def _deg(vec) -> int:
    for i in range(len(vec) - 1, -1, -1):
        if vec[i]:
            return i
    return -1


def vec_add(s, t) -> tuple:
    """Ordinal addition on coefficient vectors: everything in s strictly
    below the leading level of t is absorbed."""
    d = _deg(t)
    if d < 0:
        return _trim(s)
    out = list(t) + [0] * max(0, len(s) - len(t))
    for i in range(d + 1, len(s)):
        out[i] = s[i]
    if d < len(s):
        out[d] = s[d] + t[d]
    return _trim(out)


def vec_repeat(t, n: int) -> tuple:
    total: tuple = ()
    for _ in range(n):
        total = vec_add(total, t)
    return total


def vec_omega(t) -> tuple:
    """t repeated omega times: the unit one level above t's degree."""
    d = _deg(t)
    if d < 0:
        return ()
    return (0,) * (d + 1) + (1,)


def _trim(vec) -> tuple:
    vec = list(vec)
    while vec and vec[-1] == 0:
        vec.pop()
    return tuple(vec)


# -- the oracle operations ----------------------------------------------------


def oracle_add(u, v) -> tuple:
    return otype(concat(seg(u), seg(v)))


def oracle_mul(u, v) -> tuple:
    # u*v is v copies of u: the major factor is v
    return otype(lexprod(seg(v), seg(u)))


def oracle_cmp(u, v) -> str:
    width = max(len(u), len(v))
    a = tuple(u) + (0,) * (width - len(u))
    b = tuple(v) + (0,) * (width - len(v))
    for i in range(width - 1, -1, -1):
        if a[i] != b[i]:
            return "lt" if a[i] < b[i] else "gt"
    return "eq"


# -- bridge to the library representation -------------------------------------


def ordinal_to_vec(o) -> tuple:
    vec: list[int] = []
    for exp, coeff in o.terms:
        idx = exp.as_int()
        while len(vec) <= idx:
            vec.append(0)
        vec[idx] = coeff
    return _trim(vec)


def vec_to_ordinal(vec):
    from ordalg.ordinals import ZERO, omega_power, ord_add

    total = ZERO
    for i in range(len(vec) - 1, -1, -1):
        if vec[i]:
            total = ord_add(total, omega_power(i, vec[i]))
    return total
