"""Lattice geometry, k-point predicates, and exact path counting.

Points are (x1, x2) integer pairs with x1 pointing east and x2 north; a
path moves by unit east/north steps.  Brute-force enumeration of
non-intersecting k-tuples is the universal small-instance oracle against
which the k-path engines are checked.  leading_minors is the one
determinant routine of the package: fraction-free (Bareiss) elimination on
Python integers, so every determinant is exact.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator

from .errors import DomainError, EnumerationCapError
from .special import log_superfactorial

Point = tuple[int, int]
KPoint = tuple[Point, ...]
KPath = tuple[tuple[Point, ...], ...]


def leq(x: Point, y: Point) -> bool:
    """Partial order: x <= y iff both coordinates are <=; equivalent to the
    existence of a single path from x to y."""
    return x[0] <= y[0] and x[1] <= y[1]


def is_nice(v: KPoint) -> bool:
    """True iff each successive point is strictly north and strictly west of
    the previous one, or exactly one unit north of it."""
    for a, b in zip(v, v[1:]):
        strictly_nw = b[1] > a[1] and b[0] < a[0]
        one_up = b == (a[0], a[1] + 1)
        if not (strictly_nw or one_up):
            return False
    return True


def stack_up(x: Point, k: int) -> KPoint:
    """((x), (x + e2), ..., (x + (k-1) e2))."""
    if k < 1:
        raise DomainError("stack size must be >= 1")
    return tuple((x[0], x[1] + i) for i in range(k))


def stack_down(x: Point, k: int) -> KPoint:
    """Stack ending at x: ((x - (k-1) e2), ..., x); the i-th point pairs with
    the i-th point of a stack_up start in a rectangle configuration."""
    if k < 1:
        raise DomainError("stack size must be >= 1")
    return tuple((x[0], x[1] - (k - 1) + i) for i in range(k))


def stack_diag(x: Point, k: int) -> KPoint:
    """((x), (x - e1 + e2), ..., x + (k-1)(-e1 + e2)): the diagonal k-point."""
    if k < 1:
        raise DomainError("stack size must be >= 1")
    return tuple((x[0] - i, x[1] + i) for i in range(k))


def paths_between(x: Point, y: Point) -> Iterator[tuple[Point, ...]]:
    """All single paths from x to y, east steps before north steps, in
    lexicographic order of the step sequence."""
    if not leq(x, y):
        return
    path = [x]

    def rec(cur: Point):
        if cur == y:
            yield tuple(path)
            return
        if cur[0] < y[0]:  # east first
            nxt = (cur[0] + 1, cur[1])
            path.append(nxt)
            yield from rec(nxt)
            path.pop()
        if cur[1] < y[1]:
            nxt = (cur[0], cur[1] + 1)
            path.append(nxt)
            yield from rec(nxt)
            path.pop()

    yield from rec(x)


def enumerate_kpaths(xs: KPoint, ys: KPoint, cap: int = 100000) -> list[KPath]:
    """Complete list of non-intersecting k-tuples of paths, component i from
    xs[i] to ys[i], in deterministic lexicographic order.

    Raises EnumerationCapError as soon as the output would exceed cap;
    never silently truncates.
    """
    k = len(xs)
    if k != len(ys):
        raise DomainError("start and end k-points must have equal length")
    results: list[KPath] = []
    chosen: list[tuple[Point, ...]] = []
    occupied: set[Point] = set()

    def rec(i: int):
        if i == k:
            if len(results) >= cap:
                raise EnumerationCapError(
                    "enumeration exceeds cap=%d k-paths" % cap
                )
            results.append(tuple(chosen))
            return
        for path in paths_between(xs[i], ys[i]):
            pset = set(path)
            if pset & occupied:
                continue
            chosen.append(path)
            occupied.update(pset)
            rec(i + 1)
            occupied.difference_update(pset)
            chosen.pop()

    rec(0)
    return results


def kpath_is_disjoint(path: KPath) -> bool:
    seen: set[Point] = set()
    for comp in path:
        pset = set(comp)
        if pset & seen:
            return False
        seen.update(pset)
    return True


def rectangle_endpoints(n: int, m: int, k: int) -> tuple[KPoint, KPoint]:
    """Stacked endpoints of the k-path family on an n-wide, m-tall rectangle:
    starts stack_up((1,1), k), ends stack_down((n,m), k)."""
    if not 1 <= k <= min(n, m):
        raise DomainError("need 1 <= k <= min(n, m)")
    return stack_up((1, 1), k), stack_down((n, m), k)


def macmahon_log_count(n: int, m: int, k: int) -> float:
    """log of the number of k-paths across an n x m rectangle:
    H(m+n-k) H(k) H(m-k) H(n-k) / (H(m) H(n) H(m+n-2k))."""
    if not 1 <= k <= min(n, m):
        raise DomainError("need 1 <= k <= min(n, m)")
    H = log_superfactorial
    return (
        H(m + n - k) + H(k) + H(m - k) + H(n - k) - H(m) - H(n) - H(m + n - 2 * k)
    )


def _krattenthaler_rhs(k: int, a: int, b: int) -> Fraction:
    """The triple product prod_{r<=k, s<=a, t<=b} (r+s+t-1)/(r+s+t-2), exactly."""
    rhs = Fraction(1)
    for r in range(1, k + 1):
        for s in range(1, a + 1):
            for t in range(1, b + 1):
                rhs *= Fraction(r + s + t - 1, r + s + t - 2)
    return rhs


def krattenthaler_log_rhs(k: int, a: int, b: int) -> float:
    """log of the triple product prod_{r<=k, s<=a, t<=b} (r+s+t-1)/(r+s+t-2),
    for k >= 1 and a, b >= 0; DomainError elsewhere."""
    if not (k >= 1 and a >= 0 and b >= 0):
        raise DomainError("krattenthaler_log_rhs needs k >= 1 and a, b >= 0, got (%r, %r, %r)" % (k, a, b))
    rhs = _krattenthaler_rhs(k, a, b)
    return math.log(rhs.numerator) - math.log(rhs.denominator)


def krattenthaler_check(k: int, a: int, b: int) -> bool:
    """det C(a+b, a+j-i) against the triple-product identity, both exactly:
    an integer Bareiss determinant and a product of fractions."""
    if not (1 <= k <= 8 and 0 <= a <= 8 and 0 <= b <= 8):
        raise DomainError("desk-scale check: 1 <= k <= 8 and 0 <= a, b <= 8")
    mat = [
        [math.comb(a + b, a + j - i) if 0 <= a + j - i <= a + b else 0 for j in range(k)]
        for i in range(k)
    ]
    return leading_minors(mat)[-1] == _krattenthaler_rhs(k, a, b)


def leading_minors(rows: list) -> list:
    """The k x k leading minors, k = 1..len(rows), of a square integer
    matrix, exactly, by fraction-free (Bareiss) elimination: after step k the
    pivot is the (k+1) x (k+1) leading minor, and every division is exact.

    A zero pivot swaps in the first row below it with a nonzero entry in
    its column, r say.  The leading minors of sizes k+1 .. r then vanish (by
    Sylvester's identity their column k is zero), the larger ones change
    sign, and the last entry is always the determinant.
    """
    a = [list(r) for r in rows]
    size = len(a)
    minors = [0] * size
    prev, sign, zero_to = 1, 1, 0
    for k in range(size):
        r = next((i for i in range(k, size) if a[i][k]), None)
        if r is None:
            break  # column k vanishes below the pivots: so does every larger minor
        if r != k:
            a[k], a[r] = a[r], a[k]
            sign, zero_to = -sign, max(zero_to, r)
        piv = a[k][k]
        if k >= zero_to:
            minors[k] = sign * piv
        for i in range(k + 1, size):
            for c in range(k + 1, size):
                a[i][c] = (a[i][c] * piv - a[i][k] * a[k][c]) // prev
        prev = piv
    return minors
