"""The anti-diagonal transfer: log Z of k non-intersecting paths between
general endpoints.

kpath_scan runs over a (..., W, H) array of per-site log weights whose
leading axes are lanes, each bitwise equal to its unbatched call; it only
adds positive numbers in log space, with the scan's _logaddexp, so nothing
cancels at any spread of the weights.  _check_kpoints owns the endpoint
checks, and _kpath_cells and _check_kpath_cells the state's size and its
cap, environment._LANE_CELLS.  polymer.kpath_logZ draws the weights of the
endpoints' bounding box and runs it; the series/parallel/Jensen test-bed and
the small-size tau oracle polymer.TauTable use it.
"""

from __future__ import annotations

import math

import numpy as np

from . import environment
from .errors import DomainError, NoPathError
from .lattice import KPoint, leq
from .scan import _check_grid, _logaddexp


def _check_kpoints(xs: KPoint, ys: KPoint) -> None:
    if not xs or len(xs) != len(ys):
        raise DomainError("need two k-points of equal length k >= 1")
    for x, y in zip(xs, ys):
        if not leq(x, y):
            raise NoPathError("no path from %s to %s" % (x, y))


def _kpath_cells(xs: KPoint, ys: KPoint) -> int:
    # a lane of the k-path state holds at most prod_i (the widest band of path i) cells
    return math.prod(min(y[0] - x[0], y[1] - x[1]) + 1 for x, y in zip(xs, ys))


def _check_kpath_cells(lanes: int, xs: KPoint, ys: KPoint) -> None:
    cells, cap = lanes * _kpath_cells(xs, ys), environment._LANE_CELLS  # read at call time
    if cells > cap:
        raise DomainError("kpath_scan needs %d cells, above the cap %d" % (cells, cap))


def _advance(state: np.ndarray, axis: int, old: tuple, new: tuple) -> np.ndarray:
    """Move the path of one state axis east or north: the axis covers the
    x1 band old = (lo, hi) and comes out covering new = (lo', hi'), where
    lo' - lo and hi' - hi are 0 or 1; axes before it ride along.  Call it
    under np.errstate(invalid="ignore"), which _logaddexp needs."""
    (lo, hi), (lo2, hi2) = old, new

    def along(start, stop):
        return (slice(None),) * axis + (slice(start, stop),)

    out = np.empty(state.shape[:axis] + (hi2 - lo2 + 1,) + state.shape[axis + 1 :])
    # x1 in [a, b] is reached north from x1 and east from x1 - 1
    a, b = max(lo2, lo + 1), min(hi2, hi)
    _logaddexp(
        state[along(a - lo, b - lo + 1)],
        state[along(a - lo - 1, b - lo)],
        out=out[along(a - lo2, b - lo2 + 1)],
    )
    if lo2 == lo:  # north only
        out[along(0, 1)] = state[along(0, 1)]
    if hi2 > hi:  # east only
        out[along(hi2 - lo2, None)] = state[along(hi - lo, None)]
    return out


def kpath_scan(
    logw: np.ndarray, xs: KPoint, ys: KPoint, include_start: bool = False
) -> float | np.ndarray:
    """log Z of k non-intersecting paths, path i from xs[i] to ys[i], over a
    (..., W, H) array of per-site log weights; logw[..., a, b] belongs to
    site (a, b).  Each lane of the leading axes is bitwise equal to its
    unbatched call, since every operation is elementwise.

    A transfer along anti-diagonals t = x1 + x2.  Path i is on the lattice
    for sum(xs[i]) <= t <= sum(ys[i]), and the state at t is a dense
    log-space array, lanes first, over the x1 positions of the k paths:
    axis i of the last k spans the band of x1 that path i can reach from
    xs[i] and still leave toward ys[i] (the one cell of xs[i] before it
    enters, of ys[i] after it leaves).  A step moves each path on the
    lattice at t and t + 1 east or north, one axis at a time (two shifted
    slices and _logaddexp), adds the weights of anti-diagonal t + 1 and sets
    to -inf every state in which two paths on the lattice share a site.  Two
    paths cannot swap sides without sharing a site, so this sums exactly the
    vertex-disjoint k-tuples of brute_force_kpath_logZ, and only positive
    terms are ever added: nothing cancels, at any spread of the weights.

    Start weights are excluded unless include_start (the tau convention).
    Endpoints with no k-path give -inf.  The state holds at most lanes x
    prod_i (the widest band of path i) <= lanes x W^k cells; more than
    environment._LANE_CELLS raises DomainError (_check_kpath_cells).
    """
    _check_grid(logw, "kpath_scan")
    _check_kpoints(xs, ys)
    k = len(xs)
    lead = logw.shape[:-2]
    w, h = logw.shape[-2:]
    for x, y in zip(xs, ys):
        if min(x) < 0 or y[0] >= w or y[1] >= h:
            raise DomainError("k-points outside the %d x %d weight array" % (w, h))
    _check_kpath_cells(math.prod(lead), xs, ys)
    enter = [x[0] + x[1] for x in xs]
    leave = [y[0] + y[1] for y in ys]

    def band(i, t):
        t = min(max(t, enter[i]), leave[i])
        return max(xs[i][0], t - ys[i][1]), min(ys[i][0], t - xs[i][1])

    def along(i, v):
        return v.reshape(v.shape[:-1] + (1,) * i + (-1,) + (1,) * (k - 1 - i))

    def land(state, t):
        # the weights and the collisions of anti-diagonal t
        live = [i for i in range(k) if enter[i] <= t <= leave[i]]
        pos = {}
        for i in live:
            lo, hi = band(i, t)
            pos[i] = np.arange(lo, hi + 1)
            if t > enter[i] or include_start:
                state += along(i, logw[..., pos[i], t - pos[i]])
        for p, i in enumerate(live):
            for j in live[p + 1 :]:
                if pos[i][0] <= pos[j][-1] and pos[j][0] <= pos[i][-1]:
                    np.copyto(state, -np.inf, where=along(i, pos[i]) == along(j, pos[j]))

    state = np.zeros(lead + (1,) * k)
    t0, t1 = min(enter), max(leave)
    land(state, t0)
    with np.errstate(invalid="ignore"):
        for t in range(t0, t1):
            for i in range(k):
                if enter[i] <= t < leave[i]:
                    state = _advance(state, len(lead) + i, band(i, t), band(i, t + 1))
            land(state, t + 1)
    # every band ends on the single cell of its ys[i]
    return state.reshape(lead)[()]
