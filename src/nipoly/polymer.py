"""Partition functions and free-energy estimators for non-intersecting polymers.

Three engines, none of which subtracts: the anti-diagonal scan
(scan_rectangle) for single paths; geometric RSK (gRSK) for the k-path
partition functions tau of the interface construction, and its tropical twin
for k-path last passage; and the anti-diagonal transfer (kpath_scan,
kpath_logZ) for k non-intersecting paths between general endpoints, which
the series/parallel/Jensen inequality test-bed and the small-size tau
oracle TauTable use.  All three only add, multiply and divide positive
numbers, so nothing cancels.  Brute-force enumeration is kept as the
small-instance oracle.  Every engine takes (..., W, H) log weights whose
leading axes are lanes, each bitwise equal to its unbatched call, and adds
in log space with _logaddexp; np.logaddexp is left only in the logZ_grid
oracle.  single_path_logZ and kpath_logZ take seed lanes as omega_grid
does, so a driver passes all its replicas in one call; kpath_logZ draws
and scans them in lane blocks under its cell cap.

The single-path scan meets in the middle: a forward and a backward scan (the
forward scan of the reversed grid) run as two lanes of one state and meet
on the middle anti-diagonal after about (W + H) / 2 steps.  It adds in a
different order from a sequential corner-to-corner scan, so its log Z can
differ from one in the last bits.

Conventions: Z excludes the starting weights (the energy of a path omits its
start site); the tau partition functions of the interface construction
include them.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.optimize import brentq
from scipy.special import logsumexp

from .environment import UniformField, WeightSpec, _lane_blocks, _mean_stderr, _replica_lanes, omega_grid
from .errors import DomainError, NoPathError
from .lattice import (
    KPoint,
    Point,
    enumerate_kpaths,
    leq,
    macmahon_log_count,
    stack_diag,
    stack_down,
    stack_up,
)
from .special import digamma, trigamma

_FE_STREAM = 0x0F0E
_SANDWICH_STREAM = 0x5A4D
_BOUNDS_STREAM = 0xB0DD


@dataclass
class FreeEnergyEstimate:
    estimate: float
    stderr: float
    n: int
    replicas: int
    values: np.ndarray = dc_field(repr=False, default=None)


# ---------------------------------------------------------------------------
# Dynamic programming scans
# ---------------------------------------------------------------------------


def _logaddexp(a, b, out=None):
    """np.logaddexp(a, b) from numpy's vectorized ufuncs, into out: the
    formula of npy_logaddexp, max(a, b) + log1p(exp(min(a, b) - max(a, b))),
    with numpy's SIMD exp and log1p in place of scalar libm calls.  Within
    2 eps max(1, |result|) of np.logaddexp.  Equal infinities give a NaN gap
    and raise numpy's invalid flag: run it under np.errstate(invalid="ignore"),
    as the scans do once per call.  The clamp sends that NaN gap to
    -inf, so (-inf, -inf) -> -inf and (inf, inf) -> inf; a NaN argument gives
    NaN.  Allocates one temporary, the gap."""
    big = np.maximum(a, b, out=out)
    gap = np.minimum(a, b)
    gap -= big
    np.fmax(gap, -np.inf, out=gap)
    np.exp(gap, out=gap)
    np.log1p(gap, out=gap)
    big += gap
    return big


def scan_rectangle(logw: np.ndarray, combine=_logaddexp, include_start: bool = False):
    """Corner-to-corner scan of a W x H rectangle of per-site log factors.

    combine gives the semiring: the default _logaddexp gives log Z (within
    2 eps per step of np.logaddexp, which also works), np.maximum gives
    last passage.  Its identity must be -inf, the value of every site off
    the rectangle.  Works on (..., W, H) arrays; memory is O(W) per batch
    lane, and logw is read through views, never copied.

    Meet in the middle: every up-right path crosses each anti-diagonal
    once, so with D = (W + H - 3) // 2,

        log Z = (+) over c on diagonal D of F(c) (x) (B(c + e1) (+) B(c + e2)),

    where F(c) sums the paths from the near corner to c (c's weight
    included, the start's only if include_start) and B(c') those from c' to
    the far corner (both weights included).  B is the forward scan of
    logw[..., ::-1, ::-1], whose anti-diagonals span the same rows, so the
    two scans run as the two lanes of a lanes-last state (..., W + 1, 2):
    one combine(south, west, out=buf) call and two adds per step, about
    (W + H) / 2 steps in all, plus one step of the backward lane alone when
    W + H - 3 is odd.  The meeting sum is folded pairwise by halves with
    combine(left, right), which returns a fresh array, so any semiring works
    and no weight is ever subtracted.  All of it runs under
    np.errstate(invalid="ignore").  The sums associate differently from a
    sequential corner-to-corner scan, so the result can differ from one in
    the last bits, max-plus included.
    """
    w, h = logw.shape[-2], logw.shape[-1]
    if w == 0 or h == 0:
        raise DomainError("scan_rectangle needs a nonempty rectangle, got %d x %d" % (w, h))
    lead = logw.shape[:-2]
    # state[..., i + 1, lane] holds row i of the lane's latest anti-diagonal:
    # lane 0 scans logw from (0, 0), lane 1 scans it from (W - 1, H - 1).
    # state[..., 0, :] is the -inf west neighbour of row 0, and the south
    # neighbour of the cell (d, 0) is the untouched -inf at state[..., d + 1, :]
    state = np.full(lead + (w + 1, 2), -np.inf)
    state[..., 1, 0] = logw[..., 0, 0] if include_start else 0.0
    if w == h == 1:
        return state[..., 1, 0]
    state[..., 1, 1] = logw[..., -1, -1]
    buf = np.empty(lead + (w, 2))
    # anti-diagonal d of logw is diagonal h - 1 - d of its column-reversed
    # view, and anti-diagonal d of the reversed grid that of its row-reversed
    fwd = logw[..., :, ::-1].diagonal
    bwd = logw[..., ::-1, :].diagonal
    meet = (w + h - 3) // 2
    with np.errstate(invalid="ignore"):
        for d in range(1, meet + 1):
            lo, hi = max(0, d - h + 1), min(w - 1, d)
            cur = state[..., lo + 1 : hi + 2, :]
            out = buf[..., : hi - lo + 1, :]
            combine(cur, state[..., lo : hi + 1, :], out=out)
            np.add(out[..., 0], fwd(h - 1 - d, -2, -1), out=cur[..., 0])
            np.add(out[..., 1], bwd(h - 1 - d, -2, -1), out=cur[..., 1])
        # the backward lane alone: one more step when w + h - 3 is odd, then,
        # on its diagonal last (diagonal meet of logw), the combine of each
        # cell's two neighbours without the cell's weight
        last = w + h - 2 - meet
        for d in range(meet + 1, last + 1):
            lo, hi = max(0, d - h + 1), min(w - 1, d)
            cur = state[..., lo + 1 : hi + 2, 1]
            out = buf[..., : hi - lo + 1, 1]
            combine(cur, state[..., lo : hi + 1, 1], out=out)
            if d < last:
                np.add(out, bwd(h - 1 - d, -2, -1), out=cur)
        # out[..., k] pairs with the forward cell of row w - 1 - (lo + k)
        t = np.add(out, state[..., w - hi : w - lo + 1, 0][..., ::-1])
        n = hi - lo + 1
        while n > 1:
            half = n // 2
            t[..., :half] = combine(t[..., :half], t[..., n - half : n])
            n -= half
    return t[..., 0]


def logZ_grid(logw: np.ndarray, include_start: bool = False) -> np.ndarray:
    """Full table of log Z from the corner to every cell of the rectangle."""
    w, h = logw.shape
    g = np.full((w, h), -np.inf)
    g[0, 0] = logw[0, 0] if include_start else 0.0
    for i in range(w):
        for j in range(h):
            if i == 0 and j == 0:
                continue
            south = g[i, j - 1] if j > 0 else -np.inf
            west = g[i - 1, j] if i > 0 else -np.inf
            g[i, j] = np.logaddexp(south, west) + logw[i, j]
    return g


def _lanes(field) -> tuple:
    return () if field is None or isinstance(field, UniformField) else (len(field),)


def _rectangle_logw(field, spec, beta, x: Point, y: Point) -> np.ndarray:
    x1 = np.arange(x[0], y[0] + 1)
    x2 = np.arange(x[1], y[1] + 1)
    if beta == 0.0 or spec is None:
        return np.zeros(_lanes(field) + (x1.size, x2.size))
    logw = omega_grid(field, spec, x1[:, None], x2[None, :])
    logw *= beta
    return logw


def single_path_logZ(
    field: UniformField,
    spec: WeightSpec | None,
    beta: float,
    x: Point,
    y: Point,
    include_start: bool = False,
) -> float | np.ndarray:
    """log Z for the single-pair polymer from x to y: a float for a
    UniformField, an array for seed lanes (as in omega_grid).  Start weight
    excluded unless include_start (the tau convention)."""
    if not leq(x, y):
        raise NoPathError("no path from %s to %s" % (x, y))
    logw = _rectangle_logw(field, spec, beta, x, y)
    return scan_rectangle(logw, _logaddexp, include_start)


def _check_kpoints(xs: KPoint, ys: KPoint) -> None:
    if not xs or len(xs) != len(ys):
        raise DomainError("need two k-points of equal length k >= 1")
    for x, y in zip(xs, ys):
        if not leq(x, y):
            raise NoPathError("no path from %s to %s" % (x, y))


def _bounding_box(xs: KPoint, ys: KPoint) -> tuple[Point, Point]:
    x1, x2 = zip(*(xs + ys))
    return (min(x1), min(x2)), (max(x1), max(x2))


def _shift(v: KPoint, origin: Point) -> KPoint:
    return tuple((p[0] - origin[0], p[1] - origin[1]) for p in v)


_KPATH_MAX_CELLS = 2**22


def _kpath_cells(xs: KPoint, ys: KPoint) -> int:
    # a lane of the k-path state holds at most prod_i (the widest band of path i) cells
    return math.prod(min(y[0] - x[0], y[1] - x[1]) + 1 for x, y in zip(xs, ys))


def _check_kpath_cells(lanes: int, xs: KPoint, ys: KPoint) -> None:
    cells = lanes * _kpath_cells(xs, ys)
    if cells > _KPATH_MAX_CELLS:
        raise DomainError("kpath_scan needs %d cells, above the cap %d" % (cells, _KPATH_MAX_CELLS))


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
    prod_i (the widest band of path i) <= lanes x W^k cells; more than 2^22
    raises DomainError (_check_kpath_cells).
    """
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


def kpath_logZ(
    field: UniformField,
    spec: WeightSpec | None,
    beta: float,
    xs: KPoint,
    ys: KPoint,
    include_start: bool = False,
) -> float | np.ndarray:
    """log Z of k non-intersecting paths, path i from xs[i] to ys[i]:
    kpath_scan over an omega_grid call on the bounding box of the
    endpoints; a float for a UniformField, an array for seed lanes.  Seed
    lanes are drawn and scanned one _lane_blocks block at a time under
    _KPATH_MAX_CELLS, so any lane count runs, each lane bitwise its own
    call; only a single lane above the cap raises DomainError, before any
    weight is drawn.  Start weights excluded unless include_start."""
    _check_kpoints(xs, ys)
    _check_kpath_cells(1, xs, ys)
    lo, hi = _bounding_box(xs, ys)
    xs0, ys0 = _shift(xs, lo), _shift(ys, lo)

    def logz(lanes):
        return kpath_scan(_rectangle_logw(lanes, spec, beta, lo, hi), xs0, ys0, include_start)

    if _lanes(field):
        val = np.empty(len(field))
        for block in _lane_blocks(len(field), _kpath_cells(xs, ys), _KPATH_MAX_CELLS):
            val[block] = logz(field[block])
    else:
        val = logz(field)
    if np.any(val == -np.inf):
        raise NoPathError("no k-path between the given k-points")
    return val


def brute_force_kpath_logZ(
    field: UniformField,
    spec: WeightSpec | None,
    beta: float,
    xs: KPoint,
    ys: KPoint,
    cap: int = 100000,
    include_start: bool = False,
) -> float:
    """log of the sum over explicitly enumerated k-paths; the oracle of the
    k-path engines.  The site weights come from one omega_grid call over the
    bounding box of the endpoints."""
    paths = enumerate_kpaths(xs, ys, cap=cap)
    if not paths:
        raise NoPathError("no k-path between the given k-points")
    lo, hi = _bounding_box(xs, ys)
    logw = _rectangle_logw(field, spec, beta, lo, hi)
    logs = []
    for kp in paths:
        sites = [z for comp in kp for z in (comp if include_start else comp[1:])]
        logs.append(sum(float(logw[z[0] - lo[0], z[1] - lo[1]]) for z in sites))
    return float(logsumexp(logs))


# ---------------------------------------------------------------------------
# Geometric RSK and its tropical twin
# ---------------------------------------------------------------------------


# Step plans of shapes up to this many bytes are memoized (N=16 needs 56 KB,
# N=64 3.5 MB, N=256 224 MB); larger shapes build each step as they go.
_PLAN_BUDGET = 1 << 22


def _plan_bytes(n: int, m: int) -> int:
    # sum over cells of min(i, j), closed form, less one per cell: the
    # interior updates; each reads 5 rows and each cell 3
    k, big = min(n, m), max(n, m)
    interior = k * (k + 1) * (3 * big - k + 1) // 6 - n * m
    return np.dtype(np.intp).itemsize * (5 * interior + 3 * n * m)


def _rsk_steps(n: int, m: int):
    """Yield the gather plan (rows, k, kc) of each anti-diagonal of an
    n x m RSK table stored as ((n + 1)(m + 1), lanes).  rows lists the
    N, S, W, E and x rows of the step, in blocks [N | S | W | E | x]: the N,
    W and x blocks hold the k interior entries and then the kc - k cells,
    the S and E blocks only the interior entries.  The x block is also
    where the step writes."""
    w = m + 1
    for d in range(2, n + m + 1):
        # the cells (i, d - i) of one anti-diagonal touch pairwise disjoint
        # diagonals and read only the diagonals between them, so every read
        # of the step precedes its writes
        i = np.arange(max(1, d - m), min(n, d - 1) + 1)
        cell = i * w + (d - i)
        size = np.minimum(i, d - i) - 1  # interior entries of each diagonal
        # the interior of the diagonal ending at cell c is c - s (w + 1),
        # s = 1 .. size
        start = np.cumsum(size) - size
        s = np.arange(1, size.sum() + 1) - np.repeat(start, size)
        a = np.repeat(cell, size) - s * (w + 1)
        x = np.concatenate([a, cell])
        yield np.concatenate([x - w, a + w, x - 1, a + 1, x]), a.size, x.size


@functools.lru_cache(maxsize=8)
def _memo_steps(n: int, m: int) -> tuple:
    steps = tuple(_rsk_steps(n, m))
    for rows, _, _ in steps:
        rows.flags.writeable = False
    return steps


def _rsk(logw: np.ndarray, plus) -> np.ndarray:
    n, m = logw.shape[-2], logw.shape[-1]
    if n == 0 or m == 0:
        raise DomainError("RSK needs at least one row and one column")
    lead = logw.shape[:-2]
    lanes = math.prod(lead)
    # t holds site (a, b) in row a * w + b of an ((n + 1) (m + 1), lanes)
    # table, so every gather copies whole rows of lanes; row and column 0 of
    # the sites are the -inf border, except t[0, 1] = 0, the empty product
    # that the local move at (1, 1) sees
    w = m + 1
    t = np.full((n + 1, w, lanes), -np.inf)
    t[1:, 1:] = np.moveaxis(logw.reshape(lanes, n, m), 0, -1)
    t[0, 1] = 0.0
    t = t.reshape((n + 1) * w, lanes)
    steps = _memo_steps(n, m) if _plan_bytes(n, m) <= _PLAN_BUDGET else _rsk_steps(n, m)
    with np.errstate(invalid="ignore"):
        for rows, k, kc in steps:
            g = t.take(rows, axis=0)
            half = kc + k
            # negate S and E, then one plus over [N | -S] and [W | -E]
            sides = g[: 2 * half].reshape(2, half, lanes)[:, kc:]
            np.negative(sides, out=sides)
            q = plus(g[:half], g[half : 2 * half])
            x = g[2 * half :]
            # interior: plus(N, W) - x - plus(-S, -E); cell: x + plus(N, W)
            np.subtract(q[:k], x[:k], out=q[:k])
            np.subtract(q[:k], q[kc:], out=q[:k])
            np.add(x[k:], q[k:kc], out=q[k:kc])
            t[rows[2 * half :]] = q[:kc]
    out = t.reshape(n + 1, w, lanes)[1:, 1:]
    return np.ascontiguousarray(np.moveaxis(out, -1, 0)).reshape(lead + (n, m))


def grsk(logw: np.ndarray) -> np.ndarray:
    """Geometric RSK of an (..., n, m) array of log weights, in log space.

    logw[..., a-1, b-1] is the log weight of site (a, b).  Each cell (i, j)
    applies the local moves of O'Connell-Seppalainen-Zygouras
    (arXiv:1210.5126) to the diagonal ending at it; cells are visited in
    anti-diagonal order, all cells with the same i + j in one vectorized
    step.  The result is that of the row-major order, bit for bit: cells on
    one anti-diagonal sit on diagonals two apart, so none writes an entry
    another reads or writes, and every order that visits a cell after the
    cells above and left of it gives the same output.

    In weights, an interior entry x of that diagonal becomes
    (x_N + x_W) x_S x_E / (x (x_S + x_E)), where N/W are the entries above
    and left of it and S/E below and right (the first factor is 1 at
    (1, 1)); the cell itself is multiplied by x_N + x_W, with entries
    outside the array counted as 0.  Positive numbers are only multiplied,
    divided and added, so no precision is lost to cancellation.
    Each log(x + y) is _logaddexp, numpy's SIMD exp and log1p, within 2 eps
    per step of np.logaddexp.

    O(n m min(n, m)) work in n + m - 1 vectorized steps.  The table is
    ((n + 1)(m + 1), lanes), lanes of the leading axes last, and each step
    gathers all its reads as whole rows of lanes in one call, from a plan
    of the shape memoized up to _PLAN_BUDGET bytes.  Every operation acts
    on each lane alone, elementwise, so each lane is bitwise equal to its
    unbatched call.  The output is a C-contiguous (..., n, m) array; an
    empty shape (n or m zero) raises DomainError.

    The output T (1-based) holds the k-path partition functions, start
    weights included: sum_{l<k} T[n-l, j-l] is the log partition function
    of k non-intersecting paths from stack_up((1,1), k) to
    stack_down((n, j), k) in the sub-rectangle [1..n] x [1..j], and
    sum_{l<k} T[i-l, m-l] the same for [1..i] x [1..m].
    """
    return _rsk(logw, _logaddexp)


def tropical_rsk(e: np.ndarray) -> np.ndarray:
    """The max-plus twin of grsk (max for logaddexp, min for the harmonic
    term): sum_{l<k} T[n-l, m-l] is the k-path last passage value of the
    (..., n, m) weights e, start weights included (Greene's theorem)."""
    return _rsk(e, np.maximum)


def corner_diagonal_sum(t: np.ndarray, k: int) -> np.ndarray:
    """sum_{l<k} T[n-l, m-l]: the first k entries of the diagonal ending at
    the far corner of an (..., n, m) RSK output; 0 <= k <= min(n, m), else
    DomainError (k = 0 gives 0)."""
    if not 0 <= k <= min(t.shape[-2:]):
        raise DomainError("corner_diagonal_sum needs 0 <= k <= min(n, m), got k = %d" % k)
    return np.diagonal(t[..., ::-1, ::-1], axis1=-2, axis2=-1)[..., :k].sum(axis=-1)


# ---------------------------------------------------------------------------
# tau partition functions (start weights included) and last passage
# ---------------------------------------------------------------------------


def loggamma_rectangle(field, mu: float, width: int, height: int) -> np.ndarray:
    """Log inverse-gamma weights of the sites [1..width] x [1..height];
    entry [a-1, b-1] belongs to site (a, b).  field is a UniformField or
    seed lanes, as in omega_grid."""
    spec = WeightSpec("loggamma", mu=mu)
    x1 = np.arange(1, width + 1)
    x2 = np.arange(1, height + 1)
    return omega_grid(field, spec, x1[:, None], x2[None, :])


_TAU_TABLE_MAX_N = 6


class TauTable:
    """log tau(m, k) and log tau~(m, k) for one environment at size N <= 6,
    from the k-path transfer; the small-size oracle of the gRSK route.

    tau(m, k) is the k-path partition function across the N-wide, m-tall
    rectangle with start weights included: kpath_scan with include_start
    over the N x N weights, which it shares with tau~.  The transfer never
    reads the gRSK pattern, so the two routes check each other.
    """

    def __init__(self, field: UniformField, mu: float, n: int):
        if not 1 <= n <= _TAU_TABLE_MAX_N:
            raise DomainError("TauTable needs 1 <= N <= %d" % _TAU_TABLE_MAX_N)
        self.n = n
        self.mu = mu
        self._logw = loggamma_rectangle(field, mu, n, n)

    def _lookup(self, m: int, k: int, tilde: bool) -> float:
        if k == 0:
            return 0.0
        _check_tau_args(self.n, m, k)
        # entry [a-1, b-1] of the weights belongs to site (a, b)
        end = (m - 1, self.n - 1) if tilde else (self.n - 1, m - 1)
        return kpath_scan(self._logw, stack_up((0, 0), k), stack_down(end, k), include_start=True)

    def log_tau(self, m: int, k: int) -> float:
        """k paths from stack_up((1,1),k) to stack_down((N,m),k)."""
        return self._lookup(m, k, False)

    def log_tau_tilde(self, m: int, k: int) -> float:
        """k paths from stack_up((1,1),k) to stack_down((m,N),k)."""
        return self._lookup(m, k, True)


def _check_tau_args(n: int, m: int, k: int) -> None:
    if not 1 <= k <= m <= n:
        raise DomainError("need 1 <= k <= m <= N")


def _corner_tau(field: UniformField, mu: float, n: int, m: int, k: int, tilde: bool) -> float:
    # the k-path log partition function across the N x m rectangle, or the
    # m x N one for tau~; 0 at k = 0
    if k == 0:
        return 0.0
    _check_tau_args(n, m, k)
    width, height = (m, n) if tilde else (n, m)
    return float(corner_diagonal_sum(grsk(loggamma_rectangle(field, mu, width, height)), k))


def log_tau(field: UniformField, mu: float, n: int, m: int, k: int) -> float:
    """log tau(m, k): k paths from stack_up((1,1),k) to stack_down((N,m),k)
    across the N-wide, m-tall rectangle, start weights included (gRSK)."""
    return _corner_tau(field, mu, n, m, k, False)


def log_tau_tilde(field: UniformField, mu: float, n: int, m: int, k: int) -> float:
    """log tau~(m, k): k paths from stack_up((1,1),k) to stack_down((m,N),k)
    across the m-wide, N-tall rectangle, start weights included (gRSK)."""
    return _corner_tau(field, mu, n, m, k, True)


def last_passage(field: UniformField, n: int, m: int, k: int = 1) -> float:
    """L^N(m,k): max total of coupled exponential weights over the k-paths
    of the N-wide, m-tall rectangle, start weights included (tau convention).

    One lane of last_passage_batch on field.seed, so the two agree bit for
    bit at any size; the rectangle holds no k-path for k > min(n, m).
    """
    if not 1 <= k <= min(n, m):
        raise DomainError("last_passage needs 1 <= k <= min(n, m)")
    return float(last_passage_batch([field.seed], n, m, k)[0])


def last_passage_batch(seeds: np.ndarray, n: int, m: int, k: int = 1) -> np.ndarray:
    """last_passage(UniformField(s), n, m, k) for each seed s, over one
    batched max-plus scan (k = 1) or tropical RSK (2 <= k <= min(n, m)) over
    the coupled exponential weights e = -log(1 - U) of the seed lanes."""
    if not 1 <= k <= min(n, m):
        raise DomainError("last_passage_batch needs 1 <= k <= min(n, m)")
    e = omega_grid(seeds, WeightSpec("exp1"), np.arange(1, n + 1)[:, None], np.arange(1, m + 1))
    if k == 1:
        return scan_rectangle(e, np.maximum, include_start=True)
    return corner_diagonal_sum(tropical_rsk(e), k)


# ---------------------------------------------------------------------------
# Free energy
# ---------------------------------------------------------------------------


def sepp_free_energy(mu: float, c: float) -> float:
    """Exactly solvable free energy of the inverse-gamma polymer at slope c:
    - sup over theta in (0, mu) of (c psi0(theta) + psi0(mu - theta)).

    The objective is strictly concave (psi1 decreasing), so the stationary
    point is the one root of the derivative, found by brentq.
    """
    if mu <= 0 or c <= 0:
        raise DomainError("sepp_free_energy requires mu > 0, c > 0")

    def deriv(theta: float) -> float:
        return c * trigamma(theta) - trigamma(mu - theta)

    lo, hi = 1e-12 * mu, mu * (1 - 1e-12)
    if not deriv(lo) >= 0.0 >= deriv(hi):
        raise DomainError("sepp_free_energy: stationary theta lies outside (0, mu)")
    # rtol: brentq's finest; xtol: negligible against theta >= 1e-12 mu
    theta = brentq(deriv, lo, hi, xtol=1e-300, rtol=4.0 * np.finfo(float).eps)
    return -(c * digamma(theta) + digamma(mu - theta))


def infinite_temperature_free_energy(c: float) -> float:
    """f_c(0) = (c+1) log(c+1) - c log c."""
    if c <= 0:
        raise DomainError("c > 0 required")
    return (c + 1.0) * math.log(c + 1.0) - c * math.log(c)


def rost_ell(c: float) -> float:
    """Zero-temperature constant for exponential weights: (1 + sqrt(c))^2."""
    return (1.0 + math.sqrt(c)) ** 2


def free_energy_mc(
    spec: WeightSpec,
    beta: float,
    c: float,
    n: int,
    replicas: int,
    seed: int,
) -> FreeEnergyEstimate:
    """Quenched Monte Carlo of (1/N) log Z_(1,1)->(N, cN) over disjoint seed
    streams; averages (1/N) log Z, never the log of averaged Z.  Replica r
    is a single_path_logZ call on UniformField(replica lane r)."""
    lanes = _replica_lanes(seed, _FE_STREAM, replicas)
    m = int(math.floor(c * n))
    vals = np.empty(replicas)
    for r, s in enumerate(lanes):
        vals[r] = single_path_logZ(UniformField(int(s)), spec, beta, (1, 1), (n, m)) / n
    mean, stderr = _mean_stderr(vals)
    return FreeEnergyEstimate(float(mean), float(stderr), n, replicas, vals)


def ineq_theorem_check(mu: float, c: float, cp: float, tol: float = 1e-10) -> dict:
    """Slope-comparison inequalities for the exactly solvable free energy:
    f_c + (c'-c) beta nu <= f_c' <= (c'/c) f_c - ((c'/c) - 1) beta nu,
    with beta nu = -psi0(mu) for the log-gamma log-weight mean."""
    if not 0 < c < cp:
        raise DomainError("need 0 < c < c'")
    beta_nu = -digamma(mu)
    f_c = sepp_free_energy(mu, c)
    f_cp = sepp_free_energy(mu, cp)
    lower = f_c + (cp - c) * beta_nu
    upper = (cp / c) * f_c - (cp / c - 1.0) * beta_nu
    return {
        "f_c": f_c,
        "f_cp": f_cp,
        "lower": lower,
        "upper": upper,
        "ok": lower <= f_cp + tol and f_cp <= upper + tol,
    }


def jensen_sandwich_check(
    spec: WeightSpec,
    beta: float,
    xs: KPoint,
    ys: KPoint,
    replicas: int,
    seed: int,
) -> dict:
    """MC mean of (1/varpi) ln(Z(beta)/Z(0)) against the bracket
    [beta nu, log G(beta)], where varpi counts the environment weights of a
    k-path (start points excluded); the replicas are seed lanes, any number
    of them (kpath_logZ blocks them): only a single lane above the k-path
    cell cap refuses."""
    seeds = _replica_lanes(seed, _SANDWICH_STREAM, replicas)
    varpi = sum(abs(y[0] - x[0]) + abs(y[1] - x[1]) for x, y in zip(xs, ys))
    if varpi == 0:
        raise DomainError("jensen_sandwich_check needs k-paths with at least one step")
    log_z0 = kpath_logZ(None, None, 0.0, xs, ys)
    vals = (kpath_logZ(seeds, spec, beta, xs, ys) - log_z0) / varpi
    mean, stderr = map(float, _mean_stderr(vals))
    lo, hi = beta * spec.nu(), spec.log_mgf(beta)
    return {
        "mean": mean,
        "stderr": stderr,
        "lower": lo,
        "upper": hi,
        "varpi": varpi,
        "ok": (mean >= lo - 3 * stderr) and (mean <= hi + 3 * stderr),
    }


# ---------------------------------------------------------------------------
# Scaled-k counting and the series/parallel bound verifier
# ---------------------------------------------------------------------------


def _Q(u: float) -> float:
    return 0.0 if u == 0.0 else 0.5 * u * u * math.log(u)


def w_limit(c: float, alpha: float) -> float:
    """Scaled infinite-temperature growth constant w(c, alpha)."""
    if not (0 < alpha <= min(c, 1.0)):
        raise DomainError("need 0 < alpha <= min(c, 1)")
    return (
        _Q(1.0 + c - alpha)
        + _Q(1.0 - alpha)
        + _Q(c - alpha)
        + _Q(alpha)
        - _Q(c)
        - _Q(c + 1.0 - 2.0 * alpha)
    )


def scaled_k_check(n: int, c: float, alpha: float) -> dict:
    m = int(math.floor(c * n))
    k = int(math.floor(alpha * n))
    per_site = macmahon_log_count(n, m, k) / (n * n)
    w = w_limit(c, alpha)
    return {"n": n, "macmahon_per_site": per_site, "w": w, "gap": abs(per_site - w)}


def parallel_series_bound_mc(
    spec: WeightSpec,
    beta: float,
    replicas: int,
    seed: int,
    size: int = 4,
    k: int = 2,
) -> dict:
    """Per-sample exact verification of the series, parallel, and Hadamard
    inequalities on a small rectangle; returns the violation counts, which
    must be zero, along with the worst slack observed; the replicas are
    seed lanes, at least 1 and any number of them (kpath_logZ blocks them):
    only a single lane above the k-path cell cap refuses."""
    seeds = _replica_lanes(seed, _BOUNDS_STREAM, replicas, least=1)
    tol = 1e-9
    base = (1, 1)
    xs = stack_up(base, k)
    mid = stack_up((base[0] + size, base[1] + size), k)
    zs = stack_up((base[0] + 2 * size, base[1] + 2 * size), k)
    ysep = stack_up((base[0] + size, base[1] + size), k + 1)
    xsep = stack_up(base, k + 1)
    lz = lambda a, b: kpath_logZ(seeds, spec, beta, a, b)
    z_mid = lz(xs, mid)
    slacks = {
        # series: Z_{x->z} >= Z_{x->y} Z_{y->z} for the nice intermediate
        "series": lz(xs, zs) - (z_mid + lz(mid, zs)),
        # parallel: Z_{x->y} <= Z_{x'->y'} Z_{x''->y''}
        "parallel": lz(xsep[:k], ysep[:k]) + lz(xsep[k:], ysep[k:]) - lz(xsep, ysep),
        # Hadamard analogue: Z <= prod_i Z_{x_i -> y_i}
        "hadamard": sum(single_path_logZ(seeds, spec, beta, a, b) for a, b in zip(xs, mid)) - z_mid,
    }
    violations = {name: int((v < -tol).sum()) for name, v in slacks.items()}
    min_slack = float(min(v.min() for v in slacks.values()))
    return {"violations": violations, "min_slack": min_slack, "replicas": replicas}


def k_linearity_probe(
    spec: WeightSpec, beta: float, c: float, n: int, replicas: int, seed: int
) -> dict:
    """MC comparison of the 2-path rate against twice the 1-path rate along
    diagonal 2-points; the limits satisfy f_c(2) = 2 f_c(1); n >= 1.  The
    replicas are seed lanes, any number of them (kpath_logZ blocks them):
    only a single lane above the cap, (min(n, m) + 1)^2 > 2^22 cells,
    refuses, and it does so before any weight is drawn."""
    if n < 1:
        raise DomainError("k_linearity_probe needs n >= 1")
    seeds = _replica_lanes(seed, 0x2B, replicas)
    m = int(math.floor(c * n))
    xs2 = stack_diag((1, 1), 2)
    ys2 = tuple((p[0] + n, p[1] + m) for p in xs2)
    mean2, se2 = _mean_stderr(kpath_logZ(seeds, spec, beta, xs2, ys2) / n)
    mean1, se1 = _mean_stderr(single_path_logZ(seeds, spec, beta, (1, 1), (1 + n, 1 + m)) / n)
    gap = float(mean2 - 2.0 * mean1)
    sigma = float(math.sqrt(se2**2 + 4.0 * se1**2))
    return {
        "rate_k1": float(mean1),
        "rate_k2": float(mean2),
        "gap": gap,
        "sigma": sigma,
        "ok": abs(gap) <= 3.0 * sigma + 0.05,
    }
