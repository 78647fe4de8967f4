"""Geometric RSK (gRSK) and its tropical twin, in log space.

grsk gives the k-path partition functions tau of the interface
construction (O'Connell-Seppalainen-Zygouras, arXiv:1210.5126), start
weights included; tropical_rsk gives k-path last passage.
corner_diagonal_sum reads either off the far corner of the output.  Both
run one engine, _rsk, over (..., n, m) log weights whose leading axes are
lanes, each bitwise equal to its unbatched call; it only adds, multiplies
and divides positive numbers, so nothing cancels.  _rsk_cells is the peak
memory of a lane, for the lane blocks of environment._on_lanes.
"""

from __future__ import annotations

import functools
import math

import numpy as np

from .errors import DomainError
from .scan import _check_grid, _logaddexp


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
    _check_grid(logw, "RSK")
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


def _rsk_cells(n: int, m: int) -> int:
    """The cells one lane of a gRSK route (grsk of drawn n x m weights and
    what is taken of it) holds at its peak, for the lane blocks of
    _on_lanes: about eight n x m float arrays at once (the weights, the
    table, the gathered rows, the output).  Under tracemalloc, one lane at
    n = m = 48 peaked at 7.8 n m doubles and 64 lanes at 7.4 a lane."""
    return 8 * n * m


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
    DomainError (k = 0 gives 0), as is an array of fewer than two axes."""
    _check_grid(t, "corner_diagonal_sum")
    if not 0 <= k <= min(t.shape[-2:]):
        raise DomainError("corner_diagonal_sum needs 0 <= k <= min(n, m), got k = %d" % k)
    return np.diagonal(t[..., ::-1, ::-1], axis1=-2, axis2=-1)[..., :k].sum(axis=-1)
