"""The anti-diagonal scan: log Z of a single path, or its last passage,
across a rectangle of per-site log weights.

scan_rectangle takes a (..., W, H) array whose leading axes are lanes, each
bitwise equal to its unbatched call, or a band source (_Bands) that stands
for one.  It only adds positive numbers in log space, with _logaddexp, so
nothing cancels.  The other two engines, geometric RSK (rsk) and the k-path
transfer (kpath), add with the same _logaddexp and refuse an array of fewer
than two axes with the same _check_grid.

The scan meets in the middle: a forward and a backward scan (the forward
scan of the reversed grid) run as two lanes of one state and meet on the
middle anti-diagonal after about (W + H) / 2 steps.  It adds in a different
order from a sequential corner-to-corner scan, so its log Z can differ from
one in the last bits.  It reads a held grid through strided views.  Above
environment._CHUNK cells a lane, polymer.single_path_logZ passes it a band
source (_Bands) instead, which draws boxes of consecutive anti-diagonals of
both lanes, laid out in step order, with one omega_grid call each on the
sheared sites of the box, so no W x H grid is held and the bytes of log Z do
not change.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import environment
from .errors import DomainError
from .lattice import Point


def _check_grid(a: np.ndarray, name: str) -> None:
    if np.ndim(a) < 2:
        raise DomainError("%s needs a (..., W, H) array, got shape %s" % (name, np.shape(a)))


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


@dataclass(frozen=True)
class _Bands:
    """A (..., W, H) array of log weights that scan_rectangle reads a box at
    a time and never holds whole.  draw(a, b) gives the log weights of the
    sites (a, b), broadcast int64 arrays of absolute coordinates, lanes
    leading; near is the site of entry [..., 0, 0].  shape and size are
    those of the array it stands for."""

    shape: tuple
    near: Point
    draw: object

    @property
    def ndim(self) -> int:
        return len(self.shape)

    @property
    def size(self) -> int:
        return math.prod(self.shape)


def _grid_reader(logw: np.ndarray, lanes: tuple):
    """The corner weights of a held (..., W, H) grid, and the adder of
    scan_rectangle's steps, which reads each anti-diagonal through strided
    views, never copied: anti-diagonal d of logw is diagonal H - 1 - d of
    its column-reversed view, and anti-diagonal d of the reversed grid that
    of its row-reversed one."""
    h = logw.shape[-1]
    logw = logw.reshape(lanes + logw.shape[-2:])
    fwd, bwd = logw[..., :, ::-1].diagonal, logw[..., ::-1, :].diagonal

    def add(d, lo, hi, lane, out, cur):
        if lane == 1:
            np.add(out, bwd(h - 1 - d, -2, -1), out=cur)
        else:
            np.add(out[..., 0], fwd(h - 1 - d, -2, -1), out=cur[..., 0])
            np.add(out[..., 1], bwd(h - 1 - d, -2, -1), out=cur[..., 1])

    return (logw[..., 0, 0], logw[..., -1, -1]), add


def _box_depth(w: int, h: int) -> int:
    """Anti-diagonals per box of a band source: the most whose (K, rows, 2)
    box holds at most environment._CHUNK sites a lane, and at least one.
    K anti-diagonals span at most min(W, H + K - 1) rows."""
    cells = environment._CHUNK // 2  # read at call time
    b = h - 1
    return max(1, cells // w, (math.isqrt(b * b + 4 * cells) - b) // 2)


def _band_cells(w: int, h: int) -> int:
    """The cells a lane of the streamed scan holds at its peak: its largest
    box and the scan's state and buffer."""
    depth = _box_depth(w, h)
    return 2 * depth * min(w, h + depth - 1) + 2 * (2 * w + 1)


def _band_reader(bands: _Bands, lanes: tuple, last: int):
    """The corner weights of a band source, and the adder of scan_rectangle's
    steps, which draws the weights in boxes (..., K, rows, 2): K consecutive
    anti-diagonals of both lanes, row i of anti-diagonal d holding site
    (i, d - i) for the forward lane and (W - 1 - i, H - 1 - d + i) for the
    backward one, so each step adds one contiguous (rows, 2) block.  Boxes
    cover the anti-diagonals 0 .. last - 1.  A box's corners off the
    rectangle repeat a site of its edge, so every site drawn is one of the
    rectangle (about 3% of them twice at 1000 x 1000)."""
    w, h = bands.shape[-2:]
    depth = _box_depth(w, h)
    near0, near1 = bands.near
    # shear[k, 2 r + lane] = +-(k - r): the column of row r on the k-th
    # anti-diagonal of a box, from that of row 0 on the first, + for the
    # forward lane and - for the backward one
    rows = min(w, h + depth - 1)
    shear = np.subtract.outer(np.arange(depth), np.repeat(np.arange(rows), 2)) * np.tile([1, -1], rows)

    def box(d0):
        # anti-diagonals d0 .. d1 - 1 of both lanes over rows lo .. hi
        d1 = min(d0 + depth, last)
        lo, hi = max(0, d0 - h + 1), min(w - 1, d1 - 1)
        i = np.arange(lo, hi + 1)
        a = np.stack([near0 + i, near0 + w - 1 - i], axis=-1)
        b = shear[: d1 - d0, : 2 * i.size] + np.tile([near1 + d0 - lo, near1 + h - 1 - d0 + lo], i.size)
        np.clip(b, near1, near1 + h - 1, out=b)
        return bands.draw(a, b.reshape(d1 - d0, -1, 2)).reshape(lanes + (d1 - d0, i.size, 2)), lo, d0, d1

    wts, row0, start, end = box(0)

    def add(d, lo, hi, lane, out, cur):
        nonlocal wts, row0, start, end
        if d == end:
            wts = None  # the spent box goes before the next is drawn
            wts, row0, start, end = box(d)
        np.add(out, wts[..., d - start, lo - row0 : hi - row0 + 1, lane], out=cur)

    # copies, so that the first box is not held for the whole scan
    return (wts[..., 0, 0, 0].copy(), wts[..., 0, 0, 1].copy()), add


def scan_rectangle(logw, combine=_logaddexp, include_start: bool = False):
    """Corner-to-corner scan of a W x H rectangle of per-site log factors.

    combine gives the semiring: the default _logaddexp gives log Z (within
    2 eps per step of np.logaddexp, which also works), np.maximum gives
    last passage.  Its identity must be -inf, the value of every site off
    the rectangle.  Works on (..., W, H) arrays, read through views and
    never copied, or on a band source (_Bands) that stands for one and
    draws its weights a box of anti-diagonals at a time, each step adding
    one contiguous block (_band_reader); single_path_logZ passes one above
    environment._CHUNK cells a lane.  Memory per lane is 2 (2W + 1) cells
    of state and buffer, besides the held grid or a box of about _CHUNK
    sites a lane (_band_cells).

    Meet in the middle: every up-right path crosses each anti-diagonal
    once, so with D = (W + H - 3) // 2,

        log Z = (+) over c on diagonal D of F(c) (x) (B(c + e1) (+) B(c + e2)),

    where F(c) sums the paths from the near corner to c (c's weight
    included, the start's only if include_start) and B(c') those from c' to
    the far corner (both weights included).  B is the forward scan of
    logw[..., ::-1, ::-1], whose anti-diagonals span the same rows, so the
    two scans run as the two lanes of a lanes-last state (..., W + 1, 2):
    one combine(south, west, out=buf) call and the weights' adds per step,
    about (W + H) / 2 steps in all, plus one step of the backward lane
    alone when W + H - 3 is odd.  The meeting sum is folded pairwise by
    halves with combine(left, right), which returns a fresh array, so any
    semiring works and no weight is ever subtracted.  All of it runs under
    np.errstate(invalid="ignore").  The sums associate differently from a
    sequential corner-to-corner scan, so the result can differ from one in
    the last bits, max-plus included.  Each weight is added to the same
    partial sum on both sources, so they give the same bytes.
    """
    _check_grid(logw, "scan_rectangle")
    lead, (w, h) = logw.shape[:-2], logw.shape[-2:]
    if w == 0 or h == 0:
        raise DomainError("scan_rectangle needs a nonempty rectangle, got %d x %d" % (w, h))
    # one lane scans without a lane axis: a ufunc call on (1, n) views costs ~1 us more
    lanes = () if math.prod(lead) == 1 else lead
    meet = (w + h - 3) // 2
    last = w + h - 2 - meet  # the backward lane's last diagonal, which takes no weight
    if isinstance(logw, _Bands):
        (near, far), add = _band_reader(logw, lanes, last)
    else:
        (near, far), add = _grid_reader(logw, lanes)
    # state[..., i + 1, lane] holds row i of the lane's latest anti-diagonal:
    # lane 0 scans logw from (0, 0), lane 1 scans it from (W - 1, H - 1).
    # state[..., 0, :] is the -inf west neighbour of row 0, and the south
    # neighbour of the cell (d, 0) is the untouched -inf at state[..., d + 1, :]
    state = np.full(lanes + (w + 1, 2), -np.inf)
    state[..., 1, 0] = near if include_start else 0.0
    if w == h == 1:
        return state[..., 1, 0].reshape(lead)
    state[..., 1, 1] = far
    buf = np.empty(lanes + (w, 2))
    with np.errstate(invalid="ignore"):
        # both lanes up to the meeting diagonal, then the backward lane alone:
        # one more step when w + h - 3 is odd, then, on its diagonal last
        # (diagonal meet of logw), the combine of each cell's two neighbours
        # without the cell's weight
        for d in range(1, last + 1):
            lo, hi = max(0, d - h + 1), min(w - 1, d)
            lane = slice(None) if d <= meet else 1
            cur = state[..., lo + 1 : hi + 2, lane]
            out = buf[..., : hi - lo + 1, lane]
            combine(cur, state[..., lo : hi + 1, lane], out=out)
            if d < last:
                add(d, lo, hi, lane, out, cur)
        # out[..., k] pairs with the forward cell of row w - 1 - (lo + k)
        t = np.add(out, state[..., w - hi : w - lo + 1, 0][..., ::-1])
        n = hi - lo + 1
        while n > 1:
            half = n // 2
            t[..., :half] = combine(t[..., :half], t[..., n - half : n])
            n -= half
    return t[..., 0].reshape(lead)
