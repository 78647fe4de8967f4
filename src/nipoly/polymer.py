"""Partition functions and free-energy estimators for non-intersecting polymers.

The field layer and the drivers of three engines, none of which subtracts:
the anti-diagonal scan (scan.scan_rectangle) for single paths; geometric
RSK (rsk.grsk) for the k-path partition functions tau of the interface
construction, and its tropical twin (rsk.tropical_rsk) for k-path last
passage; and the anti-diagonal transfer (kpath.kpath_scan) for k
non-intersecting paths between general endpoints, which the
series/parallel/Jensen inequality test-bed and the small-size tau oracle
TauTable use.  All three only add, multiply and divide positive numbers, so
nothing cancels.  Brute-force enumeration is kept here as the small-instance
oracle, and so is logZ_grid, the one user of np.logaddexp.  Every engine
takes (..., W, H) log weights whose leading axes are lanes, each bitwise
equal to its unbatched call, and imports nothing from this module.

single_path_logZ, kpath_logZ, log_tau, log_tau_tilde and last_passage take
seed lanes as omega_grid does, so a driver passes all its replicas in one
call; each has one lane body, run by the field rule of environment
(_on_lanes), in lane blocks under environment._LANE_CELLS.  Every rectangle
is drawn by _site_weights, which refuses a non-finite beta: whole by
_rectangle_logw, or box by box by _rectangle_bands, the band source that
single_path_logZ streams to the scan above environment._CHUNK cells a lane.

Conventions: Z excludes the starting weights (the energy of a path omits its
start site); the tau partition functions of the interface construction
include them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np
from scipy.optimize import brentq
from scipy.special import logsumexp

from . import environment
from .environment import UniformField, WeightSpec, _mean_stderr, _replica_lanes, omega_grid
from .environment import _check_field, _lanes, _on_lanes
from .errors import DomainError, NoPathError
from .kpath import _check_kpath_cells, _check_kpoints, _kpath_cells, kpath_scan
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
from .rsk import _rsk_cells, corner_diagonal_sum, grsk, tropical_rsk
from .scan import _Bands, _band_cells, _logaddexp, scan_rectangle
from .special import digamma, trigamma

_FE_STREAM = 0x0F0E
_SANDWICH_STREAM = 0x5A4D
_BOUNDS_STREAM = 0xB0DD
_KLIN_STREAM = 0x2B
_BOUNDS_K = 2  # the paths of parallel_series_bound_mc
_INEQ_TOL = 1e-10  # the slack ineq_theorem_check allows each inequality


@dataclass
class FreeEnergyEstimate:
    estimate: float
    stderr: float
    n: int
    replicas: int
    values: np.ndarray = dc_field(repr=False, default=None)


# ---------------------------------------------------------------------------
# The field layer, the single-path and k-path drivers and their oracles
# ---------------------------------------------------------------------------


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


def _site_weights(field, spec, beta):
    """(a, b) -> beta omega at the sites (a, b), broadcast integer arrays,
    lanes leading as in omega_grid; zeros for beta 0 or spec None.  A
    non-finite beta raises DomainError."""
    if not math.isfinite(beta):
        raise DomainError("beta must be finite, got %r" % (beta,))
    if beta == 0.0 or spec is None:
        lanes = _lanes(field)
        return lambda a, b: np.zeros(lanes + np.broadcast_shapes(np.shape(a), np.shape(b)))

    def draw(a, b):
        logw = omega_grid(field, spec, a, b)
        logw *= beta
        return logw

    return draw


def _rectangle_logw(field, spec, beta, x: Point, y: Point) -> np.ndarray:
    draw = _site_weights(field, spec, beta)
    return draw(np.arange(x[0], y[0] + 1)[:, None], np.arange(x[1], y[1] + 1)[None, :])


def _rectangle_bands(field, spec, beta, x: Point, y: Point) -> _Bands:
    # the weights of _rectangle_logw, drawn box by box as scan_rectangle reads them
    if not all(isinstance(c, (int, np.integer)) for c in (*x, *y)):
        raise DomainError("a streamed rectangle needs integer corners, got %s and %s" % (x, y))
    draw = _site_weights(field, spec, beta)
    return _Bands(_lanes(field) + (y[0] - x[0] + 1, y[1] - x[1] + 1), x, draw)


def _floor_scaled(c: float, n: int) -> int:
    """floor(c n), as for the slope c of a rectangle or a point t of a grid;
    DomainError where c n is not finite."""
    if not math.isfinite(c * n):
        raise DomainError("need a finite multiple of N = %r, got %r" % (n, c))
    return int(math.floor(c * n))


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
    excluded unless include_start (the tau convention).  A rectangle of at
    most environment._CHUNK cells is drawn whole; a larger one is streamed
    to scan_rectangle as a band source, which draws one box of
    anti-diagonals at a time, so its lanes hold no W x H grid.  Both give
    the bytes of the scan of the held grid."""
    if not leq(x, y):
        raise NoPathError("no path from %s to %s" % (x, y))
    w, h = y[0] - x[0] + 1, y[1] - x[1] + 1
    held = w * h <= environment._CHUNK
    weights = _rectangle_logw if held else _rectangle_bands
    logz = lambda lanes: scan_rectangle(weights(lanes, spec, beta, x, y), _logaddexp, include_start)
    return _on_lanes(field, logz, w * h if held else _band_cells(w, h))


def _bounding_box(xs: KPoint, ys: KPoint) -> tuple[Point, Point]:
    x1, x2 = zip(*(xs + ys))
    return (min(x1), min(x2)), (max(x1), max(x2))


def _shift(v: KPoint, origin: Point) -> KPoint:
    return tuple((p[0] - origin[0], p[1] - origin[1]) for p in v)


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
    endpoints; a float for a UniformField, an array for seed lanes, each
    lane bitwise its own call.  A lane counts the larger of its weight and
    k-path state cells in the lane blocks of _on_lanes; only a single lane
    whose state is above the cap raises DomainError, before any weight is
    drawn.  Start weights excluded unless include_start."""
    _check_kpoints(xs, ys)
    _check_kpath_cells(1, xs, ys)
    lo, hi = _bounding_box(xs, ys)
    xs0, ys0 = _shift(xs, lo), _shift(ys, lo)

    def body(lanes):
        val = kpath_scan(_rectangle_logw(lanes, spec, beta, lo, hi), xs0, ys0, include_start)
        if np.any(val == -np.inf):
            raise NoPathError("no k-path between the given k-points")
        return val

    return _on_lanes(field, body, max(_kpath_cells(xs, ys), (hi[0] - lo[0] + 1) * (hi[1] - lo[1] + 1)))


def brute_force_kpath_logZ(
    field: UniformField,
    spec: WeightSpec | None,
    beta: float,
    xs: KPoint,
    ys: KPoint,
    include_start: bool = False,
) -> float:
    """log of the sum over explicitly enumerated k-paths; the oracle of the
    k-path engines.  The site weights come from one omega_grid call over the
    bounding box of the endpoints.  One UniformField or None: seed lanes
    raise DomainError, and kpath_logZ takes them."""
    if field is not None:
        _check_field(field, "brute_force_kpath_logZ", "kpath_logZ")
    paths = enumerate_kpaths(xs, ys)
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
# tau partition functions (start weights included) and last passage
# ---------------------------------------------------------------------------


def loggamma_rectangle(field, mu: float, width: int, height: int) -> np.ndarray:
    """Log inverse-gamma weights of the sites [1..width] x [1..height];
    entry [a-1, b-1] belongs to site (a, b).  field is a UniformField or
    seed lanes (environment._lanes), drawn by _rectangle_logw at beta = 1.
    A negative width or height raises DomainError."""
    if width < 0 or height < 0:
        raise DomainError("loggamma_rectangle needs width, height >= 0, got %r x %r" % (width, height))
    return _rectangle_logw(field, WeightSpec("loggamma", mu=mu), 1.0, (1, 1), (width, height))


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


def _corner_tau(field, mu: float, n: int, m: int, k: int, tilde: bool) -> float | np.ndarray:
    # the k-path log partition function across the N x m rectangle, or the
    # m x N one for tau~; 0 at k = 0
    if k == 0:
        return _on_lanes(field, lambda lanes: np.zeros(len(lanes)), 1)
    _check_tau_args(n, m, k)
    w, h = (m, n) if tilde else (n, m)
    body = lambda lanes: corner_diagonal_sum(grsk(loggamma_rectangle(lanes, mu, w, h)), k)
    return _on_lanes(field, body, _rsk_cells(w, h))


def log_tau(field, mu: float, n: int, m: int, k: int) -> float | np.ndarray:
    """log tau(m, k): k paths from stack_up((1,1),k) to stack_down((N,m),k)
    across the N-wide, m-tall rectangle, start weights included (gRSK).
    field is a UniformField (a float) or seed lanes (an array, each lane
    bitwise its own call), as environment._on_lanes runs them;
    _check_tau_args owns the range of (m, k), and k = 0 gives zeros."""
    return _corner_tau(field, mu, n, m, k, False)


def log_tau_tilde(field, mu: float, n: int, m: int, k: int) -> float | np.ndarray:
    """log tau~(m, k): k paths from stack_up((1,1),k) to stack_down((m,N),k)
    across the m-wide, N-tall rectangle, start weights included (gRSK).
    Fields, lanes and ranges as in log_tau."""
    return _corner_tau(field, mu, n, m, k, True)


def last_passage(field, n: int, m: int, k: int = 1) -> float | np.ndarray:
    """L^N(m,k): max total of coupled exponential weights over the k-paths
    of the N-wide, m-tall rectangle, start weights included (tau convention).

    last_passage_batch, the lane body, owns the route: a UniformField is its
    one lane, a float, so the two agree bit for bit at any size.  Both
    refuse k outside 1 <= k <= min(n, m), zero lanes too (_check_lpp_range).
    """
    _check_lpp_range(n, m, k)
    cells = n * m if k == 1 else _rsk_cells(n, m)  # the scan holds its grid, tropical RSK its table
    return _on_lanes(field, lambda lanes: last_passage_batch(lanes, n, m, k), cells)


def _check_lpp_range(n: int, m: int, k: int) -> None:
    if not 1 <= k <= min(n, m):
        raise DomainError("last_passage_batch needs 1 <= k <= min(n, m)")


def last_passage_batch(seeds: np.ndarray, n: int, m: int, k: int = 1) -> np.ndarray:
    """last_passage(UniformField(s), n, m, k) for each seed s, over one
    batched max-plus scan (k = 1) or tropical RSK (2 <= k <= min(n, m)) over
    the coupled exponential weights e = -log(1 - U) of the seed lanes, drawn
    by _rectangle_logw."""
    _check_lpp_range(n, m, k)
    e = _rectangle_logw(seeds, WeightSpec("exp1"), 1.0, (1, 1), (n, m))
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
    if not 0.0 < c < math.inf:
        raise DomainError("finite c > 0 required")
    return (c + 1.0) * math.log(c + 1.0) - c * math.log(c)


def rost_ell(c: float) -> float:
    """Zero-temperature constant for exponential weights: (1 + sqrt(c))^2, c >= 0."""
    if not c >= 0.0:
        raise DomainError("rost_ell requires c >= 0")
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
    m = _floor_scaled(c, n)
    vals = np.empty(replicas)
    for r, s in enumerate(lanes):
        vals[r] = single_path_logZ(UniformField(int(s)), spec, beta, (1, 1), (n, m)) / n
    mean, stderr = _mean_stderr(vals)
    return FreeEnergyEstimate(float(mean), float(stderr), n, replicas, vals)


def ineq_theorem_check(mu: float, c: float, cp: float) -> dict:
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
        "ok": lower <= f_cp + _INEQ_TOL and f_cp <= upper + _INEQ_TOL,
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
    of them: only a single lane above the k-path cell cap refuses."""
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
    if not (0 < alpha <= min(c, 1.0) and c < math.inf):
        raise DomainError("need 0 < alpha <= min(c, 1) and a finite c")
    return (
        _Q(1.0 + c - alpha)
        + _Q(1.0 - alpha)
        + _Q(c - alpha)
        + _Q(alpha)
        - _Q(c)
        - _Q(c + 1.0 - 2.0 * alpha)
    )


def scaled_k_check(n: int, c: float, alpha: float) -> dict:
    w = w_limit(c, alpha)
    m = int(math.floor(c * n))
    k = int(math.floor(alpha * n))
    per_site = macmahon_log_count(n, m, k) / (n * n)
    return {"n": n, "macmahon_per_site": per_site, "w": w, "gap": abs(per_site - w)}


def parallel_series_bound_mc(
    spec: WeightSpec,
    beta: float,
    replicas: int,
    seed: int,
    size: int = 4,
) -> dict:
    """Per-sample exact verification of the series, parallel, and Hadamard
    inequalities for two paths (_BOUNDS_K) over size x size steps, size >= 1;
    returns the violation counts, which must be zero, along with the worst
    slack observed; the replicas are seed lanes, at least 1 and any number
    of them: only a single lane above the k-path cell cap refuses."""
    if size < 1:
        raise DomainError("parallel_series_bound_mc needs size >= 1, got %r" % (size,))
    seeds = _replica_lanes(seed, _BOUNDS_STREAM, replicas, least=1)
    tol = 1e-9
    k = _BOUNDS_K
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
    replicas are seed lanes, any number of them: only a single lane above
    the cap, (min(n, m) + 1)^2 > 2^22 cells, refuses, and it does so before
    any weight is drawn."""
    if n < 1:
        raise DomainError("k_linearity_probe needs n >= 1")
    seeds = _replica_lanes(seed, _KLIN_STREAM, replicas)
    m = _floor_scaled(c, n)
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
