"""Partition functions and free-energy estimators for non-intersecting polymers.

Exact dynamic programming in log space for single pairs; geometric RSK
(gRSK) for the k-path partition functions tau of the interface
construction, and its tropical twin for k-path last passage; the
series/parallel/Jensen inequality test-bed.  gRSK is the engine: its local
moves only multiply, divide and add positive numbers, so nothing cancels.
LGV determinants in signed log space (``TauTable``, ``kpath_logZ_lgv``) and
brute-force enumeration are kept as small-instance oracles; LGV also still
serves the general endpoints of the inequality test-bed.

Conventions: Z excludes the starting weights (the energy of a path omits its
start site); the tau partition functions of the interface construction
include them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .environment import UniformField, WeightSpec, derive_seed, omega_grid
from .errors import DomainError, NoPathError, PrecisionLossError
from .lattice import (
    KPoint,
    Point,
    enumerate_kpaths,
    leq,
    stack_diag,
    stack_up,
)
from .logspace import LogSigned, logdet, logsumexp_stream
from .special import digamma, trigamma

_FE_STREAM = 0x0F0E
_SANDWICH_STREAM = 0x5A4D
_BOUNDS_STREAM = 0xB0DD


@dataclass(frozen=True)
class PartitionQuery:
    """Endpoints plus environment for one partition-function evaluation."""

    xs: KPoint
    ys: KPoint
    beta: float
    spec: WeightSpec | None
    seed: int
    include_start: bool = False

    def field(self) -> UniformField:
        return UniformField(self.seed)


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


def scan_rectangle(logw: np.ndarray, combine=np.logaddexp, include_start: bool = False):
    """Corner-to-corner scan of a W x H rectangle of per-site log factors.

    combine=np.logaddexp gives log Z, np.maximum gives last passage.  Works
    on (..., W, H) arrays, scanning anti-diagonals so every step is a
    vectorized operation; memory is O(W) per batch lane.
    """
    w, h = logw.shape[-2], logw.shape[-1]
    lead = logw.shape[:-2]
    prev = np.full(lead + (w,), -np.inf)
    prev[..., 0] = logw[..., 0, 0] if include_start else 0.0
    for d in range(1, w + h - 1):
        i_lo, i_hi = max(0, d - h + 1), min(w - 1, d)
        idx = np.arange(i_lo, i_hi + 1)
        # south predecessor (i, d-1-i) is valid when 0 <= d-1-i < h
        south = np.where((d - 1 - idx >= 0) & (d - 1 - idx < h), prev[..., idx], -np.inf)
        west = np.full(lead + idx.shape, -np.inf)
        wmask = idx - 1 >= 0
        west[..., wmask] = prev[..., idx[wmask] - 1]
        cur = np.full_like(prev, -np.inf)
        cur[..., idx] = combine(south, west) + logw[..., idx, d - idx]
        prev = cur
    return prev[..., w - 1]


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


def _rectangle_logw(field, spec, beta, x: Point, y: Point) -> np.ndarray:
    w, h = y[0] - x[0] + 1, y[1] - x[1] + 1
    if beta == 0.0 or spec is None:
        return np.zeros((w, h))
    x1 = np.arange(x[0], y[0] + 1)
    x2 = np.arange(x[1], y[1] + 1)
    return beta * omega_grid(field, spec, x1[:, None], x2[None, :])


def single_path_logZ(
    field: UniformField,
    spec: WeightSpec | None,
    beta: float,
    x: Point,
    y: Point,
    include_start: bool = False,
) -> float:
    """log Z for the single-pair polymer from x to y.

    Start weight excluded unless include_start (the tau convention).
    """
    if not leq(x, y):
        raise NoPathError("no path from %s to %s" % (x, y))
    logw = _rectangle_logw(field, spec, beta, x, y)
    return float(scan_rectangle(logw, np.logaddexp, include_start))


def query_logZ(q: PartitionQuery) -> float:
    if len(q.xs) != 1:
        raise DomainError("query_logZ is the single-path entry point")
    return single_path_logZ(q.field(), q.spec, q.beta, q.xs[0], q.ys[0], q.include_start)


def kpath_logZ_lgv(
    field: UniformField,
    spec: WeightSpec | None,
    beta: float,
    xs: KPoint,
    ys: KPoint,
) -> LogSigned:
    """Non-intersecting k-path log Z as the LGV determinant of pair values.

    Valid for the nice stacked/diagonal endpoint configurations used
    throughout.  The determinant sign must come out positive; anything else
    is catastrophic cancellation and raises PrecisionLossError rather than
    returning a silently wrong value.
    """
    k = len(xs)
    entries = []
    for xi in xs:
        row = []
        for yj in ys:
            if leq(xi, yj):
                row.append(
                    LogSigned(1, single_path_logZ(field, spec, beta, xi, yj))
                )
            else:
                row.append(LogSigned.zero())
        entries.append(row)
    det = logdet(entries)
    if det.sign != 1:
        raise PrecisionLossError(
            "LGV determinant sign %d at k=%d; precision escalation advised"
            % (det.sign, k)
        )
    return det


def brute_force_kpath_logZ(
    field: UniformField,
    spec: WeightSpec | None,
    beta: float,
    xs: KPoint,
    ys: KPoint,
    cap: int = 100000,
    include_start: bool = False,
) -> float:
    """log of the sum over explicitly enumerated k-paths; the LGV oracle."""
    paths = enumerate_kpaths(xs, ys, cap=cap)
    if not paths:
        raise NoPathError("no k-path between the given k-points")
    logs = []
    for kp in paths:
        total = 0.0
        if beta != 0.0 and spec is not None:
            for comp in kp:
                sites = comp if include_start else comp[1:]
                for z in sites:
                    total += float(omega_grid(field, spec, z[0], z[1]))
        logs.append(beta * total)
    return logsumexp_stream(logs)


# ---------------------------------------------------------------------------
# Geometric RSK and its tropical twin
# ---------------------------------------------------------------------------


def _rsk(logw: np.ndarray, plus) -> np.ndarray:
    n, m = logw.shape[-2], logw.shape[-1]
    # t[..., a, b] holds site (a, b); row and column 0 are the -inf border,
    # except t[0, 1] = 0, the empty product that the local move at (1, 1) sees
    t = np.full(logw.shape[:-2] + (n + 1, m + 1), -np.inf)
    t[..., 1:, 1:] = logw
    t[..., 0, 1] = 0.0
    for i in range(1, n + 1):
        for j in range(1, m + 1):
            a = np.arange(i - 1, i - min(i, j), -1)  # interior of the diagonal
            if a.size:
                b = a + (j - i)
                t[..., a, b] = (
                    plus(t[..., a - 1, b], t[..., a, b - 1])
                    - t[..., a, b]
                    - plus(-t[..., a + 1, b], -t[..., a, b + 1])
                )
            t[..., i, j] += plus(t[..., i - 1, j], t[..., i, j - 1])
    return t[..., 1:, 1:]


def grsk(logw: np.ndarray) -> np.ndarray:
    """Geometric RSK of an (..., n, m) array of log weights, in log space.

    logw[..., a-1, b-1] is the log weight of site (a, b).  Cells (i, j) are
    visited in row-major order, and each applies the local moves of
    O'Connell-Seppalainen-Zygouras (arXiv:1210.5126) to the diagonal ending
    at it.  In weights, an interior entry x of that diagonal becomes
    (x_N + x_W) x_S x_E / (x (x_S + x_E)), where N/W are the entries above
    and left of it and S/E below and right (the first factor is 1 at
    (1, 1)); the cell itself is multiplied by x_N + x_W, with entries
    outside the array counted as 0.  Positive numbers are only multiplied,
    divided and added, so no precision is lost to cancellation.
    O(n m min(n, m)) work; lanes of the leading axes are independent and
    bitwise equal to unbatched calls.

    The output T (1-based) holds the k-path partition functions, start
    weights included: sum_{l<k} T[n-l, j-l] is the log partition function
    of k non-intersecting paths from stack_up((1,1), k) to
    stack_down((n, j), k) in the sub-rectangle [1..n] x [1..j], and
    sum_{l<k} T[i-l, m-l] the same for [1..i] x [1..m].
    """
    return _rsk(logw, np.logaddexp)


def tropical_rsk(e: np.ndarray) -> np.ndarray:
    """The max-plus twin of grsk (max for logaddexp, min for the harmonic
    term): sum_{l<k} T[n-l, m-l] is the k-path last passage value of the
    (..., n, m) weights e, start weights included (Greene's theorem)."""
    return _rsk(e, np.maximum)


def corner_diagonal_sum(t: np.ndarray, k: int) -> np.ndarray:
    """sum_{l<k} T[n-l, m-l]: the first k entries of the diagonal ending at
    the far corner of an (..., n, m) RSK output."""
    return np.diagonal(t[..., ::-1, ::-1], axis1=-2, axis2=-1)[..., :k].sum(axis=-1)


# ---------------------------------------------------------------------------
# tau partition functions (start weights included) and last passage
# ---------------------------------------------------------------------------


def loggamma_rectangle(field: UniformField, mu: float, width: int, height: int) -> np.ndarray:
    """Log inverse-gamma weights of the sites [1..width] x [1..height];
    entry [a-1, b-1] belongs to site (a, b)."""
    spec = WeightSpec("loggamma", mu=mu)
    x1 = np.arange(1, width + 1)
    x2 = np.arange(1, height + 1)
    return omega_grid(field, spec, x1[:, None], x2[None, :])


def _loggamma_dp_grids(field: UniformField, mu: float, width: int, height: int):
    """One DP table per start (1, i): grids[i][a, b] = log Z_(1,i)->(a,b),
    start weight excluded, over the rectangle [1..width] x [i..height]."""
    logw = loggamma_rectangle(field, mu, width, height)
    grids = {}
    for i in range(1, height + 1):
        grids[i] = logZ_grid(logw[:, i - 1 :], include_start=False)
    return logw, grids


class TauTable:
    """All log tau(m, k) and log tau~(m, k) for one environment at size N,
    from LGV determinants; the small-size oracle of the gRSK route.

    tau(m, k) is the k-path partition function across the N-wide, m-tall
    rectangle with start weights included: the product of the k start
    weights times the LGV determinant of start-excluded pair values.
    """

    def __init__(self, field: UniformField, mu: float, n: int):
        self.n = n
        self.mu = mu
        self._logw, self._grids = _loggamma_dp_grids(field, mu, n, n)

    def _log_start_weights(self, k: int) -> float:
        # starts (1, 1) .. (1, k)
        return float(sum(self._logw[0, i] for i in range(k)))

    def _pair_logZ(self, i: int, end: Point) -> LogSigned:
        # log Z_(1,i) -> end, start excluded
        a, b = end
        if b < i or a < 1:
            return LogSigned.zero()
        return LogSigned(1, float(self._grids[i][a - 1, b - i]))

    def _log_tau_generic(self, end_col: int, m: int, k: int) -> float:
        if k == 0:
            return 0.0
        if not 1 <= k <= m <= self.n:
            raise DomainError("need 1 <= k <= m <= N")
        mat = [
            [self._pair_logZ(i, (end_col, m - k + j)) for j in range(1, k + 1)]
            for i in range(1, k + 1)
        ]
        det = logdet(mat)
        if det.sign != 1:
            raise PrecisionLossError("tau determinant lost its sign")
        return self._log_start_weights(k) + det.logmag

    def log_tau(self, m: int, k: int) -> float:
        """k paths from stack_up((1,1),k) to stack_down((N,m),k)."""
        return self._log_tau_generic(self.n, m, k)

    def log_tau_tilde(self, m: int, k: int) -> float:
        """k paths from stack_up((1,1),k) to stack_down((m,N),k)."""
        if k == 0:
            return 0.0
        if not 1 <= k <= m <= self.n:
            raise DomainError("need 1 <= k <= m <= N")
        mat = [
            [self._pair_logZ(i, (m, self.n - k + j)) for j in range(1, k + 1)]
            for i in range(1, k + 1)
        ]
        det = logdet(mat)
        if det.sign != 1:
            raise PrecisionLossError("tau~ determinant lost its sign")
        return self._log_start_weights(k) + det.logmag


def _check_tau_args(n: int, m: int, k: int) -> None:
    if not 1 <= k <= m <= n:
        raise DomainError("need 1 <= k <= m <= N")


def log_tau(field: UniformField, mu: float, n: int, m: int, k: int) -> float:
    """log tau(m, k): k paths from stack_up((1,1),k) to stack_down((N,m),k)
    across the N-wide, m-tall rectangle, start weights included (gRSK)."""
    if k == 0:
        return 0.0
    _check_tau_args(n, m, k)
    return float(corner_diagonal_sum(grsk(loggamma_rectangle(field, mu, n, m)), k))


def log_tau_tilde(field: UniformField, mu: float, n: int, m: int, k: int) -> float:
    """log tau~(m, k): k paths from stack_up((1,1),k) to stack_down((m,N),k)
    across the m-wide, N-tall rectangle, start weights included (gRSK)."""
    if k == 0:
        return 0.0
    _check_tau_args(n, m, k)
    return float(corner_diagonal_sum(grsk(loggamma_rectangle(field, mu, m, n)), k))


def last_passage(
    field: UniformField, n: int, m: int, k: int = 1, cap: int = 100000
) -> float:
    """L^N(m,k): max total of coupled exponential weights over the k-paths
    of the N-wide, m-tall rectangle, start weights included (tau convention).

    k = 1 runs the max-plus scan and 2 <= k <= min(n, m) the tropical RSK,
    both at any size; larger k enumerates below cap.
    """
    spec = WeightSpec("exp1")
    if 1 <= k <= min(n, m):
        x1 = np.arange(1, n + 1)
        x2 = np.arange(1, m + 1)
        e = omega_grid(field, spec, x1[:, None], x2[None, :])
        if k == 1:
            return float(scan_rectangle(e, np.maximum, include_start=True))
        return float(corner_diagonal_sum(tropical_rsk(e), k))
    xs = stack_up((1, 1), k)
    ys = tuple((n, m - (k - 1) + i) for i in range(k))
    best = -math.inf
    for kp in enumerate_kpaths(xs, ys, cap=cap):
        total = 0.0
        for comp in kp:
            for z in comp:
                total += float(omega_grid(field, spec, z[0], z[1]))
        best = max(best, total)
    return best


def last_passage_batch(seeds: np.ndarray, n: int, m: int) -> np.ndarray:
    """k=1 last passage over independent environments, one per seed."""
    from .environment import uniform_many

    x1 = np.arange(1, n + 1)
    x2 = np.arange(1, m + 1)
    u = uniform_many(
        np.asarray(seeds)[:, None, None], x1[None, :, None], x2[None, None, :]
    )
    e = -np.log1p(-u)
    return scan_rectangle(e, np.maximum, include_start=True)


# ---------------------------------------------------------------------------
# Free energy
# ---------------------------------------------------------------------------


def sepp_free_energy(mu: float, c: float) -> float:
    """Exactly solvable free energy of the inverse-gamma polymer at slope c:
    - sup over theta in (0, mu) of (c psi0(theta) + psi0(mu - theta)).

    The objective is strictly concave (psi1 decreasing), so the stationary
    point is found by bisection on the derivative.
    """
    if mu <= 0 or c <= 0:
        raise DomainError("sepp_free_energy requires mu > 0, c > 0")

    def deriv(theta: float) -> float:
        return c * trigamma(theta) - trigamma(mu - theta)

    lo, hi = 1e-12 * mu, mu * (1 - 1e-12)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if deriv(mid) > 0:
            lo = mid
        else:
            hi = mid
    theta = 0.5 * (lo + hi)
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
    point: Point = (1, 1),
) -> FreeEnergyEstimate:
    """Quenched Monte Carlo of (1/N) log Z_(1,1)->(N, cN) over disjoint seed
    streams; averages (1/N) log Z, never the log of averaged Z."""
    m = int(math.floor(c * n))
    vals = np.empty(replicas)
    for r in range(replicas):
        f = UniformField(derive_seed(seed, _FE_STREAM, r))
        vals[r] = single_path_logZ(f, spec, beta, point, (point[0] + n - 1, point[1] + m - 1)) / n
    stderr = float(vals.std(ddof=1) / math.sqrt(replicas)) if replicas > 1 else math.inf
    return FreeEnergyEstimate(float(vals.mean()), stderr, n, replicas, vals)


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
    k-path (start points excluded)."""
    varpi = sum(abs(y[0] - x[0]) + abs(y[1] - x[1]) for x, y in zip(xs, ys))
    log_z0 = kpath_logZ_lgv(UniformField(0), None, 0.0, xs, ys).logmag
    vals = np.empty(replicas)
    for r in range(replicas):
        f = UniformField(derive_seed(seed, _SANDWICH_STREAM, r))
        log_zb = kpath_logZ_lgv(f, spec, beta, xs, ys).logmag
        vals[r] = (log_zb - log_z0) / varpi
    mean = float(vals.mean())
    stderr = float(vals.std(ddof=1) / math.sqrt(replicas)) if replicas > 1 else 0.0
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
    from .lattice import macmahon_log_count

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
    must be zero, along with the worst slack observed."""
    tol = 1e-9
    violations = {"series": 0, "parallel": 0, "hadamard": 0}
    min_slack = math.inf
    base = (1, 1)
    xs = stack_up(base, k)
    mid = stack_up((base[0] + size, base[1] + size), k)
    zs = stack_up((base[0] + 2 * size, base[1] + 2 * size), k)
    ysep = stack_up((base[0] + size, base[1] + size), k + 1)
    xsep = stack_up(base, k + 1)
    for r in range(replicas):
        f = UniformField(derive_seed(seed, _BOUNDS_STREAM, r))
        lz = lambda a, b: kpath_logZ_lgv(f, spec, beta, a, b).logmag
        # series: Z_{x->z} >= Z_{x->y} Z_{y->z} for the nice intermediate
        s = lz(xs, zs) - (lz(xs, mid) + lz(mid, zs))
        if s < -tol:
            violations["series"] += 1
        min_slack = min(min_slack, s)
        # parallel: Z_{x->y} <= Z_{x'->y'} Z_{x''->y''}
        whole = lz(xsep, ysep)
        split = lz(xsep[:k], ysep[:k]) + lz(xsep[k:], ysep[k:])
        p = split - whole
        if p < -tol:
            violations["parallel"] += 1
        min_slack = min(min_slack, p)
        # Hadamard analogue: Z <= prod_i Z_{x_i -> y_i}
        prod = sum(
            single_path_logZ(f, spec, beta, xi, yi) for xi, yi in zip(xs, mid)
        )
        hdm = prod - lz(xs, mid)
        if hdm < -tol:
            violations["hadamard"] += 1
        min_slack = min(min_slack, hdm)
    return {"violations": violations, "min_slack": min_slack, "replicas": replicas}


def k_linearity_probe(
    spec: WeightSpec, beta: float, c: float, n: int, replicas: int, seed: int
) -> dict:
    """MC comparison of the 2-path rate against twice the 1-path rate along
    diagonal 2-points; the limits satisfy f_c(2) = 2 f_c(1)."""
    m = int(math.floor(c * n))
    xs2 = stack_diag((1, 1), 2)
    ys2 = tuple((p[0] + n, p[1] + m) for p in xs2)
    one = np.empty(replicas)
    two = np.empty(replicas)
    for r in range(replicas):
        f = UniformField(derive_seed(seed, 0x2B, r))
        one[r] = single_path_logZ(f, spec, beta, (1, 1), (1 + n, 1 + m)) / n
        two[r] = kpath_logZ_lgv(f, spec, beta, xs2, ys2).logmag / n
    se1 = one.std(ddof=1) / math.sqrt(replicas)
    se2 = two.std(ddof=1) / math.sqrt(replicas)
    gap = float(two.mean() - 2.0 * one.mean())
    sigma = float(math.sqrt(se2**2 + 4.0 * se1**2))
    return {
        "rate_k1": float(one.mean()),
        "rate_k2": float(two.mean()),
        "gap": gap,
        "sigma": sigma,
        "ok": abs(gap) <= 3.0 * sigma + 0.05,
    }
