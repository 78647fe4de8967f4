"""Partition functions and free-energy estimators for non-intersecting polymers.

Exact dynamic programming in log space for single pairs; geometric RSK
(gRSK) for the k-path partition functions tau of the interface
construction, and its tropical twin for k-path last passage; the
series/parallel/Jensen inequality test-bed.  gRSK is the engine: its local
moves only multiply, divide and add positive numbers, so nothing cancels.
Exact LGV determinants (``TauTable``, N <= 6) and brute-force enumeration
are kept as small-instance oracles; LGV determinants in signed log space
(``kpath_logZ_lgv``) still serve the general endpoints of the inequality
test-bed.

Conventions: Z excludes the starting weights (the energy of a path omits its
start site); the tau partition functions of the interface construction
include them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import mpmath
import numpy as np
from scipy.optimize import brentq
from scipy.special import logsumexp

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
from .logspace import LogSigned, logdet
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
    return float(logsumexp(logs))


# ---------------------------------------------------------------------------
# Geometric RSK and its tropical twin
# ---------------------------------------------------------------------------


def _rsk(logw: np.ndarray, plus) -> np.ndarray:
    n, m = logw.shape[-2], logw.shape[-1]
    lead = logw.shape[:-2]
    # t holds site (a, b) at flat index a * w + b of an (n + 1) x (m + 1)
    # table; row and column 0 are the -inf border, except t[0, 1] = 0, the
    # empty product that the local move at (1, 1) sees
    w = m + 1
    t = np.full(lead + (n + 1, w), -np.inf)
    t[..., 1:, 1:] = logw
    t[..., 0, 1] = 0.0
    t = t.reshape(lead + ((n + 1) * w,))
    for d in range(2, n + m + 1):
        # the cells (i, d - i) of one anti-diagonal touch pairwise disjoint
        # diagonals and read only the diagonals between them
        i = np.arange(max(1, d - m), min(n, d - 1) + 1)
        cell = i * w + (d - i)
        size = np.minimum(i, d - i) - 1  # interior entries of each diagonal
        if size.any():
            # the interior of the diagonal ending at cell c is c - s (w + 1),
            # s = 1 .. size
            start = np.cumsum(size) - size
            s = np.arange(1, size.sum() + 1) - np.repeat(start, size)
            a = np.repeat(cell, size) - s * (w + 1)
            t[..., a] = (
                plus(t[..., a - w], t[..., a - 1])
                - t[..., a]
                - plus(-t[..., a + w], -t[..., a + 1])
            )
        t[..., cell] += plus(t[..., cell - w], t[..., cell - 1])
    return t.reshape(lead + (n + 1, w))[..., 1:, 1:]


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
    O(n m min(n, m)) work in n + m - 1 vectorized steps; lanes of the
    leading axes are independent and bitwise equal to unbatched calls.

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


_TAU_TABLE_MAX_N = 6
_TAU_TABLE_DPS = 50


def _leading_minors(rows: list) -> list:
    """The k x k leading minors, k = 1..len(rows), of a square integer
    matrix, exactly, by fraction-free (Bareiss) elimination without pivoting:
    after step k the pivot is the (k+1) x (k+1) leading minor, and every
    division is exact."""
    a = [list(r) for r in rows]
    size = len(a)
    minors = []
    prev = 1
    for k in range(size):
        piv = a[k][k]
        minors.append(piv)
        for r in range(k + 1, size):
            for c in range(k + 1, size):
                a[r][c] = (a[r][c] * piv - a[r][k] * a[k][c]) // prev
        prev = piv
    return minors


def _exact_log_tau_tables(logw: np.ndarray) -> dict:
    """log tau(m, k) and log tau~(m, k), keyed (m, k, False) and (m, k, True),
    for an N x N square of log weights, by LGV determinants without rounding.

    Each weight exp(logw) is taken to _TAU_TABLE_DPS digits, a dyadic
    rational; the pair DP then only adds and multiplies, and the leading
    minors are integer Bareiss eliminations, so both are exact in mpmath's
    exact mode and Python integers.  Hence no cancellation can amplify the
    input rounding, whatever the spread of the weights.
    """
    n = logw.shape[0]
    out = {}
    with mpmath.workdps(_TAU_TABLE_DPS):
        w = [[mpmath.exp(mpmath.mpf(float(v))) for v in row] for row in logw]
        zero = mpmath.mpf(0)
        # z[i][a][b]: paths from (1, i+1) to (a+1, b+1), start excluded
        z = []
        for i in range(n):
            g = [[zero] * n for _ in range(n)]
            g[0][i] = mpmath.mpf(1)
            for a in range(n):
                for b in range(i, n):
                    if a or b > i:
                        s = mpmath.fadd(
                            g[a - 1][b] if a else zero, g[a][b - 1] if b > i else zero, exact=True
                        )
                        g[a][b] = mpmath.fmul(s, w[a][b], exact=True)
            z.append(g)
        for m in range(1, n + 1):
            for tilde in (False, True):
                # rows i = 1..m, end heights m, m-1, .. (N..N-m+1 for tau~):
                # the k x k leading minor is the k-path LGV determinant with
                # its end order reversed
                mat = [
                    [z[i][m - 1][n - 1 - c] if tilde else z[i][n - 1][m - 1 - c] for c in range(m)]
                    for i in range(m)
                ]
                shift = min(x.man_exp[1] for row in mat for x in row if x)
                ints = [
                    [int(x.man_exp[0]) << (x.man_exp[1] - shift) if x else 0 for x in row]
                    for row in mat
                ]
                # the reversal gives minor k the sign (-1)^(k(k-1)/2)
                for k, minor in enumerate(_leading_minors(ints), start=1):
                    log_start = mpmath.fsum(float(v) for v in logw[0, :k])
                    log_det = mpmath.log(abs(minor)) + k * shift * mpmath.ln2
                    out[m, k, tilde] = float(log_start + log_det)
    return out


class TauTable:
    """All log tau(m, k) and log tau~(m, k) for one environment at size
    N <= 6, from exact LGV determinants; the small-size oracle of the gRSK
    route.

    tau(m, k) is the k-path partition function across the N-wide, m-tall
    rectangle with start weights included: the product of the k start
    weights times the LGV determinant of start-excluded pair values.  The
    float log weights are taken as exact and carried to 50 digits, and the
    determinants are formed without rounding (see _exact_log_tau_tables),
    so every value is correct to float precision at any mu.
    """

    def __init__(self, field: UniformField, mu: float, n: int):
        if not 1 <= n <= _TAU_TABLE_MAX_N:
            raise DomainError("TauTable needs 1 <= N <= %d" % _TAU_TABLE_MAX_N)
        self.n = n
        self.mu = mu
        self._log_tau = _exact_log_tau_tables(loggamma_rectangle(field, mu, n, n))

    def _lookup(self, m: int, k: int, tilde: bool) -> float:
        if k == 0:
            return 0.0
        _check_tau_args(self.n, m, k)
        return self._log_tau[m, k, tilde]

    def log_tau(self, m: int, k: int) -> float:
        """k paths from stack_up((1,1),k) to stack_down((N,m),k)."""
        return self._lookup(m, k, False)

    def log_tau_tilde(self, m: int, k: int) -> float:
        """k paths from stack_up((1,1),k) to stack_down((m,N),k)."""
        return self._lookup(m, k, True)


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


def last_passage(field: UniformField, n: int, m: int, k: int = 1) -> float:
    """L^N(m,k): max total of coupled exponential weights over the k-paths
    of the N-wide, m-tall rectangle, start weights included (tau convention).

    k = 1 runs the max-plus scan and 2 <= k <= min(n, m) the tropical RSK,
    both at any size; the rectangle holds no k-path for larger k.
    """
    if not 1 <= k <= min(n, m):
        raise DomainError("last_passage needs 1 <= k <= min(n, m)")
    x1 = np.arange(1, n + 1)
    x2 = np.arange(1, m + 1)
    e = omega_grid(field, WeightSpec("exp1"), x1[:, None], x2[None, :])
    if k == 1:
        return float(scan_rectangle(e, np.maximum, include_start=True))
    return float(corner_diagonal_sum(tropical_rsk(e), k))


def last_passage_batch(seeds: np.ndarray, n: int, m: int, k: int = 1) -> np.ndarray:
    """last_passage(UniformField(s), n, m, k) for each seed s, over one
    batched max-plus scan (k = 1) or tropical RSK (2 <= k <= min(n, m))."""
    from .environment import uniform_many

    if not 1 <= k <= min(n, m):
        raise DomainError("last_passage_batch needs 1 <= k <= min(n, m)")
    x1 = np.arange(1, n + 1)
    x2 = np.arange(1, m + 1)
    u = uniform_many(
        np.asarray(seeds)[:, None, None], x1[None, :, None], x2[None, None, :]
    )
    e = -np.log1p(-u)
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
