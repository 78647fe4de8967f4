"""Stochastic interfaces built from the inverse-gamma polymer.

phi(i,j), a log ratio of tau partition functions, is exactly the geometric
RSK (gRSK) output pattern of the N x N weight matrix read from the far
corner: phi(i,j) = T[N+1-i, N+1-j].  gRSK is the engine, batched over
environments; the tau tables of ``polymer.TauTable``, from the k-path
transfer, remain only as the small-size oracle (``phi_inversion_residual``).
The law of phi is a Gibbs measure on the N x N square with exponential
interaction along north/east edges, a linear diagonal weight of strength mu,
and a pinning term exp(-phi(N,N)) at the corner, normalized by
Gamma(mu)^(N^2).  The Metropolis sampler targets the same density, giving a
second, independent route to its moments.  Its interaction is
nearest-neighbour, so it scans the square as a checkerboard: all sites of
one colour (parity of i + j) take their Metropolis step at once, then all
sites of the other.  The large-mu tilt theta and its deterministic limit
theta_min (the minimizer of the discrete energy), the small-mu coupling to
last passage, Gelfand-Tsetlin volumes, and the GL(2) Whittaker integral live
here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .environment import UniformField, derive_seed, derive_seeds
from .errors import DomainError
from .lattice import macmahon_log_count
from .polymer import TauTable, corner_diagonal_sum, grsk, last_passage_batch, loggamma_rectangle
from .special import bessel_k0, digamma, log_factorial, log_gamma, log_superfactorial


@dataclass
class InterfaceGrid:
    """Real-valued function on the N x N square; 1-based accessors."""

    n: int
    values: np.ndarray  # shape (n, n); [i-1, j-1] holds phi(i, j)

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=float)
        if self.values.shape != (self.n, self.n):
            raise DomainError("grid shape must be (n, n)")
        if not np.all(np.isfinite(self.values)):
            raise DomainError("interface values must be finite")

    def at(self, i: int, j: int) -> float:
        return float(self.values[i - 1, j - 1])

    def diagonal(self) -> np.ndarray:
        return np.diagonal(self.values).copy()

    def edge_differences(self):
        """Differences phi(y) - phi(x) over the directed north/east edges."""
        v = self.values
        east = v[1:, :] - v[:-1, :]
        north = v[:, 1:] - v[:, :-1]
        return east, north


# ---------------------------------------------------------------------------
# The polymer construction of phi
# ---------------------------------------------------------------------------


def _phi_batch(fields, mu: float, n: int) -> np.ndarray:
    """phi for each field, stacked along a leading axis: one batched gRSK
    call, phi(i, j) = T[N+1-i, N+1-j]."""
    logw = np.stack([loggamma_rectangle(f, mu, n, n) for f in fields])
    phi = grsk(logw)[..., ::-1, ::-1]
    if not np.all(np.isfinite(phi)):
        raise DomainError("interface values must be finite")
    return phi


def build_phi(field: UniformField, mu: float, n: int) -> InterfaceGrid:
    """phi(i,j) = log(tau(N-j+i, i) / tau(N-j+i, i-1)) above the diagonal
    and the tilde version below it, read off the gRSK pattern of the
    N x N weights; no determinant is formed, so no precision is lost."""
    return InterfaceGrid(n, _phi_batch([field], mu, n)[0])


def phi_inversion_residual(field: UniformField, mu: float, n: int) -> float:
    """max over (m, k) of |sum_{i<=k} phi(i, N-m+i) - log tau(m, k)|.

    The left side comes from gRSK and the right from the k-path transfer
    (TauTable, N <= 6), so this identity pins the two routes together;
    residuals reflect only float rounding.
    """
    t = TauTable(field, mu, n)
    grid = build_phi(field, mu, n)
    worst = 0.0
    for m in range(1, n + 1):
        for k in range(1, m + 1):
            s = sum(grid.at(i, n - m + i) for i in range(1, k + 1))
            worst = max(worst, abs(s - t.log_tau(m, k)))
    return worst


def interface_log_density(grid: InterfaceGrid, mu: float) -> float:
    """Log of the interface density of Prop-interface form:
    -sum_edges e^(dphi) - mu sum_i phi(i,i) - e^(-phi(N,N)) - N^2 log Gamma(mu)."""
    east, north = grid.edge_differences()
    v = grid.values
    return float(
        -np.exp(east).sum()
        - np.exp(north).sum()
        - mu * np.diagonal(v).sum()
        - math.exp(-v[-1, -1])
        - grid.n**2 * log_gamma(mu)
    )


def _padded(values: np.ndarray) -> np.ndarray:
    """The N x N values inside a border of +inf below/left and -inf
    above/right, so every border edge term exp(phi(y) - phi(x)) is 0."""
    n = values.shape[0]
    p = np.empty((n + 2, n + 2))
    p[0, :] = p[:, 0] = np.inf
    p[-1, :] = p[:, -1] = -np.inf
    p[1:-1, 1:-1] = values
    return p


def _log_density_delta(
    p: np.ndarray, mu: float, i: np.ndarray, j: np.ndarray, new: np.ndarray
) -> np.ndarray:
    """Change in log density when each site (i, j) (0-based) alone moves to
    `new`, for a padded array p (see _padded); only the terms touching the
    site are evaluated.  Each edge term stays a difference of exponentials
    of neighbour gaps, exp(new - nbr) - exp(old - nbr), which cannot
    overflow while the gaps are moderate, whatever the size of phi."""
    w = p.shape[0]
    flat = (i + 1) * w + (j + 1)
    pf = p.reshape(-1)
    old = pf[flat]
    # the south and west neighbours enter as exp(phi - nbr), the north and
    # east ones as exp(nbr - phi)
    nbr = pf[flat + np.array([[-w], [-1], [w], [1]])]
    sign = np.array([[1.0], [1.0], [-1.0], [-1.0]])
    delta = -(np.exp(sign * (new - nbr)) - np.exp(sign * (old - nbr))).sum(axis=0)
    diag = i == j
    delta[diag] -= mu * (new[diag] - old[diag])
    corner = diag & (i == w - 3)
    delta[corner] -= np.exp(-new[corner]) - np.exp(-old[corner])
    return delta


def metropolis_log_accept(
    grid: InterfaceGrid, mu: float, site: tuple[int, int], step: float
) -> float:
    """log acceptance probability of moving phi(site) by step (symmetric
    random-walk proposal): min(0, delta log density)."""
    i, j = np.array([site[0] - 1]), np.array([site[1] - 1])
    delta = _log_density_delta(
        _padded(grid.values), mu, i, j, np.array([grid.at(*site) + step])
    )
    return min(0.0, float(delta[0]))


def _half_sweep(
    p: np.ndarray, mu: float, i: np.ndarray, j: np.ndarray, steps: np.ndarray, log_us: np.ndarray
) -> int:
    """One Metropolis proposal at each of the sites (i, j), which must be
    pairwise non-adjacent, applied at once to the padded array p; returns
    the number accepted."""
    new = p[i + 1, j + 1] + steps
    accept = log_us < _log_density_delta(p, mu, i, j, new)
    p[i[accept] + 1, j[accept] + 1] = new[accept]
    return int(accept.sum())


_GIBBS_STEP = 1.0  # initial proposal scale, tuned during burn-in


def gibbs_sampler(n: int, mu: float, sweeps: int, seed: int, burn_in: int | None = None):
    """Metropolis random-walk chain targeting the interface density, in a
    checkerboard systematic scan; yields one InterfaceGrid snapshot per
    sweep (N^2 updates).

    The interaction is nearest-neighbour, so sites with the same parity of
    i + j never interact: each sweep updates all even sites at once and then
    all odd sites, and each of these half-sweeps equals N^2/2 sequential
    single-site updates.  The proposal scale starts at _GIBBS_STEP and is
    tuned toward 0.3-0.5 acceptance during burn-in.  Chain randomness comes
    from a Philox counter generator on the seed, so runs are reproducible.
    """
    rng = np.random.Generator(np.random.Philox(seed))
    p = _padded(np.full((n, n), -digamma(mu)))
    v = p[1:-1, 1:-1]
    ii, jj = np.indices((n, n))
    colours = [np.nonzero((ii + jj) % 2 == c) for c in (0, 1)]
    half = len(colours[0][0])
    if burn_in is None:
        burn_in = max(10, sweeps // 5)
    step = _GIBBS_STEP
    accepted = 0
    proposed = 0
    for sweep in range(sweeps + burn_in):
        steps = step * (2.0 * rng.random(n * n) - 1.0)
        log_us = np.log(rng.random(n * n))
        for (i, j), part in zip(colours, (slice(None, half), slice(half, None))):
            accepted += _half_sweep(p, mu, i, j, steps[part], log_us[part])
        proposed += n * n
        if sweep < burn_in and (sweep + 1) % 5 == 0:
            rate = accepted / max(proposed, 1)
            if rate < 0.3:
                step *= 0.8
            elif rate > 0.5:
                step *= 1.25
            accepted = proposed = 0
        if sweep >= burn_in:
            yield InterfaceGrid(n, v.copy())


_SOKAL_C = 6.0  # the window stops at the first w >= c tau_w


def integrated_autocorrelation(series: np.ndarray) -> float:
    """Sokal windowed estimate of the integrated autocorrelation time."""
    x = np.asarray(series, dtype=float)
    x = x - x.mean()
    m = len(x)
    if m < 8 or np.allclose(x, 0.0):
        return 1.0
    f = np.fft.rfft(x, n=2 * m)
    acov = np.fft.irfft(f * np.conj(f))[:m] / np.arange(m, 0, -1)
    if acov[0] <= 0:
        return 1.0
    # tau_w = 1 + 2 sum_{t<=w} rho_t for w < m//2; the first w >= c tau_w, else the last
    tau = 1.0 + 2.0 * np.cumsum(acov[1 : m // 2] / acov[0])
    done = np.arange(1, m // 2) >= _SOKAL_C * tau
    return max(float(tau[np.argmax(done) if done.any() else -1]), 1.0)


def gibbs_moments(n: int, mu: float, sweeps: int, seed: int) -> dict:
    """Per-site means, IAT-corrected standard errors, and acceptance rate
    from one Metropolis run."""
    samples = np.empty((sweeps, n, n))
    count = 0
    for grid in gibbs_sampler(n, mu, sweeps, seed):
        samples[count] = grid.values
        count += 1
    flat = samples.reshape(sweeps, n * n)
    means = flat.mean(axis=0)
    stderr = np.empty(n * n)
    iats = np.empty(n * n)
    for s in range(n * n):
        iat = integrated_autocorrelation(flat[:, s])
        iats[s] = iat
        stderr[s] = flat[:, s].std(ddof=1) * math.sqrt(iat / sweeps)
    return {
        "mean": means.reshape(n, n),
        "stderr": stderr.reshape(n, n),
        "iat": iats.reshape(n, n),
        "sweeps": sweeps,
    }


def phi_moments_mc(n: int, mu: float, seeds: int, seed: int) -> dict:
    """Per-site means and standard errors of phi over independent polymer
    environments; the second oracle for the interface law."""
    fields = [UniformField(derive_seed(seed, 0x1F, r)) for r in range(seeds)]
    phis = _phi_batch(fields, mu, n)
    mean = phis.mean(axis=0)
    var = phis.var(axis=0, ddof=1)
    return {"mean": mean, "stderr": np.sqrt(var / seeds), "seeds": seeds}


# ---------------------------------------------------------------------------
# Large-mu tilt and the discrete energy
# ---------------------------------------------------------------------------


def theta_rescale(grid: InterfaceGrid, mu: float) -> InterfaceGrid:
    """theta(i,j) = phi(i,j) + (2N + 1 - i - j) log mu."""
    n = grid.n
    i = np.arange(1, n + 1)
    tilt = (2 * n + 1 - (i[:, None] + i[None, :])) * math.log(mu)
    return InterfaceGrid(n, grid.values + tilt)


def theta_min(n: int) -> InterfaceGrid:
    """The deterministic large-mu limit: for i <= j
    log[(i-1)! (2N-j-i+1)! (2N-j-i)! / ((2N-j)! (N-j)! (N-i)!)],
    extended symmetrically.  Equivalently log of the ratio of path counts
    Gamma(N-j+i, i) / Gamma(N-j+i, i-1)."""
    vals = np.empty((n, n))
    for i in range(1, n + 1):
        for j in range(i, n + 1):
            v = (
                log_factorial(i - 1)
                + log_factorial(2 * n - j - i + 1)
                + log_factorial(2 * n - j - i)
                - log_factorial(2 * n - j)
                - log_factorial(n - j)
                - log_factorial(n - i)
            )
            vals[i - 1, j - 1] = v
            vals[j - 1, i - 1] = v
    return InterfaceGrid(n, vals)


def energy_F(grid: InterfaceGrid) -> float:
    """Discrete energy e^(-theta(N,N)) + sum_diag theta + sum_edges e^(dtheta)."""
    east, north = grid.edge_differences()
    v = grid.values
    return float(
        math.exp(-v[-1, -1])
        + np.diagonal(v).sum()
        + np.exp(east).sum()
        + np.exp(north).sum()
    )


def grad_F(grid: InterfaceGrid) -> InterfaceGrid:
    """Exact gradient of energy_F in the site values."""
    v = grid.values
    n = grid.n
    g = np.zeros_like(v)
    g[np.arange(n), np.arange(n)] += 1.0
    g[-1, -1] -= math.exp(-v[-1, -1])
    east = np.exp(v[1:, :] - v[:-1, :])
    north = np.exp(v[:, 1:] - v[:, :-1])
    g[1:, :] += east
    g[:-1, :] -= east
    g[:, 1:] += north
    g[:, :-1] -= north
    return InterfaceGrid(n, g)


def theta_min_log_count_form(n: int, i: int, j: int) -> float:
    """log(#Gamma(N-j+i, i) / #Gamma(N-j+i, i-1)) for i <= j; the combinatorial
    form of theta_min used as its cross-check."""
    if not 1 <= i <= j <= n:
        raise DomainError("need 1 <= i <= j <= n")
    m = n - j + i
    num = macmahon_log_count(n, m, i)
    den = macmahon_log_count(n, m, i - 1) if i > 1 else 0.0
    return num - den


def large_mu_convergence(n: int, mu_list, seeds: int, seed: int) -> dict:
    """Sup-norm distance of the tilted interface from theta_min per sample,
    for each mu; medians should decrease along an increasing mu_list."""
    tmin = theta_min(n).values
    fields = [UniformField(derive_seed(seed, 0x3C, r)) for r in range(seeds)]
    sup = np.empty((len(mu_list), seeds))
    for a, mu in enumerate(mu_list):
        for r, phi in enumerate(_phi_batch(fields, mu, n)):
            th = theta_rescale(InterfaceGrid(n, phi), mu).values
            sup[a, r] = np.abs(th - tmin).max()
    med = np.median(sup, axis=1)
    return {
        "mu": list(mu_list),
        "sup_norms": sup,
        "medians": med,
        "decreasing": bool(np.all(np.diff(med) < 0)),
        "scaled_by_sqrt_mu": [float(m) * math.sqrt(mu) for m, mu in zip(med, mu_list)],
    }


def small_mu_coupling(n: int, m: int, k: int, mu_list, seeds: int, seed: int) -> dict:
    """Per-seed |mu log tau(m,k) - L(m,k)| with coupled exponential weights,
    for each mu in decreasing order; also returns the samples for
    distributional comparison."""
    if not 1 <= k <= m <= n:
        raise DomainError("need 1 <= k <= m <= N")
    field_seeds = derive_seeds(seed, 0x5C, np.arange(seeds))
    fields = [UniformField(int(s)) for s in field_seeds]
    lvals = last_passage_batch(field_seeds, n, m, k)
    mu_log_tau = np.empty((len(mu_list), seeds))
    for a, mu in enumerate(mu_list):
        logw = np.stack([loggamma_rectangle(f, mu, n, m) for f in fields])
        mu_log_tau[a] = mu * corner_diagonal_sum(grsk(logw), k)
    gaps = np.abs(mu_log_tau - lvals)
    mean_gaps = gaps.mean(axis=1)
    frac_down = [
        float(np.mean(gaps[a + 1] < gaps[a])) for a in range(len(mu_list) - 1)
    ]
    return {
        "mu": list(mu_list),
        "gaps": gaps,
        "mean_gaps": mean_gaps,
        "frac_decreasing": frac_down,
        "mu_log_tau": mu_log_tau,
        "last_passage": lvals,
    }


# ---------------------------------------------------------------------------
# Gelfand-Tsetlin volumes and the GL(2) Whittaker integral
# ---------------------------------------------------------------------------


def is_gt_pattern(tri: dict[tuple[int, int], float], n: int, tol: float = 0.0) -> bool:
    """Interlacing on the triangle {i <= j}: values do not increase along
    north or east steps (the finite-energy set of the hard-monotonicity
    interaction, and what Cauchy interlacing gives the minors process)."""
    for (i, j), v in tri.items():
        if (i + 1, j) in tri and tri[(i + 1, j)] > v + tol:
            return False
        if (i, j + 1) in tri and tri[(i, j + 1)] > v + tol:
            return False
    return True


def gt_volume(lam) -> float:
    """Volume of the Gelfand-Tsetlin polytope with pinned diagonal lam:
    prod_{i<j} (lam_i - lam_j) / H(N) for strictly decreasing lam, else 0."""
    lam = list(lam)
    n = len(lam)
    if any(a <= b for a, b in zip(lam, lam[1:])):
        return 0.0
    log_v = 0.0
    for a in range(n):
        for b in range(a + 1, n):
            log_v += math.log(lam[a] - lam[b])
    return math.exp(log_v - log_superfactorial(n))


def whittaker_gl2_bessel(lam1: float, lam2: float) -> float:
    """GL(2) pattern integral int exp(-e^(phi - lam1) - e^(lam2 - phi)) dphi
    in closed form: centering phi at (lam1 + lam2)/2 shows it equals
    2 K0(2 e^((lam2 - lam1)/2))."""
    return 2.0 * bessel_k0(2.0 * math.exp(0.5 * (lam2 - lam1)))


def whittaker_measure_logdensity(lam, mu: float, n: int) -> float:
    """Log density of the diagonal marginal (the Whittaker measure with
    constant parameter mu) at lam, for n in {1, 2}:
    -e^(-lam_n) - mu sum lam + 2 log g(lam) - n^2 log Gamma(mu)."""
    lam = list(lam)
    if n not in (1, 2) or len(lam) != n:
        raise DomainError("whittaker_measure_logdensity supports n in {1, 2}")
    if n == 1:
        log_g = 0.0
    else:
        log_g = math.log(whittaker_gl2_bessel(lam[0], lam[1]))
    return (
        -math.exp(-lam[-1])
        - mu * sum(lam)
        + 2.0 * log_g
        - n * n * log_gamma(mu)
    )
