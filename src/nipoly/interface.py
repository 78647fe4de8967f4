"""Stochastic interfaces built from the inverse-gamma polymer.

phi(i,j), a log ratio of tau partition functions, is exactly the geometric
RSK (gRSK) output pattern of the N x N weight matrix read from the far
corner: phi(i,j) = T[N+1-i, N+1-j].  gRSK is the engine, batched over
environments: a Monte Carlo driver takes one replica lane per environment
and, for each mu, draws their weights in lane blocks (``environment._on_lanes``)
of ``polymer.loggamma_rectangle`` (``environment.omega_grid``).  The tau
tables of ``polymer.TauTable``, from the k-path transfer, remain only as
the small-size oracle (``phi_inversion_residual``).
The law of phi is a Gibbs measure on the N x N square with exponential
interaction along north/east edges, a linear diagonal weight of strength mu,
and a pinning term exp(-phi(N,N)) at the corner, normalized by
Gamma(mu)^(N^2) (``interface_log_density``).  gRSK is a volume-preserving
bijection that carries the inverse-gamma weights onto this density, so
phi of an environment is an exact draw of the law, and the package samples
it by no other route (``gibbs_sampler``, ``phi_moments_mc``).  ``_phi_batch``
checks each batch of gRSK draws for finiteness once, as a whole block; the
grids handed out from it (``build_phi``, ``gibbs_sampler``) are views of
their block that are not checked again.  The large-mu
tilt theta and its deterministic limit theta_min (the minimizer of the
discrete energy), the small-mu coupling to last passage, Gelfand-Tsetlin
volumes, and the GL(2) Whittaker integral live here too.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .environment import UniformField, _check_field, _lane_blocks, _mean_stderr, _on_lanes, _replica_lanes, derive_seeds
from .errors import DomainError
from .lattice import macmahon_log_count
from .polymer import TauTable, _check_tau_args, last_passage, log_tau, loggamma_rectangle
from .rsk import _rsk_cells, grsk
from .special import _LOG_DBL_MAX, log_bessel_k0, log_factorial, log_gamma, log_superfactorial


@dataclass
class InterfaceGrid:
    """Real-valued function on the N x N square; 1-based accessors.

    The public constructor validates its input: it converts values to a
    float array and raises DomainError unless it is (n, n) and finite.
    InterfaceGrid._checked skips those checks and accepts only _phi_batch
    output, a float (n, n) lane of a block that has already been checked.
    """

    n: int
    values: np.ndarray  # shape (n, n); [i-1, j-1] holds phi(i, j)

    def __post_init__(self):
        try:
            self.values = np.asarray(self.values, dtype=float)
        except (TypeError, ValueError):  # ragged or not numbers
            raise DomainError("interface values must be an (n, n) array of numbers") from None
        if self.values.shape != (self.n, self.n):
            raise DomainError("grid shape must be (n, n)")
        if not np.isfinite(self.values).all():
            raise DomainError("interface values must be finite")

    @classmethod
    def _checked(cls, n: int, values: np.ndarray) -> InterfaceGrid:
        grid = object.__new__(cls)
        grid.n = n
        grid.values = values
        return grid

    def at(self, i: int, j: int) -> float:
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise DomainError(f"InterfaceGrid.at needs 1 <= i, j <= {self.n}, got ({i}, {j})")
        return float(self.values[i - 1, j - 1])

    def diagonal(self) -> np.ndarray:
        return self.values.diagonal().copy()


# ---------------------------------------------------------------------------
# The polymer construction of phi
# ---------------------------------------------------------------------------


def _phi_batch(field, mu: float, n: int) -> np.ndarray:
    """phi of a UniformField, or of each seed lane stacked along a leading
    axis: one batched gRSK call, phi(i, j) = T[N+1-i, N+1-j].  The one
    finiteness check of the batch: it raises DomainError if any lane holds
    a non-finite value."""
    phi = grsk(loggamma_rectangle(field, mu, n, n))[..., ::-1, ::-1]
    if not np.all(np.isfinite(phi)):
        raise DomainError("interface values must be finite")
    return phi


def build_phi(field: UniformField, mu: float, n: int) -> InterfaceGrid:
    """phi(i,j) = log(tau(N-j+i, i) / tau(N-j+i, i-1)) above the diagonal
    and the tilde version below it, read off the gRSK pattern of the
    N x N weights; no determinant is formed, so no precision is lost.
    One UniformField only: phi_moments_mc is the route of seed lanes."""
    _check_field(field, "build_phi", "phi_moments_mc")
    return InterfaceGrid._checked(n, _phi_batch(field, mu, n))


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
    -F_mu(phi) - N^2 log Gamma(mu), with the energy F_mu of _energy."""
    return float(-_energy(grid.values, mu) - grid.n**2 * log_gamma(mu))


def _energy(values: np.ndarray, mu: float) -> float:
    """F_mu(v) = sum_edges e^(dv) + mu sum_i v(i,i) + e^(-v(N,N)) over the
    north/east edges of the square: the energy of interface_log_density,
    and energy_F at mu = 1."""
    return (
        np.exp(values[1:, :] - values[:-1, :]).sum()
        + np.exp(values[:, 1:] - values[:, :-1]).sum()
        + mu * np.diagonal(values).sum()
        + math.exp(-values[-1, -1])
    )


_PHI_STREAM = 0x1F  # sample s is the field derive_seed(seed, _PHI_STREAM, s)
_LARGE_MU_STREAM = 0x3C
_SMALL_MU_STREAM = 0x5C
_DRAW_SITES = 1 << 14  # sites per gRSK call of gibbs_sampler: its temporaries stay near 1 MB


def gibbs_sampler(n: int, mu: float, sweeps: int, seed: int, burn_in: int | None = None):
    """Yield sweeps exact, independent InterfaceGrid draws of the interface
    law: draw s is build_phi of sample s of phi_moments_mc.  Exact draws
    need no burn-in, so burn_in has no effect; it stays for the benchmark's
    interface workload, the last caller, and goes with this function
    (ROADMAP items 1 and 2).  The draws are made lazily, one batched gRSK
    call per _lane_blocks block of about _DRAW_SITES sites, so memory stays
    flat at any n and sweeps.  _phi_batch checks each block once, before
    its first draw is yielded; each draw is a view of its block, not a
    copy, and is not checked again.
    """
    for lanes in _lane_blocks(sweeps, n * n, _DRAW_SITES):
        block = derive_seeds(seed, _PHI_STREAM, np.arange(lanes.start, lanes.stop))
        for phi in _phi_batch(block, mu, n):
            yield InterfaceGrid._checked(n, phi)


def phi_moments_mc(n: int, mu: float, seeds: int, seed: int) -> dict:
    """Per-site means and standard errors of phi over seeds independent
    polymer environments, by batched gRSK in the lane blocks of _on_lanes;
    the draws are those gibbs_sampler yields.  Needs seeds >= 2."""
    phis = _on_lanes(_replica_lanes(seed, _PHI_STREAM, seeds), lambda lanes: _phi_batch(lanes, mu, n), _rsk_cells(n, n))
    mean, stderr = _mean_stderr(phis)
    return {"mean": mean, "stderr": stderr, "seeds": seeds}


# ---------------------------------------------------------------------------
# Large-mu tilt and the discrete energy
# ---------------------------------------------------------------------------


def _tilt(n: int, mu: float) -> np.ndarray:
    # (2N + 1 - i - j) log mu over the N x N square
    if not mu > 0.0:
        raise DomainError("the theta tilt needs mu > 0, got %r" % (mu,))
    i = np.arange(1, n + 1)
    return (2 * n + 1 - (i[:, None] + i[None, :])) * math.log(mu)


def theta_rescale(grid: InterfaceGrid, mu: float) -> InterfaceGrid:
    """theta(i,j) = phi(i,j) + (2N + 1 - i - j) log mu."""
    return InterfaceGrid(grid.n, grid.values + _tilt(grid.n, mu))


def theta_min(n: int) -> InterfaceGrid:
    """The deterministic large-mu limit: for i <= j
    log[(i-1)! (2N-j-i+1)! (2N-j-i)! / ((2N-j)! (N-j)! (N-i)!)],
    extended symmetrically.  Equivalently log of the ratio of path counts
    Gamma(N-j+i, i) / Gamma(N-j+i, i-1)."""
    n = _whole_n(n)
    return InterfaceGrid(n, _theta_min_values(n))


def _whole_n(n) -> int:
    """n as an int: a whole number >= 1, 3 and 3.0 alike; any other n
    raises DomainError."""
    if not (1 <= n < math.inf and n == int(n)):
        raise DomainError("theta_min needs an integral n >= 1, got %r" % (n,))
    return int(n)


def _theta_min_values(n: int) -> np.ndarray:
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
    return vals


def energy_F(grid: InterfaceGrid) -> float:
    """Discrete energy e^(-theta(N,N)) + sum_diag theta + sum_edges e^(dtheta):
    _energy at mu = 1."""
    return float(_energy(grid.values, 1.0))


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
    for each mu; medians should decrease along an increasing mu_list.
    Each mu tilts its whole checked gRSK batch at once, bitwise as
    theta_rescale does one grid; seeds >= 1 replica lanes and a nonempty
    mu_list."""
    if len(mu_list) == 0:
        raise DomainError("large_mu_convergence needs a nonempty mu_list")
    n = _whole_n(n)
    lanes = _replica_lanes(seed, _LARGE_MU_STREAM, seeds, least=1)
    tmin = _theta_min_values(n)
    sup = np.empty((len(mu_list), seeds))
    for a, mu in enumerate(mu_list):
        th = _on_lanes(lanes, lambda block: _phi_batch(block, mu, n), _rsk_cells(n, n)) + _tilt(n, mu)
        sup[a] = np.abs(th - tmin).max(axis=(-2, -1))
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
    distributional comparison; seeds >= 1 replica lanes and a nonempty
    mu_list."""
    _check_tau_args(n, m, k)
    if len(mu_list) == 0:
        raise DomainError("small_mu_coupling needs a nonempty mu_list")
    field_seeds = _replica_lanes(seed, _SMALL_MU_STREAM, seeds, least=1)
    lvals = last_passage(field_seeds, n, m, k)
    mu_log_tau = np.empty((len(mu_list), seeds))
    for a, mu in enumerate(mu_list):
        mu_log_tau[a] = mu * log_tau(field_seeds, mu, n, m, k)
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
    2 K0(2 e^((lam2 - lam1)/2)).  Taken as the exponential of
    _log_whittaker_gl2, so it is 0.0 only where the value lies below the
    float range."""
    return _exp(_log_whittaker_gl2(lam1, lam2))


def _exp(x: float) -> float:
    # math.exp, with inf where it would raise OverflowError
    return math.inf if x > _LOG_DBL_MAX else math.exp(x)


def _log_whittaker_gl2(lam1: float, lam2: float) -> float:
    """log whittaker_gl2_bessel(lam1, lam2), through special.log_bessel_k0
    so that no gap lam2 - lam1 underflows K0; -inf only where the Bessel
    argument overflows."""
    half = 0.5 * (lam2 - lam1)
    z = 2.0 * _exp(half)
    # where z underflows to 0, K0(z) = -log(z / 2) - gamma = -half - gamma
    # to double precision
    return math.log(2.0) + (log_bessel_k0(z) if z > 0.0 else math.log(-half - np.euler_gamma))


def whittaker_measure_logdensity(lam, mu: float, n: int) -> float:
    """Log density of the diagonal marginal (the Whittaker measure with
    constant parameter mu) at lam, for n in {1, 2}:
    -e^(-lam_n) - mu sum lam + 2 log g(lam) - n^2 log Gamma(mu), with
    g = whittaker_gl2_bessel taken in logs (_log_whittaker_gl2), so that no
    gap lam_2 - lam_1 underflows K0.  It is -inf only where the density
    lies below exp(-DBL_MAX): where e^(-lam_n) or the Bessel argument
    overflows."""
    lam = list(lam)
    if n not in (1, 2) or len(lam) != n:
        raise DomainError("whittaker_measure_logdensity supports n in {1, 2}")
    log_g = _log_whittaker_gl2(lam[0], lam[1]) if n == 2 else 0.0
    return -_exp(-lam[-1]) - mu * sum(lam) + 2.0 * log_g - n * n * log_gamma(mu)
