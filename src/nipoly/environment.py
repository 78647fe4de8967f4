"""Seeded random environments with random access on Z^2.

A counter-based (hash) generator maps (seed, site) directly to a uniform
variate, so environments need no storage, rolling-row dynamic programming
over huge rectangles stays O(min dim) in memory, and results are bitwise
independent of evaluation order.  Every weight law is realized as a
quantile transform of the same uniform field, which is what makes the
mu-couplings hold sample by sample.  The loggamma transform evaluates a
cached per-mu table (special.log_inv_gamma_quantile) by one route for every
input size, so a site's value is bitwise independent of the batch, block or
order it is computed in.  The hash runs on the calling thread; large
loggamma transforms (two chunks of 2^16 sites or more) run on all available
cores.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special as sps

from .errors import DomainError
from .special import inv_gamma_quantile, log_inv_gamma_quantile

_MASK = np.uint64(0xFFFFFFFFFFFFFFFF)
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def _mix(z: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer; uint64 arithmetic wraps mod 2^64 by design
    with np.errstate(over="ignore"):
        z = (z + _GOLDEN) & _MASK
        z ^= z >> np.uint64(30)
        z = (z * _M1) & _MASK
        z ^= z >> np.uint64(27)
        z = (z * _M2) & _MASK
        z ^= z >> np.uint64(31)
    return z


def _as_u64(values) -> np.ndarray:
    """Coordinates and seeds as uint64, wrapping mod 2^64 (two's complement
    for negatives, masking for Python ints above 2^63)."""
    if isinstance(values, (int, np.integer)):
        return np.uint64(int(values) & 0xFFFFFFFFFFFFFFFF)
    arr = np.asarray(values)
    if arr.dtype.kind == "u":
        return arr.astype(np.uint64)
    if arr.dtype.kind == "i":
        return arr.astype(np.int64).astype(np.uint64)
    flat = np.array(
        [int(v) & 0xFFFFFFFFFFFFFFFF for v in arr.ravel()], dtype=np.uint64
    )
    return flat.reshape(arr.shape)


def derive_seed(seed: int, *indices: int) -> int:
    """Derive a decorrelated child seed, e.g. one per replica."""
    h = _mix(_as_u64(seed))
    for ix in indices:
        h = _mix(h ^ _as_u64(ix))
    return int(h)


@dataclass(frozen=True)
class UniformField:
    """Deterministic map (seed, z) -> u in (0,1) for z in Z^2."""

    seed: int

    def uniform(self, x1, x2) -> np.ndarray:
        """Uniform variates at sites (x1, x2); arguments broadcast like numpy."""
        h = _mix(_as_u64(self.seed))
        h = _mix(h ^ _as_u64(x1))
        h = _mix(h ^ _as_u64(x2))
        # 53 mantissa bits, offset by half a step: strictly inside (0,1)
        return ((h >> np.uint64(11)).astype(np.float64) + 0.5) * (2.0 ** -53)

    def derive(self, *indices: int) -> "UniformField":
        return UniformField(derive_seed(self.seed, *indices))


def uniform_at(field: UniformField, z: tuple) -> float:
    """Scalar convenience wrapper around UniformField.uniform."""
    return float(field.uniform(z[0], z[1]))


def uniform_many(seeds, x1, x2) -> np.ndarray:
    """Uniform variates for an array of seeds; seeds and coordinates
    broadcast together, e.g. seeds[:,None,None] with x1[None,:,None]."""
    h = _mix(_as_u64(seeds))
    h = _mix(h ^ _as_u64(x1))
    h = _mix(h ^ _as_u64(x2))
    return ((h >> np.uint64(11)).astype(np.float64) + 0.5) * (2.0 ** -53)


@dataclass(frozen=True)
class WeightSpec:
    """Distribution of the energy variable omega(z).

    laws: "loggamma" (omega = log zeta_mu, so beta = 1 is the inverse-gamma
    polymer), "exp1" (standard exponential), "gauss" (standard normal),
    "bernoulli" (P(omega=1) = p), "const" (omega = c).
    """

    law: str
    mu: float = 0.0
    p: float = 0.5
    c: float = 0.0

    def __post_init__(self):
        if self.law == "loggamma" and not self.mu > 0.0:
            raise DomainError("loggamma law requires mu > 0")
        if self.law == "bernoulli" and not 0.0 < self.p < 1.0:
            raise DomainError("bernoulli law requires 0 < p < 1")
        if self.law not in ("loggamma", "exp1", "gauss", "bernoulli", "const"):
            raise DomainError("unknown weight law %r" % (self.law,))

    # mean of omega
    def nu(self) -> float:
        if self.law == "loggamma":
            return -sps.digamma(self.mu)
        if self.law == "exp1":
            return 1.0
        if self.law == "gauss":
            return 0.0
        if self.law == "bernoulli":
            return self.p
        return self.c

    # log E[exp(beta * omega)]
    def log_mgf(self, beta: float) -> float:
        if self.law == "loggamma":
            if beta >= self.mu:
                return math.inf
            return sps.gammaln(self.mu - beta) - sps.gammaln(self.mu)
        if self.law == "exp1":
            return math.inf if beta >= 1.0 else -math.log(1.0 - beta)
        if self.law == "gauss":
            return 0.5 * beta * beta
        if self.law == "bernoulli":
            return math.log(1.0 - self.p + self.p * math.exp(beta))
        return beta * self.c


def weight_at(field: UniformField, spec: WeightSpec, z: tuple) -> float:
    """The multiplicative site weight at z; for loggamma this is zeta_mu(z)."""
    if spec.law != "loggamma":
        raise DomainError("weight_at returns the multiplicative weight of the loggamma law")
    return float(inv_gamma_quantile(spec.mu, uniform_at(field, z)))


def coupled_exponential(field: UniformField, z: tuple) -> float:
    """e(z) = -log(1 - U(z)): the mu->0 quantile-coupled limit of mu log zeta_mu."""
    return float(-np.log1p(-field.uniform(z[0], z[1])))


def omega_grid(field: UniformField, spec: WeightSpec, x1, x2) -> np.ndarray:
    """Energy variables omega at the given sites (vectorized): each law is a
    quantile transform of the uniform field; for loggamma that is
    log zeta_mu = special.log_inv_gamma_quantile(mu, u)."""
    if spec.law == "const":
        shape = np.broadcast(np.asarray(x1), np.asarray(x2)).shape
        return np.full(shape, float(spec.c))
    u = field.uniform(x1, x2)
    if spec.law == "loggamma":
        return log_inv_gamma_quantile(spec.mu, u)
    if spec.law == "exp1":
        return -np.log1p(-u)
    if spec.law == "gauss":
        return sps.ndtri(u)
    if spec.law == "bernoulli":
        return (u < spec.p).astype(np.float64)
    raise DomainError("unknown weight law %r" % (spec.law,))

