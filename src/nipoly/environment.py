"""Seeded random environments with random access on Z^2.

A counter-based (hash) generator maps (seed, site) directly to a uniform
variate, so environments need no storage, rolling-row dynamic programming
over huge rectangles stays O(min dim) in memory, and results are bitwise
independent of evaluation order.  Every weight law is realized as a
quantile transform of the same uniform field, which is what makes the
mu-couplings hold sample by sample.  The loggamma transform evaluates a
cached per-mu table (special.log_inv_gamma_quantile) by one route for every
input size, so a site's value is bitwise independent of the batch, block or
order it is computed in.  omega_grid splits its sites along the first axis
into blocks of about 2^16 sites; with two blocks or more, each runs as one
task on the shared thread pool of special._run_chunked, one thread per
available core, and hashes its block and applies the law's transform there,
so the hash and the transform run on all cores and stay cache-sized.
Smaller inputs run the same body on the calling thread.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special as sps

from .errors import DomainError
from .special import (
    _log_inv_gamma_quantile_body,
    _quantile_table,
    _run_chunked,
    inv_gamma_quantile,
)

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_M1 = np.uint64(0xBF58476D1CE4E5B9)
_M2 = np.uint64(0x94D049BB133111EB)


def _mix(z: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer; uint64 arithmetic wraps mod 2^64 by design
    with np.errstate(over="ignore"):
        z = z + _GOLDEN  # a new array: the caller's z is left alone
        z ^= z >> np.uint64(30)
        z *= _M1
        z ^= z >> np.uint64(27)
        z *= _M2
        z ^= z >> np.uint64(31)
    return z


def _as_u64(values) -> np.ndarray:
    """Coordinates and seeds as uint64, wrapping mod 2^64 (two's complement
    for negatives, masking for Python ints above 2^63)."""
    if isinstance(values, (int, np.integer)):
        return np.uint64(int(values) & 0xFFFFFFFFFFFFFFFF)
    arr = np.asarray(values)
    if arr.dtype.kind == "u":
        return arr.astype(np.uint64, copy=False)
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
        return _uniform(self.seed, x1, x2)

    def derive(self, *indices: int) -> "UniformField":
        return UniformField(derive_seed(self.seed, *indices))


def uniform_at(field: UniformField, z: tuple) -> float:
    """Scalar convenience wrapper around UniformField.uniform."""
    return float(field.uniform(z[0], z[1]))


def uniform_many(seeds, x1, x2) -> np.ndarray:
    """Uniform variates for an array of seeds; seeds and coordinates
    broadcast together, e.g. seeds[:,None,None] with x1[None,:,None]."""
    return _uniform(seeds, x1, x2)


def _uniform(seed, x1, x2) -> np.ndarray:
    """The counter hash behind UniformField.uniform and uniform_many; pool
    tasks call it directly, never the public names."""
    h = _mix(_as_u64(seed))
    h = _mix(h ^ _as_u64(x1))
    h = _mix(h ^ _as_u64(x2))
    # 53 mantissa bits, offset by half a step: strictly inside (0,1)
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


def _rows(x: np.ndarray, ndim: int, lo: int, hi: int) -> np.ndarray:
    # rows lo..hi of x broadcast to ndim axes; a broadcast first axis stays
    if ndim and x.ndim == ndim and x.shape[0] > 1:
        return x[lo:hi]
    return x


def _law_transform(spec: WeightSpec):
    """(u, out) -> None writing omega = F^{-1}(u) into out, for flat float64
    u and out alike; it may overwrite u."""
    if spec.law == "loggamma":
        mu = float(spec.mu)
        _quantile_table(mu)  # built once here, not raced for by the blocks
        return lambda u, out: _log_inv_gamma_quantile_body(mu, u, out)
    if spec.law == "exp1":

        def exp1(u, out):
            np.log1p(np.negative(u, out=u), out=out)
            np.negative(out, out=out)

        return exp1
    if spec.law == "gauss":
        return lambda u, out: sps.ndtri(u, out=out)
    if spec.law == "bernoulli":
        return lambda u, out: np.less(u, spec.p, out=out)
    raise DomainError("unknown weight law %r" % (spec.law,))


def omega_grid(field: UniformField, spec: WeightSpec, x1, x2) -> np.ndarray:
    """Energy variables omega at the given sites (vectorized): each law is a
    quantile transform of the uniform field; for loggamma that is
    log zeta_mu = special.log_inv_gamma_quantile(mu, u).

    The broadcast sites are split along the first axis into blocks of about
    special._CHUNK sites.  Each block hashes its sites and transforms them
    into its rows of the result, on the shared pool when there are two
    blocks or more.  Every step is elementwise, so the values are bitwise
    independent of the blocking."""
    x1, x2 = _as_u64(x1), _as_u64(x2)
    out = np.empty(np.broadcast_shapes(x1.shape, x2.shape))
    if spec.law == "const":
        out.fill(spec.c)
        return out
    transform = _law_transform(spec)
    ndim = out.ndim
    rows = out.shape[0] if ndim else 1
    by_row = out.reshape(rows, math.prod(out.shape[1:]))

    def block(lo, hi):
        u = _uniform(field.seed, _rows(x1, ndim, lo, hi), _rows(x2, ndim, lo, hi))
        transform(u.reshape(-1), by_row[lo:hi].reshape(-1))

    _run_chunked(block, rows, by_row.shape[1])
    return out
