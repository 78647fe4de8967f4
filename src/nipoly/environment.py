"""Seeded random environments with random access on Z^2.

A counter-based (hash) generator maps (seed, site) directly to a uniform
variate, so environments need no storage, rolling-row dynamic programming
over huge rectangles stays O(min dim) in memory, and results are bitwise
independent of evaluation order.  Every weight law is realized as a
quantile transform of the same uniform field, which is what makes the
mu-couplings hold sample by sample, and this module is the one place that
applies those transforms (_law_transform): every sampler in the package,
the random matrices of rmt included, draws its weights through omega_grid.
The loggamma transform evaluates a cached per-mu table
(special.log_inv_gamma_quantile) by one route for every input size, so a
site's value is bitwise independent of the batch, block or order it is
computed in.

omega_grid takes one UniformField, or a 1-D sequence of integer seeds
(seed lanes) that adds a leading axis, one lane per seed; a batched driver
makes one lane call where it would loop over fields.  omega_grid and
uniform_many share one blocked body: it splits the sites along the first
axis into blocks of about 2^16 sites; with two blocks or more, each runs as
one task on the shared thread pool of special._run_chunked, one thread per
available core, and hashes its block and applies the law's transform there,
so the hash and the transform run on all cores and stay cache-sized.
Smaller inputs run the same body on the calling thread.

Child seeds come from the same splitmix chain: derive_seeds(seed, *indices)
runs it over numpy-broadcast uint64 arrays, so one call gives a seed per
sample, e.g. derive_seeds(seed, 0x10, np.arange(samples)); derive_seed is
its scalar form.  Seeds and coordinates must be integers; they wrap mod
2^64, and floats are refused.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special as sps

from .errors import DomainError
from .special import _LOG_DBL_MAX, _log_inv_gamma_quantile_body, _quantile_table, _run_chunked

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


_MASK = 0xFFFFFFFFFFFFFFFF


def _as_u64(values) -> np.ndarray:
    """Coordinates and seeds as uint64, wrapping mod 2^64 (two's complement
    for negatives, masking for Python ints of 2^63 and above).  A sequence
    numpy would store as float64 or object (e.g. ints straddling 2^63) is
    converted exactly, int by int; non-integer values raise DomainError."""
    if isinstance(values, (int, np.integer)):
        return np.uint64(int(values) & _MASK)
    arr = np.asarray(values)
    if arr.dtype.kind == "u":
        return arr.astype(np.uint64, copy=False)
    if arr.dtype.kind in "ib":
        return arr.astype(np.int64).astype(np.uint64)
    if arr.dtype.kind == "f" and not isinstance(values, np.ndarray):
        arr = np.asarray(values, dtype=object)
    if arr.dtype.kind != "O":
        raise DomainError("seeds and coordinates must be integers, not %s" % arr.dtype)
    for v in arr.flat:
        if not isinstance(v, (int, np.integer)):
            raise DomainError("seeds and coordinates must be integers, not %r" % (v,))
    flat = np.array([int(v) & _MASK for v in arr.flat], dtype=np.uint64)
    return flat.reshape(arr.shape)


def derive_seeds(seed, *indices) -> np.ndarray:
    """Child seeds for broadcast integer arrays of seeds and indices, as a
    uint64 array: derive_seeds(s, 0x10, np.arange(n))[i] is
    derive_seed(s, 0x10, i), bit for bit."""
    h = _mix(_as_u64(seed))
    for ix in indices:
        h = _mix(h ^ _as_u64(ix))
    return np.asarray(h)


def derive_seed(seed: int, *indices: int) -> int:
    """Derive a decorrelated child seed, e.g. one per replica.  For one seed
    per sample, make one derive_seeds call over an index array instead."""
    return int(derive_seeds(seed, *indices))


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
    broadcast together, e.g. seeds[:,None,None] with x1[None,:,None].
    Blocked like omega_grid, by the same body."""
    return _hash_blocked(_as_u64(seeds), _as_u64(x1), _as_u64(x2))


def _uniform(seed, x1, x2, out=None) -> np.ndarray:
    """The counter hash behind UniformField.uniform, uniform_many and
    omega_grid, into out when given (of the broadcast shape); pool tasks
    call it directly, never the public names."""
    h = _mix(_as_u64(seed))
    h = _mix(h ^ _as_u64(x1))
    h = _mix(h ^ _as_u64(x2))
    # 53 mantissa bits, offset by half a step: strictly inside (0,1)
    u = np.add(h >> np.uint64(11), 0.5, out=out)
    u *= 2.0**-53
    return u


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
    log_zeta = float(omega_grid(field, spec, z[0], z[1]))
    if not log_zeta < _LOG_DBL_MAX:
        raise DomainError("weight_at: zeta_mu = exp(%.6g) overflows a float" % log_zeta)
    return math.exp(log_zeta)


def coupled_exponential(field: UniformField, z: tuple) -> float:
    """e(z) = -log(1 - U(z)): the mu->0 quantile-coupled limit of mu log zeta_mu."""
    return float(omega_grid(field, WeightSpec("exp1"), z[0], z[1]))


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


def _hash_blocked(seeds, x1, x2, transform=None) -> np.ndarray:
    """The body of uniform_many and omega_grid: the uniforms of the broadcast
    uint64 seeds and sites, or transform(u, out) of them, split along the
    first axis into blocks of about special._CHUNK sites.  Each block hashes
    its rows into the result, on the shared pool when there are two blocks
    or more.  Every step is elementwise, so the values are bitwise
    independent of the blocking."""
    out = np.empty(np.broadcast_shapes(seeds.shape, x1.shape, x2.shape))
    ndim = out.ndim
    rows = out.shape[0] if ndim else 1

    def block(lo, hi):
        dest = out[lo:hi] if ndim else out
        args = (_rows(x, ndim, lo, hi) for x in (seeds, x1, x2))
        if transform is None:
            _uniform(*args, out=dest)
        else:
            transform(_uniform(*args).reshape(-1), dest.reshape(-1))

    _run_chunked(block, rows, math.prod(out.shape[1:]))
    return out


def omega_grid(field, spec: WeightSpec, x1, x2) -> np.ndarray:
    """Energy variables omega at the given sites (vectorized): each law is a
    quantile transform of the uniform field; for loggamma that is
    log zeta_mu = special.log_inv_gamma_quantile(mu, u).

    field is a UniformField, or a 1-D sequence of integer seeds (seed
    lanes), which adds a leading axis: lane i is the grid of
    UniformField(seeds[i]), bit for bit.  The sites are blocked as in
    _hash_blocked."""
    x1, x2 = _as_u64(x1), _as_u64(x2)
    if isinstance(field, UniformField):
        seeds = _as_u64(field.seed)
    else:
        seeds = _as_u64(field)
        if seeds.ndim != 1:
            raise DomainError("seed lanes must be a 1-D sequence, got shape %s" % (seeds.shape,))
        seeds = seeds.reshape(seeds.shape + (1,) * max(x1.ndim, x2.ndim))
    if spec.law == "const":
        return np.full(np.broadcast_shapes(seeds.shape, x1.shape, x2.shape), spec.c)
    return _hash_blocked(seeds, x1, x2, _law_transform(spec))
