"""Seeded random environments with random access on Z^2.

A counter-based (hash) generator maps (seed, site) directly to a uniform
variate, so environments need no storage between calls and results are
bitwise independent of evaluation order.  The drivers still materialize the
weights they scan: polymer.single_path_logZ builds the whole W x H grid
(8 MB at N = 1000), and only the scan state on top of it is O(W).  Every
weight law is realized as a quantile transform of the same uniform field,
which is what makes the mu-couplings hold sample by sample, and this module
is the one place that applies those transforms (_law_transform): every
sampler in the package, the random matrices of rmt included, draws its
weights through omega_grid.  The scalar weight_at is the one exception: it
is special.inv_gamma_quantile of uniform_at, bitwise exp of omega_grid.
The loggamma transform evaluates a cached per-mu table
(special.log_inv_gamma_quantile) indexed by the float bits of
v = min(u, 1 - u): 30-40 ns a site on one core of a Xeon VM, with no
transcendental per site, and within 1e-13 relative of 40-digit mpmath.
Building the table costs 6-14 ms there (8 502 exact evaluations), once per
mu and on the calling thread.  Above mu = 4e5 it refuses u > ndtr(4.5),
where scipy's inverse is not accurate.  One route serves every input size,
so a site's value is bitwise independent of the batch, block or order it is
computed in.

omega_grid takes one UniformField, or a 1-D sequence of integer seeds
(seed lanes) that adds a leading axis, one lane per seed; a batched driver
makes one lane call where it would loop over fields.  UniformField.uniform,
uniform_many and omega_grid share one body, _hash_blocked, the only code
that blocks sites.  Each block of at most 2^16 sites hashes its sites and
applies the law's transform, so the temporaries stay cache-sized; the
blocks run in order on the calling thread, and nipoly starts no thread.

Child seeds come from the same splitmix chain: derive_seeds(seed, *indices)
runs it over numpy-broadcast uint64 arrays, so one call gives a seed per
sample, e.g. derive_seeds(seed, 0x10, np.arange(samples)); derive_seed is
its scalar form.  Seeds and coordinates must be integers; they wrap mod
2^64, and floats are refused.

Replica lanes: each Monte Carlo driver but the lazy gibbs_sampler takes its
replicas from _replica_lanes (lane r is derive_seed(seed, stream, r); fewer
than least replicas raise DomainError, least = 2 where a standard error is
taken) and its standard error from _mean_stderr.  _lane_blocks is the one
rule that blocks lanes under a budget of sites or cells, for its four users:
_hash_blocked (_CHUNK, 2^16 sites per block), interface.gibbs_sampler
(_DRAW_SITES, 2^14 sites per gRSK call), shapes.fluctuation_mc
(_FLUCT_SITES, 2^18 sites per omega_grid call) and polymer.kpath_logZ
(_KPATH_MAX_CELLS, 2^22 k-path state cells per kpath_scan call).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.special as sps

from .errors import DomainError
from .special import _log_inv_gamma_quantile_body, inv_gamma_quantile

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


def _chain(seed, *indices):
    # the splitmix chain behind child seeds and the uniform field
    h = _mix(_as_u64(seed))
    for ix in indices:
        h = _mix(h ^ _as_u64(ix))
    return h


def derive_seeds(seed, *indices) -> np.ndarray:
    """Child seeds for broadcast integer arrays of seeds and indices, as a
    uint64 array: derive_seeds(s, 0x10, np.arange(n))[i] is
    derive_seed(s, 0x10, i), bit for bit."""
    return np.asarray(_chain(seed, *indices))


def derive_seed(seed: int, *indices: int) -> int:
    """Derive a decorrelated child seed, e.g. one per replica.  For one seed
    per sample, make one derive_seeds call over an index array instead."""
    return int(derive_seeds(seed, *indices))


def _replica_lanes(seed, stream, count: int, least: int = 2) -> np.ndarray:
    """derive_seeds(seed, stream, np.arange(count)); DomainError below least."""
    if count < least:
        raise DomainError("at least %d replicas needed, got %d" % (least, count))
    return derive_seeds(seed, stream, np.arange(count))


def _lane_blocks(count: int, per_lane: int, budget: int):
    """Slices of range(count) in order, lazily, max(1, budget // per_lane)
    lanes each (per_lane counts as at least 1); the last may be shorter.
    A lane that alone exceeds the budget gets a block of its own."""
    step = max(1, budget // max(1, per_lane))
    return (slice(lo, min(lo + step, count)) for lo in range(0, count, step))


def _mean_stderr(values: np.ndarray):
    """The mean along axis 0 and its standard error, std(ddof=1) / sqrt(count)."""
    return values.mean(axis=0), values.std(axis=0, ddof=1) / math.sqrt(len(values))


@dataclass(frozen=True)
class UniformField:
    """Deterministic map (seed, z) -> u in (0,1) for z in Z^2."""

    seed: int

    def uniform(self, x1, x2) -> np.ndarray:
        """Uniform variates at sites (x1, x2); arguments broadcast like numpy.
        Blocked like omega_grid, by the same body (_hash_blocked)."""
        return _hash_blocked(_as_u64(self.seed), _as_u64(x1), _as_u64(x2))

    def derive(self, *indices: int) -> "UniformField":
        return UniformField(derive_seed(self.seed, *indices))


def _check_field(field, name: str) -> None:
    # the scalar site functions take one field; seed lanes go to omega_grid
    if not isinstance(field, UniformField):
        raise DomainError("%s takes one UniformField; omega_grid takes seed lanes" % name)


def uniform_at(field: UniformField, z: tuple) -> float:
    """Scalar convenience wrapper around UniformField.uniform."""
    _check_field(field, "uniform_at")
    return float(field.uniform(z[0], z[1]))


def uniform_many(seeds, x1, x2) -> np.ndarray:
    """Uniform variates for an array of seeds; seeds and coordinates
    broadcast together, e.g. seeds[:,None,None] with x1[None,:,None].
    Blocked like omega_grid, by the same body (_hash_blocked)."""
    return _hash_blocked(_as_u64(seeds), _as_u64(x1), _as_u64(x2))


def _uniform(seed, x1, x2, out=None) -> np.ndarray:
    """The counter hash behind UniformField.uniform, uniform_many and
    omega_grid, into out when given (of the broadcast shape); the blocks of
    _hash_blocked call it directly, never the public names."""
    return _hash_to_unit(_chain(seed, x1, x2), out)


# the largest double below 1
_BELOW_ONE = np.nextafter(1.0, 0.0)


def _hash_to_unit(h, out=None):
    """Uniforms strictly inside (0, 1) from uint64 hashes h, into out when
    given: the top 53 bits k give (k + 1/2) 2^-53, rounded to double.  The
    top k = 2^53 - 1 would round up to 1.0 (2^53 - 1/2 rounds half-to-even
    to 2^53); it maps to the largest double below 1 instead."""
    u = np.add(h >> np.uint64(11), 0.5, out=out)
    u *= 2.0**-53
    return np.minimum(u, _BELOW_ONE, out=u if isinstance(u, np.ndarray) else None)


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
    """The multiplicative site weight zeta_mu(z) of the loggamma law, for
    one UniformField (no seed lanes): special.inv_gamma_quantile of the
    site's uniform, which owns the quantile and its float-overflow
    DomainError; bitwise exp of omega_grid's log weight."""
    _check_field(field, "weight_at")
    if spec.law != "loggamma":
        raise DomainError("weight_at returns the multiplicative weight of the loggamma law")
    return inv_gamma_quantile(spec.mu, uniform_at(field, z))


def coupled_exponential(field: UniformField, z: tuple) -> float:
    """e(z) = -log(1 - U(z)): the mu->0 quantile-coupled limit of mu log zeta_mu."""
    _check_field(field, "coupled_exponential")
    return float(omega_grid(field, WeightSpec("exp1"), z[0], z[1]))


def _law_transform(spec: WeightSpec):
    """(u, out) -> None writing omega = F^{-1}(u) into out, for flat float64
    u and out alike; it may overwrite u."""
    if spec.law == "loggamma":
        mu = float(spec.mu)
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


# sites per block, so each block's temporaries stay cache-sized
_CHUNK = 1 << 16


def _hash_blocked(seeds, x1, x2, transform=None) -> np.ndarray:
    """The body of UniformField.uniform, uniform_many and omega_grid: the
    uniforms of the broadcast uint64 seeds and sites, or transform(u, out)
    of them.  An input of at most _CHUNK sites is one block.  A larger one
    blocks along the first axis whose trailing axes hold at most _CHUNK
    sites, in _lane_blocks of about a chunk, once per index of the axes
    before it.  The blocks run in order on the calling thread.  They call
    private bodies only, so a tracer that wraps the public names
    (bench/spans.py) sees one call.  Every step is elementwise, so the
    values are bitwise independent of the blocking."""
    out = np.empty(np.broadcast_shapes(seeds.shape, x1.shape, x2.shape))
    # every input keeps every axis; a block slices those of size above one
    inputs = [np.reshape(x, (1,) * (out.ndim - np.ndim(x)) + np.shape(x)) for x in (seeds, x1, x2)]
    if out.size <= _CHUNK:
        keys = [()]
    else:
        axis = 0
        while math.prod(out.shape[axis + 1 :]) > _CHUNK:
            axis += 1
        per_index = math.prod(out.shape[axis + 1 :])
        keys = (
            tuple(slice(i, i + 1) for i in outer) + (lanes,)
            for outer in np.ndindex(out.shape[:axis])
            for lanes in _lane_blocks(out.shape[axis], per_index, _CHUNK)
        )
    for key in keys:
        args = [x[tuple(k if n > 1 else slice(None) for k, n in zip(key, x.shape))] for x in inputs]
        dest = out[key + (Ellipsis,)]
        if transform is None:
            _uniform(*args, out=dest)
        else:
            transform(_uniform(*args).reshape(-1), dest.reshape(-1))
    return out


def omega_grid(field, spec: WeightSpec, x1, x2) -> np.ndarray:
    """Energy variables omega at the given sites (vectorized): each law is a
    quantile transform of the uniform field; for loggamma that is
    log zeta_mu = special.log_inv_gamma_quantile(mu, u).

    field is a UniformField, or a 1-D sequence of integer seeds (seed
    lanes), which adds a leading axis: lane i is the grid of
    UniformField(seeds[i]), bit for bit.  The sites are blocked by
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
