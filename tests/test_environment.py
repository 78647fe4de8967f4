import math
import threading

import numpy as np
import pytest
import scipy.special as sps
import scipy.stats
from hypothesis import given, settings
from hypothesis import strategies as st

from nipoly.environment import (
    UniformField,
    WeightSpec,
    _lane_blocks,
    coupled_exponential,
    derive_seed,
    derive_seeds,
    omega_grid,
    uniform_at,
    weight_at,
)
from nipoly import environment, polymer, rmt
from nipoly.errors import DomainError
from nipoly.special import digamma, inv_gamma_quantile, log_inv_gamma_quantile


def test_determinism():
    f = UniformField(7)
    assert uniform_at(f, (3, -5)) == uniform_at(f, (3, -5))
    g = UniformField(7)
    assert uniform_at(g, (3, -5)) == uniform_at(f, (3, -5))


def test_strictly_inside_unit_interval():
    f = UniformField(123)
    xs = np.arange(-500, 500)
    u = f.uniform(xs[:, None], xs[None, :])
    assert u.min() > 0.0
    assert u.max() < 1.0


def test_hash_to_unit_never_returns_one():
    # the all-ones hash would round (2^53 - 1/2) 2^-53 up to 1.0; it maps to
    # the largest double below 1, and every other hash as the plain formula
    top = environment._hash_to_unit(np.uint64(2**64 - 1))
    assert top == np.nextafter(1.0, 0.0) and top < 1.0
    assert environment._hash_to_unit(np.array([2**64 - 1, 2**11 - 1], dtype=np.uint64))[0] == top
    assert environment._hash_to_unit(np.uint64(0)) == 2.0**-54
    rng = np.random.default_rng(53)
    h = rng.integers(0, 2**64, size=10**5, dtype=np.uint64, endpoint=False)
    h[:3] = [2**64 - 2**11 - 1, 2**63, 2**52 << 11]  # the next value below the top, u = 1/2, u = 1/4
    plain = ((h >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    out = np.empty(h.shape)
    got = environment._hash_to_unit(h, out=out)
    assert got is out
    assert np.array_equal(got, plain)
    assert got.max() < 1.0


def test_uniformity_ks():
    f = UniformField(42)
    n = 1000
    xs = np.arange(n)
    u = f.uniform(xs[:, None], xs[None, :]).ravel()  # 10^6 sites
    ks = scipy.stats.kstest(u, "uniform").statistic
    assert ks < 0.002


def test_seed_decorrelation():
    f1, f2 = UniformField(1), UniformField(2)
    xs = np.arange(100000)
    u1 = f1.uniform(xs, 0)
    u2 = f2.uniform(xs, 0)
    corr = np.corrcoef(u1, u2)[0, 1]
    assert abs(corr) < 0.01


def test_derive_seed_changes_field():
    f = UniformField(5)
    g = f.derive(1)
    assert g.seed != f.seed
    assert derive_seed(5, 1) == g.seed
    assert derive_seed(5, 1, 2) != derive_seed(5, 2, 1)


def _splitmix_chain(seed, *indices):
    # the documented derive_seed chain in Python ints, as an independent reference
    mask = 2**64 - 1

    def mix(z):
        z = (z + 0x9E3779B97F4A7C15) & mask
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    h = mix(seed & mask)
    for ix in indices:
        h = mix(h ^ (ix & mask))
    return h


@given(
    seed=st.integers(-(2**63), 2**64 - 1),
    a=st.lists(st.integers(-(2**63), 2**63 - 1), min_size=1, max_size=5),
    b=st.lists(st.integers(-(2**63), 2**64 - 1), min_size=1, max_size=4),
)
@settings(max_examples=80, deadline=None)
def test_derive_seeds_equals_scalar_derive_seed(seed, a, b):
    # indices: an int64 column against a Python-int row that may straddle 2**63
    got = derive_seeds(seed, np.array(a, dtype=np.int64)[:, None], b)
    want = np.array([[derive_seed(seed, x, y) for y in b] for x in a], dtype=np.uint64)
    assert want.tolist() == [[_splitmix_chain(seed, x, y) for y in b] for x in a]
    assert got.dtype == np.uint64 and got.shape == (len(a), len(b))
    np.testing.assert_array_equal(got, want)
    # an array of seeds, as Python ints and as uint64
    seeds = [seed, *b]
    want = np.array([derive_seed(s, 0x61) for s in seeds], dtype=np.uint64)
    np.testing.assert_array_equal(derive_seeds(seeds, 0x61), want)
    u64 = np.array([s & (2**64 - 1) for s in seeds], dtype=np.uint64)
    np.testing.assert_array_equal(derive_seeds(u64, 0x61), want)
    assert derive_seeds(seed).shape == () and int(derive_seeds(seed)) == derive_seed(seed)


def test_int_sequences_hash_exactly():
    # numpy stores these lists as float64, which rounds 2**63 + 1 to 2**63
    for values in ([1, 2**63 + 1], [-1, 2**63 + 1], [np.uint64(2**63 + 1), np.int64(-1)]):
        want = np.array([int(v) & (2**64 - 1) for v in values], dtype=np.uint64)
        np.testing.assert_array_equal(environment._as_u64(values), want)
    nested = environment._as_u64([[1, -1], [2**64 + 3, 2**63]])
    np.testing.assert_array_equal(nested, np.array([[1, 2**64 - 1], [3, 2**63]], dtype=np.uint64))
    f = UniformField(2)
    np.testing.assert_array_equal(
        f.uniform([1, 2**63 + 1], 0), [f.uniform(1, 0), f.uniform(2**63 + 1, 0)]
    )
    assert f.uniform(2**63 + 1, 0) != f.uniform(2**63, 0)


@pytest.mark.parametrize(
    "call",
    [
        lambda: derive_seed(1.5, 2),
        lambda: derive_seed(2, 2.0),
        lambda: derive_seeds(2, np.arange(3.0)),
        lambda: derive_seeds([1, 2.5], 3),
        lambda: UniformField(3).uniform(1.5, 2.7),
        lambda: UniformField(3).uniform(np.array([1.0]), 2),
        lambda: UniformField(1.5).uniform(1, 2),
        lambda: environment.uniform_many([1.5], 1, 2),
        lambda: omega_grid(UniformField(3), WeightSpec("exp1"), np.arange(2.0), 1),
        lambda: environment._as_u64([1, None]),
    ],
    ids=[
        "derive_seed-seed",
        "derive_seed-index",
        "derive_seeds-float-array",
        "derive_seeds-float-in-list",
        "uniform-scalars",
        "uniform-float-array",
        "field-seed",
        "uniform_many",
        "omega_grid",
        "none-in-list",
    ],
)
def test_non_integer_seeds_and_coordinates_raise(call):
    with pytest.raises(DomainError):
        call()


def test_scalar_vector_agree():
    f = UniformField(99)
    xs = np.array([0, 1, -7])
    ys = np.array([2, -2, 9])
    vec = f.uniform(xs, ys)
    for i in range(3):
        assert vec[i] == uniform_at(f, (int(xs[i]), int(ys[i])))


def test_weight_at_closed_form_mu1():
    f = UniformField(11)
    z = (4, 9)
    u = uniform_at(f, z)
    assert weight_at(f, WeightSpec("loggamma", mu=1.0), z) == pytest.approx(
        -1.0 / math.log(u), rel=1e-10
    )


def test_weight_at_refuses_a_weight_beyond_the_float_range():
    # at mu = 1e-3 the quantile leaves the float range from u = 0.6 on
    f = UniformField(3)
    assert uniform_at(f, (7, 0)) > 0.6
    with pytest.raises(DomainError):
        weight_at(f, WeightSpec("loggamma", mu=1e-3), (7, 0))


def test_weight_at_is_inv_gamma_quantile_of_the_site_uniform():
    for seed in (1, 3, 2**64 - 1):
        f = UniformField(seed)
        for mu in (0.2, 1.0, 7.5):
            for z in ((0, 0), (-2, 7), (5, 1000)):
                want = inv_gamma_quantile(mu, uniform_at(f, z))
                assert weight_at(f, WeightSpec("loggamma", mu=mu), z) == want


@pytest.mark.parametrize("lanes", [np.array([1, 2, 3], dtype=np.uint64), [1, 2, 3]], ids=["uint64", "ints"])
def test_scalar_site_functions_refuse_seed_lanes(lanes):
    spec = WeightSpec("loggamma", mu=2.0)
    for call in (
        lambda: weight_at(lanes, spec, (1, 1)),
        lambda: uniform_at(lanes, (1, 1)),
        lambda: coupled_exponential(lanes, (1, 1)),
    ):
        with pytest.raises(DomainError, match="omega_grid takes seed lanes"):
            call()


def test_weight_monotone_in_u():
    us = [0.1, 0.3, 0.5, 0.7, 0.9]
    zs = [inv_gamma_quantile(2.0, u) for u in us]
    assert zs == sorted(zs)


def test_log_weight_mean_matches_digamma():
    f = UniformField(314)
    n = 1000
    xs = np.arange(n)
    mu = 2.0
    logz = omega_grid(f, WeightSpec("loggamma", mu=mu), xs[:, None], xs[None, :]).ravel()
    mean = logz.mean()
    stderr = logz.std(ddof=1) / math.sqrt(logz.size)
    assert abs(mean - (-digamma(mu))) < 3 * stderr + 1e-4


def test_coupled_exponential():
    f = UniformField(8)
    # quantile inversion: u = 1 - e^-1 gives e = 1
    z = (0, 0)
    u = uniform_at(f, z)
    assert coupled_exponential(f, z) == pytest.approx(-math.log1p(-u))
    xs = np.arange(1000)
    e = omega_grid(f, WeightSpec("exp1"), xs[:, None], xs[None, :]).ravel()
    stderr = e.std(ddof=1) / math.sqrt(e.size)
    assert abs(e.mean() - 1.0) < 3 * stderr


def test_coupling_limit_decreasing_in_mu():
    # the quantile curves can cross at isolated u's, so aggregate over sites
    f = UniformField(21)
    sites = [(i, j) for i in range(10) for j in range(10)]
    mean_gap = []
    frac_down = []
    gaps_prev = None
    for mu in (1.0, 0.1, 0.01):
        gaps = []
        for z in sites:
            u = uniform_at(f, z)
            e = coupled_exponential(f, z)
            gaps.append(abs(mu * math.log(inv_gamma_quantile(mu, u)) - e))
        mean_gap.append(sum(gaps) / len(gaps))
        if gaps_prev is not None:
            frac_down.append(
                sum(1 for a, b in zip(gaps_prev, gaps) if b < a) / len(gaps)
            )
        gaps_prev = gaps
    assert mean_gap[0] > mean_gap[1] > mean_gap[2]
    assert min(frac_down) > 0.8


def test_coupling_continuity_in_mu():
    # log of the quantile moves smoothly with mu: bounded increments that
    # shrink proportionally when the grid is refined
    f = UniformField(77)
    u = uniform_at(f, (1, 1))
    mus = np.linspace(0.5, 5.0, 40)
    vals = np.array([inv_gamma_quantile(m, u) for m in mus])
    steps_coarse = np.abs(np.diff(np.log(vals)))
    mus_fine = np.linspace(0.5, 5.0, 157)
    vals_fine = np.array([inv_gamma_quantile(m, u) for m in mus_fine])
    steps_fine = np.abs(np.diff(np.log(vals_fine)))
    assert steps_coarse.max() < 1.5
    assert steps_fine.max() < steps_coarse.max() / 2.5


@pytest.mark.parametrize(
    "spec,cdf",
    [
        (WeightSpec("loggamma", mu=2.0), lambda x: sps.gammaincc(2.0, 1.0 / np.maximum(x, 1e-12))),
        (WeightSpec("exp1"), lambda x: 1.0 - np.exp(-np.maximum(x, 0.0))),
        (WeightSpec("gauss"), sps.ndtr),
    ],
)
def test_distributional_correctness_continuous(spec, cdf):
    f = UniformField(500)
    xs = np.arange(400)
    w = omega_grid(f, spec, xs[:, None], xs[None, :]).ravel()  # 1.6e5 samples
    if spec.law == "loggamma":
        w = np.exp(w)  # test the weight zeta itself
    ks = scipy.stats.kstest(w, cdf).statistic
    assert ks < 0.01


def test_distributional_correctness_discrete():
    f = UniformField(501)
    xs = np.arange(400)
    w = omega_grid(f, WeightSpec("bernoulli", p=0.3), xs[:, None], xs[None, :]).ravel()
    assert set(np.unique(w)) <= {0.0, 1.0}
    phat = w.mean()
    assert abs(phat - 0.3) < 3 * math.sqrt(0.3 * 0.7 / w.size)
    wc = omega_grid(f, WeightSpec("const", c=2.5), xs, xs)
    assert np.all(wc == 2.5)


def test_moments_helpers():
    assert WeightSpec("gauss").nu() == 0.0
    assert WeightSpec("gauss").log_mgf(1.0) == pytest.approx(0.5)
    assert WeightSpec("bernoulli", p=0.5).log_mgf(1.0) == pytest.approx(
        math.log((1 + math.e) / 2)
    )
    s = WeightSpec("loggamma", mu=2.0)
    assert s.nu() == pytest.approx(-digamma(2.0))
    assert s.log_mgf(1.0) == pytest.approx(0.0)  # E[zeta] = 1/(mu-1) = 1
    assert s.log_mgf(2.0) == math.inf
    # exp1: mean 1, E[e^(beta omega)] = 1 / (1 - beta) below beta = 1
    e = WeightSpec("exp1")
    assert e.nu() == 1.0
    assert e.log_mgf(0.5) == pytest.approx(math.log(2.0))
    assert e.log_mgf(1.0) == math.inf
    c = WeightSpec("const", c=2.5)
    assert c.nu() == 2.5
    assert c.log_mgf(0.4) == pytest.approx(1.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"law": "loggamma", "mu": 0.0},
        {"law": "loggamma", "mu": -1.0},
        {"law": "bernoulli", "p": 0.0},
        {"law": "bernoulli", "p": 1.0},
        {"law": "bernoulli", "p": 1.5},
        {"law": "poisson"},
    ],
)
def test_weight_spec_refuses_bad_parameters(kwargs):
    with pytest.raises(DomainError):
        WeightSpec(**kwargs)


@pytest.mark.parametrize("mu", [1000.0, 1100.0, 1200.0, 40000.0])
def test_log_inv_gamma_quantile_matches_gammainccinv_at_large_mu(mu):
    # fluctuation_mc draws its weights at mu = kappa N^2 of this size
    u = np.random.default_rng(0).random(200000)
    direct = -np.log(sps.gammainccinv(mu, u))
    assert np.abs(log_inv_gamma_quantile(mu, u) - direct).max() < 1e-12
    # scores beyond the table take the exact route
    u_tail = np.array([1e-12, 1e-20, 1.0 - 1e-12])
    assert np.allclose(log_inv_gamma_quantile(mu, u_tail), -np.log(sps.gammainccinv(mu, u_tail)), rtol=1e-13, atol=0)


@given(
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    x=st.integers(min_value=-10**6, max_value=10**6),
    y=st.integers(min_value=-10**6, max_value=10**6),
    offset=st.integers(min_value=0, max_value=2 * environment._CHUNK),
    mu=st.sampled_from([1e-3, 0.5, 2.0, 5.0, 2000.0]),
)
@settings(max_examples=25, deadline=None)
def test_environment_is_independent_of_evaluation_order(seed, x, y, offset, mu):
    # one site, alone, in a 3x3 block and in a row of two chunks and more
    # (where it lands in any chunk), gives the same bits every time
    f = UniformField(seed)
    spec = WeightSpec("loggamma", mu=mu)
    alone = np.float64(log_inv_gamma_quantile(mu, uniform_at(f, (x, y))))
    d = np.arange(-1, 2)
    block = omega_grid(f, spec, x + d[:, None], y + d[None, :])[1, 1]
    row = omega_grid(f, spec, x, y - offset + np.arange(2 * environment._CHUNK + 1))[offset]
    bits = {np.float64(v).view(np.uint64) for v in (alone, block, row)}
    assert len(bits) == 1


_LAWS = [
    WeightSpec("loggamma", mu=2.0),
    WeightSpec("loggamma", mu=1e-3),
    WeightSpec("exp1"),
    WeightSpec("gauss"),
    WeightSpec("bernoulli", p=0.3),
    WeightSpec("const", c=2.5),
]


@given(
    law=st.integers(min_value=0, max_value=len(_LAWS) - 1),
    seed=st.integers(min_value=0, max_value=2**64 - 1),
    chunk=st.integers(min_value=1, max_value=64),
    kind=st.sampled_from(["grid", "row", "scalar"]),
    w=st.integers(min_value=1, max_value=40),
    h=st.integers(min_value=1, max_value=40),
    x0=st.integers(min_value=-10**6, max_value=10**6),
)
@settings(max_examples=60, deadline=None)
def test_blocked_omega_grid_equals_inline_route_bitwise(law, seed, chunk, kind, w, h, x0):
    # small chunks make many blocks with a ragged last one; a chunk larger
    # than the input makes the whole grid one block
    spec, f = _LAWS[law], UniformField(seed)
    if kind == "grid":
        x1, x2 = x0 + np.arange(w)[:, None], np.arange(h)[None, :]
    elif kind == "row":
        x1, x2 = x0 + np.arange(w * h), 3
    else:
        x1, x2 = x0, h
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(environment, "_CHUNK", 1 << 40)
        inline = omega_grid(f, spec, x1, x2)
        mp.setattr(environment, "_CHUNK", chunk)
        blocked = omega_grid(f, spec, x1, x2)
    assert blocked.shape == inline.shape == np.broadcast_shapes(np.shape(x1), np.shape(x2))
    assert blocked.dtype == inline.dtype == np.float64
    assert np.array_equal(blocked, inline)
    # the inline route is the law's quantile transform of the uniform field
    u = f.uniform(x1, x2)
    want = {
        "loggamma": lambda: log_inv_gamma_quantile(spec.mu, u),
        "exp1": lambda: -np.log1p(-u),
        "gauss": lambda: sps.ndtri(u),
        "bernoulli": lambda: (u < spec.p).astype(np.float64),
        "const": lambda: np.full(np.shape(u), spec.c),
    }[spec.law]()
    assert np.array_equal(inline, want)


def test_blocked_omega_grid_raises_from_a_pool_task(monkeypatch):
    # above mu = 4e5 a uniform beyond ndtr(4.5) is refused; the refusal is
    # raised in one block and must reach the caller
    f = UniformField(3)
    i = int(np.argmax(f.uniform(np.arange(2 * 10**6), 0)))
    assert f.uniform(i, 0) > sps.ndtr(4.5)
    monkeypatch.setattr(environment, "_CHUNK", 8)
    with pytest.raises(DomainError):
        omega_grid(f, WeightSpec("loggamma", mu=2e6), i + np.arange(-60, 40), 0)


def test_omega_grid_does_not_enter_the_public_hash(monkeypatch):
    # the blocks must call the private hash: a tracer wrapping the public
    # names must see one call, not one per block
    def refuse(*args, **kwargs):
        raise AssertionError("omega_grid entered a public hash")

    want = omega_grid(UniformField(9), WeightSpec("loggamma", mu=2.0), np.arange(300)[:, None], np.arange(500))
    lanes = [9, 2**63 + 1, -3]
    want_lanes = omega_grid(lanes, WeightSpec("gauss"), np.arange(300)[:, None], np.arange(500))
    monkeypatch.setattr(UniformField, "uniform", refuse)
    monkeypatch.setattr(environment, "uniform_many", refuse)
    got = omega_grid(UniformField(9), WeightSpec("loggamma", mu=2.0), np.arange(300)[:, None], np.arange(500))
    assert np.array_equal(got, want)
    # three lanes of 150000 sites each, each lane blocked along its rows
    got_lanes = omega_grid(lanes, WeightSpec("gauss"), np.arange(300)[:, None], np.arange(500))
    assert np.array_equal(got_lanes, want_lanes)


@given(
    law=st.integers(min_value=0, max_value=len(_LAWS) - 1),
    seeds=st.lists(st.integers(min_value=-(2**63), max_value=2**64 - 1), min_size=1, max_size=5),
    form=st.sampled_from(["uint64", "ints", "one"]),
    chunk=st.sampled_from([3, 17, 1 << 40]),
    w=st.integers(min_value=1, max_value=12),
    h=st.integers(min_value=1, max_value=12),
)
@settings(max_examples=60, deadline=None)
def test_omega_grid_seed_lanes_stack_the_fields_bitwise(law, seeds, form, chunk, w, h):
    # lane i is the grid of UniformField(seeds[i]), inline or blocked
    spec = _LAWS[law]
    if form == "uint64":
        lanes = np.array([s & 0xFFFFFFFFFFFFFFFF for s in seeds], dtype=np.uint64)
    elif form == "ints":
        lanes = seeds + [2**63 + 5, 7]  # numpy alone would make these float64
    else:
        lanes = seeds[:1]
    x1, x2 = np.arange(w)[:, None], np.arange(h)
    want = np.stack([omega_grid(UniformField(int(s)), spec, x1, x2) for s in lanes])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(environment, "_CHUNK", chunk)
        got = omega_grid(lanes, spec, x1, x2)
    assert got.shape == (len(lanes), w, h) and got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("lanes", [5, np.zeros((2, 2), dtype=np.uint64), [1.5, 2]], ids=["int", "2-d", "float"])
def test_omega_grid_refuses_seed_lanes_that_are_not_a_1d_integer_sequence(lanes):
    with pytest.raises(DomainError):
        omega_grid(lanes, WeightSpec("exp1"), np.arange(3), 0)


def test_single_seed_lane_blocks_along_the_sites(monkeypatch):
    # one seed lane makes a first axis of size one: the blocks split the
    # next axis and give the unblocked hash bit for bit
    spec = WeightSpec("loggamma", mu=2.0)
    x1, x2 = np.arange(-3, 9)[:, None], np.arange(7)
    want = environment._uniform(5, x1, x2)
    want_law = log_inv_gamma_quantile(spec.mu, want)
    private = environment._uniform
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return private(*args, **kwargs)

    monkeypatch.setattr(environment, "_uniform", spy)
    monkeypatch.setattr(environment, "_CHUNK", 8)
    cases = [
        (lambda: environment.uniform_many(np.array([5])[:, None, None], x1, x2), want),
        (lambda: environment.uniform_many([[[5]]], x1[None], x2[None, None]), want),
        (lambda: omega_grid([5], spec, x1, x2), want_law),
    ]
    for run, ref in cases:
        calls.clear()
        got = run()
        assert got.shape == (1,) + ref.shape and got.tobytes() == ref.tobytes()
        assert len(calls) > 1


def test_lane_blocks_cover_the_lanes_in_budget_sized_slices():
    def blocks(count, per_lane, budget):
        return [(b.start, b.stop) for b in _lane_blocks(count, per_lane, budget)]

    assert blocks(0, 10, 30) == []
    # a lane above the budget gets a block of its own
    assert blocks(3, 31, 30) == [(0, 1), (1, 2), (2, 3)]
    assert blocks(6, 10, 30) == [(0, 3), (3, 6)]
    assert blocks(7, 10, 30) == [(0, 3), (3, 6), (6, 7)]
    assert blocks(7, 10, 29) == [(0, 2), (2, 4), (4, 6), (6, 7)]


def test_short_lane_axis_blocks_each_lane_along_its_rows(monkeypatch):
    # two seed lanes of 300 x 300 sites, more than a chunk each: every lane
    # is blocked along its rows, so no block holds more than a chunk, and
    # the lanes stay the fields bit for bit
    x1, x2 = np.arange(300)[:, None], np.arange(300)
    spec = WeightSpec("loggamma", mu=2.0)
    want = np.stack([omega_grid(UniformField(s), spec, x1, x2) for s in (5, 6)])
    want_u = np.stack([UniformField(s).uniform(x1, x2) for s in (5, 6)])
    private = environment._uniform
    sizes = []

    def spy(*args, **kwargs):
        u = private(*args, **kwargs)
        sizes.append(u.size)
        return u

    monkeypatch.setattr(environment, "_uniform", spy)
    monkeypatch.setattr(environment, "_CHUNK", 4096)
    for run, ref in (
        (lambda: omega_grid([5, 6], spec, x1, x2), want),
        (lambda: environment.uniform_many(np.array([5, 6])[:, None, None], x1, x2), want_u),
    ):
        sizes.clear()
        got = run()
        assert got.shape == ref.shape and got.tobytes() == ref.tobytes()
        assert sum(sizes) == 2 * 300 * 300
        assert len(sizes) > 2 and max(sizes) <= 4096
    assert omega_grid(np.array([], dtype=np.uint64), spec, x1, x2).shape == (0, 300, 300)


def test_uniform_many_blocks_bitwise(monkeypatch):
    # the blocks call only the private hash and give the unblocked hash bit
    # for bit
    seeds = np.array([2**63 + 5, 3, 2**64 - 1, 0, 17, 2**62, 9], dtype=np.uint64)
    x1, x2 = np.arange(-2, 3)[None, :, None], np.arange(6)[None, None, :]
    cases = [
        (seeds[:, None, None], x1, x2),
        (seeds[None, :, None], np.arange(-4, 4)[:, None, None], x2),
        ([int(s) for s in seeds], np.arange(-2, 2)[:, None], 3),
    ]
    wants = [environment._uniform(*case) for case in cases]
    uniform_many, private = environment.uniform_many, environment._uniform
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return private(*args, **kwargs)

    def refuse(*args, **kwargs):
        raise AssertionError("uniform_many entered a public hash")

    monkeypatch.setattr(environment, "_uniform", spy)
    monkeypatch.setattr(UniformField, "uniform", refuse)
    monkeypatch.setattr(environment, "uniform_many", refuse)
    # the benchmark's rmt size, 300 seeds x 12 x 12, is one block
    small = uniform_many(seeds[:3, None, None], np.arange(12)[:, None], np.arange(12))
    assert len(calls) == 1
    assert np.array_equal(small, private(seeds[:3, None, None], np.arange(12)[:, None], np.arange(12)))
    monkeypatch.setattr(environment, "_CHUNK", 8)
    for case, want in zip(cases, wants):
        calls.clear()
        got = uniform_many(*case)
        assert got.shape == want.shape and got.tobytes() == want.tobytes()
        assert len(calls) > 1


def test_block_plan_of_the_benchmark_sizes(monkeypatch):
    # a 1000 x 1000 grid runs as 16 blocks of 65 rows (the last 25); an
    # interface draw (256 lanes of 8 x 8) and an LUE draw (300 lanes of
    # 12 x 12 exponentials) each run as one call; all on the calling thread
    private = environment._uniform
    calls = []

    def spy(*args, **kwargs):
        u = private(*args, **kwargs)
        calls.append((threading.current_thread(), np.shape(u)))
        return u

    monkeypatch.setattr(environment, "_uniform", spy)
    x = np.arange(1000)
    grid = omega_grid(UniformField(4), WeightSpec("loggamma", mu=2.0), x[:, None], x)
    assert grid.shape == (1000, 1000)
    assert [shape for _, shape in calls] == [(65, 1000)] * 15 + [(25, 1000)]
    assert all(t is threading.current_thread() for t, _ in calls)
    for draw, shape in (
        (lambda: polymer.loggamma_rectangle(np.arange(256), 2.0, 8, 8), (256, 8, 8)),
        (lambda: rmt.lue_matrix_batch(12, 12, np.arange(300)), (300, 12, 12)),
    ):
        calls.clear()
        draw()
        assert calls == [(threading.current_thread(), shape)]
