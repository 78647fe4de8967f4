import math
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from nipoly import environment, polymer, rsk, scan
from nipoly.environment import UniformField, WeightSpec, derive_seed, derive_seeds, omega_grid
from nipoly.errors import DomainError, NoPathError
from nipoly.kpath import kpath_scan
from nipoly.lattice import enumerate_kpaths, rectangle_endpoints, stack_diag, stack_up
from nipoly.polymer import (
    brute_force_kpath_logZ,
    free_energy_mc,
    infinite_temperature_free_energy,
    ineq_theorem_check,
    jensen_sandwich_check,
    k_linearity_probe,
    kpath_logZ,
    last_passage,
    last_passage_batch,
    log_tau,
    log_tau_tilde,
    loggamma_rectangle,
    parallel_series_bound_mc,
    rost_ell,
    scaled_k_check,
    sepp_free_energy,
    single_path_logZ,
    TauTable,
    w_limit,
)
from nipoly.rsk import corner_diagonal_sum, grsk, tropical_rsk
from nipoly.scan import _logaddexp, scan_rectangle
from nipoly.special import log_binomial
from test_routes import _mpmath_log_z, _random_kpoints

GAMMA = 0.5772156649015329
LG2 = WeightSpec("loggamma", mu=2.0)


def test_single_path_trivial_cases():
    f = UniformField(1)
    # x == y: single trivial path, empty product
    assert single_path_logZ(f, LG2, 1.0, (3, 3), (3, 3)) == 0.0
    # beta = 0 counts paths
    got = single_path_logZ(f, LG2, 0.0, (1, 1), (4, 3))
    assert got == pytest.approx(log_binomial(5, 3).logmag, abs=1e-12)
    with pytest.raises(NoPathError):
        single_path_logZ(f, LG2, 1.0, (2, 2), (1, 5))


def test_single_path_constant_weights():
    f = UniformField(1)
    spec = WeightSpec("const", c=0.7)
    beta = 0.9
    x, y = (1, 1), (5, 4)
    d1, d2 = y[0] - x[0], y[1] - x[1]
    expect = log_binomial(d1 + d2, d1).logmag + beta * 0.7 * (d1 + d2)
    assert single_path_logZ(f, spec, beta, x, y) == pytest.approx(expect, rel=1e-12)


def test_logaddexp_helper_special_values():
    # under the scan's errstate: no other RuntimeWarning, and the values of
    # np.logaddexp at infinities, NaN, equal arguments and gaps beyond the
    # underflow of exp (745)
    inf, nan = np.inf, np.nan
    a = np.array([-inf, inf, inf, -inf, -inf, 3.0, nan, 2.0, 0.0, -5.0, 1.0, 1e4, 0.0, -800.0])
    b = np.array([-inf, inf, -inf, inf, 7.0, -inf, 1.0, nan, 0.0, -5.0, -745.5, -1e4, 800.0, 0.0])
    want = np.array([-inf, inf, inf, inf, 7.0, 3.0, nan, nan, math.log(2.0), -5.0 + math.log(2.0), 1.0, 1e4, 800.0, 0.0])
    out = np.full(a.shape, 123.0)
    with warnings.catch_warnings(), np.errstate(invalid="ignore"):
        warnings.simplefilter("error")
        got = _logaddexp(a, b, out=out)
        fresh = _logaddexp(b, a)
    assert got is out
    assert np.array_equal(got, want, equal_nan=True)
    assert np.array_equal(fresh, want, equal_nan=True)
    # a scan that meets both equal infinities, or a NaN, warns of nothing
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert scan_rectangle(np.array([[0.0, -inf], [-inf, 2.0]])) == -inf
        assert scan_rectangle(np.array([[0.0, inf], [inf, 2.0]])) == inf
        assert np.isnan(scan_rectangle(np.array([[0.0, nan], [1.0, 2.0]])))


def test_logaddexp_helper_matches_numpy():
    # 10^6 pairs over scales 1e-3 to 1e5 of either sign, and close pairs
    rng = np.random.default_rng(2024)
    n = 10**6
    scale = 10.0 ** rng.uniform(-3.0, 5.0, size=(2, n))
    a, b = scale * rng.choice([-1.0, 1.0], size=(2, n))
    b[: n // 4] = a[: n // 4] * (1.0 + 1e-3 * rng.standard_normal(n // 4))
    want = np.logaddexp(a, b)
    got = _logaddexp(a, b, out=np.empty(n))
    err = np.abs(got - want) / np.maximum(1.0, np.abs(want))
    assert err.max() <= 2.0 * np.finfo(float).eps


def test_scan_maximum_mode():
    logw = np.ones((4, 6))
    assert scan_rectangle(logw, np.maximum, include_start=True) == pytest.approx(9.0)


@pytest.mark.parametrize("w, h", [(1, 1), (1, 8), (8, 1), (2, 2), (2, 3), (5, 4), (6, 6), (9, 4), (3, 12)])
@pytest.mark.parametrize("include_start", [False, True])
def test_scan_matches_40_digit_dp(w, h, include_start):
    # shapes with w + h odd and even, so the backward scan takes the extra
    # step or not, and meeting diagonals of one cell up to min(w, h)
    rng = np.random.default_rng(1000 * w + h)
    for _ in range(5):
        logw = rng.standard_normal((w, h))
        want = _mpmath_log_z(logw, include_start)
        got = float(scan_rectangle(logw, include_start=include_start))
        assert abs(got - want) <= 1e-14 * max(1.0, abs(float(want)))


def _row_wise_max_plus(logw, include_start):
    w, h = logw.shape
    g = np.full((w, h), -np.inf)
    g[0, 0] = logw[0, 0] if include_start else 0.0
    for i in range(w):
        for j in range(h):
            if i or j:
                g[i, j] = max(g[i - 1, j] if i else -np.inf, g[i, j - 1] if j else -np.inf) + logw[i, j]
    return g[-1, -1]


@pytest.mark.parametrize("w, h", [(1, 1), (1, 9), (9, 1), (2, 2), (4, 7), (8, 8), (13, 6)])
@pytest.mark.parametrize("include_start", [False, True])
def test_scan_max_plus_exact_on_integer_weights(w, h, include_start):
    # every partial sum of small integers is exact, so any association order
    # gives the same float
    rng = np.random.default_rng(7 * w + h)
    for _ in range(5):
        logw = rng.integers(-50, 50, size=(w, h)).astype(float)
        got = scan_rectangle(logw, np.maximum, include_start)
        assert got == _row_wise_max_plus(logw, include_start)


@pytest.mark.parametrize("combine", [_logaddexp, np.logaddexp, np.maximum])
@pytest.mark.parametrize("batch", [(4,), (2, 3), (1,), (1, 1)])
def test_scan_batch_lanes_equal_unbatched_calls_bitwise(combine, batch):
    rng = np.random.default_rng(11)
    for w, h in [(1, 1), (1, 5), (5, 1), (2, 2), (6, 9), (10, 7)]:
        for include_start in (False, True):
            logw = 2.0 * rng.standard_normal(batch + (w, h))
            got = scan_rectangle(logw, combine, include_start)
            assert got.shape == batch
            for lane in np.ndindex(batch):
                assert got[lane] == scan_rectangle(logw[lane], combine, include_start)


@pytest.mark.parametrize("shape", [(3, 0), (0, 3), (0, 0), (2, 0, 4), (2, 4, 0)])
def test_scan_refuses_an_empty_rectangle(shape):
    with pytest.raises(DomainError):
        scan_rectangle(np.zeros(shape))


@pytest.mark.parametrize("w, h", [(1, 1), (1, 30), (30, 1), (2, 2), (5, 9), (40, 40), (64, 17), (100, 300)])
def test_scan_makes_half_the_combine_calls(w, h):
    # about (w + h - 2) / 2 steps, each one combine call with out=, plus a
    # fold of the meeting diagonal in O(log min(w, h)) calls; a sequential
    # scan makes w + h - 2 steps
    calls = {"step": 0, "fold": 0}

    def counting(a, b, out=None):
        calls["fold" if out is None else "step"] += 1
        return _logaddexp(a, b, out=out)

    logw = np.random.default_rng(w * h).standard_normal((w, h))
    assert scan_rectangle(logw, counting) == scan_rectangle(logw)
    assert calls["step"] <= math.ceil((w + h - 2) / 2) + 1
    assert calls["step"] >= math.ceil((w + h - 2) / 2)
    assert calls["fold"] <= math.ceil(math.log2(min(w, h)))


# ---------------------------------------------------------------------------
# The streamed scan: a _Bands source draws the weights box by box
# ---------------------------------------------------------------------------


def _stream_cases(lanes):
    # (field, spec, beta): one field or seed lanes, loggamma at beta 1 and
    # 0.5, the const law, beta 0 and spec None
    field = UniformField(17) if lanes is None else derive_seeds(17, 0x5B, np.arange(lanes))
    return [(field, LG2, 1.0), (field, LG2, 0.5), (field, WeightSpec("const", c=0.3), 1.0), (field, LG2, 0.0), (None, None, 0.0)]


@pytest.mark.parametrize("w, h", [(1, 1), (7, 1), (1, 9), (2, 3), (6, 6), (9, 4), (4, 13), (40, 33), (33, 40), (45, 28)])
@pytest.mark.parametrize("chunk", [64, 1 << 16])
def test_streamed_scan_equals_the_held_grid_bitwise(w, h, chunk, monkeypatch):
    # boxes of one or a few anti-diagonals (chunk 64) and of the whole
    # rectangle; both parities of w + h, offsets with negative coordinates,
    # include_start both ways, one field and seed lanes
    monkeypatch.setattr(environment, "_CHUNK", chunk)
    for x in ((1, 1), (-7, -3)):
        y = (x[0] + w - 1, x[1] + h - 1)
        for lanes in (None, 3):
            for field, spec, beta in _stream_cases(lanes):
                for include_start in (False, True):
                    held = scan_rectangle(polymer._rectangle_logw(field, spec, beta, x, y), include_start=include_start)
                    streamed = scan_rectangle(polymer._rectangle_bands(field, spec, beta, x, y), include_start=include_start)
                    assert np.shape(streamed) == np.shape(held)
                    assert streamed.tobytes() == held.tobytes()


@pytest.mark.parametrize(
    "w, h, include_start",
    [(256, 256, False), (256, 257, True), (257, 256, False), (2**16 + 1, 1, True), (1, 2**16 + 1, False)],
)
def test_single_path_logZ_streams_above_a_chunk_bitwise(w, h, include_start):
    # a rectangle of at most _CHUNK cells is drawn whole, a larger one box
    # by box; both give the bytes of the scan of the held grid
    f = UniformField(23)
    x = (-40, 3)
    y = (x[0] + w - 1, x[1] + h - 1)
    want = scan_rectangle(polymer._rectangle_logw(f, LG2, 0.5, x, y), include_start=include_start)
    got = single_path_logZ(f, LG2, 0.5, x, y, include_start)
    assert isinstance(got, float) and got == float(want)


def test_streamed_boxes_draw_only_sites_of_the_rectangle(monkeypatch):
    # the corners of a box off the rectangle repeat a site of its edge, so
    # a law that refuses some site refuses it on both routes alike
    monkeypatch.setattr(environment, "_CHUNK", 200)
    x, y = (-5, 2), (30, 20)
    seen = []

    def spy(field, spec, a, b, fn=polymer.omega_grid):
        seen.append(np.broadcast_arrays(a, b))
        return fn(field, spec, a, b)

    monkeypatch.setattr(polymer, "omega_grid", spy)
    scan_rectangle(polymer._rectangle_bands(UniformField(2), LG2, 1.0, x, y))
    assert len(seen) > 1
    drawn = {(int(p), int(q)) for a, b in seen for p, q in zip(a.ravel(), b.ravel())}
    assert drawn == {(p, q) for p in range(x[0], y[0] + 1) for q in range(x[1], y[1] + 1)}


def test_streamed_lanes_run_in_lane_blocks_bitwise(monkeypatch):
    # 5 seed lanes of 300 x 250 (above a chunk) under a budget of two
    # streamed lanes: blocks of 2, 2 and 1, each scan_rectangle call stands
    # for its block's lanes x W x H, and every lane is bitwise its own call
    x, y = (1, 1), (300, 250)
    lanes = derive_seeds(9, 0x51, np.arange(5))
    want = np.array([single_path_logZ(UniformField(int(s)), LG2, 1.0, x, y) for s in lanes])
    shapes = []

    def counted(logw, *args, fn=polymer.scan_rectangle):
        shapes.append((np.shape(logw), np.size(logw)))
        return fn(logw, *args)

    monkeypatch.setattr(polymer, "scan_rectangle", counted)
    monkeypatch.setattr(environment, "_LANE_CELLS", 2 * scan._band_cells(300, 250))
    got = single_path_logZ(lanes, LG2, 1.0, x, y)
    assert got.tobytes() == want.tobytes()
    assert [shape[0] for shape, _ in shapes] == [2, 2, 1]
    for shape, size in shapes:
        assert shape[1:] == (300, 250) and size == shape[0] * 300 * 250


def test_single_path_logZ_makes_one_scan_call_over_its_draws(monkeypatch):
    # a tracer that wraps polymer.scan_rectangle sees one call that stands
    # for the whole W x H rectangle, and one that wraps polymer.omega_grid
    # sees the draws made under it
    scans, draws = [], []

    def traced(logw, *args, fn=polymer.scan_rectangle):
        scans.append(np.size(logw))
        return fn(logw, *args)

    def draw(*args, fn=polymer.omega_grid):
        out = fn(*args)
        draws.append(out.size)
        return out

    monkeypatch.setattr(polymer, "scan_rectangle", traced)
    monkeypatch.setattr(polymer, "omega_grid", draw)
    single_path_logZ(UniformField(3), LG2, 1.0, (1, 1), (1000, 1000))
    assert scans == [1000 * 1000]
    assert len(draws) >= 1 and sum(draws) >= 1000 * 1000


def test_one_streamed_field_holds_no_grid():
    # the 2000 x 2000 grid alone is 32 MB; the streamed scan holds a box of
    # at most _CHUNK sites and its state
    f = UniformField(4)
    single_path_logZ(f, LG2, 1.0, (1, 1), (300, 300))  # the quantile table is built outside the count
    tracemalloc.start()
    try:
        single_path_logZ(f, LG2, 1.0, (1, 1), (2000, 2000))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 12 * 2**20


def test_streamed_lanes_hold_one_box_at_a_time():
    # 8 seed lanes of 700 x 700 (31 MB of grid) run as one lane block: the
    # spent box is dropped before the next is drawn, and the corners are
    # copied out of the first, so the scan never holds two boxes
    lanes = derive_seeds(5, 1, np.arange(8))
    single_path_logZ(lanes[:2], LG2, 1.0, (1, 1), (300, 300))  # the quantile table is built outside the count
    box = 8 * 2 * scan._box_depth(700, 700) * 700 * 8  # bytes
    tracemalloc.start()
    try:
        single_path_logZ(lanes, LG2, 1.0, (1, 1), (700, 700))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * box


@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0])
def test_lgv_vs_brute_force(beta):
    xs, ys = rectangle_endpoints(3, 3, 2)
    for s in range(5):
        f = UniformField(derive_seed(100, s))
        got = kpath_logZ(f, LG2, beta, xs, ys)
        bf = brute_force_kpath_logZ(f, LG2, beta, xs, ys)
        assert abs(got - bf) <= 1e-13 * max(1.0, abs(bf))


def test_lgv_diagonal_endpoints():
    xs = stack_diag((1, 1), 2)
    ys = tuple((p[0] + 3, p[1] + 3) for p in xs)
    for s in (0, 1):
        f = UniformField(derive_seed(7, s))
        got = kpath_logZ(f, LG2, 1.0, xs, ys)
        bf = brute_force_kpath_logZ(f, LG2, 1.0, xs, ys)
        assert abs(got - bf) <= 1e-13 * max(1.0, abs(bf))


def test_kpath_matches_brute_force_at_tiny_mu():
    # a float LGV determinant cancels on these fields: it loses its sign on
    # 25 of the 40 and misses brute force on 11 more
    spec = WeightSpec("loggamma", mu=1e-3)
    xs, ys = rectangle_endpoints(4, 4, 2)
    for s in range(40):
        f = UniformField(derive_seed(5, s))
        got = kpath_logZ(f, spec, 1.0, xs, ys)
        bf = brute_force_kpath_logZ(f, spec, 1.0, xs, ys)
        assert abs(got - bf) <= 1e-13 * abs(bf)


def test_kpath_matches_extended_precision_at_n192():
    # a replica of k_linearity_probe(seed=11) on which a float LGV
    # determinant is off by 1.29e-4; the reference is the 2 x 2 LGV
    # determinant at 60 digits, the float weights taken as exact
    xs = stack_diag((1, 1), 2)
    ys = tuple((p[0] + 192, p[1] + 192) for p in xs)
    got = kpath_logZ(UniformField(derive_seed(11, 0x2B, 7)), LG2, 1.0, xs, ys)
    ref = 407.461462031504076527522
    assert abs(got - ref) <= 1e-14 * ref


@pytest.mark.parametrize("mu", [1e-3, 2.0])
def test_kpath_non_stacked_three_paths_with_start(mu):
    # three paths entering and leaving on different anti-diagonals
    spec = WeightSpec("loggamma", mu=mu)
    xs, ys = ((3, 1), (1, 2), (0, 4)), ((6, 3), (5, 5), (2, 7))
    for s in range(3):
        f = UniformField(derive_seed(17, s))
        for include_start in (False, True):
            got = kpath_logZ(f, spec, 1.0, xs, ys, include_start=include_start)
            bf = brute_force_kpath_logZ(f, spec, 1.0, xs, ys, include_start=include_start)
            assert abs(got - bf) <= 1e-13 * max(1.0, abs(bf))


@given(
    k=st.integers(min_value=1, max_value=3),
    draws=st.lists(st.integers(min_value=0, max_value=99), min_size=9, max_size=9),
    include_start=st.booleans(),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
@settings(max_examples=40, deadline=None)
def test_kpath_scan_matches_enumeration(k, draws, include_start, seed):
    xs, ys = _random_kpoints(draws, k)
    (w, h) = (max(y[0] for y in ys) + 1, max(y[1] for y in ys) + 1)
    logw = 50.0 * np.random.default_rng(seed).standard_normal((w, h))
    got = kpath_scan(logw, xs, ys, include_start)
    totals = [
        sum(logw[a, b] for comp in kp for a, b in (comp if include_start else comp[1:]))
        for kp in enumerate_kpaths(xs, ys)
    ]
    if not totals:
        assert got == -np.inf
    else:
        ref = logsumexp(totals)
        assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref))


def test_kpath_scan_cap_counts_cells_times_lanes(monkeypatch):
    # two paths in 4-wide bands hold 16 cells per lane
    xs, ys = ((1, 0), (0, 1)), ((4, 3), (3, 4))
    logw = np.zeros((3, 5, 5))
    monkeypatch.setattr(environment, "_LANE_CELLS", 32)
    assert kpath_scan(logw[:2], xs, ys).shape == (2,)
    with pytest.raises(DomainError):
        kpath_scan(logw, xs, ys)


def test_kpath_scan_refuses_bad_input():
    logw = np.zeros((8, 8))
    with pytest.raises(DomainError):
        kpath_scan(logw, ((0, 0), (0, 1)), ((7, 7),))
    with pytest.raises(DomainError):
        kpath_scan(logw, (), ())
    with pytest.raises(DomainError):
        kpath_logZ(UniformField(1), LG2, 1.0, ((1, 1),), ((4, 4), (5, 5)))
    with pytest.raises(DomainError):
        kpath_scan(logw, ((0, 0),), ((8, 7),))
    with pytest.raises(NoPathError):
        kpath_scan(logw, ((3, 0),), ((2, 7),))
    # three 201-wide bands: 201^3 > 2^22 cells, refused before any work
    big = np.broadcast_to(0.0, (604, 604))
    xs = ((2, 0), (1, 1), (0, 2))
    with pytest.raises(DomainError):
        kpath_scan(big, xs, tuple((x[0] + 600, x[1] + 600) for x in xs))
    # crossing ends admit no non-intersecting pair
    crossed = kpath_scan(logw, ((1, 0), (0, 1)), ((3, 6), (6, 3)))
    assert crossed == -np.inf
    with pytest.raises(NoPathError):
        kpath_logZ(UniformField(1), LG2, 1.0, ((1, 0), (0, 1)), ((3, 6), (6, 3)))


def test_tau_trivial_cases():
    f = UniformField(9)
    mu = 1.5
    t = TauTable(f, mu, 3)
    # tau(m, 0) = 1, on both routes
    assert t.log_tau(2, 0) == 0.0
    assert log_tau(f, mu, 3, 2, 0) == 0.0 and log_tau_tilde(f, mu, 3, 2, 0) == 0.0
    # N = m = k = 1: tau = zeta(1,1)
    t1 = TauTable(f, mu, 1)
    from nipoly.environment import omega_grid

    assert t1.log_tau(1, 1) == pytest.approx(
        float(omega_grid(f, WeightSpec("loggamma", mu=mu), 1, 1)), rel=1e-10
    )
    # tau(m, m) is the plain product over the N x m rectangle
    for m in (1, 2, 3):
        full = float(
            omega_grid(
                f,
                WeightSpec("loggamma", mu=mu),
                np.arange(1, 4)[:, None],
                np.arange(1, m + 1)[None, :],
            ).sum()
        )
        assert t.log_tau(m, m) == pytest.approx(full, rel=1e-9, abs=1e-9)


def test_tau_vs_brute_force():
    f = UniformField(31)
    mu = 2.0
    n, m, k = 3, 2, 1
    got = log_tau(f, mu, n, m, k)
    xs, ys = stack_up((1, 1), k), tuple((n, m - (k - 1) + i) for i in range(k))
    bf = brute_force_kpath_logZ(f, WeightSpec("loggamma", mu=mu), 1.0, xs, ys, include_start=True)
    assert got == pytest.approx(bf, abs=1e-9)
    # and a k=2 case
    n, m, k = 4, 3, 2
    got = log_tau(f, mu, n, m, k)
    xs = stack_up((1, 1), 2)
    ys = tuple((n, m - 1 + i) for i in range(2))
    bf = brute_force_kpath_logZ(f, WeightSpec("loggamma", mu=mu), 1.0, xs, ys, include_start=True)
    assert got == pytest.approx(bf, abs=1e-8)


def test_tau_tilde_transposed_rectangle():
    # tau~(m,k) sums over the m-wide, N-tall rectangle
    f = UniformField(13)
    mu, n = 2.0, 3
    got = log_tau_tilde(f, mu, n, 2, 1)
    xs, ys = ((1, 1),), ((2, 3),)
    bf = brute_force_kpath_logZ(f, WeightSpec("loggamma", mu=mu), 1.0, xs, ys, include_start=True)
    assert got == pytest.approx(bf, abs=1e-9)


def _brute_tau(f, mu, width, height, k):
    """log tau by enumeration: k paths from stack_up((1,1),k) to
    stack_down((width, height),k), start weights included."""
    ys = tuple((width, height - k + 1 + i) for i in range(k))
    spec = WeightSpec("loggamma", mu=mu)
    return brute_force_kpath_logZ(f, spec, 1.0, stack_up((1, 1), k), ys, include_start=True)


@given(
    seed=st.integers(min_value=0, max_value=2**32),
    n=st.integers(min_value=1, max_value=4),
    mu=st.sampled_from([1e-3, 0.5, 5.0, 1e6]),
)
@settings(max_examples=40, deadline=None)
def test_grsk_tau_matches_brute_force_and_lgv(seed, n, mu):
    f = UniformField(seed)
    lgv = TauTable(f, mu, n)
    for m in range(1, n + 1):
        for k in range(1, m + 1):
            for got, oracle, bf in (
                (log_tau(f, mu, n, m, k), lgv.log_tau, _brute_tau(f, mu, n, m, k)),
                (log_tau_tilde(f, mu, n, m, k), lgv.log_tau_tilde, _brute_tau(f, mu, m, n, k)),
            ):
                scale = max(1.0, abs(bf))
                assert abs(got - bf) <= 1e-13 * scale
                assert abs(got - oracle(m, k)) <= 1e-9 * scale


def test_tau_table_is_small_size_only():
    with pytest.raises(DomainError):
        TauTable(UniformField(1), 2.0, 7)


def _enumerated_last_passage(e, k):
    n, m = e.shape
    ys = tuple((n, m - k + 1 + i) for i in range(k))
    return max(
        sum(e[a - 1, b - 1] for comp in kp for a, b in comp)
        for kp in enumerate_kpaths(stack_up((1, 1), k), ys)
    )


@pytest.mark.parametrize("k", [2, 3])
def test_tropical_rsk_matches_enumeration(k):
    for n in range(k, 7):
        for m in range(k, 6):
            f = UniformField(derive_seed(41, n, m, k))
            e = omega_grid(
                f, WeightSpec("exp1"), np.arange(1, n + 1)[:, None], np.arange(1, m + 1)[None, :]
            )
            want = _enumerated_last_passage(e, k)
            assert float(corner_diagonal_sum(tropical_rsk(e), k)) == pytest.approx(want, rel=1e-14)
            assert last_passage(f, n, m, k) == pytest.approx(want, rel=1e-14)


def test_rsk_batched_equals_unbatched_bitwise():
    # lane counts on both sides of the SIMD widths, and the output is a
    # C-contiguous lanes-first array
    for lanes in (1, 3, 4, 7, 8, 9, 17, 65):
        fields = [UniformField(derive_seed(43, r)) for r in range(lanes)]
        logw = np.stack([loggamma_rectangle(f, 0.7, 7, 5) for f in fields])
        for engine in (grsk, tropical_rsk):
            batch = engine(logw)
            assert batch.shape == logw.shape and batch.flags.c_contiguous
            for r in range(lanes):
                one = engine(logw[r])
                assert one.flags.c_contiguous
                assert np.array_equal(batch[r], one)
    nested = grsk(logw.reshape(5, 13, 7, 5))
    assert nested.flags.c_contiguous
    assert np.array_equal(nested.reshape(65, 7, 5), grsk(logw))


def test_rsk_memoized_plan_equals_the_plan_built_per_step(monkeypatch):
    logw = 2.0 * np.random.default_rng(5).standard_normal((9, 6, 11))
    assert rsk._plan_bytes(6, 11) <= rsk._PLAN_BUDGET
    # the second memoized call reuses the cached plan
    memo = [[engine(logw) for engine in (grsk, tropical_rsk)] for _ in range(2)]
    monkeypatch.setattr(rsk, "_PLAN_BUDGET", 0)
    for got in memo:
        assert np.array_equal(got[0], grsk(logw))
        assert np.array_equal(got[1], tropical_rsk(logw))


def test_rsk_memoizes_only_plans_within_the_budget():
    for n, m in [(1, 1), (1, 9), (9, 1), (5, 7), (16, 16)]:
        plan = sum(rows.nbytes for rows, _, _ in rsk._rsk_steps(n, m))
        assert rsk._plan_bytes(n, m) == plan
    assert rsk._plan_bytes(16, 16) < 100_000
    assert rsk._plan_bytes(64, 80) > rsk._PLAN_BUDGET
    before = rsk._memo_steps.cache_info()
    grsk(np.zeros((2, 64, 80)))
    assert rsk._memo_steps.cache_info() == before
    rsk._memo_steps.cache_clear()
    grsk(np.zeros((2, 16, 16)))
    assert rsk._memo_steps.cache_info().currsize == 1


def test_rsk_refuses_empty_shapes():
    for engine in (grsk, tropical_rsk):
        for shape in [(3, 0), (0, 3), (0, 0), (2, 0, 4), (2, 4, 0)]:
            with pytest.raises(DomainError):
                engine(np.zeros(shape))
        # zero lanes are not an empty shape
        assert engine(np.zeros((0, 3, 3))).shape == (0, 3, 3)


def test_grsk_diagonal_identities_on_the_square():
    # the N x N pattern also holds every tau(m, k) and tau~(m, k) on the
    # diagonals through (N, m) and (m, N)
    f = UniformField(44)
    mu, n = 2.5, 6
    t = grsk(loggamma_rectangle(f, mu, n, n))
    for m in range(1, n + 1):
        for k in range(1, m + 1):
            diag = sum(t[n - 1 - l, m - 1 - l] for l in range(k))
            diag_t = sum(t[m - 1 - l, n - 1 - l] for l in range(k))
            assert diag == pytest.approx(log_tau(f, mu, n, m, k), rel=1e-13)
            assert diag_t == pytest.approx(log_tau_tilde(f, mu, n, m, k), rel=1e-13)


def test_last_passage_constant_field_length():
    # with e == 1 the value is the path site count N + m - 1
    f = UniformField(2)
    n, m = 5, 3
    val = last_passage(f, n, m, 1)
    x1 = np.arange(1, n + 1)
    x2 = np.arange(1, m + 1)
    from nipoly.environment import omega_grid

    e = omega_grid(f, WeightSpec("exp1"), x1[:, None], x2[None, :])
    # brute force over all paths
    best = max(
        sum(float(e[p[0] - 1, p[1] - 1]) for p in path)
        for path in __import__("nipoly.lattice", fromlist=["paths_between"]).paths_between((1, 1), (n, m))
    )
    assert val == pytest.approx(best, rel=1e-12)


def test_last_passage_full_rectangle():
    f = UniformField(3)
    n, m = 3, 2
    from nipoly.environment import omega_grid

    e = omega_grid(
        f, WeightSpec("exp1"), np.arange(1, n + 1)[:, None], np.arange(1, m + 1)[None, :]
    )
    assert last_passage(f, n, m, k=m) == pytest.approx(float(e.sum()), rel=1e-12)


def test_last_passage_batch_matches_scalar():
    seeds = derive_seeds(5, 0x17, np.arange(4))
    for k in (1, 2, 3):
        batch = last_passage_batch(seeds, 6, 4, k)
        for i, s in enumerate(seeds):
            assert batch[i] == last_passage(UniformField(int(s)), 6, 4, k)


def test_last_passage_batch_takes_python_ints_straddling_2_63():
    # numpy stores such a list as float64, which would lose the low bits
    seeds = [1, 2**63 + 1, -5]
    for k in (1, 2, 3):
        want = [last_passage(UniformField(s), 3, 3, k) for s in seeds]
        assert last_passage_batch(seeds, 3, 3, k).tolist() == want


@pytest.mark.parametrize("seed", [1, -5, 2**63 + 5, 2**64 + 3])
def test_last_passage_on_wide_seeds_matches_enumeration(seed):
    f = UniformField(seed)
    for n, m, k in [(1, 1, 1), (4, 3, 1), (3, 4, 2), (5, 4, 3), (4, 4, 4)]:
        e = omega_grid(
            f, WeightSpec("exp1"), np.arange(1, n + 1)[:, None], np.arange(1, m + 1)[None, :]
        )
        got = last_passage(f, n, m, k)
        assert got == pytest.approx(_enumerated_last_passage(e, k), rel=1e-14)
        # bit for bit the route before last_passage became a batch lane
        if k == 1:
            want = scan_rectangle(e, np.maximum, include_start=True)
        else:
            want = corner_diagonal_sum(tropical_rsk(e), k)
        assert got == float(want)


def test_last_passage_needs_k_at_most_min_side():
    # the 3 x 2 rectangle holds no 3-path
    with pytest.raises(DomainError):
        last_passage(UniformField(1), 3, 2, 3)
    with pytest.raises(DomainError):
        last_passage(UniformField(1), 3, 2, 0)


def test_corner_diagonal_sum_needs_k_within_the_shorter_side():
    # on a 3 x 4 (and a batched 2 x 3 x 4) output, k runs over 0..3; k = 4
    # once returned the k = 3 sum and k = -1 the first two entries
    t = np.arange(12.0).reshape(3, 4)
    assert [float(corner_diagonal_sum(t, k)) for k in range(4)] == [0.0, 11.0, 17.0, 18.0]
    tb = np.stack([t, -t])
    assert corner_diagonal_sum(tb, 3).tolist() == [18.0, -18.0]
    for bad in (-1, 4, 5):
        for arr in (t, tb, t.T):
            with pytest.raises(DomainError):
                corner_diagonal_sum(arr, bad)


def test_sepp_free_energy_closed_forms():
    assert sepp_free_energy(2.0, 1.0) == pytest.approx(2 * GAMMA, abs=1e-10)
    # psi0(1/2) = -gamma - 2 ln 2
    assert sepp_free_energy(1.0, 1.0) == pytest.approx(2 * GAMMA + 4 * math.log(2.0), abs=1e-10)
    # decreasing in mu at fixed c
    vals = [sepp_free_energy(mu, 1.0) for mu in (0.5, 1.0, 2.0, 4.0)]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_sepp_free_energy_without_bracket_raises():
    # at c = 1e-40 the stationary theta ~ 1e-20 lies below the bracket's 1e-12 mu
    with pytest.raises(DomainError):
        sepp_free_energy(1.0, 1e-40)


def test_infinite_temperature_value():
    assert infinite_temperature_free_energy(1.0) == pytest.approx(2 * math.log(2.0))


def test_rost_ell():
    assert rost_ell(1.0) == 4.0
    assert rost_ell(0.25) == pytest.approx(2.25)


def test_rost_ell_refuses_negative_slopes():
    assert rost_ell(0.0) == 1.0  # the limit stays
    with pytest.raises(DomainError):
        rost_ell(-1.0)


def test_ineq_theorem():
    assert ineq_theorem_check(2.0, 1.0, 2.0)["ok"]
    for c in (0.5, 1.0):
        for cp in (1.5, 2.0):
            assert ineq_theorem_check(1.0, c, cp)["ok"]
    # c' -> c collapses both bounds to f_c
    r = ineq_theorem_check(2.0, 1.0, 1.0 + 1e-9)
    assert r["lower"] == pytest.approx(r["f_c"], abs=1e-6)
    assert r["upper"] == pytest.approx(r["f_c"], abs=1e-6)


def test_free_energy_mc_beta0():
    est = free_energy_mc(None, 0.0, 1.0, 64, 2, seed=1)
    assert est.estimate == pytest.approx(
        log_binomial(2 * 63, 63).logmag / 64, rel=1e-10
    )


def test_free_energy_superadditivity_trend():
    # mean estimates non-decreasing in N within 2 stderr
    ests = [free_energy_mc(LG2, 1.0, 1.0, n, 12, seed=5) for n in (16, 32, 64)]
    for a, b in zip(ests, ests[1:]):
        assert b.estimate >= a.estimate - 2 * (a.stderr + b.stderr)


def test_jensen_sandwich_gaussian_and_bernoulli():
    xs, ys = rectangle_endpoints(4, 4, 2)
    r = jensen_sandwich_check(WeightSpec("gauss"), 1.0, xs, ys, 60, seed=2)
    assert r["lower"] == 0.0
    assert r["upper"] == pytest.approx(0.5)
    assert r["ok"]
    r = jensen_sandwich_check(WeightSpec("bernoulli", p=0.5), 1.0, xs, ys, 60, seed=3)
    assert r["lower"] == pytest.approx(0.5)
    assert r["upper"] == pytest.approx(math.log((1 + math.e) / 2))
    assert r["ok"]


def test_jensen_sandwich_beta0_trivial():
    xs, ys = rectangle_endpoints(3, 3, 1)
    r = jensen_sandwich_check(WeightSpec("gauss"), 0.0, xs, ys, 5, seed=4)
    assert r["mean"] == 0.0
    assert r["lower"] == 0.0 and r["upper"] == 0.0


def test_w_limit_values():
    assert w_limit(1.0, 1.0) == pytest.approx(0.0, abs=1e-12)
    assert w_limit(1.0, 0.5) == pytest.approx(0.1962180, abs=1e-6)
    assert w_limit(1.0, 1e-9) == pytest.approx(0.0, abs=1e-7)


def test_scaled_k_check():
    r = scaled_k_check(400, 1.0, 0.5)
    assert r["gap"] < 0.02


def test_parallel_series_bounds_loggamma():
    r = parallel_series_bound_mc(LG2, 1.0, replicas=60, seed=6)
    assert r["violations"] == {"series": 0, "parallel": 0, "hadamard": 0}


def test_parallel_series_bounds_deterministic():
    r = parallel_series_bound_mc(WeightSpec("const", c=1.0), 0.7, replicas=1, seed=0)
    assert r["violations"] == {"series": 0, "parallel": 0, "hadamard": 0}
    assert r["min_slack"] >= 0.0


def test_k_linearity_probe():
    r = k_linearity_probe(LG2, 1.0, 1.0, 192, 12, seed=11)
    assert r["ok"], r


def _diagonal_2points(n):
    # two paths over an n x n square: (n + 1)^2 k-path state cells a lane
    xs2 = stack_diag((1, 1), 2)
    return xs2, tuple((p[0] + n, p[1] + n) for p in xs2)


def test_over_cap_kpath_calls_draw_no_weight(monkeypatch):
    # only a single lane above the cell cap, the lane budget, refuses, and
    # the cap is checked from the endpoints before omega_grid runs, whatever
    # the lane count
    def refuse(*args):
        raise AssertionError("omega_grid ran before the cap check")

    monkeypatch.setattr(polymer, "omega_grid", refuse)
    monkeypatch.setattr(environment, "_LANE_CELLS", 48)
    xs2, ys2 = _diagonal_2points(6)  # 49 cells a lane
    for field in (UniformField(11), derive_seeds(11, 0x2B, np.arange(1)), derive_seeds(11, 0x2B, np.arange(5))):
        with pytest.raises(DomainError):
            kpath_logZ(field, LG2, 1.0, xs2, ys2)
    for driver in (
        lambda: k_linearity_probe(LG2, 1.0, 1.0, 6, 5, seed=11),
        lambda: jensen_sandwich_check(LG2, 1.0, xs2, ys2, 5, seed=11),
        lambda: parallel_series_bound_mc(LG2, 1.0, replicas=5, seed=11, size=6),
    ):
        with pytest.raises(DomainError):
            driver()


def test_kpath_logZ_draws_and_scans_lane_blocks(monkeypatch):
    # 49 state cells and 8 x 8 = 64 weight cells a lane under a budget of
    # 200: 7 lanes run as blocks of 3, 3 and 1, one omega_grid call each,
    # and every lane is bitwise its own call
    xs2, ys2 = _diagonal_2points(6)
    lanes = derive_seeds(11, 0x2B, np.arange(7))
    want = np.array([kpath_logZ(UniformField(int(s)), LG2, 1.0, xs2, ys2) for s in lanes])
    probe = k_linearity_probe(LG2, 1.0, 1.0, 6, 7, seed=11)
    calls = []

    def counted(field, *args, fn=polymer.omega_grid):
        calls.append(len(field))
        return fn(field, *args)

    monkeypatch.setattr(polymer, "omega_grid", counted)
    monkeypatch.setattr(environment, "_LANE_CELLS", 200)
    got = kpath_logZ(lanes, LG2, 1.0, xs2, ys2)
    assert calls == [3, 3, 1]
    assert got.tobytes() == want.tobytes()
    assert k_linearity_probe(LG2, 1.0, 1.0, 6, 7, seed=11) == probe
    calls.clear()
    empty = kpath_logZ(lanes[:0], LG2, 1.0, xs2, ys2)
    assert empty.shape == (0,) and calls == []


def test_polymer_drivers_take_replica_seeds_from_one_array_call(monkeypatch):
    # each driver makes one _replica_lanes call; free_energy_mc gives replica
    # r the field UniformField(derive_seed(seed, stream, r)), a Python int
    # seed, and the other drivers pass every engine call the seed lanes
    # derive_seed(seed, stream, r), r = 0..replicas - 1, and no UniformField
    seen, calls = [], []
    for name in ("single_path_logZ", "kpath_logZ"):

        def probe(field, *args, fn=getattr(polymer, name)):
            if field is not None:
                seen.append(field)
            return fn(field, *args)

        monkeypatch.setattr(polymer, name, probe)

    def counted(*args, fn=polymer._replica_lanes, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)

    monkeypatch.setattr(polymer, "_replica_lanes", counted)
    xs, ys = rectangle_endpoints(3, 3, 2)
    runs = [
        (lambda: free_energy_mc(LG2, 1.0, 1.0, 6, 5, seed=13), polymer._FE_STREAM),
        (lambda: jensen_sandwich_check(LG2, 1.0, xs, ys, 5, seed=13), polymer._SANDWICH_STREAM),
        (lambda: parallel_series_bound_mc(LG2, 1.0, replicas=5, seed=13, size=2), polymer._BOUNDS_STREAM),
        (lambda: k_linearity_probe(LG2, 1.0, 1.0, 6, 5, seed=13), 0x2B),
    ]
    for run, stream in runs:
        seen.clear()
        calls.clear()
        run()
        want = [derive_seed(13, stream, r) for r in range(5)]
        assert min(want) < 2**63 < max(want)
        assert len(calls) == 1
        if stream == polymer._FE_STREAM:
            # one single_path_logZ call per replica, in order
            assert [f.seed for f in seen] == want
            assert all(type(f.seed) is int for f in seen)
        else:
            assert seen
            for lanes in seen:
                assert not isinstance(lanes, UniformField)
                np.testing.assert_array_equal(lanes, np.array(want, dtype=np.uint64))


def test_entry_points_return_a_float_for_one_field():
    f = UniformField(12)
    xs, ys = stack_up((1, 1), 2), stack_up((4, 5), 2)
    values = [
        single_path_logZ(f, LG2, 1.0, (1, 1), (6, 4)),
        single_path_logZ(None, None, 1.0, (1, 1), (6, 4)),
        kpath_logZ(f, LG2, 1.0, xs, ys),
        kpath_logZ(None, None, 0.0, xs, ys),
        log_tau(f, 2.0, 4, 3, 2),
        log_tau_tilde(f, 2.0, 4, 3, 2),
        log_tau(f, 2.0, 4, 3, 0),
    ] + [last_passage(f, 5, 4, k) for k in (1, 2, 3)]
    assert all(type(v) is float for v in values)
    # no environment counts paths: C(8, 3) up-right paths across 6 x 4
    assert values[1] == pytest.approx(math.log(56.0), rel=1e-15)


def test_no_environment_draws_nothing_and_refuses_weights():
    # None means no environment: zero weights under spec=None or beta=0,
    # a DomainError wherever a weight would be drawn, never a default seed
    xs, ys = stack_up((1, 1), 2), stack_up((4, 5), 2)
    assert kpath_logZ(None, LG2, 0.0, xs, ys) == kpath_logZ(None, None, 1.0, xs, ys)
    for call in (
        lambda: single_path_logZ(None, LG2, 1.0, (1, 1), (4, 4)),
        lambda: kpath_logZ(None, LG2, 1.0, xs, ys),
        lambda: log_tau(None, 2.0, 4, 3, 2),
        lambda: last_passage(None, 4, 3, 1),
    ):
        with pytest.raises(DomainError):
            call()


@pytest.mark.parametrize("lanes", [np.array([1, 2, 3], dtype=np.uint64), [1, 2, 3]], ids=["uint64", "ints"])
def test_brute_force_refuses_seed_lanes(lanes):
    with pytest.raises(DomainError, match="kpath_logZ takes seed lanes"):
        brute_force_kpath_logZ(lanes, LG2, 1.0, stack_up((1, 1), 2), stack_up((3, 4), 2))


@pytest.mark.parametrize(
    "call, exc, match",
    [
        pytest.param(
            lambda: brute_force_kpath_logZ(UniformField(1), LG2, 1.0, ((2, 2),), ((1, 1),)),
            NoPathError,
            "no k-path",
            id="brute_force_no_path",
        ),
        pytest.param(lambda: sepp_free_energy(0.0, 1.0), DomainError, "mu > 0, c > 0", id="sepp_mu"),
        pytest.param(lambda: sepp_free_energy(2.0, -1.0), DomainError, "mu > 0, c > 0", id="sepp_c"),
        pytest.param(lambda: infinite_temperature_free_energy(0.0), DomainError, "c > 0", id="infinite_temperature"),
        pytest.param(
            lambda: infinite_temperature_free_energy(math.nan), DomainError, "c > 0", id="infinite_temperature_nan"
        ),
        pytest.param(
            lambda: infinite_temperature_free_energy(math.inf), DomainError, "c > 0", id="infinite_temperature_inf"
        ),
        pytest.param(lambda: scaled_k_check(10, math.nan, 0.5), DomainError, "0 < alpha", id="scaled_k_check_nan"),
        pytest.param(lambda: scaled_k_check(10, math.inf, 0.5), DomainError, "0 < alpha", id="scaled_k_check_inf"),
        pytest.param(
            lambda: parallel_series_bound_mc(LG2, 1.0, replicas=2, seed=1, size=0),
            DomainError,
            "size >= 1",
            id="parallel_series_bound_mc_size_0",
        ),
        pytest.param(lambda: ineq_theorem_check(2.0, 1.0, 1.0), DomainError, "0 < c < c'", id="ineq_theorem_check"),
        pytest.param(lambda: w_limit(1.0, 0.0), DomainError, "0 < alpha", id="w_limit_0"),
        pytest.param(lambda: w_limit(0.5, 0.7), DomainError, "0 < alpha", id="w_limit_big"),
        # non-integer corners, on a held and a streamed rectangle
        pytest.param(
            lambda: single_path_logZ(UniformField(1), LG2, 1.0, (1.0, 1), (30, 30)),
            DomainError,
            "must be integers",
            id="single_path_float_corner_held",
        ),
        pytest.param(
            lambda: single_path_logZ(UniformField(1), None, 0.0, (1.0, 1), (300, 300)),
            DomainError,
            "integer corners",
            id="single_path_float_corner_streamed",
        ),
        # a 1-D array is no (..., W, H) grid
        pytest.param(lambda: scan_rectangle(np.zeros(3)), DomainError, r"\(\.\.\., W, H\)", id="scan_rectangle_1d"),
        pytest.param(lambda: grsk(np.zeros(3)), DomainError, r"\(\.\.\., W, H\)", id="grsk_1d"),
        pytest.param(lambda: tropical_rsk(np.zeros(3)), DomainError, r"\(\.\.\., W, H\)", id="tropical_rsk_1d"),
        pytest.param(
            lambda: corner_diagonal_sum(np.zeros(3), 1), DomainError, r"\(\.\.\., W, H\)", id="corner_diagonal_sum_1d"
        ),
        pytest.param(
            lambda: kpath_scan(np.zeros(3), ((0, 0),), ((1, 1),)), DomainError, r"\(\.\.\., W, H\)", id="kpath_scan_1d"
        ),
        pytest.param(
            lambda: loggamma_rectangle(UniformField(1), 2.0, -1, 3), DomainError, "width, height >= 0", id="loggamma_neg"
        ),
        pytest.param(
            lambda: last_passage(derive_seeds(1, 2, np.arange(0)), 5, 4, 9),
            DomainError,
            "1 <= k <= min",
            id="last_passage_zero_lanes_k_big",
        ),
        # non-finite slopes and inverse temperatures
        pytest.param(lambda: free_energy_mc(LG2, 1.0, math.nan, 6, 2, 1), DomainError, "finite", id="free_energy_c_nan"),
        pytest.param(lambda: free_energy_mc(LG2, 1.0, math.inf, 6, 2, 1), DomainError, "finite", id="free_energy_c_inf"),
        pytest.param(
            lambda: k_linearity_probe(LG2, 1.0, math.nan, 4, 2, 1), DomainError, "finite", id="k_linearity_c_nan"
        ),
        pytest.param(
            lambda: single_path_logZ(UniformField(1), LG2, math.nan, (1, 1), (3, 3)),
            DomainError,
            "beta must be finite",
            id="single_path_beta_nan",
        ),
        pytest.param(
            lambda: single_path_logZ([1, 2], LG2, math.inf, (1, 1), (3, 3)),
            DomainError,
            "beta must be finite",
            id="single_path_lanes_beta_inf",
        ),
        pytest.param(
            lambda: kpath_logZ(UniformField(1), LG2, math.nan, *rectangle_endpoints(3, 3, 2)),
            DomainError,
            "beta must be finite",
            id="kpath_beta_nan",
        ),
        pytest.param(
            lambda: jensen_sandwich_check(LG2, math.nan, *rectangle_endpoints(3, 3, 2), 3, 1),
            DomainError,
            "beta must be finite",
            id="jensen_beta_nan",
        ),
    ],
)
def test_polymer_refusals_are_typed(call, exc, match):
    with pytest.raises(exc, match=match):
        call()
