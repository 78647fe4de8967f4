"""One route table per object.

nipoly computes each object along more than one route: log Z of a single
path by the anti-diagonal scan (scan) and by the k-path transfer (kpath) at
k = 1; last passage by the max-plus scan and by tropical RSK (rsk); tau_k by
gRSK and by the k-path transfer at stacked ends; and so on.  OBJECTS
lists each object's routes, each one an engine or an independent oracle,
and its rows.  A row checks one route against another over
hypothesis-drawn cases, with the ranges, examples and bounds of the
pairwise tests it replaced: bitwise for the lane, band and batch
equivalences, and within a stated rounding bound across arithmetics.
Where a pairwise test still checks a pair, its row names that test and
draws no cases, so that no pair is checked twice.

test_route runs every row that draws cases.  The table tests check the
table itself: every object has an oracle, every route is on a row, every
engine route reaches an oracle through its rows, every test a row names
exists, and every public engine of scan, rsk and kpath runs on some route,
so a new engine must be added here.
"""

import importlib
import inspect
import math
import re
from dataclasses import dataclass
from typing import Callable, NamedTuple
from unittest import mock

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from nipoly import environment, kpath, polymer, rsk, scan
from nipoly.environment import UniformField, WeightSpec, derive_seed, derive_seeds
from nipoly.interface import build_phi, phi_inversion_residual
from nipoly.kpath import kpath_scan
from nipoly.lattice import enumerate_kpaths, macmahon_log_count, rectangle_endpoints, stack_up
from nipoly.polymer import (
    brute_force_kpath_logZ,
    kpath_logZ,
    last_passage,
    log_tau,
    log_tau_tilde,
    loggamma_rectangle,
    logZ_grid,
    single_path_logZ,
    TauTable,
)
from nipoly.rmt import gue_matrix, hermitian_eigvalsh, lue_matrix, lue_sample, lue_sample_batch
from nipoly.rsk import corner_diagonal_sum, grsk, tropical_rsk
from nipoly.scan import _logaddexp, scan_rectangle

ENGINE, ORACLE = "engine", "oracle"


@dataclass(frozen=True)
class Route:
    """One way to compute an object: run(case) gives its value for each
    lane of the case, or run is None for a route that only the pairwise
    tests named on its rows compute.  uses names the public engines of
    scan, rsk and kpath that it runs."""

    kind: str
    run: Callable | None = None
    uses: tuple = ()


@dataclass(frozen=True)
class Row:
    """route against a second route of the same object.  A row with cases
    checks them: bitwise when bound is None, else |got - want| <=
    bound(want, case) elementwise; examples run on every pass, before the
    drawn cases.  A row that replaced a hypothesis test keeps its
    max_examples; one that replaced fixed cases draws 10 more.  A row with
    by names the pairwise tests ("module::function") that check the pair
    instead, and draws no cases."""

    route: str
    against: str
    cases: st.SearchStrategy | None = None
    bound: Callable | None = None
    examples: tuple = ()
    max_examples: int = 10
    by: tuple = ()


@dataclass(frozen=True)
class Object:
    routes: dict
    rows: tuple


def _relative(tol):
    """tol max(1, |want|)."""
    return lambda want, case: tol * np.maximum(1.0, np.abs(want))


def _absolute(tol):
    return lambda want, case: tol


# ---------------------------------------------------------------------------
# Cases on a rectangle of sites: lanes of one law
# ---------------------------------------------------------------------------

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)
# UniformField seeds wrap mod 2^64: negative ones and ones past 2^63 and 2^64
WIDE_SEEDS = st.integers(min_value=-(2**63), max_value=2**64 + 3)
MUS = (1e-3, 0.5, 5.0, 1e6)
GAUSS, EXP1 = WeightSpec("gauss"), WeightSpec("exp1")
LG2 = WeightSpec("loggamma", mu=2.0)
_LANE_STREAM = 0x70


class Case(NamedTuple):
    """The log weights beta omega of law = (spec, beta) on the w x h sites
    from x, for the lanes lead: UniformField(seed) for lead (), else the
    seed lanes derive_seeds(seed, _LANE_STREAM, i).  k is the number of
    paths; ends, of the k-path object, are its endpoints (absolute sites
    within the rectangle); chunk is environment._CHUNK for the band routes."""

    lead: tuple
    law: tuple
    w: int
    h: int
    seed: int
    include_start: bool = False
    x: tuple = (1, 1)
    k: int = 1
    combine: Callable = _logaddexp
    chunk: int = environment._CHUNK
    ends: tuple = ()


def _field(c):
    return UniformField(c.seed) if c.lead == () else derive_seeds(c.seed, _LANE_STREAM, np.arange(math.prod(c.lead)))


def _fields(c):
    return [UniformField(c.seed)] if c.lead == () else [UniformField(int(s)) for s in _field(c)]


def _far(c):
    return (c.x[0] + c.w - 1, c.x[1] + c.h - 1)


def _logw(c):
    return polymer._rectangle_logw(_field(c), *c.law, c.x, _far(c)).reshape(c.lead + (c.w, c.h))


def _lanes(c, values):
    """An entry point's value over c.lead: a float for one field, else one
    value per seed lane."""
    return np.reshape(values, c.lead)


def _per_lane(fn, lead, arr):
    out = [np.asarray(fn(arr[lane])) for lane in np.ndindex(lead)]
    return np.stack(out).reshape(lead + out[0].shape)


def _per_field(fn, c):
    out = [np.asarray(fn(f)) for f in _fields(c)]
    return np.stack(out).reshape(c.lead + out[0].shape)


def _cases(laws, lead=((),), side=12, seeds=SEEDS, **draws):
    """Cases of a law in laws, lanes in lead and w, h in 1..side; draws
    gives strategies or values of the other fields."""
    fields = {key: st.just(v) for key, v in Case._field_defaults.items()}
    fields.update(
        lead=st.sampled_from(lead),
        law=st.sampled_from(laws),
        w=st.integers(1, side),
        h=st.integers(1, side),
        seed=seeds,
        include_start=st.booleans(),
    )
    fields.update({key: v if isinstance(v, st.SearchStrategy) else st.just(v) for key, v in draws.items()})
    return st.builds(Case, **fields)


@st.composite
def _with_k(draw, cases, least=1):
    c = draw(cases)
    c = c._replace(w=max(c.w, least), h=max(c.h, least))
    return c._replace(k=draw(st.integers(least, min(c.w, c.h))))


def _wide(cases):
    """w >= h: the N-wide, m-tall rectangle of log_tau."""
    return cases.map(lambda c: c._replace(w=max(c.w, c.h), h=min(c.w, c.h)))


def _tall(cases):
    """w <= h: the m-wide, N-tall rectangle of log_tau_tilde."""
    return cases.map(lambda c: c._replace(w=min(c.w, c.h), h=max(c.w, c.h)))


def _square(cases):
    return cases.map(lambda c: c._replace(h=c.w))


# ---------------------------------------------------------------------------
# Single-path log Z
# ---------------------------------------------------------------------------


def _fancy_index_scan(logw, combine, include_start):
    """The meet-in-the-middle anti-diagonal scan with per-step masks and
    fancy indices, in the association order of the strided scan_rectangle:
    its bitwise oracle.  One scan runs from (0, 0) over logw, the other from
    (w - 1, h - 1) over the reversed grid; they meet on diagonal (w + h - 3) // 2."""
    w, h = logw.shape[-2], logw.shape[-1]
    lead = logw.shape[:-2]

    def start(value):
        prev = np.full(lead + (w,), -np.inf)
        prev[..., 0] = value
        return prev

    def band(d):
        return np.arange(max(0, d - h + 1), min(w - 1, d) + 1)

    def step(prev, grid, d, weigh=True):
        idx = band(d)
        south = np.where((d - 1 - idx >= 0) & (d - 1 - idx < h), prev[..., idx], -np.inf)
        west = np.full(lead + idx.shape, -np.inf)
        wmask = idx - 1 >= 0
        west[..., wmask] = prev[..., idx[wmask] - 1]
        cur = np.full_like(prev, -np.inf)
        both = combine(south, west)
        cur[..., idx] = both + grid[..., idx, d - idx] if weigh else both
        return cur

    fwd = start(logw[..., 0, 0] if include_start else 0.0)
    if w == h == 1:
        return fwd[..., 0]
    rev = logw[..., ::-1, ::-1]
    bwd = start(rev[..., 0, 0])
    meet = (w + h - 3) // 2
    for d in range(1, meet + 1):
        fwd = step(fwd, logw, d)
        bwd = step(bwd, rev, d)
    last = w + h - 2 - meet
    for d in range(meet + 1, last):
        bwd = step(bwd, rev, d)
    # reversed row r of the meeting holds B(c + e2) (+) B(c + e1) for the
    # forward cell c in row w - 1 - r of diagonal meet
    idx = band(last)
    terms = step(bwd, rev, last, weigh=False)[..., idx] + fwd[..., w - 1 - idx]
    while terms.shape[-1] > 1:
        n = terms.shape[-1]
        half = n // 2
        folded = combine(terms[..., :half], terms[..., n - half :])
        terms = np.concatenate([folded, terms[..., half : n - half]], axis=-1)
    return terms[..., 0]


def _mpmath_log_z(logw, include_start):
    """log Z of one rectangle by the row-wise DP in 40-digit mpmath."""
    w, h = logw.shape
    with mpmath.workdps(40):
        z = [[mpmath.mpf(0)] * h for _ in range(w)]
        for i in range(w):
            for j in range(h):
                if i == j == 0:
                    z[0][0] = mpmath.exp(logw[0, 0]) if include_start else mpmath.mpf(1)
                    continue
                into = (z[i - 1][j] if i else 0) + (z[i][j - 1] if j else 0)
                z[i][j] = into * mpmath.exp(logw[i, j])
        return mpmath.log(z[-1][-1])


def _single_path(c, field):
    # _CHUNK is read at call time, by single_path_logZ and the band reader
    with mock.patch.object(environment, "_CHUNK", c.chunk):
        return single_path_logZ(field, *c.law, c.x, _far(c), c.include_start)


_GAUSS3 = (GAUSS, 3.0)
# loggamma at beta 1 and 0.5 over the mu set, the const law, beta 0, no
# environment, and Gaussian weights of scale 3
_FIELD_LAWS = (
    [(WeightSpec("loggamma", mu=mu), b) for mu in MUS for b in (1.0, 0.5)]
    + [(WeightSpec("const", c=0.3), 1.0), (LG2, 0.0), (None, 0.0), _GAUSS3]
)
_LOG_COMBINES = st.sampled_from([_logaddexp, np.logaddexp])
# 8 cells a box down to one anti-diagonal of a thin rectangle, 64 a few
# anti-diagonals, 2^16 the whole rectangle
_CHUNKS = st.sampled_from([8, 64, 1 << 16])
_CORNERS = st.sampled_from([(1, 1), (-7, -3), (-40, 3)])

SINGLE_PATH = Object(
    routes={
        "scan_rectangle/grid": Route(
            ENGINE, lambda c: scan_rectangle(_logw(c), c.combine, c.include_start), (scan_rectangle,)
        ),
        "scan_rectangle/lanes": Route(ENGINE, uses=(scan_rectangle,)),
        "scan_rectangle/bands": Route(ENGINE, uses=(scan_rectangle,)),
        "single_path_logZ": Route(ENGINE, lambda c: _lanes(c, _single_path(c, _field(c))), (scan_rectangle,)),
        "single_path_logZ/each_field": Route(
            ENGINE, lambda c: _per_field(lambda f: _single_path(c, f), c), (scan_rectangle,)
        ),
        "kpath_logZ/k=1": Route(
            ENGINE,
            lambda c: _lanes(c, kpath_logZ(_field(c), *c.law, (c.x,), (_far(c),), c.include_start)),
            (kpath_scan,),
        ),
        "fancy_index_scan": Route(ORACLE, lambda c: _fancy_index_scan(_logw(c), c.combine, c.include_start)),
        "logZ_grid": Route(
            ORACLE, lambda c: _per_lane(lambda a: logZ_grid(a, c.include_start)[-1, -1], c.lead, _logw(c))
        ),
        "mpmath_40_digits": Route(
            ORACLE, lambda c: _per_lane(lambda a: float(_mpmath_log_z(a, c.include_start)), c.lead, _logw(c))
        ),
    },
    rows=(
        # the strided reader in the association order of its oracle:
        # both parities of w + h, one-cell and one-row rectangles, lanes
        Row(
            "scan_rectangle/grid",
            "fancy_index_scan",
            _cases([_GAUSS3], lead=[(), (3,), (2, 2)], combine=_LOG_COMBINES),
            examples=(
                Case((), _GAUSS3, 1, 1, 3, True, combine=np.logaddexp),
                Case((2, 2), _GAUSS3, 9, 1, 3, True, combine=np.logaddexp),
                Case((3,), _GAUSS3, 7, 5, 3, True, combine=_logaddexp),
            ),
            max_examples=60,
        ),
        Row("scan_rectangle/grid", "mpmath_40_digits", by=("test_polymer::test_scan_matches_40_digit_dp",)),
        Row(
            "scan_rectangle/lanes",
            "scan_rectangle/grid",
            by=("test_polymer::test_scan_batch_lanes_equal_unbatched_calls_bitwise",),
        ),
        Row(
            "scan_rectangle/bands",
            "scan_rectangle/grid",
            by=("test_polymer::test_streamed_scan_equals_the_held_grid_bitwise",),
        ),
        Row(
            "single_path_logZ",
            "scan_rectangle/grid",
            by=("test_polymer::test_single_path_logZ_streams_above_a_chunk_bitwise",),
        ),
        # each seed lane is bitwise its own UniformField call, held or
        # streamed: 8 x 8 is a chunk of 64
        Row(
            "single_path_logZ/each_field",
            "single_path_logZ",
            _cases(_FIELD_LAWS, lead=[(1,), (3,)], x=_CORNERS, chunk=_CHUNKS),
            examples=(Case((3,), (LG2, 0.8), 7, 4, 7, False, x=(1, 2)), Case((3,), (LG2, 0.8), 7, 4, 7, True, x=(1, 2))),
        ),
        Row(
            "kpath_logZ/k=1",
            "mpmath_40_digits",
            _cases(_FIELD_LAWS, lead=[(), (3,)], side=9, x=_CORNERS),
            bound=_relative(1e-14),
            examples=(Case((), (LG2, 1.0), 4, 4, 5),),
        ),
        Row(
            "logZ_grid",
            "mpmath_40_digits",
            _cases(_FIELD_LAWS + [(GAUSS, 1.0)], side=9),
            bound=_relative(1e-14),
            examples=(Case((), (GAUSS, 1.0), 7, 5, 0), Case((), (GAUSS, 1.0), 7, 5, 0, True)),
        ),
    ),
)


# ---------------------------------------------------------------------------
# Last passage
# ---------------------------------------------------------------------------


def _row_major_rsk(logw, plus):
    """The cell-by-cell gRSK loop in row-major order; the oracle of the
    anti-diagonal (wavefront) order of rsk.grsk (plus = _logaddexp, run
    under the errstate it needs) and tropical_rsk (plus = np.maximum)."""
    n, m = logw.shape[-2], logw.shape[-1]
    # one leading lane axis, so that every plus sees arrays
    t = np.full((logw.size // (n * m), n + 1, m + 1), -np.inf)
    t[:, 1:, 1:] = logw.reshape(-1, n, m)
    t[:, 0, 1] = 0.0
    with np.errstate(invalid="ignore"):
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
    return t[:, 1:, 1:].reshape(logw.shape)


def _path_sums(logw, xs, ys, include_start):
    """The total of logw over each k-path from xs to ys, sites local to logw."""
    return [
        sum(logw[a, b] for comp in kp for a, b in (comp if include_start else comp[1:]))
        for kp in enumerate_kpaths(xs, ys)
    ]


_EXP = (EXP1, 1.0)
# the RSK scales: small, moderate and large spreads of the log weights
_RSK_LAWS = [(GAUSS, s) for s in (0.1, 3.0, 300.0)]
_RSK_LEAD = [(), (1,), (3,), (2, 2)]
_RSK_EXAMPLES = tuple(
    Case(lead, (GAUSS, 3.0), n, m, 3) for lead, n, m in [((), 1, 9), ((3,), 9, 1), ((), 2, 9), ((2, 2), 9, 2)]
)
# lane counts on both sides of the SIMD widths, and 65 lanes nested 5 x 13
_LG07 = (WeightSpec("loggamma", mu=0.7), 1.0)
_LANE_COUNTS = [(1,), (3,), (4,), (7,), (8,), (9,), (17,), (65,), (5, 13)]
_RSK_LANES = _cases([_LG07] + _RSK_LAWS, lead=_LANE_COUNTS, side=9)
_RSK_LANE_EXAMPLES = tuple(Case(lead, _LG07, 7, 5, 43) for lead in _LANE_COUNTS)
_WIDE_SEEDS_TEST = "test_polymer::test_last_passage_on_wide_seeds_matches_enumeration"


LAST_PASSAGE = Object(
    routes={
        "scan_rectangle/max-plus": Route(
            ENGINE, lambda c: scan_rectangle(_logw(c), np.maximum, c.include_start), (scan_rectangle,)
        ),
        "tropical_rsk": Route(ENGINE, lambda c: tropical_rsk(_logw(c)), (tropical_rsk,)),
        # each lane by its own call
        "tropical_rsk/lanes": Route(ENGINE, lambda c: _per_lane(tropical_rsk, c.lead, _logw(c)), (tropical_rsk,)),
        "corner_diagonal_sum(tropical_rsk)": Route(ENGINE, uses=(tropical_rsk, corner_diagonal_sum)),
        # a lane of last_passage_batch
        "last_passage": Route(
            ENGINE,
            lambda c: _lanes(c, last_passage(_field(c), c.w, c.h, c.k)),
            (scan_rectangle, tropical_rsk, corner_diagonal_sum),
        ),
        "last_passage/each_field": Route(ENGINE, lambda c: _per_field(lambda f: last_passage(f, c.w, c.h, c.k), c)),
        "last_passage_batch": Route(ENGINE, uses=(scan_rectangle, tropical_rsk, corner_diagonal_sum)),
        "fancy_index_scan/max-plus": Route(ORACLE, lambda c: _fancy_index_scan(_logw(c), np.maximum, c.include_start)),
        "row_wise_max_plus": Route(ORACLE),
        "row_major_tropical_rsk": Route(ORACLE, lambda c: _row_major_rsk(_logw(c), np.maximum)),
        "enumeration": Route(ORACLE),
    },
    rows=(
        Row(
            "scan_rectangle/max-plus",
            "fancy_index_scan/max-plus",
            _cases([_GAUSS3], lead=[(), (3,), (2, 2)]),
            examples=(Case((3,), _GAUSS3, 1, 9, 3, False),),
            max_examples=60,
        ),
        Row(
            "scan_rectangle/max-plus",
            "row_wise_max_plus",
            by=("test_polymer::test_scan_max_plus_exact_on_integer_weights",),
        ),
        Row(
            "tropical_rsk",
            "row_major_tropical_rsk",
            _cases(_RSK_LAWS, lead=_RSK_LEAD, side=9),
            examples=_RSK_EXAMPLES,
            max_examples=60,
        ),
        Row("tropical_rsk/lanes", "tropical_rsk", _RSK_LANES, examples=_RSK_LANE_EXAMPLES),
        Row(
            "corner_diagonal_sum(tropical_rsk)",
            "enumeration",
            by=("test_polymer::test_tropical_rsk_matches_enumeration",),
        ),
        # the two branches of the lane body, bitwise: the max-plus scan at
        # k = 1, tropical RSK above
        Row("last_passage", "scan_rectangle/max-plus", by=(_WIDE_SEEDS_TEST,)),
        Row("last_passage", "corner_diagonal_sum(tropical_rsk)", by=(_WIDE_SEEDS_TEST,)),
        Row(
            "last_passage_batch",
            "last_passage/each_field",
            by=(
                "test_polymer::test_last_passage_batch_matches_scalar",
                "test_polymer::test_last_passage_batch_takes_python_ints_straddling_2_63",
            ),
        ),
        # each seed lane is bitwise its own UniformField call
        Row(
            "last_passage/each_field",
            "last_passage",
            _with_k(_cases([_EXP], lead=[(1,), (3,)], side=9, seeds=WIDE_SEEDS, include_start=True)),
            examples=tuple(Case((3,), _EXP, 5, 3, 7, True, k=k) for k in (1, 2, 3)),
        ),
    ),
)


# ---------------------------------------------------------------------------
# log tau_k: k paths between stacked ends across the rectangle, start
# weights included
# ---------------------------------------------------------------------------


def _log_tau(c, tilde, field):
    """tau_k on field of the w-wide, h-tall rectangle from (1, 1):
    log_tau(N = w, m = h), or log_tau_tilde(N = h, m = w); the law is
    loggamma at beta 1."""
    spec, beta = c.law
    assert spec.law == "loggamma" and beta == 1.0 and c.x == (1, 1)
    if tilde:
        return log_tau_tilde(field, spec.mu, c.h, c.w, c.k)
    return log_tau(field, spec.mu, c.w, c.h, c.k)


def _tau_table(c, tilde):
    """TauTable's kpath_scan at stacked ends: tau(h, k) of its w x w table,
    or tau~(w, k) of its h x h one."""
    spec, beta = c.law
    assert spec.law == "loggamma" and beta == 1.0 and c.x == (1, 1)
    if tilde:
        return _lanes(c, TauTable(_field(c), spec.mu, c.h).log_tau_tilde(c.w, c.k))
    return _lanes(c, TauTable(_field(c), spec.mu, c.w).log_tau(c.h, c.k))


def _brute_tau(c):
    """tau_k by enumeration, for each field: log_tau's N x m rectangle when
    it is wide, log_tau_tilde's m x N one when it is tall."""
    ends = rectangle_endpoints(c.w, c.h, c.k)
    return _per_field(lambda f: brute_force_kpath_logZ(f, *c.law, *ends, include_start=True), c)


_LG15 = (WeightSpec("loggamma", mu=1.5), 1.0)
_TAU_LAWS = [(WeightSpec("loggamma", mu=mu), 1.0) for mu in MUS] + [_LG15]
# k = 0 gives 0 on every route
_TAU_LANES = _with_k(_cases(_TAU_LAWS, lead=[(1,), (3,)], side=6, include_start=True), least=0)
# N <= 4, every 1 <= k <= m <= N; seeds up to 2^32
_TAU_CASES = _with_k(_cases(_TAU_LAWS, lead=[(), (3,)], side=4, seeds=st.integers(0, 2**32), include_start=True))
_BRUTE_TAU_CASES = _with_k(_cases(_TAU_LAWS, side=4, seeds=st.integers(0, 2**32), include_start=True))
# every (m, k) at N = 4 on the field where TauTable's float LGV determinant
# once missed gRSK by 5.4e-8
_TAU_10743 = tuple(
    Case((), (WeightSpec("loggamma", mu=0.5), 1.0), 4, m, 10743, True, k=k)
    for m in range(1, 5)
    for k in range(1, m + 1)
)
_TAU_10743_TALL = tuple(c._replace(w=c.h, h=c.w) for c in _TAU_10743)

TAU = Object(
    routes={
        "grsk": Route(ENGINE, lambda c: grsk(_logw(c)), (grsk,)),
        # each lane by its own call
        "grsk/lanes": Route(ENGINE, lambda c: _per_lane(grsk, c.lead, _logw(c)), (grsk,)),
        # corner_diagonal_sum(grsk(...), k) of the loggamma rectangle
        "log_tau": Route(ENGINE, lambda c: _lanes(c, _log_tau(c, False, _field(c))), (grsk, corner_diagonal_sum)),
        "log_tau/each_field": Route(
            ENGINE, lambda c: _per_field(lambda f: _log_tau(c, False, f), c), (grsk, corner_diagonal_sum)
        ),
        "log_tau_tilde": Route(
            ENGINE, lambda c: _lanes(c, _log_tau(c, True, _field(c))), (grsk, corner_diagonal_sum)
        ),
        "log_tau_tilde/each_field": Route(
            ENGINE, lambda c: _per_field(lambda f: _log_tau(c, True, f), c), (grsk, corner_diagonal_sum)
        ),
        "TauTable.log_tau": Route(ENGINE, lambda c: _tau_table(c, False), (kpath_scan,)),
        "TauTable.log_tau_tilde": Route(ENGINE, lambda c: _tau_table(c, True), (kpath_scan,)),
        "row_major_grsk": Route(ORACLE, lambda c: _row_major_rsk(_logw(c), _logaddexp)),
        "brute_force_kpath_logZ": Route(ORACLE, _brute_tau),
    },
    rows=(
        Row(
            "grsk",
            "row_major_grsk",
            _cases(_RSK_LAWS, lead=_RSK_LEAD, side=9),
            examples=_RSK_EXAMPLES,
            max_examples=60,
        ),
        Row("grsk/lanes", "grsk", _RSK_LANES, examples=_RSK_LANE_EXAMPLES),
        Row(
            "log_tau",
            "brute_force_kpath_logZ",
            _wide(_BRUTE_TAU_CASES),
            bound=_relative(1e-13),
            examples=(Case((), (LG2, 1.0), 3, 2, 31, True), Case((), (LG2, 1.0), 4, 3, 31, True, k=2)) + _TAU_10743,
            max_examples=40,
        ),
        Row("log_tau_tilde", "brute_force_kpath_logZ", _tall(_BRUTE_TAU_CASES), _relative(1e-13), _TAU_10743_TALL, 40),
        # each seed lane is bitwise its own UniformField call
        Row(
            "log_tau/each_field",
            "log_tau",
            _wide(_TAU_LANES),
            examples=tuple(Case((3,), _LG15, 4, m, 7, True, k=k) for m in range(1, 5) for k in range(m + 1)),
        ),
        Row(
            "log_tau_tilde/each_field",
            "log_tau_tilde",
            _tall(_TAU_LANES),
            examples=tuple(Case((3,), _LG15, m, 4, 7, True, k=k) for m in range(1, 5) for k in range(m + 1)),
        ),
        Row("TauTable.log_tau", "log_tau", _wide(_TAU_CASES), _relative(1e-9), _TAU_10743, 40),
        Row("TauTable.log_tau_tilde", "log_tau_tilde", _tall(_TAU_CASES), _relative(1e-9), _TAU_10743_TALL, 40),
        # on the square, tau and tau~ are one object
        Row(
            "TauTable.log_tau_tilde",
            "TauTable.log_tau",
            _with_k(_square(_cases(_TAU_LAWS, lead=[(), (3,)], side=4, include_start=True))),
            bound=_relative(1e-13),
            examples=tuple(Case((), _LG15, n, n, 12, True, k=k) for n in range(1, 5) for k in range(1, n + 1)),
            max_examples=40,
        ),
    ),
)


# ---------------------------------------------------------------------------
# k non-intersecting paths between general endpoints
# ---------------------------------------------------------------------------


def _random_kpoints(draw_ints, k):
    """k starts stacked north-west of each other with random offsets, each
    end 1-3 steps east and north of its start; ends that cross leave no
    k-path."""
    xs = tuple((2 * (k - 1 - i) + draw_ints[i] % 2, 2 * i) for i in range(k))
    ys = tuple(
        (x[0] + 1 + draw_ints[k + i] % 3, x[1] + 1 + draw_ints[2 * k + i] % 3)
        for i, x in enumerate(xs)
    )
    return xs, ys


def _kpath_case(lead, law, ends, seed, include_start):
    """The case of k-paths between ends on their bounding box."""
    x1, x2 = zip(*(ends[0] + ends[1]))
    lo = (min(x1), min(x2))
    w, h = max(x1) - lo[0] + 1, max(x2) - lo[1] + 1
    return Case(lead, law, w, h, seed, include_start, x=lo, k=len(ends[0]), ends=ends)


@st.composite
def _kpath_cases(draw, laws, lead=((),)):
    k = draw(st.integers(1, 3))
    ends = _random_kpoints(draw(st.lists(st.integers(0, 99), min_size=9, max_size=9)), k)
    return _kpath_case(draw(st.sampled_from(lead)), draw(st.sampled_from(laws)), ends, draw(SEEDS), draw(st.booleans()))


def _local_ends(c):
    return tuple(tuple((p[0] - c.x[0], p[1] - c.x[1]) for p in v) for v in c.ends)


def _has_kpaths(c):
    return bool(enumerate_kpaths(*c.ends))


def _enumerated_kpath_logZ(c):
    def one(logw):
        sums = _path_sums(logw, *_local_ends(c), c.include_start)
        return logsumexp(sums) if sums else -np.inf

    return _per_lane(one, c.lead, _logw(c))


_TINY_MU = WeightSpec("loggamma", mu=1e-3)
# Gaussian weights of scale 50, mu = 1e-3 (where a float LGV determinant
# cancels), and beta 0, 0.5 and 1 at mu = 2
_KPATH_LAWS = [(GAUSS, 50.0), (_TINY_MU, 1.0)] + [(LG2, b) for b in (0.0, 0.5, 1.0)]
_LANE_ENDS = (stack_up((1, 1), 2), stack_up((5, 6), 2))

KPATH = Object(
    routes={
        "kpath_scan": Route(ENGINE, lambda c: kpath_scan(_logw(c), *_local_ends(c), c.include_start), (kpath_scan,)),
        "kpath_scan/lanes": Route(
            ENGINE,
            lambda c: _per_lane(lambda a: kpath_scan(a, *_local_ends(c), c.include_start), c.lead, _logw(c)),
            (kpath_scan,),
        ),
        "kpath_logZ": Route(
            ENGINE, lambda c: _lanes(c, kpath_logZ(_field(c), *c.law, *c.ends, c.include_start)), (kpath_scan,)
        ),
        "kpath_logZ/each_field": Route(
            ENGINE, lambda c: _per_field(lambda f: kpath_logZ(f, *c.law, *c.ends, c.include_start), c), (kpath_scan,)
        ),
        "enumeration": Route(ORACLE, _enumerated_kpath_logZ),
        "brute_force_kpath_logZ": Route(ORACLE),
    },
    rows=(
        # no k-path gives -inf on both routes
        Row("kpath_scan", "enumeration", _kpath_cases([(GAUSS, 50.0)]), _relative(1e-13), max_examples=40),
        Row("kpath_scan/lanes", "kpath_scan", _kpath_cases([(GAUSS, 50.0)], lead=[(), (3,), (2, 2)]), max_examples=40),
        Row(
            "kpath_logZ",
            "brute_force_kpath_logZ",
            by=(
                "test_polymer::test_lgv_vs_brute_force",
                "test_polymer::test_lgv_diagonal_endpoints",
                "test_polymer::test_kpath_matches_brute_force_at_tiny_mu",
            ),
        ),
        # each seed lane is bitwise its own UniformField call
        Row(
            "kpath_logZ/each_field",
            "kpath_logZ",
            _kpath_cases(_KPATH_LAWS, lead=[(1,), (3,)]).filter(_has_kpaths),
            examples=tuple(_kpath_case((3,), (LG2, 0.8), _LANE_ENDS, 7, start) for start in (False, True)),
        ),
    ),
)


# ---------------------------------------------------------------------------
# Path counts: k-paths across an n x m rectangle at zero weights
# ---------------------------------------------------------------------------


class Count(NamedTuple):
    n: int
    m: int
    k: int


_COUNTS = [Count(n, m, k) for n in range(1, 6) for m in range(1, 6) for k in range(1, min(n, m) + 1)]

PATH_COUNT = Object(
    routes={
        "kpath_logZ/no_environment": Route(
            ENGINE, lambda c: kpath_logZ(None, None, 0.0, *rectangle_endpoints(*c)), (kpath_scan,)
        ),
        "macmahon_log_count": Route(ORACLE, lambda c: macmahon_log_count(*c)),
        "enumeration": Route(ORACLE, lambda c: math.log(len(enumerate_kpaths(*rectangle_endpoints(*c))))),
    },
    rows=(
        Row(
            "kpath_logZ/no_environment",
            "macmahon_log_count",
            st.sampled_from(_COUNTS),
            _absolute(1e-12),
            examples=(Count(3, 3, 2), Count(4, 3, 2), Count(5, 5, 3)),
        ),
        # every rectangle up to 5 x 5
        Row("macmahon_log_count", "enumeration", st.sampled_from(_COUNTS), _absolute(1e-12), examples=tuple(_COUNTS)),
    ),
)


# ---------------------------------------------------------------------------
# The interface phi of an N x N environment
# ---------------------------------------------------------------------------


class Phi(NamedTuple):
    seed: int
    mu: float
    n: int


def _phi_by_enumeration(c):
    """phi(i, j) = log tau(N - j + i, i) - log tau(N - j + i, i - 1) above
    the diagonal and the tilde ratio below it, each tau by enumeration."""
    f, spec = UniformField(c.seed), WeightSpec("loggamma", mu=c.mu)

    def tau(width, height, k):
        if k == 0:
            return 0.0
        ys = tuple((width, height - k + 1 + i) for i in range(k))
        return brute_force_kpath_logZ(f, spec, 1.0, stack_up((1, 1), k), ys, include_start=True)

    n = c.n
    vals = np.empty((n, n))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i <= j:
                m = n - j + i
                vals[i - 1, j - 1] = tau(n, m, i) - tau(n, m, i - 1)
            else:
                m = n - i + j
                vals[i - 1, j - 1] = tau(m, n, j) - tau(m, n, j - 1)
    return vals


def _phi_cases(n_max):
    return st.builds(Phi, SEEDS, st.sampled_from(MUS + (1.5,)), st.integers(1, n_max))


PHI = Object(
    routes={
        "build_phi": Route(ENGINE, lambda c: build_phi(UniformField(c.seed), c.mu, c.n).values, (grsk,)),
        # sum_{i <= k} phi(i, N - m + i) - log tau(m, k) by TauTable, worst over (m, k)
        "phi_inversion_residual": Route(
            ENGINE, lambda c: phi_inversion_residual(UniformField(c.seed), c.mu, c.n), (grsk, kpath_scan)
        ),
        "tau_ratios/enumeration": Route(ORACLE, _phi_by_enumeration),
        "inversion_identity": Route(ORACLE, lambda c: 0.0),
    },
    rows=(
        # the bound scales with the weights, which spread over hundreds of
        # nats at mu = 1e-3
        Row(
            "build_phi",
            "tau_ratios/enumeration",
            _phi_cases(3),
            lambda want, c: 1e-13 * np.abs(loggamma_rectangle(UniformField(c.seed), c.mu, c.n, c.n)).sum(),
            examples=(Phi(23, 1e-3, 3),),
        ),
        Row(
            "phi_inversion_residual",
            "inversion_identity",
            _phi_cases(5),
            _absolute(1e-9),
            examples=tuple(Phi(derive_seed(9, s), 1.5, 5) for s in range(5)),
        ),
    ),
)


# ---------------------------------------------------------------------------
# Eigenvalues of a Hermitian matrix, decreasing
# ---------------------------------------------------------------------------


class Eig(NamedTuple):
    """kind of matrix, n x n, from seed; lead stacks seed, seed + 1, ...;
    an LUE matrix has parameter n + gap.  st.builds draws every field,
    defaults too, so each strategy gives them all."""

    kind: str
    n: int
    seed: int
    lead: tuple = ()
    gap: int = 2


def _one_matrix(c, seed):
    n = c.n
    if c.kind == "gue":
        return gue_matrix(n, seed)
    if c.kind == "lue":  # the real tridiagonal model
        return lue_matrix(n + c.gap, n, seed)
    if c.kind == "rank_one":  # eigenvalue 1 with multiplicity n - 1, and 1 + |v|^2
        v = gue_matrix(n, seed)[:, 0]
        return np.eye(n) + np.outer(v, v.conj())
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n))
    if c.kind == "hermitian":
        x = x + 1j * rng.standard_normal((n, n))
        return (x + x.conj().T) / 2
    return (x + x.T) / 2  # symmetric


def _matrix(c):
    mats = [_one_matrix(c, c.seed + i) for i in range(math.prod(c.lead))]
    return np.stack(mats).reshape(c.lead + (c.n, c.n))


def _mpmath_eigvalsh(c):
    def one(h):
        with mpmath.workdps(30):
            ref = mpmath.mp.eighe(mpmath.matrix(h.tolist()), eigvals_only=True)
            return np.sort([float(e) for e in ref])[::-1]

    return _per_lane(one, c.lead, _matrix(c))


def _norm_bound(tol):
    """tol max(1, |H|_F) for each matrix."""
    return lambda want, c: tol * np.maximum(1.0, np.linalg.norm(_matrix(c), axis=(-2, -1)))[..., None]


def _lue_seeds(c):
    return np.arange(c.seed, c.seed + math.prod(c.lead))


_KINDS = ["gue", "lue", "rank_one", "hermitian", "symmetric"]
_GAPS = st.integers(0, 3)

EIGENVALUES = Object(
    routes={
        "hermitian_eigvalsh": Route(ENGINE, lambda c: hermitian_eigvalsh(_matrix(c))),
        "lue_sample_batch": Route(ENGINE, lambda c: lue_sample_batch(c.n + c.gap, c.n, _lue_seeds(c))),
        "lue_sample/each_seed": Route(
            ENGINE, lambda c: np.stack([lue_sample(c.n + c.gap, c.n, int(s)) for s in _lue_seeds(c)])
        ),
        "mpmath_eighe": Route(ORACLE, _mpmath_eigvalsh),
        # cyclic Jacobi, on the real doubling [[A, -B], [B, A]] of H = A + iB
        "jacobi_eigvalsh": Route(ORACLE),
        "numpy_eigvalsh": Route(ORACLE),
    },
    rows=(
        Row(
            "hermitian_eigvalsh",
            "mpmath_eighe",
            st.builds(Eig, st.sampled_from(_KINDS), st.integers(1, 8), SEEDS, st.just(()), _GAPS),
            _norm_bound(1e-12),
            examples=tuple(Eig("gue", n, 3 + n) for n in range(1, 7)) + (Eig("lue", 5, 4), Eig("rank_one", 6, 9)),
        ),
        Row(
            "hermitian_eigvalsh",
            "jacobi_eigvalsh",
            by=("test_rmt::test_hermitian_eigvalsh_against_jacobi_on_real_doubling",),
        ),
        Row(
            "jacobi_eigvalsh",
            "numpy_eigvalsh",
            by=("test_rmt::test_jacobi_against_numpy", "test_rmt::test_jacobi_batch_against_numpy"),
        ),
        Row(
            "lue_sample_batch",
            "lue_sample/each_seed",
            st.builds(Eig, st.just("lue"), st.integers(1, 8), SEEDS, st.sampled_from([(1,), (4,)]), _GAPS),
            examples=(Eig("lue", 3, 50, (4,), gap=3),),
        ),
        Row(
            "lue_sample/each_seed",
            "mpmath_eighe",
            st.builds(Eig, st.just("lue"), st.integers(1, 8), SEEDS, st.just((2,)), _GAPS),
            _norm_bound(1e-12),
        ),
    ),
)


OBJECTS = {
    "single_path": SINGLE_PATH,
    "last_passage": LAST_PASSAGE,
    "tau": TAU,
    "kpath": KPATH,
    "path_count": PATH_COUNT,
    "phi": PHI,
    "eigenvalues": EIGENVALUES,
}
# the rows that draw cases; the others name the tests that check them
ROWS = [(name, row) for name, obj in OBJECTS.items() for row in obj.rows if row.cases is not None]


def _row_id(name, row):
    return "%s:%s~%s" % (name, row.route, row.against)


def _agree(got, want, bound):
    assert got.shape == want.shape, (got.shape, want.shape)
    if bound is None:
        assert got.tobytes() == want.tobytes(), (got, want)
    else:
        # inf - inf is NaN; an infinite want is met only by itself, since
        # its bound is infinite too
        with np.errstate(invalid="ignore"):
            ok = (got == want) | (np.isfinite(want) & (np.abs(got - want) <= bound))
        assert np.all(ok), (got, want, bound)


@pytest.mark.parametrize("name, row", ROWS, ids=[_row_id(*r) for r in ROWS])
def test_route(name, row):
    routes = OBJECTS[name].routes
    route, against = routes[row.route].run, routes[row.against].run

    def check(case):
        got, want = np.asarray(route(case)), np.asarray(against(case))
        _agree(got, want, None if row.bound is None else row.bound(want, case))

    # hypothesis keys its example database by the function's name: one key a row
    check.__name__ = re.sub(r"\W+", "_", _row_id(name, row))
    for case in row.examples:
        check = example(case)(check)
    settings(max_examples=row.max_examples, deadline=None)(given(row.cases)(check))()


# ---------------------------------------------------------------------------
# The table itself
# ---------------------------------------------------------------------------


def _public_engines():
    """The public functions defined in the engine modules."""
    return {
        f
        for mod in (scan, rsk, kpath)
        for name, f in vars(mod).items()
        if not name.startswith("_") and inspect.isfunction(f) and f.__module__ == mod.__name__
    }


def _pinned(obj, route, seen=()):
    """Whether route is an oracle, or is checked against a route pinned to
    one."""
    if obj.routes[route].kind == ORACLE:
        return True
    return any(
        row.route == route and row.against not in seen and _pinned(obj, row.against, seen + (route,))
        for row in obj.rows
    )


def _named_test(name):
    module, function = name.split("::")
    return getattr(importlib.import_module(module), function, None)


@pytest.mark.parametrize("name", OBJECTS)
def test_every_object_has_an_oracle_and_every_route_a_row(name):
    obj = OBJECTS[name]
    kinds = [route.kind for route in obj.routes.values()]
    assert set(kinds) <= {ENGINE, ORACLE}
    assert ORACLE in kinds
    assert {r for row in obj.rows for r in (row.route, row.against)} == set(obj.routes)
    assert [route for route in obj.routes if not _pinned(obj, route)] == []
    # each pair is checked once: by the row's cases or by the tests it names
    pairs = [(row.route, row.against) for row in obj.rows]
    assert len(set(pairs)) == len(pairs)
    for row in obj.rows:
        assert (row.cases is None) == bool(row.by), _row_id(name, row)
        if row.cases is not None:
            assert obj.routes[row.route].run and obj.routes[row.against].run, _row_id(name, row)
        assert [t for t in row.by if not (t.split("::")[1].startswith("test_") and callable(_named_test(t)))] == []


def test_every_public_engine_is_on_a_route():
    engines = _public_engines()
    assert {scan_rectangle, grsk, tropical_rsk, corner_diagonal_sum, kpath_scan} <= engines
    used = {f for obj in OBJECTS.values() for route in obj.routes.values() for f in route.uses}
    assert sorted(f.__qualname__ for f in engines - used) == []
