"""Spans around nipoly's layers, recorded from outside the package.

A layer is one of nipoly's modules.  Its public functions are wrapped at
every module namespace that binds them by name (``from .environment import
omega_grid`` makes ``nipoly.polymer.omega_grid`` a second binding), and
methods are wrapped on their class.  Each call made while the tracer is
active appends a span (name, start, end, parent) to an in-memory list;
a layer's self time is its spans' durations minus what their child spans
cover.  Work counts are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import defaultdict

import numpy as np


class Tracer:
    """In-memory span recorder; records only while ``active`` is true."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.active = False
        self.spans: list[list] = []  # [name, start, end, parent index or -1]
        self.counts: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        rec = [name, self.clock(), None, parent]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list) -> None:
        rec[2] = self.clock()
        self._stack.pop()

    def parent_name(self) -> str | None:
        return self.spans[self._stack[-1]][0] if self._stack else None

    def self_times(self) -> dict[str, float]:
        """Total self time per span name."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: defaultdict[str, float] = defaultdict(float)
        for (name, start, end, _), c in zip(self.spans, child):
            out[name] += (end - start) - c
        return dict(out)

    def dump(self) -> dict:
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        return {
            "names": names,
            "spans": [[index[n], s, e, p] for n, s, e, p in self.spans],
        }


def span_wrapper(tracer: Tracer, name: str, fn, count=None):
    """Wrap fn in a span; count(tracer, args, kwargs, result) adds work counts."""

    if inspect.isgeneratorfunction(fn):

        @functools.wraps(fn)
        def gen_wrapper(*args, **kwargs):
            it = fn(*args, **kwargs)
            while True:
                rec = tracer.open(name) if tracer.active else None
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    if rec is not None:
                        tracer.close(rec)
                yield item

        return gen_wrapper

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if not tracer.active:
            return fn(*args, **kwargs)
        rec = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(rec)
        if count is not None:
            count(tracer, args, kwargs, result)
        return result

    return wrapper


def count_wrapper(tracer: Tracer, metric: str, fn):
    """Count calls without a span (for functions too hot or too small to time)."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        if tracer.active:
            tracer.counts[metric] += 1
        return fn(*args, **kwargs)

    return wrapper


class Bindings:
    """Replace a function at every nipoly namespace binding it, and undo."""

    def __init__(self, package: str = "nipoly"):
        self.package = package
        self._saved: list[tuple[object, str, object]] = []

    def _modules(self):
        return [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == self.package or name.startswith(self.package + "."))
        ]

    def wrap(self, module: str, qualname: str, make) -> int:
        """make(bound) -> replacement, applied to each binding of the target;
        returns how many bindings were replaced."""
        owner = sys.modules[module]
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        if path:  # a method: its class is the single binding
            targets = [(owner, attr)]
        else:
            original = inspect.unwrap(getattr(owner, attr))
            targets = [
                (m, name)
                for m in self._modules()
                for name, val in vars(m).items()
                if callable(val) and inspect.unwrap(val) is original
            ]
        for holder, name in targets:
            old = holder.__dict__[name] if isinstance(holder, type) else getattr(holder, name)
            self._saved.append((holder, name, old))
            setattr(holder, name, make(old))
        return len(targets)

    def restore(self) -> None:
        while self._saved:
            holder, name, old = self._saved.pop()
            setattr(holder, name, old)


# ---------------------------------------------------------------------------
# The layer table
# ---------------------------------------------------------------------------


def _sites(tracer, args, kwargs, result):
    # omega_grid calls UniformField.uniform: count a site once, at the outermost
    # environment span
    if tracer.parent_name() != "environment":
        tracer.counts["environment.sites"] += np.size(result)


def _cells(metric):
    def count(tracer, args, kwargs, result):
        tracer.counts[metric] += np.size(args[0])

    return count


def _calls(metric):
    def count(tracer, args, kwargs, result):
        tracer.counts[metric] += 1

    return count


def _logdet(tracer, args, kwargs, result):
    k = len(args[0])
    tracer.counts["logspace.logdet.calls"] += 1
    tracer.counts["logspace.logdet.k3"] += k**3


def _eig(tracer, args, kwargs, result):
    a = np.asarray(args[0])
    batch = a.shape[0] if a.ndim == 3 else 1
    tracer.counts["rmt.eig.matrices"] += batch
    tracer.counts["rmt.eig.n3"] += batch * a.shape[-1] ** 3


# (module, qualified name, span name, counter); span name None = count only
LAYERS = [
    ("nipoly.environment", "omega_grid", "environment", _sites),
    ("nipoly.environment", "uniform_many", "environment", _sites),
    ("nipoly.environment", "UniformField.uniform", "environment", _sites),
    ("nipoly.environment", "derive_seed", "environment", None),
    ("nipoly.polymer", "scan_rectangle", "polymer.scan", _cells("polymer.scan.cells")),
    ("nipoly.polymer", "logZ_grid", "polymer.logZ_grid", _cells("polymer.logZ_grid.cells")),
    ("nipoly.polymer", "TauTable.__init__", "polymer.tau", None),
    ("nipoly.polymer", "TauTable.log_tau", "polymer.tau", _calls("polymer.tau.calls")),
    ("nipoly.polymer", "TauTable.log_tau_tilde", "polymer.tau", _calls("polymer.tau.calls")),
    ("nipoly.logspace", "logdet", "logspace.logdet", _logdet),
    ("nipoly.interface", "gibbs_sampler", "interface.gibbs", None),
    ("nipoly.rmt", "jacobi_eigvalsh", "rmt.eig", _eig),
    ("nipoly.rmt", "jacobi_eigvalsh_batch", "rmt.eig", _eig),
    ("nipoly.rmt", "gue_sample", "rmt.sample", None),
    ("nipoly.rmt", "lue_sample", "rmt.sample", None),
    ("nipoly.rmt", "lue_sample_batch", "rmt.sample", None),
    ("nipoly.shapes", "mp_quantile", "shapes.mp_quantile", _calls("shapes.mp_quantile.calls")),
    ("nipoly.shapes", "mp_mass_above", None, "shapes.mp_mass_above.calls"),
    ("nipoly.shapes", "sc_quantile", "shapes.sc_quantile", None),
]


def install(tracer: Tracer, bindings: Bindings) -> dict[str, int]:
    """Wrap every layer function; returns the binding count per target."""
    replaced = {}
    for module, qualname, name, counter in LAYERS:
        if name is None:
            make = functools.partial(count_wrapper, tracer, counter)
        else:
            make = functools.partial(span_wrapper, tracer, name, count=counter)
        replaced[module + ":" + qualname] = bindings.wrap(module, qualname, make)
    return replaced
