"""Span tracer for the traced benchmark run, plus the per-layer aggregation.

The tracer wraps code from the outside: the 2-D/N-D entry points of
``numpy.fft`` and ``scipy.fft``, every public function of each ``machlab``
module (in every module namespace that holds it), the public methods of the
classes those modules define, the sweep thread pool, and the callables of
``transport.SyntheticVelocity``. Nothing under ``src/`` changes.

A span is ``(id, parent, name, start, end, thread, attrs)``. Parent stacks are
kept per thread; a pool member span takes the span that submitted it as its
parent. Spans stay in memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import math
import pkgutil
import threading
import uuid
from time import perf_counter

import numpy as np

# transforms whose planes are counted; 1-D entry points carry no n x n plane
C2C_ENTRY_POINTS = ("fft2", "ifft2", "fftn", "ifftn")
REAL_ENTRY_POINTS = ("rfft2", "irfft2", "rfftn", "irfftn", "hfft2", "ihfft2", "hfftn", "ihfftn")

FFT_PREFIX = "fft."
MEMBER_SPAN = "experiments.run_sweep.member"

# argument recorded as a span attribute, keyed by span name
_ARG_ATTRS = {"transport.solve_transport_oracle": "substeps"}


class Tracer:
    def __init__(self) -> None:
        self.run_id = uuid.uuid4().hex[:12]
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = {"transport.velocity_evals": 0,
                                           "experiments.run_sweep.member_wait_s": 0.0}
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def current(self):
        stack = self._stack()
        return stack[-1] if stack else None

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counters[name] += value

    def call(self, name: str, fn, args, kwargs, parent=None, attrs=None):
        stack = self._stack()
        if parent is None and stack:
            parent = stack[-1]
        sid = next(self._ids)
        stack.append(sid)
        t0 = perf_counter()
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            # the span of a call that raised (a Blowup, say) is kept, without attributes
            self.spans.append((sid, parent, name, t0, perf_counter(), threading.get_ident(),
                               None if callable(attrs) else attrs))
            raise
        finally:
            stack.pop()
        t1 = perf_counter()
        if callable(attrs):
            attrs = attrs(result)
        self.spans.append((sid, parent, name, t0, t1, threading.get_ident(), attrs))
        return result

    def wrap(self, name: str, fn):
        arg = _ARG_ATTRS.get(name)
        signature = inspect.signature(fn) if arg else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            attrs = None
            if signature is not None:
                attrs = {arg: signature.bind(*args, **kwargs).arguments.get(arg)}
            return self.call(name, fn, args, kwargs, attrs=attrs)

        return wrapper

    def wrap_fft(self, lib: str, fname: str, fn, kind: str):
        name = f"{FFT_PREFIX}{lib}.{fname}"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            a = np.asarray(args[0] if args else kwargs.get("x", kwargs.get("a")))

            def attrs(out):
                planes = a.size // (a.shape[-2] * a.shape[-1]) if a.ndim >= 2 else 0
                return {"kind": kind, "planes": planes, "bytes": a.nbytes + np.asarray(out).nbytes}

            return self.call(name, fn, args, kwargs, attrs=attrs)

        return wrapper

    # -- instrumentation ---------------------------------------------------

    def instrument_fft(self) -> None:
        """Wrap the transform entry points; call before importing machlab."""
        import numpy.fft
        import scipy.fft

        for lib, mod in (("numpy", numpy.fft), ("scipy", scipy.fft)):
            for kind, names in (("c2c", C2C_ENTRY_POINTS), ("real", REAL_ENTRY_POINTS)):
                for fname in names:
                    fn = getattr(mod, fname, None)
                    if fn is not None:
                        setattr(mod, fname, self.wrap_fft(lib, fname, fn, kind))

    def instrument_machlab(self) -> None:
        """Wrap every public machlab function and method in place."""
        import machlab

        modules = [importlib.import_module(f"machlab.{info.name}")
                   for info in pkgutil.iter_modules(machlab.__path__)]
        wrapped: dict = {}
        for mod in modules:
            short = mod.__name__.rpartition(".")[2]
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[obj] = self.wrap(f"{short}.{obj.__qualname__}", obj)
                elif inspect.isclass(obj):
                    self._wrap_methods(short, obj)
        for mod in modules + [machlab]:
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrapped:
                    setattr(mod, attr, wrapped[obj])
                elif isinstance(obj, dict):  # dispatch tables, such as experiment name -> function
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and value in wrapped:
                            obj[key] = wrapped[value]
        self._instrument_pool(importlib.import_module("machlab.experiments"))
        self._instrument_velocity(importlib.import_module("machlab.transport"))

    def _wrap_methods(self, short: str, cls) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{short}.{cls.__qualname__}.{attr}"
            if isinstance(member, (staticmethod, classmethod)):
                setattr(cls, attr, type(member)(self.wrap(name, member.__func__)))
            elif inspect.isfunction(member):
                setattr(cls, attr, self.wrap(name, member))

    def _instrument_pool(self, experiments) -> None:
        tracer = self
        base = experiments.ThreadPoolExecutor

        class TracedPool(base):
            """Records how long each submitted sweep member waits for a worker."""

            def submit(self, fn, /, *args, **kwargs):
                submitted = perf_counter()
                parent = tracer.current()

                def member(*a, **k):
                    tracer.add("experiments.run_sweep.member_wait_s", perf_counter() - submitted)
                    return tracer.call(MEMBER_SPAN, fn, a, k, parent=parent)

                return super().submit(member, *args, **kwargs)

        experiments.ThreadPoolExecutor = TracedPool

    def _instrument_velocity(self, transport) -> None:
        tracer = self
        local = threading.local()

        def counted(fn):
            @functools.wraps(fn)
            def wrapper(t, x, y):
                depth = getattr(local, "depth", 0)
                if depth == 0 and np.broadcast(x, y).size > 1:
                    tracer.add("transport.velocity_evals", 1)
                local.depth = depth + 1
                try:
                    return fn(t, x, y)
                finally:
                    local.depth = depth

            return wrapper

        class CountedVelocity(transport.SyntheticVelocity):
            """Counts grid-sized calls of the closed-form callables; calls a
            superposition makes to its members are not counted again."""

            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                for attr in ("velocity", "jacobian", "divergence"):
                    object.__setattr__(self, attr, counted(getattr(self, attr)))

        transport.SyntheticVelocity = CountedVelocity

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"run_id": self.run_id, "spans": self.spans, "counters": self.counters}, fh)


# ---------------------------------------------------------------------------
# aggregation


PER_LAYER = (
    ("spectral.fft.c2c_planes", "count"),
    ("spectral.fft.real_planes", "count"),
    ("spectral.fft.computed_mb", "MB"),
    ("spectral.fft.self_s", "s"),
    ("spectral.lp_norm.calls", "count"),
    ("spectral.lp_norm.self_s", "s"),
    ("compressible.step.calls", "count"),
    ("compressible.step.p50_ms", "ms"),
    ("compressible.step.tail_ms", "ms"),
    ("compressible.rhs_nonlinear.self_s", "s"),
    ("compressible.rhs_nonlinear.p50_ms", "ms"),
    ("compressible.acoustic_exact_step.self_s", "s"),
    ("compressible.cfl_dt.self_s", "s"),
    ("compressible.monitor_row.self_s", "s"),
    ("compressible.monitor_row.p50_ms", "ms"),
    ("compressible.fft_planes_per_monitor_row", "planes/row"),
    ("compressible.fft_planes_per_step", "planes/step"),
    ("littlewood_paley.besov_norm.calls", "count"),
    ("littlewood_paley.besov_norm.self_s", "s"),
    ("littlewood_paley.find_profile.self_s", "s"),
    ("initial_data.make_initial_data.calls", "count"),
    ("initial_data.make_initial_data.self_s", "s"),
    ("incompressible.step_incompressible.calls", "count"),
    ("incompressible.step_incompressible.self_s", "s"),
    ("incompressible.run_incompressible.self_s", "s"),
    ("transport.solve_transport_spectral.self_s", "s"),
    ("transport.transport_monitor_row.self_s", "s"),
    ("transport.solve_transport_oracle.self_s", "s"),
    ("transport.velocity_evals", "count"),
    ("transport.oracle_substeps", "count"),
    ("acoustic.free_propagate.self_s", "s"),
    ("acoustic.complex_lp_norm.self_s", "s"),
    ("ledger.RunLedger.append.self_s", "s"),
    ("ledger.RunLedger.to_csv.self_s", "s"),
    ("spectral.write_snapshot.self_s", "s"),
    ("experiments.artifact_bytes", "bytes"),
    ("experiments.run_sweep.member_wait_s", "s"),
    ("trace.overhead_s", "s"),
)

# a tail percentile needs this many samples beyond it, and is only reported
# from this many samples on
TAIL_BEYOND = 10
TAIL_MIN_SAMPLES = 40
_TAIL_LADDER_PERMILLE = (999, 990, 950, 900, 750)


def tail_percentile(count: int):
    """Highest ladder percentile with at least TAIL_BEYOND samples beyond it,
    or None below TAIL_MIN_SAMPLES samples."""
    if count < TAIL_MIN_SAMPLES:
        return None
    for permille in _TAIL_LADDER_PERMILLE:
        if count * (1000 - permille) >= 1000 * TAIL_BEYOND:
            return permille / 10
    return None


def _union_length(intervals, lo: float, hi: float) -> float:
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it that child spans cover."""
    children: dict = {}
    for sid, parent, _, t0, t1, _, _ in spans:
        if parent is not None:
            children.setdefault(parent, []).append((t0, t1))
    return {sid: (t1 - t0) - _union_length(children.get(sid, ()), t0, t1)
            for sid, _, _, t0, t1, _, _ in spans}


def layer_metrics(trace: dict) -> tuple[dict, dict]:
    """Per-layer metrics (name -> value) and details (tail percentiles and
    sample counts) from one dumped trace. ``trace.overhead_s`` and
    ``experiments.artifact_bytes`` are filled in by the caller."""
    spans = [tuple(s) for s in trace["spans"]]
    counters = trace["counters"]
    own = self_times(spans)
    by_name: dict = {}
    for s in spans:
        by_name.setdefault(s[2], []).append(s)
    parent_of = {s[0]: s[1] for s in spans}
    name_of = {s[0]: s[2] for s in spans}

    def calls(name):
        return len(by_name.get(name, ()))

    def self_s(name):
        return math.fsum(own[s[0]] for s in by_name.get(name, ()))

    def durations_ms(name):
        return np.array([(s[4] - s[3]) * 1e3 for s in by_name.get(name, ())])

    def p50_ms(name):
        d = durations_ms(name)
        return float(np.median(d)) if d.size else 0.0

    ffts = [s for s in spans if s[2].startswith(FFT_PREFIX) and s[6]]

    def planes_under(ancestor):
        total = 0
        for s in ffts:
            p = s[1]
            while p is not None and name_of.get(p) != ancestor:
                p = parent_of.get(p)
            if p is not None:
                total += s[6]["planes"]
        return total

    def per_call(total, name):
        n = calls(name)
        return total / n if n else 0.0

    step_ms = durations_ms("compressible.step")
    tail_pct = tail_percentile(step_ms.size)
    m = {
        "spectral.fft.c2c_planes": sum(s[6]["planes"] for s in ffts if s[6]["kind"] == "c2c"),
        "spectral.fft.real_planes": sum(s[6]["planes"] for s in ffts if s[6]["kind"] == "real"),
        "spectral.fft.computed_mb": sum(s[6]["bytes"] for s in ffts) / 1e6,
        "spectral.fft.self_s": math.fsum(own[s[0]] for s in ffts),
        "compressible.step.tail_ms": (float(np.percentile(step_ms, tail_pct))
                                      if tail_pct is not None else 0.0),
        "compressible.fft_planes_per_monitor_row": per_call(
            planes_under("compressible.monitor_row"), "compressible.monitor_row"),
        "compressible.fft_planes_per_step": per_call(
            planes_under("compressible.step"), "compressible.step"),
        "transport.velocity_evals": counters["transport.velocity_evals"],
        "transport.oracle_substeps": sum(s[6]["substeps"] for s in
                                         by_name.get("transport.solve_transport_oracle", ())),
        "experiments.run_sweep.member_wait_s": counters["experiments.run_sweep.member_wait_s"],
    }
    for name, _ in PER_LAYER:
        if name in m:
            continue
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            m[name] = calls(layer)
        elif stat == "self_s":
            m[name] = self_s(layer)
        elif stat == "p50_ms":
            m[name] = p50_ms(layer)
    details = {
        "run_id": trace["run_id"],
        "spans": len(spans),
        "compressible.step.samples": int(step_ms.size),
        "compressible.step.tail_percentile": tail_pct,
        "compressible.rhs_nonlinear.samples": calls("compressible.rhs_nonlinear"),
        "compressible.monitor_row.samples": calls("compressible.monitor_row"),
    }
    return m, details
