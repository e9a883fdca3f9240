"""Per-run time series of monitored norms, with trapezoidal accumulators.

A ledger is an append-only table keyed by column name. Columns whose name
starts with ``int_`` are running time integrals of the column named after the
prefix, updated by the trapezoidal rule on append. CSV output uses 17
significant digits so identical runs produce byte-identical files.

``mixed_time_norm`` is the trapezoidal L^r-in-time norm of a sampled series:
``RunLedger.window_mixed_norm`` applies it to a column over a window, and
the free-wave measurements to their sampled norms.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

_FLOAT_FMT = "{:.17g}"


def mixed_time_norm(times, values, r: float) -> float:
    """Trapezoidal L^r-in-time norm of sampled nonnegative values.

    ``times`` must be nondecreasing with at least two samples; ``r`` is a
    time exponent >= 1, or inf for the running supremum.
    """
    times = np.asarray(times, dtype=np.float64)
    values = np.asarray(values, dtype=np.float64)
    if times.size < 2:
        raise ValueError("need at least two time samples")
    if times.shape != values.shape:
        raise ValueError("times and values must have matching shapes")
    if np.any(np.diff(times) < 0.0):
        raise ValueError("times must be nondecreasing")
    if math.isinf(r):
        return float(np.max(values))
    if not (r >= 1.0):
        raise ValueError(f"time exponent must be >= 1 or inf, got {r}")
    return float(np.trapezoid(values**r, times) ** (1.0 / r))


class RunLedger:
    def __init__(self, columns: Iterable[str]):
        self._columns = list(columns)
        if "t" in self._columns:
            raise ValueError("the time column is implicit; do not list it")
        self._integrated = [c[len("int_"):] for c in self._columns if c.startswith("int_")]
        for src in self._integrated:
            if src not in self._columns:
                raise ValueError(f"accumulator int_{src} has no source column {src}")
        self.times: list[float] = []
        self.data: dict[str, list[float]] = {c: [] for c in self._columns}

    @property
    def columns(self) -> list[str]:
        return list(self._columns)

    def append(self, t: float, **values: float) -> None:
        if self.times and t < self.times[-1]:
            raise ValueError(f"time must be nondecreasing, got {t} after {self.times[-1]}")
        row = {}
        for c in self._columns:
            if c.startswith("int_"):
                src = c[len("int_"):]
                prev = self.data[c][-1] if self.data[c] else 0.0
                if self.times:
                    dt = t - self.times[-1]
                    prev_src = self.data[src][-1]
                    row[c] = prev + 0.5 * dt * (prev_src + values[src])
                else:
                    row[c] = 0.0
            else:
                if c not in values:
                    raise ValueError(f"missing value for column {c}")
                row[c] = float(values[c])
        unknown = set(values) - set(self._columns)
        if unknown:
            raise ValueError(f"unknown columns {sorted(unknown)}")
        derived = set(values) & {f"int_{s}" for s in self._integrated}
        if derived:
            raise ValueError(f"accumulators are derived, do not supply {sorted(derived)}")
        self.times.append(float(t))
        for c in self._columns:
            self.data[c].append(row[c])

    def __len__(self) -> int:
        return len(self.times)

    def time_array(self) -> np.ndarray:
        return np.asarray(self.times)

    def column(self, name: str) -> np.ndarray:
        return np.asarray(self.data[name])

    def window_mixed_norm(self, name: str, r: float, t_max: float) -> float:
        """L^r-in-time norm of a column over [0, t_max]."""
        t = self.time_array()
        keep = t <= t_max + 1e-12
        if keep.sum() < 2:
            raise ValueError(f"window [0, {t_max}] holds fewer than two samples")
        return mixed_time_norm(t[keep], self.column(name)[keep], r)

    def window_l1(self, name: str, t_max: float) -> float:
        return self.window_mixed_norm(name, 1.0, t_max)

    def to_csv(self, path, run_id: str, config_hash: str) -> None:
        """Write the ledger under a header line naming the run and the hash of
        the config it ran under."""
        with open(path, "w") as fh:
            fh.write(f"# machlab ledger v1 run={run_id} config={config_hash}\n")
            fh.write(",".join(["t"] + self._columns) + "\n")
            for i, t in enumerate(self.times):
                cells = [_FLOAT_FMT.format(t)]
                cells += [_FLOAT_FMT.format(self.data[c][i]) for c in self._columns]
                fh.write(",".join(cells) + "\n")

    @classmethod
    def from_csv(cls, path) -> "RunLedger":
        with open(path) as fh:
            header = fh.readline().strip()
            if not header.startswith("# machlab ledger v1"):
                raise ValueError(f"not a machlab ledger: {header!r}")
            names = fh.readline().strip().split(",")
            if names[0] != "t":
                raise ValueError("ledger must start with the time column")
            led = cls(names[1:])
            for lineno, line in enumerate(fh, start=3):
                line = line.strip()
                if not line:
                    continue
                vals = [float(x) for x in line.split(",")]
                if len(vals) != len(names):
                    raise ValueError(f"line {lineno}: {len(vals)} cells under a header of "
                                     f"{len(names)} columns")
                led.times.append(vals[0])
                for name, v in zip(names[1:], vals[1:]):
                    led.data[name].append(v)
            return led


# Column sets shared by the solvers and the experiment drivers. Each column
# has a reader; a column nothing reads is not computed.

# grad_v_linf and vc_b2: the blowup thresholds, all that lifespan-table needs;
# div_v_linf, grad_c_linf, qv_linf, c_linf, div_v_b0: the acoustic-decay
# budgets; vc_l2 + int_div_v_linf: the energy-growth check; omega_linf: the
# acceptance vorticity control. grad_sum = grad_v_linf + grad_c_linf and its
# integral, the Gronwall budget V(t): the benchmark's ledger-integral check.
COMPRESSIBLE_COLUMNS = [
    "grad_v_linf", "grad_c_linf", "div_v_linf", "omega_linf",
    "vc_l2", "vc_b2", "div_v_b0", "qv_linf", "c_linf",
    "grad_sum", "int_grad_sum", "int_div_v_linf",
]

# the two blowup-threshold columns: all that a lifespan run reads
BLOWUP_COLUMNS = ["grad_v_linf", "vc_b2"]

# omega_linf and v_l2: the vorticity and energy drift checks; grad_v_linf and
# int_grad_v_linf: the benchmark's ledger-integral check.
INCOMPRESSIBLE_COLUMNS = [
    "grad_v_linf", "omega_linf", "v_l2", "int_grad_v_linf",
]

# f_mass: mass conservation; div_v_linf: divergence-free detection; f_b0,
# int_grad_v_linf, int_div_v_b12: the growth-bound fit; div_v_b0, div_v_b1,
# div_v_b12: the interpolation ratio.
TRANSPORT_COLUMNS = [
    "f_mass", "f_b0", "grad_v_linf", "div_v_linf", "div_v_b0", "div_v_b12", "div_v_b1",
    "int_grad_v_linf", "int_div_v_b12",
]

# f_mass and div_v_linf: all that the transport cross-check at n_hi reads
TRANSPORT_MASS_COLUMNS = ["f_mass", "div_v_linf"]
