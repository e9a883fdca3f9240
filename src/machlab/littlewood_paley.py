"""Littlewood-Paley decomposition and (weighted) Besov norms on the torus.

The dyadic partition follows the standard construction: a radial plateau
function chi equal to 1 on |xi| <= 3/4 and supported in |xi| <= 4/3, and
ring functions phi_q(xi) = chi(xi / 2**(q+1)) - chi(xi / 2**q) supported in
3/4 * 2**q <= |xi| <= 8/3 * 2**q. Frequencies are measured in physical
wavenumber units, so block q isolates |k| near 2**q and first derivatives of
a block scale like 2**q with grid-independent constants.

Every Besov space here has third index 1, so a norm is the plain sum over
blocks. Weighted ("heterogeneous") norms, ``besov_norm(f, s, p, profile=)``,
insert a slowly varying positive weight Psi(q) in front of
2**(q s) ||Delta_q u||_p. Admissible weights are nondecreasing with a bounded
step ratio; the weight Psi(q) = 2**(alpha q) reproduces the plain norm at
regularity s + alpha exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Callable, Optional, Sequence

import numpy as np

from . import spectral
from .spectral import Grid, SpectralScalarField

# Values of the plateau profile below this are snapped to exact zero so that
# support disjointness (|p - q| >= 2) holds in exact arithmetic.
_SUPPORT_SNAP = 1e-300

_PARTITION_CACHE: dict[tuple[int, float], "DyadicPartition"] = {}


def _smooth_step(t: np.ndarray) -> np.ndarray:
    """C-infinity ramp: 0 for t <= 0, 1 for t >= 1, strictly increasing between."""
    t = np.asarray(t, dtype=np.float64)
    lo = t <= 0.0
    hi = t >= 1.0
    mid = ~(lo | hi)
    out = np.zeros_like(t)
    out[hi] = 1.0
    tm = t[mid]
    a = np.exp(-1.0 / tm)
    b = np.exp(-1.0 / (1.0 - tm))
    out[mid] = a / (a + b)
    out[out < _SUPPORT_SNAP] = 0.0
    return out


def _chi_profile(r: np.ndarray) -> np.ndarray:
    """Radial plateau: 1 on r <= 3/4, 0 on r >= 4/3, smooth monotone between."""
    return _smooth_step((4.0 / 3.0 - np.asarray(r, dtype=np.float64)) / (4.0 / 3.0 - 3.0 / 4.0))


@dataclass(frozen=True)
class DyadicPartition:
    """Dyadic frequency partition bound to one grid.

    ``stack`` holds the half-spectrum block multipliers in order: the low
    block chi (index q = -1), then the rings phi_q for q = 0 .. q_max, where
    q_max is the largest ring whose lower support edge 3/4 * 2**q lies at or
    below the dealiasing cutoff. With that choice the multipliers sum to
    exactly 1 on every retained mode.
    """

    grid: Grid
    stack: np.ndarray

    @property
    def q_max(self) -> int:
        return len(self.stack) - 2

    def multiplier(self, q: int) -> np.ndarray:
        if -1 <= q <= self.q_max:
            return self.stack[q + 1]
        raise ValueError(f"block index {q} outside [-1, {self.q_max}]")


def _ring_profile(r: np.ndarray, q: int) -> np.ndarray:
    s = float(2**q)
    return _chi_profile(r / (2.0 * s)) - _chi_profile(r / s)


def build_partition(grid: Grid) -> DyadicPartition:
    """Build (or fetch from cache) the dyadic partition for a grid.

    Raises if the grid is too coarse to host even the q = 0 ring below the
    dealiasing cutoff.
    """
    key = (grid.n, grid.box_length)
    cached = _PARTITION_CACHE.get(key)
    if cached is not None:
        return cached
    kmax = grid.kmax_dealias
    if kmax < 0.75:
        raise ValueError(
            f"dealias cutoff {kmax:.4g} is below the first ring; refine the grid or shrink the box"
        )
    q_max = int(math.floor(math.log2(kmax / 0.75)))
    kmag = grid.kmag
    stack = np.stack([_chi_profile(kmag)] + [_ring_profile(kmag, q) for q in range(q_max + 1)])
    part = DyadicPartition(grid=grid, stack=stack)
    _PARTITION_CACHE[key] = part
    return part


def delta_q(f: SpectralScalarField, q: int) -> SpectralScalarField:
    """Frequency block q of a field (q = -1 is the low block)."""
    return replace(f, modes=f.modes * build_partition(f.grid).multiplier(q))


def block_samples(grid: Grid, modes: np.ndarray) -> np.ndarray:
    """Real samples of every block of every plane, from one batched inverse:
    shape (q_max + 2, *planes, n, n) for ``modes`` of shape (*planes, n, n/2 + 1)."""
    stack = build_partition(grid).stack
    return spectral.to_samples(stack[(slice(None),) + (None,) * (modes.ndim - 2)] * modes)


def block_norms(f, p: float) -> np.ndarray:
    """||Delta_q f||_p for q = -1 .. q_max; multi-component inputs jointly.

    For p = 2 the norms are evaluated in mode space via Parseval, which keeps
    per-step diagnostics cheap; other p go through real space, all blocks in
    one batched inverse.
    """
    grid, modes = spectral.gather(f)
    if p == 2.0:
        power = grid.parseval_weight * np.sum(np.abs(modes) ** 2, axis=0)
        stack = build_partition(grid).stack
        return grid.box_length * np.sqrt(np.sum(stack**2 * power, axis=(1, 2)))
    blocks = spectral.magnitude(block_samples(grid, modes))
    return spectral.plane_norms(blocks, p, grid.cell_area)


def besov_sum(norms: np.ndarray, s: float, profile: Optional["BesovProfile"] = None) -> float:
    """The sum over blocks of Psi(q) 2**(q s) norms[q], with norms[0] at
    q = -1; Psi is 1 without a profile."""
    q = np.arange(-1, len(norms) - 1)
    weights = 2.0 ** (q.astype(np.float64) * s)
    if profile is not None:
        weights = np.array([profile.psi(int(k)) for k in q]) * weights
    return float(np.sum(weights * norms))


def besov_norm(f, s: float, p: float, profile: Optional["BesovProfile"] = None) -> float:
    """Besov norm B^s_{p,1}: the sum over blocks of Psi(q) 2**(q s) ||Delta_q f||_p.

    Without a profile Psi is 1 and this is the plain norm; with
    Psi(q) = 2**(alpha q) it equals the plain norm at regularity s + alpha
    exactly, block by block.
    """
    return besov_sum(block_norms(f, p), s, profile)


@dataclass(frozen=True)
class BesovProfile:
    """Slowly varying weight Psi on block indices q >= -1.

    ``values[i]`` stores Psi(q) for q = i - 1 (tabulated range). Evaluation
    outside the table uses ``extension`` when the profile came from a closed
    form, and otherwise continues with the last tabulated step ratio.

    ``growth_exponent`` is the smallest alpha with
    Psi(q) <= Psi(-1) * exp(alpha * (q + 1)) over the table, so a pure
    geometric weight C**q reports alpha = ln C.
    """

    values: np.ndarray
    ratio_bound: float
    growth_exponent: float
    extension: Optional[Callable[[float], float]] = None
    name: str = "tabulated"

    @property
    def q_hi(self) -> int:
        return len(self.values) - 2

    def psi(self, q: int) -> float:
        if q < -1:
            raise ValueError(f"block index {q} below -1")
        if q <= self.q_hi:
            return float(self.values[q + 1])
        if self.extension is not None:
            return float(self.extension(float(q)))
        last_ratio = float(self.values[-1] / self.values[-2]) if len(self.values) >= 2 else 1.0
        return float(self.values[-1] * last_ratio ** (q - self.q_hi))

    def psi_at(self, x: float) -> float:
        """Psi at a real argument >= -1: closed form when available, else
        linear interpolation between tabulated integers."""
        if x < -1.0:
            raise ValueError(f"argument {x} below -1")
        if self.extension is not None:
            return float(self.extension(x))
        lo = math.floor(x)
        hi = lo + 1
        if float(lo) == x:
            return self.psi(int(lo))
        w = x - lo
        return (1.0 - w) * self.psi(int(lo)) + w * self.psi(int(hi))

    def serialize(self, path) -> None:
        with open(path, "w") as fh:
            fh.write(f"# besov profile {self.name}\n")
            for i, v in enumerate(self.values):
                fh.write(f"{i - 1} {v:.17g}\n")


def validate_profile(values: Sequence[float], extension: Optional[Callable[[float], float]] = None,
                     name: str = "tabulated") -> BesovProfile:
    """Check an admissible weight table and attach its fitted metadata.

    Rejects nonpositive entries and any decrease; the table is indexed from
    q = -1.
    """
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size < 2:
        raise ValueError("weight table needs at least entries for q = -1 and q = 0")
    if np.any(arr <= 0.0):
        raise ValueError("weight values must be strictly positive")
    if np.any(np.diff(arr) < 0.0):
        q_bad = int(np.argmax(np.diff(arr) < 0.0))
        raise ValueError(f"weight decreases between q={q_bad - 1} and q={q_bad}")
    ratios = arr[1:] / arr[:-1]
    ratio_bound = float(np.max(ratios))
    base = arr[0]
    qs = np.arange(-1, arr.size - 1, dtype=np.float64)
    with np.errstate(divide="ignore", invalid="ignore"):
        alphas = np.log(arr / base) / (qs + 1.0)
    alphas = alphas[1:]  # (q + 1) = 0 at q = -1
    growth = float(np.max(alphas)) if alphas.size else 0.0
    return BesovProfile(values=arr, ratio_bound=ratio_bound, growth_exponent=max(growth, 0.0),
                        extension=extension, name=name)


# Blocks tabulated by ``named_profile``; evaluation beyond them uses the closed form.
_NAMED_Q_HI = 48


def named_profile(spec: str) -> BesovProfile:
    """Construct a weight from a compact textual spec.

    ``constant``       Psi = 1
    ``power:a``        Psi(q) = (q + 2)**a
    ``exp:a``          Psi(q) = exp(a q)
    """
    qs = np.arange(-1, _NAMED_Q_HI + 1, dtype=np.float64)
    if spec == "constant":
        return validate_profile(np.ones_like(qs), extension=lambda x: 1.0, name=spec)
    kind, _, arg = spec.partition(":")
    try:
        a = float(arg)
    except ValueError:
        raise ValueError(f"bad profile parameter in {spec!r}") from None
    if kind == "power":
        if a < 0.0:
            raise ValueError("power profile needs a nonnegative exponent")
        return validate_profile((qs + 2.0) ** a, extension=lambda x: (x + 2.0) ** a, name=spec)
    if kind == "exp":
        if a < 0.0:
            raise ValueError("exp profile needs a nonnegative rate")
        return validate_profile(np.exp(a * qs), extension=lambda x: math.exp(a * x), name=spec)
    raise ValueError(f"unknown profile spec {spec!r}")


def load_profile(path) -> BesovProfile:
    values = []
    with open(path) as fh:
        for line in fh:
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            _, v = line.split()
            values.append(float(v))
    return validate_profile(values)


def find_profile(f, s: float, p: float) -> BesovProfile:
    """Fit a slowly varying weight to the block tails of a field (or family).

    With a_q = 2**(q s) ||Delta_q f||_p and tails t(q) = sum_{j >= q} a_j
    (family inputs take the largest a_q over members), the weight is

        Psi(q) = min( sqrt(t(-1) / t(q)), 2 * Psi(q - 1) ),   Psi(-1) = 1,

    clamped nondecreasing. The square root splits the tail decay between the
    weight and the remaining summability, and the factor-2 step cap keeps the
    weight slowly varying, so sum_q Psi(q) a_q <= 2 * sum_q a_q.
    """
    members = [f] if hasattr(f, "modes") else list(f)  # one field or a family
    if not members:
        raise ValueError("need at least one field")
    grid = spectral.gather(members[0])[0]
    part = build_partition(grid)
    qs = np.arange(-1, part.q_max + 1, dtype=np.float64)
    a = np.zeros(qs.size)
    for m in members:
        a = np.maximum(a, 2.0 ** (qs * s) * block_norms(m, p))
    tails = np.cumsum(a[::-1])[::-1]
    total = tails[0]
    psi = np.ones(qs.size)
    if total <= 0.0:
        return validate_profile(psi, name="fit:degenerate")
    for i in range(1, qs.size):
        if tails[i] > 0.0:
            cand = math.sqrt(total / tails[i])
        else:
            cand = math.inf
        psi[i] = min(cand, 2.0 * psi[i - 1])
        psi[i] = max(psi[i], psi[i - 1])
    return validate_profile(psi, name="fit")
