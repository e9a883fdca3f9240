"""Littlewood-Paley block operators and (weighted) Besov norms on the torus.

The blocks are the dyadic partition ``grid.blocks`` of ``spectral.Grid``:
the low block (q = -1) first, then the rings q = 0 .. q_max, so block q is
``grid.blocks[q + 1]`` and q_max is ``len(grid.blocks) - 2``.

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
from .spectral import Field, Grid


def delta_q(f: Field, q: int) -> Field:
    """Frequency block q of a field (q = -1 is the low block)."""
    blocks = f.grid.blocks
    if not -1 <= q <= len(blocks) - 2:
        raise ValueError(f"block index {q} outside [-1, {len(blocks) - 2}]")
    return replace(f, modes=f.modes * blocks[q + 1])


def per_block(grid: Grid, modes: np.ndarray, reduce: Callable[[np.ndarray], object]) -> np.ndarray:
    """``reduce`` of the real samples of each block of ``modes`` (shape
    (*planes, n, n/2 + 1)), for q = -1 .. q_max: one block inverted at a time,
    so only one block's planes are ever held. Each block is multiplied and
    inverted on the columns of its support (``grid.block_columns``) only."""
    return np.array([reduce(spectral.to_samples(block[:, :c] * modes[..., :c]))
                     for block, c in zip(grid.blocks, grid.block_columns)])


def block_norms(f, p: float) -> np.ndarray:
    """||Delta_q f||_p for q = -1 .. q_max; the components of a stack jointly.

    For p = 2 the norms are evaluated in mode space via Parseval, at full
    width in this thread's scratch, which keeps per-step diagnostics cheap;
    other p go through real space, one block at a time (``per_block``).
    """
    grid = f.grid
    modes = f.modes.reshape((-1,) + grid.modes_shape)
    if p == 2.0:
        # power = weight * (|m_0|^2 + |m_1|^2 + ...), summed plane by plane in the
        # order of a sum over the plane axis, then the sum of block^2 * power per block
        power, mag, weighted = spectral.scratch(grid.n).multipliers(3)
        np.square(np.abs(modes[0], out=power), out=power)
        for plane in modes[1:]:
            power += np.square(np.abs(plane, out=mag), out=mag)
        np.multiply(grid.parseval_weight, power, out=power)
        sums = [np.sum(np.multiply(np.square(block, out=weighted), power, out=weighted))
                for block in grid.blocks]
        return grid.box_length * np.sqrt(sums)
    return per_block(grid, modes,
                     lambda s: spectral.plane_norms(spectral.magnitude(s), p, grid.cell_area))


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
    qs = np.arange(-1, len(members[0].grid.blocks) - 1, dtype=np.float64)
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
