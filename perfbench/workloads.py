"""The four benchmark workloads: config make-up and output checks.

Each workload is one ``machlab`` CLI experiment. Its config is written from
the workload's seed; every other key is fixed here. Each check reads the
artifacts with the benchmark's own parsers and compares them with numbers
computed apart from the program (its own numpy transforms, closed forms) or
with properties the method must have. A check returns a one-line detail or
raises ``CheckFailed``.
"""

from __future__ import annotations

import csv
import math
import struct
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

BOX_LENGTH = 16.0 * math.pi


class CheckFailed(Exception):
    pass


def require(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# readers and shared numerics, written apart from machlab


def read_table(path: Path) -> tuple[list[str], list[list[str]]]:
    """Header and rows of a CSV artifact; ``#`` comment lines are skipped."""
    with open(path, newline="") as fh:
        rows = [r for r in csv.reader(line for line in fh if not line.startswith("#"))]
    require(len(rows) >= 2, f"{path.name}: no data rows")
    return rows[0], rows[1:]


def read_columns(path: Path) -> dict[str, np.ndarray]:
    header, rows = read_table(path)
    data = np.array([[float(x) for x in r] for r in rows])
    return {name: data[:, i] for i, name in enumerate(header)}


_MLF_HEADER = struct.Struct("<4sIdI")


def read_mlf(path: Path) -> tuple[int, float, list[np.ndarray]]:
    """MLF1 snapshot: magic, u32 n, f64 box length, u32 field count, then one
    n*n little-endian f64 block per field."""
    raw = path.read_bytes()
    magic, n, length, count = _MLF_HEADER.unpack_from(raw, 0)
    require(magic == b"MLF1", f"{path.name}: bad magic {magic!r}")
    require(len(raw) == _MLF_HEADER.size + count * n * n * 8, f"{path.name}: bad size")
    body = np.frombuffer(raw, dtype="<f8", offset=_MLF_HEADER.size).reshape(count, n, n)
    return n, length, list(body)


def wavenumbers(n: int, length: float) -> tuple[np.ndarray, np.ndarray]:
    k = 2.0 * math.pi / length * np.fft.fftfreq(n, d=1.0 / n)
    return k[:, None], k[None, :]


def eps_tag(eps: float) -> str:
    return f"{eps:g}".replace(".", "p")


def rel_err(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    scale = max(float(np.max(np.abs(want))), 1e-300)
    return float(np.max(np.abs(got - want))) / scale


def strictly_decreasing(values) -> bool:
    return all(b < a for a, b in zip(values, values[1:]))


def cumulative_trapezoid(t: np.ndarray, f: np.ndarray) -> np.ndarray:
    return np.concatenate([[0.0], np.cumsum(0.5 * np.diff(t) * (f[1:] + f[:-1]))])


# ---------------------------------------------------------------------------
# limit-sweep: incompressible-limit


def leray_gaps(out: Path, spec: dict) -> dict[float, float]:
    """|| P v_eps - v_ref ||_L2 at t_final from the final snapshots, with the
    Leray projection and Parseval sum done here."""
    n, length, ref = read_mlf(out / "snap_reference_final.mlf")
    kx, ky = wavenumbers(n, length)
    k2 = kx * kx + ky * ky
    k2[0, 0] = 1.0
    rx, ry = (np.fft.fft2(f) / n**2 for f in ref[:2])
    gaps = {}
    for e in spec["eps"]:
        _, _, fields = read_mlf(out / f"snap_eps_{eps_tag(e)}_final.mlf")
        vx, vy = (np.fft.fft2(f) / n**2 for f in fields[:2])
        kdotv = (kx * vx + ky * vy) / k2
        dx, dy = vx - kx * kdotv - rx, vy - ky * kdotv - ry
        gaps[e] = length * math.sqrt(float(np.sum(np.abs(dx) ** 2 + np.abs(dy) ** 2)))
    return gaps


def check_limit_gap_matches(out: Path, spec: dict) -> str:
    gaps = leray_gaps(out, spec)
    _, rows = read_table(out / "incompressible_limit.csv")
    table = {float(r[0]): float(r[-1]) for r in rows}
    require(sorted(table) == sorted(gaps), f"eps rows {sorted(table)} != {sorted(gaps)}")
    worst = max(abs(table[e] - g) / g for e, g in gaps.items())
    require(worst <= 1e-10, f"recomputed L2 gap differs from the table by {worst:.3e} relative")
    return f"recomputed gap matches incompressible_limit.csv to {worst:.1e} relative"


def check_limit_gap_contracts(out: Path, spec: dict) -> str:
    gaps = leray_gaps(out, spec)
    seq = [gaps[e] for e in sorted(gaps, reverse=True)]
    require(strictly_decreasing(seq), f"gap not strictly decreasing as eps does: {seq}")
    return "gap at t_final per eps: " + ", ".join(f"{g:.4g}" for g in seq)


def check_limit_reference_divfree(out: Path, spec: dict) -> str:
    n, length, ref = read_mlf(out / "snap_reference_final.mlf")
    kx, ky = wavenumbers(n, length)
    rx, ry = (np.fft.fft2(f) for f in ref[:2])
    div = np.sqrt(np.sum(np.abs(kx * rx + ky * ry) ** 2))
    scale = np.sqrt(np.sum((kx * kx + ky * ky) * (np.abs(rx) ** 2 + np.abs(ry) ** 2)))
    ratio = float(div / scale)
    require(ratio <= 1e-12, f"reference velocity divergence {ratio:.3e} of its gradient")
    return f"||div v_ref|| / ||grad v_ref|| = {ratio:.1e}"


def _limit_ledgers(out: Path, spec: dict) -> dict[str, dict[str, np.ndarray]]:
    names = [f"ledger_eps_{eps_tag(e)}.csv" for e in spec["eps"]] + ["ledger_reference.csv"]
    return {name: read_columns(out / name) for name in names}


def check_limit_ledger_time(out: Path, spec: dict) -> str:
    for name, led in _limit_ledgers(out, spec).items():
        t = led["t"]
        require(t[0] == 0.0, f"{name}: starts at t={t[0]}")
        require(bool(np.all(np.diff(t) > 0.0)), f"{name}: t not strictly increasing")
        require(abs(t[-1] - spec["t_final"]) <= 1e-12, f"{name}: ends at t={t[-1]!r}")
    return f"t runs strictly upward from 0 to {spec['t_final']:g} in every ledger"


def check_limit_ledger_integrals(out: Path, spec: dict) -> str:
    worst = 0.0
    for name, led in _limit_ledgers(out, spec).items():
        for col in led:
            if col.startswith("int_"):
                want = cumulative_trapezoid(led["t"], led[col[4:]])
                err = rel_err(led[col], want)
                require(err <= 1e-12, f"{name}: {col} is off its trapezoid by {err:.3e}")
                worst = max(worst, err)
    return f"every int_* column equals its trapezoid to {worst:.1e} relative"


def check_limit_ledger_grad_sum(out: Path, spec: dict) -> str:
    for name, led in _limit_ledgers(out, spec).items():
        if "grad_sum" in led:
            err = rel_err(led["grad_sum"], led["grad_v_linf"] + led["grad_c_linf"])
            require(err <= 1e-15, f"{name}: grad_sum off grad_v_linf + grad_c_linf by {err:.3e}")
    return "grad_sum = grad_v_linf + grad_c_linf in every compressible ledger"


# ---------------------------------------------------------------------------
# lifespan-blowup: lifespan-table


def _lifespan_rows(out: Path) -> dict[str, np.ndarray]:
    return read_columns(out / "lifespan.csv")


def check_lifespan_all_blowup(out: Path, spec: dict) -> str:
    rows = _lifespan_rows(out)
    require(list(rows["eps"]) == sorted(spec["eps"], reverse=True),
            f"eps column {list(rows['eps'])}")
    require(bool(np.all(rows["censored"] == 0)),
            f"censored runs: {list(rows['censored'])} (largest eps first)")
    return "every eps, the largest included, ended in a blowup before t_cap"


def check_lifespan_t_num_increasing(out: Path, spec: dict) -> str:
    t_num = list(_lifespan_rows(out)["t_num"])
    require(strictly_decreasing(t_num[::-1]), f"t_num not increasing as eps decreases: {t_num}")
    return "t_num per eps (descending): " + ", ".join(f"{t:.4g}" for t in t_num)


def closed_form_t_psi(eps: float, c0: float) -> tuple[float, float]:
    """(exp:1, power:2) lifespan clocks ln ln Psi(ln 1/eps) / c0, 0 where
    Psi(ln 1/eps) <= e."""
    x = math.log(1.0 / eps)
    exp1 = math.log(x) / c0 if x > 1.0 else 0.0
    power2 = math.log(2.0 * math.log(x + 2.0)) / c0 if (x + 2.0) ** 2 > math.e else 0.0
    return exp1, power2


def check_lifespan_t_psi(out: Path, spec: dict) -> str:
    rows = _lifespan_rows(out)
    want = np.array([closed_form_t_psi(e, spec["c0"]) for e in rows["eps"]])
    err = max(rel_err(rows["t_psi_exp1"], want[:, 0]), rel_err(rows["t_psi_power2"], want[:, 1]))
    require(err <= 1e-12, f"t_psi columns off the closed forms by {err:.3e} relative")
    return f"t_psi columns equal the closed forms to {err:.1e} relative"


# ---------------------------------------------------------------------------
# transport-lab: transport-log


def check_transport_mass(out: Path, spec: dict) -> str:
    mass = read_columns(out / "ledger_transport_calibration.csv")["f_mass"]
    drift = float(np.max(np.abs(mass - mass[0]))) / abs(mass[0])
    require(drift <= 1e-8, f"calibration mass drifts by {drift:.3e} relative")
    return f"calibration mass constant to {drift:.1e} relative"


def check_transport_divergence(out: Path, spec: dict) -> str:
    led = read_columns(out / "ledger_transport_calibration.csv")
    # calibration velocity: divergence-free shear plus 0.8 sin(2t) cos(k.x) khat, k = 2pi(3,1)/L
    kmag = 2.0 * math.pi * math.hypot(3.0, 1.0) / spec["box_length"]
    want = 0.8 * np.abs(np.sin(2.0 * led["t"])) * kmag
    err = float(np.max(np.abs(led["div_v_linf"] - want)))
    require(err <= 1e-12 * kmag, f"div_v_linf off 0.8 |sin 2t| |k| by {err:.3e}")
    return f"div_v_linf(t) = 0.8 |sin 2t| |k| to {err:.1e}"


def check_transport_holdout_ratios(out: Path, spec: dict) -> str:
    worst = 0.0
    for i in range(4):
        ratios = read_columns(out / f"plot_growth_ratio_holdout{i}.csv")["lhs_over_bound"]
        require(bool(np.all(np.isfinite(ratios))), f"holdout {i}: non-finite ratio")
        worst = max(worst, float(np.max(ratios)))
    require(worst <= 1.0, f"a holdout growth ratio reaches {worst:.6g} > 1")
    return f"largest holdout LHS/bound {worst:.6g}"


def check_transport_oracle(out: Path, spec: dict) -> str:
    header, rows = read_table(out / "transport_compare.csv")
    col = header.index("oracle_diff")
    gaps = [float(r[col]) for r in rows]
    require(len(gaps) == 4, f"{len(gaps)} holdout rows")
    require(max(gaps) <= 1e-3, f"oracle gap {max(gaps):.3e} > 1e-3")
    return f"largest spectral/oracle gap {max(gaps):.3e}"


# ---------------------------------------------------------------------------
# strichartz-probe: strichartz-sweep


def check_strichartz_window(out: Path, spec: dict) -> str:
    rows = read_columns(out / "strichartz.csv")
    length = spec["box_length"]
    window = 0.99 * 0.45 * length * min(spec["eps"])
    require(list(rows["eps"]) == sorted(spec["eps"], reverse=True), f"eps column {list(rows['eps'])}")
    require(bool(np.all(np.isinf(rows["p"]))), "p column is not inf")
    require(bool(np.all(rows["r"] == 4.0)) and bool(np.all(rows["decay_exponent"] == 0.25)),
            "r and decay are not 4 and 1/4 for p = inf")
    require(rel_err(rows["window"], np.full(len(rows["eps"]), window)) <= 1e-14,
            f"window column is not 0.99 * 0.45 * L * min(eps) = {window!r}")
    require(rel_err(rows["normalized"], rows["value"] / rows["eps"] ** 0.25) <= 1e-14,
            "normalized column is not value / eps^(1/4)")
    ok = (window < 0.45 * length * rows["eps"]).astype(float)
    require(bool(np.all(rows["window_ok"] == ok)), "window_ok column is wrong")
    return f"window {window:.6g}, r = 4, decay = 1/4"


def check_strichartz_decreasing(out: Path, spec: dict) -> str:
    values = list(read_columns(out / "strichartz.csv")["value"])
    require(strictly_decreasing(values), f"mixed norm not decreasing as eps does: {values}")
    return "mixed norm per eps (descending): " + ", ".join(f"{v:.5g}" for v in values)


def strichartz_value(n: int, length: float, eps: float, window: float, samples: int = 64) -> float:
    """L^4-in-time of the sup norm of the free half-wave evolution of the unit
    L^2 Gaussian probe, centered in the box with width L/20, dealiased by the
    radial 2/3 rule and mean-free."""
    x = np.arange(n) * (length / n) - 0.5 * length
    sigma = length / 20.0
    bump = np.exp(-(x[:, None] ** 2 + x[None, :] ** 2) / (2.0 * sigma**2))
    kx, ky = wavenumbers(n, length)
    kmag = np.sqrt(kx * kx + ky * ky)
    modes = np.where(kmag <= (2.0 / 3.0) * (n / 2.0) * (2.0 * math.pi / length),
                     np.fft.fft2(bump) / n**2, 0.0)
    modes[0, 0] = 0.0
    modes /= length * math.sqrt(float(np.sum(np.abs(modes) ** 2)))
    times = np.linspace(0.0, window, samples)
    sup = np.array([np.max(np.abs(np.fft.ifft2(modes * np.exp(-1j * (t / eps) * kmag)))) * n**2
                    for t in times])
    return float(np.sum(0.5 * np.diff(times) * (sup[1:] ** 4 + sup[:-1] ** 4)) ** 0.25)


def check_strichartz_row(out: Path, spec: dict) -> str:
    rows = read_columns(out / "strichartz.csv")
    i = spec["seed"] % len(rows["eps"])
    got = strichartz_value(spec["n"], spec["box_length"], rows["eps"][i], rows["window"][i])
    err = abs(rows["value"][i] - got) / got
    require(err <= 1e-9, f"eps={rows['eps'][i]:g}: table {rows['value'][i]!r} vs recomputed {got!r}")
    return f"eps={rows['eps'][i]:g} row recomputed to {err:.1e} relative"


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Workload:
    name: str
    experiment: str
    why: str
    keys: dict
    checks: tuple[tuple[str, Callable[[Path, dict], str]], ...]
    pooled: bool = False  # runs the sweep thread pool with up to two threads

    def spec(self, seed: int, nproc: int) -> dict:
        spec = {"box_length": BOX_LENGTH, **self.keys, "seed": seed}
        spec["threads"] = min(2, nproc) if self.pooled else 1
        return spec


def config_text(spec: dict) -> str:
    def fmt(v):
        if isinstance(v, tuple):
            return ", ".join(fmt(x) for x in v)
        if isinstance(v, float):
            return "inf" if math.isinf(v) else repr(v)
        return str(v)

    return "".join(f"{k} = {fmt(v)}\n" for k, v in spec.items())


WORKLOADS = {w.name: w for w in (
    Workload(
        name="limit-sweep", experiment="incompressible-limit",
        why="strong-convergence eps sweep at n=256: Strang steps, monitor rows, "
            "incompressible reference, snapshots and ledgers, on the two-thread sweep pool",
        keys={"n": 256, "eps": (0.2, 0.1, 0.05, 0.025), "data": "vortex-pair-ill",
              "amplitude": 0.5, "t_final": 0.5, "snapshots": 6},
        checks=(
            ("limit.gap_matches_table", check_limit_gap_matches),
            ("limit.gap_contracts", check_limit_gap_contracts),
            ("limit.reference_divergence_free", check_limit_reference_divfree),
            ("limit.ledger_time", check_limit_ledger_time),
            ("limit.ledger_integrals", check_limit_ledger_integrals),
            ("limit.ledger_grad_sum", check_limit_ledger_grad_sum),
        ),
        pooled=True,
    ),
    Workload(
        name="lifespan-blowup", experiment="lifespan-table",
        why="single-thread solver at n=128 run into blowup: CFL-shrunk steps whose "
            "monitor rows are read only for the blowup columns, no per-step output",
        keys={"n": 128, "eps": (1.0, 0.5, 0.25), "data": "vortex-pair-ill",
              "amplitude": 4.0, "c0": 1.0, "t_cap": 4.0, "blowup_factor": 4.0},
        checks=(
            ("lifespan.all_blowup", check_lifespan_all_blowup),
            ("lifespan.t_num_increasing", check_lifespan_t_num_increasing),
            ("lifespan.t_psi_closed_form", check_lifespan_t_psi),
        ),
    ),
    Workload(
        name="transport-lab", experiment="transport-log",
        why="transport tendency, its Besov monitor and the characteristics oracle "
            "at n=256, with no compressible stepping",
        keys={"n": 256, "t_final": 0.1},
        checks=(
            ("transport.calibration_mass", check_transport_mass),
            ("transport.calibration_divergence", check_transport_divergence),
            ("transport.holdout_ratios", check_transport_holdout_ratios),
            ("transport.oracle_gaps", check_transport_oracle),
        ),
    ),
    Workload(
        name="strichartz-probe", experiment="strichartz-sweep",
        why="free acoustic propagator and full complex transforms at n=512, p=inf; "
            "the real-field spectral core is not used",
        keys={"n": 512, "eps": (0.2, 0.1, 0.05, 0.025), "p": math.inf},
        checks=(
            ("strichartz.window_and_exponents", check_strichartz_window),
            ("strichartz.mixed_norm_decreasing", check_strichartz_decreasing),
            ("strichartz.row_recomputed", check_strichartz_row),
        ),
    ),
)}
