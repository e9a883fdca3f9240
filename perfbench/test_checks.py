"""Tests of the benchmark itself: the output checks are not vacuous, the
tracer's arithmetic and the host-speed sampling hold, and BENCHMARK.json
names what the code reports.

    python3 -m pytest perfbench/test_checks.py

Each workload runs once (about a minute in all); its artifacts must pass
every check, and one corrupted artifact per workload must fail the matching
check.
"""

from __future__ import annotations

import json
import shutil
import signal
import struct
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import child
import run
import tracer
from workloads import WORKLOADS, CheckFailed, read_table

SEED = 5
SELFTEST_DIR = run.HERE / "runs" / "selftest"


@pytest.fixture(scope="module")
def artifacts():
    """Workload name -> (pristine output dir, spec), one real run each."""
    sys.path.insert(0, str(run.SRC))  # the replay imports machlab.config
    made = {}
    for name, workload in WORKLOADS.items():
        runner = run.Runner(workload, SEED, SELFTEST_DIR / name)
        runner.base.mkdir(parents=True, exist_ok=True)
        runner.config_path.write_text(run.config_text(runner.spec))
        res = runner.launch("pristine")
        assert res["exit_code"] == 0, res["stderr"]
        made[name] = (res["out"], runner.spec)
    return made


def _copy(artifacts, name: str, tmp: str) -> tuple[Path, dict]:
    out, spec = artifacts[name]
    dst = SELFTEST_DIR / name / tmp
    shutil.rmtree(dst, ignore_errors=True)
    shutil.copytree(out, dst)
    return dst, spec


def _check(name: str, check: str):
    return dict(WORKLOADS[name].checks)[check]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_pristine_artifacts_pass_every_check(artifacts, name):
    out, spec = artifacts[name]
    for _, check in WORKLOADS[name].checks:
        check(out, spec)


def _rewrite_csv(path: Path, edit) -> None:
    lines = path.read_text().splitlines(keepends=True)
    path.write_text("".join(edit(lines)))


def _scale_cell(lines, row: int, col_name: str, factor: float):
    header_at = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    col = lines[header_at].strip().split(",").index(col_name)
    i = header_at + 1 + row
    cells = lines[i].strip().split(",")
    cells[col] = repr(float(cells[col]) * factor)
    lines[i] = ",".join(cells) + "\n"
    return lines


def test_flipped_snapshot_fails_the_gap_check(artifacts):
    out, spec = _copy(artifacts, "limit-sweep", "flipped-snapshot")
    path = out / "snap_eps_0p05_final.mlf"
    raw = bytearray(path.read_bytes())
    head = struct.calcsize("<4sIdI")
    n = struct.unpack_from("<4sIdI", raw)[1]
    ux = np.frombuffer(raw, dtype="<f8", count=n * n, offset=head)
    raw[head:head + 8 * n * n] = (-ux).tobytes()
    path.write_bytes(bytes(raw))
    with pytest.raises(CheckFailed, match="gap differs"):
        _check("limit-sweep", "limit.gap_matches_table")(out, spec)


def test_perturbed_ledger_integral_fails(artifacts):
    out, spec = _copy(artifacts, "limit-sweep", "perturbed-ledger")
    _rewrite_csv(out / "ledger_eps_0p1.csv",
                 lambda lines: _scale_cell(lines, 3, "int_grad_sum", 1.0 + 1e-9))
    with pytest.raises(CheckFailed, match="int_grad_sum"):
        _check("limit-sweep", "limit.ledger_integrals")(out, spec)


def test_swapped_lifespan_rows_fail(artifacts):
    out, spec = _copy(artifacts, "lifespan-blowup", "swapped-rows")
    _rewrite_csv(out / "lifespan.csv", lambda lines: [lines[0], lines[2], lines[1]] + lines[3:])
    with pytest.raises(CheckFailed, match="not increasing"):
        _check("lifespan-blowup", "lifespan.t_num_increasing")(out, spec)


def test_perturbed_divergence_fails(artifacts):
    out, spec = _copy(artifacts, "transport-lab", "perturbed-divergence")
    _rewrite_csv(out / "ledger_transport_calibration.csv",
                 lambda lines: _scale_cell(lines, 2, "div_v_linf", 1.0 + 1e-9))
    with pytest.raises(CheckFailed, match="div_v_linf"):
        _check("transport-lab", "transport.calibration_divergence")(out, spec)


def test_perturbed_strichartz_row_fails(artifacts):
    out, spec = _copy(artifacts, "strichartz-probe", "perturbed-row")
    row = SEED % len(spec["eps"])
    _rewrite_csv(out / "strichartz.csv", lambda lines: _scale_cell(lines, row, "value", 1.0 + 1e-6))
    with pytest.raises(CheckFailed, match="recomputed"):
        _check("strichartz-probe", "strichartz.row_recomputed")(out, spec)


def test_replay_passes_once_the_dump_uses_the_parser_key(artifacts):
    out, _ = _copy(artifacts, "transport-lab", "replay")
    resolved = out / "config.resolved"
    text = resolved.read_text()
    if "p_space = " in text:
        with pytest.raises(CheckFailed, match="p_space"):
            run.replay(out)
        resolved.write_text(text.replace("p_space = ", "p = "))
    run.replay(out)
    header, rows = read_table(out / "transport_compare.csv")
    assert len(rows) == 4 and "oracle_diff" in header


def test_self_time_subtracts_the_union_of_children():
    spans = [
        (1, None, "a", 0.0, 10.0, 0, None),
        (2, 1, "b", 1.0, 4.0, 0, None),
        (3, 1, "c", 3.0, 6.0, 1, None),  # overlaps b, as pool members do
        (4, 2, "d", 2.0, 3.0, 0, None),
    ]
    own = tracer.self_times(spans)
    assert own == pytest.approx({1: 5.0, 2: 2.0, 3: 3.0, 4: 1.0})


def test_tail_percentile_needs_ten_samples_beyond_and_forty_in_all():
    assert tracer.tail_percentile(39) is None
    assert tracer.tail_percentile(40) == 75.0
    assert tracer.tail_percentile(100) == 90.0
    assert tracer.tail_percentile(1000) == 99.0
    assert tracer.tail_percentile(10000) == 99.9


def test_host_speed_samples_while_open_and_restores_the_timer():
    with child.HostSpeed() as host:
        deadline = time.monotonic() + 6 * child.FIRST_SAMPLE_S
        while time.monotonic() < deadline:
            pass
    taken = len(host.samples)
    time.sleep(2 * child.FIRST_SAMPLE_S)
    assert taken >= 2 and len(host.samples) == taken
    assert all(s > 0.0 for s in host.samples)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert signal.getsignal(signal.SIGALRM) == signal.SIG_DFL


def test_times_scale_by_the_host_samples():
    ref = run.SAMPLE_REF_S
    assert run.run_sample({"run_s": 10.0, "host_samples_s": [ref, ref]}) == pytest.approx(10.0)
    # a host twice as slow doubles both the wall time and the samples
    assert run.run_sample({"run_s": 20.0, "host_samples_s": [2 * ref]}) == pytest.approx(10.0)
    assert run.setup_sample({"setup_s": 1.0, "setup_samples_s": [ref / 2]}) == pytest.approx(2.0)


def test_benchmark_json_names_what_the_code_reports():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert spec["paths"] == ["perfbench"]
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()}
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracer.PER_LAYER)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values()) <= 0.25
