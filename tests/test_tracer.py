"""The benchmark's span tracer still binds to the package.

``perfbench/tracer.py`` finds what it wraps by reflection: every public
function of each ``machlab`` module, and ``transport.SyntheticVelocity``. A
rename in the package does not fail an import there; it silently drops
spans and counters from the traced benchmark round. One test runs a small
traced experiment in a fresh interpreter, as the benchmark does; another
checks that each per-layer metric of ``BENCHMARK.json`` names a span the
tracer can make.
"""

import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

TRACED_RUN = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[2]]
from tracer import Tracer

tracer = Tracer()
tracer.instrument_fft()  # before machlab is imported
tracer.instrument_machlab()
from machlab import cli

code = cli.main(["transport-log", "--config", sys.argv[3], "--out", sys.argv[4]])
print(json.dumps({"code": code, "counters": tracer.counters,
                  "spans": sorted({span[2] for span in tracer.spans})}))
"""


def test_traced_transport_round_records_spans_and_velocity_evals(tmp_path):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("n = 32\nt_final = 0.05\n")
    proc = subprocess.run(
        [sys.executable, "-c", TRACED_RUN, str(ROOT / "perfbench"), str(ROOT / "src"),
         str(cfg), str(tmp_path / "out")],
        capture_output=True, text=True, timeout=600,
        env={**os.environ, "OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"},
    )
    assert proc.returncode == 0, proc.stderr
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    assert report["code"] == 0
    # the oracle's point calls at the feet: 384 on this config
    assert report["counters"]["transport.velocity_evals"] == 384
    assert {"spectral.rk4", "transport.solve_transport_oracle"} <= set(report["spans"])


# spectral.fft.* are spans of the numpy transforms, not package names.
# acoustic.complex_lp_norm names no function; ROADMAP item 5 asks the benchmark
# to replace it with a metric for acoustic.free_wave_norms.
_UNBOUND_LAYERS = {"acoustic.complex_lp_norm"}


def test_per_layer_metrics_name_public_package_functions():
    metrics = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    checked = 0
    for metric in metrics:
        layer, _, suffix = metric["name"].rpartition(".")
        if suffix not in ("self_s", "calls", "p50_ms", "tail_ms") \
                or layer == "spectral.fft" or layer in _UNBOUND_LAYERS:
            continue
        module, *path = layer.split(".")
        mod = importlib.import_module(f"machlab.{module}")
        obj = mod
        for part in path:
            assert not part.startswith("_"), layer
            obj = vars(obj).get(part)
            assert obj is not None, f"{metric['name']}: machlab.{module} has no {layer}"
        # the tracer names a span by the qualified name of what it wraps
        assert inspect.isfunction(obj) and obj.__qualname__ == ".".join(path), layer
        assert obj.__module__ == mod.__name__, layer
        checked += 1
    assert checked > 0
