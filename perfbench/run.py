"""machlab benchmark: run one workload for a fixed time and print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. A run repeats whole rounds of one workload.
A round writes the workload's config from the seed, runs the CLI experiment
in a fresh process with tracing off, checks its artifacts, and replays its
``config.resolved``. Rounds start while the next one is expected to end
within ``--seconds``; at least one round runs. End-to-end metrics are medians
over the rounds (``setup_s`` also over a few set-up-only launches).

The host's speed drifts by a factor of up to 1.8 within seconds to minutes,
so ``setup_s`` and ``run_s`` are scaled by the host's speed at the time: the
workload process times a fixed numpy kernel in a burst right after set-up
and about every eighth of a second while the experiment runs
(``child.HostSpeed``). Both are reported at the speed at which that kernel
takes ``SAMPLE_REF_S``. The wall times and the samples stay in the record.

With ``--trace 1`` the run then adds one traced round in a separate process
and reports the per-layer metrics from its spans, with ``trace.overhead_s``
the traced ``run_s`` minus the untraced median.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A full record of the
run goes to ``perfbench/results/``; the rounds' artifacts stay under
``perfbench/runs/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, CheckFailed, config_text, require

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_PROBES = 5
# child.HostSpeed kernel time that setup_s and run_s are scaled to; here it took 6 to 12 ms
SAMPLE_REF_S = 0.0075
CHILD_TIMEOUT_S = 150
END_TO_END = (("setup_s", "s"), ("run_s", "s"), ("peak_rss_mb", "MB"))
# one process, no BLAS thread pool: the sweep pool is the only parallelism
CHILD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
REPLAY = "replay.config_resolved"


def nproc() -> int:
    return len(os.sched_getaffinity(0))


class Runner:
    def __init__(self, workload, seed: int, base: Path):
        self.workload = workload
        self.spec = workload.spec(seed, nproc())
        self.base = base
        shutil.rmtree(self.base, ignore_errors=True)
        self.base.mkdir(parents=True)
        self.config_path = self.base / "workload.cfg"
        self.config_path.write_text(config_text(self.spec))
        self.env = {k: v for k, v in os.environ.items() if k != "MACHLAB_THREADS"}
        self.env.update(CHILD_ENV)
        self.ops: list[dict] = []

    def launch(self, tag: str, setup_only: bool = False, spans: Path | None = None) -> dict:
        """One workload process; returns its report plus exit code and output."""
        out = self.base / tag
        shutil.rmtree(out, ignore_errors=True)
        report = self.base / f"{tag}.report.json"
        report.unlink(missing_ok=True)
        cmd = [sys.executable, str(HERE / "child.py"), "--report", str(report),
               "--experiment", self.workload.experiment, "--config", str(self.config_path),
               "--out", str(out)]
        if setup_only:
            cmd.append("--setup-only")
        if spans is not None:
            cmd += ["--spans", str(spans)]
        cmd += ["--launch", str(time.monotonic_ns())]
        try:
            proc = subprocess.run(cmd, env=self.env, capture_output=True, text=True,
                                  timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            return {"out": out, "exit_code": None, "stdout": "", "stderr": "timed out"}
        result = json.loads(report.read_text()) if report.exists() else {}
        result.update(out=out, exit_code=proc.returncode, stdout=proc.stdout,
                      stderr=proc.stderr)
        return result

    def op(self, name: str, fn) -> None:
        try:
            detail, ok = fn(), True
        except CheckFailed as exc:
            detail, ok = str(exc), False
        except (OSError, ValueError, KeyError, IndexError) as exc:
            detail, ok = f"{type(exc).__name__}: {exc}", False
        self.ops.append({"name": name, "ok": ok, "detail": detail})

    def round(self, tag: str, spans: Path | None = None) -> dict:
        res = self.launch(tag, spans=spans)
        out = res["out"]

        def experiment():
            tail = (res["stdout"] + res["stderr"]).strip().splitlines()[-1:]
            require(res["exit_code"] == 0 and "RESULT PASS" in res["stdout"],
                    f"exit {res['exit_code']}: {' '.join(tail)}")
            return "exit 0, RESULT PASS"

        self.op(f"experiment.{self.workload.experiment}", experiment)
        for name, check in self.workload.checks:
            self.op(name, lambda: check(out, self.spec))
        self.op(REPLAY, lambda: replay(out))
        return res


def replay(out: Path) -> str:
    """config.resolved must parse back to the hash the run recorded."""
    from machlab.config import ConfigError, config_hash, parse_config

    with open(out / "summary.txt") as fh:
        recorded = fh.readline().split("config=", 1)[1].strip()
    try:
        parsed = parse_config((out / "config.resolved").read_text())
    except ConfigError as exc:
        raise CheckFailed(f"parse_config(config.resolved): {exc}") from None
    got = config_hash(parsed)
    require(got == recorded, f"replayed hash {got} != recorded {recorded}")
    return f"hash {got} replays"


def at_reference_speed(seconds: float, samples: list[float]) -> float:
    """``seconds`` measured while the speed kernel took ``samples``, rescaled
    to a host on which it takes ``SAMPLE_REF_S``."""
    return seconds * SAMPLE_REF_S / statistics.fmean(samples)


def setup_sample(launch: dict) -> float:
    return at_reference_speed(launch["setup_s"], launch["setup_samples_s"])


def run_sample(launch: dict) -> float:
    return at_reference_speed(launch["run_s"], launch["host_samples_s"])


def artifact_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.rglob("*") if p.is_file())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "machlab" / "__init__.py").is_file():
        print(f"perfbench: no machlab sources under {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    runner = Runner(WORKLOADS[args.workload], args.seed,
                    HERE / "runs" / f"{args.workload}-seed{args.seed}-trace{args.trace}")
    start = time.monotonic()
    setups = []
    for i in range(SETUP_PROBES):
        probe = runner.launch(f"setup{i}", setup_only=True)
        if probe["exit_code"] != 0:
            print(f"perfbench: set-up failed: {probe['stderr'].strip()}", file=sys.stderr)
            return 1
        setups.append(probe)

    rounds, walls = [], []
    while True:
        t0 = time.monotonic()
        res = runner.round(f"round{len(rounds)}")
        walls.append(time.monotonic() - t0)
        rounds.append(res)
        if time.monotonic() - start + max(walls) > args.seconds:
            break
    ran = [r for r in rounds if "run_s" in r]
    samples = {"setup_s": [setup_sample(r) for r in setups + ran],
               "run_s": [run_sample(r) for r in ran],
               "peak_rss_mb": [r["peak_rss_mb"] for r in ran],
               "wall_setup_s": [r["setup_s"] for r in setups + ran],
               "wall_run_s": [r["run_s"] for r in ran],
               "setup_sample_mean_s": [statistics.fmean(r["setup_samples_s"])
                                       for r in setups + ran],
               "cpu_s": [r["cpu_s"] for r in ran],
               "host_sample_mean_s": [statistics.fmean(r["host_samples_s"]) for r in ran],
               "host_sample_count": [len(r["host_samples_s"]) for r in ran]}
    medians = {k: statistics.median(v) for k, v in samples.items()
               if k in ("setup_s", "run_s", "peak_rss_mb") and v}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "config": runner.spec, "threads": runner.spec["threads"],
        "nproc": nproc(), "machine": platform.machine(), "python": platform.python_version(),
        "numpy": _version("numpy"), "scipy": _version("scipy"), "env": CHILD_ENV,
        "rounds": len(rounds), "samples": samples,
    }
    if args.trace:
        spans_path = runner.base / "spans.json"
        traced = runner.round("traced", spans=spans_path)
        if not spans_path.exists():
            print(f"perfbench: traced round wrote no spans: {traced['stderr'].strip()}",
                  file=sys.stderr)
            return 1
        from tracer import PER_LAYER, layer_metrics

        layer, details = layer_metrics(json.loads(spans_path.read_text()))
        layer["experiments.artifact_bytes"] = artifact_bytes(traced["out"])
        traced_run_s = run_sample(traced) if "run_s" in traced else float("nan")
        layer["trace.overhead_s"] = traced_run_s - medians.get("run_s", float("nan"))
        metrics = {name: {"value": layer[name], "unit": unit} for name, unit in PER_LAYER}
        record.update(traced_run_s=traced_run_s, traced_wall_run_s=traced.get("run_s"),
                      trace_details=details)
    else:
        metrics = {name: {"value": medians.get(name, float("nan")), "unit": unit}
                   for name, unit in END_TO_END}

    correct = all(o["ok"] for o in runner.ops if o["name"] != REPLAY)
    failed = sum(not o["ok"] for o in runner.ops)
    tally: dict = {}
    for o in runner.ops:
        t = tally.setdefault(o["name"], {"passed": 0, "attempted": 0, "detail": ""})
        t["attempted"] += 1
        t["passed"] += o["ok"]
        if not o["ok"] or t["passed"] == t["attempted"]:
            t["detail"] = o["detail"]
    record.update(correct=correct, attempted=len(runner.ops), failed=failed, metrics=metrics,
                  operations=tally)
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str))

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"nproc={record['nproc']} threads={record['threads']} rounds={len(rounds)}")
    for name, t in tally.items():
        verdict = "PASS" if t["passed"] == t["attempted"] else "FAIL"
        print(f"  {verdict} {name} ({t['passed']}/{t['attempted']}): {t['detail']}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(f"  operations attempted={len(runner.ops)} failed={failed}")
    print(json.dumps({"correct": correct, "attempted": len(runner.ops), "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _version(module: str) -> str:
    return __import__(module).__version__


if __name__ == "__main__":
    sys.exit(main())
