"""One workload process: set up machlab, run one CLI experiment, report.

    python3 perfbench/child.py --launch NS --report PATH [--spans PATH]
        [--setup-only] --experiment NAME --config PATH --out DIR

``--launch`` is the CLOCK_MONOTONIC time (ns) at which the parent started
this process, so ``setup_s`` covers interpreter start, importing machlab and
parsing and validating the config. ``run_s`` is the wall time of
``machlab.cli.main`` on the same arguments, until its artifacts are written.
With ``--spans`` the process is traced (see ``tracer.py``) and the spans are
written to that path after the experiment returns.

``HostSpeed`` samples how fast the host is at that moment by timing a small
fixed numpy kernel: ``SETUP_SAMPLES`` times right after set-up, and while
the experiment runs whenever a timer interrupts the main thread. The parent
scales ``setup_s`` and ``run_s`` by the samples' mean, which takes the
host's drift out of them.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import signal
import sys
from time import monotonic_ns, perf_counter, thread_time

import numpy as np

# bound before the tracer wraps numpy.fft, so that the samples add no transforms
_fft2, _ifft2 = np.fft.fft2, np.fft.ifft2

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")

FIRST_SAMPLE_S = 0.125
SAMPLE_SPACING = 16
SETUP_SAMPLES = 8
SAMPLE_N = 256
SAMPLE_REPS = 2


class HostSpeed:
    """Samples the host's speed, in a burst or during a run.

    A sample is the main thread's processor time for ``SAMPLE_REPS`` 2-D FFT
    round trips with a spectral multiply and array arithmetic at
    n = ``SAMPLE_N`` (the solver's kind of work, written apart from
    machlab). That time follows the host's slow and fast stretches,
    and it leaves out any wait for the CPU while the sweep pool's threads
    run.

    Inside ``with``, SIGALRM takes the first sample after ``FIRST_SAMPLE_S``
    and each next one ``SAMPLE_SPACING`` times the last sample's time later.
    The gaps stretch as the host slows, and so does the work done in them,
    so the samples fall at about equal amounts of the experiment's work and
    take at most 1/17 of the run at any host speed. With a tracer the kernel
    is a ``host.sample`` span, so that the layers' self times leave it out.
    """

    def __init__(self, tracer=None) -> None:
        self.tracer = tracer
        self.samples: list[float] = []
        rng = np.random.default_rng(0)
        self._field = rng.standard_normal((SAMPLE_N, SAMPLE_N))
        self._phase = np.exp(1j * rng.standard_normal((SAMPLE_N, SAMPLE_N)))
        self._kernel()  # first touch of the arrays and the FFT plans

    def _kernel(self) -> None:
        x = self._field
        for _ in range(SAMPLE_REPS):
            x = _ifft2(_fft2(x) * self._phase).real
            x = x / (1.0 + np.abs(x).max()) + self._field

    def _timed(self) -> float:
        t0 = thread_time()
        if self.tracer is None:
            self._kernel()
        else:
            self.tracer.call("host.sample", self._kernel, (), {})
        return thread_time() - t0

    def _sample(self, signum, frame) -> None:
        taken = self._timed()
        self.samples.append(taken)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_SPACING * taken)

    def burst(self, count: int) -> list[float]:
        return [self._timed() for _ in range(count)]

    def __enter__(self) -> "HostSpeed":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, FIRST_SAMPLE_S)
        return self

    def __exit__(self, *exc) -> None:
        # ignore first: a sample still pending would re-arm the timer, and a
        # SIGALRM that meets the default action ends the process
        signal.signal(signal.SIGALRM, signal.SIG_IGN)
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--launch", type=int, required=True)
    ap.add_argument("--report", required=True)
    ap.add_argument("--spans")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--experiment", required=True)
    ap.add_argument("--config", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()
    sys.path.insert(0, SRC)

    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.instrument_fft()
    from machlab import cli, config

    if tracer is not None:
        tracer.instrument_machlab()
    with open(args.config) as fh:
        cfg = config.parse_config(fh.read())
    config.validate_config(config.with_overrides(cfg, experiment=args.experiment, out=args.out))
    report = {"setup_s": (monotonic_ns() - args.launch) / 1e9}
    host = HostSpeed(tracer)
    report["setup_samples_s"] = host.burst(SETUP_SAMPLES)

    code = 0
    if not args.setup_only:
        before = resource.getrusage(resource.RUSAGE_SELF)
        with host:
            t0 = perf_counter()
            code = cli.main([args.experiment, "--config", args.config, "--out", args.out])
            report["run_s"] = perf_counter() - t0
        report["host_samples_s"] = host.samples
        sys.stdout.flush()
        usage = resource.getrusage(resource.RUSAGE_SELF)
        report["peak_rss_mb"] = usage.ru_maxrss * 1024 / 1e6  # ru_maxrss is in KiB on Linux
        # processor time of all threads, which time stolen by the host does not enter
        report["cpu_s"] = (usage.ru_utime + usage.ru_stime) - (before.ru_utime + before.ru_stime)
        if tracer is not None:
            tracer.dump(args.spans)
    report["exit_code"] = code
    with open(args.report, "w") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
