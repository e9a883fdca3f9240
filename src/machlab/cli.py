"""Command line entry point.

    machlab <experiment> --config <path> [--out <dir>] [--threads N]

Exit codes: 0 all summary assertions passed, 1 at least one failed,
2 configuration problem (an experiment's unmet precondition included: too
few eps for its trend fits, a grid too coarse for the first dyadic ring, or
a horizon that max_dt cannot reach within ``spectral.MAX_STEPS`` steps),
3 runtime failure. Exits 0, 1 and 3 all leave config.resolved. A blowup
outside the lifespan-table experiment (where blowup is data) is a runtime
failure that also writes the partial ledgers and a summary whose FAIL line
names the time, the step, and the column that tripped. A step that cannot
advance time, or a run whose CFL steps would need more than
``spectral.MAX_STEPS`` of them, is a runtime failure reported on one stderr
line that names the time and the step; its summary ends on a FAIL line
that says the same.
"""

from __future__ import annotations

import argparse
import sys
import traceback
from typing import Optional, Sequence

from .config import EXPERIMENTS, ConfigError, ExperimentConfig, parse_config, with_overrides
from .experiments import SweepBlowup, run_experiment
from .spectral import StoppedShort

EXIT_PASS = 0
EXIT_ASSERTION = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="machlab",
        description="Pseudo-spectral low-Mach flow laboratory: run one experiment "
                    "and write ledgers, plot data, and a PASS/FAIL summary.",
    )
    parser.add_argument("experiment", choices=EXPERIMENTS,
                        help="which experiment driver to run")
    parser.add_argument("--config", metavar="PATH",
                        help="key=value config file (defaults apply when omitted)")
    parser.add_argument("--out", metavar="DIR",
                        help="output directory (overrides the config file)")
    parser.add_argument("--threads", type=int, metavar="N",
                        help="worker threads for independent solves: sweep members, lifespan "
                             "runs, free-wave phases, transport holdouts, selftest's "
                             "acoustics, splitting and transport runs (overrides the config file)")
    return parser


def _resolve_config(args: argparse.Namespace) -> ExperimentConfig:
    if args.config is not None:
        with open(args.config) as fh:
            cfg = parse_config(fh.read())
    else:
        cfg = ExperimentConfig()
    overrides: dict = {"experiment": args.experiment}
    if args.out is not None:
        overrides["out"] = args.out
    if args.threads is not None:
        overrides["threads"] = args.threads
    return with_overrides(cfg, **overrides)  # validates, the experiment included


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = _resolve_config(args)
    except ConfigError as exc:
        print(f"machlab: config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as exc:
        print(f"machlab: cannot read config: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        passed, lines = run_experiment(cfg)
    except SweepBlowup as exc:
        print(f"machlab: {exc}; partial artifacts in {cfg.out}", file=sys.stderr)
        return EXIT_RUNTIME
    except StoppedShort as exc:
        print(f"machlab: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except Exception:
        traceback.print_exc()
        return EXIT_RUNTIME
    for line in lines:
        print(line)
    print(f"RESULT {'PASS' if passed else 'FAIL'} (artifacts in {cfg.out})")
    return EXIT_PASS if passed else EXIT_ASSERTION


if __name__ == "__main__":
    sys.exit(main())
