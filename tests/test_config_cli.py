"""Config parsing, validation, hashing, and the CLI exit-code contract."""

import importlib.util
import math
import sys
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from machlab import acceptance, cli, config, experiments, spectral
from machlab.config import (
    EXPERIMENTS,
    ConfigError,
    ExperimentConfig,
    canonical_dump,
    config_hash,
    parse_config,
    validate_config,
    with_overrides,
)
from machlab.ledger import RunLedger
from machlab.spectral import Grid, StalledStep

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load_benchmark_workloads():
    spec = importlib.util.spec_from_file_location("perfbench_workloads",
                                                  PERFBENCH / "workloads.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module

GOOD = """\
# demo sweep
experiment = acoustic-decay
N = 64                      # keys are case-insensitive
box_length = 16pi
eps = 0.2, 0.1, 0.05
t_final = 0.5
p = inf
data = random-band:2
"""


class TestParsing:
    def test_happy_path(self):
        cfg = parse_config(GOOD)
        assert cfg.experiment == "acoustic-decay"
        assert cfg.n == 64
        assert cfg.box_length == pytest.approx(16.0 * math.pi, rel=1e-15)
        assert cfg.eps == (0.2, 0.1, 0.05)
        assert cfg.p == math.inf
        assert cfg.data == "random-band:2"
        assert cfg.gamma_bar == pytest.approx(0.2, rel=1e-12)

    def test_pi_suffix_variants(self):
        assert parse_config("box_length = pi\n").box_length == math.pi
        assert parse_config("box_length = 2.5 pi\n").box_length == pytest.approx(2.5 * math.pi)

    def test_experiment_key_is_optional_in_the_file(self):
        cfg = parse_config("n = 64\n")  # the CLI supplies the experiment
        assert cfg.experiment == ""
        with pytest.raises(ConfigError):
            parse_config("experiment = frobnicate\n")

    @pytest.mark.parametrize("text,lineno,fragment", [
        ("n = 64\nwat = 1\n", 2, "unknown key"),
        ("n = 64\nn = 32\n", 2, "duplicate key"),
        ("just words\n", 1, "expected key = value"),
        ("n =\n", 1, "empty value"),
        ("\n# c\nn = abc\n", 3, "bad value"),
    ])
    def test_errors_carry_the_line_number(self, text, lineno, fragment):
        with pytest.raises(ConfigError) as err:
            parse_config(text)
        assert err.value.line == lineno
        assert fragment in str(err.value)
        assert f"line {lineno}:" in str(err.value)


class TestValidation:
    @pytest.mark.parametrize("overrides", [
        {"n": 48},
        {"n": 4},
        {"box_length": -1.0},
        {"eps": ()},
        {"eps": (0.2, 1.5)},
        {"eps": (0.2, 0.2)},
        {"t_final": 0.0},
        {"gamma": 1.0},
        {"data": "vortex-quad"},
        {"amplitude": 0.0},
        {"profile": "cubic"},
        {"cfl": 0.0},
        {"cfl": 1.5},
        {"max_dt": 0.0},
        {"snapshots": 1},
        {"threads": 0},
        {"p": 1.5},
        {"c0": 0.0},
        {"t_cap": 0.0},
        {"blowup_factor": 1.0},
    ])
    def test_range_checks(self, overrides):
        with pytest.raises(ConfigError):
            with_overrides(ExperimentConfig(), **overrides)

    def test_defaults_validate_without_an_experiment(self):
        validate_config(ExperimentConfig(), require_experiment=False)
        with pytest.raises(ConfigError, match="experiment"):
            validate_config(ExperimentConfig())

    def test_named_profiles_are_accepted(self):
        for spec in ("from-data", "constant", "exp:1", "power:2"):
            validate_config(ExperimentConfig(profile=spec), require_experiment=False)

    @pytest.mark.parametrize("key", ["t_final", "t_cap", "max_dt", "amplitude", "box_length",
                                     "gamma", "c0", "blowup_factor"])
    def test_non_finite_values_are_rejected_by_key(self, key):
        # parsed only: a config like this must never reach a solver
        for value in ("inf", "nan"):
            with pytest.raises(ConfigError, match=key):
                parse_config(f"{key} = {value}\n")

    @pytest.mark.parametrize("experiment, overrides, fragments", [
        ("acoustic-decay", {"eps": (0.2, 0.1)}, ["eps needs at least 3 values"]),
        ("selftest", {"eps": (0.2, 0.1)}, ["eps needs at least 3 values"]),
        ("incompressible-limit", {"eps": (0.2,)}, ["eps needs at least 2 values"]),
        ("strichartz-sweep", {"eps": (0.1,)}, ["eps needs at least 2 values"]),
        ("acoustic-decay", {"n": 8}, ["n = 8", "box_length", "first dyadic ring"]),
        ("transport-log", {"n": 16}, ["n = 16", "box_length", "first dyadic ring"]),
        ("lifespan-table", {"n": 32, "box_length": 200.0}, ["n = 32", "box_length = 200"]),
    ])
    def test_experiment_preconditions_name_their_key(self, experiment, overrides, fragments):
        with pytest.raises(ConfigError) as err:
            with_overrides(ExperimentConfig(), experiment=experiment, **overrides)
        for text in fragments:
            assert text in str(err.value)

    def test_defaults_and_the_benchmark_workloads_are_accepted(self):
        for experiment in EXPERIMENTS:
            with_overrides(ExperimentConfig(), experiment=experiment)
        # no dyadic block is measured by the free-wave sweep: any grid
        with_overrides(ExperimentConfig(), experiment="strichartz-sweep", n=8, eps=(0.2, 0.1))
        workloads = _load_benchmark_workloads()
        for w in workloads.WORKLOADS.values():
            cfg = parse_config(workloads.config_text(w.spec(seed=1, nproc=2)))
            validate_config(with_overrides(cfg, experiment=w.experiment))

    @pytest.mark.parametrize("n", [8, 16, 32])
    def test_dealias_rule_accepts_exactly_the_grids_the_partition_builds_on(self, n):
        edge = 2.0 * math.pi * n / (3.0 * 0.75)  # box_length that puts the cutoff at 0.75
        for box in (16.0 * math.pi, 8.0 * math.pi, edge, math.nextafter(edge, 0.0),
                    math.nextafter(edge, math.inf)):
            try:
                Grid(n, box).blocks
                builds = True
            except ValueError:
                builds = False
            try:
                with_overrides(ExperimentConfig(), experiment="transport-log", n=n,
                               box_length=box)
                accepted = True
            except ConfigError:
                accepted = False
            assert accepted == builds, (n, box)

    @pytest.mark.parametrize("experiment, overrides, fragments", [
        ("acoustic-decay", {"max_dt": 1e-300}, ["max_dt = 1e-300", "t_final = 1"]),
        ("transport-log", {"t_final": 1e300}, ["max_dt = 0.02", "t_final = 1e+300"]),
        ("lifespan-table", {"t_cap": 1e300}, ["max_dt = 0.02", "t_cap = 1e+300"]),
        ("selftest", {"max_dt": 1e-300}, ["max_dt = 1e-300", "t_final = 1"]),
        ("selftest", {"t_final": 1e300}, ["max_dt = 0.02", "t_final = 1e+300"]),
        ("selftest", {"t_cap": 1e300}, ["max_dt = 0.02", "t_cap = 1e+300"]),
        # the acceptance checks step their own horizon at max_dt, whatever t_final and t_cap
        ("selftest", {"max_dt": 1e-7, "t_final": 0.01, "t_cap": 0.01},
         ["max_dt = 1e-07", "the acceptance horizon = 1"]),
    ])
    def test_configs_that_cannot_finish_are_rejected_by_key(self, experiment, overrides,
                                                            fragments):
        with pytest.raises(ConfigError, match="ceiling") as err:
            with_overrides(ExperimentConfig(), experiment=experiment, **overrides)
        for text in fragments:
            assert text in str(err.value)

    def test_the_step_ceiling_reads_only_the_horizons_an_experiment_steps(self):
        # strichartz-sweep takes no time steps; the other experiments read one horizon
        for overrides in ({"max_dt": 1e-300}, {"t_final": 1e300}, {"t_cap": 1e300}):
            with_overrides(ExperimentConfig(), experiment="strichartz-sweep", **overrides)
        with_overrides(ExperimentConfig(), experiment="lifespan-table", t_final=1e300)
        with_overrides(ExperimentConfig(), experiment="acoustic-decay", t_cap=1e300)
        # the shipped defaults sit far below the ceiling: at most 200 steps
        d = ExperimentConfig()
        assert max(d.t_final, d.t_cap, config.SELFTEST_FIXED_HORIZON) / d.max_dt <= 200
        assert 200 * 1000 <= config.MAX_STEPS
        assert config.SELFTEST_FIXED_HORIZON >= max(acceptance.LINEAR_T, acceptance.TRANSPORT_T)

    def test_working_set_charges_final_states_not_one_state_per_snapshot(self):
        # a sweep member keeps its state at t_final only; the reference keeps
        # one vorticity plane per snapshot time, whatever the eps count
        plane = 8 * 256 * 256

        def estimate(eps, snapshots):
            return config._working_set_bytes(ExperimentConfig(
                experiment="incompressible-limit", eps=eps, snapshots=snapshots))

        two, four = (0.2, 0.1), (0.2, 0.1, 0.05, 0.025)
        for eps in (two, four):
            assert estimate(eps, 21) - estimate(eps, 6) == 15 * plane
        assert estimate(four, 6) - estimate(two, 6) == 2 * 3 * plane
        assert estimate(four, 6) == (80 + 4 * 3 + 6) * plane

    def test_grid_beyond_physical_memory_is_rejected(self):
        # parsed only: n = 2^20 would need petabytes of working set
        with pytest.raises(ConfigError, match="n = 1048576"):
            parse_config("n = 1048576\n")
        with pytest.raises(ConfigError, match="t_final"):
            parse_config("t_final = inf\nt_cap = inf\nmax_dt = inf\nn = 1048576\n")


class TestHashing:
    def test_hash_ignores_where_artifacts_land(self):
        a = ExperimentConfig(experiment="selftest", out="here", threads=1)
        b = ExperimentConfig(experiment="selftest", out="there", threads=8)
        assert canonical_dump(a) == canonical_dump(b)
        assert config_hash(a) == config_hash(b)

    def test_hash_tracks_what_is_computed(self):
        a = ExperimentConfig(experiment="selftest", seed=0)
        b = ExperimentConfig(experiment="selftest", seed=1)
        assert config_hash(a) != config_hash(b)

    def test_hash_shape_and_dump_format(self):
        cfg = ExperimentConfig()
        h = config_hash(cfg)
        assert len(h) == 12 and int(h, 16) >= 0
        dump = canonical_dump(cfg)
        assert "n = 256" in dump
        assert "out" not in dump and "threads" not in dump
        assert dump.endswith("\n")


_finite = dict(allow_nan=False, allow_infinity=False)
_configs = st.builds(
    ExperimentConfig,
    experiment=st.sampled_from(EXPERIMENTS),
    n=st.sampled_from([8, 16, 32, 64, 128, 256, 512]),
    box_length=st.floats(1e-3, 1e3, **_finite),
    eps=st.lists(st.floats(1e-6, 1.0, **_finite), min_size=1, max_size=5,
                 unique=True).map(tuple),
    t_final=st.floats(1e-6, 1e3, **_finite),
    gamma=st.floats(1.0, 3.0, exclude_min=True, **_finite),
    data=st.sampled_from(["taylor-green-ill", "vortex-pair-ill", "random-band",
                          "random-band:1.5", "well-prepared-contrast"]),
    amplitude=st.floats(1e-6, 1e3, **_finite),
    seed=st.integers(0, 2**31),
    profile=st.sampled_from(["from-data", "constant", "exp:1", "power:2.5"]),
    cfl=st.floats(1e-3, 1.0, **_finite),
    max_dt=st.floats(1e-6, 1.0, **_finite),
    snapshots=st.integers(2, 50),
    p=st.one_of(st.just(math.inf), st.floats(2.0, 1e3, **_finite)),
    c0=st.floats(1e-3, 1e3, **_finite),
    t_cap=st.floats(1e-3, 1e3, **_finite),
    blowup_factor=st.floats(1.0, 1e3, exclude_min=True, **_finite),
)


@settings(max_examples=200, deadline=None)
@given(cfg=_configs)
def test_resolved_config_replays(cfg):
    """Every accepted config.resolved parses back to the same config and the
    same hash; only the volatile output path and thread count fall back to
    defaults."""
    try:
        validate_config(cfg)
    except ConfigError:
        assume(False)  # an experiment's precondition rejects it: nothing to replay
    back = parse_config(canonical_dump(cfg))
    assert back == replace(cfg, out=ExperimentConfig.out, threads=ExperimentConfig.threads)
    assert config_hash(back) == config_hash(cfg)


def _write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


class TestCli:
    def test_passing_experiment_exits_zero(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "n = 32\neps = 0.2, 0.1, 0.05\n")
        code = cli.main(["strichartz-sweep", "--config", cfg,
                         "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 0
        assert "RESULT PASS" in out
        assert (tmp_path / "out" / "summary.txt").exists()
        assert (tmp_path / "out" / "config.resolved").exists()

    def test_failed_assertion_exits_one(self, tmp_path, capsys):
        # amplitude far too small to blow up inside the cap: the blowup check
        # honestly fails and the driver reports FAIL, not an exception
        cfg = _write_cfg(tmp_path, "n = 32\neps = 0.5, 0.25\namplitude = 0.05\n"
                                   "t_cap = 0.2\nmax_dt = 0.02\n")
        code = cli.main(["lifespan-table", "--config", cfg,
                         "--out", str(tmp_path / "out")])
        out = capsys.readouterr().out
        assert code == 1
        assert "RESULT FAIL" in out
        assert "stayed below the gradient threshold" in out

    def test_bad_config_exits_two(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "frequency = 11\n")
        assert cli.main(["selftest", "--config", cfg]) == 2
        assert "config error" in capsys.readouterr().err
        assert cli.main(["selftest", "--config", str(tmp_path / "missing.cfg")]) == 2

    def test_unmet_experiment_precondition_exits_two(self, tmp_path, capsys):
        # a two-member sweep cannot support the decay-trend fit
        cfg = _write_cfg(tmp_path, "n = 32\neps = 0.2, 0.1\nt_final = 0.1\nmax_dt = 0.05\n")
        code = cli.main(["acoustic-decay", "--config", cfg,
                         "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("machlab: config error: eps needs at least 3 values")
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()
        # a grid too coarse for the first dyadic ring
        cfg = _write_cfg(tmp_path, "n = 8\n")
        assert cli.main(["acoustic-decay", "--config", cfg, "--out", str(tmp_path / "out")]) == 2
        assert "n = 8 and box_length = 50.2655" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_config_that_cannot_finish_exits_two(self, tmp_path, capsys):
        cfg = _write_cfg(tmp_path, "max_dt = 1e-300\n")
        code = cli.main(["lifespan-table", "--config", cfg, "--out", str(tmp_path / "out")])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("machlab: config error: max_dt = 1e-300")
        assert "t_cap = 4" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_blowup_exits_three_after_writing_partial_artifacts(self, tmp_path, capsys):
        # members run independently, so eps = 0.5 trips where it does alone
        cfg = _write_cfg(tmp_path, "n = 64\neps = 0.5, 0.25, 0.125\namplitude = 8\nt_final = 4\n")
        out = tmp_path / "out"
        assert cli.main(["acoustic-decay", "--config", cfg, "--out", str(out)]) == 3
        assert "eps=0.5: blowup at t=2.04787" in capsys.readouterr().err
        resolved = parse_config((out / "config.resolved").read_text())
        assert resolved.amplitude == 8.0 and resolved.eps == (0.5, 0.25, 0.125)
        summary = (out / "summary.txt").read_text().splitlines()
        assert summary[0] == f"machlab summary v1 config={config_hash(resolved)}"
        fail = summary[1]
        assert fail.startswith("FAIL run.no_blowup[eps=0.5]: blew up at t=2.04787, step ")
        assert "column grad_v_linf" in fail
        assert summary[-1] == "RESULT FAIL"
        ledger = RunLedger.from_csv(out / "ledger_eps_0p5.csv")
        step = int(fail.split("step ")[1].split(",")[0])
        assert len(ledger) == step + 1
        assert ledger.column("grad_v_linf")[-1] > 1e4
        assert ledger.time_array()[-1] == pytest.approx(2.04787, rel=1e-5)

    def test_stalled_step_exits_three_with_one_line(self, tmp_path, monkeypatch, capsys):
        def stalled(cfg):
            raise StalledStep(0.25, 7, 0.0)

        monkeypatch.setattr(cli, "run_experiment", stalled)
        cfg = _write_cfg(tmp_path, "n = 32\n")
        assert cli.main(["selftest", "--config", cfg]) == cli.EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err == "machlab: step 7 does not advance time from t=0.25 (dt=0.0)\n"

    def test_stalled_driver_exits_three_leaving_a_replayable_config(self, tmp_path,
                                                                    monkeypatch, capsys):
        def stalled(config, summary):
            summary.check("before.the.stall", True)
            raise StalledStep(0.25, 7, 0.0)

        monkeypatch.setitem(experiments._DRIVERS, "strichartz-sweep", stalled)
        text = "n = 32\neps = 0.2, 0.1\namplitude = 3\n"
        out = tmp_path / "out"
        code = cli.main(["strichartz-sweep", "--config", _write_cfg(tmp_path, text),
                         "--out", str(out)])
        assert code == cli.EXIT_RUNTIME
        assert capsys.readouterr().err.startswith("machlab: step 7 does not advance time")
        resolved = parse_config((out / "config.resolved").read_text())
        want = with_overrides(parse_config(text), experiment="strichartz-sweep")
        assert config_hash(resolved) == config_hash(want)
        assert (out / "summary.txt").read_text().splitlines() == [
            f"machlab summary v1 config={config_hash(want)}",
            "PASS before.the.stall",
            "FAIL run.reaches_end: StalledStep: step 7 does not advance time from t=0.25 "
            "(dt=0.0)",
            "RESULT FAIL",
        ]

    def test_spent_step_budget_exits_three_with_a_summary_fail_line(self, tmp_path,
                                                                     monkeypatch, capsys):
        # five steps of max_dt reach t_final; a budget of three stops every member
        monkeypatch.setattr(spectral, "MAX_STEPS", 3)
        cfg = _write_cfg(tmp_path, "n = 32\neps = 0.2, 0.1, 0.05\nt_final = 0.1\n"
                                   "max_dt = 0.02\n")
        out = tmp_path / "out"
        assert cli.main(["acoustic-decay", "--config", cfg, "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("machlab: step budget spent: 3 steps reach only t=0.06")
        assert err.count("\n") == 1 and "Traceback" not in err
        summary = (out / "summary.txt").read_text().splitlines()
        resolved = parse_config((out / "config.resolved").read_text())
        assert summary[0] == f"machlab summary v1 config={config_hash(resolved)}"
        assert summary[1].startswith("FAIL run.reaches_end: StepBudgetSpent: step budget "
                                     "spent: 3 steps reach only t=0.06")
        assert summary[1].endswith(" of t_final=0.1")
        assert summary[2:] == ["RESULT FAIL"]
        # every member ran to its stop, and its ledger was written
        for tag in ("0p2", "0p1", "0p05"):
            ledger = RunLedger.from_csv(out / f"ledger_eps_{tag}.csv")
            assert list(ledger.time_array()) == pytest.approx([0.0, 0.02, 0.04, 0.06], abs=1e-15)
            assert ledger.time_array()[-1] == 0.06

    def test_stopped_lifespan_run_exits_three_after_writing_its_ledger(self, tmp_path,
                                                                        monkeypatch, capsys):
        # a budget of three steps stops the first eps long before its blowup
        monkeypatch.setattr(spectral, "MAX_STEPS", 3)
        cfg = _write_cfg(tmp_path, "n = 32\neps = 1, 0.5, 0.25\namplitude = 8\nt_cap = 2\n"
                                   "blowup_factor = 2\n")
        outs = [tmp_path / f"threads{k}" for k in (1, 2)]
        for k, out in zip((1, 2), outs):
            code = cli.main(["lifespan-table", "--config", cfg, "--out", str(out),
                             "--threads", str(k)])
            assert code == cli.EXIT_RUNTIME
            err = capsys.readouterr().err
            assert err.startswith("machlab: step budget spent: 3 steps reach only t=")
            assert err.count("\n") == 1 and "Traceback" not in err
        out = outs[0]
        names = sorted(p.name for p in out.iterdir())
        assert names == ["config.resolved", "ledger_eps_1.csv", "summary.txt"]
        assert sorted(p.name for p in outs[1].iterdir()) == names
        for name in names:
            assert (out / name).read_bytes() == (outs[1] / name).read_bytes()
        summary = (out / "summary.txt").read_text().splitlines()
        resolved = parse_config((out / "config.resolved").read_text())
        assert summary[0] == f"machlab summary v1 config={config_hash(resolved)}"
        assert summary[1].startswith("FAIL run.reaches_end: StepBudgetSpent: step budget "
                                     "spent: 3 steps reach only t=")
        assert summary[2:] == ["RESULT FAIL"]
        # the stopped run's rows: the initial state and three steps, blowup columns only
        ledger = RunLedger.from_csv(out / "ledger_eps_1.csv")
        assert ledger.columns == ["grad_v_linf", "vc_b2"]
        assert len(ledger) == 4 and ledger.time_array()[0] == 0.0
        t_stop = summary[1].split("reach only t=")[1].split(" of")[0]
        assert repr(ledger.times[-1]) == t_stop

    def test_unknown_experiment_is_rejected_by_the_parser(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2
