"""RunLedger: accumulators, windowed norms, and the CSV round trip."""

import math

import numpy as np
import pytest

from machlab.ledger import (
    COMPRESSIBLE_COLUMNS,
    INCOMPRESSIBLE_COLUMNS,
    TRANSPORT_COLUMNS,
    RunLedger,
)


def test_append_and_read_back():
    led = RunLedger(["a", "b"])
    led.append(0.0, a=1.0, b=2.0)
    led.append(0.5, a=3.0, b=4.0)
    assert len(led) == 2
    assert led.columns == ["a", "b"]
    assert np.array_equal(led.time_array(), [0.0, 0.5])
    assert np.array_equal(led.column("a"), [1.0, 3.0])


def test_time_column_is_implicit():
    with pytest.raises(ValueError, match="implicit"):
        RunLedger(["t", "a"])


def test_accumulator_needs_its_source():
    with pytest.raises(ValueError, match="no source"):
        RunLedger(["int_a"])


def test_time_must_be_nondecreasing():
    led = RunLedger(["a"])
    led.append(1.0, a=0.0)
    led.append(1.0, a=0.0)  # repeats are fine (restart rows)
    with pytest.raises(ValueError, match="nondecreasing"):
        led.append(0.5, a=0.0)


def test_missing_and_unknown_values_raise():
    led = RunLedger(["a", "b"])
    with pytest.raises(ValueError, match="missing value"):
        led.append(0.0, a=1.0)
    with pytest.raises(ValueError, match="unknown columns"):
        led.append(0.0, a=1.0, b=1.0, c=1.0)


def test_trapezoidal_accumulator_is_exact_on_linear_data():
    led = RunLedger(["f", "int_f"])
    for t in np.linspace(0.0, 1.0, 11):
        led.append(t, f=2.0 * t)
    # int 2t dt = t^2, exact under the trapezoidal rule
    assert led.column("int_f") == pytest.approx(led.time_array() ** 2, abs=1e-15)


def test_accumulator_value_is_not_accepted_from_the_caller():
    led = RunLedger(["f", "int_f"])
    with pytest.raises(ValueError, match="derived"):
        led.append(0.0, f=1.0, int_f=5.0)


def test_window_norms_closed_forms():
    led = RunLedger(["f"])
    for t in np.linspace(0.0, 2.0, 21):
        led.append(t, f=3.0)
    assert led.window_l1("f", 2.0) == pytest.approx(6.0, rel=1e-12)
    assert led.window_l1("f", 1.0) == pytest.approx(3.0, rel=1e-12)
    assert led.window_mixed_norm("f", 4.0, 1.0) == pytest.approx(3.0, rel=1e-12)
    assert led.window_mixed_norm("f", math.inf, 0.5) == 3.0
    with pytest.raises(ValueError, match="fewer than two"):
        led.window_l1("f", 0.01)


def test_csv_round_trip_is_bit_identical(tmp_path):
    led = RunLedger(["f", "int_f"], run_id="demo", config_hash="abc123")
    rng = np.random.default_rng(0)
    t = 0.0
    for _ in range(7):
        led.append(t, f=rng.uniform())
        t += rng.uniform()
    path = tmp_path / "run.csv"
    led.to_csv(path)
    back = RunLedger.from_csv(path)
    assert back.run_id == "demo" and back.config_hash == "abc123"
    assert back.columns == led.columns
    assert back.times == led.times
    for c in led.columns:
        assert np.array_equal(back.column(c), led.column(c))
    # a rewrite of the parsed ledger reproduces the file byte for byte
    path2 = tmp_path / "run2.csv"
    back.to_csv(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_from_csv_rejects_foreign_files(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("t,a\n0,1\n")
    with pytest.raises(ValueError, match="not a machlab ledger"):
        RunLedger.from_csv(bad)
    worse = tmp_path / "worse.csv"
    worse.write_text("# machlab ledger v1 run= config=\na,t\n")
    with pytest.raises(ValueError, match="time column"):
        RunLedger.from_csv(worse)


def test_shared_column_sets_are_self_consistent():
    for cols in (COMPRESSIBLE_COLUMNS, INCOMPRESSIBLE_COLUMNS, TRANSPORT_COLUMNS):
        led = RunLedger(cols)  # accumulator sources all present
        assert len(set(cols)) == len(cols)
