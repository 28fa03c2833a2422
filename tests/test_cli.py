"""Command-line surface: config files, env overrides, CSV/SVG, exit codes."""

import io
import os
import warnings
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from pulsepair import fit_fringe
from pulsepair.cli import (
    CONFIG_KEYS,
    CSV_HEADER,
    DEFAULT_CONFIG,
    MAX_SCAN_POINTS,
    build_experiment,
    env_overrides,
    fig3_experiment,
    load_scan_csv,
    parse_config_text,
    run_command,
    run_scan,
    write_scan_csv,
)

GOOD_CONFIG = """
# two-crystal demo configuration
pump_angle_deg = 45
gain_up = 1.0
gain_down = 0.9
relative_phase_deg = 0
overlap_mu = 0.95
mean_pairs_per_pulse = 0.01
efficiency1 = 0.6
efficiency2 = 0.6
background_prob1 = 0.001
background_prob2 = 0.001
n_pulses = 50000
seed = 777
workers = 1
angle_convention = standard
"""


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    code = run_command(argv, out=out, err=err)
    return code, out.getvalue(), err.getvalue()


# --- config handling ---------------------------------------------------------


def test_parse_config_text_roundtrip():
    values = parse_config_text(GOOD_CONFIG)
    assert values["gain_down"] == 0.9
    assert values["n_pulses"] == 50000
    assert values["angle_convention"] == "standard"


def test_parse_config_rejects_unknown_key_and_bad_value():
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config_text("volume = 11")
    with pytest.raises(ValueError, match="bad value"):
        parse_config_text("overlap_mu = high")
    with pytest.raises(ValueError, match="key=value"):
        parse_config_text("just words")


def test_env_overrides_and_precedence(tmp_path, monkeypatch):
    env = {"PULSEPAIR_OVERLAP_MU": "0.5", "PULSEPAIR_SEED": "31415"}
    values = env_overrides(env)
    assert values == {"overlap_mu": 0.5, "seed": 31415}
    exp = build_experiment({**parse_config_text(GOOD_CONFIG), **values})
    assert exp.source.overlap_mu == 0.5
    assert exp.run.seed == 31415
    with pytest.raises(ValueError, match="PULSEPAIR_OVERLAP_MU"):
        env_overrides({"PULSEPAIR_OVERLAP_MU": "wat"})

    # flags over env over file, key by key
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(GOOD_CONFIG)
    csv_path = tmp_path / "scan.csv"
    for key, val in env.items():
        monkeypatch.setenv(key, val)
    code, _, err = _run(["scan", "--config", str(cfg), "--seed", "42", "--out", str(csv_path)])
    assert code == 0, err
    _, metadata = load_scan_csv(str(csv_path))
    assert metadata["seed"] == "42"  # flag over env and file
    assert metadata["overlap_mu"] == "0.5"  # env over file
    assert metadata["n_pulses"] == "50000"  # file only

    # an out-of-range env value that a valid flag replaces never reaches a config
    monkeypatch.setenv("PULSEPAIR_N_PULSES", "0")
    argv = ["scan", "--mode", "monte-carlo", "--step-deg", "30"]
    code, out, err = _run(argv + ["--n-pulses", "1000"])
    assert code == 0, err
    assert "# n_pulses = 1000\n" in out
    code, out, err = _run(argv)
    assert code == 1 and out == "" and "n_pulses" in err
    # a value that does not parse fails even when a flag would replace it
    monkeypatch.setenv("PULSEPAIR_N_PULSES", "abc")
    code, out, err = _run(["scan", "--n-pulses", "1000", "--step-deg", "30"])
    assert code == 1 and out == "" and "PULSEPAIR_N_PULSES" in err


def test_build_experiment_defaults():
    exp = build_experiment({})
    assert exp.run.n_pulses == DEFAULT_CONFIG["n_pulses"]
    assert exp.theta1_sign == 1
    exp = build_experiment({"angle_convention": "paper"})
    assert exp.theta1_sign == -1
    with pytest.raises(ValueError):
        build_experiment({"angle_convention": "sideways"})
    # the scan grid is bounded, and the message names step_deg
    assert len(build_experiment({}, step_deg=360.0 / MAX_SCAN_POINTS).theta1_grid_deg()) > 0
    for step in (360.0 / (MAX_SCAN_POINTS + 1), float("nan")):
        with pytest.raises(ValueError, match="step_deg"):
            build_experiment({}, step_deg=step)


def test_metadata_echo_contains_every_accepted_key(tmp_path):
    exp = build_experiment(parse_config_text(GOOD_CONFIG))
    scan = run_scan(exp)
    path = tmp_path / "scan.csv"
    with open(path, "w") as fh:
        write_scan_csv(fh, scan, exp)
    _, metadata = load_scan_csv(str(path))
    for key in DEFAULT_CONFIG:
        assert key in metadata, key
    assert metadata["mode"] == "analytic"
    # the exact header: order, keys and value formatting
    header = [line for line in path.read_text().splitlines() if line.startswith("#")]
    assert header == [
        "# pulsepair fringe scan",
        "# mode = analytic",
        "# theta2_deg = 45",
        "# pump_angle_deg = 45.0",
        "# gain_up = 1.0",
        "# gain_down = 0.9",
        "# relative_phase_deg = 0.0",
        "# overlap_mu = 0.95",
        "# mean_pairs_per_pulse = 0.01",
        "# efficiency1 = 0.6",
        "# efficiency2 = 0.6",
        "# background_prob1 = 0.001",
        "# background_prob2 = 0.001",
        "# n_pulses = 50000",
        "# seed = 777",
        "# workers = 1",
        "# angle_convention = standard",
    ]


# --- CSV round trip ---------------------------------------------------------


def test_csv_header_and_roundtrip_bit_identical_fit(tmp_path):
    values = parse_config_text(GOOD_CONFIG)
    values["mean_pairs_per_pulse"] = 0.02
    exp = build_experiment(values, mode="monte-carlo", step_deg=15.0)
    scan = run_scan(exp)
    path = tmp_path / "scan.csv"
    with open(path, "w") as fh:
        write_scan_csv(fh, scan, exp)

    text = path.read_text()
    data_lines = [l for l in text.splitlines() if l and not l.startswith("#")]
    assert data_lines[0] == CSV_HEADER
    assert len(data_lines) == 1 + len(scan.points)

    loaded, _ = load_scan_csv(str(path))
    # Monte Carlo tallies are integers, so parsing is lossless and the fit of
    # the loaded scan is bit-identical to the in-process fit
    direct = fit_fringe(scan, use_accidental_subtraction=True)
    reloaded = fit_fringe(loaded, use_accidental_subtraction=True)
    assert direct == reloaded


def test_load_scan_csv_rejects_malformed(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("theta,oops\n1,2\n")
    with pytest.raises(ValueError, match="header"):
        load_scan_csv(str(path))
    path.write_text(CSV_HEADER + "\n1,2,3\n")
    with pytest.raises(ValueError, match="bad CSV row"):
        load_scan_csv(str(path))
    for row in ("0,nan,1,1,0", "0,inf,1,1,0", "0,1,1,1,-inf", "nan,1,1,1,0"):
        rows = "\n".join(f"{t},100,10,10,1" for t in range(10, 360, 10))
        path.write_text(CSV_HEADER + "\n" + row + "\n" + rows + "\n")
        with pytest.raises(ValueError, match="finite"):
            load_scan_csv(str(path))
    path.write_text("# theta2_deg = inf\n" + CSV_HEADER + "\n0,1,1,1,0\n")
    with pytest.raises(ValueError, match="finite"):
        load_scan_csv(str(path))


# --- commands ----------------------------------------------------------------


def test_state_command(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(GOOD_CONFIG)
    code, out, err = _run(["state", "--config", str(cfg)])
    assert code == 0, err
    assert "concurrence" in out and "purity" in out
    assert "HH HV VH VV" in out


def test_scan_and_fit_commands_roundtrip(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(GOOD_CONFIG)
    csv_path = tmp_path / "fringe.csv"
    svg_path = tmp_path / "fringe.svg"
    code, out, err = _run(
        [
            "scan",
            "--config", str(cfg),
            "--theta2-deg", "45",
            "--start-deg", "0",
            "--stop-deg", "360",
            "--step-deg", "10",
            "--mode", "analytic",
            "--out", str(csv_path),
            "--svg", str(svg_path),
        ]
    )
    assert code == 0, err
    scan, _ = load_scan_csv(str(csv_path))
    assert len(scan.points) == 36
    svg = svg_path.read_text()
    assert svg.startswith("<svg") and "<polyline" in svg and "analyzer 1 angle" in svg

    code, out, err = _run(["fit", str(csv_path), "--subtract-accidentals"])
    assert code == 0, err
    assert "visibility_fit" in out
    # CLI fit equals the in-process fit of the parsed CSV
    fit = fit_fringe(scan, use_accidental_subtraction=True)
    assert f"visibility_fit = {fit.visibility:.6f}" in out
    assert f"offset = {fit.offset:.6f}" in out


def test_scan_to_stdout_when_no_out_path(tmp_path):
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(GOOD_CONFIG)
    code, out, err = _run(["scan", "--config", str(cfg), "--step-deg", "30"])
    assert code == 0, err
    assert CSV_HEADER in out


def test_fit_constant_counts_prints_zero_visibility(tmp_path):
    path = tmp_path / "const.csv"
    rows = "\n".join(f"{t},100,0,0,0" for t in range(0, 360, 10))
    path.write_text(CSV_HEADER + "\n" + rows + "\n")
    code, out, err = _run(["fit", str(path)])
    assert code == 0, err
    assert "visibility_fit = 0.000000" in out


def test_chsh_command_prints_tsirelson_value():
    code, out, err = _run(["chsh"])
    assert code == 0, err
    assert "2.828427" in out


def test_chsh_command_with_custom_angles():
    code, out, _ = _run(["chsh", "--a-deg", "0", "--a-prime-deg", "0",
                         "--b-deg", "0", "--b-prime-deg", "0"])
    assert code == 0
    assert "S = 2.000000" in out


def test_reproduce_fig3_smoke():
    code, out, err = _run(["reproduce-fig3", "--n-pulses", "20000", "--seed", "3"])
    assert code == 0, err
    assert "raw fit" in out and "accidental-subtracted fit" in out


def test_fig3_experiment_background_matches_true_singles_level():
    exp = fig3_experiment(n_pulses=1000)
    from pulsepair import emitted_state, pair_click_rate

    rho = emitted_state(exp.source)
    expected_bg = exp.source.mean_pairs_per_pulse * pair_click_rate(
        rho, np.pi / 4, exp.detector.efficiency1
    )
    assert abs(exp.detector.background_prob1 - expected_bg) < 1e-15
    assert exp.source.gain_down == 0.5943


# --- exit codes ----------------------------------------------------------------


def test_unknown_subcommand_exits_one():
    code, _, err = _run(["frobnicate"])
    assert code == 1
    assert "usage" in err.lower()


def test_unknown_flag_exits_one():
    code, _, err = _run(["scan", "--warp-speed", "9"])
    assert code == 1
    assert "usage" in err.lower()


def test_bad_config_value_exits_one(tmp_path):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("overlap_mu = 2.0\n")
    code, _, err = _run(["state", "--config", str(cfg)])
    assert code == 1
    assert "config error" in err


@pytest.mark.parametrize(
    "env, argv",
    [
        ({"PULSEPAIR_GAIN_UP": "nan"}, ["state"]),
        ({"PULSEPAIR_MEAN_PAIRS_PER_PULSE": "inf"}, ["scan", "--mode", "monte-carlo"]),
    ],
)
def test_non_finite_env_value_exits_one_with_one_line(monkeypatch, env, argv):
    for key, val in env.items():
        monkeypatch.setenv(key, val)
    code, out, err = _run(argv)
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and "must be finite" in err, err


def test_mean_pairs_above_bound_exits_one_with_one_line(monkeypatch):
    monkeypatch.setenv("PULSEPAIR_MEAN_PAIRS_PER_PULSE", "1e12")
    code, out, err = _run(["scan", "--mode", "monte-carlo"])
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and "mean_pairs_per_pulse" in err, err


def test_n_pulses_above_bound_exits_one_with_one_line(monkeypatch):
    monkeypatch.setenv("PULSEPAIR_N_PULSES", str(2**53 + 1))
    code, out, err = _run(["scan", "--mode", "monte-carlo"])
    assert code == 1
    assert out == ""
    assert len(err.splitlines()) == 1 and "n_pulses" in err, err


_BOUNDARY_KEYS = tuple(key.upper() for key, parse in CONFIG_KEYS.items() if parse is float)


# unset, in [0, 1] (valid for every key, so whole runs happen) or any float
_BOUNDARY_VALUE = st.none() | st.floats(0.0, 1.0) | st.floats()


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.fixed_dictionaries(dict.fromkeys(_BOUNDARY_KEYS, _BOUNDARY_VALUE)))
@example(dict.fromkeys(_BOUNDARY_KEYS, float("nan")))
@example({"MEAN_PAIRS_PER_PULSE": 1e12, "GAIN_UP": 1e300, "OVERLAP_MU": -1.0,
          "EFFICIENCY1": float("inf"), "BACKGROUND_PROB1": 1.0})
@example({"MEAN_PAIRS_PER_PULSE": 1000.0, "GAIN_UP": 1.7e308, "OVERLAP_MU": 0.0,
          "EFFICIENCY1": 5e-324, "BACKGROUND_PROB1": 5e-324})
@example({"MEAN_PAIRS_PER_PULSE": 5e-324, "GAIN_UP": 5e-324, "OVERLAP_MU": None,
          "EFFICIENCY1": None, "BACKGROUND_PROB1": None})
def test_boundary_env_values_exit_cleanly(values):
    """Any float in any float-valued variable either runs or exits 1 with one
    stderr line.

    Python prints every warning to stderr too, so none may be raised.
    """
    env = {"PULSEPAIR_N_PULSES": "2000"}
    env.update({f"PULSEPAIR_{key}": repr(val) for key, val in values.items() if val is not None})
    for argv in (["state"], ["scan", "--mode", "monte-carlo"], ["chsh"]):
        with mock.patch.dict(os.environ, env), warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, err = _run(argv)
        assert code in (0, 1), (argv, code, err)
        assert len(err.splitlines()) <= 1 and "Traceback" not in err, (argv, err)
        assert not caught, (argv, [str(w.message) for w in caught])
        assert (code == 0) == (err == "") and (code == 0) == (out != ""), (argv, code, err)


@pytest.mark.parametrize(
    "argv",
    [
        ["scan", "--step-deg", "1e-9"],
        ["scan", "--theta2-deg", "nan"],
        ["scan", "--mode", "monte-carlo", "--n-pulses", "1000", "--theta2-deg", "inf"],
        ["scan", "--start-deg", "-inf"],
        ["chsh", "--a-deg", "nan"],
        ["chsh", "--b-prime-deg", "inf"],
        ["fit", "NAN_CSV"],
        ["fit", "INF_CSV"],
    ],
)
def test_bad_geometry_angles_and_csv_values_exit_one(tmp_path, argv):
    for name, bad in (("NAN_CSV", "nan"), ("INF_CSV", "inf")):
        path = tmp_path / f"{name}.csv"
        rows = "\n".join(f"{t},100,10,10,1" for t in range(10, 360, 10))
        path.write_text(f"{CSV_HEADER}\n0,{bad},10,10,1\n{rows}\n")
        argv = [str(path) if a == name else a for a in argv]
    code, out, err = _run(argv)
    assert code == 1, err
    assert out == ""
    assert err and "Traceback" not in err


def test_missing_config_file_exits_two(tmp_path):
    code, _, err = _run(["state", "--config", str(tmp_path / "nope.cfg")])
    assert code == 2
    assert "i/o error" in err


def test_missing_scan_csv_exits_two(tmp_path):
    code, _, err = _run(["fit", str(tmp_path / "nope.csv")])
    assert code == 2


def test_help_exits_zero():
    code, _, _ = _run(["--help"])
    assert code == 0
