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
    for row in (
        "0,nan,1,1,0", "0,inf,1,1,0", "0,1,1,1,-inf", "nan,1,1,1,0", "0,1e308,1e308,1e308,0"
    ):
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


@pytest.mark.parametrize(
    "angles, expected",
    [
        ((0.0, 60.0, 120.0, 180.0), 0),  # 0 and 180 degrees are distinct angles
        ((0.0, 10.0, 20.0, 0.0), 1),  # three distinct angles
        ((0.0, 180.0, 360.0, 540.0), 1),  # four angles, one design row
        ((1e300, 10.0, 20.0, 30.0), 0),  # a huge angle counts without overflow
    ],
)
def test_fit_counts_distinct_angles(tmp_path, angles, expected):
    path = tmp_path / "scan.csv"
    rows = "".join(f"{t!r},{100 - i * 20},10,10,1\n" for i, t in enumerate(angles))
    path.write_text(f"{CSV_HEADER}\n{rows}")
    assert _run_quietly(["fit", str(path)]) == expected


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


def _run_quietly(argv):
    """Run one command, which raises no warning and exits either 0 with
    output and an empty stderr, or 1 or 2 with one stderr line, no output
    and no traceback; returns the exit code.

    Python prints every warning to stderr too, so none may be raised.
    """
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = _run(argv)
    assert not caught, (argv, [str(w.message) for w in caught])
    assert "Traceback" not in err, (argv, err)
    if code == 0:
        assert out and not err, (argv, err)
    else:
        assert code in (1, 2) and not out and len(err.splitlines()) == 1, (argv, code, err)
    return code


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
    stderr line."""
    env = {"PULSEPAIR_N_PULSES": "2000"}
    env.update({f"PULSEPAIR_{key}": repr(val) for key, val in values.items() if val is not None})
    for argv in (["state"], ["scan", "--mode", "monte-carlo"], ["chsh"]):
        with mock.patch.dict(os.environ, env):
            assert _run_quietly(argv) in (0, 1)


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
        ["fit", "HUGE_CSV"],
        ["fit", "LATIN1_CSV"],
        ["state", "--config", "LATIN1_CFG"],
    ],
)
def test_bad_geometry_angles_and_csv_values_exit_one(tmp_path, argv):
    rows = "\n".join(f"{t},100,10,10,1" for t in range(10, 360, 10))
    files = {
        name: f"{CSV_HEADER}\n{bad_row}\n{rows}\n".encode()
        for name, bad_row in (
            ("NAN_CSV", "0,nan,10,10,1"),
            ("INF_CSV", "0,inf,10,10,1"),
            ("HUGE_CSV", "0,1e308,1e308,1e308,0"),
        )
    }
    # undecodable files: a Latin-1 comment in a scan CSV and in a config file
    files["LATIN1_CSV"] = f"# operator: J\xfcrgen\n{CSV_HEADER}\n{rows}\n".encode("latin-1")
    files["LATIN1_CFG"] = "# J\xfcrgen's source\ngain_up = 1.0\n".encode("latin-1")
    for name, data in files.items():
        path = tmp_path / name.lower().replace("_", ".")
        path.write_bytes(data)
        argv = [str(path) if a == name else a for a in argv]
    code, out, err = _run(argv)
    assert code == 1, err
    assert out == ""
    assert err and "Traceback" not in err
    if "latin1" in argv[-1]:
        assert len(err.splitlines()) == 1 and f"{argv[-1]} is not UTF-8 text" in err, err


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


# a config line: a known key, its uppercase or a stray word, with a value that
# is a number, a word or any text, optionally commented or without its "="
_CONFIG_LINE = st.builds(
    "{}{}{}{}{}".format,
    st.sampled_from([*CONFIG_KEYS, "GAIN_UP", "n_pulse", "", "#"]),
    st.sampled_from([" = ", "=", " ", " == ", ": "]),
    st.one_of(
        st.floats().map(repr),
        st.integers(-(2**70), 2**70).map(str),
        st.sampled_from(["standard", "mirrored", "nan", "-inf", "1e999", "0x10", "", "1_0"]),
        st.text(st.characters(blacklist_categories=("Cs",)), max_size=12),
    ),
    st.sampled_from(["", " # note", "  "]),
    st.sampled_from(["\n", "\r\n", "\n\n"]),
)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(st.lists(_CONFIG_LINE, max_size=8))
@example(["n_pulses = 0\n"])
@example(["seed = 18446744073709551616\n", "angle_convention = sideways\n"])
@example(["mean_pairs_per_pulse = 1e12\n"])
@example(["gain_up = 1.0 overlap_mu = 0.5\n"])
def test_random_config_text_exits_cleanly(tmp_path_factory, lines):
    """Any config file text gives a result or one stderr line: the analytic
    commands are run, so any n_pulses stays fast."""
    path = tmp_path_factory.mktemp("cfg") / "random.cfg"
    path.write_text("".join(lines), encoding="utf-8")
    codes = {_run_quietly([cmd, "--config", str(path)]) for cmd in ("state", "scan", "chsh")}
    assert codes <= {0, 1}


_CSV_ANGLE = st.sampled_from([0.0, 10.0, 45.0, 90.0, 180.0, 360.0]) | st.floats(-1e3, 1e3)
_CSV_COUNT = st.integers(0, 10**9).map(str) | st.floats(0.0, 1e12).map(repr) | st.floats().map(repr)


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(
    st.lists(
        st.tuples(_CSV_ANGLE.map(repr), st.lists(_CSV_COUNT, min_size=2, max_size=6)),
        min_size=1,
        max_size=40,
    ),
    st.sampled_from([[], ["--subtract-accidentals"], ["--weighted"]]),
    st.booleans(),
)
@example([(repr(t), ["10", "5", "5", "1"]) for t in (30.0, 0.0, 20.0, 10.0, 0.0)], [], True)
@example([(repr(t), ["1", "1", "1"]) for t in (0.0, 10.0, 20.0, 30.0)], [], True)
@example([(repr(t), ["100", "10", "10", "1"]) for t in (0.0, 180.0, 360.0, 540.0)], [], False)
@example([("1e300", ["10", "10", "10", "1"])]
         + [(repr(t), [repr(t + 1.0), "10", "10", "1"]) for t in (10.0, 20.0, 30.0)], [], False)
@example([(repr(t), [repr(c * 1e-300), "10", "10", "0"])
          for t, c in ((0.0, 1.0), (10.0, 5.0), (20.0, 3.0), (30.0, 8.0))], ["--weighted"], False)
@example([(repr(t), [repr(c * 1e-310), "10", "10", "0"])
          for t, c in ((0.0, 1.0), (10.0, 5.0), (20.0, 3.0), (30.0, 8.0))], [], False)
def test_malformed_scan_csv_fit_exits_cleanly(tmp_path_factory, rows, flags, reverse):
    """``fit`` of a scan CSV with rows out of order, repeated angles, rows of
    the wrong length or any float counts fits or exits 1 with one line.

    ``rows`` holds (angle, counts) with two to six counts, so some rows have
    the wrong number of fields; ``reverse`` reverses their order.
    """
    if reverse:
        rows = rows[::-1]
    body = "".join(",".join((theta, *counts)) + "\n" for theta, counts in rows)
    path = tmp_path_factory.mktemp("csv") / "scan.csv"
    path.write_text(f"# mode = monte-carlo\n{CSV_HEADER}\n{body}", encoding="utf-8")
    assert _run_quietly(["fit", *flags, str(path)]) in (0, 1)
