"""Command-line front end: config files, experiment runs, CSV and SVG output.

Subcommands
    state           print the emitted density matrix, concurrence and purity
    scan            run a polarization scan and write the fringe CSV
    fit             fit a fringe CSV and report visibility
    chsh            evaluate the CHSH combination for the configured source
    reproduce-fig3  canned two-crystal scenario: imbalanced gains, background
                    at the true-singles level, Monte Carlo fringe plus fit

Configuration is a flat key=value file ('#' comments).  Its keys are the
fields of SourceConfig, DetectorConfig and RunConfig, with the pump angle and
relative phase in degrees (pump_angle_deg, relative_phase_deg), plus
angle_convention; each parses with its default's type, and a key left out
takes the dataclass default.  The config file, PULSEPAIR_<KEY> environment
variables and flags merge key by key in that order, later ones winning, and
the experiment is built once from the result.  Angles on this surface are
degrees; the library works in radians.  Exit codes: 0 success, 1
configuration error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
from dataclasses import dataclass, fields

import numpy as np

from .analysis import (
    MODE_ANALYTIC,
    MODE_MONTE_CARLO,
    FringeFit,
    FringePoint,
    FringeScan,
    chsh,
    fit_fringe,
    polarization_scan,
)
from .counting import DetectorConfig, RunConfig, pair_click_rate
from .polarization import BASIS_LABELS, concurrence, purity
from .source import SourceConfig, amplitude_ratio, emitted_state

ENV_PREFIX = "PULSEPAIR_"
CSV_HEADER = "theta1_deg,coincidences,singles1,singles2,accidentals"

_WORKERS_HELP = "kept for compatibility; no effect on results or speed"

CONVENTION_STANDARD = "standard"
CONVENTION_PAPER = "paper"

# Largest scan grid; a finer step is a typo, not an experiment.
MAX_SCAN_POINTS = 100_000

# The config schema: every field of these dataclasses is a key.  The two
# angles are radians in the library and degrees in config keys.
_SECTIONS = {"source": SourceConfig, "detector": DetectorConfig, "run": RunConfig}
_DEGREES = ("pump_angle", "relative_phase")

# config key -> (ExperimentConfig section, dataclass field)
_FIELDS = {
    (f"{f.name}_deg" if f.name in _DEGREES else f.name): (section, f)
    for section, cls in _SECTIONS.items()
    for f in fields(cls)
}

# accepted config-file keys and their parsers
CONFIG_KEYS = {key: type(f.default) for key, (_, f) in _FIELDS.items()} | {"angle_convention": str}


class UsageError(Exception):
    """Bad flags or subcommand; maps to exit code 1."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


@dataclass(frozen=True)
class ExperimentConfig:
    """Everything one run needs: source, detectors, run plan, scan geometry."""

    source: SourceConfig
    detector: DetectorConfig
    run: RunConfig
    theta2_deg: float = 45.0
    start_deg: float = 0.0
    stop_deg: float = 360.0
    step_deg: float = 10.0
    mode: str = MODE_ANALYTIC
    angle_convention: str = CONVENTION_STANDARD

    def __post_init__(self) -> None:
        if self.step_deg <= 0:
            raise ValueError("step_deg must be positive")
        if self.stop_deg <= self.start_deg:
            raise ValueError("stop_deg must exceed start_deg")
        if not (self.stop_deg - self.start_deg) / self.step_deg <= MAX_SCAN_POINTS:  # or NaN
            raise ValueError(
                f"scan grid [{self.start_deg:g}, {self.stop_deg:g}) in steps of step_deg "
                f"{self.step_deg:g} must be finite and hold at most {MAX_SCAN_POINTS} points"
            )
        if self.mode not in (MODE_ANALYTIC, MODE_MONTE_CARLO):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.angle_convention not in (CONVENTION_STANDARD, CONVENTION_PAPER):
            raise ValueError(f"unknown angle_convention {self.angle_convention!r}")

    @property
    def theta1_sign(self) -> int:
        return -1 if self.angle_convention == CONVENTION_PAPER else 1

    def theta1_grid_deg(self) -> np.ndarray:
        return np.arange(self.start_deg, self.stop_deg, self.step_deg)

    def key_values(self) -> dict:
        """Effective config-file keys, for the run-metadata echo."""
        values = {}
        for key, (section, f) in _FIELDS.items():
            val = getattr(getattr(self, section), f.name)
            values[key] = np.degrees(val) if f.name in _DEGREES else val
        values["angle_convention"] = self.angle_convention
        return values


DEFAULT_CONFIG = ExperimentConfig(SourceConfig(), DetectorConfig(), RunConfig()).key_values()

# scan geometry: the ExperimentConfig fields that only flags set
_GEOMETRY = tuple(
    f.name for f in fields(ExperimentConfig) if f.name not in (*_SECTIONS, *CONFIG_KEYS)
)


def parse_config_text(text: str, source_name: str = "<config>") -> dict:
    """Parse flat key=value lines into typed values; unknown keys are errors."""
    values: dict = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{source_name}:{lineno}: expected key=value, got {raw!r}")
        key, _, val = (s.strip() for s in line.partition("="))
        if key not in CONFIG_KEYS:
            raise ValueError(f"{source_name}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = CONFIG_KEYS[key](val)
        except ValueError as exc:
            raise ValueError(f"{source_name}:{lineno}: bad value for {key}: {val!r}") from exc
    return values


def env_overrides(environ=None) -> dict:
    """Config values taken from PULSEPAIR_<KEY> environment variables."""
    environ = os.environ if environ is None else environ
    values: dict = {}
    for key, parse in CONFIG_KEYS.items():
        raw = environ.get(ENV_PREFIX + key.upper())
        if raw is None:
            continue
        try:
            values[key] = parse(raw)
        except ValueError as exc:
            raise ValueError(f"bad {ENV_PREFIX}{key.upper()} value: {raw!r}") from exc
    return values


def build_experiment(values: dict, **scan_kwargs) -> ExperimentConfig:
    """Assemble an ExperimentConfig from flat config values plus scan geometry.

    Keys left out of ``values`` take the config dataclasses' defaults.
    """
    unknown = set(values) - set(CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    parts: dict = {section: {} for section in _SECTIONS}
    for key, (section, f) in _FIELDS.items():
        if key in values:
            parts[section][f.name] = np.radians(values[key]) if f.name in _DEGREES else values[key]
    if "angle_convention" in values:
        scan_kwargs["angle_convention"] = values["angle_convention"]
    return ExperimentConfig(
        **{section: cls(**parts[section]) for section, cls in _SECTIONS.items()}, **scan_kwargs
    )


def _given(args, names) -> dict:
    """The flags among ``names`` that were set on the command line."""
    return {name: getattr(args, name) for name in names if getattr(args, name, None) is not None}


def load_experiment(args, environ=None) -> ExperimentConfig:
    """The experiment of one command: its ``--config`` file, then PULSEPAIR_*
    variables, then its flags, merged into one set of values."""
    values: dict = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            values.update(parse_config_text(fh.read(), source_name=args.config))
    values.update(env_overrides(environ))
    values.update(_given(args, CONFIG_KEYS))
    return build_experiment(values, **_given(args, _GEOMETRY))


# --- scan CSV and SVG ------------------------------------------------------


def _fmt(x: float) -> str:
    return f"{x:.9g}"


def write_scan_csv(path_or_file, scan: FringeScan, exp: ExperimentConfig) -> None:
    """Write a fringe scan with its run metadata as '#' comment lines."""

    def _write(fh) -> None:
        fh.write("# pulsepair fringe scan\n")
        fh.write(f"# mode = {scan.mode}\n")
        fh.write(f"# theta2_deg = {_fmt(np.degrees(scan.theta2))}\n")
        for key, val in exp.key_values().items():
            fh.write(f"# {key} = {val}\n")
        fh.write(CSV_HEADER + "\n")
        for pt in scan.points:
            row = (np.degrees(pt.theta1), pt.coincidences, pt.singles1, pt.singles2, pt.accidentals)
            fh.write(",".join(map(_fmt, row)) + "\n")

    if hasattr(path_or_file, "write"):
        _write(path_or_file)
    else:
        with open(path_or_file, "w", encoding="utf-8") as fh:
            _write(fh)


def load_scan_csv(path: str) -> tuple[FringeScan, dict]:
    """Read a scan CSV back into a FringeScan plus its metadata dict."""
    metadata: dict = {}
    rows: list[FringePoint] = []
    header_seen = False
    with open(path, "r", encoding="utf-8") as fh:
        for raw in fh:
            line = raw.strip()
            if not line:
                continue
            if line.startswith("#"):
                body = line.lstrip("#").strip()
                if "=" in body:
                    key, _, val = (s.strip() for s in body.partition("="))
                    metadata[key] = val
                continue
            if not header_seen:
                if line != CSV_HEADER:
                    raise ValueError(f"unexpected CSV header: {line!r}")
                header_seen = True
                continue
            parts = line.split(",")
            if len(parts) != 5:
                raise ValueError(f"bad CSV row: {line!r}")
            theta1_deg, *counts = (float(p) for p in parts)
            rows.append(FringePoint(np.radians(theta1_deg), *counts))
    if not header_seen:
        raise ValueError("CSV has no header row")
    theta2 = np.radians(float(metadata.get("theta2_deg", "45")))
    mode = metadata.get("mode", MODE_ANALYTIC)
    return FringeScan(theta2=theta2, points=tuple(rows), mode=mode), metadata


def render_fringe_svg(path: str, scan: FringeScan, title: str = "coincidence fringe") -> None:
    """Minimal standalone SVG: one polyline over labeled axes."""
    width, height = 640, 420
    left, right, top, bottom = 70, 20, 30, 50
    xs = np.degrees(scan.theta1s)
    ys = scan.coincidences
    x_lo, x_hi = float(xs.min()), float(xs.max())
    y_hi = float(ys.max()) if ys.max() > 0 else 1.0
    span_x = (x_hi - x_lo) or 1.0

    def px(x: float) -> float:
        return left + (x - x_lo) / span_x * (width - left - right)

    def py(y: float) -> float:
        return height - bottom - y / y_hi * (height - top - bottom)

    pts = " ".join(f"{px(x):.1f},{py(y):.1f}" for x, y in zip(xs, ys))
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" height="{height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<text x="{width / 2:.0f}" y="18" text-anchor="middle" font-size="14">{title}</text>',
        f'<line x1="{left}" y1="{height - bottom}" x2="{width - right}" '
        f'y2="{height - bottom}" stroke="black"/>',
        f'<line x1="{left}" y1="{top}" x2="{left}" y2="{height - bottom}" stroke="black"/>',
        f'<text x="{(left + width - right) / 2:.0f}" y="{height - 12}" text-anchor="middle" '
        f'font-size="12">analyzer 1 angle (deg)</text>',
        f'<text x="16" y="{(top + height - bottom) / 2:.0f}" text-anchor="middle" '
        f'font-size="12" transform="rotate(-90 16 {(top + height - bottom) / 2:.0f})">'
        "coincidences</text>",
        f'<polyline points="{pts}" fill="none" stroke="#1f77b4" stroke-width="1.5"/>',
    ]
    for frac in (0.0, 0.5, 1.0):
        xv = x_lo + frac * span_x
        yv = frac * y_hi
        lines.append(
            f'<text x="{px(xv):.0f}" y="{height - bottom + 16}" text-anchor="middle" '
            f'font-size="11">{xv:.0f}</text>'
        )
        lines.append(
            f'<text x="{left - 6}" y="{py(yv) + 4:.0f}" text-anchor="end" '
            f'font-size="11">{yv:.3g}</text>'
        )
    lines.append("</svg>")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


# --- canned scenario -------------------------------------------------------

FIG3_GAIN_RATIO = 0.5943


def fig3_experiment(
    n_pulses: int = 10_000_000, seed: int = 715_517, workers: int = 1
) -> ExperimentConfig:
    """Canned imbalanced-source scenario: gain ratio 0.5943, full coherence,
    background tuned so background singles sit at the true-singles level."""
    source = SourceConfig(
        pump_angle=np.pi / 4,
        gain_up=1.0,
        gain_down=FIG3_GAIN_RATIO,
        relative_phase=0.0,
        overlap_mu=1.0,
        mean_pairs_per_pulse=0.01,
    )
    rho = emitted_state(source)
    eta = 0.6
    reference = np.pi / 4
    bg = source.mean_pairs_per_pulse * pair_click_rate(rho, reference, eta)
    detector = DetectorConfig(
        efficiency1=eta, efficiency2=eta, background_prob1=bg, background_prob2=bg
    )
    run = RunConfig(n_pulses=n_pulses, seed=seed, workers=workers)
    return ExperimentConfig(
        source=source,
        detector=detector,
        run=run,
        theta2_deg=45.0,
        start_deg=0.0,
        stop_deg=360.0,
        step_deg=10.0,
        mode=MODE_MONTE_CARLO,
    )


def run_scan(exp: ExperimentConfig) -> FringeScan:
    return polarization_scan(
        exp.source,
        exp.detector,
        exp.run,
        theta2=np.radians(exp.theta2_deg),
        theta1_list=np.radians(exp.theta1_grid_deg()),
        mode=exp.mode,
        theta1_sign=exp.theta1_sign,
    )


# --- subcommands -----------------------------------------------------------


def _print_fit(fit: FringeFit, out) -> None:
    print(f"offset = {fit.offset:.6f}", file=out)
    print(f"amplitude = {fit.amplitude:.6f}", file=out)
    print(f"fringe_max_deg = {np.degrees(fit.phase):.6f}", file=out)
    print(f"visibility_fit = {fit.visibility:.6f}", file=out)
    print(f"visibility_sigma = {fit.visibility_sigma:.6f}", file=out)
    print(f"visibility_extremes = {fit.visibility_extremes:.6f}", file=out)
    print(f"rms_residual = {fit.rms_residual:.6f}", file=out)


def _cmd_state(args, out) -> int:
    exp = load_experiment(args)
    rho = emitted_state(exp.source)
    print("basis: " + " ".join(BASIS_LABELS), file=out)
    for row in rho.matrix:
        print("  " + "  ".join(f"{v.real:+.6f}{v.imag:+.6f}j" for v in row), file=out)
    print(f"concurrence = {concurrence(rho):.6f}", file=out)
    print(f"purity = {purity(rho):.6f}", file=out)
    try:
        eps = amplitude_ratio(exp.source)
        print(f"vv_over_hh = {eps.real:+.6f}{eps.imag:+.6f}j", file=out)
    except ValueError:
        print("vv_over_hh = undefined (pure VV source)", file=out)
    return 0


def _cmd_scan(args, out) -> int:
    exp = load_experiment(args)
    scan = run_scan(exp)
    write_scan_csv(out if args.out is None else args.out, scan, exp)
    if args.svg is not None:
        render_fringe_svg(args.svg, scan)
    return 0


def _cmd_fit(args, out) -> int:
    scan, _ = load_scan_csv(args.scan_csv)
    fit = fit_fringe(
        scan,
        use_accidental_subtraction=args.subtract_accidentals,
        weighted=args.weighted,
    )
    _print_fit(fit, out)
    return 0


def _cmd_chsh(args, out) -> int:
    exp = load_experiment(args)
    rho = emitted_state(exp.source)
    s = chsh(
        rho,
        np.radians(args.a_deg),
        np.radians(args.a_prime_deg),
        np.radians(args.b_deg),
        np.radians(args.b_prime_deg),
    )
    print(f"S = {s:.6f}", file=out)
    return 0


def _cmd_fig3(args, out) -> int:
    # the scenario fixes its source and detectors; only its run flags apply
    exp = fig3_experiment(**_given(args, CONFIG_KEYS))
    scan = run_scan(exp)
    if args.out is not None:
        write_scan_csv(args.out, scan, exp)
    if args.svg is not None:
        render_fringe_svg(args.svg, scan)
    print("# raw fit", file=out)
    _print_fit(fit_fringe(scan), out)
    print("# accidental-subtracted fit", file=out)
    _print_fit(fit_fringe(scan, use_accidental_subtraction=True), out)
    return 0


def _finite_float(text: str) -> float:
    """argparse type for angle flags: a float that is neither NaN nor infinite."""
    try:
        val = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid float value: {text!r}") from None
    if not math.isfinite(val):
        raise argparse.ArgumentTypeError(f"must be finite, got {text!r}")
    return val


@functools.cache
def _build_parser() -> _Parser:
    """The CLI's argparse tree, built on first use and shared by later calls."""
    parser = _Parser(prog="pulsepair", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    p_state = sub.add_parser("state", help="print the emitted two-photon state")
    p_state.add_argument("--config", default=None, help="key=value config file")
    p_state.set_defaults(func=_cmd_state)

    p_scan = sub.add_parser("scan", help="run a polarization scan, write CSV")
    p_scan.add_argument("--config", default=None)
    for flag in ("--theta2-deg", "--start-deg", "--stop-deg", "--step-deg"):
        p_scan.add_argument(flag, type=_finite_float, default=None)
    p_scan.add_argument("--mode", choices=(MODE_ANALYTIC, MODE_MONTE_CARLO), default=None)
    p_scan.add_argument("--n-pulses", dest="n_pulses", type=int, default=None)
    p_scan.add_argument("--seed", type=int, default=None)
    p_scan.add_argument("--workers", type=int, default=None, help=_WORKERS_HELP)
    p_scan.add_argument("--out", default=None, help="CSV path (default: stdout)")
    p_scan.add_argument("--svg", default=None, help="optional fringe chart path")
    p_scan.set_defaults(func=_cmd_scan)

    p_fit = sub.add_parser("fit", help="fit a scan CSV")
    p_fit.add_argument("scan_csv")
    p_fit.add_argument("--subtract-accidentals", action="store_true")
    p_fit.add_argument("--weighted", action="store_true")
    p_fit.set_defaults(func=_cmd_fit)

    p_chsh = sub.add_parser("chsh", help="CHSH value of the configured source")
    p_chsh.add_argument("--config", default=None)
    for flag, default in (
        ("--a-deg", 0.0), ("--a-prime-deg", 45.0), ("--b-deg", 22.5), ("--b-prime-deg", 67.5)
    ):
        p_chsh.add_argument(flag, type=_finite_float, default=default)
    p_chsh.set_defaults(func=_cmd_chsh)

    p_fig3 = sub.add_parser(
        "reproduce-fig3", help="canned imbalanced-source fringe scenario"
    )
    p_fig3.add_argument("--n-pulses", dest="n_pulses", type=int, default=None)
    p_fig3.add_argument("--seed", type=int, default=None)
    p_fig3.add_argument("--workers", type=int, default=None, help=_WORKERS_HELP)
    p_fig3.add_argument("--out", default=None)
    p_fig3.add_argument("--svg", default=None)
    p_fig3.set_defaults(func=_cmd_fig3)

    return parser


def run_command(argv, out=None, err=None) -> int:
    """Dispatch one CLI invocation; returns the process exit code."""
    out = sys.stdout if out is None else out
    err = sys.stderr if err is None else err
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args, out)
    except UsageError as exc:
        parser.print_usage(err)
        print(f"pulsepair: error: {exc}", file=err)
        return 1
    except ValueError as exc:
        print(f"pulsepair: config error: {exc}", file=err)
        return 1
    except OSError as exc:
        print(f"pulsepair: i/o error: {exc}", file=err)
        return 2
    except SystemExit as exc:  # argparse -h/--help
        return int(exc.code or 0)


def main() -> None:
    sys.exit(run_command(sys.argv[1:]))


if __name__ == "__main__":
    main()
