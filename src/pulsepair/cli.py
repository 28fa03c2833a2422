"""Command-line front end: config files, experiment runs, CSV and SVG output.

Subcommands
    state           print the emitted density matrix, concurrence and purity
    scan            run a polarization scan and write the fringe CSV
    fit             fit a fringe CSV and report visibility
    chsh            evaluate the CHSH combination for the configured source
    reproduce-fig3  canned two-crystal scenario: imbalanced gains, background
                    at the true-singles level, Monte Carlo fringe plus fit

Configuration is a flat key=value file ('#' comments); any key can be
overridden through the environment as PULSEPAIR_<KEY>, and scan geometry
through flags.  Angles on this surface are degrees; the library works in
radians.  Exit codes: 0 success, 1 configuration error, 2 I/O error.
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from dataclasses import dataclass, replace

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

# accepted config-file keys and their parsers
CONFIG_KEYS = {
    "pump_angle_deg": float,
    "gain_up": float,
    "gain_down": float,
    "relative_phase_deg": float,
    "overlap_mu": float,
    "mean_pairs_per_pulse": float,
    "efficiency1": float,
    "efficiency2": float,
    "background_prob1": float,
    "background_prob2": float,
    "n_pulses": int,
    "seed": int,
    "workers": int,
    "angle_convention": str,
}

DEFAULT_CONFIG = {
    "pump_angle_deg": 45.0,
    "gain_up": 1.0,
    "gain_down": 1.0,
    "relative_phase_deg": 0.0,
    "overlap_mu": 1.0,
    "mean_pairs_per_pulse": 0.01,
    "efficiency1": 0.6,
    "efficiency2": 0.6,
    "background_prob1": 0.0,
    "background_prob2": 0.0,
    "n_pulses": 1_000_000,
    "seed": 12345,
    "workers": 1,
    "angle_convention": CONVENTION_STANDARD,
}


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
        return {
            "pump_angle_deg": np.degrees(self.source.pump_angle),
            "gain_up": self.source.gain_up,
            "gain_down": self.source.gain_down,
            "relative_phase_deg": np.degrees(self.source.relative_phase),
            "overlap_mu": self.source.overlap_mu,
            "mean_pairs_per_pulse": self.source.mean_pairs_per_pulse,
            "efficiency1": self.detector.efficiency1,
            "efficiency2": self.detector.efficiency2,
            "background_prob1": self.detector.background_prob1,
            "background_prob2": self.detector.background_prob2,
            "n_pulses": self.run.n_pulses,
            "seed": self.run.seed,
            "workers": self.run.workers,
            "angle_convention": self.angle_convention,
        }


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
    """Assemble an ExperimentConfig from flat config values plus scan geometry."""
    unknown = set(values) - set(CONFIG_KEYS)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    merged = {**DEFAULT_CONFIG, **values}
    source = SourceConfig(
        pump_angle=np.radians(merged["pump_angle_deg"]),
        gain_up=merged["gain_up"],
        gain_down=merged["gain_down"],
        relative_phase=np.radians(merged["relative_phase_deg"]),
        overlap_mu=merged["overlap_mu"],
        mean_pairs_per_pulse=merged["mean_pairs_per_pulse"],
    )
    detector = DetectorConfig(
        efficiency1=merged["efficiency1"],
        efficiency2=merged["efficiency2"],
        background_prob1=merged["background_prob1"],
        background_prob2=merged["background_prob2"],
    )
    run = RunConfig(
        n_pulses=merged["n_pulses"], seed=merged["seed"], workers=merged["workers"]
    )
    return ExperimentConfig(
        source=source,
        detector=detector,
        run=run,
        angle_convention=merged["angle_convention"],
        **scan_kwargs,
    )


def load_experiment(config_path: str | None, environ=None, **scan_kwargs) -> ExperimentConfig:
    values: dict = {}
    if config_path is not None:
        with open(config_path, "r", encoding="utf-8") as fh:
            values.update(parse_config_text(fh.read(), source_name=config_path))
    values.update(env_overrides(environ))
    return build_experiment(values, **scan_kwargs)


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
            row = (
                _fmt(np.degrees(pt.theta1)),
                _fmt(pt.coincidences),
                _fmt(pt.singles1),
                _fmt(pt.singles2),
                _fmt(pt.accidentals),
            )
            fh.write(",".join(row) + "\n")

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
            vals = [float(p) for p in parts]
            rows.append(
                FringePoint(
                    theta1=np.radians(vals[0]),
                    coincidences=vals[1],
                    singles1=vals[2],
                    singles2=vals[3],
                    accidentals=vals[4],
                )
            )
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
    exp = load_experiment(args.config)
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


def _scan_overrides(args) -> dict:
    kwargs = {}
    for name in ("theta2_deg", "start_deg", "stop_deg", "step_deg", "mode"):
        val = getattr(args, name, None)
        if val is not None:
            kwargs[name] = val
    return kwargs


def _apply_run_overrides(exp: ExperimentConfig, args) -> ExperimentConfig:
    run = exp.run
    if getattr(args, "n_pulses", None) is not None:
        run = replace(run, n_pulses=args.n_pulses)
    if getattr(args, "seed", None) is not None:
        run = replace(run, seed=args.seed)
    if getattr(args, "workers", None) is not None:
        run = replace(run, workers=args.workers)
    return replace(exp, run=run)


def _cmd_scan(args, out) -> int:
    exp = load_experiment(args.config, **_scan_overrides(args))
    exp = _apply_run_overrides(exp, args)
    scan = run_scan(exp)
    if args.out is None:
        write_scan_csv(out, scan, exp)
    else:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_scan_csv(fh, scan, exp)
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
    exp = load_experiment(args.config)
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
    exp = fig3_experiment(
        n_pulses=args.n_pulses if args.n_pulses is not None else 10_000_000,
        seed=args.seed if args.seed is not None else 715_517,
        workers=args.workers if args.workers is not None else 1,
    )
    scan = run_scan(exp)
    if args.out is not None:
        with open(args.out, "w", encoding="utf-8") as fh:
            write_scan_csv(fh, scan, exp)
    if args.svg is not None:
        render_fringe_svg(args.svg, scan)
    print("# raw fit", file=out)
    _print_fit(fit_fringe(scan), out)
    print("# accidental-subtracted fit", file=out)
    _print_fit(fit_fringe(scan, use_accidental_subtraction=True), out)
    return 0


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
    p_scan.add_argument("--theta2-deg", dest="theta2_deg", type=float, default=None)
    p_scan.add_argument("--start-deg", dest="start_deg", type=float, default=None)
    p_scan.add_argument("--stop-deg", dest="stop_deg", type=float, default=None)
    p_scan.add_argument("--step-deg", dest="step_deg", type=float, default=None)
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
    p_chsh.add_argument("--a-deg", dest="a_deg", type=float, default=0.0)
    p_chsh.add_argument("--a-prime-deg", dest="a_prime_deg", type=float, default=45.0)
    p_chsh.add_argument("--b-deg", dest="b_deg", type=float, default=22.5)
    p_chsh.add_argument("--b-prime-deg", dest="b_prime_deg", type=float, default=67.5)
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
