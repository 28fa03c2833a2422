"""The benchmark's workloads: seeded inputs, one operation, output checks.

Each workload is a closed loop with a single caller.  ``generate`` builds
every input from the seed, ``op(i)`` is the timed operation and returns its
output, ``after(i, results)`` does per-scan work that belongs to the loop
but not to one operation, and ``check(results)`` compares every output with
the benchmark's own reference (``reference.py``) outside the timed region.
The package is reached through module attributes at call time, so the
traced run sees the wrappers that ``tracing.Tracer`` installs.
"""

from __future__ import annotations

import io
from pathlib import Path

import numpy as np

import reference as ref

GRID_DEG = np.arange(0.0, 360.0, 10.0)  # 36 analyzer-1 angles, as in reproduce-fig3
N_POINTS = len(GRID_DEG)
THETA2_DEG = 45.0
PULL_LIMIT = 5.0
N_SCAN_SEEDS = 1 << 14

# Pulses per operation.  mc-sparse uses reproduce-fig3's 10 M per angle:
# about 200 ms per op at 2 workers on a 2-CPU Xeon, and at least ~200
# expected counts in the smallest tally, so the 5-sigma pull test stays near
# its Gaussian false-alarm rate.  mc-dense: about 100 ms per op at 1 worker
# on the same machine.
SPARSE_PULSES = 10_000_000
DENSE_PULSES = 200_000


class MonteCarlo:
    """Scan points of a Monte Carlo polarization scan, one op per point.

    Op ``i`` is point ``i % 36`` of scan ``i // 36``, run with the child
    seed ``derive_seed(scan_seed, point)`` that ``polarization_scan`` uses.
    Every finished scan gets ``fit_fringe``, raw and accidental-subtracted.
    """

    def __init__(self, pp, seed: int, name: str) -> None:
        self.pp, self.seed, self.name = pp, seed, name

    def generate(self) -> None:
        pp = self.pp
        if self.name == "mc-sparse":
            exp = pp.cli.fig3_experiment(n_pulses=SPARSE_PULSES, workers=2)
            self.source, self.detector, self.run = exp.source, exp.detector, exp.run
            self.theta2 = np.radians(exp.theta2_deg)
        else:
            self.source = pp.source.SourceConfig(
                pump_angle=np.pi / 4,
                gain_up=1.0,
                gain_down=0.7,
                relative_phase=0.0,
                overlap_mu=0.8,
                mean_pairs_per_pulse=2.0,
            )
            self.detector = pp.counting.DetectorConfig(0.6, 0.6, 1e-3, 1e-3)
            self.run = pp.counting.RunConfig(n_pulses=DENSE_PULSES, workers=1)
            self.theta2 = np.radians(THETA2_DEG)
        self.theta1s = np.radians(GRID_DEG)
        gen = np.random.default_rng(self.seed)
        self.scan_seeds = [int(s) for s in gen.integers(0, 1 << 62, N_SCAN_SEEDS)]
        self.fits: list = []

    @property
    def pulses_per_op(self) -> int:
        return self.run.n_pulses

    def _run_config(self, i: int, workers: int):
        seed = self.pp.rng.derive_seed(self.scan_seeds[(i // N_POINTS) % N_SCAN_SEEDS], i % N_POINTS)
        return self.pp.counting.RunConfig(self.run.n_pulses, seed, workers)

    def op(self, i: int):
        return self.pp.counting.simulate_run(
            self.source,
            self.theta1s[i % N_POINTS],
            self.theta2,
            self.detector,
            self._run_config(i, self.run.workers),
        )

    def after(self, i: int, results: list) -> None:
        if i % N_POINTS != N_POINTS - 1 or i < N_POINTS - 1:
            return
        recs = results[i - N_POINTS + 1 : i + 1]
        if not all(isinstance(r, self.pp.counting.CountRecord) for r in recs):
            return
        analysis = self.pp.analysis
        scan = analysis.FringeScan(
            theta2=self.theta2,
            points=tuple(
                analysis.FringePoint(
                    theta1=t,
                    coincidences=float(r.coincidences),
                    singles1=float(r.singles1),
                    singles2=float(r.singles2),
                    accidentals=float(r.accidentals),
                )
                for t, r in zip(self.theta1s, recs)
            ),
            mode=analysis.MODE_MONTE_CARLO,
        )
        fits = (analysis.fit_fringe(scan), analysis.fit_fringe(scan, use_accidental_subtraction=True))
        self.fits.append((recs, fits))

    def check(self, results: list) -> tuple[int, int, list[str]]:
        """(attempted, failed, notes) over ops, scan fits and a determinism rerun."""
        src, det = self.source, self.detector
        rho = ref.source_state(
            src.pump_angle, src.gain_up, src.gain_down, src.relative_phase, src.overlap_mu
        )
        s1, s2, s12 = ref.pair_click_probs(
            rho, self.theta1s, self.theta2, det.efficiency1, det.efficiency2
        )
        p1, p2, pc, pa = ref.exact_rates(
            s1, s2, s12, src.mean_pairs_per_pulse, det.background_prob1, det.background_prob2
        )
        n = self.run.n_pulses
        failed, notes, worst = 0, [], 0.0
        for i, rec in enumerate(results):
            if isinstance(rec, Exception):
                failed += 1
                notes.append(f"op {i} raised {rec!r}")
                continue
            k = i % N_POINTS
            pulls = ref.count_pulls(
                n, p1[k], p2[k], pc[k], pa[k],
                rec.singles1, rec.singles2, rec.coincidences, rec.accidentals,
            )
            worst = max(worst, max(abs(p) for p in pulls))
            if rec.n_pulses != n or max(abs(p) for p in pulls) > PULL_LIMIT:
                failed += 1
                notes.append(f"op {i}: pulls {np.round(pulls, 2).tolist()} against the exact model")

        for recs, fits in self.fits:
            c = np.array([r.coincidences for r in recs], float)
            a = np.array([r.accidentals for r in recs], float)
            for fit, y in zip(fits, (c, np.maximum(0.0, c - a))):
                if not _fit_matches(fit, ref.fringe_fit(self.theta1s, y), 1e-9 * abs(fit.offset)):
                    failed += 1
                    notes.append(f"fringe fit {fit} disagrees with the normal equations")

        # determinism: point 0 again at another worker count and an odd chunk size
        first = results[0]
        other = 1 if self.run.workers > 1 else 2
        try:
            again = self.pp.counting.simulate_run(
                src, self.theta1s[0], self.theta2, det, self._run_config(0, other), chunk_size=77_777
            )
        except Exception as exc:  # counted as a failed check
            again = exc
        if again != first:
            failed += 1
            notes.append(f"determinism: {again} at workers={other}, chunk 77777 != {first}")
        notes.append(f"worst pull {worst:.2f} sigma over {4 * len(results)} tallies")
        return len(results) + 2 * len(self.fits) + 1, failed, notes


def _fit_matches(fit, expected, tol: float, phase_tol: float = 1e-6) -> bool:
    offset, amplitude, phase = expected
    dphase = abs(fit.phase - phase) % np.pi
    return (
        abs(fit.offset - offset) <= tol
        and abs(fit.amplitude - amplitude) <= tol
        and min(dphase, np.pi - dphase) <= phase_tol
    )


# --- analytic ----------------------------------------------------------------

# request parameters: name -> (low, high) of a uniform draw.  overlap_mu stops
# at 0.99: closer to 1 the smallest eigenvalue of rho*rho~ underflows into
# round-off and the Wootters eigenvalue recipe itself loses the 1e-10 the
# concurrence check asks for.
REQUEST_RANGES = {
    "pump_angle_deg": (10.0, 80.0),
    "gain_up": (0.2, 1.5),
    "gain_down": (0.2, 1.5),
    "relative_phase_deg": (0.0, 360.0),
    "overlap_mu": (0.0, 0.99),
    "mean_pairs_per_pulse": (0.001, 0.05),
    "efficiency1": (0.3, 0.9),
    "efficiency2": (0.3, 0.9),
    "background_prob1": (1e-5, 1e-3),
    "background_prob2": (1e-5, 1e-3),
}
N_REQUESTS = 1 << 13  # cycled if a run gets through more
CHSH_DEG = (0.0, 45.0, 22.5, 67.5)  # the CLI's default analyzer settings
FULL_CHECK_EVERY = 16


class Analytic:
    """Analysis requests through ``cli.run_command``, one op per request.

    A request writes a config file, then runs ``state``, ``scan --mode
    analytic --out <csv>``, ``fit <csv> --subtract-accidentals`` and
    ``chsh``, as a user would.
    """

    pulses_per_op = 0

    def __init__(self, pp, seed: int, tmpdir: Path) -> None:
        self.pp, self.seed, self.tmpdir = pp, seed, tmpdir

    def generate(self) -> None:
        gen = np.random.default_rng(self.seed)
        cols = {k: gen.uniform(lo, hi, N_REQUESTS) for k, (lo, hi) in REQUEST_RANGES.items()}
        cols["n_pulses"] = gen.integers(100_000, 10_000_000, N_REQUESTS)
        cols["theta2_deg"] = gen.uniform(0.0, 180.0, N_REQUESTS)
        self.requests = [
            {k: (int(v[j]) if k == "n_pulses" else float(v[j])) for k, v in cols.items()}
            for j in range(N_REQUESTS)
        ]
        self.cfg_path = str(self.tmpdir / "request.cfg")

    def after(self, i: int, results: list) -> None:
        pass

    def op(self, i: int):
        req = self.requests[i % N_REQUESTS]
        with open(self.cfg_path, "w", encoding="utf-8") as fh:
            for key, val in req.items():
                if key != "theta2_deg":
                    fh.write(f"{key} = {val!r}\n")
        csv = str(self.tmpdir / f"scan-{i}.csv")
        cfg = self.cfg_path
        argvs = (
            ["state", "--config", cfg],
            ["scan", "--config", cfg, "--mode", "analytic",
             "--theta2-deg", repr(req["theta2_deg"]), "--out", csv],
            ["fit", csv, "--subtract-accidentals"],
            ["chsh", "--config", cfg],
        )
        outputs = []
        for argv in argvs:
            out, err = io.StringIO(), io.StringIO()
            rc = self.pp.cli.run_command(argv, out=out, err=err)
            outputs.append((rc, out.getvalue(), err.getvalue()))
        return outputs

    def check(self, results: list) -> tuple[int, int, list[str]]:
        failed, notes = 0, []
        for i, res in enumerate(results):
            if isinstance(res, Exception):
                problem = f"raised {res!r}"
            else:
                try:
                    problem = self._check_one(i, res)
                except (ValueError, OSError) as exc:
                    problem = f"output unreadable: {exc}"
            if problem:
                failed += 1
                if len(notes) < 20:
                    notes.append(f"request {i}: {problem}")
        return len(results), failed, notes

    def _check_one(self, i: int, outputs) -> str | None:
        pp = self.pp
        req = self.requests[i % N_REQUESTS]
        for rc, _, err in outputs:
            if rc != 0 or err:
                return f"exit code {rc}, stderr {err.strip()!r}"
        state_out, _, fit_out, chsh_out = (o[1] for o in outputs)
        rad = {k: np.radians(req[k]) for k in ("pump_angle_deg", "relative_phase_deg", "theta2_deg")}
        rho = ref.source_state(
            rad["pump_angle_deg"], req["gain_up"], req["gain_down"],
            rad["relative_phase_deg"], req["overlap_mu"],
        )

        # concurrence: printed value, and the library value to 1e-10
        c_ref = ref.concurrence(rho)
        if abs(_value(state_out, "concurrence") - c_ref) > 6e-7:
            return "printed concurrence disagrees with the Wootters recipe"
        source = pp.source.SourceConfig(
            pump_angle=rad["pump_angle_deg"],
            gain_up=req["gain_up"],
            gain_down=req["gain_down"],
            relative_phase=rad["relative_phase_deg"],
            overlap_mu=req["overlap_mu"],
            mean_pairs_per_pulse=req["mean_pairs_per_pulse"],
        )
        if abs(pp.polarization.concurrence(pp.source.emitted_state(source)) - c_ref) > 1e-10:
            return "concurrence disagrees with the Wootters recipe beyond 1e-10"

        # CSV rows against the enumerated first-order model: rates to 1e-12
        # on top of the 9 significant digits the CLI writes
        n = req["n_pulses"]
        theta1s = np.radians(GRID_DEG)
        s = ref.pair_click_probs(rho, theta1s, rad["theta2_deg"], req["efficiency1"], req["efficiency2"])
        p1, p2, pc, pa = ref.first_order_rates(
            *s, req["mean_pairs_per_pulse"], req["background_prob1"], req["background_prob2"]
        )
        expected = np.column_stack([GRID_DEG, pc * n, p1 * n, p2 * n, pa * n])
        rows = _csv_rows(self.tmpdir / f"scan-{i}.csv")
        if rows is None or np.shape(rows) != expected.shape:
            return "CSV does not hold a 36-point scan"
        if np.any(np.abs(np.array(rows) - expected) > 1e-12 * n + _g9_half_step(expected)):
            return "CSV rates disagree with the enumerated first-order model"

        # every FULL_CHECK_EVERY-th request: the library's own scan to 1e-12,
        # and the CSV as exactly that scan written at %.9g
        if i % FULL_CHECK_EVERY == 0:
            det = pp.counting.DetectorConfig(
                req["efficiency1"], req["efficiency2"], req["background_prob1"], req["background_prob2"]
            )
            scan = pp.analysis.polarization_scan(
                source, det, pp.counting.RunConfig(n_pulses=n), rad["theta2_deg"], theta1s,
                mode=pp.analysis.MODE_ANALYTIC,
            )
            written = np.array([
                [np.degrees(p.theta1), p.coincidences, p.singles1, p.singles2, p.accidentals]
                for p in scan.points
            ])
            if np.max(np.abs(written[:, 1:] - expected[:, 1:])) > 1e-12 * n:
                return "analytic rates disagree with the enumerated first-order model beyond 1e-12"
            if any(got != float(f"{want:.9g}") for got, want in zip(np.ravel(rows), np.ravel(written))):
                return "CSV does not hold the scan at %.9g"

        # fit of the CSV against plain normal equations
        t = np.radians(np.array([r[0] for r in rows]))
        y = np.maximum(0.0, np.array([r[1] for r in rows]) - np.array([r[4] for r in rows]))
        offset, amplitude, phase = ref.fringe_fit(t, y)
        printed = {k: _value(fit_out, k) for k in ("offset", "amplitude", "fringe_max_deg", "visibility_fit")}
        tol = lambda v: 6e-7 + 1e-9 * abs(v)  # noqa: E731  (%.6f printing)
        dphase = abs(printed["fringe_max_deg"] - np.degrees(phase)) % 180.0
        vis = min(max(amplitude / offset, 0.0), 1.0)
        if (
            abs(printed["offset"] - offset) > tol(offset)
            or abs(printed["amplitude"] - amplitude) > tol(amplitude)
            or min(dphase, 180.0 - dphase) > 1e-5
            or abs(printed["visibility_fit"] - vis) > tol(vis)
        ):
            return f"fit {printed} disagrees with normal equations {(offset, amplitude, vis)}"

        s_ref = ref.chsh(rho, *np.radians(CHSH_DEG))
        if abs(_value(chsh_out, "S") - s_ref) > 6e-7:
            return "CHSH value disagrees with the reference"
        return None


def _g9_half_step(v: np.ndarray) -> np.ndarray:
    """Largest rounding error of writing ``v`` with ``%.9g``, plus float slack."""
    mag = np.abs(v)
    exponent = np.floor(np.log10(np.where(mag > 0, mag, 1.0)))
    return 0.5 * 10.0 ** (exponent - 8) * (1 + 1e-6)


def _value(text: str, key: str) -> float:
    """Number printed as ``key = value`` in a command's output."""
    for line in text.splitlines():
        name, sep, val = line.partition(" = ")
        if sep and name.strip() == key:
            return float(val)
    raise ValueError(f"no {key!r} in output")


def _csv_rows(path: Path):
    """Data rows of a scan CSV, or None when the header is missing."""
    lines = [ln.strip() for ln in path.read_text(encoding="utf-8").splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines or lines[0] != "theta1_deg,coincidences,singles1,singles2,accidentals":
        return None
    return [[float(v) for v in ln.split(",")] for ln in lines[1:]]
