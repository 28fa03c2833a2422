"""Pull table: Monte Carlo tallies against the exact-in-lambda rates.

    PYTHONPATH=src python tools/pull_table.py --runs 600

Runs R seeds at each of five fixed settings, run i of setting j seeded
``derive_seed(derive_seed(seed, j), i)``, all at analyzer angles 30 and 45
degrees:

  fig3        the reproduce-fig3 source and detectors at 1 M pulses;
  lambda 0.5  the dense source (gain_down 0.7, overlap_mu 0.8) at 200 k
  lambda 2    pulses, detectors (0.6, 0.6) with background 1e-3;
  lambda 20   the same with efficiencies 0.05 and 0.08, so not every
              pulse clicks;
  1/4096      background only, one click pulse per 4096 pulses, 4e8 pulses.

Each tally of each run (singles1, singles2, coincidences, accidentals) gives
one pull, (observed - mean) / sigma, from ``counting.tally_pulls`` against
``counting.exact_rates``.  Per setting and tally the table gives the mean
pull, the mean over its standard error SD / sqrt(R), the SD and the largest
|pull|, as a markdown table; the last line of stdout is the same table as
one JSON object.  Each setting has seeds of its own, so no two settings
read the same draws, and one setting's pulls do not move with another's.

The exit status is 0 when every mean lies within 3 standard errors of 0 and
every SD within [0.9, 1.15], and 1 otherwise.  A correct sampler still fails
by chance.  For 20 independent Gaussian tallies the mean bound alone misses
with chance 1 - (1 - 0.0027)^20, about 5.3 %.  The SD bound adds little at
the default R = 600, where a sample SD has spread 1 / sqrt(2 (R - 1)) =
0.029, but much at small R: the table fails by chance about 6 % of the
time at R = 600, 18 % at R = 300 and 65 % at R = 150 (chi-square tails of
the sample variance, Wilson-Hilferty approximation).
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from pulsepair import DetectorConfig, RunConfig, SourceConfig, emitted_state
from pulsepair.cli import fig3_experiment
from pulsepair.counting import exact_rates, simulate_run, tally_pulls
from pulsepair.rng import derive_seed

TALLIES = ("singles1", "singles2", "coincidences", "accidentals")
THETA1, THETA2 = np.radians(30.0), np.radians(45.0)
MEAN_BOUND = 3.0
SD_BOUNDS = (0.9, 1.15)


def settings() -> list[tuple[str, SourceConfig, DetectorConfig, int]]:
    """(name, source, detectors, pulses per run) of each row group."""
    fig3 = fig3_experiment(n_pulses=1_000_000)
    rows = [("fig3", fig3.source, fig3.detector, fig3.run.n_pulses)]
    for lam, eta1, eta2 in ((0.5, 0.6, 0.6), (2.0, 0.6, 0.6), (20.0, 0.05, 0.08)):
        src = SourceConfig(gain_down=0.7, overlap_mu=0.8, mean_pairs_per_pulse=lam)
        rows.append((f"lambda {lam:g}", src, DetectorConfig(eta1, eta2, 1e-3, 1e-3), 200_000))
    b = 1.0 - (1.0 - 1.0 / 4096) ** 0.5
    rows.append(("1/4096", SourceConfig(mean_pairs_per_pulse=0.0), DetectorConfig(0.6, 0.6, b, b),
                 400_000_000))
    return rows


def pull_rows(runs: int, seed: int) -> list[dict]:
    """One row per setting and tally: mean pull, mean / s.e., SD, max |pull|."""
    rows = []
    for j, (name, src, det, n) in enumerate(settings()):
        rates = exact_rates(emitted_state(src), THETA1, THETA2, src.mean_pairs_per_pulse, det)
        base = derive_seed(seed, j)
        records = [simulate_run(src, THETA1, THETA2, det, RunConfig(n, derive_seed(base, i)))
                   for i in range(runs)]
        pulls = np.array([tally_pulls(rec, rates) for rec in records])
        mean, sd = pulls.mean(0), pulls.std(0, ddof=1)
        for j, tally in enumerate(TALLIES):
            rows.append({
                "setting": name, "tally": tally, "mean": float(mean[j]),
                "mean_se": float(mean[j] / (sd[j] / np.sqrt(runs))), "sd": float(sd[j]),
                "max_abs": float(np.abs(pulls[:, j]).max()),
            })
    return rows


def within_bounds(row: dict) -> bool:
    return abs(row["mean_se"]) <= MEAN_BOUND and SD_BOUNDS[0] <= row["sd"] <= SD_BOUNDS[1]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=600, help="seeds per setting, at least 2")
    parser.add_argument("--seed", type=int, default=2718,
                        help="run i of setting j is seeded derive_seed(derive_seed(seed, j), i)")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")
    rows = pull_rows(args.runs, args.seed)
    ok = all(within_bounds(row) for row in rows)
    print(f"Pulls against exact_rates, {args.runs} runs per setting, seeds "
          f"derive_seed(derive_seed({args.seed}, j), i) for setting j, analyzers at 30 "
          "and 45 degrees.\n")
    print("| setting | tally | mean | mean/s.e. | SD | max \\|pull\\| |")
    print("|---|---|---|---|---|---|")
    for row in rows:
        flag = "" if within_bounds(row) else " **out of bounds**"
        print(f"| {row['setting']} | {row['tally']} | {row['mean']:+.3f} "
              f"| {row['mean_se']:+.2f} | {row['sd']:.3f} | {row['max_abs']:.2f}{flag} |")
    print(f"\nEvery mean within {MEAN_BOUND:g} s.e. and every SD in "
          f"[{SD_BOUNDS[0]}, {SD_BOUNDS[1]}]: {'yes' if ok else 'no'}")
    print(json.dumps({"runs": args.runs, "seed": args.seed, "ok": ok, "rows": rows}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
