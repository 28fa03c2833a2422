"""pulsepair benchmark: one command for every workload and metric.

    python3 perfbench/run.py --workload mc-sparse --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  Workloads (see ``workloads.py``):

  mc-sparse  the reproduce-fig3 scenario, workers=2: ~99 % of pulses empty
  mc-dense   lambda = 2, workers=1: every pulse carries ~2 pairs
  analytic   config -> state, scan --mode analytic, fit, chsh via the CLI

Each is a closed loop with one caller in one process.  ``--trace 0``
measures the end-to-end metrics untraced; throughput is reported as
``ref_ops_per_s``, ops per second scaled by a host-speed probe timed after
every op (``hostprobe.py``), because the shared host's speed drifts by more
than the bound between runs.  ``--trace 1`` runs every other op
with span wrappers on every layer (``tracing.py``), then runs per-layer
microbenchmarks, and reports the per-layer metrics.  Every
output is checked against ``reference.py`` after the timed region.  A report
goes to stdout first; the last line is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
import types
from pathlib import Path

# The workloads' linear algebra is 4x4 and 36x3: keep BLAS single-threaded
# so a run uses no more threads than its `workers` setting.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

import numpy as np  # noqa: E402

import hostprobe  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("mc-sparse", "mc-dense", "analytic")
SETUP_REPEATS = 7
IMPORT_REPEATS = 9
P99_MIN_OPS = 1000

_IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import pulsepair, pulsepair.cli; "
    "print(time.perf_counter() - t); print(pulsepair.__file__)"
)


class BenchError(Exception):
    """The benchmark cannot run here; reported without a result line."""


def _inside_src(path: str) -> bool:
    return Path(path).resolve().is_relative_to(SRC.resolve())


def import_seconds() -> float:
    """Median time to import pulsepair in a fresh interpreter."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("PULSEPAIR_")}
    env["PYTHONPATH"] = str(SRC)
    times = []
    for _ in range(IMPORT_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", _IMPORT_PROBE],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
        )
        lines = proc.stdout.split()
        if proc.returncode != 0 or len(lines) != 2 or not _inside_src(lines[1]):
            raise BenchError(f"cannot import pulsepair from {SRC}: {proc.stderr.strip()[-300:]}")
        times.append(float(lines[0]))
    return statistics.median(times)


def load_package() -> types.SimpleNamespace:
    sys.path.insert(0, str(SRC))
    try:
        import pulsepair
        from pulsepair import analysis, cli, counting, polarization, rng, source
    except ImportError as exc:
        raise BenchError(f"cannot import pulsepair from {SRC}: {exc}") from exc
    if not _inside_src(pulsepair.__file__):
        raise BenchError(f"pulsepair imported from {pulsepair.__file__}, not {SRC}")
    return types.SimpleNamespace(
        analysis=analysis, cli=cli, counting=counting, polarization=polarization,
        rng=rng, source=source,
    )


def run_loop(wl, results: list, seconds: float, probe, tracer=None):
    """Closed loop: the next op starts when the previous one returns.

    With a tracer, every other op (and its ``after`` step) runs traced; the
    parity flips with each 36-op scan so scan-level work splits evenly too.
    The host probe runs after every op, outside the op's time.  Returns
    untraced latencies, traced latencies, the untraced busy time (ops and
    their ``after`` steps), the probe times and the wall time.
    """
    lat: list = []
    traced_lat: list = []
    probe_s: list = []
    busy = 0.0
    t_start = time.perf_counter()
    deadline = t_start + seconds
    while True:
        i = len(results)
        traced = tracer is not None and (i + i // workloads.N_POINTS) % 2 == 1
        if traced:
            tracer.enable()
        try:
            t0 = time.perf_counter()
            try:
                res = wl.op(i)
            except Exception as exc:  # a failed op is counted, and the loop goes on
                if not any(isinstance(r, Exception) for r in results):
                    traceback.print_exc(file=sys.stderr)
                res = exc
            t1 = time.perf_counter()
            results.append(res)
            wl.after(i, results)
            t2 = time.perf_counter()
        finally:
            if traced:
                tracer.disable()
        if traced:
            traced_lat.append(t1 - t0)
        else:
            lat.append(t1 - t0)
            busy += t2 - t0
        probe_s.append(probe())
        if time.perf_counter() >= deadline and (tracer is None or traced_lat):
            return lat, traced_lat, busy, probe_s, time.perf_counter() - t_start


def per_call(fn, budget: float = 0.25, min_batches: int = 7) -> float:
    """Median seconds per call, timed in batches of at least ~1 ms."""
    t0 = time.perf_counter()
    fn()
    reps = max(1, int(1e-3 / max(time.perf_counter() - t0, 1e-9)))
    samples = []
    start = time.perf_counter()
    while len(samples) < min_batches or time.perf_counter() - start < budget:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        samples.append((time.perf_counter() - t0) / reps)
    return statistics.median(samples)


def microbenchmarks(pp, tmpdir: Path) -> dict:
    """Per-call costs of single layers on the mc-sparse (fig3) inputs.

    A metric whose function no longer exists is left out.
    """

    def fn(dotted: str):
        mod, _, name = dotted.partition(".")
        return getattr(getattr(pp, mod), name, None)

    out = {}
    exp = pp.cli.fig3_experiment(n_pulses=workloads.SPARSE_PULSES, workers=2)
    src, det = exp.source, exp.detector
    theta1s = np.radians(workloads.GRID_DEG)
    theta2 = np.radians(exp.theta2_deg)
    rho = pp.source.emitted_state(src)

    if mix64 := fn("rng.mix64"):
        words = np.arange(1 << 20, dtype=np.uint64)
        out["rng.ns_per_word"] = (per_call(lambda: mix64(words)) * 1e9 / words.size, "ns/word")
    if f := fn("source.emitted_state"):
        out["source.emitted_state_us"] = (per_call(lambda: f(src)) * 1e6, "us")
    if f := fn("polarization.concurrence"):
        out["polarization.concurrence_us"] = (per_call(lambda: f(rho)) * 1e6, "us")
    if f := fn("counting.expected_rates"):
        lam = src.mean_pairs_per_pulse
        out["counting.expected_rates_us"] = (
            per_call(lambda: f(rho, theta1s[3], theta2, lam, det)) * 1e6, "us")
    scan_fn = fn("analysis.polarization_scan")
    analytic = pp.analysis.MODE_ANALYTIC
    scan = scan_fn(src, det, exp.run, theta2, theta1s, mode=analytic)
    out["analysis.scan_analytic_ms"] = (
        per_call(lambda: scan_fn(src, det, exp.run, theta2, theta1s, mode=analytic)) * 1e3, "ms")
    if f := fn("analysis.fit_fringe"):
        out["analysis.fit_fringe_us"] = (
            per_call(lambda: f(scan, use_accidental_subtraction=True)) * 1e6, "us")
    path = tmpdir / "micro.csv"
    if f := fn("cli.write_scan_csv"):
        out["cli.write_csv_us"] = (per_call(lambda: f(str(path), scan, exp)) * 1e6, "us")
    if (f := fn("cli.load_scan_csv")) and path.exists():
        out["cli.load_csv_us"] = (per_call(lambda: f(str(path))) * 1e6, "us")

    # Mpulse/s at 2 workers over twice the 1-worker rate, one mc-sparse point
    sim, run_cfg = pp.counting.simulate_run, pp.counting.RunConfig
    times = {1: [], 2: []}
    for rep in range(5):
        for workers in ((1, 2) if rep % 2 == 0 else (2, 1)):
            t0 = time.perf_counter()
            sim(src, theta1s[0], theta2, det, run_cfg(exp.run.n_pulses, 12345, workers))
            times[workers].append(time.perf_counter() - t0)
    out["counting.parallel_efficiency"] = (
        statistics.median(times[1]) / (2.0 * statistics.median(times[2])), "ratio")
    return out


def layer_metrics(tracer: tracing.Tracer, wl, ops: int) -> dict:
    """Self-time shares and calls per op of each layer, from the traced ops."""
    total = sum(tracer.self_s.values()) or 1.0
    out = {}
    for layer in tracer.present:
        out[f"{layer}.self_share"] = (tracer.self_s[layer] / total, "fraction")
        out[f"{layer}.calls_per_op"] = (tracer.calls[layer] / ops, "count")
    pulses = ops * wl.pulses_per_op
    # 0 on a workload that simulates no pulses
    out["rng.words_per_pulse"] = (tracer.words / pulses if pulses else 0.0, "words/pulse")
    kernel = tracer.self_s["counting"] - tracer.func_self_s["counting._build_tables"]
    out["counting.ns_per_pulse"] = (kernel * 1e9 / pulses if pulses else 0.0, "ns/pulse")
    return out


def percentile_ms(lat: list, q: float) -> float:
    return float(np.percentile(lat, q)) * 1e3


def environment() -> list[str]:
    def getconf(name: str) -> str:
        try:
            res = subprocess.run(["getconf", name], capture_output=True, text=True, timeout=10)
            return res.stdout.strip() or "unknown"
        except OSError:
            return "unknown"

    sha = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        res = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
        sha = res.stdout.strip() or sha
    return [
        f"python {platform.python_version()}, numpy {np.__version__}, "
        f"nproc {len(os.sched_getaffinity(0))}, cpu_count {os.cpu_count()}",
        f"git sha {sha}",
        f"L1d {getconf('LEVEL1_DCACHE_SIZE')} B, L2 {getconf('LEVEL2_CACHE_SIZE')} B, "
        f"L3 {getconf('LEVEL3_CACHE_SIZE')} B; mix64 microbenchmark: 2^20 uint64 words, "
        "8 MiB updated in place per call (computed, not measured)",
        "BLAS threads " + os.environ.get("OPENBLAS_NUM_THREADS", "default"),
    ]


def make_workload(name: str, pp, seed: int, tmpdir: Path):
    if name == "analytic":
        return workloads.Analytic(pp, seed, tmpdir)
    return workloads.MonteCarlo(pp, seed, name)


def make_probe(wl) -> hostprobe.HostProbe:
    """The probe that does the kind of work ``wl``'s op does, on as many threads."""
    if isinstance(wl, workloads.MonteCarlo):
        return hostprobe.HostProbe("array", wl.run.workers)
    return hostprobe.HostProbe("python")


def bench(args, tmpdir: Path) -> tuple[list[str], dict]:
    for key in [k for k in os.environ if k.startswith("PULSEPAIR_")]:
        del os.environ[key]
    import_s = import_seconds()
    pp = load_package()
    wl = make_workload(args.workload, pp, args.seed, tmpdir)

    setups = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        wl.generate()
        wl.op(0)
        setups.append(time.perf_counter() - t0)
    setup_s = import_s + statistics.median(setups)

    results: list = []
    report = [f"workload {args.workload}, seed {args.seed}, closed loop, 1 caller"]
    report += environment()
    chunk = getattr(pp.counting, "_DEFAULT_CHUNK", None)
    if wl.pulses_per_op and chunk:
        report.append(f"{wl.pulses_per_op} pulses per op; default chunk {chunk} pulses, "
                      f"{chunk * 8 // 1024} KiB per uint64 array (computed)")
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    probe = make_probe(wl)
    try:
        probe()
        lat, traced_lat, busy, probe_s, wall = run_loop(wl, results, args.seconds, probe, tracer)
    finally:
        probe.close()
    ops = len(lat)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    attempted, failed, notes = wl.check(results)
    report += [f"check: {n}" for n in notes]
    report.append(
        f"{len(results)} ops in {wall:.2f} s, {len(traced_lat)} of them traced; "
        f"{attempted} outputs checked, {failed} failed; setup = import {import_s:.4f} s "
        f"+ median of {SETUP_REPEATS} (inputs + warm-up op)"
    )
    shown = {"fail_frac": (failed / attempted, "fraction")}
    if tracer:
        metrics = layer_metrics(tracer, wl, len(traced_lat))
        metrics["tracing_overhead"] = (
            statistics.median(traced_lat) / statistics.median(lat), "ratio")
        metrics.update(microbenchmarks(pp, tmpdir))
    else:
        # Ops per second of busy time, scaled by how much slower than its
        # reference time the host probe ran in between (``hostprobe.py``).
        ops_per_s = ops / busy
        host_slowdown = statistics.fmean(probe_s) / probe.reference_s
        metrics = {
            "setup_s": (setup_s, "s"),
            "ref_ops_per_s": (ops_per_s * host_slowdown, "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        report.append(
            f"host probe {probe.kind} x{len(probe_s)}: mean {statistics.fmean(probe_s) * 1e3:.4f} ms, "
            f"reference {probe.reference_s * 1e3:.4f} ms"
        )
        shown["ops_per_s"] = (ops_per_s, "1/s")
        shown["host_slowdown"] = (host_slowdown, "ratio")
        # Latency percentiles are reported, not gated.  On a shared 2-vCPU
        # Xeon host the analytic op ran at two speeds (~13 and ~21 ms) that
        # alternated every few seconds, so a run's p50 and p90 flipped
        # between them (IQR/median up to 0.39 and 0.23 over ten runs).
        shown["op_ms_p50"] = (percentile_ms(lat, 50), "ms")
        shown["op_ms_p90"] = (percentile_ms(lat, 90), "ms")
        if wl.pulses_per_op:
            shown["mpulse_per_s"] = (ops * wl.pulses_per_op / busy / 1e6, "Mpulse/s")
        if ops >= P99_MIN_OPS:
            shown["op_ms_p99"] = (percentile_ms(lat, 99), "ms")
            report.append(f"op_ms_p99 over {ops} ops")
    for name, (value, unit) in {**metrics, **shown}.items():
        report.append(f"{name:32s} {value:14.6g} {unit}")
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return report, result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    tmpdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        report, result = bench(args, tmpdir)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
    for line in report:
        print("# " + line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
