"""Benchmark of the diracindex package: one workload per process.

    python3 bench/run.py --workload expand --seed 1 --seconds 24 --trace 0

Jobs run as a closed loop (one caller; each job starts when the previous
one has finished) in this single-threaded process, in whole rounds.  The
number of rounds follows from --seconds and the nominal cost of a round
(jobs.run_rounds), not from the measured time, so every commit runs the
same jobs for a given seed.  Every output is checked outside the timed
region: against the golden sha256 digests in golden.json and against
invariants that hold for every seed.

Job and setup times are reported in reference seconds: each wall time is
rescaled by the time of a fixed calibration kernel sampled around and
during it (hostspeed.py), so the slow and fast phases of a shared host
cancel.  The summary lines also print the plain wall-clock figures.

--trace 0 reports the end-to-end metrics.  --trace 1 runs half of those
rounds once with span tracing, then replays them untraced, and reports
the per-layer metrics and the tracing overhead.  The last line of stdout
is one JSON object; the lines before it are a human-readable summary.
Exit code 2 means the package source is missing next to this directory.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass, field
from pathlib import Path

import hostspeed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
GOLDEN_PATH = BENCH_DIR / "golden.json"
SETUP_SAMPLES = 16
# The child times the calibration kernel right after the import, on its
# own CPU: the two vCPUs of the host go through their phases apart.
SETUP_CODE = (
    "import sys, time\n"
    "t0 = time.perf_counter()\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "import diracindex, diracindex.cli\n"
    "diracindex.cli.build_parser()\n"
    "elapsed = time.perf_counter() - t0\n"
    "sys.path.insert(0, sys.argv[2])\n"
    "import hostspeed\n"
    "sys.stdout.write(repr(hostspeed.rescale(elapsed, hostspeed.sample(4))))\n"
)


def load_package():
    """Import diracindex from this checkout's src/, never from elsewhere."""
    init = SRC / "diracindex" / "__init__.py"
    if not init.is_file():
        print(f"error: {init} not found; run from a checkout of the repository",
              file=sys.stderr)
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import diracindex

    if Path(diracindex.__file__).resolve() != init.resolve():
        print(f"error: imported diracindex from {diracindex.__file__}, not {init}",
              file=sys.stderr)
        raise SystemExit(2)


def time_setup() -> float:
    """Time in reference seconds for a fresh interpreter to import the
    package and build the CLI parser."""
    out = subprocess.run(
        [sys.executable, "-I", "-c", SETUP_CODE, str(SRC), str(BENCH_DIR)],
        check=True, capture_output=True, text=True, timeout=60,
    )
    return float(out.stdout)


@dataclass
class PassResult:
    times: list[float] = field(default_factory=list)  # reference seconds
    wall: list[float] = field(default_factory=list)  # wall seconds
    failures: list[tuple[int, str]] = field(default_factory=list)  # (job index, reason)
    digests: list[tuple[str, str]] = field(default_factory=list)  # (job spec, sha256)
    bytes_out: int = 0

    @property
    def attempted(self) -> int:
        return len(self.times)

    @property
    def timed_s(self) -> float:
        return sum(self.times)

    @property
    def wall_s(self) -> float:
        return sum(self.wall)


def run_pass(workload, seed, golden, caches, rounds, tracer=None,
             before_round=None) -> PassResult:
    """Run the first `rounds` whole rounds of the seeded job sequence,
    calling before_round() ahead of each."""
    import jobs

    clear_each = jobs.CLEARS_CACHES[workload]
    # Any job whose spec was recorded is checked against its digest; the
    # default seed must also reproduce the recorded job sequence.
    known = dict(golden[workload])
    recorded = golden[workload] if seed == jobs.DEFAULT_SEED else []
    result = PassResult()
    clock = hostspeed.Calibrator(ticks=tracer is None)
    caches.clear()
    stream = jobs.rounds(workload, seed)
    for _ in range(rounds):
        if before_round is not None:
            before_round()
        for job in next(stream):
            run_one(job, result, recorded, known, caches, clear_each, tracer, clock)
    return result


def run_one(job, result, recorded, known, caches, clear_each, tracer, clock) -> None:
    """Time one job, then check its output outside the timed region."""
    import jobs

    if clear_each:
        caches.clear()
    caches.mark()
    clock.start()
    if tracer is not None:
        tracer.enabled = True
    try:
        text, data = jobs.run_job(job)
        error = None
    except Exception as exc:  # a raising job is a failed job
        text, data, error = "", None, f"{type(exc).__name__}: {exc}"
    if tracer is not None:
        tracer.enabled = False
    wall, ref = clock.stop()
    result.times.append(ref)
    result.wall.append(wall)
    caches.collect()
    index = result.attempted - 1
    result.bytes_out += len(text.encode())
    spec, digest = job.spec(), jobs.digest(text)
    result.digests.append((spec, digest))
    if error is None:
        error = jobs.check_job(job, data)
    if error is None and index < len(recorded) and recorded[index][0] != spec:
        error = f"job {index} is {spec}, golden.json has {recorded[index][0]}"
    if error is None and spec in known and known[spec] != digest:
        error = "output differs from the golden digest"
    if error is not None:
        result.failures.append((index, f"{spec}: {error}"))


def tail(times: list[float]) -> tuple[float, float, int]:
    """(value, percentile, jobs beyond it) at the highest percentile with
    ten jobs beyond it, or at the slowest job when there are too few."""
    ordered = sorted(times)
    n = len(ordered)
    index = n - 11 if n > 10 else n - 1
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index


def central_mean(times: list[float]) -> float:
    """Mean of the job times between the 40th and the 60th percentile.

    An estimate of the median that moves smoothly when the host switches
    between fast and slow phases during a run, where the median itself
    jumps between the two; like the median it can only grow when some
    jobs get slower."""
    ordered = sorted(times)
    n = len(ordered)
    cut = 2 * n // 5
    return statistics.fmean(ordered[cut:n - cut])


def metric(value, unit):
    return {"value": value, "unit": unit}


def end_to_end(workload, seed, seconds, golden) -> tuple[dict, PassResult]:
    import jobs
    import spans

    # Setup samples are spread over the run, a few before each round, so
    # they see the host's phases as the jobs do.  One unmeasured start
    # first writes the bytecode cache.
    rounds = jobs.run_rounds(workload, seconds)
    per_round = -(-SETUP_SAMPLES // rounds)
    time_setup()
    setup = []

    def sample_setup():
        setup.extend(time_setup() for _ in range(per_round))

    caches = spans.CacheStats(spans.cache_inventory())
    result = run_pass(workload, seed, golden, caches, rounds, before_round=sample_setup)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    tail_s, pct, beyond = tail(result.times)
    correct = result.attempted - len(result.failures)
    print(f"jobs={result.attempted} rounds={rounds} timed_s={result.timed_s:.3f} "
          f"wall_s={result.wall_s:.3f} tail=p{pct:.1f} ({beyond} jobs beyond)")
    print(f"wall: jobs_per_s={correct / result.wall_s} job_s.p50={central_mean(result.wall)} "
          f"job_s.tail={tail(result.wall)[0]}")
    print(f"fail_ratio={len(result.failures) / result.attempted} ratio "
          f"({len(result.failures)} of {result.attempted} jobs)")
    metrics = {
        "setup_s": metric(statistics.median(setup), "s"),
        "jobs_per_s": metric(correct / result.timed_s, "1/s"),
        "job_s.p50": metric(central_mean(result.times), "s"),
        "job_s.tail": metric(tail_s, "s"),
        "peak_rss_mb": metric(peak_mb, "MB"),
    }
    return metrics, result


def per_layer(workload, seed, seconds, golden) -> tuple[dict, PassResult, bool]:
    import jobs
    import spans

    tracer = spans.Tracer()
    caches = spans.CacheStats(spans.cache_inventory())
    originals = spans.bound_functions()

    from diracindex.polynomials import MultiPoly

    def poly_out(result):
        if isinstance(result, MultiPoly):
            tracer.count("polynomials.terms_out", len(result.terms))
            tracer.peak("polynomials.max_terms", len(result.terms))

    hooks = {
        "springer.generator_poly":
            lambda poly: tracer.count("springer.generator_poly.terms_out", len(poly.terms)),
        "polynomials.divides": lambda hit: tracer.count("polynomials.divides.hits", bool(hit)),
        "kmodules.weight_multiset":
            lambda wm: tracer.count("kmodules.weights_out", len(wm.mults)),
        "asymptotics.leading_limit": lambda rep: tracer.count("asymptotics.matches", rep.match),
    }
    tracer.install(hooks, {"polynomials": poly_out})
    rounds = max(1, jobs.run_rounds(workload, seconds) // 2)
    try:
        traced = run_pass(workload, seed, golden, caches, rounds, tracer=tracer)
    finally:
        tracer.uninstall()
    restored = spans.bound_functions() == originals
    plain = run_pass(workload, seed, golden, spans.CacheStats(caches.caches), rounds)

    self_s, calls = tracer.self_times()
    layer_s, layer_n = tracer.layer_totals()
    out = {}
    for layer in spans.LAYERS:
        out[f"{layer}.calls"] = metric(layer_n[layer], "count")
        out[f"{layer}.self_s"] = metric(layer_s[layer], "s")

    def ratio(num, den):
        return num / den if den else 0.0

    counts = tracer.counts
    for name in ("polynomials.mul", "kmodules.weight_multiset"):
        out[f"{name}.calls"] = metric(calls.get(name, 0), "count")
        out[f"{name}.self_s"] = metric(self_s.get(name, 0.0), "s")
    for name in ("series.mul", "series.divide", "series.exponential",
                 "asymptotics.character_series", "kmodules.virtual_k_type",
                 "dirac.evaluate_index"):
        out[f"{name}.calls"] = metric(calls.get(name, 0), "count")
    for name in ("weylaction.dim_poly", "polynomials.restrict", "polynomials.divide",
                 "polynomials.det", "groups.weyl_elements"):
        out[f"{name}.self_s"] = metric(self_s.get(name, 0.0), "s")
    out["polynomials.terms_out"] = metric(counts.get("polynomials.terms_out", 0), "count")
    out["polynomials.max_terms"] = metric(counts.get("polynomials.max_terms", 0), "count")
    out["springer.generator_poly.terms_out"] = metric(
        counts.get("springer.generator_poly.terms_out", 0), "count")
    out["polynomials.divides.hit_ratio"] = metric(
        ratio(counts.get("polynomials.divides.hits", 0), calls.get("polynomials.divides", 0)),
        "ratio")
    out["kmodules.weights_out"] = metric(counts.get("kmodules.weights_out", 0), "count")
    out["kmodules.cache_hit_ratio"] = metric(caches.hit_ratio("kmodules"), "ratio")
    out["groups.cache_hit_ratio"] = metric(caches.hit_ratio("groups"), "ratio")
    out["asymptotics.match_ratio"] = metric(
        ratio(counts.get("asymptotics.matches", 0), calls.get("asymptotics.leading_limit", 0)),
        "ratio")
    out["emit.bytes_out"] = metric(traced.bytes_out, "bytes")
    out["trace.overhead_ratio"] = metric(traced.timed_s / plain.timed_s, "ratio")
    out["trace.spans"] = metric(len(tracer.start), "count")
    print(f"traced jobs={traced.attempted} traced_s={traced.timed_s:.3f} "
          f"untraced_s={plain.timed_s:.3f} spans={len(tracer.start)}")
    combined = PassResult(traced.times + plain.times, traced.wall + plain.wall,
                          traced.failures + plain.failures)
    return out, combined, restored


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("expand", "divide", "character"))
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed; the default seed is the one golden.json records")
    parser.add_argument("--seconds", type=float, default=24)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    load_package()
    sys.path.insert(0, str(BENCH_DIR))
    import jobs

    if args.seed is None:
        args.seed = jobs.DEFAULT_SEED
    golden = json.loads(GOLDEN_PATH.read_text())["jobs"]
    print(f"workload={args.workload} seed={args.seed} python={platform.python_version()} "
          f"nproc={os.cpu_count()}")
    restored = True
    if args.trace:
        metrics, result, restored = per_layer(args.workload, args.seed, args.seconds, golden)
    else:
        metrics, result = end_to_end(args.workload, args.seed, args.seconds, golden)
    for _, failure in result.failures[:20]:
        print(f"FAIL {failure}", file=sys.stderr)
    if not restored:
        print("FAIL tracing wrappers were left installed", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(json.dumps({
        "correct": not result.failures and restored,
        "attempted": result.attempted,
        "failed": len(result.failures),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
