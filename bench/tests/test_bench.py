"""Tests of the benchmark harness itself.

    python3 -m pytest bench/tests -q
"""

import json
import signal
import sys
import time
import types
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import diracindex  # noqa: E402
import hostspeed  # noqa: E402
import jobs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from diracindex import polynomials, springer, suites, sun1  # noqa: E402


GOLDEN = json.loads(run.GOLDEN_PATH.read_text())["jobs"]


def _first_rounds(workload, seed, count=2):
    stream = jobs.rounds(workload, seed)
    return [[job.spec() for job in next(stream)] for _ in range(count)]


def test_one_seed_always_yields_the_same_jobs():
    for workload in jobs.WORKLOADS:
        assert _first_rounds(workload, 5) == _first_rounds(workload, 5)
        assert _first_rounds(workload, 5) != _first_rounds(workload, 6)


def test_golden_file_matches_the_default_seed_jobs():
    for workload in jobs.WORKLOADS:
        specs = [spec for spec, _ in GOLDEN[workload]]
        stream = jobs.rounds(workload, jobs.DEFAULT_SEED)
        generated = []
        while len(generated) < len(specs):
            generated += [job.spec() for job in next(stream)]
        assert generated[: len(specs)] == specs


def test_tracer_wraps_every_alias_and_restores_the_originals():
    originals = spans.bound_functions()
    product = polynomials.linear_form_product
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert springer.linear_form_product is polynomials.linear_form_product
        assert springer.linear_form_product.__wrapped__ is product
        assert sun1.poly_det.__wrapped__ is originals[("diracindex.polynomials", "poly_det")]
        assert suites.leading_limit is diracindex.asymptotics.leading_limit
        assert suites.leading_limit is not originals[("diracindex.suites", "leading_limit")]
        mul = polynomials.MultiPoly.__dict__
        assert mul["__rmul__"] is mul["__mul__"]
        assert spans.bound_functions() != originals
    finally:
        tracer.uninstall()
    assert spans.bound_functions() == originals


def test_untraced_run_sees_the_original_functions(monkeypatch):
    tracer = spans.Tracer()
    tracer.install()
    tracer.uninstall()
    originals = spans.bound_functions()
    seen = []
    run_job = jobs.run_job

    def probe(job):
        seen.append(spans.bound_functions() == originals)
        return run_job(job)

    monkeypatch.setattr(jobs, "run_job", probe)
    caches = spans.CacheStats(spans.cache_inventory())
    result = run.run_pass("divide", 3, GOLDEN, caches, 1)
    assert result.attempted == len(seen) > 0 and not result.failures
    assert all(seen)


def test_traced_pass_attributes_self_time_to_layers():
    tracer = spans.Tracer()
    caches = spans.CacheStats(spans.cache_inventory())
    tracer.install()
    try:
        result = run.run_pass("divide", 3, GOLDEN, caches, 1, tracer=tracer)
    finally:
        tracer.uninstall()
    layer_s, layer_n = tracer.layer_totals()
    assert not result.failures
    assert layer_n["sun1"] >= result.attempted and layer_n["polynomials"] > 0
    assert 0 < sum(layer_s.values()) <= result.wall_s


# Cost in seconds of each expand tier, as the comments of jobs.EXPAND_TIERS give it.
TIER_S = {"tier1": 1.45, "tier2": 1.1, "tier3": 0.3, "tier4": 0.13, "tier5": 0.09,
          "tier6": 0.05, "tier7": 0.02}


def _simulated_expand_run(monkeypatch, slowdown):
    """An expand run at --seconds 24 in which each job takes its tier's cost
    times slowdown[tier] on a simulated clock, without running the job."""
    tier_of = {member: tier for tier, members in jobs.EXPAND_TIERS.items() for member in members}
    now = [0.0]

    def fake_job(job):
        tier = tier_of.get(f"{job.kind} {job.group.label()}", "tier7")
        now[0] += TIER_S[tier] * slowdown.get(tier, 1.0)
        return "", None

    monkeypatch.setattr(jobs, "run_job", fake_job)
    monkeypatch.setattr(jobs, "check_job", lambda job, data: None)
    monkeypatch.setattr(hostspeed, "time", types.SimpleNamespace(perf_counter=lambda: now[0]))
    monkeypatch.setattr(hostspeed, "sample", lambda passes=0: hostspeed.REF_S)
    caches = spans.CacheStats({})
    no_golden = {"expand": []}
    result = run.run_pass("expand", 7, no_golden, caches, jobs.run_rounds("expand", 24))
    return result.attempted, run.tail(result.times)[0], run.central_mean(result.times)


def test_job_time_metrics_grow_when_expand_jobs_slow_down(monkeypatch):
    jobs_base, tail_base, p50_base = _simulated_expand_run(monkeypatch, {})
    for slowdown in ({"tier1": 1.5, "tier2": 1.5}, {"tier2": 3.0}, {"tier2": 1.35},
                     {"tier1": 2.0}, {"tier5": 1.5}, {tier: 1.5 for tier in TIER_S}):
        jobs_slow, tail_slow, p50_slow = _simulated_expand_run(monkeypatch, slowdown)
        assert jobs_slow == jobs_base
        assert tail_slow >= tail_base and p50_slow >= p50_base
        if "tier2" in slowdown:
            assert tail_slow >= tail_base * slowdown["tier2"] * 0.999
        if "tier5" in slowdown:
            assert p50_slow >= p50_base * slowdown["tier5"] * 0.999


def test_calibrator_takes_tick_time_out_and_restores_the_alarm_handler():
    previous = signal.getsignal(signal.SIGALRM)
    clock = hostspeed.Calibrator()
    t0 = time.perf_counter()
    clock.start()
    while time.perf_counter() - t0 < 3.5 * hostspeed.TICK_S:
        pass
    wall, ref = clock.stop()
    outer = time.perf_counter() - t0
    spent = sum(seconds for _, seconds in clock.handled)
    assert len(clock.handled) >= 2 and len(clock.samples) == len(clock.handled) + 2
    assert 0 < wall <= outer - spent
    assert ref == pytest.approx(hostspeed.rescale(wall, sum(clock.samples) / len(clock.samples)))
    assert signal.getsignal(signal.SIGALRM) is previous
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
