"""Rule-evaluation overhead — explanation must be (nearly) free.

The behavioral rule engine scores every *flagged* app of a vetting day
(`VettingService(rules=True)`, the default), so its cost rides on the
daily operational path.  This bench runs the same paced 4-worker
vetting day twice — rules disabled (baseline) and enabled — and
asserts the explained day costs **< 5%** extra wall time: one matmul
per evidence axis over the flagged slice must disappear next to the
emulator-occupancy time that dominates the production regime.

A micro section prints the raw evaluator rate (observations scored per
second against the bundled ruleset) for profiling reference.
"""

from __future__ import annotations

import time

from repro.core.pipeline import VettingPipeline
from repro.core.vetting import VettingService
from repro.obs import MetricsRegistry
from repro.rules import RuleEvaluator

#: Same slot-occupancy pacing as bench_pipeline_scaling.
PACE = 0.008

N_APPS = 200

#: Evaluator micro-benchmark observation count.
MICRO_OBS = 2_000

#: Maximum tolerated rule-evaluation overhead at 4 workers.
MAX_OVERHEAD = 0.05


def _paced_day(world, checker, day, rules: bool) -> float:
    registry = MetricsRegistry()
    service = VettingService(
        checker, workers=4, registry=registry, rules=rules
    )
    service.pipeline = VettingPipeline(
        checker.production_engine,
        workers=4,
        pace_seconds_per_minute=PACE,
        registry=registry,
        sink=service.sink,
    )
    t0 = time.perf_counter()
    report = service.process_day(day, true_labels=day.labels)
    wall = time.perf_counter() - t0
    if rules:
        assert len(report.behavior_reports) == report.n_flagged
    else:
        assert report.behavior_reports == ()
    return wall


def test_rules_overhead(world, fitted_checker_factory, once):
    checker = fitted_checker_factory()
    day = world.test.subset(range(min(N_APPS, len(world.test))))

    def run():
        walls = {"off": [], "on": []}
        # Interleave and keep the best of each variant so scheduler
        # noise cannot masquerade as rule-evaluation cost.
        for _ in range(2):
            walls["off"].append(_paced_day(world, checker, day, False))
            walls["on"].append(_paced_day(world, checker, day, True))

        evaluator = RuleEvaluator.builtin(
            world.sdk, tracked_api_ids=checker.key_api_ids
        )
        observations = list(world.test_observations)[:200]
        batch = (observations * (MICRO_OBS // len(observations) + 1))[
            :MICRO_OBS
        ]
        t0 = time.perf_counter()
        evaluator.evaluate(batch)
        eval_rate = MICRO_OBS / (time.perf_counter() - t0)
        return walls, eval_rate

    walls, eval_rate = once(run)
    base, full = min(walls["off"]), min(walls["on"])
    overhead = full / base - 1.0

    print(f"\nRule-evaluation overhead over {len(day)} apps, 4 workers "
          f"(pace {PACE}s per simulated minute):")
    print(f"  rules disabled: {base:6.2f}s wall")
    print(f"  rules enabled:  {full:6.2f}s wall  "
          f"overhead {overhead * 100:+.1f}%")
    print(f"  evaluator micro: {eval_rate / 1e3:.1f}K obs/s "
          f"against the bundled ruleset")

    assert overhead < MAX_OVERHEAD, (
        f"rule-evaluation overhead {overhead:.1%} exceeds "
        f"{MAX_OVERHEAD:.0%}"
    )
