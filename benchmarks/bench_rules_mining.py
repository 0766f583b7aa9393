"""Rule mining gates — blind-spot closure, overhead, determinism.

The stock eight-rule bundle deliberately cannot name ``lowkey_spy``
behavior (``docs/rules.md``); ``repro.rules.mining`` exists to close
that gap from data.  This bench holds the subsystem to its three
promises (``docs/rule_mining.md``):

1. **Blind-spot closure** — the mined ruleset (bundled 8 + mined)
   reaches per-family rule recall >= 0.8 on fresh ``lowkey_spy`` apps
   the miner never saw, where the stock bundle scores exactly 0.0.
2. **Overhead** — explaining a paced 4-worker vetting day with the
   full mined set (>= 100 active rules) costs < 5% extra wall time
   over rules-off, same pacing discipline as
   ``bench_rules_overhead.py``.
3. **Determinism** — two independent mining runs over the same corpus
   and seed produce byte-identical artifacts.

Results land in ``benchmarks/results/rules_mining.json`` (override
with ``REPRO_RULES_MINING_BENCH_OUT``).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.core.pipeline import VettingPipeline
from repro.core.vetting import VettingService
from repro.corpus.generator import CorpusGenerator
from repro.obs import MetricsRegistry
from repro.rules import RuleEvaluator, builtin_ruleset, mine_from_corpus

#: Same slot-occupancy pacing as bench_rules_overhead / pipeline_scaling.
PACE = 0.008

#: Paced-day size for the overhead gate.
N_APPS = 200

#: Fresh lowkey_spy apps for the recall gate.
N_SPY = 50

#: Acceptance floors.
RECALL_FLOOR = 0.8
MAX_OVERHEAD = 0.05
MIN_ACTIVE_RULES = 100

MINE_SEED = 0


def _default_out() -> Path:
    override = os.environ.get("REPRO_RULES_MINING_BENCH_OUT")
    if override:
        return Path(override)
    return Path(__file__).parent / "results" / "rules_mining.json"


def _mining_corpus(world):
    """Family-balanced mining corpus, sized to the profile."""
    per_family = max(30, min(60, world.profile.n_train // 20))
    n_benign = max(300, min(700, world.profile.n_train // 2))
    gen = CorpusGenerator(
        world.sdk,
        seed=world.profile.seed + 70,
        catalog=world.generator.catalog,
    )
    return gen.generate_family_balanced(per_family, n_benign)


def _family_recall(specs, sdk, checker, observations, family) -> float:
    """Share of observations a ``family`` rule fires on (stage >= 1)."""
    evaluator = RuleEvaluator.from_specs(
        specs, sdk, tracked_api_ids=checker.key_api_ids
    )
    fam_of = {s.behavior: s.families for s in specs}
    hits = sum(
        1
        for report in evaluator.evaluate(observations)
        if any(
            family in fam_of[h.behavior] and h.stage >= 1
            for h in report.hits
        )
    )
    return hits / len(observations)


def _paced_day(checker, day, rules) -> float:
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
    service.process_day(day, true_labels=day.labels)
    return time.perf_counter() - t0


def test_rules_mining_gates(world, profile, fitted_checker_factory, once):
    checker = fitted_checker_factory()
    day = world.test.subset(range(min(N_APPS, len(world.test))))
    corpus = _mining_corpus(world)

    def run():
        mined = mine_from_corpus(checker, corpus, seed=MINE_SEED)
        again = mine_from_corpus(checker, corpus, seed=MINE_SEED)
        deterministic = again.to_json() == mined.to_json()

        # Fresh lowkey_spy apps the miner never saw.
        gen = CorpusGenerator(
            world.sdk,
            seed=profile.seed + 77,
            catalog=world.generator.catalog,
        )
        spy = [
            gen.sample_app(archetype="lowkey_spy") for _ in range(N_SPY)
        ]
        spy_obs = checker.production_engine.observations(spy)
        stock_recall = _family_recall(
            builtin_ruleset(), world.sdk, checker, spy_obs, "lowkey_spy"
        )
        mined_recall = _family_recall(
            mined.specs, world.sdk, checker, spy_obs, "lowkey_spy"
        )

        # Paced-day overhead with the full mined set live, interleaved
        # best-of so scheduler noise cannot masquerade as rule cost.
        evaluator = RuleEvaluator.from_specs(
            mined.specs, world.sdk, tracked_api_ids=checker.key_api_ids
        )
        walls = {"off": [], "on": []}
        for _ in range(2):
            walls["off"].append(_paced_day(checker, day, False))
            walls["on"].append(_paced_day(checker, day, evaluator))

        return {
            "n_rules": len(mined.specs),
            "n_mined": len(mined.rules),
            "sha256": mined.sha256,
            "deterministic": deterministic,
            "families": {k: dict(v) for k, v in mined.families.items()},
            "lowkey_spy_recall": {
                "stock": stock_recall,
                "mined": mined_recall,
                "n_apps": N_SPY,
            },
            "paced_day": {
                "apps": len(day),
                "pace": PACE,
                "wall_off_s": min(walls["off"]),
                "wall_on_s": min(walls["on"]),
            },
        }

    results = once(run)
    base = results["paced_day"]["wall_off_s"]
    full = results["paced_day"]["wall_on_s"]
    overhead = full / base - 1.0
    results["paced_day"]["overhead"] = overhead
    recall = results["lowkey_spy_recall"]

    out = _default_out()
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(results, indent=2, sort_keys=True) + "\n")

    print(f"\nRule mining ({profile.name} profile, seed {MINE_SEED}):")
    print(f"  ruleset: {results['n_mined']} mined + "
          f"{results['n_rules'] - results['n_mined']} bundled = "
          f"{results['n_rules']} rules  "
          f"(sha256 {results['sha256'][:12]}…)")
    print(f"  lowkey_spy recall on {recall['n_apps']} fresh apps: "
          f"stock {recall['stock']:.2f} -> mined {recall['mined']:.2f}")
    print(f"  paced day x{results['paced_day']['apps']}: "
          f"off {base:6.2f}s, mined-on {full:6.2f}s  "
          f"overhead {overhead * 100:+.1f}%")
    print(f"  deterministic: {results['deterministic']}")
    print(f"  results: {out}")

    assert results["deterministic"], (
        "same seed + corpus must produce byte-identical artifacts"
    )
    assert results["n_rules"] >= MIN_ACTIVE_RULES, (
        f"overhead gate needs >= {MIN_ACTIVE_RULES} active rules, "
        f"got {results['n_rules']}"
    )
    assert recall["stock"] == 0.0, (
        "the stock bundle is not supposed to cover lowkey_spy"
    )
    assert recall["mined"] >= RECALL_FLOOR, (
        f"mined lowkey_spy recall {recall['mined']:.2f} below "
        f"{RECALL_FLOOR}"
    )
    assert overhead < MAX_OVERHEAD, (
        f"rule-evaluation overhead {overhead:.1%} exceeds "
        f"{MAX_OVERHEAD:.0%} with {results['n_rules']} active rules"
    )
