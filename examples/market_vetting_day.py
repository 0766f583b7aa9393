#!/usr/bin/env python3
"""A day at T-Market: vet a day's submissions on one analysis server.

Reproduces the production loop of §5.2: APICHECKER runs on a single
commodity server (16 emulator slots) and vets the day's submissions,
the flagged apps go through the false-positive triage workflow
(updates fast-vetted against their previous version), and published
malware that slips through is handled passively on user reports.

Run:  python examples/market_vetting_day.py
"""

from __future__ import annotations

import numpy as np

from repro import AndroidSdk, ApiChecker, CorpusGenerator, SdkSpec
from repro.core.vetting import VettingService
from repro.corpus.market import ReviewPipeline, TMarket

#: Scaled-down market day (the real T-Market sees ~10K/day).
APPS_PER_DAY = 600


def main() -> None:
    sdk = AndroidSdk.generate(SdkSpec(n_apis=2500, seed=11))
    generator = CorpusGenerator(sdk, seed=12)

    print("== Train APICHECKER on the historical corpus ==")
    history = generator.generate(1500)
    review = ReviewPipeline(seed=13)
    labels = review.label_corpus(history)  # the market's own labels
    checker = ApiChecker(sdk, seed=14).fit(history, labels=labels)
    print(f"key APIs: {checker.key_api_ids.size}")

    print("\n== Simulate one market day ==")
    market = TMarket(generator, review=review, apps_per_day=APPS_PER_DAY)
    day = market.next_day_submissions()
    true_labels = market.ingest(day)

    service = VettingService(checker)
    report = service.process_day(day, true_labels=true_labels)

    print(f"submissions: {report.n_apps}")
    print(
        f"flagged malicious: {report.n_flagged} "
        f"({report.flagged_fraction:.1%})"
    )
    print(
        f"per-app analysis: mean {report.mean_minutes:.2f} min, "
        f"median {report.median_minutes:.2f}, max {report.max_minutes:.2f} "
        "(paper: 1.3 min mean)"
    )
    print(
        f"server makespan: {report.schedule.makespan_minutes:.0f} min at "
        f"{report.schedule.utilization:.0%} slot utilization -> "
        f"{report.throughput_per_day:,.0f} apps/day capacity "
        "(paper: ~10K/day on one server)"
    )

    fp = report.fp_report
    print("\n== FP triage (active, daily) ==")
    print(
        f"flagged {fp.n_flagged}: {fp.n_confirmed_malicious} confirmed, "
        f"{fp.n_false_positives} false positives"
    )
    print(
        f"fast-vetted as updates: {fp.n_fast_vetted} "
        f"({fp.fast_vetted_fraction:.0%}; paper ~90%) — "
        f"{fp.manual_minutes:.0f} manual minutes total"
    )

    print("\n== FN triage (passive, on user reports) ==")
    published = [
        apk
        for apk, flagged in zip(day, (v.malicious for v in report.verdicts))
        if not flagged
    ]
    published_labels = np.array([a.is_malicious for a in published])
    fn = service.triage.triage_user_reports(published, published_labels)
    print(
        f"user reports: {fn.n_reports}, confirmed malicious: "
        f"{fn.n_confirmed_malicious}"
    )
    if fn.n_confirmed_malicious:
        print(
            f"of which barely using key APIs: "
            f"{fn.barely_uses_keys_fraction:.0%} (paper: 87%)"
        )


if __name__ == "__main__":
    main()
