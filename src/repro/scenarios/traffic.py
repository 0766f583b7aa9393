"""Turn a :class:`~repro.scenarios.campaign.Campaign` (or a drifting
market) into traffic.

The planner is the determinism boundary of the scenario harness: given
a campaign spec and a fresh, seed-matched :class:`CorpusGenerator`, it
produces the *exact same* per-day submission schedule every time.  The
runner can therefore replay one plan against a single in-process
service and a multi-shard router and compare verdict sets byte for
byte.

Planner-level coins (is this baseline draw malicious?  which family
does the wave pick next?) come from a dedicated RNG stream derived from
the campaign seed; app *content* comes from the generator's own
internal stream, so submission order alone fixes every blueprint.

:func:`plan_market_days` turns the day slices of a
:class:`~repro.drift.market.DriftingMarket` into the same schedule
shape, each submission carrying the market's review label.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.android.apk import Apk
from repro.corpus.generator import CorpusGenerator
from repro.drift.market import DriftingMarket
from repro.scenarios.campaign import AttackWave, Campaign

__all__ = ["PlannedSubmission", "plan_market_days", "plan_traffic"]

#: Offset separating the planner's coin stream from the generator's.
_PLANNER_STREAM_OFFSET = 17


@dataclass(frozen=True)
class PlannedSubmission:
    """One scheduled submission: an app, its lane, and its provenance.

    ``label`` is the review label the runner scores the served verdict
    against and feeds back: ground truth for campaign traffic, the
    market's (noisy) review label for a drifting market.
    """

    apk: Apk
    lane: str
    day: int
    wave: str | None  # None for organic baseline traffic
    label: bool


def _wave_app(
    wave: AttackWave,
    generator: CorpusGenerator,
    day: int,
    index: int,
    coins: np.random.Generator,
) -> Apk:
    """Sample the ``index``-th app of ``wave`` on ``day``."""
    if wave.kind == "repackaged":
        return generator.sample_repackaged(
            host_archetype=wave.host,
            payload_archetype=wave.payload,
            day=day,
        )
    if wave.kind == "family":
        family = wave.families[index % len(wave.families)]
        return generator.sample_evasive(
            family,
            day=day,
            force_probe=wave.force_probes,
            hide_signature=wave.hide_payload,
        )
    # "mixed": background-distribution volume — a flood, not a family.
    malicious = bool(coins.random() < 0.5)
    return generator.sample_app(malicious=malicious, day=day)


def plan_traffic(
    campaign: Campaign, generator: CorpusGenerator
) -> list[list[PlannedSubmission]]:
    """The campaign's full submission schedule, one list per day.

    ``generator`` must be freshly constructed with the campaign's seed
    (and a shared catalog, if verdicts are to be compared against a
    model trained on the same behaviour world) — the plan consumes its
    internal stream, so a reused generator yields a different schedule.

    Within a day, baseline traffic precedes the waves (in spec order):
    the attack arrives on top of the market's steady state.
    """
    coins = np.random.default_rng(campaign.seed + _PLANNER_STREAM_OFFSET)
    schedule: list[list[PlannedSubmission]] = []
    for day in range(campaign.days):
        planned: list[PlannedSubmission] = []
        for _ in range(campaign.baseline_per_day):
            malicious = bool(coins.random() < campaign.malware_rate)
            apk = generator.sample_app(
                malicious=malicious,
                day=day,
                update_prob=campaign.update_fraction,
            )
            planned.append(
                PlannedSubmission(apk, "bulk", day, None, apk.is_malicious)
            )
        for wave in campaign.waves:
            if not wave.active_on(day):
                continue
            for index in range(wave.per_day):
                apk = _wave_app(wave, generator, day, index, coins)
                planned.append(
                    PlannedSubmission(
                        apk, wave.lane, day, wave.name, apk.is_malicious
                    )
                )
        schedule.append(planned)
    return schedule


def plan_market_days(
    market: DriftingMarket, days: int
) -> list[list[PlannedSubmission]]:
    """Days ``0 .. days-1`` of a drifting market as a schedule.

    Every slice app is a ``bulk`` submission outside any wave, labelled
    with the market's review label.  Draw the market's bootstrap corpus
    first: slices generated here consume the market's one stream.
    """
    return [
        [
            PlannedSubmission(apk, "bulk", day, None, bool(label))
            for apk, label in zip(sl.corpus, sl.market_labels)
        ]
        for day, sl in enumerate(market.day_slices(0, days - 1))
    ]
