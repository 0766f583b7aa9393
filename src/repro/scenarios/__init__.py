"""Multi-day traffic replay over the online serving tier.

``repro.scenarios`` turns the repo's corpus generator and serving stack
into a red-team and drift harness: declarative, seeded
:class:`Campaign` specs describe multi-day attack timelines
(repackaging waves, evasion arms races, hidden loaders, label
poisoning, admission floods), and :func:`plan_market_days` turns a
drifting market's day slices into the same day-by-day schedule.  One
runner, :class:`CampaignRunner`, replays either through the real
:class:`~repro.serve.service.OnlineVettingService` or multi-shard
:class:`~repro.serve.shard.ShardRouter`, producing a structured
:class:`CampaignReport` of per-day precision/recall/F1, latency
percentiles, backpressure counts, rules-explanation coverage,
model-evolution decisions and, with drift monitors on, each day's
drift-monitor state.
"""

from repro.scenarios.campaign import (
    AttackWave,
    Campaign,
    bundled_campaigns,
    campaign_by_name,
)
from repro.scenarios.report import CampaignReport, DayReport
from repro.scenarios.runner import CampaignRunner, run_campaign
from repro.scenarios.traffic import (
    PlannedSubmission,
    plan_market_days,
    plan_traffic,
)

__all__ = [
    "AttackWave",
    "Campaign",
    "CampaignReport",
    "CampaignRunner",
    "DayReport",
    "PlannedSubmission",
    "bundled_campaigns",
    "campaign_by_name",
    "plan_market_days",
    "plan_traffic",
    "run_campaign",
]
