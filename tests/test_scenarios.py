"""Tests for the adversarial campaign simulator (repro.scenarios)."""

import dataclasses
import json

import numpy as np
import pytest

from repro.corpus.generator import CorpusGenerator
from repro.corpus.market import poison_labels
from repro.emulator.device import DeviceEnvironment
from repro.scenarios import (
    AttackWave,
    Campaign,
    CampaignRunner,
    bundled_campaigns,
    campaign_by_name,
    plan_traffic,
)

TINY = Campaign(
    name="tiny",
    description="small deterministic probe campaign",
    seed=77,
    days=2,
    baseline_per_day=5,
    malware_rate=0.2,
    waves=(
        AttackWave(
            name="w", kind="family", per_day=3, days=2,
            families=("sms_fraud",),
        ),
    ),
)


# ----------------------------------------------------------------------
# Campaign spec
# ----------------------------------------------------------------------


def test_bundled_campaigns_round_trip_json():
    campaigns = bundled_campaigns()
    assert set(campaigns) == {
        "repackaging_wave",
        "evasion_arms_race",
        "hidden_loader",
        "label_noise",
        "burst_flood",
    }
    for name, campaign in campaigns.items():
        rebuilt = Campaign.from_json(campaign.to_json())
        assert rebuilt == campaign, name
        assert json.loads(campaign.to_json())["name"] == name


def test_campaign_by_name_raises_on_unknown():
    assert campaign_by_name("burst_flood").max_depth == 16
    with pytest.raises(KeyError, match="unknown campaign"):
        campaign_by_name("nope")


def test_campaign_validation():
    with pytest.raises(ValueError, match="days"):
        dataclasses.replace(TINY, days=0)
    with pytest.raises(ValueError, match="rate"):
        dataclasses.replace(TINY, malware_rate=1.5)
    with pytest.raises(ValueError, match="retrain_day"):
        dataclasses.replace(TINY, retrain_day=5)
    with pytest.raises(ValueError, match="max_depth"):
        dataclasses.replace(TINY, max_depth=0)


def test_wave_validation():
    with pytest.raises(ValueError, match="unknown wave kind"):
        AttackWave(name="x", kind="meteor", per_day=1)
    with pytest.raises(ValueError, match="payload and host"):
        AttackWave(name="x", kind="repackaged", per_day=1)
    with pytest.raises(ValueError, match="at least one family"):
        AttackWave(name="x", kind="family", per_day=1)
    wave = AttackWave(
        name="x", kind="family", per_day=2, start_day=1, days=2,
        families=("botnet",),
    )
    assert [wave.active_on(d) for d in range(4)] == [
        False, True, True, False
    ]


def test_scaled_keeps_waves_alive():
    scaled = bundled_campaigns()["repackaging_wave"].scaled(0.01)
    assert scaled.baseline_per_day >= 1
    assert all(w.per_day >= 1 for w in scaled.waves)
    doubled = TINY.scaled(2.0)
    assert doubled.baseline_per_day == 10
    assert doubled.waves[0].per_day == 6
    with pytest.raises(ValueError, match="positive"):
        TINY.scaled(0.0)


# ----------------------------------------------------------------------
# Traffic planning
# ----------------------------------------------------------------------


def test_plan_traffic_is_deterministic(sdk, catalog):
    plans = [
        plan_traffic(
            TINY, CorpusGenerator(sdk, seed=TINY.seed, catalog=catalog)
        )
        for _ in range(2)
    ]
    md5s = [
        [[s.apk.md5 for s in day] for day in plan] for plan in plans
    ]
    assert md5s[0] == md5s[1]


def test_plan_traffic_tags_waves_and_lanes(sdk, catalog):
    campaign = bundled_campaigns()["burst_flood"]
    plan = plan_traffic(
        campaign, CorpusGenerator(sdk, seed=campaign.seed, catalog=catalog)
    )
    assert len(plan) == campaign.days
    by_wave = {}
    for day, planned in enumerate(plan):
        for sub in planned:
            assert sub.day == day
            by_wave.setdefault(sub.wave, []).append(sub)
    assert len(by_wave[None]) == campaign.days * campaign.baseline_per_day
    assert len(by_wave["flood"]) == 64
    assert all(s.lane == "bulk" for s in by_wave["flood"])
    assert all(s.lane == "escalated" for s in by_wave["urgent"])


def test_repackaged_wave_apps_are_malicious_clones(sdk, catalog):
    campaign = bundled_campaigns()["repackaging_wave"].scaled(0.25)
    plan = plan_traffic(
        campaign, CorpusGenerator(sdk, seed=campaign.seed, catalog=catalog)
    )
    wave_apps = [
        s.apk for day in plan for s in day if s.wave == "repackage"
    ]
    assert wave_apps
    assert all(a.is_malicious for a in wave_apps)
    assert all(a.family == "sms_fraud@game" for a in wave_apps)


def test_evasive_and_hidden_wave_perturbations(sdk, catalog):
    arms = bundled_campaigns()["evasion_arms_race"].scaled(0.3)
    plan = plan_traffic(
        arms, CorpusGenerator(sdk, seed=arms.seed, catalog=catalog)
    )
    evasive = [s.apk for day in plan for s in day if s.wave == "evasive"]
    assert evasive
    assert all(a.dex.emulator_probes for a in evasive)

    hidden_c = bundled_campaigns()["hidden_loader"].scaled(0.3)
    plan = plan_traffic(
        hidden_c, CorpusGenerator(sdk, seed=hidden_c.seed, catalog=catalog)
    )
    hidden = [s.apk for day in plan for s in day if s.wave == "hidden"]
    assert hidden
    assert all(a.dex.uses_dynamic_loading for a in hidden)


# ----------------------------------------------------------------------
# Perturbation hooks
# ----------------------------------------------------------------------


def test_sample_repackaged_validates_roles(generator):
    with pytest.raises(ValueError, match="host must be benign"):
        generator.sample_repackaged("botnet", "sms_fraud")
    with pytest.raises(ValueError, match="payload must be a malware"):
        generator.sample_repackaged("game", "tool")


def test_sample_repackaged_grafts_payload_signature(generator, catalog):
    apk = generator.sample_repackaged("game", "sms_fraud")
    assert apk.is_malicious
    signature = set(int(x) for x in catalog.signature_of("sms_fraud"))
    called = set(apk.dex.call_sites.api_id.tolist())
    assert signature & called, "no payload signature APIs in the clone"


def test_sample_evasive_forces_probes(generator):
    apks = [
        generator.sample_evasive("botnet", force_probe=True)
        for _ in range(5)
    ]
    assert all(a.dex.emulator_probes for a in apks)


def test_sample_evasive_hides_signature_behind_reflection(
    generator, catalog
):
    signature = set(int(x) for x in catalog.signature_of("update_attack"))
    hits = 0
    for _ in range(5):
        apk = generator.sample_evasive("update_attack", hide_signature=True)
        assert apk.dex.uses_dynamic_loading
        called = set(apk.dex.call_sites.api_id.tolist())
        assert not (signature & called), "signature API left in the open"
        hits += len(signature & set(apk.dex.reflection_api_ids))
    assert hits > 0, "no signature APIs moved behind reflection"


def test_poison_labels():
    rng = np.random.default_rng(3)
    labels = np.array([True, False] * 50)
    assert (poison_labels(labels, 0.0, rng) == labels).all()
    assert (poison_labels(labels, 1.0, rng) == ~labels).all()
    flipped = poison_labels(labels, 0.3, np.random.default_rng(4))
    again = poison_labels(labels, 0.3, np.random.default_rng(4))
    assert (flipped == again).all()
    n = int(np.sum(flipped != labels))
    assert 0 < n < labels.size
    with pytest.raises(ValueError, match="flip_rate"):
        poison_labels(labels, 1.2, rng)


def test_with_env_rebuilds_engine_and_shares_model(fitted_checker):
    stock = fitted_checker.with_env(DeviceEnvironment.stock_emulator())
    assert stock.env == DeviceEnvironment.stock_emulator()
    assert stock.classifier is fitted_checker.classifier
    assert stock.feature_space is fitted_checker.feature_space
    assert stock.production_engine is not fitted_checker.production_engine
    assert stock.production_engine.env == stock.env
    assert fitted_checker.env == DeviceEnvironment.hardened_emulator()


# ----------------------------------------------------------------------
# Runner (in-process service)
# ----------------------------------------------------------------------


def test_runner_replays_campaign_in_process(
    tmp_path, fitted_checker, catalog
):
    runner = CampaignRunner(
        TINY, fitted_checker, catalog=catalog, workdir=tmp_path
    )
    report = runner.run()
    assert len(report.days) == TINY.days
    n_planned = sum(d.n_submitted for d in report.days)
    assert n_planned == TINY.planned_submissions
    assert report.lost == 0
    assert set(report.verdicts) == set(report.truths)
    assert all(
        report.first_day[md5] in (0, 1) for md5 in report.verdicts
    )
    for day in report.days:
        assert day.n_failed == 0
        assert day.latency_p95_s >= day.latency_p50_s > 0
        assert 0.0 <= day.precision <= 1.0
        assert 0.0 <= day.recall <= 1.0
        assert day.n_explained <= day.n_flagged
    # Round trip: the report serializes completely.
    payload = json.loads(report.to_json())
    assert payload["campaign"]["name"] == "tiny"
    assert payload["totals"]["lost"] == 0


def test_runner_counts_429s_and_loses_nothing_under_flood(
    tmp_path, fitted_checker, catalog
):
    flood = Campaign(
        name="miniflood",
        description="admission-bound flood",
        seed=31,
        days=1,
        baseline_per_day=2,
        max_depth=3,
        waves=(
            AttackWave(name="flood", kind="mixed", per_day=18),
            AttackWave(
                name="urgent", kind="mixed", per_day=2, lane="escalated"
            ),
        ),
    )
    runner = CampaignRunner(
        flood, fitted_checker, catalog=catalog, workdir=tmp_path
    )
    report = runner.run()
    assert report.rejected_429 > 0, "flood never hit admission control"
    assert report.lost == 0
    assert len(report.verdicts) == len(report.truths) == 22
    assert report.days[0].peak_queue_depth <= 3


def test_runner_retrains_at_day_boundary(
    tmp_path, fitted_checker, catalog, corpus, study_observations
):
    campaign = dataclasses.replace(TINY, retrain_day=0)
    runner = CampaignRunner(
        campaign,
        fitted_checker,
        catalog=catalog,
        workdir=tmp_path,
        train_corpus=corpus,
        train_observations=study_observations,
    )
    report = runner.run()
    assert len(report.evolution) == 1
    decision = report.evolution[0]
    assert decision["day"] == 0
    assert decision["decision"] in ("promoted", "rejected")
    assert decision["n_flipped"] == 0
    assert decision["n_feedback"] == 8


def test_runner_without_train_corpus_skips_retrain(
    tmp_path, fitted_checker, catalog
):
    campaign = dataclasses.replace(TINY, retrain_day=0)
    runner = CampaignRunner(
        campaign, fitted_checker, catalog=catalog, workdir=tmp_path
    )
    report = runner.run()
    assert report.evolution[0]["decision"] == "skipped"


# ----------------------------------------------------------------------
# Determinism across serving topologies
# ----------------------------------------------------------------------


def test_campaign_verdicts_identical_across_shard_counts(
    tmp_path, fitted_checker, catalog
):
    """Same seed, same campaign -> identical verdict sets through one
    in-process service and a 2-shard multi-process router."""
    single = CampaignRunner(
        TINY,
        fitted_checker,
        catalog=catalog,
        workdir=tmp_path / "one",
    ).run()
    sharded = CampaignRunner(
        TINY,
        fitted_checker,
        catalog=catalog,
        shards=2,
        workdir=tmp_path / "two",
    ).run()
    assert single.verdict_set() == sharded.verdict_set()
    assert single.shards == 1 and sharded.shards == 2
    assert sharded.lost == 0
