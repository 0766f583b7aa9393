"""Tests for the scenario runner (repro.scenarios): adversarial
campaigns and the drifting-year replay."""

import dataclasses
import hashlib
import json

import numpy as np
import pytest

from repro.android.sdk import AndroidSdk, SdkSpec
from repro.core.checker import ApiChecker
from repro.corpus.generator import CorpusGenerator
from repro.corpus.market import poison_labels
from repro.drift.market import DriftingMarket
from repro.emulator.device import DeviceEnvironment
from repro.scenarios import (
    AttackWave,
    Campaign,
    CampaignRunner,
    bundled_campaigns,
    campaign_by_name,
    plan_market_days,
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
            assert sub.label == sub.apk.is_malicious
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


# ----------------------------------------------------------------------
# Drifting-year replay
# ----------------------------------------------------------------------

#: Per day of the smoke drifting year below, as the standalone
#: drift-year runner this one replaced reported it: (n_submitted,
#: n_flagged, precision, recall, f1, sha256 of the sorted (md5,
#: verdict, review label) triples).  That runner read an empty
#: precision or recall denominator as 0.0; the campaign convention
#: reads it as 1.0, which is the one difference allowed below.
DRIFT_YEAR_DAYS = [
    (12, 0, 0.0, 0.0, 0.0, "4406412d9e96619caa10370abee0d79463cfcf9123f7fbd2e4ae3139343f3e47"),
    (12, 2, 1.0, 1.0, 1.0, "0f8fa7cb65e88d0d38bff68dcc8ab28dd18ff1151672aa2d6edf51f203c22db5"),
    (12, 2, 1.0, 1.0, 1.0, "74accd5a99a1b6c817395d540c485a39928a808aff885a8b93a1c7e518108e2a"),
    (12, 0, 0.0, 0.0, 0.0, "e46c40b55c585472ac26164c6b47fe5b93a4ba6475672e356d72f709eca26b9f"),
    (12, 2, 1.0, 1.0, 1.0, "2b5b527311db0fabf2685db79ee8ff77e028953abb0367fcf25fea8919e16aee"),
    (12, 0, 0.0, 0.0, 0.0, "6f80283c75c5ebcc5ab6d29b032b4c2d7313d4fe526bda29c7cb23296afe9c6b"),
    (12, 0, 0.0, 0.0, 0.0, "1e97ef00308b1fa535ed8cd5d49eb739850f0337096317dbdedae90d5f37e0ad"),
    (12, 1, 1.0, 1.0, 1.0, "e60dc4d5dfef491d7d613127855c0d79ff9e22c8cf5833ff8ee6e2fdca154d9b"),
    (12, 2, 0.5, 1.0, 0.6666666666666666, "cf724b7e8ba36fbcaac25f7892f920fa7c9d0e73c73b9877af4f064bf78c6e3f"),
    (12, 0, 0.0, 0.0, 0.0, "7469b80a6ad5dfd0a99a9531ff5d9080755a8ae3c516afa8c6722f3c011a080b"),
    (12, 3, 0.6666666666666666, 1.0, 0.8, "c3e24e609f2bdcfee444661c2e2a52725532b6d669cae74aef8e8eaf934f0247"),
    (12, 0, 0.0, 0.0, 0.0, "b900db448cdf16c5b5f3f7aa6ace510739899751a810035534d52abe6519753e"),
    (12, 1, 0.0, 0.0, 0.0, "523d47086d49da3c72b8f6b3c2298b4a2ce74a6a503e6a396bea4bd3918ec419"),
    (12, 1, 1.0, 1.0, 1.0, "7d7c93d0bafbae5f73c3175384a47da67b944ae31cc30b20f75aafa0167e0781"),
    (12, 0, 0.0, 0.0, 0.0, "fef403317447fd06e6b2ec30f3e20e93f5bd3669a91fa773ac8af6dd15f709d9"),
    (12, 0, 0.0, 0.0, 0.0, "5ed2eeae6b4d1ab62f909b5414705da099db04d168bf94260722e615f7fc475c"),
    (12, 0, 0.0, 0.0, 0.0, "3adc3b35f2a6898e856e5d0cc9506cb3020b376f97473c2282afe14aab447e1d"),
    (12, 2, 0.0, 0.0, 0.0, "9fdc00d5d1a1236b40f543e7583dd123909018344138df8c73bc336bed4a5b41"),
    (12, 1, 1.0, 1.0, 1.0, "59e958c86e6474c725ba841cf0790a387401de7d9df73c43ff0d5c2d1d96476d"),
    (12, 2, 1.0, 1.0, 1.0, "77592e24c439378783999b5f1ea9dbda08edbfbf11e420a15722ccece7d5d7f9"),
    (12, 0, 0.0, 0.0, 0.0, "d4b32ccf78dcdca801a89f3f099fb674a2996815dc0eb5e480a88788fda01741"),
    (12, 1, 1.0, 0.5, 0.6666666666666666, "130435fa080b1c8763f15dc55a02534eb34abd533a8a46f9ba54f2a4e1295618"),
    (12, 0, 0.0, 0.0, 0.0, "4c56f93d138286dd927ba5d9512162df117a3e15030d843b48c9f2ee044e0ef4"),
    (12, 0, 0.0, 0.0, 0.0, "87aeb1e090e452841218d86c9a1ffeafc3ababee500d8944c67d5a7fd71faa77"),
]


def _replay_drift_year(workdir, batch_size):
    """A smoke drifting year (24 days x 12 apps) through the runner."""
    sdk = AndroidSdk.generate(SdkSpec(n_apis=1400, seed=11))
    market = DriftingMarket(
        sdk, seed=5, apps_per_day=12, days=24, sdk_release_every=10,
        fashion_shift_every=8, new_family_days=(12,),
    )
    boot = market.bootstrap(200)
    checker = ApiChecker(market.sdk, seed=0)
    observations = checker.study_engine().observations(boot)
    checker.fit(boot, study_observations=observations)
    campaign = Campaign(
        name="drift-year", description="smoke drifting year", seed=5,
        days=24, baseline_per_day=12,
    )
    return CampaignRunner(
        campaign,
        checker,
        schedule=plan_market_days(market, campaign.days),
        batch_size=batch_size,
        train_corpus=boot,
        train_observations=observations,
        drift_monitors=True,
        workdir=workdir,
    ).run()


@pytest.fixture(scope="module")
def drift_year(tmp_path_factory):
    return _replay_drift_year(tmp_path_factory.mktemp("drift-year"), 8)


def test_drift_year_matches_the_standalone_replay(drift_year):
    report = drift_year
    assert len(report.days) == len(DRIFT_YEAR_DAYS)
    for day, pinned in zip(report.days, DRIFT_YEAR_DAYS):
        md5s = [m for m, d in report.first_day.items() if d == day.day]
        triples = sorted(
            (m, report.verdicts[m], report.truths[m]) for m in md5s
        )
        digest = hashlib.sha256(repr(triples).encode()).hexdigest()
        assert (day.n_submitted, day.n_flagged, digest) == (
            pinned[0], pinned[1], pinned[5]
        ), day.day
        tp = sum(v and t for _, v, t in triples)
        fp = sum(v and not t for _, v, t in triples)
        fn = sum(t and not v for _, v, t in triples)
        empty = {
            "precision": tp + fp == 0,
            "recall": tp + fn == 0,
            "f1": tp + fp == 0 and tp + fn == 0,
        }
        served = {"precision": day.precision, "recall": day.recall,
                  "f1": day.f1}
        for name, old in zip(("precision", "recall", "f1"), pinned[2:5]):
            expected = 1.0 if empty[name] else old
            assert served[name] == expected, (day.day, name)


def test_drift_year_feeds_labels_back_and_snapshots_drift(drift_year):
    report = drift_year
    days = report.days
    assert all(d.drift is not None for d in days)
    # Every served day's review labels reached the rolling-F1 monitor.
    assert [d.drift["monitors"]["rolling_f1"]["samples"] for d in days] == [
        12 * (i + 1) for i in range(len(days))
    ]
    assert report.first_alarm_day == 14
    assert report.alarms_total == days[-1].drift["alarms_total"] == 1
    totals = report.to_dict()["totals"]
    assert totals["first_alarm_day"] == 14
    assert totals["alarms_total"] == 1


def test_drift_year_drift_is_independent_of_batch_size(
    tmp_path, drift_year
):
    """The PSI reference is the training set, not the first scored
    micro-batch, so the drift fields do not depend on how the
    dispatcher cut the traffic (below the PSI window of 1,000 rows,
    which this 288-app year stays under)."""
    single = _replay_drift_year(tmp_path, 1)
    assert [d.drift for d in single.days] == [
        d.drift for d in drift_year.days
    ]
    assert single.first_alarm_day == drift_year.first_alarm_day
    assert single.alarms_total == drift_year.alarms_total
    assert single.verdict_set() == drift_year.verdict_set()


def test_drift_monitors_need_one_in_process_service(
    fitted_checker, study_observations
):
    with pytest.raises(ValueError, match="in-process"):
        CampaignRunner(
            TINY, fitted_checker, shards=2, drift_monitors=True,
            train_observations=study_observations,
        )
    with pytest.raises(ValueError, match="train_observations"):
        CampaignRunner(TINY, fitted_checker, drift_monitors=True)
    with pytest.raises(ValueError, match="schedule holds 1 day"):
        CampaignRunner(TINY, fitted_checker, schedule=[[]])


def test_plan_market_days_carries_review_labels():
    market = DriftingMarket(
        AndroidSdk.generate(SdkSpec(n_apis=1400, seed=11)),
        seed=5, apps_per_day=4, days=3,
    )
    plan = plan_market_days(market, 2)
    assert len(plan) == 2
    for day, planned in enumerate(plan):
        sl = market.day_slice(day)
        assert [s.apk.md5 for s in planned] == [a.md5 for a in sl.corpus]
        assert [s.label for s in planned] == sl.market_labels.tolist()
        assert {(s.lane, s.day, s.wave) for s in planned} == {
            ("bulk", day, None)
        }
    with pytest.raises(ValueError, match="outside horizon"):
        plan_market_days(market, 4)
