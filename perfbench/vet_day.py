"""``vet_day``: the daily market batch and the month-end retrain, in process.

The untraced run:

1. load the model from the ``ModelRegistry`` artifact and build a
   ``VettingService`` ``setup_launches`` times; ``setup_s`` is the
   median;
2. a small warm-up day, then ``days`` market days of fresh unique apps
   through ``VettingService.process_day`` with labels (triage) and the
   bundled rules.  Every app of a day gets its verdict when the day's
   report returns, so the day's wall time is each of its apps' verdict
   latency.  After each day (untimed) its verdicts are checked bitwise
   against the in-process reference;
3. the month-end retrain: ``ApiChecker.fit`` on the labelled training
   pool with its precomputed study observations.  The pool and seed are
   those the registry artifact was built from, so the retrained model
   must score like the artifact, bitwise.

The traced run times one untraced day as the base, then the traced days
and retrain, and splits ``process_day`` into its stages.
"""

from __future__ import annotations

import resource
import statistics
import time

import numpy as np

import reference
import stats
import tracing
import world


def _setup(ctx, n: int, workers: int):
    from repro.core.vetting import VettingService
    from repro.serve.registry import ModelRegistry

    times = []
    for _ in range(n):
        started = time.perf_counter()
        registry = ModelRegistry(ctx.models)
        service = VettingService(registry.active_checker(), workers=workers)
        times.append(time.perf_counter() - started)
    return service, registry.active_version, times


def _day(generator, n: int, seen: set):
    """``n`` fresh apps no earlier day of this run has submitted."""
    from repro.corpus.generator import AppCorpus

    apps = []
    while len(apps) < n:
        for apk in generator.generate(n - len(apps)):
            if apk.md5 not in seen:
                seen.add(apk.md5)
                apps.append(apk)
    return AppCorpus(generator.sdk, apps)


def _vet(service, corpus):
    started = time.perf_counter()
    cpu = time.process_time()
    report = service.process_day(corpus, true_labels=corpus.labels)
    return report, time.perf_counter() - started, time.process_time() - cpu


def _retrain(ctx, checker):
    from repro.core.checker import ApiChecker

    pool = world.load_pool(ctx.world)
    started = time.perf_counter()
    refit = ApiChecker(checker.sdk, seed=pool["checker_seed"]).fit(
        pool["observations"],
        labels=pool["labels"],
        study_observations=pool["observations"],
    )
    return refit, time.perf_counter() - started


def month_end(ctx, checker, version: int, apps, out: dict) -> dict:
    """Traced month-end pass for a serving run: the run's apps as one
    labelled market day through ``process_day`` (triage, rules), then
    the retrain.  Returns the per-layer times of the layers only this
    pass reaches; verdicts and the retrained model are checked as in
    :func:`run`.
    """
    from repro.core.vetting import VettingService
    from repro.corpus.generator import AppCorpus

    service = VettingService(checker, workers=1)
    corpus = AppCorpus(checker.sdk, list(apps))
    recorder = tracing.Recorder()
    recorder.install_vetting()
    try:
        report = service.process_day(corpus, true_labels=corpus.labels)
        refit, _ = _retrain(ctx, checker)
    finally:
        recorder.restore()
    observations = _check_day(checker, version, corpus, report, out, [])
    if not np.array_equal(checker.score_observations(observations),
                          refit.score_observations(observations)):
        out["problems"].append(
            "retrained model does not reproduce the registry artifact")

    def seconds(stage):
        return [(s[3] - s[2]) for s in recorder.spans if s[0] == stage]

    return {
        "ml.fit_s": statistics.median(seconds("ml.fit")),
        "selection.select_s": statistics.median(seconds("selection.select")),
        "vetting.triage_ms": 1e3 * statistics.median(
            seconds("vetting.triage")),
    }


def run(ctx, name: str, cfg: dict, trace: bool) -> dict:
    service, version, setups = _setup(ctx, cfg["setup_launches"],
                                      cfg["workers"])
    checker = service.checker
    generator = world.market(checker.sdk, ctx.seed)
    seen: set = set()
    # process_day raises when any app cannot be analyzed, so a finished
    # run has no failed operations.
    out: dict = {"problems": [], "attempted": 0, "failed": 0,
                 "error_rate": 0.0}
    truth: list[tuple[bool, bool]] = []
    _vet(service, _day(generator, cfg["warmup_apps"], seen))
    if trace:
        corpus = _day(generator, cfg["day_apps"], seen)
        report, base_wall, base_cpu = _vet(service, corpus)
        _check_day(checker, version, corpus, report, out, truth)
        out["attempted"] += len(corpus)
        recorder = tracing.Recorder()
        recorder.install_vetting()
    walls, reports = [], []
    try:
        for _ in range(cfg["days"]):
            corpus = _day(generator, cfg["day_apps"], seen)
            report, wall, _ = _vet(service, corpus)
            walls.append(wall)
            reports.append(report)
            observations = _check_day(checker, version, corpus, report,
                                      out, truth)
            out["attempted"] += len(corpus)
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        refit, retrain_s = _retrain(ctx, checker)
    finally:
        if trace:
            recorder.restore()
    if not np.array_equal(checker.score_observations(observations),
                          refit.score_observations(observations)):
        out["problems"].append(
            "retrained model does not reproduce the registry artifact")
    out["f1"] = reference.f1_score(*zip(*truth))
    apps = cfg["day_apps"]
    rate = apps * len(walls) / sum(walls)
    verdict = stats.summarize([wall for wall in walls for _ in range(apps)])
    out["e2e"] = {
        "setup_s": statistics.median(setups),
        "verdict_p50_s": verdict.p50,
        "verdict_tail_s": verdict.tail,
        "throughput_aps": rate,
        "rss_mb": rss_mb,
    }
    out["extra"] = {
        "day_apps_per_s": rate,
        "retrain_s": retrain_s,
        "verdict_tail_pct": verdict.tail_pct,
    }
    if trace:
        out["layer"], out["table"] = _per_layer(
            recorder, walls, reports, apps, base_wall, base_cpu)
    return out


def _per_layer(recorder, walls, reports, apps, base_wall, base_cpu):
    spans = recorder.spans
    day_spans = [s for s in spans if s[0] == "vetting.process_day"]

    def within(stage, window):
        return [s for s in spans if s[0] == stage
                and window[2] <= s[2] and s[3] <= window[3]]

    def ms(span):
        return (span[3] - span[2]) * 1e3

    stages = {name: [] for name in (
        "pipeline.run", "features.encode", "ml.score", "rules.evaluate",
        "vetting.triage", "vetting.self")}
    encode_ms = encode_rows = score_ms = score_rows = 0.0
    rules_calls = []
    for day in day_spans:
        children = []
        for stage in ("pipeline.run", "features.encode", "ml.score",
                      "rules.evaluate", "vetting.triage"):
            total = sum(ms(s) for s in within(stage, day))
            stages[stage].append(total)
            children.append(total)
        stages["vetting.self"].append(stats.self_times(ms(day), children))
        for s in within("features.encode", day):
            encode_ms += ms(s)
            encode_rows += s[1] or 0
        for s in within("ml.score", day):
            score_ms += ms(s)
            score_rows += s[1] or 0
        rules_calls.append(len(within("rules.evaluate", day)))
    rows, whole = stats.stage_table(stages, [ms(d) for d in day_spans])
    fits = [ms(s) / 1e3 for s in spans if s[0] == "ml.fit"]
    selects = [ms(s) / 1e3 for s in spans if s[0] == "selection.select"]
    minutes = [v.analysis_minutes for report in reports
               for v in report.verdicts]
    requeues = sum(report.requeues for report in reports)
    traced_p50 = statistics.median(walls)
    rules = [ms(s) for d in day_spans for s in within("rules.evaluate", d)]
    layer = {
        "http.submit_overhead_ms": 0.0,
        "http.result_overhead_ms": 0.0,
        "codec.decode_ms": 0.0,
        "router.proxy_ms": 0.0,
        "queue.admit_ms": 0.0,
        "queue.wal_bytes_per_sub": 0.0,
        "queue.wait_ms": 0.0,
        "queue.done_ms": 0.0,
        "dispatch.batch_size": float(apps),
        "dispatch.self_ms": statistics.median(stages["vetting.self"]),
        "pipeline.run_ms": statistics.median(stages["pipeline.run"]),
        "pipeline.sim_minutes_per_app": float(np.mean(minutes)),
        "pipeline.requeues": float(requeues),
        "pipeline.cache_hit_ratio": 0.0,
        "features.encode_ms_per_row": encode_ms / encode_rows,
        "ml.score_ms_per_row": score_ms / score_rows,
        "ml.fit_s": statistics.median(fits),
        "selection.select_s": statistics.median(selects),
        "rules.evaluate_ms": statistics.median(rules) if rules else 0.0,
        "rules.calls_per_batch": statistics.fmean(rules_calls),
        "vetting.triage_ms": statistics.median(stages["vetting.triage"]),
        "server.cpu_ms_per_sub": 1e3 * base_cpu / apps,
        "trace.unaccounted_ms": rows[-1][1],
        "trace.overhead_ratio": traced_p50 / base_wall,
        "load.lag_tail_ms": 0.0,
    }
    table = {
        "rows": rows,
        "verdict_p50_s": whole / 1e3,
        "unaccounted_ms": rows[-1][1],
        "n": len(day_spans),
        "base_verdict_p50_s": base_wall,
    }
    return layer, table


def _check_day(checker, version, corpus, report, out, truth):
    """One day's verdicts bitwise against the reference (untimed).

    Returns the day's reference observations; ``truth`` collects
    (label, verdict) pairs for F1.
    """
    refs, observations = reference.reference_verdicts(checker, list(corpus))
    for apk, verdict in zip(corpus, report.verdicts):
        outcome = {
            "status": "done", "md5": verdict.apk_md5,
            "malicious": bool(verdict.malicious),
            "probability": float(verdict.probability),
            "model_version": version,
        }
        why = reference.mismatch(apk.md5, outcome, refs[apk.md5], version)
        if why:
            out["problems"].append(why)
        truth.append((apk.is_malicious, bool(verdict.malicious)))
    return observations
