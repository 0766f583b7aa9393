"""Open-loop load on ``/v1``: the serving workloads.

The workloads launch the real CLI (``python -m repro serve``), feed it
apps generated from the run's seed, and read verdicts back over HTTP.
The run, untraced:

1. launch the tier ``setup_launches`` times on fresh spools (the last
   launch stays up); ``setup_s`` is the median launch-to-healthy time;
2. a warm-up rung (not timed) whose apps also seed the resubmission
   pool, then the nominal rung, where latency is reported;
3. for ``ingest_unpaced``, a restart on the same spool (``replay_s``);
4. the rate ladder above the nominal rate, stopping at the first rung
   that fails or is invalid; ``throughput_aps`` is the most verdicts per
   second any rung returned, which the failing rung sets when it offers
   more than the tier sustains;
5. conservation from ``/v1/metrics.json`` and, after shutdown, every
   verdict against the in-process reference.

The traced run replaces steps 3 and 4 by a second, traced launch at
the nominal rate and derives the per-layer metrics from its spans.
"""

from __future__ import annotations

import json
import random
import statistics
from dataclasses import dataclass, field
from pathlib import Path

import loadgen
import reference
import stats
import tier
import tracing
import world


@dataclass
class Feed:
    """Unique apps drawn from the run's seed, and the resubmission pool."""

    generator: object
    rng: random.Random
    apps: dict = field(default_factory=dict)
    vetted: list = field(default_factory=list)

    def fresh(self, n: int, malware_rate: float | None = None) -> list:
        out = []
        while len(out) < n:
            kwargs = {} if malware_rate is None else {
                "malware_rate": malware_rate}
            for apk in self.generator.generate(n - len(out), **kwargs):
                if apk.md5 not in self.apps:
                    self.apps[apk.md5] = apk
                    out.append(apk)
        return out

    def subs(self, n: int, mix: dict) -> list[loadgen.Sub]:
        """``n`` submissions in the configured lane mix.

        A resubmission re-sends an md5 that already has a verdict, each
        at most once; fresh apps go to the bulk or escalated lane.
        """
        from repro.serve.codec import apk_to_dict

        lanes = []
        for _ in range(n):
            draw = self.rng.random()
            if draw < mix.get("resubmit", 0.0) and len(self.vetted) > sum(
                    lane == "resubmit" for lane in lanes):
                lanes.append("resubmit")
            elif draw < mix.get("resubmit", 0.0) + mix.get("escalated", 0.0):
                lanes.append("escalated")
            else:
                lanes.append("bulk")
        fresh = iter(self.fresh(sum(lane != "resubmit" for lane in lanes)))
        out = []
        for lane in lanes:
            if lane == "resubmit":
                apk = self.apps[self.vetted.pop(
                    self.rng.randrange(len(self.vetted)))]
            else:
                apk = next(fresh)
            body = json.dumps({"apk": apk_to_dict(apk), "lane": lane})
            out.append(loadgen.Sub(apk.md5, body.encode("utf-8"), lane))
        return out

    def settle(self, subs: list[loadgen.Sub]) -> None:
        """Fresh apps with a verdict become resubmission candidates."""
        self.vetted.extend(
            s.md5 for s in subs
            if s.lane != "resubmit" and s.verdict_at is not None
        )


class Deployment:
    """One launched tier plus the open-loop client attached to it."""

    def __init__(self, ctx, cfg: dict, spool: Path, tag: str, out: dict,
                 spans: Path | None = None):
        self.cfg = cfg
        self.out = out
        self.spool = spool
        self.server = tier.Server(
            tier.serve_argv(ctx.checkout, spool, ctx.models, cfg, spans),
            ctx.run_dir / f"server-{tag}.log",
            tier.server_env(ctx.checkout),
        ).start()
        self.client = loadgen.OpenLoop(
            "127.0.0.1", self.server.port, cfg["poll_cadence_s"],
            cfg["phased_polls"],
        ).start()

    def rung(self, rate: float, subs: list[loadgen.Sub]) -> loadgen.Rung:
        rung = self.client.run(loadgen.Rung(rate, subs))
        self.client.wait(subs, self.cfg["drain_timeout_s"])
        return rung

    def stop(self, kill: bool = False) -> None:
        self.client.close()
        if kill:
            self.server.kill()
        else:
            self.server.stop()
        self.out["verdictless_done"] = (
            self.out.get("verdictless_done", 0) + self.client.verdictless_done)


def run(ctx, name: str, cfg: dict, trace: bool) -> dict:
    from repro.serve.registry import ModelRegistry

    checker = ModelRegistry(ctx.models).active_checker()
    version = ModelRegistry(ctx.models).active_version
    feed = Feed(world.market(checker.sdk, ctx.seed),
                random.Random(f"{name}:{ctx.seed}"))
    out = _run_traced(ctx, cfg, feed) if trace else _run_plain(ctx, cfg, feed)
    _check(checker, version, feed, out)
    if trace and cfg.get("month_end"):
        import vet_day

        out["layer"].update(vet_day.month_end(
            ctx, checker, version, feed.apps.values(), out))
    return out


# ----------------------------------------------------------------------
# Untraced run: the end-to-end metrics
# ----------------------------------------------------------------------


def _launch_several(ctx, cfg: dict, out: dict):
    setups = []
    for i in range(cfg["setup_launches"]):
        dep = Deployment(ctx, cfg, ctx.run_dir / f"spool-{i}", f"setup{i}",
                         out)
        setups.append(dep.server.setup_s)
        if i < cfg["setup_launches"] - 1:
            dep.stop(kill=True)
    return dep, setups


def _warm_and_nominal(dep: Deployment, feed: Feed, cfg: dict, out: dict):
    """Warm-up rung (untimed) then the nominal rung; returns the latter."""
    from repro.serve.codec import apk_to_dict

    warm = feed.fresh(cfg["warmup_apps"] - cfg["warmup_malicious"])
    warm += feed.fresh(cfg["warmup_malicious"], malware_rate=1.0)
    subs = [
        loadgen.Sub(apk.md5, json.dumps(
            {"apk": apk_to_dict(apk), "lane": "bulk"}).encode(), "bulk")
        for apk in warm
    ]
    out["subs"] += dep.rung(cfg["warmup_rate"], subs).subs
    feed.settle(subs)
    nominal_subs = feed.subs(
        round(cfg["nominal_rate"] * cfg["nominal_s"]), cfg["mix"])
    cpu_before = dep.server.cpu_s()
    nominal = dep.rung(cfg["nominal_rate"], nominal_subs)
    out["cpu_s"] = dep.server.cpu_s() - cpu_before
    out["subs"] += nominal.subs
    feed.settle(nominal.subs)
    return nominal


def _judge(rung: loadgen.Rung, cfg: dict) -> stats.RungOutcome:
    verdicts = [s.verdict_s for s in rung.subs if s.verdict_at is not None]
    failed = sum(1 for s in rung.subs if not s.accepted) + sum(
        1 for s in rung.subs
        if s.accepted and (s.verdict_at is None
                           or s.outcome.get("status") != "done"))
    lag_tail = stats.summarize(rung.lag_ms).tail
    return stats.judge_rung(
        rung.rate, verdicts, failed, rung.backlog_at_end(), lag_tail,
        cfg["verdict_limit_s"], cfg["lag_limit_ms"],
    )


def _run_plain(ctx, cfg: dict, feed: Feed) -> dict:
    out = {"subs": [], "problems": [], "ladder": []}
    dep, setups = _launch_several(ctx, cfg, out)
    try:
        nominal = _warm_and_nominal(dep, feed, cfg, out)
        out["rss_mb"] = dep.server.peak_rss_mb()
        out["problems"] += tier.conservation(
            tier.metrics_snapshot(dep.server.port))
        if cfg["replay"]:
            dep.stop()
            dep = Deployment(ctx, cfg, dep.spool, "replay", out)
            out["replay_s"] = dep.server.setup_s
        outcomes = [(nominal, _judge(nominal, cfg))]
        for rate in cfg["ladder"]:
            if not (outcomes[-1][1].passed and outcomes[-1][1].valid):
                break
            n = min(cfg["rung_max_apps"], round(rate * cfg["rung_s"]))
            rung = dep.rung(rate, feed.subs(n, cfg["mix"]))
            out["subs"] += rung.subs
            feed.settle(rung.subs)
            outcomes.append((rung, _judge(rung, cfg)))
        out["problems"] += tier.conservation(
            tier.metrics_snapshot(dep.server.port))
    finally:
        dep.stop()
    best = stats.highest_passing([o for _, o in outcomes])
    out["ladder"] = [
        {"rate": o.rate, "passed": o.passed, "valid": o.valid,
         "reasons": o.reasons, "throughput": r.completion_rate()}
        for r, o in outcomes
    ]
    verdict = stats.summarize(
        [s.verdict_s for s in nominal.subs if s.verdict_at is not None])
    submit = stats.summarize(
        [s.submit_s * 1e3 for s in nominal.subs if s.accepted])
    out["e2e"] = {
        "setup_s": statistics.median(setups),
        "verdict_p50_s": verdict.p50,
        "verdict_tail_s": verdict.tail,
        # Measured, not scheduled: the first failing rung offers more
        # than the tier sustains, so its verdict rate is the capacity,
        # and a tier slower than the nominal rate reads below it.
        "throughput_aps": max(r["throughput"] for r in out["ladder"]),
        "rss_mb": out["rss_mb"],
    }
    out["extra"] = {
        "verdictless_done_answers": out["verdictless_done"],
        "submit_p50_ms": submit.p50,
        "submit_tail_ms": submit.tail,
        "submit_tail_pct": submit.tail_pct,
        "verdict_tail_pct": verdict.tail_pct,
        "nominal_samples": verdict.n,
        "max_rate_sps": best.rate if best else 0.0,
        "load_lag_tail_ms": stats.summarize(nominal.lag_ms).tail,
        "cpu_ms_per_sub": 1e3 * out["cpu_s"] / len(nominal.subs),
    }
    if "replay_s" in out:
        out["extra"]["replay_s"] = out["replay_s"]
    return out


# ----------------------------------------------------------------------
# Traced run: the per-layer metrics
# ----------------------------------------------------------------------


def _run_traced(ctx, cfg: dict, feed: Feed) -> dict:
    out = {"subs": [], "problems": []}
    base = Deployment(ctx, cfg, ctx.run_dir / "spool-base", "base", out)
    try:
        base_nominal = _warm_and_nominal(base, feed, cfg, out)
        base_cpu = out["cpu_s"]
        base_accepted = sum(1 for s in out["subs"] if s.accepted)
        out["problems"] += tier.conservation(
            tier.metrics_snapshot(base.server.port))
    finally:
        base.stop()
    # Resubmissions must re-send md5s the traced tier itself vetted.
    feed.vetted.clear()
    spans_path = ctx.run_dir / "spans.json"
    traced = Deployment(ctx, cfg, ctx.run_dir / "spool-traced", "traced",
                        out, spans=spans_path)
    try:
        nominal = _warm_and_nominal(traced, feed, cfg, out)
        snapshot = tier.metrics_snapshot(traced.server.port)
        out["problems"] += tier.conservation(snapshot)
    finally:
        traced.stop()
    spans, batches = tracing.load(spans_path)
    base_p50 = stats.summarize(
        [s.verdict_s for s in base_nominal.subs if s.verdict_at]).p50
    layer, table = per_layer(nominal, spans, batches, snapshot,
                             cfg["shards"] > 1)
    wal = sum(p.stat().st_size for p in
              (ctx.run_dir / "spool-base").rglob("queue.wal"))
    layer.update({
        "queue.wal_bytes_per_sub": wal / base_accepted,
        "server.cpu_ms_per_sub": 1e3 * base_cpu / len(base_nominal.subs),
        "load.lag_tail_ms": stats.summarize(base_nominal.lag_ms).tail,
        "trace.overhead_ratio": table["verdict_p50_s"] / base_p50,
    })
    out["layer"] = layer
    out["table"] = table
    out["table"]["base_verdict_p50_s"] = base_p50
    out["extra"] = {"verdictless_done_answers": out["verdictless_done"]}
    return out


def per_layer(nominal: loadgen.Rung, spans, batches, snapshot,
              sharded: bool) -> tuple[dict, dict]:
    """Per-layer metrics and the verdict stage table of a traced rung."""
    by_stage: dict[str, list] = {}
    for span in spans:
        by_stage.setdefault(span[0], []).append(span)
    keyed: dict[tuple[str, str], list] = {}
    for span in spans:
        if span[1] is not None:
            keyed.setdefault((span[0], str(span[1])), []).append(span)

    def ms(span):
        return (span[3] - span[2]) * 1e3

    def one(stage, md5):
        found = keyed.get((stage, md5))
        return found[0] if found else None

    subs = [s for s in nominal.subs if s.verdict_at is not None]
    front = "router.submit" if sharded else "http.submit"
    back = "router.result" if sharded else "http.result"
    submit_overhead, result_overhead = [], []
    client_polls: dict[str, list] = {}
    for s in subs:
        client_polls.setdefault(s.md5, []).extend(s.poll_times)
        handler = one(front, s.md5)
        if handler is not None and s.lane != "resubmit":
            submit_overhead.append((s.acked - s.sent) * 1e3 - ms(handler))
    for md5, polls in client_polls.items():
        # The k-th poll the client sent for an md5 is the k-th handler
        # span the server recorded for it; polls of the same md5 before
        # this rung (warm-up originals of resubmissions) sort first.
        handled = sorted(keyed.get((back, md5), []), key=lambda x: x[2])
        polls = sorted(polls)
        if len(handled) >= len(polls):
            for (sent, received), span in zip(polls, handled[-len(polls):]):
                result_overhead.append((received - sent) * 1e3 - ms(span))

    def median(values):
        return stats.harrell_davis(values, 50.0) if values else 0.0

    def per_row(stage):
        rows = sum(s[1] or 0 for s in by_stage.get(stage, []))
        total = sum(ms(s) for s in by_stage.get(stage, []))
        return total / rows if rows else 0.0

    n_batches = sum(1 for b in batches.values() if b["md5s"])
    layer = {
        "http.submit_overhead_ms": median(submit_overhead),
        "http.result_overhead_ms": median(result_overhead),
        "codec.decode_ms": median([ms(s) for s in by_stage.get(
            "codec.decode", [])]),
        "router.proxy_ms": median([ms(s) for s in by_stage.get(
            "router.proxy", []) if str(s[1]).startswith("POST")]),
        "queue.admit_ms": median([ms(s) for s in by_stage.get(
            "queue.admit", [])]),
        "queue.done_ms": median([ms(s) for s in by_stage.get(
            "queue.done", [])]),
        "pipeline.sim_minutes_per_app": statistics.fmean(
            s.outcome["analysis_minutes"] for s in subs
            if s.lane != "resubmit") if subs else 0.0,
        "pipeline.requeues": tier.counter_total(
            snapshot, "pipeline_requeues_total"),
        "pipeline.cache_hit_ratio": _hit_ratio(snapshot),
        "ml.fit_s": 0.0,
        "selection.select_s": 0.0,
        "vetting.triage_ms": 0.0,
    }
    if sharded:
        layer.update(_shard_layers(snapshot))
        table = _router_table(subs, keyed)
    else:
        layer.update({
            "queue.wait_ms": 0.0,
            "dispatch.batch_size": statistics.fmean(
                len(b["md5s"]) for b in batches.values() if b["md5s"]),
            "dispatch.self_ms": 0.0,
            "pipeline.run_ms": median([ms(s) for s in by_stage.get(
                "pipeline.run", [])]),
            "features.encode_ms_per_row": per_row("features.encode"),
            "ml.score_ms_per_row": per_row("ml.score"),
            "rules.evaluate_ms": median([ms(s) for s in by_stage.get(
                "rules.evaluate", [])]),
            "rules.calls_per_batch": len(by_stage.get(
                "rules.evaluate", [])) / max(1, n_batches),
        })
        table, waits, selfs = _dispatch_table(subs, keyed, by_stage,
                                              batches)
        layer["queue.wait_ms"] = median(waits)
        layer["dispatch.self_ms"] = median(selfs)
    layer["trace.unaccounted_ms"] = table["unaccounted_ms"]
    return layer, table


def _hit_ratio(snapshot) -> float:
    hits = tier.counter_total(snapshot, "pipeline_cache_hits_total")
    misses = tier.counter_total(snapshot, "pipeline_cache_misses_total")
    return hits / (hits + misses) if hits + misses else 0.0


def _dispatch_table(subs, keyed, by_stage, batches):
    """Stage table along each submission's verdict path (one shard)."""
    batch_of = {}
    for bid, batch in batches.items():
        for md5 in batch["md5s"]:
            batch_of[md5] = bid
    in_batch: dict[int, dict[str, list]] = {}
    for stage in ("pipeline.run", "features.encode", "ml.score",
                  "rules.evaluate", "queue.done"):
        for span in by_stage.get(stage, []):
            if span[4] is not None:
                in_batch.setdefault(span[4], {}).setdefault(
                    stage, []).append(span)
    names = ("load.send", "http.in", "codec.decode", "http.handler",
             "queue.admit", "queue.wait", "pipeline.run",
             "features.encode", "ml.score", "rules.evaluate", "queue.done",
             "dispatch.self", "poll.wait", "http.result")
    stages = {name: [] for name in names}
    totals, waits, selfs = [], [], []
    for s in subs:
        if s.lane == "resubmit":
            continue
        handler = (keyed.get(("http.submit", s.md5)) or [None])[0]
        decode = (keyed.get(("codec.decode", s.md5)) or [None])[0]
        admit = (keyed.get(("queue.admit", s.md5)) or [None])[0]
        bid = batch_of.get(s.md5)
        if None in (handler, decode, admit, bid) or not s.poll_times:
            continue
        spans = in_batch.get(bid, {})
        done = spans.get("queue.done", [])
        mine = next((d for d in done if d[1] == s.md5), None)
        if mine is None:
            continue
        done_before = [d for d in done if d[3] <= mine[3]]
        taken = batches[bid]["taken"]
        sent, received = s.poll_times[-1]
        row = {
            "load.send": s.sent - s.due,
            "http.in": handler[2] - s.sent,
            "codec.decode": decode[3] - decode[2],
            "http.handler": (admit[2] - handler[2]) - (decode[3] - decode[2]),
            "queue.admit": admit[3] - admit[2],
            "queue.wait": taken - admit[3],
            "queue.done": sum(d[3] - d[2] for d in done_before),
            "poll.wait": sent - mine[3],
            "http.result": received - sent,
        }
        for stage in ("pipeline.run", "features.encode", "ml.score",
                      "rules.evaluate"):
            row[stage] = sum(x[3] - x[2] for x in spans.get(stage, [])
                             if x[3] <= mine[3])
        row["dispatch.self"] = stats.self_times(mine[3] - taken, [
            row[k] for k in ("pipeline.run", "features.encode", "ml.score",
                             "rules.evaluate", "queue.done")])
        for name in names:
            stages[name].append(row[name] * 1e3)
        totals.append(s.verdict_s * 1e3)
        waits.append(row["queue.wait"] * 1e3)
    for bid, batch in batches.items():
        spans = in_batch.get(bid, {})
        if not batch["md5s"] or not spans.get("queue.done"):
            continue
        end = max(d[3] for d in spans["queue.done"])
        children = [x[3] - x[2] for stage in spans.values() for x in stage]
        selfs.append(stats.self_times(end - batch["taken"], children) * 1e3)
    return _table(stages, totals), waits, selfs


def _router_table(subs, keyed):
    """Router-side stage table: the shard's work is one opaque stage."""
    names = ("load.send", "http.in", "codec.decode", "router.self",
             "router.proxy", "shard+poll.wait", "http.result")
    stages = {name: [] for name in names}
    totals = []
    for s in subs:
        if s.lane == "resubmit" or not s.poll_times:
            continue
        handler = (keyed.get(("router.submit", s.md5)) or [None])[0]
        decode = (keyed.get(("codec.decode", s.md5)) or [None])[0]
        proxy = (keyed.get(("router.proxy", f"POST {s.md5}")) or [None])[0]
        if None in (handler, decode, proxy):
            continue
        sent, received = s.poll_times[-1]
        row = {
            "load.send": s.sent - s.due,
            "http.in": handler[2] - s.sent,
            "codec.decode": decode[3] - decode[2],
            "router.self": (proxy[2] - handler[2]) - (decode[3] - decode[2]),
            "router.proxy": proxy[3] - proxy[2],
            "shard+poll.wait": sent - proxy[3],
            "http.result": received - sent,
        }
        for name in names:
            stages[name].append(row[name] * 1e3)
        totals.append(s.verdict_s * 1e3)
    return _table(stages, totals)


def _table(stages, totals) -> dict:
    if not totals:
        return {"rows": [], "verdict_p50_s": 0.0, "unaccounted_ms": 0.0,
                "n": 0}
    rows, whole = stats.stage_table(stages, totals)
    return {
        "rows": rows,
        "verdict_p50_s": whole / 1e3,
        "unaccounted_ms": rows[-1][1],
        "n": len(totals),
    }


def _shard_layers(snapshot) -> dict:
    """In-shard layers from the shard-labelled metrics snapshot."""
    run_sum, run_n = tier.histogram_totals(snapshot, "pipeline_run_seconds")
    e2e_sum, e2e_n = tier.histogram_totals(snapshot, "serve_e2e_seconds")
    rules_sum, rules_n = tier.histogram_totals(
        snapshot, "rules_evaluate_seconds")
    batches = tier.counter_total(snapshot, "serve_batches_total")
    scored = tier.counter_total(snapshot, "serve_scored_total")
    run_ms = 1e3 * run_sum / run_n if run_n else 0.0
    return {
        # Accepted -> terminal inside the shard, less the batch's own run.
        "queue.wait_ms": (1e3 * e2e_sum / e2e_n - run_ms) if e2e_n else 0.0,
        "dispatch.batch_size": scored / batches if batches else 0.0,
        "dispatch.self_ms": 0.0,
        "pipeline.run_ms": run_ms,
        "features.encode_ms_per_row": 0.0,
        "ml.score_ms_per_row": 0.0,
        "rules.evaluate_ms": 1e3 * rules_sum / rules_n if rules_n else 0.0,
        "rules.calls_per_batch": tier.counter_total(
            snapshot, "rules_batches_total") / batches if batches else 0.0,
    }


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------


def _check(checker, version: int, feed: Feed, out: dict) -> None:
    """Verdicts against the reference; failures and F1 over unique apps.

    A ``failed`` outcome (no backend could analyze the app) counts as a
    failed operation, not as a wrong verdict.
    """
    subs = out.pop("subs")
    refs, _ = reference.reference_verdicts(checker, list(feed.apps.values()))
    rejected = sum(1 for s in subs if not s.accepted)
    failed_outcomes = sum(
        1 for s in subs
        if s.outcome is not None and s.outcome.get("status") == "failed")
    never = sum(1 for s in subs if s.accepted and s.outcome is None)
    for s in subs:
        if s.outcome is None or s.outcome.get("status") != "done":
            continue
        why = reference.mismatch(s.md5, s.outcome, refs[s.md5], version)
        if why:
            out["problems"].append(why)
    verdicts = {s.md5: s.outcome["malicious"] for s in subs
                if s.outcome is not None and s.lane != "resubmit"
                and s.outcome.get("status") == "done"}
    labels = [feed.apps[m].is_malicious for m in verdicts]
    out["attempted"] = len(subs)
    out["failed"] = rejected + failed_outcomes + never
    out["error_rate"] = stats.error_rate(
        len(subs), rejected, failed_outcomes, never)
    out["f1"] = reference.f1_score(labels, list(verdicts.values()))
    out["unique_apps"] = len(verdicts)
