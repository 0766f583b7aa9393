"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``demo`` — train APICHECKER on a synthetic market and vet fresh
  submissions, printing the headline metrics.
* ``vet`` — train, vet, and write the analysis log (JSON lines) for
  offline auditing/retraining; ``--metrics-out`` snapshots the run's
  metrics registry as JSON and ``--trace-out`` streams span events.
* ``evolve`` — run N months of monthly retraining and print the
  Fig. 12 / Fig. 14 series.
* ``metrics`` — render a metrics snapshot (or a fresh instrumented
  demo run) as JSON or Prometheus text exposition.
* ``serve`` — run the online vetting service: durable submission
  queue (WAL in ``--spool``), versioned model registry with hot swap
  (``--model-dir``), and the versioned HTTP JSON API (``/v1/submit``,
  ``/v1/result/<md5>``, ``/v1/explain/<md5>``, ``/v1/healthz``,
  ``/v1/metrics``).  ``--shards N`` runs the sharded tier instead:
  N worker processes with per-shard WAL segments behind an md5-routing
  scatter/gather front door.  See ``docs/serving.md``.
* ``explain`` — train, vet a fresh day with behavior rules enabled,
  and print each flagged app's rule-evidence summary.  See
  ``docs/rules.md``.
* ``rules lint`` — check a behavior ruleset (default: the bundled one)
  for authoring mistakes; exits 1 on errors.
* ``rules mine`` — mine candidate rules from a family-balanced labeled
  corpus (Apriori itemsets scored on a held-out split) and write the
  generated ruleset artifact.  See ``docs/rule_mining.md``.
* ``rules diff OLD NEW`` — print added/removed/changed rules between
  two ruleset files.
* ``rules push RULESET --url URL`` — hot-swap a ruleset into a running
  serving tier (single service or shard router) over
  ``POST /v1/admin/ruleset``.
* ``scenarios list`` / ``scenarios run NAME`` — the adversarial
  campaign simulator: replay a bundled attack campaign (repackaging
  wave, evasion arms race, hidden loaders, label poisoning, admission
  flood) through the real serving tier and print the per-day report.
  ``--shards N`` serves it through the multi-process shard router.
  See ``docs/scenarios.md``.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--apis", type=int, default=2000,
                        help="synthetic SDK size (default 2000)")
    parser.add_argument("--train", type=int, default=1200,
                        help="training corpus size (default 1200)")
    parser.add_argument("--seed", type=int, default=7)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="APICHECKER (EuroSys 2020) reproduction",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    demo = sub.add_parser("demo", help="train and vet a synthetic market")
    _add_common(demo)
    demo.add_argument("--fresh", type=int, default=400,
                      help="fresh submissions to vet (default 400)")

    vet = sub.add_parser("vet", help="vet and write an analysis log")
    _add_common(vet)
    vet.add_argument("--fresh", type=int, default=400)
    vet.add_argument("--log", required=True,
                     help="output JSON-lines analysis log")
    vet.add_argument("--workers", type=int, default=None,
                     help="pipeline worker pool size "
                          "(default: every emulator slot)")
    vet.add_argument("--cache", default=None,
                     help="JSON-lines observation cache; resubmitted "
                          "md5s skip re-emulation")
    vet.add_argument("--metrics-out", default=None,
                     help="write the run's metrics-registry snapshot "
                          "to this JSON file")
    vet.add_argument("--trace-out", default=None,
                     help="write structured span events (JSON lines) "
                          "to this file")

    evolve = sub.add_parser("evolve", help="monthly model evolution")
    _add_common(evolve)
    evolve.add_argument("--months", type=int, default=6)
    evolve.add_argument("--per-month", type=int, default=250)

    metrics = sub.add_parser(
        "metrics",
        help="render a metrics snapshot as JSON or Prometheus text",
    )
    metrics.add_argument(
        "snapshot", nargs="?", default=None,
        help="a --metrics-out JSON snapshot to render; omitted: run a "
             "small instrumented vetting pass and render its registry",
    )
    metrics.add_argument("--format", choices=("json", "prom"),
                         default="json")
    _add_common(metrics)
    metrics.add_argument("--fresh", type=int, default=120,
                         help="submissions for the built-in demo run "
                              "(ignored with a snapshot file)")
    # The built-in demo run only needs to populate a registry; keep it
    # an order of magnitude lighter than a real vet run.
    metrics.set_defaults(apis=1000, train=300)

    serve = sub.add_parser(
        "serve",
        help="run the online vetting service (queue + registry + HTTP)",
    )
    _add_common(serve)
    serve.add_argument("--host", default="127.0.0.1")
    serve.add_argument("--port", type=int, default=8351,
                       help="HTTP port (0 picks a free one; default 8351)")
    serve.add_argument("--spool", required=True,
                       help="spool directory for the submission WAL")
    serve.add_argument("--model-dir", required=True,
                       help="model registry directory; an existing "
                            "registry with an active version is reused, "
                            "otherwise a bootstrap model is trained and "
                            "published")
    serve.add_argument("--workers", type=int, default=4,
                       help="pipeline slot-pool size (default 4)")
    serve.add_argument("--batch-size", type=int, default=8,
                       help="max submissions per dispatch cycle (default 8)")
    serve.add_argument("--max-depth", type=int, default=10_000,
                       help="admission bound on queue depth (default 10000)")
    serve.add_argument("--cache", default=None,
                       help="persistent observation-cache file "
                            "(default: in-memory)")
    serve.add_argument("--shards", type=int, default=1,
                       help="worker processes; >1 runs the sharded tier "
                            "(md5-routed, per-shard WAL segments) behind "
                            "a scatter/gather front door (default 1)")
    serve.add_argument("--pace", type=float, default=0.0, metavar="SECONDS",
                       help="slot-occupancy pacing: wall seconds slept "
                            "per simulated emulation minute (default 0)")
    # Bootstrap training should be light: the service exists to serve,
    # not to reproduce the full study.
    serve.set_defaults(apis=1000, train=300)

    explain = sub.add_parser(
        "explain",
        help="vet a fresh day and print flagged apps' behavior evidence",
    )
    _add_common(explain)
    explain.add_argument("--fresh", type=int, default=150,
                         help="fresh submissions to vet (default 150)")
    explain.add_argument("--ruleset", default=None,
                         help="JSON ruleset file (default: bundled rules)")
    explain.add_argument("--json", action="store_true",
                         help="emit full behavior reports as JSON")
    explain.set_defaults(apis=1000, train=300)

    rules = sub.add_parser("rules", help="behavior-ruleset tooling")
    rules_sub = rules.add_subparsers(dest="rules_command", required=True)
    lint = rules_sub.add_parser(
        "lint",
        help="check a ruleset for authoring mistakes (exit 1 on errors)",
    )
    lint.add_argument("ruleset", nargs="?", default=None,
                      help="JSON ruleset file (default: the bundled rules)")
    lint.add_argument("--apis", type=int, default=1000,
                      help="synthetic SDK size used to resolve names "
                           "(default 1000)")
    lint.add_argument("--seed", type=int, default=7)

    mine = rules_sub.add_parser(
        "mine",
        help="mine candidate rules from a labeled synthetic corpus "
             "and write a generated ruleset artifact",
    )
    _add_common(mine)
    mine.add_argument("--per-family", type=int, default=60,
                      help="apps sampled per malware family for the "
                           "mining corpus (default 60)")
    mine.add_argument("--benign", type=int, default=700,
                      help="benign apps in the mining corpus "
                           "(default 700)")
    mine.add_argument("--min-support", type=float, default=0.15,
                      help="minimum within-family itemset support "
                           "(default 0.15)")
    mine.add_argument("--min-precision", type=float, default=0.7,
                      help="minimum holdout precision to keep a rule "
                           "(default 0.7)")
    mine.add_argument("--min-lift", type=float, default=2.0,
                      help="minimum holdout family lift to keep a rule "
                           "(default 2.0)")
    mine.add_argument("--max-rules-per-family", type=int, default=12,
                      help="per-family rule budget (default 12)")
    mine.add_argument("--mine-seed", type=int, default=0,
                      help="mine/holdout split seed (default 0)")
    mine.add_argument("--out", default="mined_rules.json",
                      help="artifact path (default mined_rules.json)")

    rdiff = rules_sub.add_parser(
        "diff",
        help="print added/removed/changed rules between two ruleset "
             "files",
    )
    rdiff.add_argument("old", help="baseline ruleset JSON file")
    rdiff.add_argument("new", help="candidate ruleset JSON file")

    push = rules_sub.add_parser(
        "push",
        help="hot-swap a ruleset into a running serving tier "
             "(POST /v1/admin/ruleset)",
    )
    push.add_argument("ruleset", help="JSON ruleset file to push")
    push.add_argument("--url", required=True,
                      help="base URL of the service or shard router, "
                           "e.g. http://127.0.0.1:8300")
    push.add_argument("--timeout", type=float, default=30.0,
                      help="HTTP timeout in seconds (default 30)")

    scenarios = sub.add_parser(
        "scenarios",
        help="adversarial campaign simulator over the serving tier",
    )
    scen_sub = scenarios.add_subparsers(
        dest="scenarios_command", required=True
    )
    scen_sub.add_parser("list", help="list the bundled campaigns")
    run = scen_sub.add_parser(
        "run", help="replay one campaign through a live serving tier"
    )
    run.add_argument("name", help="bundled campaign name, or a JSON "
                                  "campaign-spec file")
    _add_common(run)
    run.add_argument("--shards", type=int, default=1,
                     help=">1 serves the campaign through the "
                          "multi-process shard router (default 1: "
                          "in-process service)")
    run.add_argument("--scale", type=float, default=1.0,
                     help="scale per-day volumes (e.g. 0.5 halves the "
                          "campaign; default 1.0)")
    run.add_argument("--workers", type=int, default=2,
                     help="pipeline workers per service (default 2)")
    run.add_argument("--batch-size", type=int, default=4,
                     help="dispatch micro-batch size (default 4)")
    run.add_argument("--out", default=None,
                     help="write the full campaign report JSON here")
    # Bootstrap training is a means, not the experiment.
    run.set_defaults(apis=1000, train=300)
    return parser


def _build_and_fit(args, registry=None, sink=None):
    from repro import AndroidSdk, ApiChecker, CorpusGenerator, SdkSpec

    sdk = AndroidSdk.generate(SdkSpec(n_apis=args.apis, seed=args.seed))
    generator = CorpusGenerator(sdk, seed=args.seed + 1)
    train = generator.generate(args.train)
    checker = ApiChecker(
        sdk, seed=args.seed + 2, registry=registry, sink=sink
    ).fit(train)
    return sdk, generator, checker


def cmd_demo(args) -> int:
    from repro.ml.metrics import evaluate

    sdk, generator, checker = _build_and_fit(args)
    fresh = generator.generate(args.fresh)
    verdicts = checker.vet_batch(fresh)
    pred = np.array([v.malicious for v in verdicts])
    report = evaluate(fresh.labels, pred)
    minutes = np.array([v.analysis_minutes for v in verdicts])
    print(f"key APIs: {checker.key_api_ids.size}")
    print(
        f"precision={report.precision:.3f} recall={report.recall:.3f} "
        f"f1={report.f1:.3f}"
    )
    print(f"mean scan: {minutes.mean():.2f} simulated minutes")
    return 0


def cmd_vet(args) -> int:
    from pathlib import Path

    from repro.core.pipeline import ObservationCache, VettingPipeline
    from repro.core.reporting import write_log
    from repro.obs import MetricsRegistry, SpanSink

    registry = MetricsRegistry()
    sink = SpanSink(args.trace_out) if args.trace_out else None
    sdk, generator, checker = _build_and_fit(args, registry, sink)
    fresh = generator.generate(args.fresh)
    cache = ObservationCache(args.cache) if args.cache else None
    pipeline = VettingPipeline(
        checker.production_engine, workers=args.workers, cache=cache,
        registry=registry, sink=sink,
    )
    result = pipeline.run(fresh)
    if args.metrics_out:
        Path(args.metrics_out).write_text(
            registry.to_json(), encoding="utf-8"
        )
    if result.failures:
        print(f"{len(result.failures)} apps failed every backend",
              file=sys.stderr)
        return 1
    observations = [a.observation for a in result.analyses]
    verdicts = checker.verdicts_from_observations(
        observations,
        analysis_minutes=[a.total_minutes for a in result.analyses],
        fell_back=[a.fell_back for a in result.analyses],
    )
    n = write_log(args.log, observations, verdicts)
    flagged = sum(v.malicious for v in verdicts)
    print(f"wrote {n} analysis records to {args.log} ({flagged} flagged)")
    print(f"pipeline: {result.summary()}")
    if args.metrics_out:
        print(f"metrics snapshot: {args.metrics_out}")
    if args.trace_out:
        print(f"span trace: {args.trace_out} ({sink.emitted} events)")
    return 0


def cmd_evolve(args) -> int:
    from repro import AndroidSdk, EvolutionLoop, MarketStream, SdkSpec

    sdk = AndroidSdk.generate(SdkSpec(n_apis=args.apis, seed=args.seed))
    stream = MarketStream(
        sdk, apps_per_month=args.per_month, seed=args.seed + 1
    )
    initial = stream.bootstrap_corpus(args.train)
    loop = EvolutionLoop(
        stream,
        initial,
        max_pool=args.train + args.months * args.per_month,
        checker_seed=args.seed + 2,
    )
    print(f"{'month':>5} {'prec':>6} {'recall':>7} {'#keys':>6} {'SDK':>6}")
    for _ in range(args.months):
        rec = loop.run_month()
        print(
            f"{rec.month:>5} {rec.report.precision:>6.3f} "
            f"{rec.report.recall:>7.3f} {rec.n_key_apis:>6} "
            f"{rec.sdk_size:>6}"
        )
    return 0


def cmd_metrics(args) -> int:
    from pathlib import Path

    from repro.core.pipeline import VettingPipeline
    from repro.obs import MetricsRegistry

    if args.snapshot is not None:
        registry = MetricsRegistry.from_json(
            Path(args.snapshot).read_text(encoding="utf-8")
        )
    else:
        # No snapshot: run a small instrumented vetting pass so the
        # exposition shows the full engine/pipeline/cluster/ML surface.
        registry = MetricsRegistry()
        sdk, generator, checker = _build_and_fit(args, registry)
        fresh = generator.generate(args.fresh)
        pipeline = VettingPipeline(
            checker.production_engine, workers=args.workers
            if hasattr(args, "workers") else None, registry=registry,
        )
        result = pipeline.run(fresh)
        if result.failures:
            print(f"{len(result.failures)} apps failed every backend",
                  file=sys.stderr)
            return 1
    if args.format == "prom":
        sys.stdout.write(registry.to_prometheus())
    else:
        print(registry.to_json())
    return 0


def cmd_serve(args) -> int:
    import threading

    from repro.obs import MetricsRegistry
    from repro.serve import ModelRegistry, OnlineVettingService, make_server

    metrics = MetricsRegistry()
    models = ModelRegistry(args.model_dir, metrics=metrics)
    if models.active_version is None:
        print("no active model in registry; training bootstrap model...")
        _sdk, _generator, checker = _build_and_fit(args, metrics)
        version = models.publish(
            checker,
            metadata={
                "source": "serve-bootstrap",
                "apis": args.apis,
                "train": args.train,
                "seed": args.seed,
            },
            activate=True,
        ).version
        print(f"published and activated model v{version}")
    if args.shards > 1:
        return _serve_sharded(args, metrics)
    service = OnlineVettingService(
        models,
        spool_dir=args.spool,
        workers=args.workers,
        batch_size=args.batch_size,
        max_depth=args.max_depth,
        cache=args.cache if args.cache else True,
        metrics=metrics,
        pace_seconds_per_minute=args.pace,
    )
    service.start()
    server = make_server(service, args.host, args.port)
    server.start_background()
    replayed = int(metrics.value("serve_wal_replayed_total"))
    if replayed:
        print(f"replayed {replayed} uncompleted submissions from the WAL")
    print(
        f"serving on http://{args.host}:{server.port} "
        f"(model v{models.active_version}, spool {args.spool}, "
        f"{args.workers} workers)"
    )
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        print("\nshutting down...")
    finally:
        server.stop()
        abandoned = service.close()
        if abandoned:
            print(
                f"abandoned {len(abandoned)} pending submission(s); "
                "they replay from the WAL on restart"
            )
    return 0


def _serve_sharded(args, metrics) -> int:
    """``repro serve --shards N``: the multi-process sharded tier."""
    import threading

    from repro.serve import ShardRouter, make_router_server

    router = ShardRouter(
        args.model_dir,
        args.spool,
        n_shards=args.shards,
        host=args.host,
        workers=args.workers,
        batch_size=args.batch_size,
        max_depth=args.max_depth,
        cache=args.cache if args.cache else True,
        pace_seconds_per_minute=args.pace,
        metrics=metrics,
    )
    router.start()
    server = make_router_server(router, args.host, args.port)
    server.start_background()
    replayed = sum(h.replayed for h in router.shards.values())
    if replayed:
        print(
            f"replayed {replayed} uncompleted submissions "
            "from per-shard WALs"
        )
    ports = ", ".join(
        str(router.shards[k].port) for k in sorted(router.shards)
    )
    print(
        f"routing on http://{args.host}:{server.port} -> "
        f"{args.shards} shard(s) on ports [{ports}] "
        f"(spool {args.spool}, {args.workers} workers/shard)"
    )
    try:
        threading.Event().wait()
    except KeyboardInterrupt:
        print("\nshutting down...")
    finally:
        server.stop()
        abandoned = router.stop()
        total = sum(len(v) for v in abandoned.values())
        if total:
            print(
                f"abandoned {total} pending submission(s) across shards; "
                "they replay from the per-shard WALs on restart"
            )
    return 0


def cmd_explain(args) -> int:
    import json as json_mod

    from repro.core.vetting import VettingService
    from repro.rules import RuleEvaluator, load_ruleset

    sdk, generator, checker = _build_and_fit(args)
    rules: "RuleEvaluator | bool" = True
    if args.ruleset:
        rules = RuleEvaluator.from_specs(
            load_ruleset(args.ruleset),
            sdk,
            tracked_api_ids=checker.key_api_ids,
        )
    service = VettingService(checker, rules=rules)
    fresh = generator.generate(args.fresh)
    report = service.process_day(fresh, true_labels=fresh.labels)
    if args.json:
        print(json_mod.dumps(
            [r.to_dict() for r in report.behavior_reports], indent=2
        ))
        return 0
    print(f"{report.n_flagged} of {report.n_apps} submissions flagged")
    for behavior_report in report.behavior_reports:
        print(f"  {behavior_report.summary()}")
        top = behavior_report.hits[0] if behavior_report.hits else None
        if top is not None:
            evidence = list(top.matched_apis) + list(
                top.matched_permissions
            ) + list(top.matched_intents)
            print(f"    evidence: {', '.join(evidence)}")
    return 0


def cmd_rules(args) -> int:
    if args.rules_command == "mine":
        return _cmd_rules_mine(args)
    if args.rules_command == "diff":
        return _cmd_rules_diff(args)
    if args.rules_command == "push":
        return _cmd_rules_push(args)

    from repro import AndroidSdk, SdkSpec
    from repro.rules import builtin_ruleset, lint_ruleset, load_ruleset

    specs = (
        load_ruleset(args.ruleset) if args.ruleset else builtin_ruleset()
    )
    sdk = AndroidSdk.generate(SdkSpec(n_apis=args.apis, seed=args.seed))
    issues = lint_ruleset(specs, sdk=sdk)
    for issue in issues:
        print(issue)
    n_errors = sum(1 for i in issues if i.severity == "error")
    n_warnings = len(issues) - n_errors
    print(
        f"{len(specs)} rule(s): {n_errors} error(s), "
        f"{n_warnings} warning(s)"
    )
    return 1 if n_errors else 0


def _cmd_rules_mine(args) -> int:
    from repro.obs import MetricsRegistry
    from repro.rules import MiningError, mine_from_corpus

    registry = MetricsRegistry()
    sdk, generator, checker = _build_and_fit(args, registry)
    corpus = generator.generate_family_balanced(
        args.per_family, args.benign
    )
    try:
        mined = mine_from_corpus(
            checker,
            corpus,
            min_support=args.min_support,
            min_precision=args.min_precision,
            min_lift=args.min_lift,
            max_rules_per_family=args.max_rules_per_family,
            seed=args.mine_seed,
            registry=registry,
        )
    except MiningError as exc:
        print(f"mining failed: {exc}", file=sys.stderr)
        return 1
    path = mined.save(args.out)
    print(
        f"mined {len(mined.rules)} rule(s) over {len(mined.base)} "
        f"base rule(s) from {mined.n_observations} observations"
    )
    for family in sorted(mined.families):
        stats = mined.families[family]
        print(f"  {family}: rows={stats['rows']} "
              f"candidates={stats['candidates']} kept={stats['kept']} "
              f"fire_coverage={stats['fire_coverage']:.2f}")
    print(f"artifact: {path} (sha256 {mined.sha256[:16]}…)")
    return 0


def _cmd_rules_diff(args) -> int:
    from pathlib import Path

    from repro.rules import diff_rulesets, load_ruleset

    for name in (args.old, args.new):
        if not Path(name).is_file():
            print(f"no such ruleset file: {name}", file=sys.stderr)
            return 2
    diff = diff_rulesets(load_ruleset(args.old), load_ruleset(args.new))
    print(diff.format())
    return 0


def _cmd_rules_push(args) -> int:
    import json as json_mod
    from pathlib import Path
    from urllib.error import HTTPError, URLError
    from urllib.request import Request, urlopen

    path = Path(args.ruleset)
    if not path.is_file():
        print(f"no such ruleset file: {args.ruleset}", file=sys.stderr)
        return 2
    url = args.url.rstrip("/") + "/v1/admin/ruleset"
    request = Request(
        url,
        data=path.read_bytes(),
        headers={"Content-Type": "application/json"},
        method="POST",
    )
    try:
        with urlopen(request, timeout=args.timeout) as response:
            receipt = json_mod.loads(response.read())
    except HTTPError as exc:
        detail = exc.read().decode("utf-8", "replace")
        print(f"push rejected ({exc.code}): {detail}", file=sys.stderr)
        return 1
    except (URLError, OSError) as exc:
        print(f"push failed: {exc}", file=sys.stderr)
        return 1
    print(f"ruleset v{receipt['ruleset_version']} live "
          f"({receipt['n_rules']} rules)")
    for shard_id, shard_receipt in sorted(
        receipt.get("shards", {}).items()
    ):
        print(f"  shard {shard_id}: "
              f"v{shard_receipt['ruleset_version']}")
    return 0


def cmd_scenarios(args) -> int:
    from repro.scenarios import Campaign, bundled_campaigns

    if args.scenarios_command == "list":
        for name, campaign in sorted(bundled_campaigns().items()):
            print(f"{name}: {campaign.days} day(s), "
                  f"~{campaign.planned_submissions} submissions")
            print(f"    {campaign.description}")
        return 0

    from pathlib import Path

    from repro.scenarios import CampaignRunner

    bundled = bundled_campaigns()
    if args.name in bundled:
        campaign = bundled[args.name]
    elif Path(args.name).is_file():
        campaign = Campaign.from_json(Path(args.name).read_text())
    else:
        print(f"unknown campaign {args.name!r}; bundled: "
              f"{', '.join(sorted(bundled))}", file=sys.stderr)
        return 2
    if args.scale != 1.0:
        campaign = campaign.scaled(args.scale)

    print(f"campaign {campaign.name}: {campaign.days} day(s), "
          f"~{campaign.planned_submissions} submissions, "
          f"shards={args.shards}")
    # Not _build_and_fit: retraining campaigns need the bootstrap
    # corpus back as the feedback-retrain base, so keep it.
    from repro import AndroidSdk, ApiChecker, CorpusGenerator, SdkSpec

    sdk = AndroidSdk.generate(SdkSpec(n_apis=args.apis, seed=args.seed))
    generator = CorpusGenerator(sdk, seed=args.seed + 1)
    train = generator.generate(args.train)
    checker = ApiChecker(sdk, seed=args.seed + 2).fit(train)
    runner = CampaignRunner(
        campaign,
        checker,
        catalog=generator.catalog,
        shards=args.shards,
        workers=args.workers,
        batch_size=args.batch_size,
        train_corpus=train,
    )
    report = runner.run()
    for day in report.days:
        d = day.to_dict()
        print(f"day {d['day']}: unique={d['n_unique']} "
              f"precision={d['precision']:.3f} recall={d['recall']:.3f} "
              f"p50={d['latency_p50_s']*1000:.0f}ms "
              f"p95={d['latency_p95_s']*1000:.0f}ms "
              f"429s={d['rejected_429']} 503s={d['unavailable_503']} "
              f"peak_depth={d['peak_queue_depth']} "
              f"explained={d['n_explained']}/{d['n_flagged']}")
        for wave, recall in d["wave_recall"].items():
            print(f"    wave {wave}: recall={recall:.3f}")
    for decision in report.evolution:
        print(f"retrain day {decision['day']}: {decision['decision']} "
              f"(active_f1={decision.get('active_f1', 0):.3f} "
              f"candidate_f1={decision.get('candidate_f1', 0):.3f})")
    totals = report.to_dict()["totals"]
    print(f"totals: precision={totals['precision']:.3f} "
          f"recall={totals['recall']:.3f} lost={totals['lost']} "
          f"429s={totals['rejected_429']}")
    if args.out:
        Path(args.out).write_text(report.to_json())
        print(f"report written to {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "demo": cmd_demo,
        "vet": cmd_vet,
        "evolve": cmd_evolve,
        "metrics": cmd_metrics,
        "serve": cmd_serve,
        "explain": cmd_explain,
        "rules": cmd_rules,
        "scenarios": cmd_scenarios,
    }
    return handlers[args.command](args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
