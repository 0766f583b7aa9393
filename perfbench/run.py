"""The repository's benchmark: one command, four workloads.

Usage (from the repository root)::

    python3 perfbench/run.py --workload ingest_unpaced --seed 1 \\
        --seconds 20 --trace 0

Workloads (configured in ``perfbench/workloads.json``):

* ``ingest_unpaced`` — open-loop HTTP load on one ``repro serve``
  process at pace 0: what the Python code costs;
* ``sharded_mix`` — the same through ``repro serve --shards 2`` with
  resubmissions and an escalated share: router hop, cache hits, lanes;
* ``market_paced`` — like ``sharded_mix`` with paced emulation, the
  paper's regime (not gated: too noisy to bound, see workloads.json);
* ``vet_day`` — ``VettingService.process_day`` over market days plus
  the month-end ``ApiChecker.fit``, in process (not gated: CPU-bound,
  it drifts with the machine; its layers are also measured by the
  traced ``ingest_unpaced`` run).

BENCHMARK.json lists the gated workloads.

``--seed`` fixes every generated app; ``--seconds`` is the length of
the nominal-rate window of the serving workloads.  ``--trace 0``
reports the end-to-end metrics listed in ``BENCHMARK.json``;
``--trace 1`` runs the traced variant and reports the per-layer ones,
with a stage table.  The first run in a checkout builds the model
(about a minute) into ``.bench_build/perfbench``.

Every run checks its outputs: each verdict must equal, bitwise, the
in-process reference over the same registry artifact, and the serving
tier must conserve submissions (accepted == completed == scored, empty
queue).  A failed check prints the problems and exits 1.  The last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent


@dataclass
class Context:
    checkout: Path
    seed: int
    world: Path
    run_dir: Path
    models: Path


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    # A caller may start this process with SIGINT ignored (a background
    # job of a non-interactive shell); servers inherit that, and the
    # CLI's graceful shutdown rides on SIGINT.  A handler here resets
    # the disposition to the default in every child it execs.
    signal.signal(signal.SIGINT, signal.default_int_handler)
    spec_path = CHECKOUT / "BENCHMARK.json"
    src = CHECKOUT / "src"
    if not (src / "repro" / "__init__.py").exists() or not spec_path.exists():
        log(f"no program to measure: {src}/repro or {spec_path} is missing")
        return 2
    sys.path.insert(0, str(src))
    os.environ["PYTHONPATH"] = str(src) + (
        os.pathsep + os.environ["PYTHONPATH"]
        if os.environ.get("PYTHONPATH") else "")
    spec = json.loads(spec_path.read_text())
    doc = json.loads((HERE / "workloads.json").read_text())
    workloads = doc["workloads"]
    if args.workload not in workloads:
        log(f"unknown workload {args.workload!r}; "
            f"choose from {sorted(workloads)}")
        return 2
    cfg = dict(doc["every_workload"])
    if args.workload != "vet_day":
        cfg.update(doc["every_serve_workload"])
    cfg.update(workloads[args.workload]["config"])

    import world

    world_path = world.ensure_world(CHECKOUT, log)
    run_dir = world.cache_root(CHECKOUT) / "runs" / (
        f"{args.workload}-{args.seed}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    ctx = Context(
        checkout=CHECKOUT, seed=args.seed, world=world_path, run_dir=run_dir,
        models=world.copy_models(world_path, run_dir / "models"),
    )
    if "nominal_rate" in cfg:
        cfg["nominal_s"] = args.seconds
    started = time.perf_counter()
    if args.workload == "vet_day":
        import vet_day as module
    else:
        import serve_workloads as module
    out = module.run(ctx, args.workload, cfg, bool(args.trace))
    correct = not out["problems"] and out["failed"] == 0
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    units.update((name, m["unit"]) for name, m in doc["printed_only"].items())
    report(args, out, time.perf_counter() - started, units)
    section = "per_layer" if args.trace else "end_to_end"
    values = out["layer"] if args.trace else out["e2e"]
    result = {
        "correct": correct,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec[section]
        },
    }
    if correct:
        shutil.rmtree(run_dir, ignore_errors=True)
    else:
        log(f"run directory kept for inspection: {run_dir}")
    print(json.dumps(result), flush=True)
    return 0 if correct else 1


def report(args, out: dict, wall: float, units: dict) -> None:
    """The human-readable part of the output: every metric with its unit."""
    print(f"== perfbench {args.workload} seed={args.seed} "
          f"trace={args.trace} ({wall:.1f}s wall)")
    # A traced run's own timings carry the tracing cost: it reports the
    # per-layer metrics and the stage table, not the end-to-end ones.
    rows = {} if args.trace else dict(out.get("e2e", {}))
    rows.update(out.get("extra", {}))
    rows["f1"] = out["f1"]
    rows["error_rate"] = out["error_rate"]
    for name, value in rows.items():
        if isinstance(value, (int, float)) and value is not None:
            print(f"  {name:<28} {value:>14.6g} {units[name]}")
    for rung in out.get("ladder", []):
        state = "pass" if rung["passed"] and rung["valid"] else (
            "invalid" if not rung["valid"] else "fail")
        print(f"  rung {rung['rate']:>6g}/s  {state:<7} "
              f"{rung['throughput']:8.2f} verdicts/s  "
              f"{'; '.join(rung['reasons'])}")
    for name, value in sorted(out.get("layer", {}).items()):
        print(f"  {name:<28} {value:>14.6g} {units[name]}")
    table = out.get("table")
    if table and table["rows"]:
        print(f"  stage table (p50 self time, ms; n={table['n']}):")
        for stage, value in table["rows"]:
            print(f"    {stage:<20} {value:>10.3f}")
        print(f"    {'= verdict p50':<20} "
              f"{1e3 * table['verdict_p50_s']:>10.3f}"
              f"   (untraced {1e3 * table['base_verdict_p50_s']:.3f})")
    print(f"  attempted {out['attempted']}  failed {out['failed']}  "
          f"f1 {out['f1']:.4f}")
    for problem in out["problems"]:
        print(f"  PROBLEM: {problem}")


if __name__ == "__main__":
    sys.exit(main())
