"""The benchmark's fixed world: one trained model plus its retrain pool.

Every workload vets apps against the same trained APICHECKER model,
built once per checkout at the ``bench`` scale profile and cached under
``.bench_build/perfbench/``.  Building it (SDK, archetype catalog,
3,000-app training corpus, the all-API study emulation and one fit)
takes about a minute; afterwards a run only loads it.

What a run *vets* is never cached: :func:`market` returns a generator
seeded from the run's ``--seed`` that draws fresh apps from the same
archetype catalog the model was trained on.
"""

from __future__ import annotations

import os
import pickle
import shutil
import time
from pathlib import Path

#: Bump when the cached layout or its contents change.
WORLD_FORMAT = 1

#: The scale profile the world is built at (see repro.experiments.config).
PROFILE_NAME = "bench"


def cache_root(checkout: Path) -> Path:
    return checkout / ".bench_build" / "perfbench"


def world_dir(checkout: Path) -> Path:
    return cache_root(checkout) / f"world-v{WORLD_FORMAT}"


def ensure_world(checkout: Path, log) -> Path:
    """Build the cached world unless it is already complete.

    The build writes into a private temp directory and renames it into
    place, so an interrupted build never leaves a half-written world.
    """
    final = world_dir(checkout)
    if (final / "DONE").exists():
        return final
    from repro.core.checker import ApiChecker
    from repro.experiments.config import BENCH
    from repro.experiments.harness import build_world
    from repro.serve.registry import ModelRegistry

    started = time.perf_counter()
    log(f"building the {PROFILE_NAME} world (one-time, ~1 min)...")
    tmp = cache_root(checkout) / f"build-{os.getpid()}"
    shutil.rmtree(tmp, ignore_errors=True)
    tmp.mkdir(parents=True)
    world = build_world(BENCH)
    observations = world.train_observations
    checker = ApiChecker(world.sdk, seed=BENCH.seed + 2).fit(
        world.train, study_observations=observations
    )
    ModelRegistry(tmp / "models").publish(
        checker,
        metadata={"source": "perfbench", "profile": PROFILE_NAME},
        activate=True,
    )
    with (tmp / "pool.pkl").open("wb") as fh:
        pickle.dump(
            {
                "labels": world.train.labels,
                "observations": observations,
                "checker_seed": BENCH.seed + 2,
            },
            fh,
            protocol=pickle.HIGHEST_PROTOCOL,
        )
    (tmp / "DONE").write_text(
        f"{PROFILE_NAME} world built in "
        f"{time.perf_counter() - started:.1f}s\n"
    )
    shutil.rmtree(final, ignore_errors=True)
    tmp.replace(final)
    log(f"world ready in {time.perf_counter() - started:.1f}s")
    return final


def catalog_seed() -> int:
    """Seed of the archetype catalog the model was trained against."""
    from repro.experiments.config import BENCH

    return BENCH.seed + 1


def market(sdk, seed: int):
    """A corpus generator for fresh submissions, drawn from ``seed``.

    Shares the training world's archetype catalog (rebuilt from its
    seed, which is deterministic) so fresh apps come from the families
    the model learned; the generator's own stream comes from ``seed``.
    """
    from repro.corpus.families import ArchetypeCatalog
    from repro.corpus.generator import CorpusGenerator

    catalog = ArchetypeCatalog(sdk, seed=catalog_seed())
    return CorpusGenerator(sdk, seed=seed, catalog=catalog)


def load_pool(world: Path) -> dict:
    """The labelled training pool: study observations plus labels.

    The APKs themselves are not kept: ``ApiChecker.fit`` given labels
    and study observations reads nothing else from its corpus, and the
    APK objects would triple the load time.
    """
    with (world / "pool.pkl").open("rb") as fh:
        return pickle.load(fh)


def copy_models(world: Path, dest: Path) -> Path:
    """A private copy of the model registry for one server launch."""
    shutil.copytree(world / "models", dest)
    return dest
