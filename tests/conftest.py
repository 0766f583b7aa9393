"""Shared fixtures: a small deterministic world reused across the suite.

Session-scoped fixtures hold immutable artifacts (SDK, corpora, study
observations, a fitted checker); anything stateful (generators, engines)
is built fresh per test.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.android.sdk import AndroidSdk, SdkSpec
from repro.core.checker import ApiChecker
from repro.core.engine import DynamicAnalysisEngine
from repro.corpus.generator import AppCorpus, CorpusGenerator
from repro.emulator.backends import GoogleEmulator

TEST_SEED = 42


@pytest.fixture(scope="session")
def sdk() -> AndroidSdk:
    """A small SDK: full strata, reduced tail.

    1400 APIs is the smallest registry whose SRC mining is stable enough
    for the qualitative shape assertions; 900-API worlds produce key
    sets dominated by mining noise.
    """
    return AndroidSdk.generate(SdkSpec(n_apis=1400, seed=TEST_SEED))


@pytest.fixture(scope="session")
def catalog(sdk):
    """The archetype catalog every test generator shares.

    All corpora in the suite must come from one catalog: family
    signatures are catalog state, and a detector trained on one
    catalog's world cannot score apps drawn from another's.
    """
    from repro.corpus.families import ArchetypeCatalog

    return ArchetypeCatalog(sdk, seed=TEST_SEED + 2)


@pytest.fixture()
def generator(sdk, catalog) -> CorpusGenerator:
    """A fresh (stateful) generator per test."""
    return CorpusGenerator(sdk, seed=TEST_SEED + 1, catalog=catalog)


@pytest.fixture(scope="session")
def corpus(sdk, catalog) -> AppCorpus:
    """A labelled training corpus (shared, treat as immutable).

    800 apps is the smallest size at which the mined key set and the
    classifier land in a stable regime; smaller corpora make SRC mining
    too noisy to assert the paper's qualitative results.
    """
    gen = CorpusGenerator(sdk, seed=TEST_SEED + 2, catalog=catalog)
    return gen.generate(800)


@pytest.fixture(scope="session")
def study_observations(sdk, corpus):
    """All-API study observations for the shared corpus."""
    engine = DynamicAnalysisEngine(
        sdk,
        tracked_api_ids=np.arange(len(sdk)),
        primary=GoogleEmulator(),
        fallback=None,
        seed=TEST_SEED + 3,
    )
    return engine.observations(corpus)


@pytest.fixture(scope="session")
def fitted_checker(sdk, corpus, study_observations) -> ApiChecker:
    """An ApiChecker trained on the shared corpus."""
    checker = ApiChecker(sdk, seed=TEST_SEED + 4)
    checker.fit(corpus, study_observations=list(study_observations))
    return checker


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(TEST_SEED + 5)


def _v2_wire(apk) -> dict:
    """The codec-version-2 wire dict: call-site columns as JSON lists.

    Byte for byte what the version-2 encoder wrote (``json.dumps`` with
    ``separators=(",", ":")`` gives its body text), for tests that edit
    one call-site value in place.
    """
    from repro.serve.codec import apk_to_dict

    wire = apk_to_dict(apk)
    wire["v"] = 2
    sites = apk.dex.call_sites
    wire["dex"]["call_sites"] = {
        "api_id": sites.api_id.tolist(),
        "rate_multiplier": sites.rate_multiplier.tolist(),
        "reach_quantile": sites.reach_quantile.tolist(),
    }
    return wire


@pytest.fixture(scope="session")
def v2_wire():
    """:func:`_v2_wire`, for tests that edit list columns."""
    return _v2_wire


@pytest.fixture()
def poisoned_record(generator):
    """Build the wire dict of an app whose every call rate is ``rate``.

    The record carries its correct md5, so a ``/v1`` body made of it
    decodes; emulating the app then overflows the invocation counts for
    a near-``float`` max rate.  (An infinite rate does not decode.)
    """
    from repro.serve.codec import apk_from_dict

    def build(rate: float) -> dict:
        record = _v2_wire(generator.sample_app(malicious=True))
        rates = record["dex"]["call_sites"]["rate_multiplier"]
        record["dex"]["call_sites"]["rate_multiplier"] = [rate] * len(rates)
        del record["md5"]
        record["md5"] = apk_from_dict(record).md5
        return record

    return build


@pytest.fixture()
def unparsable_bodies(generator) -> dict[str, bytes]:
    """Submit bodies whose decode raised something other than ValueError.

    An infinite number (``1e400`` or ``Infinity``) in an integer field
    raised OverflowError, and 100,000 nested ``[`` raised
    RecursionError.  Each body but the nested one keeps its claimed
    md5, so a router routes it on to a shard.  Every one must get a
    400.
    """
    import json

    from repro.serve.codec import apk_to_dict

    apk = generator.sample_app()
    bodies = {"nested": b"[" * 100_000}
    for path in (
        ("manifest", "version_code"),
        ("manifest", "min_sdk_level"),
        ("submitted_day",),
        ("dex", "reflection_api_ids"),
    ):
        for token in ("1e400", "Infinity"):
            record = apk_to_dict(apk)
            parent = record
            for key in path[:-1]:
                parent = parent[key]
            is_list = isinstance(parent[path[-1]], list)
            parent[path[-1]] = ["@"] if is_list else "@"
            text = json.dumps({"apk": record, "lane": "bulk"})
            bodies[f"{path[-1]}={token}"] = text.replace(
                '"@"', token
            ).encode()
    return bodies

