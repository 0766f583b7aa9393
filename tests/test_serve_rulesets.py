"""Tests for the versioned ruleset registry and live ruleset hot swap."""

import json
import threading
import time

import pytest

from repro.rules import builtin_ruleset, load_ruleset
from repro.serve.registry import (
    BUILTIN_RULESET_VERSION,
    IntegrityError,
    ModelRegistry,
    RulesetRegistry,
)
from repro.serve.service import OnlineVettingService


def _renamed_ruleset(suffix: str) -> bytes:
    """The bundled rules with every behavior renamed ``<name><suffix>``.

    Same evidence, distinguishable provenance: any hit's behavior name
    tells exactly which ruleset version explained it.
    """
    rules = [
        {**spec.to_dict(), "behavior": spec.behavior + suffix}
        for spec in builtin_ruleset()
    ]
    return json.dumps({"version": 1, "rules": rules}).encode("utf-8")


@pytest.fixture()
def models(tmp_path, fitted_checker):
    registry = ModelRegistry(tmp_path / "models")
    registry.publish(
        fitted_checker, metadata={"source": "test"}, activate=True
    )
    return registry


def _service(models, **kwargs):
    kwargs.setdefault("workers", 2)
    kwargs.setdefault("batch_size", 4)
    return OnlineVettingService(models, **kwargs)


# ----------------------------------------------------------------------
# RulesetRegistry
# ----------------------------------------------------------------------


def test_fresh_registry_serves_builtin_as_v0(tmp_path):
    registry = RulesetRegistry(tmp_path / "r")
    assert registry.active_version == BUILTIN_RULESET_VERSION
    assert registry.active_specs() == builtin_ruleset()
    assert registry.load(0) == builtin_ruleset()
    assert registry.metrics.value("serve_active_ruleset_version") == 0


def test_publish_assigns_versions_and_persists(tmp_path):
    registry = RulesetRegistry(tmp_path / "r")
    v1 = registry.publish(_renamed_ruleset("_a"))
    v2 = registry.publish(_renamed_ruleset("_b"))
    assert (v1.version, v2.version) == (1, 2)
    assert (tmp_path / "r" / v1.filename).exists()
    assert (tmp_path / "r" / "ruleset_manifest.json").exists()
    assert registry.active_version == 0  # publish alone never serves
    assert v1.state == "archived"
    assert v1.n_rules == len(builtin_ruleset())
    assert registry.metrics.value("serve_rulesets_published_total") == 2


def test_publish_preserves_pushed_bytes_and_hash(tmp_path):
    import hashlib

    blob = _renamed_ruleset("_x")
    registry = RulesetRegistry(tmp_path / "r")
    rv = registry.publish(blob)
    assert rv.sha256 == hashlib.sha256(blob).hexdigest()
    assert (tmp_path / "r" / rv.filename).read_bytes() == blob


def test_publish_rejects_unparseable_ruleset(tmp_path):
    registry = RulesetRegistry(tmp_path / "r")
    with pytest.raises(ValueError):
        registry.publish(b"this is not json")
    assert registry.versions == {}


def test_activate_swaps_and_archives(tmp_path):
    registry = RulesetRegistry(tmp_path / "r")
    registry.publish(_renamed_ruleset("_a"), activate=True)
    registry.publish(_renamed_ruleset("_b"), activate=True)
    assert registry.active_version == 2
    assert registry.versions[1].state == "archived"
    assert registry.versions[2].state == "active"
    assert registry.metrics.value("ruleset_swap_total") == 2
    assert registry.metrics.value("serve_active_ruleset_version") == 2
    assert {s.behavior for s in registry.active_specs()} == {
        s.behavior + "_b" for s in builtin_ruleset()
    }


def test_activate_unknown_version(tmp_path):
    registry = RulesetRegistry(tmp_path / "r")
    with pytest.raises(KeyError, match="unknown ruleset version"):
        registry.activate(42)


def test_tampered_artifact_fails_integrity_check(tmp_path):
    registry = RulesetRegistry(tmp_path / "r")
    rv = registry.publish(_renamed_ruleset("_a"))
    artifact = tmp_path / "r" / rv.filename
    blob = bytearray(artifact.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    artifact.write_bytes(bytes(blob))
    with pytest.raises(IntegrityError, match="hash mismatch"):
        registry.activate(1)
    # The corrupted version never became active.
    assert registry.active_version == 0


def test_reopen_restores_active_version(tmp_path):
    root = tmp_path / "r"
    registry = RulesetRegistry(root)
    registry.publish(_renamed_ruleset("_a"), activate=True)
    registry.publish(_renamed_ruleset("_b"))

    reopened = RulesetRegistry(root)
    assert reopened.active_version == 1
    assert len(reopened.versions) == 2
    assert {s.behavior for s in reopened.active_specs()} == {
        s.behavior + "_a" for s in builtin_ruleset()
    }


def test_in_memory_mode_needs_no_disk():
    registry = RulesetRegistry(root=None)
    rv = registry.publish(_renamed_ruleset("_m"), activate=True)
    assert registry.active_version == rv.version == 1
    assert registry.load(1)[0].behavior.endswith("_m")


def test_lease_yields_consistent_pair(tmp_path):
    registry = RulesetRegistry(tmp_path / "r")
    registry.publish(_renamed_ruleset("_a"), activate=True)
    with registry.lease() as (version, specs):
        assert version == 1
        assert all(s.behavior.endswith("_a") for s in specs)


def test_hot_swap_never_yields_mixed_lease(tmp_path):
    """Concurrent leases during repeated swaps stay version-consistent.

    Reader threads hammer :meth:`RulesetRegistry.lease` while the main
    thread keeps flipping the active version; every lease must yield a
    ``(version, specs)`` pair whose behavior suffixes all agree with
    the leased version — never a half-swapped state.
    """
    registry = RulesetRegistry(tmp_path / "r")
    registry.publish(_renamed_ruleset("__v1"))
    registry.publish(_renamed_ruleset("__v2"))
    registry.activate(1)

    stop = threading.Event()
    seen: list[tuple[int, frozenset]] = []
    errors: list[Exception] = []

    def reader():
        try:
            while not stop.is_set():
                with registry.lease() as (version, specs):
                    seen.append(
                        (version, frozenset(s.behavior for s in specs))
                    )
        except Exception as exc:  # pragma: no cover - failure path
            errors.append(exc)

    threads = [threading.Thread(target=reader) for _ in range(4)]
    for t in threads:
        t.start()
    for _ in range(6):
        registry.activate(2)
        registry.activate(1)
    stop.set()
    for t in threads:
        t.join(10.0)
    assert not errors
    assert len(seen) > 0
    for version, behaviors in seen:
        assert version in (1, 2)
        suffix = f"__v{version}"
        assert all(b.endswith(suffix) for b in behaviors)


# ----------------------------------------------------------------------
# Service integration: push, validation, explain/healthz surfacing
# ----------------------------------------------------------------------


def test_push_ruleset_validates_and_activates(models, generator):
    apps = [generator.sample_app(malicious=True) for _ in range(6)]
    with _service(models) as service:
        assert service.healthz()["ruleset_version"] == 0
        receipt = service.push_ruleset(_renamed_ruleset("__v1"))
        assert receipt["ruleset_version"] == 1
        assert receipt["n_rules"] == len(builtin_ruleset())
        assert service.healthz()["ruleset_version"] == 1

        for apk in apps:
            service.submit(apk)
        assert service.drain(60.0)
        for apk in apps:
            outcome = service.result(apk.md5)
            assert outcome["status"] == "done"
            assert outcome["ruleset_version"] == 1
            explained = service.explain(apk.md5)
            assert explained["ruleset_version"] == 1
            if explained["explanation"]:
                behaviors = {
                    h["behavior"]
                    for h in explained["explanation"]["hits"]
                }
                assert all(b.endswith("__v1") for b in behaviors)


def test_push_rejects_lint_errors(models):
    empty = json.dumps({"version": 1, "rules": []})
    with _service(models) as service:
        with pytest.raises(ValueError, match="lint.*empty"):
            service.push_ruleset(empty)
        # Duplicate behaviors are rejected at parse time, before lint.
        spec = builtin_ruleset()[0].to_dict()
        with pytest.raises(ValueError, match="duplicate"):
            service.push_ruleset(
                json.dumps({"version": 1, "rules": [spec, spec]})
            )
        assert service.healthz()["ruleset_version"] == 0
        assert not service.rulesets.versions  # nothing published


def test_push_rejects_unparseable_body(models):
    with _service(models) as service:
        with pytest.raises(ValueError):
            service.push_ruleset(b"{not json")
        assert service.healthz()["ruleset_version"] == 0


def test_ruleset_hot_swap_never_yields_mixed_explanations(
    models, generator
):
    """In-flight submissions during swaps see exactly one ruleset each.

    Mirrors ``test_serve_registry.py::
    test_hot_swap_never_yields_mixed_versions`` one layer up: traffic
    flows while the active ruleset keeps flipping between two pushed
    versions whose behavior names are suffix-tagged, so a mixed-version
    ``BehaviorReport`` would be visible as a suffix clash against the
    outcome's recorded ``ruleset_version``.
    """
    apps = [generator.sample_app(malicious=True) for _ in range(24)]
    with _service(models) as service:
        service.push_ruleset(_renamed_ruleset("__v1"))
        service.push_ruleset(_renamed_ruleset("__v2"))
        for i, apk in enumerate(apps):
            service.submit(apk)
            if i % 3 == 2:
                service.rulesets.activate(1 + (i // 3) % 2)
                time.sleep(0.01)
        assert service.drain(120.0)

        suffixes = {1: "__v1", 2: "__v2"}
        for apk in apps:
            outcome = service.result(apk.md5)
            assert outcome["status"] == "done"
            version = outcome["ruleset_version"]
            assert version in (1, 2)
            explained = service.explain(apk.md5)
            assert explained["ruleset_version"] == version
            if explained["explanation"]:
                behaviors = {
                    h["behavior"]
                    for h in explained["explanation"]["hits"]
                }
                # every hit in one report from exactly one version
                assert all(
                    b.endswith(suffixes[version]) for b in behaviors
                )


def test_spool_backed_service_persists_rulesets(
    tmp_path, models, generator
):
    """A durable service keeps its pushed ruleset across restarts."""
    spool = tmp_path / "spool"
    with _service(models, spool_dir=spool) as service:
        service.push_ruleset(_renamed_ruleset("__v1"))
        assert service.healthz()["ruleset_version"] == 1
    assert (spool / "rulesets" / "ruleset_manifest.json").exists()

    with _service(models, spool_dir=spool) as reopened:
        assert reopened.healthz()["ruleset_version"] == 1
        assert all(
            s.behavior.endswith("__v1")
            for s in reopened.rulesets.active_specs()
        )
