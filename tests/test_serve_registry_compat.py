"""Version-1 model and ruleset registries reopen under the one store.

Models and rulesets share one artifact store.  The registries here come
from a test-local writer that produces the version-1 on-disk format —
``manifest.json`` with active, shadow and promotion decisions, and
``ruleset_manifest.json`` with ``n_rules`` per version — not from the
package.  Reopening must restore the same live versions, keep verifying
hashes, and rewrite the manifests byte for byte.
"""

import hashlib
import json
import pickle

import pytest

from repro.rules import builtin_ruleset
from repro.serve.registry import (
    IntegrityError,
    ModelRegistry,
    PromotionDecision,
    RulesetRegistry,
)

DECISION = {
    "candidate_version": 3,
    "promoted": False,
    "agreement": 0.5,
    "n_scored": 40,
    "reason": "agreement 0.500 < 0.950 over 40 submissions; "
    "keeping active model",
}


def _write(root, manifest: str, records: list[dict], **extra) -> bytes:
    payload = {"v": 1, "versions": records, **extra}
    text = json.dumps(payload, indent=2, sort_keys=True)
    (root / manifest).write_text(text, encoding="utf-8")
    return text.encode("utf-8")


def _record(version: int, filename: str, blob: bytes, state: str) -> dict:
    return {
        "version": version,
        "filename": filename,
        "sha256": hashlib.sha256(blob).hexdigest(),
        "state": state,
        "metadata": {"month": version},
        "created": 1000.0 + version,
    }


def write_v1_model_registry(root, checker) -> bytes:
    """v1 active, v2 shadow, v3 rejected, one decision."""
    root.mkdir(parents=True)
    blob = pickle.dumps(checker, protocol=pickle.HIGHEST_PROTOCOL)
    records = []
    for version, state in ((1, "active"), (2, "shadow"), (3, "rejected")):
        filename = f"model_v{version:04d}.pkl"
        (root / filename).write_bytes(blob)
        records.append(_record(version, filename, blob, state))
    return _write(root, "manifest.json", records, decisions=[DECISION])


def _ruleset_blob(suffix: str) -> bytes:
    rules = [
        {**spec.to_dict(), "behavior": spec.behavior + suffix}
        for spec in builtin_ruleset()
    ]
    return json.dumps({"version": 1, "rules": rules}).encode("utf-8")


def write_v1_ruleset_registry(root) -> bytes:
    """v1 archived, v2 active."""
    root.mkdir(parents=True)
    records = []
    for version, state in ((1, "archived"), (2, "active")):
        blob = _ruleset_blob(f"_v{version}")
        filename = f"ruleset_v{version:04d}.json"
        (root / filename).write_bytes(blob)
        record = _record(version, filename, blob, state)
        record["n_rules"] = len(builtin_ruleset())
        records.append(record)
    return _write(root, "ruleset_manifest.json", records)


def _flip_middle_byte(path) -> None:
    blob = bytearray(path.read_bytes())
    blob[len(blob) // 2] ^= 0xFF
    path.write_bytes(bytes(blob))


def test_v1_model_registry_reopens(tmp_path, fitted_checker):
    root = tmp_path / "models"
    manifest = write_v1_model_registry(root, fitted_checker)
    registry = ModelRegistry(root)
    assert registry.active_version == 1
    assert registry.shadow_version == 2
    assert registry.versions[3].state == "rejected"
    assert registry.versions[2].metadata == {"month": 2}
    assert registry.decisions == [PromotionDecision(**DECISION)]
    assert registry.load(3) is not None  # hash-checked load
    # Re-activating the active version rewrites the manifest unchanged.
    registry.activate(1)
    assert (root / "manifest.json").read_bytes() == manifest


def test_v1_ruleset_registry_reopens(tmp_path):
    root = tmp_path / "rulesets"
    manifest = write_v1_ruleset_registry(root)
    registry = RulesetRegistry(root)
    assert registry.active_version == 2
    assert {s.behavior for s in registry.active_specs()} == {
        s.behavior + "_v2" for s in builtin_ruleset()
    }
    assert registry.versions[1].n_rules == len(builtin_ruleset())
    assert registry.load(1)[0].behavior.endswith("_v1")
    registry.activate(2)
    assert (root / "ruleset_manifest.json").read_bytes() == manifest


@pytest.mark.parametrize("version", [1, 2])
def test_tampered_v1_model_artifact_fails_reopen(
    tmp_path, fitted_checker, version
):
    root = tmp_path / "models"
    write_v1_model_registry(root, fitted_checker)
    _flip_middle_byte(root / f"model_v{version:04d}.pkl")
    with pytest.raises(IntegrityError, match="hash mismatch"):
        ModelRegistry(root)


def test_tampered_v1_ruleset_artifact_fails_reopen(tmp_path):
    root = tmp_path / "rulesets"
    write_v1_ruleset_registry(root)
    _flip_middle_byte(root / "ruleset_v0002.json")
    with pytest.raises(IntegrityError, match="hash mismatch"):
        RulesetRegistry(root)


def test_new_manifests_keep_the_v1_key_sets(tmp_path, fitted_checker):
    write_v1_model_registry(tmp_path / "old-models", fitted_checker)
    write_v1_ruleset_registry(tmp_path / "old-rulesets")
    models = ModelRegistry(tmp_path / "models")
    models.publish(fitted_checker, activate=True)
    rulesets = RulesetRegistry(tmp_path / "rulesets")
    rulesets.publish(_ruleset_blob("_x"), activate=True)
    for old, new in (
        ("old-models/manifest.json", "models/manifest.json"),
        ("old-rulesets/ruleset_manifest.json", "rulesets/ruleset_manifest.json"),
    ):
        old_payload = json.loads((tmp_path / old).read_text())
        new_payload = json.loads((tmp_path / new).read_text())
        assert set(new_payload) == set(old_payload)
        assert new_payload["v"] == old_payload["v"] == 1
        assert set(new_payload["versions"][0]) == set(old_payload["versions"][0])


def test_artifact_bytes_are_the_codec_bytes(tmp_path, fitted_checker):
    models = ModelRegistry(tmp_path / "models")
    mv = models.publish(fitted_checker)
    blob = pickle.dumps(fitted_checker, protocol=pickle.HIGHEST_PROTOCOL)
    assert (tmp_path / "models" / mv.filename).read_bytes() == blob
    assert mv.sha256 == hashlib.sha256(blob).hexdigest()

    rulesets = RulesetRegistry(tmp_path / "rulesets")
    rv = rulesets.publish(builtin_ruleset())
    canonical = (
        json.dumps(
            {"version": 1, "rules": [s.to_dict() for s in builtin_ruleset()]},
            indent=2,
            sort_keys=True,
        )
        + "\n"
    ).encode("utf-8")
    assert (tmp_path / "rulesets" / rv.filename).read_bytes() == canonical
    assert rv.sha256 == hashlib.sha256(canonical).hexdigest()
