"""The correctness gate: served verdicts against an in-process reference.

The reference vets every app with the same registry artifact the server
loaded: ``production_engine.analyze`` per app, then one
``verdicts_from_observations`` call.  A served outcome must match it
bitwise on md5, malicious, probability and model version.
"""

from __future__ import annotations

import struct

import numpy as np


def reference_verdicts(checker, apps) -> tuple[dict, list]:
    """``(md5 -> VetVerdict, observations)`` for ``apps``, computed in
    this process."""
    analyses = [checker.production_engine.analyze(apk) for apk in apps]
    observations = [a.observation for a in analyses]
    verdicts = checker.verdicts_from_observations(
        observations,
        analysis_minutes=[a.total_minutes for a in analyses],
        fell_back=[a.fell_back for a in analyses],
    )
    return {v.apk_md5: v for v in verdicts}, observations


def same_float(a: float, b: float) -> bool:
    return struct.pack("<d", a) == struct.pack("<d", b)


def mismatch(md5: str, outcome: dict, ref, model_version: int) -> str | None:
    """Why a served outcome differs from the reference (None if equal)."""
    if outcome.get("status") != "done":
        return f"{md5}: status {outcome.get('status')!r}"
    got = (outcome.get("md5"), outcome.get("malicious"),
           outcome.get("model_version"))
    want = (ref.apk_md5, bool(ref.malicious), model_version)
    if got != want:
        return f"{md5}: served {got} != reference {want}"
    prob = outcome.get("probability")
    if not isinstance(prob, float) or not same_float(prob, ref.probability):
        return (f"{md5}: probability {prob!r} != reference "
                f"{ref.probability!r}")
    return None


def f1_score(labels, predicted) -> float:
    from repro.ml.metrics import evaluate

    return float(evaluate(np.asarray(labels, dtype=bool),
                          np.asarray(predicted, dtype=bool)).f1)
