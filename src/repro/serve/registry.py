"""Versioned model registry: persisted artifacts, hot-swap, shadow scoring.

APICHECKER retrains monthly (§5.3) and the deployed service swaps the
new model in without downtime.  This module makes that swap safe:

* every published model is pickled to a versioned artifact file with a
  SHA-256 recorded in a ``manifest.json``; loads verify the hash, so a
  corrupted or tampered artifact can never be activated;
* the active model is replaced atomically under a reader/writer lock —
  every request scores under a read lease, so one request can never see
  two model versions, and a swap waits for in-flight scores;
* a **shadow** candidate scores the same live traffic in parallel with
  the active model; its verdict agreement is tracked, and promotion is
  a threshold decision on that agreement rather than an unconditional
  replace.  Candidates that disagree too much are rolled back and the
  decision is recorded in the manifest.
"""

from __future__ import annotations

import hashlib
import json
import pickle
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.checker import ApiChecker, VetVerdict
from repro.core.features import AppObservation
from repro.obs import MetricsRegistry

__all__ = [
    "IntegrityError",
    "ModelVersion",
    "PromotionDecision",
    "RWLock",
    "ModelRegistry",
    "ScoredSubmission",
]

#: Manifest schema marker.
MANIFEST_VERSION = 1


class IntegrityError(RuntimeError):
    """A model artifact failed its hash check."""


class RWLock:
    """Reader/writer lock with writer preference.

    Many scoring threads hold read leases concurrently; a hot-swap takes
    the write side, which blocks new readers and waits for in-flight
    ones — the mechanism behind "no request ever sees a mixed-version
    model".
    """

    def __init__(self):
        self._cond = threading.Condition()
        self._readers = 0
        self._writer = False
        self._writers_waiting = 0

    def acquire_read(self) -> None:
        with self._cond:
            while self._writer or self._writers_waiting:
                self._cond.wait()
            self._readers += 1

    def release_read(self) -> None:
        with self._cond:
            self._readers -= 1
            if self._readers == 0:
                self._cond.notify_all()

    def acquire_write(self) -> None:
        with self._cond:
            self._writers_waiting += 1
            try:
                while self._writer or self._readers:
                    self._cond.wait()
            finally:
                self._writers_waiting -= 1
            self._writer = True

    def release_write(self) -> None:
        with self._cond:
            self._writer = False
            self._cond.notify_all()

    class _Lease:
        __slots__ = ("_lock", "_write")

        def __init__(self, lock: "RWLock", write: bool):
            self._lock = lock
            self._write = write

        def __enter__(self):
            if self._write:
                self._lock.acquire_write()
            else:
                self._lock.acquire_read()
            return self

        def __exit__(self, *exc):
            if self._write:
                self._lock.release_write()
            else:
                self._lock.release_read()

    def read(self) -> "_Lease":
        return self._Lease(self, write=False)

    def write(self) -> "_Lease":
        return self._Lease(self, write=True)


@dataclass
class ModelVersion:
    """One published model artifact.

    Attributes:
        version: 1-based registry version number.
        filename: artifact file name inside the registry root.
        sha256: content hash of the pickled artifact.
        state: ``active`` / ``shadow`` / ``archived`` / ``rejected``.
        metadata: free-form provenance (e.g. evolution month, key-API
            count).
        created: publication wall time (epoch seconds).
    """

    version: int
    filename: str
    sha256: str
    state: str = "archived"
    metadata: dict = field(default_factory=dict)
    created: float = 0.0

    def to_dict(self) -> dict:
        return {
            "version": self.version,
            "filename": self.filename,
            "sha256": self.sha256,
            "state": self.state,
            "metadata": dict(self.metadata),
            "created": self.created,
        }

    @classmethod
    def from_dict(cls, record: dict) -> "ModelVersion":
        return cls(
            version=int(record["version"]),
            filename=record["filename"],
            sha256=record["sha256"],
            state=record.get("state", "archived"),
            metadata=dict(record.get("metadata", {})),
            created=float(record.get("created", 0.0)),
        )


@dataclass(frozen=True)
class PromotionDecision:
    """Outcome of one promote-or-rollback evaluation of a shadow model.

    Attributes:
        candidate_version: the shadow model evaluated.
        promoted: True when the candidate became the active model.
        agreement: verdict agreement rate with the active model over
            the scored sample.
        n_scored: submissions both models scored.
        reason: human-readable decision rationale.
    """

    candidate_version: int
    promoted: bool
    agreement: float
    n_scored: int
    reason: str

    def to_dict(self) -> dict:
        return {
            "candidate_version": self.candidate_version,
            "promoted": self.promoted,
            "agreement": self.agreement,
            "n_scored": self.n_scored,
            "reason": self.reason,
        }


@dataclass(frozen=True)
class ScoredSubmission:
    """One observation scored under a single read lease.

    Attributes:
        verdict: the **active** model's verdict (the served answer).
        model_version: active version that produced it.
        shadow_verdict: candidate's verdict for the same observation
            (None when no shadow is staged).
        shadow_version: candidate version, when staged.
    """

    verdict: VetVerdict
    model_version: int
    shadow_verdict: VetVerdict | None = None
    shadow_version: int | None = None

    @property
    def agreed(self) -> bool | None:
        if self.shadow_verdict is None:
            return None
        return self.shadow_verdict.malicious == self.verdict.malicious


class ModelRegistry:
    """Disk-backed registry of :class:`ApiChecker` artifacts.

    Args:
        root: directory holding artifacts and ``manifest.json``
            (created on demand).  Reopening a registry on an existing
            root restores the manifest and reloads the recorded active
            (and shadow) models.
        metrics: metrics registry for swap/shadow telemetry.
    """

    def __init__(
        self,
        root: str | Path,
        metrics: MetricsRegistry | None = None,
    ):
        self.root = Path(root)
        self.root.mkdir(parents=True, exist_ok=True)
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._manifest_path = self.root / "manifest.json"
        self._lock = RWLock()
        self._mutate = threading.Lock()  # serializes publish/manifest writes
        self.versions: dict[int, ModelVersion] = {}
        self.decisions: list[PromotionDecision] = []
        self._active: tuple[int, ApiChecker] | None = None
        self._shadow: tuple[int, ApiChecker] | None = None
        # Live shadow agreement tally for the currently staged candidate.
        self._shadow_agree = 0
        self._shadow_scored = 0
        if self._manifest_path.exists():
            self._restore()

    # ------------------------------------------------------------------
    # Manifest persistence
    # ------------------------------------------------------------------

    def _save_manifest(self) -> None:
        payload = {
            "v": MANIFEST_VERSION,
            "versions": [
                self.versions[v].to_dict() for v in sorted(self.versions)
            ],
            "decisions": [d.to_dict() for d in self.decisions],
        }
        tmp = self._manifest_path.with_suffix(".json.tmp")
        tmp.write_text(
            json.dumps(payload, indent=2, sort_keys=True), encoding="utf-8"
        )
        tmp.replace(self._manifest_path)

    def _restore(self) -> None:
        payload = json.loads(self._manifest_path.read_text(encoding="utf-8"))
        if payload.get("v") != MANIFEST_VERSION:
            raise ValueError(
                f"unsupported manifest version: {payload.get('v')!r}"
            )
        for record in payload.get("versions", []):
            mv = ModelVersion.from_dict(record)
            self.versions[mv.version] = mv
        self.decisions = [
            PromotionDecision(**d) for d in payload.get("decisions", [])
        ]
        for mv in self.versions.values():
            if mv.state == "active":
                self._active = (mv.version, self.load(mv.version))
            elif mv.state == "shadow":
                self._shadow = (mv.version, self.load(mv.version))
        self._publish_gauges()

    # ------------------------------------------------------------------
    # Artifact lifecycle
    # ------------------------------------------------------------------

    def publish(
        self,
        checker: ApiChecker,
        metadata: dict | None = None,
        activate: bool = False,
    ) -> ModelVersion:
        """Persist a fitted model as a new version.

        The artifact is written to a temp file and renamed into place,
        so a crash mid-publish never leaves a half-written artifact
        behind a manifest entry.
        """
        checker._require_fitted()
        with self._mutate:
            version = max(self.versions, default=0) + 1
            filename = f"model_v{version:04d}.pkl"
            blob = pickle.dumps(checker, protocol=pickle.HIGHEST_PROTOCOL)
            digest = hashlib.sha256(blob).hexdigest()
            tmp = self.root / (filename + ".tmp")
            tmp.write_bytes(blob)
            tmp.replace(self.root / filename)
            mv = ModelVersion(
                version=version,
                filename=filename,
                sha256=digest,
                state="archived",
                metadata=dict(metadata or {}),
                created=time.time(),
            )
            self.versions[version] = mv
            self._save_manifest()
            self.metrics.inc("serve_models_published_total")
        if activate:
            self.activate(version)
        return mv

    def load(self, version: int) -> ApiChecker:
        """Unpickle one version, verifying its recorded hash."""
        mv = self._version(version)
        blob = (self.root / mv.filename).read_bytes()
        digest = hashlib.sha256(blob).hexdigest()
        if digest != mv.sha256:
            raise IntegrityError(
                f"model v{version} artifact hash mismatch: "
                f"manifest {mv.sha256[:12]}…, file {digest[:12]}…"
            )
        return pickle.loads(blob)

    def _version(self, version: int) -> ModelVersion:
        try:
            return self.versions[version]
        except KeyError:
            raise KeyError(f"unknown model version {version}") from None

    # ------------------------------------------------------------------
    # Hot swap + shadow staging
    # ------------------------------------------------------------------

    def activate(self, version: int) -> None:
        """Atomically make ``version`` the active model.

        The artifact is loaded and hash-verified *before* the write
        lock is taken, so the swap's critical section is a pointer
        exchange — in-flight read leases finish, the swap happens, new
        leases see the new model.
        """
        checker = self.load(version)
        with self._mutate:
            with self._lock.write():
                previous = self._active
                self._active = (version, checker)
                if self._shadow is not None and self._shadow[0] == version:
                    self._shadow = None
                    self._reset_shadow_tally()
            if previous is not None and previous[0] in self.versions:
                prior = self.versions[previous[0]]
                if prior.state == "active":
                    prior.state = "archived"
            self.versions[version].state = "active"
            self._save_manifest()
            self.metrics.inc("serve_model_swaps_total")
            self._publish_gauges()

    def stage_shadow(self, version: int) -> None:
        """Stage a candidate to shadow-score live traffic."""
        checker = self.load(version)
        with self._mutate:
            with self._lock.write():
                self._shadow = (version, checker)
                self._reset_shadow_tally()
            for mv in self.versions.values():
                if mv.state == "shadow":
                    mv.state = "archived"
            self.versions[version].state = "shadow"
            self._save_manifest()
            self._publish_gauges()

    def clear_shadow(self, state: str = "archived") -> None:
        with self._mutate:
            with self._lock.write():
                staged = self._shadow
                self._shadow = None
                self._reset_shadow_tally()
            if staged is not None and staged[0] in self.versions:
                self.versions[staged[0]].state = state
                self._save_manifest()
            self._publish_gauges()

    @property
    def active_version(self) -> int | None:
        with self._lock.read():
            return self._active[0] if self._active is not None else None

    @property
    def shadow_version(self) -> int | None:
        with self._lock.read():
            return self._shadow[0] if self._shadow is not None else None

    def active_checker(self) -> ApiChecker:
        """The live model (raises when none has been activated)."""
        with self._lock.read():
            if self._active is None:
                raise RuntimeError("no active model in the registry")
            return self._active[1]

    @contextmanager
    def lease(self):
        """Read lease over a consistent ``(version, active, shadow)``.

        Everything a caller does with the yielded models — analysis,
        scoring, shadow comparison — sees one registry state; a
        concurrent :meth:`activate` waits for the lease to end.  Do not
        call tally- or manifest-mutating registry methods inside the
        lease (they take the mutate lock, inverting the lock order with
        a waiting writer); use :meth:`record_shadow_result` after.
        """
        self._lock.acquire_read()
        try:
            if self._active is None:
                raise RuntimeError("no active model in the registry")
            yield self._active[0], self._active[1], self._shadow
        finally:
            self._lock.release_read()

    # ------------------------------------------------------------------
    # Scoring
    # ------------------------------------------------------------------

    def score(self, observation: AppObservation) -> ScoredSubmission:
        """Score one observation under a single read lease.

        The active and (when staged) shadow models are both resolved
        and applied without releasing the lease, so a concurrent
        promotion can never produce a mixed-version answer; the shadow
        comparison feeds the live agreement tally.
        """
        with self.lease() as (active_version, active, shadow):
            verdict = active.verdicts_from_observations([observation])[0]
            shadow_verdict = None
            shadow_version = None
            if shadow is not None:
                shadow_version, shadow_checker = shadow
                shadow_verdict = shadow_checker.verdicts_from_observations(
                    [observation]
                )[0]
        scored = ScoredSubmission(
            verdict=verdict,
            model_version=active_version,
            shadow_verdict=shadow_verdict,
            shadow_version=shadow_version,
        )
        self.metrics.inc("serve_scored_total")
        if scored.agreed is not None:
            self.record_shadow_result(scored.agreed)
        return scored

    def record_shadow_result(self, agreed: bool) -> None:
        """Fold one active-vs-shadow verdict comparison into the tally."""
        with self._mutate:
            self._shadow_scored += 1
            if agreed:
                self._shadow_agree += 1
        self.metrics.inc(
            "serve_shadow_agree_total"
            if agreed
            else "serve_shadow_disagree_total"
        )
        self.metrics.set_gauge(
            "serve_shadow_agreement_rate", self.shadow_agreement()[2]
        )

    def shadow_agreement(self) -> tuple[int, int, float]:
        """``(n_scored, n_agree, rate)`` for the staged candidate."""
        n, agree = self._shadow_scored, self._shadow_agree
        return n, agree, (agree / n if n else 0.0)

    def _reset_shadow_tally(self) -> None:
        self._shadow_agree = 0
        self._shadow_scored = 0

    # ------------------------------------------------------------------
    # Promotion policy
    # ------------------------------------------------------------------

    def promote_on_agreement(
        self,
        min_agreement: float = 0.95,
        min_samples: int = 20,
    ) -> PromotionDecision:
        """Promote the staged shadow iff its live agreement clears the bar.

        Below-threshold candidates are rejected (state ``rejected``)
        and the active model keeps serving; either way the decision is
        appended to the manifest for audit.
        """
        with self._lock.read():
            if self._shadow is None:
                raise RuntimeError("no shadow model staged")
            candidate = self._shadow[0]
        n, agree, rate = self.shadow_agreement()
        if n < min_samples:
            decision = PromotionDecision(
                candidate_version=candidate,
                promoted=False,
                agreement=rate,
                n_scored=n,
                reason=(
                    f"insufficient shadow sample: {n} < {min_samples}"
                ),
            )
        elif rate >= min_agreement:
            decision = PromotionDecision(
                candidate_version=candidate,
                promoted=True,
                agreement=rate,
                n_scored=n,
                reason=(
                    f"agreement {rate:.3f} >= {min_agreement:.3f} "
                    f"over {n} submissions"
                ),
            )
        else:
            decision = PromotionDecision(
                candidate_version=candidate,
                promoted=False,
                agreement=rate,
                n_scored=n,
                reason=(
                    f"agreement {rate:.3f} < {min_agreement:.3f} "
                    f"over {n} submissions; keeping active model"
                ),
            )
        if decision.promoted:
            self.activate(candidate)
            self.metrics.inc("serve_promotions_total")
        else:
            if n >= min_samples:
                self.clear_shadow(state="rejected")
                self.metrics.inc("serve_rollbacks_total")
        with self._mutate:
            self.decisions.append(decision)
            self._save_manifest()
        return decision

    # ------------------------------------------------------------------
    # Telemetry
    # ------------------------------------------------------------------

    def _publish_gauges(self) -> None:
        active = self._active[0] if self._active is not None else 0
        shadow = self._shadow[0] if self._shadow is not None else 0
        self.metrics.set_gauge("serve_active_model_version", active)
        self.metrics.set_gauge("serve_shadow_model_version", shadow)
