"""One versioned artifact store for models and behavior rulesets.

The deployed service swaps a monthly retrained model (§5.3) and a
pushed behavior ruleset in without downtime.  Both run on one
mechanism, :class:`ArtifactStore`, whose two subclasses are its codecs
(a pickled :class:`ApiChecker`, ruleset JSON): artifacts and the
manifest are replaced by :func:`repro.records.atomic_write`, every load
checks the artifact's SHA-256 against the manifest, the active version
is swapped atomically under a reader/writer lock (every micro-batch
runs under one read lease), and reopening a root restores the live
versions.

:class:`ModelRegistry` adds a **shadow** candidate scored against the
same traffic and one promoter, :meth:`ModelRegistry.promote`, whose
rule is data (:class:`PromotionPolicy`).  :class:`RulesetRegistry` adds
the bundled ruleset as version 0 and an in-memory mode (``root=None``).
"""

from __future__ import annotations

import hashlib
import json
import pickle
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Any, Callable, Sequence

from repro.core.checker import ApiChecker, VetVerdict
from repro.core.features import AppObservation
from repro.obs import MetricsRegistry
from repro.records import atomic_write
from repro.rules.builtin import builtin_ruleset
from repro.rules.spec import RuleSpec, load_ruleset

__all__ = [
    "ArtifactStore",
    "ArtifactVersion",
    "BUILTIN_RULESET_VERSION",
    "IntegrityError",
    "ModelRegistry",
    "ModelVersion",
    "PromotionDecision",
    "PromotionPolicy",
    "RWLock",
    "RulesetRegistry",
    "RulesetVersion",
    "ShadowPromotionGate",
    "score_with_shadow",
]

#: Manifest schema marker (both manifests).
MANIFEST_VERSION = 1

#: The implicit version of the bundled starter ruleset.
BUILTIN_RULESET_VERSION = 0


class IntegrityError(RuntimeError):
    """An artifact failed its hash check."""


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

    @contextmanager
    def read(self):
        self.acquire_read()
        try:
            yield
        finally:
            self.release_read()

    @contextmanager
    def write(self):
        self.acquire_write()
        try:
            yield
        finally:
            self.release_write()


@dataclass
class ArtifactVersion:
    """One published artifact: a manifest record.  ``state`` is
    ``active`` / ``shadow`` / ``archived`` / ``rejected``; ``n_rules``
    is recorded for rulesets only."""

    version: int
    filename: str
    sha256: str
    state: str = "archived"
    metadata: dict = field(default_factory=dict)
    created: float = 0.0
    n_rules: int | None = None

    def to_dict(self) -> dict:
        return {k: v for k, v in asdict(self).items() if v is not None}


#: The record types of the two registries are one type.
ModelVersion = RulesetVersion = ArtifactVersion


class ArtifactStore:
    """Versioned, hash-verified artifacts with one atomically swapped
    active version.  ``root=None`` keeps artifacts and manifest in
    memory; ``active`` is what serves before anything is activated.

    A subclass is the codec: ``kind`` names errors and metrics,
    ``manifest`` and ``filename`` (formatted with the version) the
    files, ``swap_counter`` the activation counter; ``encode(source) ->
    (bytes, extra record fields)`` raises on an invalid source before
    anything is written, and ``decode(bytes)`` inverts it.
    """

    kind: str
    manifest: str
    filename: str
    swap_counter: str

    def __init__(
        self,
        root: str | Path | None,
        metrics: MetricsRegistry | None = None,
        active: tuple[int, Any] | None = None,
    ):
        self.root = Path(root) if root is not None else None
        self.metrics = metrics if metrics is not None else MetricsRegistry()
        self._lock = RWLock()
        self._mutate = threading.Lock()  # serializes manifest writes
        self.versions: dict[int, ArtifactVersion] = {}
        self._blobs: dict[int, bytes] = {}  # artifacts when root is None
        self._active = active
        if self.root is not None:
            self.root.mkdir(parents=True, exist_ok=True)
            manifest = self.root / self.manifest
            if manifest.exists():
                payload = json.loads(manifest.read_text(encoding="utf-8"))
                if payload.get("v") != MANIFEST_VERSION:
                    raise ValueError(
                        f"unsupported {self.kind} manifest version: "
                        f"{payload.get('v')!r}"
                    )
                self._restore(payload)
        self._publish_gauges()

    def _manifest_payload(self) -> dict:
        return {
            "v": MANIFEST_VERSION,
            "versions": [
                self.versions[v].to_dict() for v in sorted(self.versions)
            ],
        }

    def _save_manifest(self) -> None:
        """Replace the manifest whole; callers hold ``_mutate``."""
        if self.root is None:
            return
        text = json.dumps(self._manifest_payload(), indent=2, sort_keys=True)
        atomic_write(self.root / self.manifest, text.encode())

    def _restore(self, payload: dict) -> None:
        for record in payload.get("versions", []):
            av = ArtifactVersion(**record)
            self.versions[av.version] = av
        for av in self.versions.values():
            if av.state == "active":
                self._active = (av.version, self.load(av.version))

    def publish(
        self, source, metadata: dict | None = None, activate: bool = False
    ) -> ArtifactVersion:
        """Persist ``source`` as a new version (never half-written: the
        source is validated first, the artifact lands before the
        manifest names it)."""
        blob, extra = self.encode(source)
        with self._mutate:
            version = max(self.versions, default=0) + 1
            filename = self.filename.format(version)
            if self.root is None:
                self._blobs[version] = blob
            else:
                atomic_write(self.root / filename, blob)
            av = ArtifactVersion(
                version=version,
                filename=filename,
                sha256=hashlib.sha256(blob).hexdigest(),
                metadata=dict(metadata or {}),
                created=time.time(),
                **extra,
            )
            self.versions[version] = av
            self._save_manifest()
            self.metrics.inc(f"serve_{self.kind}s_published_total")
        if activate:
            self.activate(version)
        return av

    def load(self, version: int):
        """Decode one version, verifying its recorded hash."""
        try:
            av = self.versions[version]
        except KeyError:
            raise KeyError(
                f"unknown {self.kind} version {version}"
            ) from None
        if self.root is None:
            blob = self._blobs[version]
        else:
            blob = (self.root / av.filename).read_bytes()
        digest = hashlib.sha256(blob).hexdigest()
        if digest != av.sha256:
            raise IntegrityError(
                f"{self.kind} v{version} artifact hash mismatch: "
                f"manifest {av.sha256[:12]}…, file {digest[:12]}…"
            )
        return self.decode(blob)

    def activate(self, version: int) -> None:
        """Atomically make ``version`` the active artifact.

        It is loaded and hash-verified *before* the write lock is
        taken, so the swap is a pointer exchange: in-flight leases
        finish on the old version, new leases see the new one.
        """
        live = self.load(version)
        with self._mutate:
            with self._lock.write():
                previous = self._active
                self._active = (version, live)
                self._on_activate(version)
            if previous is not None and previous[0] in self.versions:
                prior = self.versions[previous[0]]
                if prior.state == "active":
                    prior.state = "archived"
            if version in self.versions:
                self.versions[version].state = "active"
            self._save_manifest()
            self.metrics.inc(self.swap_counter)
            self._publish_gauges()

    def _on_activate(self, version: int) -> None:
        """Extra swap work, under the write lock."""

    @property
    def active_version(self) -> int | None:
        with self._lock.read():
            return self._active[0] if self._active is not None else None

    def active(self):
        """The live artifact (raises when none has been activated)."""
        with self._lock.read():
            return self._leased()[1]

    @contextmanager
    def lease(self):
        """Read lease over one consistent registry state; a concurrent
        :meth:`activate` waits for it.  Do not call tally- or
        manifest-mutating methods inside it (they take the mutate lock,
        inverting the lock order with a waiting writer)."""
        self._lock.acquire_read()
        try:
            yield self._leased()
        finally:
            self._lock.release_read()

    def _leased(self):
        if self._active is None:
            raise RuntimeError(f"no active {self.kind} in the registry")
        return self._active

    def _publish_gauges(self) -> None:
        kind = self.kind
        active = self._active[0] if self._active is not None else 0
        self.metrics.set_gauge(f"serve_active_{kind}_version", active)
        self.metrics.set_gauge(f"serve_{kind}s_published", len(self.versions))


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
        return asdict(self)


@dataclass(frozen=True)
class PromotionPolicy:
    """When a staged candidate replaces the active model.

    ``metric="agreement"``: its verdict agreement with the active model
    must reach ``min_agreement``.  ``metric="f1"``: its F1 on labelled
    feedback must reach the active model's (a tie promotes).  Below
    ``min_samples`` scored submissions nothing is decided.
    """

    metric: str = "agreement"
    min_agreement: float = 0.95
    min_samples: int = 20


def decide(
    policy: PromotionPolicy,
    candidate_version: int,
    n_scored: int,
    agreement: float,
    f1: tuple[float, float] | None = None,
) -> PromotionDecision:
    """Apply ``policy``; ``f1`` is ``(active_f1, candidate_f1)``."""
    if policy.metric == "agreement":
        name, value, bar = "agreement", agreement, policy.min_agreement
    elif policy.metric == "f1" and f1 is not None:
        name, (bar, value) = "F1", f1
    else:
        raise ValueError(f"cannot decide {policy!r} with f1={f1!r}")
    if n_scored < policy.min_samples:
        promoted = False
        reason = (
            f"insufficient shadow sample: {n_scored} < {policy.min_samples}"
        )
    else:
        promoted = value >= bar
        reason = (
            f"{name} {value:.3f} {'>=' if promoted else '<'} {bar:.3f} "
            f"over {n_scored} submissions"
        ) + ("" if promoted else "; keeping active model")
    return PromotionDecision(
        candidate_version, promoted, agreement, n_scored, reason
    )


def score_with_shadow(
    active: ApiChecker,
    shadow: tuple[int, ApiChecker] | None,
    observations: Sequence[AppObservation],
    **verdict_args,
) -> tuple[list[VetVerdict], list[bool] | None]:
    """Active verdicts (``verdict_args`` go to the active model's
    ``verdicts_from_observations``) plus per-app shadow agreement, None
    without a shadow: one scoring call per model.  Takes no lock; call
    it under a :meth:`ModelRegistry.lease` you hold."""
    verdicts = active.verdicts_from_observations(observations, **verdict_args)
    if shadow is None:
        return verdicts, None
    shadow_verdicts = shadow[1].verdicts_from_observations(observations)
    return verdicts, [
        s.malicious == v.malicious for s, v in zip(shadow_verdicts, verdicts)
    ]


class ModelRegistry(ArtifactStore):
    """Disk-backed registry of :class:`ApiChecker` artifacts.

    Reopening ``root`` restores the manifest (promotion decisions
    included) and reloads the active and shadow models; ``metrics``
    receives swap/shadow telemetry.
    """

    kind, manifest, filename = "model", "manifest.json", "model_v{:04d}.pkl"
    swap_counter = "serve_model_swaps_total"
    decode = staticmethod(pickle.loads)

    def __init__(
        self, root: str | Path, metrics: MetricsRegistry | None = None
    ):
        self.decisions: list[PromotionDecision] = []
        self._shadow: tuple[int, ApiChecker] | None = None
        # (n_scored, n_agree) for the currently staged candidate.
        self._tally = (0, 0)
        super().__init__(root, metrics)

    @staticmethod
    def encode(checker: ApiChecker) -> tuple[bytes, dict]:
        checker._require_fitted()
        return pickle.dumps(checker, protocol=pickle.HIGHEST_PROTOCOL), {}

    def _manifest_payload(self) -> dict:
        payload = super()._manifest_payload()
        payload["decisions"] = [d.to_dict() for d in self.decisions]
        return payload

    def _restore(self, payload: dict) -> None:
        super()._restore(payload)
        self.decisions = [
            PromotionDecision(**d) for d in payload.get("decisions", [])
        ]
        for mv in self.versions.values():
            if mv.state == "shadow":
                self._shadow = (mv.version, self.load(mv.version))

    def _on_activate(self, version: int) -> None:
        if self._shadow is not None and self._shadow[0] == version:
            self._shadow = None
            self._tally = (0, 0)

    active_checker = ArtifactStore.active

    def _leased(self):
        """``(version, active, shadow)`` for :meth:`lease`."""
        return (*super()._leased(), self._shadow)

    def _publish_gauges(self) -> None:
        super()._publish_gauges()
        shadow = self._shadow[0] if self._shadow is not None else 0
        self.metrics.set_gauge("serve_shadow_model_version", shadow)

    def stage_shadow(self, version: int) -> None:
        """Stage a candidate to shadow-score live traffic."""
        self._set_shadow((version, self.load(version)))

    def clear_shadow(self, state: str = "archived") -> None:
        self._set_shadow(None, state)

    def _set_shadow(self, staged, state: str = "archived") -> None:
        """Swap the staged shadow; the one it replaces goes to ``state``."""
        with self._mutate:
            with self._lock.write():
                previous, self._shadow = self._shadow, staged
                self._tally = (0, 0)
            if previous is not None and previous[0] in self.versions:
                self.versions[previous[0]].state = state
            if staged is not None:
                self.versions[staged[0]].state = "shadow"
            self._save_manifest()
            self._publish_gauges()

    @property
    def shadow_version(self) -> int | None:
        with self._lock.read():
            return self._shadow[0] if self._shadow is not None else None

    def score_batch(
        self, observations: Sequence[AppObservation]
    ) -> tuple[int, list[VetVerdict], int | None, list[bool] | None]:
        """Score a batch under one lease, one call per model; returns
        ``(version, verdicts, shadow_version, agreed)`` and folds
        ``agreed`` into the shadow tally."""
        with self.lease() as (version, active, shadow):
            verdicts, agreed = score_with_shadow(active, shadow, observations)
            shadow_version = shadow[0] if shadow is not None else None
        self.metrics.inc("serve_scored_total", len(verdicts))
        if agreed is not None:
            self.record_shadow_results(agreed)
        return version, verdicts, shadow_version, agreed

    def record_shadow_results(self, agreed: Sequence[bool]) -> None:
        """Fold active-vs-shadow verdict comparisons into the tally."""
        n, n_agree = len(agreed), sum(map(bool, agreed))
        with self._mutate:
            scored, agree = self._tally
            self._tally = (scored + n, agree + n_agree)
        for outcome, count in (("agree", n_agree), ("disagree", n - n_agree)):
            if count:
                self.metrics.inc(f"serve_shadow_{outcome}_total", count)
        self.metrics.set_gauge(
            "serve_shadow_agreement_rate", self.shadow_agreement()[2]
        )

    def shadow_agreement(self) -> tuple[int, int, float]:
        """``(n_scored, n_agree, rate)`` for the staged candidate."""
        n, agree = self._tally
        return n, agree, (agree / n if n else 0.0)

    def promote(
        self,
        policy: PromotionPolicy = PromotionPolicy(),
        f1: tuple[float, float] | None = None,
        rollout: Callable[[int], None] | None = None,
    ) -> PromotionDecision:
        """Decide on the staged shadow from its tally (``f1`` is
        ``(active_f1, candidate_f1)`` for the ``f1`` policy) and record
        the decision in the manifest.

        A promoted candidate goes live through ``rollout(version)``
        (default :meth:`activate`; a shard tier passes its roll, which
        activates through the manifest its workers read).  A rejected
        one is marked ``rejected``; too small a sample leaves it staged.
        """
        with self._lock.read():
            if self._shadow is None:
                raise RuntimeError("no shadow model staged")
            candidate = self._shadow[0]
        n, _, rate = self.shadow_agreement()
        decision = decide(policy, candidate, n, rate, f1)
        with self._mutate:
            self.decisions.append(decision)
            self._save_manifest()
        if decision.promoted:
            (rollout or self.activate)(candidate)
            self.metrics.inc("serve_promotions_total")
        elif n >= policy.min_samples:
            self.clear_shadow(state="rejected")
            self.metrics.inc("serve_rollbacks_total")
        return decision


class ShadowPromotionGate:
    """The :class:`~repro.core.evolution.EvolutionLoop` ``model_gate``:
    publish the candidate, stage it as the shadow, replay the month
    (at most ``max_replay`` observations) as one batch per model, and
    promote on agreement.  Returns the :class:`PromotionDecision`; the
    registry must hold an active model (the loop's current one)::

        registry.publish(loop.checker, activate=True)
        loop.model_gate = ShadowPromotionGate(registry, min_agreement=0.9)
    """

    def __init__(
        self,
        registry: ModelRegistry,
        min_agreement: float = 0.95,
        min_samples: int = 20,
        max_replay: int = 1000,
    ):
        if not 0.0 < min_agreement <= 1.0:
            raise ValueError("min_agreement must be in (0, 1]")
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        if max_replay < min_samples:
            raise ValueError("max_replay must be >= min_samples")
        self.registry = registry
        self.policy = PromotionPolicy("agreement", min_agreement, min_samples)
        self.max_replay = max_replay

    def __call__(
        self,
        candidate: ApiChecker,
        observations: list[AppObservation],
        metadata: dict | None = None,
    ) -> PromotionDecision:
        if self.registry.active_version is None:
            raise RuntimeError(
                "ShadowPromotionGate needs an active model to compare "
                "against; publish the loop's current checker with "
                "activate=True first"
            )
        replay = observations[: self.max_replay]
        meta = {"source": "evolution", **(metadata or {})}
        meta["n_replay"] = len(replay)
        version = self.registry.publish(candidate, metadata=meta).version
        self.registry.stage_shadow(version)
        self.registry.score_batch(replay)
        return self.registry.promote(self.policy)


class RulesetRegistry(ArtifactStore):
    """Registry of behavior-ruleset artifacts with atomic activation.

    The bundled ruleset is the implicit **version 0**, served until
    something is activated.  ``root=None`` keeps everything in memory,
    what a shard worker wants for rulesets pushed over the wire.
    """

    kind, manifest = "ruleset", "ruleset_manifest.json"
    filename, swap_counter = "ruleset_v{:04d}.json", "ruleset_swap_total"

    def __init__(
        self,
        root: str | Path | None = None,
        metrics: MetricsRegistry | None = None,
    ):
        builtin = (BUILTIN_RULESET_VERSION, builtin_ruleset())
        super().__init__(root, metrics, active=builtin)

    @staticmethod
    def decode(blob: bytes) -> tuple[RuleSpec, ...]:
        return tuple(load_ruleset(json.loads(blob.decode("utf-8"))))

    @staticmethod
    def encode(source) -> tuple[bytes, dict]:
        """Raw bytes/str are kept verbatim (the pushed bytes are what is
        hashed); parsed forms are serialized canonically."""
        if isinstance(source, str):
            source = source.encode("utf-8")
        elif not isinstance(source, bytes):
            if not isinstance(source, dict):
                source = {
                    "version": 1,
                    "rules": [
                        s.to_dict() if isinstance(s, RuleSpec) else dict(s)
                        for s in source
                    ],
                }
            text = json.dumps(source, indent=2, sort_keys=True) + "\n"
            source = text.encode("utf-8")
        return source, {"n_rules": len(RulesetRegistry.decode(source))}

    def load(self, version: int) -> tuple[RuleSpec, ...]:
        if version == BUILTIN_RULESET_VERSION:
            return builtin_ruleset()
        return super().load(version)

    active_specs = ArtifactStore.active
