"""Differential re-vetting of app updates.

T-Market's traffic is ~85% updates, and §5.2 notes that flagged updates
"can be quickly vetted based on their previous versions".  This module
generalizes that observation into a pipeline stage: when an update's
*static* profile (declared API call sites, permissions, intents) is
near-identical to a version APICHECKER already scanned, the previous
verdict is inherited at negligible cost; only meaningfully changed
updates pay for a full dynamic scan.

The similarity gate is deliberately conservative — permissions or
intents appearing that the parent never had always force a full scan,
because permission creep is exactly how update attacks smuggle
capability in.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.android.apk import Apk
from repro.core.checker import ApiChecker, VetVerdict
from repro.obs import MetricsRegistry

#: Simulated cost of a differential check (seconds): a static diff.
DIFF_CHECK_SECONDS = 4.0

#: Counter keys the vetter maintains (registry: ``diffvet_<key>_total``).
DIFFVET_STAT_KEYS = ("full_scans", "fast_paths")


@dataclass(frozen=True)
class DiffVetStats:
    """Typed snapshot of a :class:`DiffVetter`'s counters.

    Mirrors the :class:`repro.core.engine.EngineStats` pattern: the
    counters live in a :class:`~repro.obs.MetricsRegistry` (one stats
    surface for the whole stack) and this view is how code reads them.
    """

    full_scans: int
    fast_paths: int

    @classmethod
    def from_registry(cls, registry: MetricsRegistry) -> "DiffVetStats":
        return cls(
            full_scans=int(registry.value("diffvet_full_scans_total")),
            fast_paths=int(registry.value("diffvet_fast_paths_total")),
        )

    @property
    def total(self) -> int:
        return self.full_scans + self.fast_paths

    @property
    def fast_path_fraction(self) -> float:
        return self.fast_paths / self.total if self.total else 0.0

    def as_dict(self) -> dict[str, int]:
        """Plain-dict rendering of the counters (one key per stat)."""
        return {key: getattr(self, key) for key in DIFFVET_STAT_KEYS}


@dataclass(frozen=True)
class StaticProfile:
    """The static fingerprint used for differential comparison."""

    api_ids: frozenset[int]
    hidden_api_ids: frozenset[int]
    permissions: frozenset[str]
    intents: frozenset[str]

    @classmethod
    def of(cls, apk: Apk) -> "StaticProfile":
        return cls(
            api_ids=frozenset(apk.dex.direct_api_ids),
            hidden_api_ids=frozenset(apk.dex.reflection_api_ids),
            permissions=frozenset(apk.manifest.requested_permissions),
            intents=frozenset(apk.dex.sent_intents)
            | frozenset(apk.manifest.receiver_intent_actions),
        )

    def jaccard(self, other: "StaticProfile") -> float:
        """API-set similarity (direct plus hidden call sites)."""
        a = self.api_ids | self.hidden_api_ids
        b = other.api_ids | other.hidden_api_ids
        if not a and not b:
            return 1.0
        return len(a & b) / len(a | b)

    def gained_capability(self, parent: "StaticProfile") -> bool:
        """Did this version request anything the parent never did?"""
        return bool(
            (self.permissions - parent.permissions)
            or (self.intents - parent.intents)
            or (self.hidden_api_ids - parent.hidden_api_ids)
        )


@dataclass(frozen=True)
class DiffDecision:
    """Outcome of the differential gate for one submission."""

    apk_md5: str
    fast_path: bool
    verdict: VetVerdict | None
    reason: str
    similarity: float = 0.0


class DiffVetter:
    """Wraps a fitted :class:`ApiChecker` with update-aware fast paths.

    Args:
        checker: the fitted detector handling full scans.
        similarity_threshold: minimum API-set Jaccard similarity to the
            scanned parent for verdict inheritance.
        registry: metrics registry the scan counters land in (default:
            the checker's registry when it has one, else a private
            registry — same unification rule as the engine).
    """

    def __init__(
        self,
        checker: ApiChecker,
        similarity_threshold: float = 0.95,
        registry: MetricsRegistry | None = None,
    ):
        checker._require_fitted()
        if not 0.5 <= similarity_threshold <= 1.0:
            raise ValueError("similarity_threshold must be in [0.5, 1]")
        self.checker = checker
        self.similarity_threshold = similarity_threshold
        if registry is None:
            registry = checker.registry or MetricsRegistry()
        self.registry = registry
        self._profiles: dict[str, StaticProfile] = {}
        self._verdicts: dict[str, VetVerdict] = {}

    @property
    def stats_view(self) -> DiffVetStats:
        """Typed counter snapshot of the vetter's registry."""
        return DiffVetStats.from_registry(self.registry)

    def _full_scan(self, apk: Apk, reason: str) -> DiffDecision:
        verdict = self.checker.vet_batch([apk])[0]
        self._profiles[apk.md5] = StaticProfile.of(apk)
        self._verdicts[apk.md5] = verdict
        self.registry.inc("diffvet_full_scans_total")
        return DiffDecision(
            apk_md5=apk.md5, fast_path=False, verdict=verdict, reason=reason
        )

    def vet(self, apk: Apk) -> DiffDecision:
        """Vet one submission, differentially when safe."""
        parent_md5 = apk.parent_md5
        if parent_md5 is None or parent_md5 not in self._profiles:
            return self._full_scan(apk, reason="no scanned parent")
        parent_profile = self._profiles[parent_md5]
        profile = StaticProfile.of(apk)
        if profile.gained_capability(parent_profile):
            return self._full_scan(apk, reason="capability gained")
        similarity = profile.jaccard(parent_profile)
        if similarity < self.similarity_threshold:
            return self._full_scan(
                apk, reason=f"code churn (jaccard {similarity:.2f})"
            )
        parent_verdict = self._verdicts[parent_md5]
        verdict = VetVerdict(
            apk_md5=apk.md5,
            malicious=parent_verdict.malicious,
            probability=parent_verdict.probability,
            analysis_minutes=DIFF_CHECK_SECONDS / 60.0,
            fell_back=False,
        )
        self._profiles[apk.md5] = profile
        self._verdicts[apk.md5] = verdict
        self.registry.inc("diffvet_fast_paths_total")
        return DiffDecision(
            apk_md5=apk.md5,
            fast_path=True,
            verdict=verdict,
            reason="inherited from previous version",
            similarity=similarity,
        )

    def vet_batch(self, apps) -> list[DiffDecision]:
        """Vet in submission order so parents precede their updates."""
        return [self.vet(apk) for apk in apps]

    @property
    def fast_path_fraction(self) -> float:
        return self.stats_view.fast_path_fraction
