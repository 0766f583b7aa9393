"""Dynamic analysis engine: emulation + hooking + reliability plumbing.

Wraps the emulator substrate with the production behaviours of §5.1:
crash detection (the customized SystemServer reports exceptions to the
scheduling cores) with bounded retry, and fallback from the lightweight
Android-x86 engine to the Google full-system emulator for the <1% of
incompatible apps — so that *every* submitted app gets analyzed.

Randomness is derived **per app** from ``(engine seed, apk md5)``, not
from one shared stream: the observation an app produces depends only on
the app and the engine configuration, never on which other apps ran
before it or on which worker thread executed it.  This is what lets the
parallel pipeline (:mod:`repro.core.pipeline`) produce bit-identical
results to a sequential run.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.android.apk import Apk
from repro.android.sdk import AndroidSdk
from repro.corpus.generator import AppCorpus
from repro.core.features import AppObservation
from repro.emulator.backends import (
    EmulatorBackend,
    EmulatorCrash,
    GoogleEmulator,
    IncompatibleAppError,
    LightweightEmulator,
)
from repro.emulator.device import DeviceEnvironment
from repro.emulator.hooks import HookEngine
from repro.emulator.monkey import MonkeyExerciser
from repro.emulator.runtime import EmulationResult, emulate_app
from repro.obs import (
    DEFAULT_MINUTES_BUCKETS,
    MetricsRegistry,
    SpanSink,
    span,
)

#: Sentinel distinguishing "use the default fallback" from "no fallback".
_DEFAULT_FALLBACK = object()

#: Counter keys the engine maintains (registry names: ``engine_<key>_total``).
ENGINE_STAT_KEYS = ("submissions", "analyzed", "crashes", "fallbacks",
                    "failures")


@dataclass(frozen=True)
class EngineStats:
    """Typed snapshot of one engine's counters, backed by its registry.

    The invariant the reliability story rests on:
    every submission ends up analyzed or failed —
    ``analyzed + failures <= submissions`` at all times, with equality
    once no analysis is in flight.
    """

    submissions: int
    analyzed: int
    crashes: int
    fallbacks: int
    failures: int
    crash_waste_minutes: float = 0.0

    @classmethod
    def from_registry(cls, registry: MetricsRegistry) -> "EngineStats":
        return cls(
            submissions=int(registry.value("engine_submissions_total")),
            analyzed=int(registry.value("engine_analyzed_total")),
            crashes=int(registry.value("engine_crashes_total")),
            fallbacks=int(registry.value("engine_fallbacks_total")),
            failures=int(registry.value("engine_failures_total")),
            crash_waste_minutes=float(
                registry.value("engine_crash_waste_minutes_total")
            ),
        )

    @property
    def settled(self) -> bool:
        """True when every submission reached a terminal outcome."""
        return self.analyzed + self.failures == self.submissions

    def as_dict(self) -> dict[str, int]:
        """Plain-dict rendering of the counters (one key per stat)."""
        return {key: getattr(self, key) for key in ENGINE_STAT_KEYS}


class AnalysisFailure(RuntimeError):
    """Every backend exhausted its retries for one app.

    Attributes:
        apk_md5: identity of the app that could not be analyzed.
        attempts: total emulation attempts made before giving up.
        wasted_minutes: simulated time burnt on the failed attempts.
    """

    def __init__(
        self,
        message: str,
        apk_md5: str = "",
        attempts: int = 0,
        wasted_minutes: float = 0.0,
    ):
        super().__init__(message)
        self.apk_md5 = apk_md5
        self.attempts = attempts
        self.wasted_minutes = wasted_minutes


@dataclass(frozen=True)
class AppAnalysis:
    """Engine output for one app.

    Attributes:
        observation: encoder-ready features.
        result: the successful emulation run.
        attempts: total emulation attempts (1 = clean first run).
        fell_back: True when the Google emulator had to take over.
        total_minutes: analysis time including failed attempts.
        from_cache: True when the observation was served from an
            :class:`~repro.core.pipeline.ObservationCache` hit (no
            emulation ran; ``result`` is None).
    """

    observation: AppObservation
    result: EmulationResult | None
    attempts: int
    fell_back: bool
    total_minutes: float
    from_cache: bool = False


class DynamicAnalysisEngine:
    """Analyzes apps on a primary backend with automatic fallback.

    Thread-safe: ``analyze`` may be called concurrently from pipeline
    workers; the stats counters are lock-protected and all per-app
    randomness comes from :meth:`rng_for`.

    Args:
        sdk: API registry.
        tracked_api_ids: APIs to hook (None/empty tracks nothing).
        primary: main backend (production: the lightweight engine).
        fallback: reliability backend (production: Google emulator);
            pass None to disable fallback.
        env: device environment (production: hardened).
        monkey_events: UI events per app (paper: 5K).
        max_retries: crash retries per backend before falling back.
        seed: rng seed for all stochastic parts.
        registry: metrics registry all counters/histograms land in
            (default: a fresh private registry, so each engine's counts
            stay exact in isolation; thread a shared registry through
            to unify pipeline/service/ML telemetry).
        sink: optional span sink receiving per-analysis trace events.
    """

    def __init__(
        self,
        sdk: AndroidSdk,
        tracked_api_ids: np.ndarray | list[int] | None = None,
        primary: EmulatorBackend | None = None,
        fallback: EmulatorBackend | None = _DEFAULT_FALLBACK,
        env: DeviceEnvironment | None = None,
        monkey_events: int = 5000,
        max_retries: int = 1,
        seed: int = 0,
        registry: MetricsRegistry | None = None,
        sink: SpanSink | None = None,
    ):
        if max_retries < 0:
            raise ValueError("max_retries must be non-negative")
        self.sdk = sdk
        self.hooks = HookEngine(sdk, tracked_api_ids)
        self.primary = primary or LightweightEmulator()
        if fallback is _DEFAULT_FALLBACK:
            fallback = GoogleEmulator()
        self.fallback = fallback
        self.env = env or DeviceEnvironment.hardened_emulator()
        self.monkey = MonkeyExerciser(n_events=monkey_events, seed=seed)
        self.max_retries = max_retries
        self.seed = seed
        self.registry = registry if registry is not None else MetricsRegistry()
        self.sink = sink

    @property
    def tracked_api_ids(self) -> np.ndarray:
        return self.hooks.tracked_ids

    def rng_for(self, apk: Apk) -> np.random.Generator:
        """Per-app generator seeded from ``(engine seed, apk md5)``.

        The stream an app sees is a pure function of the app identity
        and the engine seed — independent of submission order, worker
        count, and whatever ran before — so sequential and parallel
        executions observe identical randomness.
        """
        return np.random.default_rng([self.seed, int(apk.md5[:16], 16)])

    def _bump(self, key: str, by: int = 1) -> None:
        self.registry.inc(f"engine_{key}_total", by)

    @property
    def stats_view(self) -> EngineStats:
        """Typed counter snapshot of the engine's registry."""
        return EngineStats.from_registry(self.registry)

    def crash_waste_minutes(self) -> float:
        """Simulated time a crashed attempt burns before detection.

        A crashed run still burns roughly half its UI time before the
        SystemServer exception surfaces to the scheduling cores.
        """
        return self.monkey.n_events * 126.0 / 5000 / 120

    @property
    def attempt_chain(self) -> list[EmulatorBackend]:
        """Backends in fallback order (primary first)."""
        chain = [self.primary]
        if self.fallback is not None and self.fallback is not self.primary:
            chain.append(self.fallback)
        return chain

    def attempt(
        self,
        apk: Apk,
        backend: EmulatorBackend,
        rng: np.random.Generator,
    ) -> EmulationResult:
        """One emulation attempt of one app on one backend.

        The primitive :meth:`analyze` drives (the parallel pipeline
        runs whole :meth:`analyze` calls); it performs no retry or
        fallback itself.

        Raises:
            IncompatibleAppError: the app cannot run on this backend.
            EmulatorCrash: the run crashed (counted in ``stats``).
        """
        try:
            with span(
                "engine_attempt",
                registry=self.registry,
                sink=self.sink,
                backend=backend.name,
                md5=apk.md5,
            ):
                result = emulate_app(
                    apk,
                    self.sdk,
                    backend,
                    self.env,
                    self.hooks,
                    monkey=self.monkey,
                    rng=rng,
                )
        except EmulatorCrash:
            self._bump("crashes")
            # A crashed run burns emulator-slot time before the
            # SystemServer exception surfaces.
            self.registry.inc(
                "engine_crash_waste_minutes_total",
                self.crash_waste_minutes(),
            )
            raise
        self.registry.observe(
            "engine_emulation_minutes",
            result.analysis_minutes,
            buckets=DEFAULT_MINUTES_BUCKETS,
            backend=backend.name,
        )
        return result

    def _finish(
        self,
        apk: Apk,
        result: EmulationResult,
        attempts: int,
        fell_back: bool,
        wasted_minutes: float,
    ) -> AppAnalysis:
        """Record a successful analysis and package the observation."""
        self._bump("analyzed")
        if fell_back:
            self._bump("fallbacks")
        obs = AppObservation(
            apk_md5=apk.md5,
            invoked_api_ids=result.hooked_api_ids,
            permissions=apk.manifest.requested_permissions,
            intents=result.observed_intents,
            analysis_minutes=result.analysis_minutes + wasted_minutes,
            invoked_api_counts=tuple(
                (r.api_id, r.count) for r in result.hook_records
            ),
        )
        return AppAnalysis(
            observation=obs,
            result=result,
            attempts=attempts,
            fell_back=fell_back,
            total_minutes=result.analysis_minutes + wasted_minutes,
        )

    def analyze(
        self, apk: Apk, rng: np.random.Generator | None = None
    ) -> AppAnalysis:
        """Analyze one app, retrying and falling back as needed.

        Args:
            apk: the app to analyze.
            rng: override the per-app generator (tests only; defaults
                to :meth:`rng_for`).

        Raises:
            AnalysisFailure: only if every backend exhausts its retries
                (with a Google-emulator fallback this is vanishingly
                rare; the production deployment analyzes all apps).
        """
        rng = rng if rng is not None else self.rng_for(apk)
        self._bump("submissions")
        attempts = 0
        wasted_minutes = 0.0
        fell_back = False
        last_error: Exception | None = None
        with span(
            "engine_analyze",
            registry=self.registry,
            sink=self.sink,
            md5=apk.md5,
        ):
            for backend_i, backend in enumerate(self.attempt_chain):
                if backend_i > 0:
                    fell_back = True
                for _ in range(self.max_retries + 1):
                    attempts += 1
                    try:
                        result = self.attempt(apk, backend, rng)
                    except IncompatibleAppError as exc:
                        last_error = exc
                        break  # no point retrying on the same backend
                    except EmulatorCrash as exc:
                        last_error = exc
                        wasted_minutes += self.crash_waste_minutes()
                        continue
                    return self._finish(
                        apk, result, attempts, fell_back, wasted_minutes
                    )
            self._bump("failures")
            raise AnalysisFailure(
                f"all backends failed for {apk.package_name}: {last_error}",
                apk_md5=apk.md5,
                attempts=attempts,
                wasted_minutes=wasted_minutes,
            )

    def analyze_corpus(self, corpus: AppCorpus | list[Apk]) -> list[AppAnalysis]:
        """Analyze a batch of apps sequentially."""
        return [self.analyze(apk) for apk in corpus]

    def observations(
        self, corpus: AppCorpus | list[Apk]
    ) -> list[AppObservation]:
        """Convenience: analyze and keep only the observations."""
        return [a.observation for a in self.analyze_corpus(corpus)]
