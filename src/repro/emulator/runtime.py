"""App emulation: one run of one APK on one backend.

``emulate_app`` ties the substrate together: Monkey explores the UI,
achieved coverage decides which call sites fire, emulator probes may
silence the malicious behaviour, the hook engine intercepts tracked
invocations (charging interception overhead), and the backend converts
everything into simulated analysis time.

Ground-truth invocation counts are produced vectorized — a 5K-event run
triggers tens of millions of invocations (Fig. 2), far too many to step
through individually.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.android.apk import Apk
from repro.android.sdk import AndroidSdk
from repro.emulator.backends import EmulatorBackend, EmulatorCrash
from repro.emulator.device import DeviceEnvironment
from repro.emulator.evasion import app_detects_emulator
from repro.emulator.hooks import HookEngine, InvocationRecord
from repro.emulator.monkey import MonkeyExerciser, MonkeyRun


@dataclass(frozen=True)
class EmulationResult:
    """Everything one emulation run produced.

    Attributes:
        apk_md5: identity of the analyzed APK.
        backend_name: which backend executed the run.
        monkey: UI exploration outcome (RAC etc.).
        invocation_counts: ground-truth api_id -> count for the run
            (what a hypothetical all-API hook would have seen).
        hook_records: the actual hook log (tracked APIs only).
        observed_intents: used intents — runtime-sent actions plus
            manifest receiver filters (§4.5 auxiliary collection).
        analysis_seconds: simulated analysis time for this run.
        suppressed: the app detected the emulator and went quiet.
        sensor_limited: live-sensor-dependent behaviour did not fire.
    """

    apk_md5: str
    backend_name: str
    monkey: MonkeyRun
    invocation_counts: dict[int, int]
    hook_records: tuple[InvocationRecord, ...]
    observed_intents: tuple[str, ...]
    analysis_seconds: float
    suppressed: bool = False
    sensor_limited: bool = False

    @property
    def invoked_api_ids(self) -> tuple[int, ...]:
        """Distinct APIs invoked (ground truth), sorted."""
        return tuple(sorted(k for k, v in self.invocation_counts.items() if v))

    @property
    def hooked_api_ids(self) -> tuple[int, ...]:
        """Distinct APIs the hook engine logged, sorted."""
        return tuple(sorted(r.api_id for r in self.hook_records))

    @property
    def total_invocations(self) -> int:
        return int(sum(self.invocation_counts.values()))

    @property
    def analysis_minutes(self) -> float:
        return self.analysis_seconds / 60.0


def _active_sites(
    apk: Apk,
    sdk: AndroidSdk,
    achieved_rac: float,
    suppressed: bool,
    sensor_limited: bool,
) -> tuple[np.ndarray, np.ndarray]:
    """Resolve which call sites fire, returning (api_ids, rates).

    Suppression takes two forms: malware goes quiet on its attack
    behaviour (key-strata sites vanish) while benign emulator-detectors
    — DRM, anti-cheat, banking root checks — refuse to run past their
    entry screens (deep sites vanish).
    """
    sites = apk.dex.call_sites
    api_ids = sites.api_id
    reach = sites.reach_quantile
    active = reach <= achieved_rac
    # Apps built against a newer SDK may call APIs this runtime image
    # does not have; those calls simply never resolve here.
    active &= api_ids < len(sdk)
    if sensor_limited:
        active &= reach <= 0.55
    if suppressed:
        if apk.is_malicious:
            quiet = (
                np.isin(api_ids, sdk.restricted_api_ids)
                | np.isin(api_ids, sdk.sensitive_api_ids)
                | np.isin(api_ids, sdk.discriminative_api_ids)
            )
            active &= ~quiet
        else:
            active &= reach <= 0.35
    api_ids = api_ids[active]
    return api_ids, sdk.base_rates[api_ids] * sites.rate_multiplier[active]


def emulate_app(
    apk: Apk,
    sdk: AndroidSdk,
    backend: EmulatorBackend,
    env: DeviceEnvironment,
    hooks: HookEngine,
    monkey: MonkeyExerciser | None = None,
    rng: np.random.Generator | None = None,
    raise_on_crash: bool = True,
) -> EmulationResult:
    """Run one app once.

    Raises:
        IncompatibleAppError: propagated from the backend when the app
            cannot run here (the engine falls back to another backend).
        EmulatorCrash: the run crashed (detected via the customized
            SystemServer exception channel; the engine retries).
    """
    rng = rng or np.random.default_rng(0)
    monkey = monkey or MonkeyExerciser()
    if not backend.compatible(apk):
        from repro.emulator.backends import IncompatibleAppError

        raise IncompatibleAppError(
            f"{apk.package_name} is incompatible with {backend.name}"
        )

    run = monkey.exercise(apk, rng)

    # Evasion: a robotic event stream re-exposes the INPUT_TIMING channel
    # even on an otherwise hardened environment.
    effective_env = env
    if not monkey.humanized and not env.is_real_device:
        effective_env = env.with_flag(input_humanized=False)
    suppressed = app_detects_emulator(
        apk.dex.emulator_probes, effective_env
    )
    sensor_limited = apk.dex.needs_live_sensors and not env.live_sensors

    api_ids, rates = _active_sites(
        apk, sdk, run.achieved_rac, suppressed, sensor_limited
    )
    lam = rates * run.n_events
    noise = rng.lognormal(mean=-0.12**2 / 2, sigma=0.12, size=lam.size)
    counts = np.maximum(np.rint(lam * noise), (lam > 0.5).astype(float))
    fired = counts > 0
    invocation_counts = dict(
        zip(api_ids[fired].tolist(), map(int, counts[fired].tolist()))
    )

    hook_records, hook_seconds = hooks.intercept(invocation_counts, rng)

    seconds = backend.emulation_seconds(
        apk, run.ui_seconds, hook_seconds, rng
    )
    if raise_on_crash and rng.random() < backend.crash_probability(apk):
        raise EmulatorCrash(
            f"{apk.package_name} crashed on {backend.name} after "
            f"{seconds / 2:.1f}s"
        )

    observed_intents = tuple(
        sorted(
            set(() if suppressed else apk.dex.sent_intents)
            | set(apk.manifest.receiver_intent_actions)
        )
    )
    return EmulationResult(
        apk_md5=apk.md5,
        backend_name=backend.name,
        monkey=run,
        invocation_counts=invocation_counts,
        hook_records=tuple(hook_records),
        observed_intents=observed_intents,
        analysis_seconds=seconds,
        suppressed=suppressed,
        sensor_limited=sensor_limited,
    )
