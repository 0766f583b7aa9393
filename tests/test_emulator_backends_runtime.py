"""Tests for emulator backends and the app runtime."""

import dataclasses

import numpy as np
import pytest

from repro.android.dex import NativeIsa, NativeLib
from repro.emulator.backends import (
    EmulatorCrash,
    GoogleEmulator,
    IncompatibleAppError,
    LightweightEmulator,
    RealDevice,
)
from repro.emulator.device import DeviceEnvironment
from repro.emulator.hooks import HookEngine
from repro.emulator.monkey import MonkeyExerciser
from repro.emulator.runtime import emulate_app


@pytest.fixture()
def env():
    return DeviceEnvironment.hardened_emulator()


def _emulate(apk, sdk, backend, env, tracked=None, seed=0, **kwargs):
    hooks = HookEngine(sdk, tracked if tracked is not None else [])
    return emulate_app(
        apk, sdk, backend, env, hooks,
        monkey=MonkeyExerciser(seed=seed),
        rng=np.random.default_rng(seed),
        raise_on_crash=False,
        **kwargs,
    )


def test_lightweight_is_faster(sdk, generator, env):
    apps = [generator.sample_app(malicious=False) for _ in range(30)]
    google, light = GoogleEmulator(), LightweightEmulator()
    g = np.mean(
        [_emulate(a, sdk, google, env).analysis_minutes for a in apps]
    )
    l = np.mean(
        [
            _emulate(a, sdk, light, env).analysis_minutes
            for a in apps
            if light.compatible(a)
        ]
    )
    # The paper reports ~70% time reduction.
    assert l < 0.5 * g


def test_tracking_costs_time(sdk, generator, env):
    apk = generator.sample_app(malicious=False)
    google = GoogleEmulator()
    bare = _emulate(apk, sdk, google, env, tracked=[], seed=3)
    full = _emulate(
        apk, sdk, google, env, tracked=np.arange(len(sdk)), seed=3
    )
    assert full.analysis_minutes > 2 * bare.analysis_minutes


def test_invocations_are_tens_of_millions(sdk, generator, env):
    apps = [generator.sample_app(malicious=False) for _ in range(20)]
    totals = [
        _emulate(a, sdk, GoogleEmulator(), env).total_invocations
        for a in apps
    ]
    # Fig. 2: min 15.8M, mean 42.3M, max 64.6M at full scale.
    assert 5e6 < np.mean(totals) < 1e8


def test_hook_log_contains_only_tracked(sdk, generator, env):
    apk = generator.sample_app(malicious=True)
    tracked = sdk.restricted_api_ids
    res = _emulate(apk, sdk, GoogleEmulator(), env, tracked=tracked)
    assert set(res.hooked_api_ids) <= set(tracked.tolist())
    assert set(res.hooked_api_ids) <= set(res.invoked_api_ids)


def test_install_cost_grows_with_apk_size(generator):
    # Same rng seed and run components: only the install term differs.
    apk = generator.sample_app(malicious=False)
    bigger = dataclasses.replace(apk, size_mb=apk.size_mb + 40.0, _md5="")
    for backend in (GoogleEmulator(), LightweightEmulator(), RealDevice()):
        small_s, big_s = (
            backend.emulation_seconds(
                a, 120.0, 30.0, np.random.default_rng(5)
            )
            for a in (apk, bigger)
        )
        assert big_s > small_s
        assert big_s - small_s == pytest.approx(
            40.0 / backend.install_rate_mb_s * backend.speed_factor
        )


def test_houdini_incompatible_rejected_by_lightweight(sdk, generator, env):
    apk = generator.sample_app(malicious=False)
    bad_lib = NativeLib("bad.so", NativeIsa.ARM, 2.0, houdini_compatible=False)
    object.__setattr__(apk.dex, "native_libs", (bad_lib,))
    light = LightweightEmulator()
    assert not light.compatible(apk)
    with pytest.raises(IncompatibleAppError):
        _emulate(apk, sdk, light, env)


def test_real_device_compatible_with_everything(sdk, generator):
    apk = generator.sample_app(malicious=False)
    assert RealDevice().compatible(apk)


def test_suppression_on_stock_emulator(sdk, generator):
    # Probe-equipped malware goes quiet on a stock emulator but not on
    # a hardened one or a real device (§4.2 controlled experiment).
    stock = DeviceEnvironment.stock_emulator()
    hardened = DeviceEnvironment.hardened_emulator()
    real = DeviceEnvironment.real_device()
    for _ in range(200):
        apk = generator.sample_app(malicious=True)
        if apk.dex.emulator_probes:
            break
    else:
        pytest.fail("no probe-equipped malware generated")
    r_stock = _emulate(apk, sdk, GoogleEmulator(), stock, seed=5)
    r_hard = _emulate(apk, sdk, GoogleEmulator(), hardened, seed=5)
    r_real = _emulate(apk, sdk, RealDevice(), real, seed=5)
    assert r_stock.suppressed
    assert not r_hard.suppressed and not r_real.suppressed
    assert len(r_stock.invoked_api_ids) < len(r_real.invoked_api_ids)


def test_robotic_monkey_reopens_timing_channel(sdk, generator):
    from repro.android.dex import EmulatorProbe

    for _ in range(300):
        apk = generator.sample_app(malicious=True)
        if EmulatorProbe.INPUT_TIMING in apk.dex.emulator_probes:
            break
    else:
        pytest.fail("no INPUT_TIMING malware generated")
    env = DeviceEnvironment.hardened_emulator()
    robotic = MonkeyExerciser(throttle_ms=0, seed=1)
    hooks = HookEngine(sdk, [])
    res = emulate_app(
        apk, sdk, GoogleEmulator(), env, hooks, monkey=robotic,
        rng=np.random.default_rng(1), raise_on_crash=False,
    )
    assert res.suppressed


def test_observed_intents_include_receivers(sdk, generator, env):
    apk = generator.sample_app(archetype="botnet")
    res = _emulate(apk, sdk, GoogleEmulator(), env)
    assert set(apk.manifest.receiver_intent_actions) <= set(
        res.observed_intents
    )


def test_crash_raises_when_enabled(sdk, generator, env):
    class AlwaysCrash(GoogleEmulator):
        def crash_probability(self, apk):
            return 1.0

    apk = generator.sample_app(malicious=False)
    hooks = HookEngine(sdk, [])
    with pytest.raises(EmulatorCrash):
        emulate_app(
            apk, sdk, AlwaysCrash(), env, hooks,
            rng=np.random.default_rng(0),
        )


def test_emulation_time_components_validated(sdk, generator):
    apk = generator.sample_app(malicious=False)
    with pytest.raises(ValueError):
        GoogleEmulator().emulation_seconds(
            apk, -1.0, 0.0, np.random.default_rng(0)
        )
