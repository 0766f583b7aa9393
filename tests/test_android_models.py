"""Tests for components, manifest, dex, and APK models."""

import hashlib

import numpy as np
import pytest

from repro.android.apk import Apk
from repro.android.components import Activity, BroadcastReceiver, Service
from repro.android.dex import (
    CallSites,
    DexCode,
    EmulatorProbe,
    NativeIsa,
    NativeLib,
)
from repro.android.manifest import AndroidManifest


def make_manifest(**kwargs):
    defaults = dict(
        package_name="com.example.app",
        version_code=1,
        requested_permissions=("android.permission.INTERNET",),
        activities=(
            Activity("A0", referenced=True),
            Activity("A1", referenced=False),
        ),
        receivers=(
            BroadcastReceiver(
                "R0", intent_filters=("android.intent.action.BOOT_COMPLETED",)
            ),
        ),
    )
    defaults.update(kwargs)
    return AndroidManifest(**defaults)


def make_apk(**kwargs):
    defaults = dict(
        manifest=make_manifest(),
        dex=DexCode(call_sites=CallSites([3], [1.0], [0.2])),
        is_malicious=False,
        family="tool",
    )
    defaults.update(kwargs)
    return Apk(**defaults)


# -- components ---------------------------------------------------------


def test_activity_rejects_bad_weight():
    with pytest.raises(ValueError):
        Activity("X", reach_weight=0.0)


def test_service_defaults():
    svc = Service("S")
    assert not svc.exported and not svc.foreground


# -- manifest -----------------------------------------------------------


def test_referenced_activities_filtering():
    m = make_manifest()
    assert m.declared_activity_count == 2
    assert [a.name for a in m.referenced_activities] == ["A0"]


def test_receiver_intent_actions_sorted_unique():
    m = make_manifest(
        receivers=(
            BroadcastReceiver("R0", intent_filters=("b", "a")),
            BroadcastReceiver("R1", intent_filters=("a",)),
        )
    )
    assert m.receiver_intent_actions == ("a", "b")


def test_manifest_rejects_empty_package():
    with pytest.raises(ValueError):
        make_manifest(package_name="")


def test_manifest_rejects_duplicate_activities():
    with pytest.raises(ValueError):
        make_manifest(activities=(Activity("A"), Activity("A")))


def test_manifest_requests():
    m = make_manifest()
    assert m.requests("android.permission.INTERNET")
    assert not m.requests("android.permission.SEND_SMS")


# -- dex ----------------------------------------------------------------


def test_call_site_validation():
    with pytest.raises(ValueError):
        CallSites([-1], [1.0], [0.0])
    with pytest.raises(ValueError):
        CallSites([1], [0.0], [0.0])
    with pytest.raises(ValueError):
        CallSites([1], [1.0], [1.5])


def test_call_site_validation_takes_float64_arrays():
    # A float64 array is copied whole rather than read value by value;
    # the rules are the same as for lists.
    ids = np.arange(3)
    rates = np.array([1.0, np.nan, 2.0])
    reach = np.array([0.0, -0.0, 1.0])
    sites = CallSites(ids, rates, reach)
    assert sites.rate_multiplier.tobytes() == rates.tobytes()
    assert sites.reach_quantile.tobytes() == reach.tobytes()
    assert rates.flags.writeable  # the caller's array is not frozen
    assert not sites.rate_multiplier.flags.writeable
    for rates, reach in (
        ([1.0, 0.0, 2.0], [0.5] * 3),
        ([1.0, np.inf, 2.0], [0.5] * 3),
        ([1.0] * 3, [0.5, 1.5, 0.5]),
        ([1.0] * 3, [0.5, np.nan, 0.5]),
    ):
        with pytest.raises(ValueError):
            CallSites(ids, np.array(rates), np.array(reach))
    with pytest.raises(ValueError, match="flat column"):
        CallSites(ids, np.ones((3, 1)), np.zeros(3))
    with pytest.raises(ValueError):
        CallSites(ids, [1.0, None, 2.0], [0.5] * 3)


def test_dex_rejects_duplicate_sites():
    with pytest.raises(ValueError, match="duplicate call site"):
        DexCode(call_sites=CallSites([1, 1], [1.0, 1.0], [0.0, 0.0]))


def test_dex_direct_ids_sorted():
    dex = DexCode(call_sites=CallSites([9, 2, 5], [1.0] * 3, [0.0] * 3))
    assert dex.direct_api_ids == (2, 5, 9)


def test_native_lib_flags():
    ok = NativeLib("a.so", NativeIsa.ARM, houdini_compatible=True)
    bad = NativeLib("b.so", NativeIsa.ARM, houdini_compatible=False)
    x86 = NativeLib("c.so", NativeIsa.X86, houdini_compatible=False)
    assert DexCode(native_libs=(ok,)).has_arm_native_code
    assert not DexCode(native_libs=(ok,)).houdini_incompatible
    assert DexCode(native_libs=(bad,)).houdini_incompatible
    # x86 libraries never need translation, compatible or not.
    assert not DexCode(native_libs=(x86,)).houdini_incompatible


def test_native_lib_rejects_bad_size():
    with pytest.raises(ValueError):
        NativeLib("a.so", size_mb=0.0)


def test_call_site_columns():
    dex = DexCode(call_sites=CallSites([4], [2.0], [0.1]))
    sites = dex.call_sites
    assert sites.rate_multiplier[sites.api_id == 4].tolist() == [2.0]
    assert not (sites.api_id == 5).any()


# -- apk ----------------------------------------------------------------


def test_md5_stable_and_content_sensitive():
    a = make_apk()
    b = make_apk()
    assert a.md5 == b.md5
    c = make_apk(dex=DexCode(call_sites=CallSites([3], [1.5], [0.2])))
    assert a.md5 != c.md5


def test_md5_call_site_text_matches_per_site_reference():
    # The digest text is formatted from the columns in one go; it must
    # be byte for byte the per-site f-string it replaced.
    ids = [0, 7, 2**40]
    rates = [float("nan"), 1e21, 1 / 3]
    reach = [-0.0, 0.5, 1.0]
    apk = make_apk(dex=DexCode(call_sites=CallSites(ids, rates, reach)))
    h = hashlib.md5()
    h.update(b"com.example.app")
    h.update(b"1")
    h.update(b"android.permission.INTERNET")
    h.update(b"A0,A1")
    h.update(
        "".join(
            f"{a}:{r:.6f}:{q:.6f};" for a, r, q in zip(ids, rates, reach)
        ).encode()
    )
    h.update(b"")  # reflection ids
    h.update(b"")  # sent intents
    h.update(b"")  # native libs
    assert apk.md5 == h.hexdigest()


def test_md5_changes_with_version():
    a = make_apk()
    b = make_apk(manifest=make_manifest(version_code=2))
    assert a.md5 != b.md5
    assert a.package_name == b.package_name


def test_update_linkage():
    a = make_apk()
    b = make_apk(
        manifest=make_manifest(version_code=2), parent_md5=a.md5
    )
    assert not a.is_update
    assert b.is_update


def test_apk_rejects_nonpositive_size():
    with pytest.raises(ValueError):
        make_apk(size_mb=0.0)


def test_apk_hashable_by_md5():
    a = make_apk()
    b = make_apk()
    assert len({a, b}) == 1


def test_emulator_probe_enum_complete():
    # The six probe channels from the paper's hardening list.
    assert len(EmulatorProbe) == 6
