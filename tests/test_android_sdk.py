"""Tests for the synthetic SDK registry."""

import numpy as np
import pytest

from repro.android.sdk import (
    AndroidSdk,
    FrequencyClass,
    SdkSpec,
    SensitiveCategory,
)


def test_generation_is_deterministic():
    a = AndroidSdk.generate(SdkSpec(n_apis=900, seed=5))
    b = AndroidSdk.generate(SdkSpec(n_apis=900, seed=5))
    assert a.api_names == b.api_names
    assert np.array_equal(a.base_rates, b.base_rates)
    assert a.internal_calls == b.internal_calls


def test_different_seeds_differ():
    a = AndroidSdk.generate(SdkSpec(n_apis=900, seed=5))
    b = AndroidSdk.generate(SdkSpec(n_apis=900, seed=6))
    assert a.api_names != b.api_names


def test_strata_sizes_match_spec(sdk):
    spec = sdk.spec
    assert len(sdk) == spec.n_apis
    assert sdk.restricted_api_ids.size == spec.n_restricted
    assert sdk.sensitive_api_ids.size == spec.n_sensitive
    assert sdk.ubiquitous_api_ids.size == spec.n_ubiquitous
    assert sdk.discriminative_api_ids.size == spec.n_discriminative


def test_restricted_apis_carry_restrictive_permissions(sdk):
    for api_id in sdk.restricted_api_ids:
        api = sdk.api(int(api_id))
        assert api.permission is not None


def test_restrictive_guards_cover_exactly_the_restricted_stratum(sdk):
    # No API outside the stratum has a dangerous/signature guard:
    # Set-P is exactly the restrictively guarded APIs (§4.4).
    guarded = [
        api.api_id
        for api in sdk
        if api.permission is not None
        and sdk.permissions.get(api.permission).level.is_restrictive
    ]
    assert sorted(guarded) == sorted(sdk.restricted_api_ids.tolist())


def test_sensitive_apis_have_categories(sdk):
    for api_id in sdk.sensitive_api_ids:
        api = sdk.api(int(api_id))
        assert isinstance(api.sensitive_category, SensitiveCategory)


def test_restricted_and_sensitive_strata_disjoint(sdk):
    r = set(sdk.restricted_api_ids.tolist())
    s = set(sdk.sensitive_api_ids.tolist())
    assert not r & s


def test_canonical_apis_present(sdk):
    sms = sdk.by_name("android.telephony.SmsManager.sendTextMessage")
    assert sms.permission == "android.permission.SEND_SMS"
    assert sms.short_name == "SmsManager_sendTextMessage"
    exec_api = sdk.by_name("java.lang.Runtime.exec")
    assert exec_api.sensitive_category is SensitiveCategory.PRIVILEGE_ESCALATION


def test_common_ops_are_ubiquitous(sdk):
    ubiq = set(sdk.ubiquitous_api_ids.tolist())
    assert sdk.common_ops_api_ids.size == 13
    assert all(int(i) in ubiq for i in sdk.common_ops_api_ids)


def test_api_names_unique(sdk):
    names = sdk.api_names
    assert len(names) == len(set(names))


def test_api_ids_are_dense(sdk):
    for i in range(0, len(sdk), 97):
        assert sdk.api(i).api_id == i


def test_by_name_unknown_raises(sdk):
    with pytest.raises(KeyError):
        sdk.by_name("com.nonexistent.Clazz.method")


def test_base_rates_follow_frequency_class(sdk):
    ubiq_rates = sdk.base_rates[sdk.ubiquitous_api_ids]
    tail_rare = [
        a.api_id for a in sdk if a.freq_class is FrequencyClass.RARE
    ]
    assert ubiq_rates.mean() > 10 * sdk.base_rates[tail_rare].mean()


def test_extend_adds_apis_and_bumps_level(sdk):
    bigger = sdk.extend(50)
    assert len(bigger) == len(sdk) + 50
    assert bigger.level == sdk.level + 1
    # Old APIs unchanged, new ones stamped with the new level.
    assert bigger.api(0).name == sdk.api(0).name
    new_apis = [bigger.api(i) for i in range(len(sdk), len(bigger))]
    assert all(a.added_in_level == sdk.level + 1 for a in new_apis)


def test_extend_zero_is_identity_sized(sdk):
    same = sdk.extend(0)
    assert len(same) == len(sdk)
    assert same.level == sdk.level + 1


def test_extend_negative_raises(sdk):
    with pytest.raises(ValueError):
        sdk.extend(-1)


def test_internal_call_graph_targets_valid(sdk):
    for caller, callees in sdk.internal_calls.items():
        assert 0 <= caller < len(sdk)
        for callee in callees:
            assert 0 <= callee < len(sdk)
            assert callee != caller


def test_spec_validation_rejects_tiny_sdk():
    with pytest.raises(ValueError):
        SdkSpec(n_apis=300).validate()


def test_spec_validation_rejects_bad_fraction():
    with pytest.raises(ValueError):
        SdkSpec(n_apis=2000, dependency_fraction=1.5).validate()


def test_sensitive_category_query(sdk):
    crypto = sdk.sensitive_apis(SensitiveCategory.CRYPTO)
    assert crypto
    assert all(
        a.sensitive_category is SensitiveCategory.CRYPTO for a in crypto
    )
