"""Tests for the APK JSON wire codec."""

import base64
import dataclasses
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.android.apk import Apk
from repro.android.dex import CallSites, DexCode
from repro.android.manifest import AndroidManifest
from repro.serve.codec import (
    CODEC_VERSION,
    READABLE_VERSIONS,
    apk_from_dict,
    apk_to_dict,
    apk_to_json,
    claimed_md5,
)
from repro.serve.http import parse_submission

INF = float("inf")
NAN = float("nan")

#: What ``POST /v1/submit`` makes of an odd value in the first call
#: site of one app's version-2 (JSON list) columns: the md5 the decoded
#: app hashes to, or None for a 400.  These are the answers of the
#: per-site decoder the columns replaced, kept value for value, except
#: an api_id of 2**70 and a rate_multiplier of Infinity: those used to
#: decode and then crash the emulator, and now get a 400.
ODD_SITE_VALUES = [
    ("api_id", 3.5, "52df482e6d4eabd802021f0c85862bce"),
    ("api_id", "3", "52df482e6d4eabd802021f0c85862bce"),
    ("api_id", True, "e565edaf5967a5d270f5c1a663f7ab98"),
    ("api_id", 2**70, None),
    ("api_id", None, None),
    ("api_id", "x", None),
    ("api_id", NAN, None),
    ("api_id", INF, None),
    ("api_id", -INF, None),
    ("rate_multiplier", 3.5, "aa36a17aa0cbce71fc167fe146ec89a0"),
    ("rate_multiplier", "3", "a49cb9d3bbccb70c95a19793883edb43"),
    ("rate_multiplier", True, "6e481d5f029fb373beed4a6a1d431bb1"),
    ("rate_multiplier", 2**70, "f00a5bd597e2e20f34f583e100c26432"),
    ("rate_multiplier", None, None),
    ("rate_multiplier", "x", None),
    ("rate_multiplier", NAN, "3faeb362ac4145d26263040ad3047f67"),
    ("rate_multiplier", INF, None),
    ("rate_multiplier", -INF, None),
    ("reach_quantile", 3.5, None),
    ("reach_quantile", "3", None),
    ("reach_quantile", True, "3b21f974c57804979e6fd155fc21ce58"),
    ("reach_quantile", 2**70, None),
    ("reach_quantile", None, None),
    ("reach_quantile", "x", None),
    ("reach_quantile", NAN, None),
    ("reach_quantile", INF, None),
    ("reach_quantile", -INF, None),
]


def _round_trip(apk):
    # Through an actual JSON string, not just the dict: the WAL and the
    # HTTP API both move serialized text.
    return apk_from_dict(json.loads(json.dumps(apk_to_dict(apk))))


def test_round_trip_preserves_content_hash(generator):
    for malicious in (False, True):
        apk = generator.sample_app(malicious=malicious)
        rebuilt = _round_trip(apk)
        assert rebuilt.md5 == apk.md5
        assert rebuilt.is_malicious == apk.is_malicious
        assert rebuilt.family == apk.family


def test_round_trip_is_field_exact(generator):
    apk = generator.sample_app(malicious=True)
    rebuilt = _round_trip(apk)
    assert rebuilt.manifest == apk.manifest
    assert rebuilt.dex == apk.dex
    assert rebuilt.size_mb == apk.size_mb
    assert rebuilt.submitted_day == apk.submitted_day
    assert rebuilt.parent_md5 == apk.parent_md5


def test_updates_keep_parent_link(generator):
    # Drive the generator until it emits an update (parent_md5 set).
    apk = None
    for _ in range(200):
        candidate = generator.sample_app(update_prob=0.9)
        if candidate.parent_md5 is not None:
            apk = candidate
            break
    assert apk is not None, "generator never produced an update"
    assert _round_trip(apk).parent_md5 == apk.parent_md5


def test_unknown_codec_version_rejected(generator):
    assert (CODEC_VERSION, READABLE_VERSIONS) == (3, (2, 3))
    record = apk_to_dict(generator.sample_app())
    record["v"] = CODEC_VERSION + 1
    with pytest.raises(ValueError, match="codec version"):
        apk_from_dict(record)

    record["v"] = 1  # retired
    with pytest.raises(ValueError, match="unsupported apk codec version: 1"):
        apk_from_dict(record)

    record.pop("v")
    with pytest.raises(ValueError, match="codec version"):
        apk_from_dict(record)


def test_tampered_payload_fails_hash_check(generator):
    record = apk_to_dict(generator.sample_app())
    record["manifest"]["requested_permissions"].append(
        "android.permission.SEND_SMS"
    )
    with pytest.raises(ValueError, match="corrupt"):
        apk_from_dict(record)


def test_payload_without_recorded_md5_is_accepted(generator):
    # The hash check is for transport corruption; a payload that never
    # carried an md5 (hand-written submission) is rebuilt as-is.
    apk = generator.sample_app()
    record = apk_to_dict(apk)
    record.pop("md5")
    assert apk_from_dict(record).md5 == apk.md5


def test_wire_dict_is_json_clean(generator):
    # No numpy scalars, enums, or other non-JSON types may leak in.
    text = json.dumps(apk_to_dict(generator.sample_app(malicious=True)))
    assert isinstance(text, str) and len(text) > 100


def test_call_sites_are_columns(generator):
    apk = generator.sample_app()
    sites = apk_to_dict(apk)["dex"]["call_sites"]
    assert sorted(sites) == ["api_id", "rate_multiplier", "reach_quantile"]
    # Each column is the base64 text of its little-endian cells.
    for name, dtype in (
        ("api_id", "<i8"),
        ("rate_multiplier", "<f8"),
        ("reach_quantile", "<f8"),
    ):
        column = getattr(apk.dex.call_sites, name)
        assert sites[name] == base64.b64encode(
            column.astype(dtype).tobytes()
        ).decode("ascii")


@pytest.mark.parametrize(
    "column", ["api_id", "rate_multiplier", "reach_quantile"]
)
def test_unequal_call_site_columns_rejected(generator, v2_wire, column):
    record = v2_wire(generator.sample_app())
    record["dex"]["call_sites"][column].pop()
    with pytest.raises(ValueError, match="differ in length"):
        apk_from_dict(record)


def test_call_sites_still_validated_per_site(generator, v2_wire):
    record = v2_wire(generator.sample_app())
    record.pop("md5")
    record["dex"]["call_sites"]["api_id"][0] = -1
    with pytest.raises(ValueError):
        apk_from_dict(record)


def test_bool_codec_version_rejected(generator):
    record = apk_to_dict(generator.sample_app())
    record["v"] = True
    with pytest.raises(ValueError, match="codec version"):
        apk_from_dict(record)


def test_claimed_md5_accepts_only_lowercase_hex(generator):
    record = apk_to_dict(generator.sample_app())
    assert claimed_md5(record) == record["md5"]
    for bad in (record["md5"].upper(), record["md5"][:-1], "z" * 32, 5):
        record["md5"] = bad
        assert claimed_md5(record) is None
    record.pop("md5")
    assert claimed_md5(record) is None


@pytest.mark.parametrize(
    "column,value,md5",
    ODD_SITE_VALUES,
    ids=[f"{c}={v!r}" for c, v, _ in ODD_SITE_VALUES],
)
def test_odd_call_site_values_keep_their_answers(
    generator, v2_wire, column, value, md5
):
    record = v2_wire(generator.sample_app(malicious=True))
    record.pop("md5")
    record["dex"]["call_sites"][column][0] = value
    body = json.dumps({"apk": record}).encode()
    if md5 is None:
        # ValueError is what the submit handler answers 400 for.
        with pytest.raises(ValueError, match="bad submission"):
            parse_submission(body)
    else:
        assert parse_submission(body)[0].md5 == md5


# ----------------------------------------------------------------------
# Version 3: binary columns
# ----------------------------------------------------------------------

#: Call sites at the edges of what a column holds: ids up to 2**62,
#: NaN and 1e300 rates, subnormals, and a reach of -0.0.
_SITE = st.tuples(
    st.integers(0, 2**62),
    st.one_of(
        st.floats(min_value=0.0, exclude_min=True, allow_infinity=False),
        st.sampled_from([float("nan"), 1e300, 5e-324]),
    ),
    st.one_of(
        st.floats(min_value=0.0, max_value=1.0),
        st.sampled_from([-0.0, 5e-324, 1.0]),
    ),
)


def _app_with(sites: CallSites) -> Apk:
    return Apk(
        manifest=AndroidManifest(package_name="com.example.columns"),
        dex=DexCode(call_sites=sites),
        is_malicious=False,
        family="benign",
    )


@given(sites=st.lists(_SITE, max_size=40, unique_by=lambda s: s[0]))
@settings(max_examples=80, deadline=None)
def test_v3_columns_round_trip_bit_exactly(v2_wire, sites):
    ids, rates, reach = zip(*sites) if sites else ((), (), ())
    apk = _app_with(CallSites(ids, rates, reach))
    from_v3 = apk_from_dict(json.loads(apk_to_json(apk)))
    from_v2 = apk_from_dict(json.loads(json.dumps(v2_wire(apk))))
    for name in ("api_id", "rate_multiplier", "reach_quantile"):
        # tobytes, not ==: NaN != NaN, and -0.0 == 0.0.
        cells = getattr(apk.dex.call_sites, name).tobytes()
        assert getattr(from_v3.dex.call_sites, name).tobytes() == cells
        assert getattr(from_v2.dex.call_sites, name).tobytes() == cells
    assert from_v3.md5 == from_v2.md5 == apk.md5
    assert from_v3.dex == dataclasses.replace(
        from_v2.dex, call_sites=from_v3.dex.call_sites
    )


def test_v3_columns_are_read_only_copies(generator):
    apk = apk_from_dict(json.loads(apk_to_json(generator.sample_app())))
    for name in ("api_id", "rate_multiplier", "reach_quantile"):
        column = getattr(apk.dex.call_sites, name)
        assert column.dtype.isnative and not column.flags.writeable
