"""JSON wire codec for submitted APKs.

The online service receives submissions over HTTP and must persist
accepted ones to a write-ahead log before acknowledging them, so the
full :class:`~repro.android.apk.Apk` model — manifest, dex, identity
metadata — needs a loss-free JSON representation.  Round-tripping is
exact: :func:`apk_from_dict` rebuilds an APK whose content MD5 equals
the original's, which is what lets WAL replay and resubmission dedup
key everything on ``md5``.

Call sites are most of a payload (~450 per app).  Version 3 (what
:func:`apk_to_dict` writes) stores ``dex.call_sites`` as three binary
columns, each the base64 text of its little-endian cells::

    {"api_id": <base64 of int64>, "rate_multiplier": <base64 of
     float64>, "reach_quantile": <base64 of float64>}

so neither the router nor a shard parses a JSON number per site: a
column decodes with one ``b64decode`` and one ``np.frombuffer``, and
the float cells round-trip bit for bit.  Version 2 — the same three
columns as JSON number lists — is still read, because every WAL written
before version 3 holds version-2 bodies verbatim and hand-written
bodies use it.  Version 1 (one object per site) is no longer read.
Either way the sites are decoded into one validated
:class:`~repro.android.dex.CallSites` and the content md5, which
formats the column values, is recomputed and compared with the
recorded one.
"""

from __future__ import annotations

import base64
import json

import numpy as np

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

__all__ = [
    "CODEC_VERSION",
    "apk_from_dict",
    "apk_to_dict",
    "apk_to_json",
    "claimed_md5",
    "submission_apk",
]

#: Wire format marker written by :func:`apk_to_dict`; bump on any
#: incompatible schema change.
CODEC_VERSION = 3

#: Versions :func:`apk_from_dict` reads.
READABLE_VERSIONS = (2, 3)

#: Cell type of each version-3 call-site column (little-endian).
_COLUMN_DTYPES = {
    "api_id": np.dtype("<i8"),
    "rate_multiplier": np.dtype("<f8"),
    "reach_quantile": np.dtype("<f8"),
}

_MD5_HEX = frozenset("0123456789abcdef")


def apk_to_dict(apk: Apk) -> dict:
    """Serialize one APK to a JSON-ready dict (exact round-trip)."""
    m = apk.manifest
    d = apk.dex
    return {
        "v": CODEC_VERSION,
        "md5": apk.md5,
        "manifest": {
            "package_name": m.package_name,
            "version_code": m.version_code,
            "requested_permissions": list(m.requested_permissions),
            "activities": [
                {
                    "name": a.name,
                    "referenced": a.referenced,
                    "exported": a.exported,
                    "reach_weight": a.reach_weight,
                }
                for a in m.activities
            ],
            "services": [
                {
                    "name": s.name,
                    "exported": s.exported,
                    "foreground": s.foreground,
                }
                for s in m.services
            ],
            "receivers": [
                {
                    "name": r.name,
                    "intent_filters": list(r.intent_filters),
                    "exported": r.exported,
                }
                for r in m.receivers
            ],
            "min_sdk_level": m.min_sdk_level,
        },
        "dex": {
            "call_sites": {
                name: _encode_column(getattr(d.call_sites, name), dtype)
                for name, dtype in _COLUMN_DTYPES.items()
            },
            "reflection_api_ids": list(d.reflection_api_ids),
            "sent_intents": list(d.sent_intents),
            "native_libs": [
                {
                    "name": lib.name,
                    "isa": lib.isa.value,
                    "size_mb": lib.size_mb,
                    "houdini_compatible": lib.houdini_compatible,
                }
                for lib in d.native_libs
            ],
            "emulator_probes": [p.value for p in d.emulator_probes],
            "uses_dynamic_loading": d.uses_dynamic_loading,
            "obfuscated": d.obfuscated,
            "needs_live_sensors": d.needs_live_sensors,
        },
        "is_malicious": apk.is_malicious,
        "family": apk.family,
        "size_mb": apk.size_mb,
        "submitted_day": apk.submitted_day,
        "parent_md5": apk.parent_md5,
    }


def apk_to_json(apk: Apk) -> str:
    """One APK as a submission body: the JSON text of its wire dict."""
    return json.dumps(apk_to_dict(apk), separators=(",", ":"))


def submission_apk(payload) -> dict:
    """The APK wire dict inside one decoded submission body.

    A body is ``{"apk": <wire dict>, "lane": ...}`` or a bare wire
    dict.

    Raises:
        ValueError: the payload or its ``apk`` is not a JSON object.
    """
    if not isinstance(payload, dict):
        raise ValueError("payload must be a JSON object")
    apk = payload.get("apk", payload)
    if not isinstance(apk, dict):
        raise ValueError("apk must be a JSON object")
    return apk


def claimed_md5(record: dict) -> str | None:
    """The md5 a wire dict records, if it is 32 lowercase hex digits.

    Cheap and unverified: :func:`apk_from_dict` is what checks it
    against the content.
    """
    md5 = record.get("md5")
    if isinstance(md5, str) and len(md5) == 32 and _MD5_HEX.issuperset(md5):
        return md5
    return None


def _encode_column(column: np.ndarray, dtype: np.dtype) -> str:
    raw = column.astype(dtype, copy=False).tobytes()
    return base64.b64encode(raw).decode("ascii")


def _decode_column(name: str, text) -> np.ndarray:
    """One version-3 column: base64 text of whole 8-byte cells."""
    if not isinstance(text, str):
        raise ValueError(f"call_sites {name} must be a base64 string")
    raw = base64.b64decode(text, validate=True)
    if len(raw) % 8:
        raise ValueError(
            f"call_sites {name} is {len(raw)} bytes, not whole 8-byte cells"
        )
    return np.frombuffer(raw, _COLUMN_DTYPES[name])


def _call_sites(sites: dict, version: int) -> CallSites:
    if version == 2:
        return CallSites(
            sites["api_id"], sites["rate_multiplier"], sites["reach_quantile"]
        )
    return CallSites(
        *(_decode_column(name, sites[name]) for name in _COLUMN_DTYPES)
    )


def apk_from_dict(record: dict) -> Apk:
    """Rebuild an APK from its wire dict (codec version 2 or 3).

    Raises:
        ValueError: unsupported codec version, ``call_sites`` columns
            that do not decode, of unequal length or with invalid
            values, or the rebuilt content hash does not match the
            recorded ``md5`` (corrupt payload).
    """
    version = record.get("v")
    if type(version) is not int or version not in READABLE_VERSIONS:
        raise ValueError(f"unsupported apk codec version: {version!r}")
    m = record["manifest"]
    d = record["dex"]
    manifest = AndroidManifest(
        package_name=m["package_name"],
        version_code=int(m["version_code"]),
        requested_permissions=tuple(m["requested_permissions"]),
        activities=tuple(
            Activity(
                name=a["name"],
                referenced=bool(a["referenced"]),
                exported=bool(a["exported"]),
                reach_weight=float(a["reach_weight"]),
            )
            for a in m["activities"]
        ),
        services=tuple(
            Service(
                name=s["name"],
                exported=bool(s["exported"]),
                foreground=bool(s["foreground"]),
            )
            for s in m["services"]
        ),
        receivers=tuple(
            BroadcastReceiver(
                name=r["name"],
                intent_filters=tuple(r["intent_filters"]),
                exported=bool(r["exported"]),
            )
            for r in m["receivers"]
        ),
        min_sdk_level=int(m["min_sdk_level"]),
    )
    dex = DexCode(
        call_sites=_call_sites(d["call_sites"], version),
        reflection_api_ids=tuple(int(i) for i in d["reflection_api_ids"]),
        sent_intents=tuple(d["sent_intents"]),
        native_libs=tuple(
            NativeLib(
                name=lib["name"],
                isa=NativeIsa(lib["isa"]),
                size_mb=float(lib["size_mb"]),
                houdini_compatible=bool(lib["houdini_compatible"]),
            )
            for lib in d["native_libs"]
        ),
        emulator_probes=tuple(
            EmulatorProbe(p) for p in d["emulator_probes"]
        ),
        uses_dynamic_loading=bool(d["uses_dynamic_loading"]),
        obfuscated=bool(d["obfuscated"]),
        needs_live_sensors=bool(d["needs_live_sensors"]),
    )
    apk = Apk(
        manifest=manifest,
        dex=dex,
        is_malicious=bool(record["is_malicious"]),
        family=record["family"],
        size_mb=float(record["size_mb"]),
        submitted_day=int(record["submitted_day"]),
        parent_md5=record.get("parent_md5"),
    )
    recorded = record.get("md5")
    if recorded and apk.md5 != recorded:
        raise ValueError(
            f"apk payload corrupt: content hash {apk.md5} != "
            f"recorded {recorded}"
        )
    return apk
