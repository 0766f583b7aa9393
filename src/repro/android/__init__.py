"""Synthetic Android platform substrate.

The paper's pipeline consumes real APKs running against the real Android
SDK (~50K framework APIs).  Neither is available offline, so this package
provides a deterministic, statistically calibrated stand-in:

* :mod:`repro.android.sdk` — a generated framework-API registry with
  packages, classes, permission mappings, sensitive-operation categories,
  and invocation-frequency strata.
* :mod:`repro.android.permissions` / :mod:`repro.android.intents` — the
  permission and intent-action registries, including the canonical names
  the paper reports in its Gini-importance ranking (Fig. 13).
* :mod:`repro.android.manifest` / :mod:`repro.android.dex` /
  :mod:`repro.android.apk` — the APK model: an ``AndroidManifest.xml``
  equivalent plus a Dex code model recording direct API call sites,
  reflection-hidden call sites, intent usage, and native libraries.
"""

from repro.android.apk import Apk
from repro.android.components import Activity, BroadcastReceiver, Service
from repro.android.dex import DexCode
from repro.android.intents import IntentAction, IntentRegistry
from repro.android.manifest import AndroidManifest
from repro.android.permissions import (
    Permission,
    PermissionRegistry,
    ProtectionLevel,
)
from repro.android.sdk import (
    AndroidSdk,
    ApiMethod,
    FrequencyClass,
    SensitiveCategory,
)

__all__ = [
    "Activity",
    "AndroidManifest",
    "AndroidSdk",
    "Apk",
    "ApiMethod",
    "BroadcastReceiver",
    "DexCode",
    "FrequencyClass",
    "IntentAction",
    "IntentRegistry",
    "Permission",
    "PermissionRegistry",
    "ProtectionLevel",
    "SensitiveCategory",
    "Service",
]
