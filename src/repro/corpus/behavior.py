"""App blueprint: the sampled behaviour of one app before materialization.

The corpus generator first samples a *blueprint* — which APIs the app
references, how it hides some of them, which permissions/intents/
components it declares — and then materializes the blueprint into the
immutable :class:`~repro.android.apk.Apk` model.  Keeping the two steps
separate makes the sampling logic testable in isolation and lets update
generation mutate a blueprint instead of reverse-engineering an APK.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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


@dataclass
class AppBlueprint:
    """Mutable precursor of an :class:`Apk`.

    Attributes mirror the APK model but stay in plain containers so
    update generation can tweak them cheaply.
    """

    package_name: str
    archetype: str
    malicious: bool
    version_code: int = 1
    direct_calls: dict[int, tuple[float, float]] = field(default_factory=dict)
    reflection_apis: set[int] = field(default_factory=set)
    sent_intents: set[str] = field(default_factory=set)
    receiver_filters: set[str] = field(default_factory=set)
    permissions: set[str] = field(default_factory=set)
    n_activities: int = 8
    referenced_fraction: float = 0.88
    native_arm: bool = False
    houdini_compatible: bool = True
    probes: tuple[EmulatorProbe, ...] = ()
    dynamic_loading: bool = False
    obfuscated: bool = False
    needs_live_sensors: bool = False
    size_mb: float = 20.0

    def add_direct_call(
        self, api_id: int, rate_multiplier: float, reach_quantile: float
    ) -> None:
        """Register a direct call site; repeated adds merge multipliers."""
        if api_id in self.direct_calls:
            mult, quantile = self.direct_calls[api_id]
            self.direct_calls[api_id] = (
                mult + rate_multiplier,
                min(quantile, reach_quantile),
            )
        else:
            self.direct_calls[api_id] = (rate_multiplier, reach_quantile)

    def hide_behind_reflection(self, api_id: int) -> None:
        """Move a direct call behind reflection (hook becomes blind)."""
        self.direct_calls.pop(api_id, None)
        self.reflection_apis.add(api_id)

    def delegate_over_intent(self, api_id: int, action: str) -> None:
        """Replace a direct call with an intent delegation."""
        self.direct_calls.pop(api_id, None)
        self.sent_intents.add(action)

    def materialize(
        self,
        rng: np.random.Generator,
        submitted_day: int = 0,
        parent_md5: str | None = None,
    ) -> Apk:
        """Freeze the blueprint into an immutable APK."""
        n_acts = max(1, self.n_activities)
        activities = tuple(
            Activity(
                name=f"{self.package_name}.ui.Activity{i}",
                referenced=bool(rng.random() < self.referenced_fraction) or i == 0,
                exported=(i == 0),
                reach_weight=float(rng.lognormal(0.0, 0.8)),
            )
            for i in range(n_acts)
        )
        services = tuple(
            Service(name=f"{self.package_name}.svc.Service{i}")
            for i in range(int(rng.integers(0, 3)))
        )
        receivers = ()
        if self.receiver_filters:
            receivers = (
                BroadcastReceiver(
                    name=f"{self.package_name}.rcv.MainReceiver",
                    intent_filters=tuple(sorted(self.receiver_filters)),
                ),
            )
        manifest = AndroidManifest(
            package_name=self.package_name,
            version_code=self.version_code,
            requested_permissions=tuple(sorted(self.permissions)),
            activities=activities,
            services=services,
            receivers=receivers,
        )
        api_ids = sorted(self.direct_calls)
        call_sites = CallSites(
            api_ids,
            [self.direct_calls[a][0] for a in api_ids],
            [self.direct_calls[a][1] for a in api_ids],
        )
        native_libs = ()
        if self.native_arm:
            native_libs = (
                NativeLib(
                    name="libnative-core.so",
                    isa=NativeIsa.ARM,
                    size_mb=float(rng.uniform(0.5, 12.0)),
                    houdini_compatible=self.houdini_compatible,
                ),
            )
        dex = DexCode(
            call_sites=call_sites,
            reflection_api_ids=tuple(sorted(self.reflection_apis)),
            sent_intents=tuple(sorted(self.sent_intents)),
            native_libs=native_libs,
            emulator_probes=self.probes,
            uses_dynamic_loading=self.dynamic_loading,
            obfuscated=self.obfuscated,
            needs_live_sensors=self.needs_live_sensors,
        )
        return Apk(
            manifest=manifest,
            dex=dex,
            is_malicious=self.malicious,
            family=self.archetype,
            size_mb=self.size_mb,
            submitted_day=submitted_day,
            parent_md5=parent_md5,
        )

    def updated_copy(self, rng: np.random.Generator) -> "AppBlueprint":
        """Derive the next version: mostly the same code, light churn.

        ~85% of market submissions are updates (§4.1); updates keep the
        package identity, bump the version, and perturb a small share of
        call sites, which is what makes previous-version-based fast
        re-vetting (§5.2 triage) effective.
        """
        new = AppBlueprint(
            package_name=self.package_name,
            archetype=self.archetype,
            malicious=self.malicious,
            version_code=self.version_code + 1,
            direct_calls=dict(self.direct_calls),
            reflection_apis=set(self.reflection_apis),
            sent_intents=set(self.sent_intents),
            receiver_filters=set(self.receiver_filters),
            permissions=set(self.permissions),
            n_activities=self.n_activities,
            referenced_fraction=self.referenced_fraction,
            native_arm=self.native_arm,
            houdini_compatible=self.houdini_compatible,
            probes=self.probes,
            dynamic_loading=self.dynamic_loading,
            obfuscated=self.obfuscated,
            needs_live_sensors=self.needs_live_sensors,
            size_mb=self.size_mb * float(rng.uniform(0.95, 1.1)),
        )
        # Perturb ~5% of call sites' intensity; occasionally drop one.
        for api_id in list(new.direct_calls):
            if rng.random() < 0.05:
                mult, q = new.direct_calls[api_id]
                new.direct_calls[api_id] = (
                    mult * float(rng.uniform(0.7, 1.4)), q
                )
            elif rng.random() < 0.01:
                del new.direct_calls[api_id]
        return new
