"""Dex code model.

``classes.dex`` in a real APK holds the app's compiled bytecode; for the
pipeline all that matters is which framework APIs the code can invoke, at
what rates, how deep in the UI they sit, and which evasive mechanisms the
code employs.  This module captures exactly that.

Three evasion mechanisms from the paper are modelled:

* **Reflection-hidden calls** (§4.5): the behaviour is performed through
  internal/hidden APIs, so the framework-API hook never fires — but the
  guarding permission must still be requested in the manifest.
* **Intent delegation** (§4.5): the app asks another app/service to act
  on its behalf; the hook never fires, but the used intent is observable.
* **Emulator probes** (§4.2): code that checks for tell-tale emulator
  signs and suppresses malicious behaviour when any probe succeeds.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field, fields

import numpy as np


class EmulatorProbe(enum.Enum):
    """Emulator-detection techniques observed in the paper's corpus."""

    DEFAULT_IDENTIFIERS = "default_identifiers"   # stock IMEI/IMSI values
    BUILD_PROPS = "build_props"                   # PRODUCT/MODEL strings
    NETWORK_PROPS = "network_props"               # /proc/net/tcp contents
    INPUT_TIMING = "input_timing"                 # robotic event intervals
    SENSOR_LIVENESS = "sensor_liveness"           # flat accelerometer feed
    XPOSED_PRESENCE = "xposed_presence"           # hook-framework artifacts


class NativeIsa(enum.Enum):
    """Instruction set a native library was compiled for."""

    ARM = "arm"
    X86 = "x86"


@dataclass(frozen=True)
class NativeLib:
    """A bundled native library (``lib/*.so``).

    ARM libraries require binary translation (Intel Houdini) on the
    lightweight x86 emulator; a small fraction is incompatible and forces
    fallback to the full-system emulator (§5.1).
    """

    name: str
    isa: NativeIsa = NativeIsa.ARM
    size_mb: float = 2.0
    houdini_compatible: bool = True

    def __post_init__(self):
        if self.size_mb <= 0:
            raise ValueError("size_mb must be positive")


def _float_column(values) -> np.ndarray:
    """One float64 column, copied whole from a float64 array.

    Anything else goes through ``float()`` per value, not ``np.array``,
    which would read ``None`` as NaN.
    """
    if isinstance(values, np.ndarray) and values.dtype == np.float64:
        return np.array(values)
    return np.fromiter(map(float, values), np.float64)


@dataclass(frozen=True, eq=False)
class CallSites:
    """The direct framework-API call sites in the app code, as columns.

    Entry ``i`` of each column describes one call site.  The columns
    are read-only numpy arrays, so every layer — wire codec, content
    hash, emulator — reads them without building a per-site object.

    Attributes:
        api_id: the framework API invoked (int64).
        rate_multiplier: scales the API's SDK base invocation rate for
            this app (how intensely this app exercises the API).
        reach_quantile: UI depth of the call site in [0, 1]; the site is
            exercised during emulation only once achieved activity
            coverage (RAC) reaches this quantile.
    """

    api_id: np.ndarray = ()
    rate_multiplier: np.ndarray = ()
    reach_quantile: np.ndarray = ()

    def __post_init__(self):
        try:
            ids = np.array(self.api_id, dtype=np.int64)
            rates = _float_column(self.rate_multiplier)
            reach = _float_column(self.reach_quantile)
        except (TypeError, OverflowError) as exc:
            raise ValueError(f"bad call_sites column: {exc}") from exc
        for f, column in zip(fields(self), (ids, rates, reach)):
            if column.ndim != 1:
                raise ValueError(f"{f.name} must be a flat column")
        if not len(ids) == len(rates) == len(reach):
            raise ValueError(
                f"call_sites columns differ in length: api_id={len(ids)}, "
                f"rate_multiplier={len(rates)}, reach_quantile={len(reach)}"
            )
        if (ids < 0).any():
            raise ValueError("api_id must be non-negative")
        # NaN compares false, so a NaN rate passes (it never fires).  An
        # infinite rate would overflow the emulator's invocation count.
        if ((rates <= 0) | (rates == np.inf)).any():
            raise ValueError("rate_multiplier must be positive and finite")
        if not ((reach >= 0.0) & (reach <= 1.0)).all():
            raise ValueError("reach_quantile must be in [0, 1]")
        ordered = np.sort(ids)
        dup = ordered[1:][ordered[1:] == ordered[:-1]]
        if dup.size:
            raise ValueError(
                f"duplicate call site for api_id={dup[0]}; "
                "merge rate multipliers instead"
            )
        for f, column in zip(fields(self), (ids, rates, reach)):
            column.flags.writeable = False
            object.__setattr__(self, f.name, column)

    def __len__(self) -> int:
        return len(self.api_id)

    def __eq__(self, other) -> bool:
        if not isinstance(other, CallSites):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self)
        )

    def __hash__(self) -> int:
        return hash(self.api_id.tobytes())


@dataclass(frozen=True)
class DexCode:
    """The code half of an APK.

    Attributes:
        call_sites: direct framework-API call sites.
        reflection_api_ids: APIs whose behaviour is performed through
            reflection/hidden APIs instead of direct invocation.
        sent_intents: intent actions the code sends at runtime.
        native_libs: bundled native libraries.
        emulator_probes: anti-emulation checks the code performs.
        uses_dynamic_loading: loads additional code at runtime.
        obfuscated: identifier obfuscation applied (blocks the static
            referenced-activity scan, §4.2).
        needs_live_sensors: requires real-time data from special sensors
            (e.g. microphone) that no emulator can synthesize; such apps
            invoke fewer APIs even on the hardened emulator (§4.2).
    """

    call_sites: CallSites = field(default_factory=CallSites)
    reflection_api_ids: tuple[int, ...] = field(default_factory=tuple)
    sent_intents: tuple[str, ...] = field(default_factory=tuple)
    native_libs: tuple[NativeLib, ...] = field(default_factory=tuple)
    emulator_probes: tuple[EmulatorProbe, ...] = field(default_factory=tuple)
    uses_dynamic_loading: bool = False
    obfuscated: bool = False
    needs_live_sensors: bool = False

    @property
    def direct_api_ids(self) -> tuple[int, ...]:
        """APIs with at least one direct call site (sorted)."""
        return tuple(np.sort(self.call_sites.api_id).tolist())

    @property
    def has_arm_native_code(self) -> bool:
        return any(lib.isa is NativeIsa.ARM for lib in self.native_libs)

    @property
    def houdini_incompatible(self) -> bool:
        """True when any ARM library cannot be binary-translated."""
        return any(
            lib.isa is NativeIsa.ARM and not lib.houdini_compatible
            for lib in self.native_libs
        )
