"""Dynamic-analysis emulation substrate.

Simulates the paper's two emulation stacks — Google's QEMU-based
full-system emulator and the custom lightweight Android-x86 + Intel
Houdini engine (§5.1) — together with the Monkey UI exerciser, the
Xposed-style API hook engine and anti-emulator-detection hardening
(§4.2).  The one 16-slot server those emulators run on is the slot
pool of :class:`repro.core.pipeline.VettingPipeline`.

All durations are *simulated minutes*, computed from a cost model
calibrated against the paper's reported timings (126 s for 5K Monkey
events; 2.1 / 4.3 / 53.6 min mean emulation tracking none / 426 / all
APIs on the Google emulator; 70% reduction on the lightweight engine).
"""

from repro.emulator.backends import (
    EmulatorBackend,
    GoogleEmulator,
    LightweightEmulator,
    RealDevice,
)
from repro.emulator.device import DeviceEnvironment
from repro.emulator.evasion import probe_succeeds, successful_probes
from repro.emulator.hooks import HookEngine, InvocationRecord
from repro.emulator.monkey import (
    FuzzingExerciser,
    MonkeyExerciser,
    rac_for_events,
)
from repro.emulator.runtime import EmulationResult, emulate_app
from repro.emulator.translation import BinaryTranslator

__all__ = [
    "BinaryTranslator",
    "DeviceEnvironment",
    "EmulationResult",
    "EmulatorBackend",
    "FuzzingExerciser",
    "GoogleEmulator",
    "HookEngine",
    "InvocationRecord",
    "LightweightEmulator",
    "MonkeyExerciser",
    "RealDevice",
    "emulate_app",
    "probe_succeeds",
    "rac_for_events",
    "successful_probes",
]
