"""APK model: manifest + dex + identity.

T-Market treats APKs with the same package name but different MD5 hashes
as different apps (§4.1); ~85% of submissions are updates of previously
published apps.  The ``Apk`` object therefore carries both the package
identity and a content hash, plus the ground-truth label metadata the
market's review process produces.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

from repro.android.dex import DexCode
from repro.android.manifest import AndroidManifest


@dataclass(frozen=True)
class Apk:
    """A submitted Android package.

    Attributes:
        manifest: static metadata.
        dex: code model.
        is_malicious: generator ground truth (hidden from detectors; the
            market's review process derives possibly noisy labels from it).
        family: malware family or benign category name (generator truth).
        size_mb: package size, drives install time.
        submitted_day: day index of submission to the market (0-based).
        parent_md5: MD5 of the version this update supersedes, if any.
    """

    manifest: AndroidManifest
    dex: DexCode
    is_malicious: bool
    family: str
    size_mb: float = 20.0
    submitted_day: int = 0
    parent_md5: str | None = None
    _md5: str = field(default="", repr=False, compare=False)

    def __post_init__(self):
        if self.size_mb <= 0:
            raise ValueError("size_mb must be positive")
        if not self._md5:
            object.__setattr__(self, "_md5", self._compute_md5())

    def _compute_md5(self) -> str:
        """Content hash over identity-bearing fields.

        Mirrors hashing the APK bytes: any change to the manifest or code
        yields a new hash, while re-submitting identical content does not.
        """
        h = hashlib.md5()
        h.update(self.manifest.package_name.encode())
        h.update(str(self.manifest.version_code).encode())
        h.update(",".join(self.manifest.requested_permissions).encode())
        h.update(",".join(a.name for a in self.manifest.activities).encode())
        # One "{api_id}:{rate:.6f}:{reach:.6f};" per call site.
        sites = self.dex.call_sites
        cells = [None] * (3 * len(sites))
        cells[0::3] = sites.api_id.tolist()
        cells[1::3] = sites.rate_multiplier.tolist()
        cells[2::3] = sites.reach_quantile.tolist()
        h.update((("%d:%.6f:%.6f;" * len(sites)) % tuple(cells)).encode())
        h.update(",".join(map(str, self.dex.reflection_api_ids)).encode())
        h.update(",".join(self.dex.sent_intents).encode())
        h.update(",".join(lib.name for lib in self.dex.native_libs).encode())
        return h.hexdigest()

    @property
    def md5(self) -> str:
        return self._md5

    @property
    def package_name(self) -> str:
        return self.manifest.package_name

    @property
    def is_update(self) -> bool:
        return self.parent_md5 is not None

    def __hash__(self) -> int:
        return hash(self.md5)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        kind = "malicious" if self.is_malicious else "benign"
        return f"<Apk {self.package_name} v{self.manifest.version_code} {kind}>"
