"""Analysis-log serialization.

The paper promises to release its analysis logs to the community; this
module defines the corresponding on-disk format here: JSON-lines, one
record per analyzed app, capturing the observation (invoked APIs with
counts, permissions, intents) plus the verdict when available.  Logs
round-trip losslessly, so a vetting service can be audited or a model
retrained offline from recorded traffic alone.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Iterator

from repro.core.checker import VetVerdict
from repro.core.features import AppObservation
from repro.records import atomic_write, read_records

FORMAT_VERSION = 1


@dataclass(frozen=True)
class LogRecord:
    """One serialized analysis: observation plus optional verdict."""

    observation: AppObservation
    verdict: VetVerdict | None = None

    def to_dict(self) -> dict:
        obs = self.observation
        record = {
            "v": FORMAT_VERSION,
            "md5": obs.apk_md5,
            "apis": list(obs.invoked_api_ids),
            "api_counts": [list(pair) for pair in obs.invoked_api_counts],
            "permissions": list(obs.permissions),
            "intents": list(obs.intents),
            "minutes": obs.analysis_minutes,
        }
        if self.verdict is not None:
            record["verdict"] = {
                "malicious": self.verdict.malicious,
                "probability": self.verdict.probability,
                "minutes": self.verdict.analysis_minutes,
                "fell_back": self.verdict.fell_back,
            }
        return record

    @classmethod
    def from_dict(cls, record: dict) -> "LogRecord":
        version = record.get("v")
        if version != FORMAT_VERSION:
            raise ValueError(f"unsupported log format version: {version!r}")
        obs = AppObservation(
            apk_md5=record["md5"],
            invoked_api_ids=tuple(int(i) for i in record["apis"]),
            permissions=tuple(record["permissions"]),
            intents=tuple(record["intents"]),
            analysis_minutes=float(record.get("minutes", 0.0)),
            invoked_api_counts=tuple(
                (int(a), int(c)) for a, c in record.get("api_counts", [])
            ),
        )
        verdict = None
        if "verdict" in record:
            v = record["verdict"]
            verdict = VetVerdict(
                apk_md5=record["md5"],
                malicious=bool(v["malicious"]),
                probability=float(v["probability"]),
                analysis_minutes=float(v["minutes"]),
                fell_back=bool(v["fell_back"]),
            )
        return cls(observation=obs, verdict=verdict)


def write_log(
    path: str | Path,
    observations: Iterable[AppObservation],
    verdicts: Iterable[VetVerdict | None] | None = None,
) -> int:
    """Write (replace whole) a JSON-lines log; returns the record count.

    ``verdicts``, when given, must align one-to-one with
    ``observations`` (use None entries for apps without verdicts).
    """
    observations = list(observations)
    if verdicts is None:
        verdict_list: list[VetVerdict | None] = [None] * len(observations)
    else:
        verdict_list = list(verdicts)
        if len(verdict_list) != len(observations):
            raise ValueError("verdicts must align with observations")
    text = "".join(
        json.dumps(LogRecord(obs, verdict).to_dict()) + "\n"
        for obs, verdict in zip(observations, verdict_list)
    )
    atomic_write(path, text.encode())
    return len(observations)


def read_log(path: str | Path) -> Iterator[LogRecord]:
    """Yield records from a JSON-lines analysis log."""
    for _, record in read_records(path, "log"):
        yield LogRecord.from_dict(record)


def read_observations(path: str | Path) -> list[AppObservation]:
    """Convenience: just the observations (e.g. for offline retraining)."""
    return [record.observation for record in read_log(path)]
