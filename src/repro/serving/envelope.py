"""Structured result envelopes for the resilient generation service.

Every trajectory a campaign admits produces exactly one
:class:`GenerationEnvelope` — success or not — so a caller can always answer
"what happened to request *i*?" without parsing tracebacks.  The envelope
records the terminal :data:`status <STATUSES>`, the degradation-ladder level
that actually produced the series (``None`` when nothing did), the faults
absorbed along the way, and timing.  :class:`CampaignResult` aggregates the
envelopes with the campaign-wide fault log and the circuit-breaker
transition trace, and serializes the lot as deterministic JSONL.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Dict, List, Optional, Union

import numpy as np

#: Degradation-ladder levels, best first (see :mod:`repro.serving.ladder`).
DEGRADATION_LEVELS = ("full", "first_stage", "fdas")

#: Terminal envelope statuses.
STATUS_OK = "ok"
STATUS_QUARANTINED = "quarantined"
STATUS_DEADLINE = "deadline_exceeded"
STATUS_FAILED = "failed"
STATUS_CANCELLED = "cancelled"
STATUSES = (
    STATUS_OK,
    STATUS_QUARANTINED,
    STATUS_DEADLINE,
    STATUS_FAILED,
    STATUS_CANCELLED,
)


@dataclass
class FaultRecord:
    """One absorbed fault, locatable within the campaign.

    ``window`` is −1 when the fault is not tied to a single generation
    window (e.g. admission failures); ``level`` is the ladder level active
    when the fault fired ("admission" before the ladder starts).
    """

    trajectory: int
    window: int
    level: str
    kind: str
    detail: str = ""

    def as_dict(self) -> Dict[str, Any]:
        return {
            "trajectory": self.trajectory,
            "window": self.window,
            "level": self.level,
            "kind": self.kind,
            "detail": self.detail,
        }


@dataclass
class GenerationEnvelope:
    """Per-trajectory result: status + achieved level + faults + series."""

    trajectory: int
    status: str
    level: Optional[str] = None
    series: Optional[np.ndarray] = None
    kpi_names: List[str] = field(default_factory=list)
    faults: List[FaultRecord] = field(default_factory=list)
    quarantine_reason: Optional[Dict[str, Any]] = None
    windows_completed: int = 0
    resamples: int = 0
    elapsed_s: float = 0.0

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK

    def as_dict(self, include_series: bool = False) -> Dict[str, Any]:
        """JSON-ready view; the series is summarized unless requested."""
        payload: Dict[str, Any] = {
            "trajectory": self.trajectory,
            "status": self.status,
            "level": self.level,
            "windows_completed": self.windows_completed,
            "resamples": self.resamples,
            "elapsed_s": round(float(self.elapsed_s), 6),
            "faults": [f.as_dict() for f in self.faults],
        }
        if self.quarantine_reason is not None:
            payload["quarantine_reason"] = self.quarantine_reason
        if self.series is not None:
            payload["series_shape"] = list(self.series.shape)
            payload["series_mean"] = {
                kpi: round(float(np.mean(self.series[:, idx])), 6)
                for idx, kpi in enumerate(self.kpi_names)
            }
            if include_series:
                payload["series"] = [
                    [round(float(v), 6) for v in row] for row in self.series
                ]
        return payload


@dataclass
class CampaignResult:
    """Everything one :class:`~repro.serving.runner.CampaignRunner.run` returns."""

    envelopes: List[GenerationEnvelope] = field(default_factory=list)
    fault_log: List[FaultRecord] = field(default_factory=list)
    breaker_transitions: List[Dict[str, Any]] = field(default_factory=list)
    elapsed_s: float = 0.0
    deadline_hit: bool = False

    def __len__(self) -> int:
        return len(self.envelopes)

    def summary(self) -> Dict[str, Any]:
        """Machine-readable campaign roll-up (also the CLI's closing line)."""
        counts = {status: 0 for status in STATUSES}
        levels = {level: 0 for level in DEGRADATION_LEVELS}
        for envelope in self.envelopes:
            counts[envelope.status] += 1
            if envelope.ok and envelope.level is not None:
                levels[envelope.level] += 1
        return {
            "trajectories": len(self.envelopes),
            "status_counts": counts,
            "level_counts": levels,
            "faults": len(self.fault_log),
            "breaker_transitions": len(self.breaker_transitions),
            "campaign_deadline_hit": self.deadline_hit,
            "elapsed_s": round(float(self.elapsed_s), 6),
        }

    def to_jsonl(
        self, path: Union[str, Path], include_series: bool = False
    ) -> Path:
        """Write one JSON line per envelope, then a ``summary`` trailer line.

        The output is deterministic for a fixed campaign result (keys are
        sorted and floats rounded), so chaos tests can compare files
        byte-for-byte across re-runs.
        """
        path = Path(path)
        with path.open("w", encoding="utf-8") as handle:
            for envelope in self.envelopes:
                record = dict(envelope.as_dict(include_series=include_series),
                              record="envelope")
                handle.write(json.dumps(record, sort_keys=True) + "\n")
            trailer = {
                "record": "summary",
                **self.summary(),
                "breaker": self.breaker_transitions,
                "fault_log": [f.as_dict() for f in self.fault_log],
            }
            handle.write(json.dumps(trailer, sort_keys=True) + "\n")
        return path
