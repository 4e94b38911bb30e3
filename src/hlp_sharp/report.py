"""Structured verification records and comparison helpers.

A VerificationReport pairs a closed-form value with an independently computed
oracle value and records the absolute/relative discrepancy against a
tolerance.  Reports serialize to flat JSON objects (one per line) so runs can
be diffed byte-for-byte apart from the runtime field.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Optional

__all__ = ["VerificationReport", "compare", "to_json_line", "write_reports"]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of one closed-form vs. oracle comparison.

    passed is equivalent to rel_err <= tolerance, except that when either
    side is exactly zero the comparison degrades to abs_err <= tolerance
    (a relative error against zero is meaningless).
    """

    label: str
    closed_form: float
    oracle: float
    abs_err: float
    rel_err: float
    tolerance: float
    passed: bool
    convention_note: str = ""
    seed: Optional[int] = None
    runtime_ms: int = 0

    def to_dict(self) -> dict:
        """The fields as a shallow dict: every value is a scalar."""
        return dict(vars(self))


def compare(
    label: str,
    closed_form: float,
    oracle: float,
    tolerance: float,
    convention_note: str = "",
    seed: Optional[int] = None,
    runtime_ms: int = 0,
) -> VerificationReport:
    """Build a VerificationReport from a matched pair of values."""
    closed_form = float(closed_form)
    oracle = float(oracle)
    tolerance = float(tolerance)
    if not tolerance >= 0.0:
        raise ValueError("tolerance must be nonnegative")
    abs_err = abs(closed_form - oracle)
    scale = max(abs(closed_form), abs(oracle))
    if scale == 0.0:
        rel_err = 0.0
        passed = True
    elif closed_form == 0.0 or oracle == 0.0:
        # One side vanished: relative error is meaningless, fall back to
        # absolute comparison and report rel_err = inf as a flag.
        rel_err = math.inf
        passed = abs_err <= tolerance
    else:
        rel_err = abs_err / scale
        passed = rel_err <= tolerance
    if math.isnan(closed_form) or math.isnan(oracle):
        passed = False
        rel_err = math.nan
    return VerificationReport(
        label=label,
        closed_form=closed_form,
        oracle=oracle,
        abs_err=abs_err,
        rel_err=rel_err,
        tolerance=tolerance,
        passed=passed,
        convention_note=convention_note,
        seed=seed,
        runtime_ms=int(runtime_ms),
    )


# json.dumps builds a new encoder on every call that sorts keys
_ENCODER = json.JSONEncoder(sort_keys=True)


def _clean(v):
    if isinstance(v, float) and not math.isfinite(v):
        return repr(v)
    return v


def to_json_line(record) -> str:
    """Serialize a report (or any mapping) to one flat JSON line.

    Non-finite floats are rendered as strings ("inf", "-inf", "nan") so the
    output stays strictly valid JSON.
    """
    if hasattr(record, "to_dict"):
        record = record.to_dict()
    return _ENCODER.encode({k: _clean(v) for k, v in record.items()})


def write_reports(path, records) -> int:
    """Write records as JSON lines; returns the number written."""
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(to_json_line(rec) + "\n")
            count += 1
    return count
