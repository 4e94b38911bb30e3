"""Structured verification records and comparison helpers.

A VerificationReport pairs a closed-form value with an independently computed
oracle value and records the absolute/relative discrepancy against a
tolerance.  Reports serialize to flat JSON objects (one per line) so runs can
be diffed byte-for-byte apart from the runtime field.

`overwrite` is the package's one file write: the JSON-lines report and the
CLI's CSV table both go through it.
"""

from __future__ import annotations

import json
import math
import os
import stat
from dataclasses import dataclass
from typing import Optional

__all__ = ["VerificationReport", "compare", "overwrite", "to_json_line", "write_reports"]


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


def overwrite(path, text: str) -> None:
    """Write text as UTF-8 over the file at path, then cut the file to
    that length; a target that is not a regular file (/dev/null, a FIFO)
    is not cut.  A new file gets mode 0o666 less the umask.

    No truncating open: on ext4 that sleeps once in the kernel whenever
    the path already holds a file.  Not atomic, never fsynced: the bytes
    reach the disk with writeback (up to ~30 s later) and a shorter length
    with the next journal commit, so a crash in between can leave the
    previous report, whole, cut short, or mixed with the new one.  A
    truncating open made ext4 start writeback at close, a window of
    milliseconds.
    """
    data = text.encode("utf-8")
    with open(os.open(path, os.O_WRONLY | os.O_CREAT, 0o666), "wb") as fh:
        fh.write(data)
        if stat.S_ISREG(os.fstat(fh.fileno()).st_mode):
            fh.truncate()


def write_reports(path, records) -> int:
    """Write records as JSON lines over the file at path; returns the number
    written.  Every record is encoded before the file is opened."""
    lines = [to_json_line(rec) + "\n" for rec in records]
    overwrite(path, "".join(lines))
    return len(lines)
