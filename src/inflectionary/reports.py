"""Machine-readable check reports with a stable JSON layout."""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from fractions import Fraction

PASS = "PASS"
FAIL = "FAIL"
OUT_OF_RANGE = "OUT_OF_RANGE"
UNRESOLVED = "UNRESOLVED"

_VERDICTS = (PASS, FAIL, OUT_OF_RANGE, UNRESOLVED)


def jsonable(value):
    """Recursively convert report payloads to plain JSON values.

    Fractions become exact ``p/q`` strings, tuples become lists, and objects
    exposing ``to_json_dict`` serialize themselves.  Floats are rejected so
    no inexact value can sneak into a report.
    """
    if isinstance(value, Fraction):
        return str(value)
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, int):
        return value
    if isinstance(value, float):
        raise TypeError("refusing to serialize a float in an exact report")
    if isinstance(value, str):
        return value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return [jsonable(v) for v in sorted(value)]
    if hasattr(value, "to_json_dict"):
        return jsonable(value.to_json_dict())
    raise TypeError(f"cannot serialize {type(value).__name__} in a report")


@dataclass
class CheckReport:
    """Outcome of one verification (sub)check.

    ``witness`` must be present whenever the verdict is FAIL so a failure is
    always reproducible from the report alone.
    """

    check: str
    params: dict
    verdict: str
    witness: object = None
    data: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.verdict not in _VERDICTS:
            raise ValueError(f"unknown verdict {self.verdict!r}")
        if self.verdict == FAIL and self.witness is None:
            raise ValueError("FAIL verdict requires a witness")

    def to_json_dict(self) -> dict:
        out = {
            "check": self.check,
            "params": jsonable(self.params),
            "verdict": self.verdict,
        }
        if self.witness is not None:
            out["witness"] = jsonable(self.witness)
        if self.data:
            out["data"] = jsonable(self.data)
        return out

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict(), separators=(",", ":"), sort_keys=False)
