"""Machine-readable check reports with a stable JSON layout.

A record with invariants, as ``CheckReport``, is a ``__slots__`` class that
checks them in ``__init__``; one without is a named tuple.  Both are treated
as immutable values."""

from __future__ import annotations

import json
from fractions import Fraction

PASS = "PASS"
FAIL = "FAIL"
OUT_OF_RANGE = "OUT_OF_RANGE"
UNRESOLVED = "UNRESOLVED"

_VERDICTS = (PASS, FAIL, OUT_OF_RANGE, UNRESOLVED)


class PreconditionError(ValueError):
    """An input outside a check's domain: (mu, k) out of shape, k below a
    family's start or a degenerate lambda.  The CLI exits 3 on it."""


def jsonable(value):
    """Recursively convert report payloads to plain JSON values.

    Fractions become exact ``p/q`` strings, objects exposing
    ``to_json_dict`` (named tuples included) serialize themselves, and other
    tuples become lists.  Floats are rejected so no inexact value can sneak
    into a report.
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
    if hasattr(value, "to_json_dict"):  # before tuples: named tuples have one
        return jsonable(value.to_json_dict())
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, (set, frozenset)):
        return [jsonable(v) for v in sorted(value)]
    raise TypeError(f"cannot serialize {type(value).__name__} in a report")


class CheckReport:
    """Outcome of one verification (sub)check.

    ``witness`` must be present whenever the verdict is FAIL so a failure is
    always reproducible from the report alone.
    """

    __slots__ = ("check", "params", "verdict", "witness", "data")

    def __init__(self, check: str, params: dict, verdict: str, witness=None, data=None):
        if verdict not in _VERDICTS:
            raise ValueError(f"unknown verdict {verdict!r}")
        if verdict == FAIL and witness is None:
            raise ValueError("FAIL verdict requires a witness")
        self.check = check
        self.params = params
        self.verdict = verdict
        self.witness = witness
        self.data = {} if data is None else data

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
