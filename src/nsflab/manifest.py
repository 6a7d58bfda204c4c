"""The sweep manifest and the rate fit read back from it.

`manifest.json` records, per path point, the initial relative energy, its
sup over the run and the convergence-rate envelope; `fit_rate` recomputes
the bounded constant E_sup / (E_init + envelope) from those records.  This
module needs only the standard library, so `nsflab rate-fit` loads nothing
of the numerical package.
"""

from __future__ import annotations

import json
import math
from dataclasses import asdict, dataclass, fields

from .errors import UsageError


@dataclass(frozen=True)
class RunRecord:
    """Per-point outcome; unhealthy runs stay in the manifest, out of the fit."""

    run_id: str
    a: float
    healthy: bool
    reason: str
    e_init: float
    e_sup: float
    envelope: float
    max_excess: float


@dataclass(frozen=True)
class SweepManifest:
    alpha: float
    beta: float
    gamma: float
    a_values: tuple
    config_hash: str
    grid_hash: str
    reference_key: str
    t_safe: float
    records: tuple
    fitted_constant: float
    flagged: bool

    def json(self) -> str:
        payload = asdict(self)
        payload["a_values"] = list(self.a_values)
        payload["records"] = [asdict(r) for r in self.records]
        return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def write_manifest(manifest: SweepManifest, path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(manifest.json())


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# the JSON values a manifest's scalar fields may hold, by field annotation
_FIELD_CHECKS = {"float": _is_number, "str": lambda v: isinstance(v, str),
                 "bool": lambda v: isinstance(v, bool)}


def _typed(cls, payload: dict):
    """cls(**payload) once every scalar field holds its JSON type."""
    if not isinstance(payload, dict):
        raise TypeError(f"a {cls.__name__} entry is {payload!r}, not an object")
    for f in fields(cls):
        check = _FIELD_CHECKS.get(f.type)
        if check is not None and not check(payload.get(f.name)):
            raise TypeError(f"{cls.__name__}.{f.name} is {payload.get(f.name)!r}, "
                            f"not a {f.type}")
    return cls(**payload)


def _check_fit_inputs(record: RunRecord) -> None:
    """ValueError unless a healthy record can enter the rate fit: a sweep
    writes finite e_init, e_sup and envelope, and envelope > 0, for them."""
    for name in ("e_init", "e_sup", "envelope"):
        value = getattr(record, name)
        if not math.isfinite(value):
            raise ValueError(f"healthy record {record.run_id} has {name} {value!r}")
    if not record.e_init + record.envelope > 0.0:
        raise ValueError(f"healthy record {record.run_id} has e_init + envelope "
                         f"{record.e_init + record.envelope!r}, not positive")


def read_manifest(path) -> SweepManifest:
    """The manifest `write_manifest` stored at path.

    UsageError naming the file when it is not JSON, its keys are not the
    manifest's fields, a field does not hold its type, or a healthy record
    holds a non-finite e_init, e_sup or envelope, or e_init + envelope <= 0.
    """
    try:
        with open(path, "r", encoding="ascii") as fh:
            payload = json.load(fh)
        if not isinstance(payload, dict):
            raise TypeError(f"the manifest is {payload!r}, not an object")
        a_values, records = payload["a_values"], payload["records"]
        if not (isinstance(a_values, list) and all(_is_number(a) for a in a_values)):
            raise TypeError(f"a_values is {a_values!r}, not a list of numbers")
        if not isinstance(records, list):
            raise TypeError(f"records is {records!r}, not a list")
        payload["a_values"] = tuple(a_values)
        payload["records"] = tuple(_typed(RunRecord, r) for r in records)
        for record in payload["records"]:
            if record.healthy:
                _check_fit_inputs(record)
        return _typed(SweepManifest, payload)
    except (ValueError, KeyError, TypeError) as err:
        raise UsageError(f"{path} is not a readable sweep manifest "
                         f"({type(err).__name__}: {err})") from None


@dataclass(frozen=True)
class FitReport:
    """Per-point ratios E_sup / (E_init + envelope) and their maximum."""

    a_values: tuple
    ratios: tuple
    fitted_constant: float
    flagged: bool

    def to_text(self) -> str:
        lines = [f"a={a!r} ratio={r!r}"
                 for a, r in zip(self.a_values, self.ratios)]
        lines.append(f"fitted_constant {self.fitted_constant!r}")
        lines.append(f"flagged {self.flagged}")
        return "\n".join(lines) + "\n"


def fit_rate(manifest: SweepManifest) -> FitReport:
    """Bounded-constant check over the healthy runs of a sweep.

    The flag trips when some later ratio exceeds an earlier one by more
    than 10x: a growing ratio means the envelope is not tracking E_sup.
    """
    healthy = [r for r in manifest.records if r.healthy]
    if len(healthy) < 2:
        raise UsageError(
            f"rate fitting needs at least two healthy runs, got {len(healthy)}")
    ratios = tuple(r.e_sup / (r.e_init + r.envelope) for r in healthy)
    flagged = any(
        ratios[j] > 10.0 * ratios[i]
        for i in range(len(ratios)) for j in range(i + 1, len(ratios))
    )
    return FitReport(
        a_values=tuple(r.a for r in healthy),
        ratios=ratios,
        fitted_constant=max(ratios),
        flagged=flagged,
    )
