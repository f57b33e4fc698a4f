"""Run configuration: JSON parsing with field-addressed validation."""

import json
from dataclasses import dataclass, field

import numpy as np

from .decomposition import CubeSchedule, build_schedule
from .elliptic import ComplexEllipticPath, EllipticMap, validate_map
from .errors import InvalidSchedule, NotPositiveDefinite, NotSymmetric, ParseError, ValidationError
from .lattice import TorusGeometry

DEFAULT_TOLERANCES = {"sum": 1e-12, "range": 1e-8, "psd": 1e-10, "imag": 1e-10}
DEFAULT_DERIVATIVE = {"order": 1, "r": 0.5, "nodes": 32}
MAX_DERIVATIVE_ORDER = 6

TOP_KEYS = {
    "d",
    "m",
    "L",
    "N",
    "A",
    "schedule",
    "tolerances",
    "seed",
    "samples",
    "derivative",
    "output",
    "write_samples",
}
DERIV_KEYS = {"direction", "order", "r", "nodes"}


@dataclass
class RunConfig:
    """A validated run.  Its four inputs are built once, at parse time:
    `geometry` (the torus), `A` (the coefficient map), `schedule` (the cube
    side per level) and `path` (the family A + z*direction along which
    `deriv` differentiates; the direction defaults to the identity)."""

    geometry: TorusGeometry
    A: EllipticMap = field(repr=False)
    schedule: CubeSchedule
    path: ComplexEllipticPath = field(repr=False)
    tolerances: dict = field(default_factory=lambda: dict(DEFAULT_TOLERANCES))
    seed: int = 0
    samples: int = 2000
    derivative: dict = field(default_factory=lambda: dict(DEFAULT_DERIVATIVE))
    output: str = None
    write_samples: bool = False


def _need(obj, key, path):
    if key not in obj:
        raise ValidationError("%s: missing required key" % _join(path, key))
    return obj[key]


def _join(path, key):
    return key if not path else "%s.%s" % (path, key)


def _as_int(value, path, low=None, high=None):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValidationError("%s: expected an integer, got %r" % (path, value))
    if low is not None and value < low:
        raise ValidationError("%s: %d is below the minimum %d" % (path, value, low))
    if high is not None and value > high:
        raise ValidationError("%s: %d is above the maximum %d" % (path, value, high))
    return value


def _as_number(value, path):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValidationError("%s: expected a number, got %r" % (path, value))
    return float(value)


def _coefficient_array(raw, d, m, path="A", positive_scalar=True):
    """Row-major (m*d)^2 array, flat or nested; [c] means c times the
    identity.  Index convention for rows/columns is (r-1)*d + j."""
    n = m * d
    if not isinstance(raw, list) or not raw:
        raise ValidationError("%s: expected a non-empty array" % path)
    if len(raw) == 1 and isinstance(raw[0], (int, float)) and not isinstance(raw[0], bool):
        c = _as_number(raw[0], "%s[0]" % path)
        if positive_scalar and c <= 0.0:
            raise ValidationError("%s[0]: scalar coefficient must be positive" % path)
        return c * np.eye(n)
    if all(isinstance(row, list) for row in raw):
        if len(raw) != n or any(len(row) != n for row in raw):
            raise ValidationError("%s: expected %d rows of %d entries" % (path, n, n))
        flat = [v for row in raw for v in row]
    else:
        if len(raw) != n * n:
            raise ValidationError(
                "%s: expected %d entries row-major, got %d" % (path, n * n, len(raw))
            )
        flat = raw
    vals = np.empty(n * n)
    for i, v in enumerate(flat):
        vals[i] = _as_number(v, "%s[%d][%d]" % (path, i // n, i % n))
    return vals.reshape(n, n)


def parse_config(text: str, **overrides) -> RunConfig:
    """Validated RunConfig from a JSON document; unknown keys rejected.

    Each keyword overrides the top-level key of that name before
    validation, so an override obeys the same rules as the document;
    None leaves the document's value.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError("line %d column %d: %s" % (exc.lineno, exc.colno, exc.msg))
    if not isinstance(doc, dict):
        raise ParseError("top-level value must be an object")
    doc.update((key, value) for key, value in overrides.items() if value is not None)
    for key in doc:
        if key not in TOP_KEYS:
            raise ValidationError("%s: unknown key" % key)

    d, m, L, N = (_as_int(_need(doc, key, ""), key) for key in ("d", "m", "L", "N"))
    try:
        g = TorusGeometry(d=d, m=m, L=L, N=N)
    except ValueError as exc:
        raise ValidationError(str(exc))

    raw = _coefficient_array(_need(doc, "A", ""), d, m)
    try:
        A = validate_map(raw, d, m)
    except (NotSymmetric, NotPositiveDefinite) as exc:
        raise ValidationError("A: %s" % exc)

    levels = None
    if "schedule" in doc:
        levels = doc["schedule"]
        if not isinstance(levels, list):
            raise ValidationError("schedule: expected an array of %d levels" % N)
        for j, l in enumerate(levels):
            if l is not None:
                _as_int(l, "schedule[%d]" % j)
    try:
        schedule = build_schedule(g, levels)
    except InvalidSchedule as exc:
        raise ValidationError("schedule: %s" % exc)

    deriv = doc.get("derivative", {})
    if not isinstance(deriv, dict):
        raise ValidationError("derivative: expected an object")
    for key in deriv:
        if key not in DERIV_KEYS:
            raise ValidationError("derivative.%s: unknown key" % key)
    direction = _coefficient_array(
        deriv.get("direction", [1.0]), d, m, path="derivative.direction", positive_scalar=False
    )
    try:
        path = ComplexEllipticPath.from_direction(A, direction)
    except (NotSymmetric, ValueError) as exc:
        raise ValidationError("derivative.direction: %s" % exc)
    merged = dict(DEFAULT_DERIVATIVE)
    if "order" in deriv:
        merged["order"] = _as_int(
            deriv["order"], "derivative.order", low=0, high=MAX_DERIVATIVE_ORDER
        )
    if "r" in deriv:
        r = _as_number(deriv["r"], "derivative.r")
        if not 0.0 < r < 1.0:
            raise ValidationError("derivative.r: must lie strictly between 0 and 1")
        merged["r"] = r
    if "nodes" in deriv:
        merged["nodes"] = _as_int(deriv["nodes"], "derivative.nodes", low=4)

    cfg = RunConfig(geometry=g, A=A, schedule=schedule, path=path, derivative=merged)

    if "tolerances" in doc:
        tols = doc["tolerances"]
        if not isinstance(tols, dict):
            raise ValidationError("tolerances: expected an object")
        merged = dict(DEFAULT_TOLERANCES)
        for key, value in tols.items():
            if key not in DEFAULT_TOLERANCES:
                raise ValidationError("tolerances.%s: unknown key" % key)
            v = _as_number(value, "tolerances.%s" % key)
            if v <= 0.0:
                raise ValidationError("tolerances.%s: must be positive" % key)
            merged[key] = v
        cfg.tolerances = merged

    if "seed" in doc:
        cfg.seed = _as_int(doc["seed"], "seed", low=0, high=2**64 - 1)
    if "samples" in doc:
        cfg.samples = _as_int(doc["samples"], "samples", low=2)

    if "output" in doc:
        if not isinstance(doc["output"], str) or not doc["output"]:
            raise ValidationError("output: expected a non-empty path string")
        cfg.output = doc["output"]
    if "write_samples" in doc:
        if not isinstance(doc["write_samples"], bool):
            raise ValidationError("write_samples: expected true or false")
        cfg.write_samples = doc["write_samples"]
    return cfg
