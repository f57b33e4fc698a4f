"""Deterministic artifact serialization.

All floats are written as decimal with 17 significant digits, JSON keys
are emitted sorted with fixed separators, and row orders are fixed
functions of the geometry, so identical data produces identical bytes
regardless of platform or thread count.
"""

import json
import math

import numpy as np

from .lattice import TorusGeometry, centered
from .spectral import Kernel


def format_float(x: float) -> str:
    x = float(x)
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return "%.17g" % x


def canonical(obj):
    """Plain dict/list/str/number tree from numpy-bearing structures."""
    if isinstance(obj, dict):
        return {str(k): canonical(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [canonical(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [canonical(v) for v in obj.tolist()]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj)
    if obj is None or isinstance(obj, str):
        return obj
    raise TypeError("cannot serialize %r" % type(obj))


def _emit(obj, level, parts):
    pad = "  " * level
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        keys = sorted(obj)
        for i, key in enumerate(keys):
            parts.append(pad + "  " + json.dumps(key) + ": ")
            _emit(obj[key], level + 1, parts)
            parts.append(",\n" if i + 1 < len(keys) else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, list):
        if not obj:
            parts.append("[]")
            return
        parts.append("[\n")
        for i, item in enumerate(obj):
            parts.append(pad + "  ")
            _emit(item, level + 1, parts)
            parts.append(",\n" if i + 1 < len(obj) else "\n")
        parts.append(pad + "]")
    elif isinstance(obj, bool):
        parts.append("true" if obj else "false")
    elif obj is None:
        parts.append("null")
    elif isinstance(obj, int):
        parts.append(str(obj))
    elif isinstance(obj, float):
        parts.append(format_float(obj))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    else:
        raise TypeError("cannot serialize %r" % type(obj))


def dumps_json(obj) -> str:
    parts = []
    _emit(canonical(obj), 0, parts)
    return "".join(parts) + "\n"


def write_json(path, obj):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps_json(obj))


def write_text(path, text):
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(text)


def centered_site_order(g: TorusGeometry):
    """Centered coordinates in centered-lex order plus flat grid indices."""
    S = g.side
    axes = [centered(np.arange(S), S) for _ in range(g.d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([mm.reshape(-1) for mm in mesh], axis=-1)
    order = np.lexsort(coords[:, ::-1].T)
    return coords[order], order


def kernel_csv_text(values: np.ndarray, g: TorusGeometry) -> str:
    """Kernel table: x_1..x_d centered coords, 0-based r, s, value."""
    coords, order = centered_site_order(g)
    flat = values.reshape(g.m, g.m, g.site_count)
    header = ",".join("x_%d" % (a + 1) for a in range(g.d)) + ",r,s,value"
    lines = [header]
    for t in range(len(order)):
        prefix = ",".join(str(int(c)) for c in coords[t])
        col = flat[:, :, order[t]]
        for r in range(g.m):
            for s in range(g.m):
                lines.append("%s,%d,%d,%s" % (prefix, r, s, format_float(col[r, s])))
    return "\n".join(lines) + "\n"


def write_kernel_csv(path, kern_or_values, g: TorusGeometry = None):
    values = kern_or_values
    if isinstance(kern_or_values, Kernel):
        values = kern_or_values.values
        g = kern_or_values.geometry
    write_text(path, kernel_csv_text(np.asarray(values), g))


def samples_csv_text(sample_values, g: TorusGeometry) -> str:
    """All samples in one table: sample index, site coords, m values."""
    header = "sample," + ",".join("x_%d" % (a + 1) for a in range(g.d))
    header += "," + ",".join("v_%d" % r for r in range(g.m))
    lines = [header]
    coords = [np.unravel_index(t, g.site_shape) for t in range(g.site_count)]
    prefixes = [",".join(str(int(c)) for c in cc) for cc in coords]
    for i, values in enumerate(sample_values):
        flat = values.reshape(g.m, g.site_count)
        for t in range(g.site_count):
            vals = ",".join(format_float(flat[r, t]) for r in range(g.m))
            lines.append("%d,%s,%s" % (i, prefixes[t], vals))
    return "\n".join(lines) + "\n"


def decay_csv_text(report) -> str:
    """Decay table: scale, multi-index, sup norm, envelope shape, constant."""
    d = report.geometry.d
    header = "k," + ",".join("alpha_%d" % (a + 1) for a in range(d))
    header += ",sup_norm,envelope_shape,constant"
    lines = [header]
    for row in report.rows:
        lines.append(
            "%d,%s,%s,%s,%s"
            % (
                row.k,
                ",".join(str(int(a)) for a in row.alpha),
                format_float(row.sup_norm),
                format_float(row.envelope_shape),
                format_float(row.constant),
            )
        )
    return "\n".join(lines) + "\n"


def envelope_csv_text(report) -> str:
    """Envelope table: measurement kind, scale k, annulus j, max norm."""
    lines = ["kind,k,j,value"]
    for (k, j) in sorted(report.product_max):
        lines.append("product,%d,%d,%s" % (k, j, format_float(report.product_max[(k, j)])))
    for (k, j) in sorted(report.tm_max):
        lines.append("smoothed,%d,%d,%s" % (k, j, format_float(report.tm_max[(k, j)])))
    return "\n".join(lines) + "\n"
