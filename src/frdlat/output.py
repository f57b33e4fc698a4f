"""Deterministic artifact serialization.

All floats are written as decimal with 17 significant digits (NaN,
Infinity, -Infinity if not finite), JSON keys are emitted sorted with
fixed separators, and row orders are fixed functions of the geometry, so
identical data produces identical bytes regardless of platform or thread
count.  Kernel and sample tables are streamed: each chunk of rows (one
first-axis coordinate, one sample) is formatted from whole arrays and
written with writelines, so no file is ever held as one string.
samples.csv is written by a consumer that takes batches of fields as the
sampler produces them.
"""

import json
import math
from itertools import count, product

import numpy as np

from .lattice import TorusGeometry
from .spectral import Kernel


def format_float(x: float) -> str:
    x = float(x)
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return "%.17g" % x


def _emit(obj, level, parts):
    """Append the JSON text of obj to parts, indented two spaces per level.

    Takes dicts (keys written as str(key), sorted), lists, tuples, numpy
    arrays (as nested lists), bools, ints, floats, strings and None,
    numpy scalars included; anything else raises TypeError.
    """
    pad = "  " * level
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, dict):
        if not obj:
            parts.append("{}")
            return
        parts.append("{\n")
        keys = sorted(obj, key=str)
        for i, key in enumerate(keys):
            parts.append(pad + "  " + json.dumps(str(key)) + ": ")
            _emit(obj[key], level + 1, parts)
            parts.append(",\n" if i + 1 < len(keys) else "\n")
        parts.append(pad + "}")
    elif isinstance(obj, (list, tuple)):
        if not obj:
            parts.append("[]")
            return
        parts.append("[\n")
        for i, item in enumerate(obj):
            parts.append(pad + "  ")
            _emit(item, level + 1, parts)
            parts.append(",\n" if i + 1 < len(obj) else "\n")
        parts.append(pad + "]")
    elif isinstance(obj, (bool, np.bool_)):
        parts.append("true" if obj else "false")
    elif obj is None:
        parts.append("null")
    elif isinstance(obj, (int, np.integer)):
        parts.append(str(int(obj)))
    elif isinstance(obj, (float, np.floating)):
        parts.append(format_float(obj))
    elif isinstance(obj, str):
        parts.append(json.dumps(obj))
    else:
        raise TypeError("cannot serialize %r" % type(obj))


def dumps_json(obj) -> str:
    """obj as indented JSON with sorted keys and 17-digit floats, one
    trailing newline; the same data gives the same bytes whether it is
    held in numpy or in plain Python types."""
    parts = []
    _emit(obj, 0, parts)
    return "".join(parts) + "\n"


def open_artifact(path):
    """An artifact file opened for writing: UTF-8 with \\n line ends."""
    return open(path, "w", encoding="utf-8", newline="\n")


def _write_chunks(path, chunks):
    """Write an iterable of line lists, one writelines call per list."""
    with open_artifact(path) as fh:
        for chunk in chunks:
            fh.writelines(chunk)


def write_json(path, obj):
    write_text(path, dumps_json(obj))


def write_text(path, text):
    _write_chunks(path, [[text]])


def _csv_lines(prefixes, block, head=""):
    """One CSV line per row of the (rows, cols) block: head, the row's
    prefix, then its values.  Finite blocks take one "%.17g" pass; a block
    holding a non-finite value spells every value with format_float."""
    columns = block.T.tolist()
    if np.isfinite(block).all():
        spec = "%.17g"
    else:
        spec = "%s"
        columns = [list(map(format_float, col)) for col in columns]
    fmt = head + "%s" + ",".join([spec] * len(columns)) + "\n"
    return list(map(fmt.__mod__, zip(prefixes, *columns)))


def _kernel_csv_chunks(values, g: TorusGeometry):
    """Header, then the rows of one first-axis coordinate per chunk."""
    yield [",".join("x_%d" % (a + 1) for a in range(g.d)) + ",r,s,value\n"]
    # S is odd, so fftshift puts every site axis in centered order -h..h;
    # with (r, s) moved last, ravelling gives the file's row order.
    shifted = np.fft.fftshift(values.reshape(g.kernel_shape()), axes=tuple(range(2, 2 + g.d)))
    rows = np.moveaxis(shifted, (0, 1), (-2, -1)).reshape(g.side, -1, 1)
    h = (g.side - 1) // 2
    axis = [str(c) for c in range(-h, h + 1)]
    suffixes = ["%d,%d," % rs for rs in product(range(g.m), repeat=2)]
    tail = [",".join(c) + "," + rs for c in product(axis, repeat=g.d - 1) for rs in suffixes]
    for x1, block in zip(axis, rows):
        yield _csv_lines(tail, block, x1 + ",")


def write_kernel_csv(path, kern: Kernel):
    """Kernel table: x_1..x_d centered coords, 0-based r, s, value."""
    _write_chunks(path, _kernel_csv_chunks(kern.values, kern.geometry))


def samples_csv_writer(fh, g: TorusGeometry):
    """Write the samples.csv header to fh and return a consumer that
    writes the rows of each (count, m, *site) batch it is given: sample
    index, raw site coords 0..S-1 in row-major order, m values."""
    header = "sample," + ",".join("x_%d" % (a + 1) for a in range(g.d))
    fh.write(header + "," + ",".join("v_%d" % r for r in range(g.m)) + "\n")
    axis = [str(c) for c in range(g.side)]
    prefixes = [",".join(c) + "," for c in product(axis, repeat=g.d)]
    index = count()

    def write(batch):
        for values in batch:
            fh.writelines(_csv_lines(prefixes, values.reshape(g.m, -1).T, "%d," % next(index)))

    return write


def decay_csv_text(report) -> str:
    """Decay table: scale, multi-index, sup norm, envelope shape, constant."""
    d = report.geometry.d
    header = "k," + ",".join("alpha_%d" % (a + 1) for a in range(d))
    prefixes = ["%d,%s," % (row.k, ",".join(str(int(a)) for a in row.alpha)) for row in report.rows]
    block = np.array([[row.sup_norm, row.envelope_shape, row.constant] for row in report.rows])
    return header + ",sup_norm,envelope_shape,constant\n" + "".join(_csv_lines(prefixes, block))


def envelope_csv_text(report) -> str:
    """Envelope table: measurement kind, scale k, annulus j, max norm."""
    lines = ["kind,k,j,value\n"]
    for kind, maxima in (("product", report.product_max), ("smoothed", report.tm_max)):
        keys = sorted(maxima)
        values = np.array([maxima[key] for key in keys])[:, None]
        lines += _csv_lines(["%s,%d,%d," % ((kind,) + key) for key in keys], values)
    return "".join(lines)
