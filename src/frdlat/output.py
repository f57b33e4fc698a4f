"""Deterministic artifact serialization.

All floats are written as decimal with 17 significant digits (NaN,
Infinity, -Infinity if not finite), JSON keys are emitted sorted with
fixed separators, and row orders are fixed functions of the geometry, so
identical data produces identical bytes regardless of platform or thread
count.  Kernel and sample tables are streamed: each chunk of rows (one
first-axis coordinate, one sample) is formatted from whole arrays into
one string, so no file is ever held as one string.  Every CSV writer
spells its values through _spell, one "%.17g" pass per chunk (format_float
per value if the chunk holds a non-finite value).  A finite-range kernel
repeats a few far-field values at most sites, so a kernel file first
spells each float64 bit pattern that occurs more than once in it, once,
and its chunks spell only the rest; the bytes are the same as spelling
every value with format_float.  samples.csv is written by a consumer that
takes batches of fields as the sampler produces them.
"""

import json
import math
from itertools import chain, count, product, repeat

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
    """Write an iterable of strings, one write per string."""
    with open_artifact(path) as fh:
        fh.writelines(chunks)


def write_json(path, obj):
    write_text(path, dumps_json(obj))


def write_text(path, text):
    _write_chunks(path, [text])


def _spell(values) -> list:
    """The format_float spelling of each value, in C order: one "%.17g"
    pass, or format_float per value when any value is not finite."""
    values = np.ravel(values)
    nums = values.tolist()
    if np.isfinite(values).all():
        return ("%.17g\n" * len(nums) % tuple(nums)).splitlines()
    return list(map(format_float, nums))


def _file_speller(file_values):
    """A _spell for the chunks of one file's values.

    Each float64 bit pattern that occurs more than once in file_values is
    spelled once, here; a chunk looks its values up by bit pattern (which
    keeps 0.0 apart from -0.0) and spells only the rest.  The repeats are
    the only spellings held, and they go with the returned function.
    """
    patterns, counts = np.unique(np.ravel(file_values).view(np.uint64), return_counts=True)
    patterns = patterns[counts > 1]
    if not patterns.size:
        return _spell
    spelled = np.array(_spell(patterns.view(np.float64)), dtype=object)

    def spell(values):
        values = np.ravel(values)
        keys = values.view(np.uint64)
        slot = np.minimum(np.searchsorted(patterns, keys), patterns.size - 1)
        out = spelled[slot]
        miss = patterns[slot] != keys
        if miss.any():
            out[miss] = _spell(values[miss])
        return out.tolist()

    return spell


def _csv_lines(prefixes, spellings, head="") -> str:
    """CSV text, one line per prefix: head, the prefix, then that row's
    values.  spellings holds the values of a (rows, cols) block in C
    order, so each row takes the next len(spellings) // len(prefixes)."""
    cols = len(spellings) // len(prefixes) if prefixes else 0
    fields = [repeat(head), prefixes]
    for j in range(cols):
        fields += [spellings[j::cols], repeat("," if j + 1 < cols else "\n")]
    return "".join(chain.from_iterable(zip(*fields)))


def _kernel_csv_chunks(values, g: TorusGeometry):
    """Header, then the rows of one first-axis coordinate per chunk."""
    yield ",".join("x_%d" % (a + 1) for a in range(g.d)) + ",r,s,value\n"
    spell = _file_speller(values)
    # S is odd, so fftshift puts every site axis in centered order -h..h;
    # with (r, s) moved last, ravelling gives the file's row order.
    shifted = np.fft.fftshift(values.reshape(g.kernel_shape()), axes=tuple(range(2, 2 + g.d)))
    rows = np.moveaxis(shifted, (0, 1), (-2, -1)).reshape(g.side, -1)
    h = (g.side - 1) // 2
    axis = [str(c) for c in range(-h, h + 1)]
    suffixes = ["%d,%d," % rs for rs in product(range(g.m), repeat=2)]
    tail = [",".join(c) + "," + rs for c in product(axis, repeat=g.d - 1) for rs in suffixes]
    for x1, block in zip(axis, rows):
        yield _csv_lines(tail, spell(block), x1 + ",")


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
            fh.write(_csv_lines(prefixes, _spell(values.reshape(g.m, -1).T), "%d," % next(index)))

    return write


def decay_csv_text(report) -> str:
    """Decay table: scale, multi-index, sup norm, envelope shape, constant."""
    d = report.geometry.d
    header = "k," + ",".join("alpha_%d" % (a + 1) for a in range(d))
    prefixes = ["%d,%s," % (row.k, ",".join(str(int(a)) for a in row.alpha)) for row in report.rows]
    block = np.array([[row.sup_norm, row.envelope_shape, row.constant] for row in report.rows])
    return header + ",sup_norm,envelope_shape,constant\n" + _csv_lines(prefixes, _spell(block))


def envelope_csv_text(report) -> str:
    """Envelope table: measurement kind, scale k, annulus j, max norm."""
    text = "kind,k,j,value\n"
    for kind, maxima in (("product", report.product_max), ("smoothed", report.tm_max)):
        keys = sorted(maxima)
        spellings = _spell(np.array([maxima[key] for key in keys]))
        text += _csv_lines(["%s,%d,%d," % ((kind,) + key) for key in keys], spellings)
    return text
