"""Deterministic artifact serialization.

Every float is written as C's "%.17g" spelling of the float64 (NaN,
Infinity, -Infinity if not finite), JSON keys are emitted sorted with
fixed separators, and row orders are fixed functions of the geometry, so
identical data produces identical bytes regardless of platform or thread
count.  Kernel and sample tables are streamed: each chunk of rows (one
first-axis coordinate, one sample) is one % pass of a bytes line template
over its values' spellings, so no file is ever held as one string.

Every CSV writer spells its values through _spell, which computes the
"%.17g" digits in numpy, in slices of fixed length, with integer
arithmetic on an exact two-product (see the comment above _SPLIT); short
slices go through one "%.17g" pass, and the few values that path does
not cover (zeros, non-finite values, magnitudes outside [1e-28, 1e17),
near-ties) through format_float one by one, so the bytes are those of
format_float for every value.  A finite-range kernel
repeats a few far-field values at most sites, so a kernel file spells
each distinct float64 bit pattern once, into a table of 24-byte ASCII
entries.  samples.csv is written by a consumer that spells each batch of
fields as the sampler produces it.
"""

import functools
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


def open_artifact(path, binary=False):
    """An artifact file opened for writing: UTF-8 text with \\n line ends,
    or bytes, which the writer keeps ASCII with \\n line ends."""
    return open(path, "wb") if binary else open(path, "w", encoding="utf-8", newline="\n")


def write_json(path, obj):
    write_text(path, dumps_json(obj))


def write_text(path, text):
    with open_artifact(path) as fh:
        fh.write(text)


# _spell's exact "%.17g".  A finite v with 1e-28 <= |v| < 1e17 has decimal
# exponent x = floor(log10|v|) in -28..16, and "%.17g" prints the 17-digit
# integer D nearest |v| * 10^k, k = 16 - x, ties to even.  Dekker's
# two-product forms that product as an unevaluated sum hi + lo, exactly
# while k <= 22, where 10^k is a double.  hi >= 2^53 is then an even integer,
# so D = hi + rint(lo), exact ties included.  For k > 22 the product is
# 10^22 * 10^(k-22), within 2^-100 relative, and a value whose lo lies
# within 1e-9 of a half goes through format_float, as do values whose D
# leaves (10^16, 10^17) because log10 missed at a power of ten, zeros,
# non-finite values and magnitudes outside [1e-28, 1e17).
_SPLIT = 2.0**27 + 1.0
_POW10 = np.array([float(10**k) for k in range(23)])
_POW10_HI = _SPLIT * _POW10 - (_SPLIT * _POW10 - _POW10)
_POW10_LO = _POW10 - _POW10_HI
# A value's source row: "." "e" "-" at 0-2, "0000" then the 17 digits of D
# at 3-23 (D's last 16 as four aligned uint32 groups at 8-23), the
# exponent's two digits at 24-25, NUL at 26-27.
_SOURCE_ROW = np.frombuffer(b".e-" + b"0" * 23 + bytes(2), np.uint8)
_SLICE = 1024
_SHORT = 128


def _spelling_layout() -> np.ndarray:
    """The 24 source row columns that spell each class (sign, x, significant
    digits) by C's %g rule, x = -5 standing for every x < -4: d.ddde-XX for
    x < -4, fixed notation for -4 <= x <= 16; trailing zeros after the point
    dropped, and the point with them when no digit follows it; NUL padded."""
    e = list(range(3, 24))  # "0000" + D
    rows = []
    for neg, x, ns in product((0, 1), range(-5, 17), range(1, 18)):
        if x < -4:
            cols = e[4:5] + ([0] + e[5 : 4 + ns] if ns > 1 else []) + [1, 2, 24, 25]
        elif x < 0:
            cols = e[4 + x : 5 + x] + [0] + e[5 + x : 4 + ns]
        else:
            cols = e[4 : 5 + x] + ([0] + e[5 + x : 4 + ns] if ns > x + 1 else [])
        rows.append([2] * neg + cols + [26] * (24 - neg - len(cols)))
    return np.array(rows, dtype=np.uint8)


@functools.cache
def _spelling_tables():
    """Built on first use, read-only: the four ASCII digits of each of
    0..9999 as one uint32, how many of them are trailing zeros (4 for 0),
    and _spelling_layout()."""
    chars = np.empty((10, 10, 10, 10, 4), np.uint8)
    zeros = np.zeros((10, 10, 10, 10), np.uint8)
    for j in range(4):
        chars[..., j] = np.arange(48, 58, dtype=np.uint8).reshape([10 if i == j else 1 for i in range(4)])
        zeros[(...,) + (0,) * (j + 1)] += 1
    tables = chars.view(np.uint32).ravel(), zeros.ravel(), _spelling_layout()
    for table in tables:
        table.flags.writeable = False
    return tables


def _two_product(a, k):
    """a * 10^k as hi + lo, exactly (Dekker), for 0 <= k <= 22."""
    c = _SPLIT * a
    a_hi = c - (c - a)
    a_lo = a - a_hi
    b_hi, b_lo = _POW10_HI[k], _POW10_LO[k]
    hi = a * _POW10[k]
    return hi, ((a_hi * b_hi - hi) + a_hi * b_lo + a_lo * b_hi) + a_lo * b_lo


def _spell_slice(v) -> np.ndarray:
    """_spell of one slice of float64 values."""
    group_digits, group_zeros, layout = _spelling_tables()
    n = v.size
    a = np.abs(v)
    ok = (a >= 1e-28) & (a < 1e17)
    a[~ok] = 1.0
    # Clipped, a log10 miss at either end lands D outside (10^16, 10^17).
    x = np.minimum(np.maximum(np.floor(np.log10(a)), -28.0), 16.0).astype(np.intp)
    k = 16 - x
    near = np.minimum(k, 22)
    hi, lo = _two_product(a, near)
    far = k.max() > 22
    if far:
        # Exact again where k - near = 0, as 10^0 = 1.
        hi, lo2 = _two_product(hi, k - near)
        lo = lo2 + lo * _POW10[k - near]
    r = np.rint(lo)
    if far:
        # Off by up to ~1e-15 where k > 22: a value that near a tie goes to
        # format_float.
        ok &= (k <= 22) | (np.abs(lo - r) < 0.5 - 1e-9)
    d = hi.astype(np.int64) + r.astype(np.int64)
    ok &= (d > 10**16) & (d < 10**17)
    d[~ok] = 10**16
    # D is its leading digit, then four groups of four.
    top = d // 10**8
    low = d - top * 10**8
    head = top // 10**4
    lead = head // 10**4
    mid = low // 10**4
    groups = (head - lead * 10**4, top - head * 10**4, mid, low - mid * 10**4)
    src = np.repeat(_SOURCE_ROW[None], n, axis=0)
    src[:, 7] += lead.astype(np.uint8)
    words = src.view(np.uint32)
    for i, g in enumerate(groups):
        words[:, 2 + i] = group_digits[g]
    # The exponent's two digits are the last two of its group.
    src.view(np.uint16)[:, 12] = group_digits.view(np.uint16)[1::2][-np.minimum(x, 0)]
    # D's trailing zeros: its last group's, then the group before's while
    # every later group is 0000.
    zeros = group_zeros[groups[3]]
    for i in (2, 1, 0):
        zeros += (zeros == 12 - 4 * i) * group_zeros[groups[i]]
    cls = ((v < 0) * 22 + np.maximum(x, -5)) * 17 + 101 - zeros
    index = layout.take(cls, axis=0).astype(np.intp)
    index += (28 * np.arange(n))[:, None]
    out = src.reshape(-1).take(index).view("S24").reshape(n)
    if not ok.all():
        for i, good in enumerate(ok.tolist()):
            if not good:
                out[i] = format_float(v[i])
    return out


def _spell(values) -> np.ndarray:
    """The format_float spelling of each value, in C order, as 24-byte
    ASCII entries (no spelling is longer).

    Spelled in slices of _SLICE values, so the temporaries stay small
    whatever the input's size.  A shorter slice is padded to _SLICE, and no
    temporary's length depends on the values: numpy keeps freed blocks
    under 1 kB for reuse, per exact size, and such blocks of many sizes,
    left between large arrays, fragment the heap and raise the peak RSS of
    runs repeated in one process.  A slice of fewer than _SHORT values
    costs less spelled by one "%.17g" pass than padded; its non-finite
    values are then respelled by format_float.
    """
    values = np.ravel(np.asarray(values, dtype=np.float64))
    out = np.empty(values.size, dtype="S24")
    for i in range(0, values.size, _SLICE):
        part = values[i : i + _SLICE]
        if part.size < _SHORT:
            # One "%.17g" pass; only the non-finite values need format_float.
            spelled = ("%.17g " * part.size % tuple(part.tolist())).split()
            for j in np.flatnonzero(~np.isfinite(part)).tolist():
                spelled[j] = format_float(part[j])
            out[i : i + part.size] = spelled
            continue
        padded = np.full(_SLICE, 0.5)
        padded[: part.size] = part
        out[i : i + part.size] = _spell_slice(padded)[: part.size]
    return out


def _line_template(prefixes, cols) -> bytes:
    """A bytes % template of CSV lines: each prefix, then cols "%s" fields.
    No prefix holds a "%"."""
    fields = ",".join(["%s"] * cols) + "\n"
    return "".join(prefix + fields for prefix in prefixes).encode()


def _kernel_csv_chunks(values, g: TorusGeometry):
    """The header, then the rows of one first-axis coordinate per chunk,
    as ASCII bytes.

    Each distinct float64 bit pattern of the file (which keeps 0.0 apart
    from -0.0) is spelled once into a table of 24-byte entries.  A chunk
    is then one % pass of its line template over its values' entries; a
    kernel of one pattern (a skipped scale's zero kernel) fills the
    template with its one spelling instead.
    """
    yield (",".join("x_%d" % (a + 1) for a in range(g.d)) + ",r,s,value\n").encode()
    h = (g.side - 1) // 2
    axis = [str(c) for c in range(-h, h + 1)]
    suffixes = ["%d,%d," % rs for rs in product(range(g.m), repeat=2)]
    # "@" stands for the chunk's x_1.
    lines = _line_template(["@," + ",".join(c) + "," + rs
                            for c in product(axis, repeat=g.d - 1) for rs in suffixes], 1)
    bits = np.ravel(values).view(np.uint64)
    if bits.min() == bits.max():
        lines = lines.replace(b"%s", _spell(bits[:1].view(np.float64))[0])
        for x1 in axis:
            yield lines.replace(b"@", x1.encode())
        return
    # S is odd, so fftshift puts every site axis in centered order -h..h;
    # with (r, s) moved last, ravelling gives the file's row order.
    shifted = np.fft.fftshift(values.reshape(g.kernel_shape()), axes=tuple(range(2, 2 + g.d)))
    flat = np.moveaxis(shifted, (0, 1), (-2, -1)).reshape(-1).view(np.uint64)
    del shifted
    # One sort: the sorted buffer gives the patterns, then holds the
    # inverse's slot numbers, which the sort order scatters back.
    order = np.argsort(flat)
    ranked = flat[order]
    del flat
    fresh = np.empty(ranked.size, dtype=bool)
    fresh[0] = True
    np.not_equal(ranked[1:], ranked[:-1], out=fresh[1:])
    patterns = ranked[fresh]
    ids = np.cumsum(fresh, out=ranked.view(np.int64))
    del fresh
    ids -= 1
    slots = np.empty_like(order)
    slots[order] = ids
    del order, ranked, ids
    spelled = _spell(patterns.view(np.float64))
    del patterns
    for x1, row in zip(axis, slots.reshape(g.side, -1)):
        yield lines.replace(b"@", x1.encode()) % tuple(spelled[row].tolist())


def write_kernel_csv(path, kern: Kernel):
    """Kernel table: x_1..x_d centered coords, 0-based r, s, value."""
    with open_artifact(path, binary=True) as fh:
        fh.writelines(_kernel_csv_chunks(kern.values, kern.geometry))


def samples_csv_writer(fh, g: TorusGeometry):
    """Write the samples.csv header to fh and return a consumer that
    writes the rows of each (count, m, *site) batch it is given: sample
    index, raw site coords 0..S-1 in row-major order, m values."""
    header = "sample," + ",".join("x_%d" % (a + 1) for a in range(g.d))
    fh.write(header + "," + ",".join("v_%d" % r for r in range(g.m)) + "\n")
    axis = [str(c) for c in range(g.side)]
    # "@" stands for the sample index.
    lines = _line_template(["@," + ",".join(c) + "," for c in product(axis, repeat=g.d)], g.m)
    per_sample = g.site_count * g.m
    index = count()

    def write(batch):
        batch = np.asarray(batch)
        spelled = _spell(np.swapaxes(batch.reshape(len(batch), g.m, -1), 1, 2))
        for i in range(len(batch)):
            row = spelled[i * per_sample : (i + 1) * per_sample]
            fh.write((lines.replace(b"@", b"%d" % next(index)) % tuple(row.tolist())).decode())

    return write


def decay_csv_text(report) -> str:
    """Decay table: scale, multi-index, sup norm, envelope shape, constant."""
    d = report.geometry.d
    header = "k," + ",".join("alpha_%d" % (a + 1) for a in range(d))
    prefixes = ["%d,%s," % (row.k, ",".join(str(int(a)) for a in row.alpha)) for row in report.rows]
    spelled = _spell([[row.sup_norm, row.envelope_shape, row.constant] for row in report.rows])
    text = _line_template(prefixes, 3) % tuple(spelled.tolist())
    return header + ",sup_norm,envelope_shape,constant\n" + text.decode()


def envelope_csv_text(report) -> str:
    """Envelope table: measurement kind, scale k, annulus j, max norm."""
    text = b"kind,k,j,value\n"
    for kind, maxima in (("product", report.product_max), ("smoothed", report.tm_max)):
        keys = sorted(maxima)
        spelled = _spell([maxima[key] for key in keys])
        text += _line_template(["%s,%d,%d," % ((kind,) + key) for key in keys], 1) % tuple(spelled.tolist())
    return text.decode()
