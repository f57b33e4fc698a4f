import io
import json
from types import SimpleNamespace

import numpy as np
import pytest

from frdlat.lattice import TorusGeometry, centered
from frdlat.output import (
    decay_csv_text,
    dumps_json,
    envelope_csv_text,
    format_float,
    samples_csv_writer,
    write_kernel_csv,
)
from frdlat.spectral import Kernel

G3 = TorusGeometry(d=2, m=1, L=3, N=1)


def samples_csv_text(sample_values, g: TorusGeometry) -> str:
    """samples.csv as samples_csv_writer writes it, held in memory."""
    buf = io.StringIO()
    samples_csv_writer(buf, g)(sample_values)
    return buf.getvalue()


def centered_site_order(g: TorusGeometry):
    """Centered coordinates in centered-lex order plus flat grid indices."""
    S = g.side
    axes = [centered(np.arange(S), S) for _ in range(g.d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([mm.reshape(-1) for mm in mesh], axis=-1)
    order = np.lexsort(coords[:, ::-1].T)
    return coords[order], order


def oracle_kernel_csv_text(values: np.ndarray, g: TorusGeometry) -> str:
    """Byte oracle for write_kernel_csv: sorts the sites explicitly and
    formats one value at a time."""
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


def kernel_csv_file(tmp_path, values, g):
    path = tmp_path / "kernel.csv"
    write_kernel_csv(str(path), Kernel(g, values))
    return path.read_bytes().decode("utf-8")


def test_format_float_is_exact_and_stable():
    assert format_float(0.1) == "0.10000000000000001"
    assert float(format_float(1.0 / 3.0)) == 1.0 / 3.0
    assert format_float(2.0) == "2"
    assert format_float(float("nan")) == "NaN"
    assert format_float(float("-inf")) == "-Infinity"


def test_dumps_json_sorted_and_parseable():
    text = dumps_json({"b": [1.5, None, True], "a": {"z": np.float64(0.25)}})
    assert text.index('"a"') < text.index('"b"')
    assert json.loads(text) == {"b": [1.5, None, True], "a": {"z": 0.25}}
    assert text.endswith("\n")
    assert dumps_json({"x": 1}) == dumps_json({"x": np.int64(1)})


def test_canonical_strips_numpy_types():
    numpy_doc = {"v": np.arange(3), "f": np.bool_(True), "t": (np.float64(0.5), np.int64(2))}
    plain_doc = {"v": [0, 1, 2], "f": True, "t": [0.5, 2]}
    assert dumps_json(numpy_doc) == dumps_json(plain_doc)
    out = json.loads(dumps_json(numpy_doc))
    assert out == plain_doc
    assert type(out["v"][0]) is int


def test_centered_site_order():
    coords, order = centered_site_order(G3)
    assert coords[0].tolist() == [-1, -1]
    assert coords[-1].tolist() == [1, 1]
    assert sorted(order.tolist()) == list(range(9))


def test_kernel_csv_layout(tmp_path):
    values = np.zeros((1, 1, 3, 3))
    values[0, 0, 0, 0] = 0.5
    text = kernel_csv_file(tmp_path, values, G3)
    lines = text.strip().split("\n")
    assert lines[0] == "x_1,x_2,r,s,value"
    assert len(lines) == 1 + 9
    assert "0,0,0,0,0.5" in lines
    assert lines[1].startswith("-1,-1,0,0,")


def test_matrix_kernel_csv_rows(tmp_path):
    g = TorusGeometry(d=2, m=2, L=3, N=1)
    values = np.zeros((2, 2, 3, 3))
    values[1, 0, 0, 0] = 1.0
    text = kernel_csv_file(tmp_path, values, g)
    lines = text.strip().split("\n")
    assert len(lines) == 1 + 9 * 4
    assert "0,0,1,0,1" in lines


def kernel_with_repeats(g: TorusGeometry, variant: int) -> np.ndarray:
    """d=2 m=2 kernel values whose bit patterns repeat: a constant far
    field across every first-axis chunk, 0.0 and -0.0, NaNs of two
    payloads, +-Inf twice each, and a value repeated within one chunk
    only.  Variant 1 changes the constants, moves every entry one site
    along both axes and swaps the signs of the zeros."""
    rng = np.random.default_rng([5, variant])
    values = np.full(g.kernel_shape(), (1.0 + variant) / 3.0)
    values[:, :, :2, :2] = rng.standard_normal((2, 2, 2, 2))
    payload_nan = float(np.uint64(0x7FF8000000000001).view(np.float64))
    # A list, not a dict: 0.0 and -0.0 are equal keys.
    planted = [(0.0, [(0, 0, 0, 1), (1, 1, 3, 2)]), (-0.0, [(0, 1, 2, 4), (1, 0, 4, 0)]),
               (np.nan, [(0, 0, 2, 2), (1, 0, 2, 3)]), (payload_nan, [(1, 1, 0, 3), (0, 1, 4, 2)]),
               (np.inf, [(0, 1, 0, 0), (1, 0, 3, 3)]), (-np.inf, [(0, 0, 4, 4), (1, 1, 2, 0)]),
               (0.7 - variant, [(0, 0, 1, 0), (0, 1, 1, 3)])]
    for value, sites in planted:
        for site in sites:
            values[site] = value
    values = np.roll(values, variant, axis=(2, 3))
    if variant:
        values[values == 0.0] *= -1.0
    return values


# The longest "%.17g" spellings: 24 characters each.
WIDEST = [-5e-324, -2.2250738585072014e-308, -1.7976931348623157e308]


def random_kernel_values(g: TorusGeometry) -> np.ndarray:
    """Values over many magnitudes, with NaN, +-Inf, -0.0, extremes and
    the widest spellings."""
    rng = np.random.default_rng([g.d, g.m, g.L])
    values = rng.standard_normal(g.kernel_shape()) * 10.0 ** rng.integers(-5, 6, g.kernel_shape())
    special = [np.nan, np.inf, -np.inf, -0.0, 1e-300, 1e300]
    values.flat[:3] = special[:3]
    values.flat[3:6] = WIDEST
    values.flat[-3:] = special[3:]
    return values


def pooled_kernel_values(g: TorusGeometry) -> np.ndarray:
    """Values drawn from a pool of more distinct values than one chunk
    (one first-axis coordinate) holds, so each pool value recurs across
    chunks and the spelling runs over more than one slice."""
    chunk = g.side ** (g.d - 1) * g.m**2
    rng = np.random.default_rng([g.d, g.m, g.L, 1])
    pool = np.concatenate([rng.standard_normal(2 * chunk + 1), WIDEST, [-0.0, 0.0]])
    return pool[rng.integers(0, pool.size, g.kernel_shape())]


@pytest.mark.parametrize(
    "d,m,L,N,kind",
    [(2, 1, 3, 2, "random"), (2, 2, 3, 1, "random"), (3, 2, 3, 1, "random"),
     (2, 1, 7, 1, "random"), (2, 2, 5, 1, "repeats"), (2, 2, 5, 1, "pooled")],
    ids=["2-1-3-2", "2-2-3-1", "3-2-3-1", "2-1-7-1", "2-2-5-1-repeats", "2-2-5-1-pooled"],
)
def test_kernel_csv_matches_per_value_oracle(tmp_path, d, m, L, N, kind):
    """Byte-identical to the per-value writer, non-finite, extreme and
    widest values included.  Random values are mostly distinct; the
    kernels with repeats share bit patterns, and two of them are written
    back to back, so a spelling that outlived its file would show in the
    second; the pooled kernel holds more distinct values than a chunk,
    each repeated across chunks."""
    g = TorusGeometry(d=d, m=m, L=L, N=N)
    widest = set(map(format_float, WIDEST))
    if kind == "repeats":
        kernels = [kernel_with_repeats(g, 0), kernel_with_repeats(g, 1)]
        spelled = {"NaN", "Infinity", "-Infinity", "0", "-0"}
    elif kind == "pooled":
        kernels = [pooled_kernel_values(g)]
        spelled = widest | {"0", "-0"}
    else:
        kernels = [random_kernel_values(g)]
        spelled = widest | {"NaN", "Infinity", "-Infinity", "-0", format_float(1e-300),
                            format_float(1e300)}
    for values in kernels:
        text = kernel_csv_file(tmp_path, values, g)
        assert text == oracle_kernel_csv_text(values, g)
        assert spelled <= {line.rsplit(",", 1)[1] for line in text.splitlines()}


@pytest.mark.parametrize("special", [False, True])
def test_decay_and_envelope_csv_match_per_value_oracle(special):
    """Byte-identical to formatting one value at a time with format_float,
    finite tables and tables holding NaN or +-Inf alike."""
    rng = np.random.default_rng(7)
    vals = list(rng.standard_normal(12) * 10.0 ** rng.integers(-5, 6, 12))
    if special:
        vals[1], vals[5], vals[10] = np.nan, np.inf, -np.inf
    alphas = [(0, 0), (1, 0), (0, 2), (1, 1)]
    rows = [SimpleNamespace(k=k, alpha=a, sup_norm=vals[3 * i], envelope_shape=vals[3 * i + 1],
                            constant=vals[3 * i + 2])
            for i, (k, a) in enumerate(zip([1, 1, 2, 3], alphas))]
    decay = SimpleNamespace(geometry=G3, rows=rows)
    expected = ["k,alpha_1,alpha_2,sup_norm,envelope_shape,constant"]
    for row in rows:
        nums = (row.sup_norm, row.envelope_shape, row.constant)
        expected.append("%d,%d,%d," % ((row.k,) + row.alpha) + ",".join(map(format_float, nums)))
    assert decay_csv_text(decay) == "\n".join(expected) + "\n"

    env = SimpleNamespace(product_max={(1, 0): vals[0], (0, 0): vals[1], (1, 1): vals[2]},
                          tm_max={(2, 1): vals[5], (0, 1): vals[4]})
    expected = ["kind,k,j,value"]
    for kind, maxima in (("product", env.product_max), ("smoothed", env.tm_max)):
        for k, j in sorted(maxima):
            expected.append("%s,%d,%d,%s" % (kind, k, j, format_float(maxima[(k, j)])))
    assert envelope_csv_text(env) == "\n".join(expected) + "\n"
    assert envelope_csv_text(SimpleNamespace(product_max={}, tm_max={})) == "kind,k,j,value\n"


def test_field_and_samples_csv():
    """Each field is one block of rows: raw site coords 0..S-1 in
    row-major order, then its m values."""
    vals = np.arange(9.0).reshape(1, 3, 3)
    stext = samples_csv_text([vals, vals + 1.0], G3)
    slines = stext.strip().split("\n")
    assert slines[0] == "sample,x_1,x_2,v_0"
    assert slines[1] == "0,0,0,0"
    assert slines[2] == "0,0,1,1"
    assert slines[9] == "0,2,2,8"
    assert slines[10] == "1,0,0,1"
    assert len(slines) == 1 + 18

    special = np.array([np.nan, np.inf, -np.inf, 0.0, -0.0, 0.1, np.nan, -0.0, 1e300])
    slines = samples_csv_text([special.reshape(1, 3, 3)], G3).split("\n")
    expected = ["0,%d,%d,%s" % (i // 3, i % 3, format_float(v)) for i, v in enumerate(special)]
    assert slines[1:] == expected + [""]


def test_samples_csv_spells_non_finite_values():
    vals = np.zeros((2, 3, 3))
    vals[0, 0, 1], vals[1, 0, 1] = np.nan, -np.inf
    vals[0, 2, 2] = 0.1
    slines = samples_csv_text([vals], TorusGeometry(d=2, m=2, L=3, N=1)).split("\n")
    assert slines[2] == "0,0,1,NaN,-Infinity"
    assert slines[9] == "0,2,2,0.10000000000000001,0"
