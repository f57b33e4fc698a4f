import io
import json

import numpy as np
import pytest

from frdlat.lattice import TorusGeometry, centered
from frdlat.output import (
    canonical,
    dumps_json,
    format_float,
    samples_csv_writer,
    write_kernel_csv,
)

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
    write_kernel_csv(str(path), values, g)
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
    out = canonical({"v": np.arange(3), "f": np.bool_(True)})
    assert out == {"v": [0, 1, 2], "f": True}
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


@pytest.mark.parametrize(
    "d,m,L,N", [(2, 1, 3, 2), (2, 2, 3, 1), (3, 2, 3, 1), (2, 1, 7, 1)]
)
def test_kernel_csv_matches_per_value_oracle(tmp_path, d, m, L, N):
    """Byte-identical to the per-value writer, non-finite and extreme
    values included: the first-axis block holding NaN and +-Inf takes the
    format_float spelling, the others the one-pass "%.17g"."""
    g = TorusGeometry(d=d, m=m, L=L, N=N)
    rng = np.random.default_rng([d, m, L])
    values = rng.standard_normal(g.kernel_shape()) * 10.0 ** rng.integers(-5, 6, g.kernel_shape())
    special = [np.nan, np.inf, -np.inf, -0.0, 1e-300, 1e300]
    values.flat[:3] = special[:3]
    values.flat[-3:] = special[3:]
    text = kernel_csv_file(tmp_path, values, g)
    assert text == oracle_kernel_csv_text(values, g)
    written = {line.rsplit(",", 1)[1] for line in text.splitlines()}
    assert {"NaN", "Infinity", "-Infinity", "-0"} | set(map(format_float, special)) <= written


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


def test_samples_csv_spells_non_finite_values():
    vals = np.zeros((2, 3, 3))
    vals[0, 0, 1], vals[1, 0, 1] = np.nan, -np.inf
    vals[0, 2, 2] = 0.1
    slines = samples_csv_text([vals], TorusGeometry(d=2, m=2, L=3, N=1)).split("\n")
    assert slines[2] == "0,0,1,NaN,-Infinity"
    assert slines[9] == "0,2,2,0.10000000000000001,0"
