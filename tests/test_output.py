import json

import numpy as np

from frdlat.lattice import TorusGeometry
from frdlat.output import (
    canonical,
    centered_site_order,
    dumps_json,
    format_float,
    kernel_csv_text,
    samples_csv_text,
)

G3 = TorusGeometry(d=2, m=1, L=3, N=1)


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


def test_kernel_csv_layout():
    values = np.zeros((1, 1, 3, 3))
    values[0, 0, 0, 0] = 0.5
    text = kernel_csv_text(values, G3)
    lines = text.strip().split("\n")
    assert lines[0] == "x_1,x_2,r,s,value"
    assert len(lines) == 1 + 9
    assert "0,0,0,0,0.5" in lines
    assert lines[1].startswith("-1,-1,0,0,")


def test_matrix_kernel_csv_rows():
    g = TorusGeometry(d=2, m=2, L=3, N=1)
    values = np.zeros((2, 2, 3, 3))
    values[1, 0, 0, 0] = 1.0
    text = kernel_csv_text(values, g)
    lines = text.strip().split("\n")
    assert len(lines) == 1 + 9 * 4
    assert "0,0,1,0,1" in lines


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
