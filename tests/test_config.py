import json

import numpy as np
import pytest

from frdlat.config import DEFAULT_TOLERANCES, parse_config
from frdlat.errors import ParseError, ValidationError


def base():
    return {"d": 2, "m": 1, "L": 3, "N": 1, "A": [1.0]}


def parse(overrides=None, drop=None):
    doc = base()
    doc.update(overrides or {})
    for key in drop or ():
        doc.pop(key)
    return parse_config(json.dumps(doc))


def test_minimal_config():
    cfg = parse()
    g = cfg.geometry
    assert (g.d, g.m, g.L, g.N) == (2, 1, 3, 1)
    assert np.array_equal(cfg.A.entries, np.eye(2))
    assert cfg.schedule.levels == (None,)
    assert cfg.tolerances == DEFAULT_TOLERANCES
    assert cfg.seed == 0 and cfg.samples == 2000
    assert g.side == 3
    assert cfg.A.c0 == pytest.approx(1.0)


def test_malformed_json_reports_position():
    with pytest.raises(ParseError) as info:
        parse_config("{\n  \"d\": 2,,\n}")
    assert "line 2" in str(info.value)
    with pytest.raises(ParseError):
        parse_config("[1, 2]")


def test_missing_and_unknown_keys():
    with pytest.raises(ValidationError) as info:
        parse(drop=["A"])
    assert "A" in str(info.value)
    with pytest.raises(ValidationError) as info:
        parse({"mystery": 1})
    assert "mystery" in str(info.value)


def test_even_side_rejected():
    with pytest.raises(ValidationError) as info:
        parse({"L": 4})
    assert "odd" in str(info.value)


def test_scalar_shorthand_scales_identity():
    cfg = parse({"A": [2.5]})
    assert np.array_equal(cfg.A.entries, 2.5 * np.eye(2))
    with pytest.raises(ValidationError):
        parse({"A": [-1.0]})


def test_nested_and_flat_coefficients():
    nested = parse({"A": [[2.0, 0.5], [0.5, 2.0]]}).A.entries
    flat = parse({"A": [2.0, 0.5, 0.5, 2.0]}).A.entries
    assert np.array_equal(nested, flat)
    with pytest.raises(ValidationError):
        parse({"A": [1.0, 2.0, 3.0]})


def test_asymmetric_coefficients_name_entry():
    with pytest.raises(ValidationError) as info:
        parse({"A": [[1.0, 0.5], [0.0, 1.0]]})
    assert "(0, 1)" in str(info.value) or "(1, 0)" in str(info.value)


def test_indefinite_coefficients_rejected():
    with pytest.raises(ValidationError):
        parse({"A": [[1.0, 2.0], [2.0, 1.0]]})


def test_schedule_validation():
    cfg = parse({"N": 2, "schedule": [None, 5]})
    assert cfg.schedule.levels == (None, 5)
    with pytest.raises(ValidationError):
        parse({"N": 2, "schedule": [3]})
    with pytest.raises(ValidationError):
        parse({"schedule": [2]})
    with pytest.raises(ValidationError):
        parse({"schedule": [4]})


def test_tolerance_merge_and_bounds():
    cfg = parse({"tolerances": {"sum": 1e-9}})
    assert cfg.tolerances["sum"] == 1e-9
    assert cfg.tolerances["psd"] == DEFAULT_TOLERANCES["psd"]
    with pytest.raises(ValidationError):
        parse({"tolerances": {"sum": 0.0}})
    with pytest.raises(ValidationError):
        parse({"tolerances": {"what": 1e-9}})


def test_seed_and_samples_bounds():
    assert parse({"seed": 2**64 - 1}).seed == 2**64 - 1
    with pytest.raises(ValidationError):
        parse({"seed": 2**64})
    with pytest.raises(ValidationError):
        parse({"seed": -1})
    with pytest.raises(ValidationError):
        parse({"samples": 0})
    # One sample has an infinite standard error, which no deviation exceeds.
    with pytest.raises(ValidationError, match="samples: 1 is below the minimum 2"):
        parse({"samples": 1})
    assert parse({"samples": 2}).samples == 2


def test_derivative_settings():
    cfg = parse(
        {"derivative": {"order": 2, "r": 0.25, "nodes": 16, "direction": [0.5]}}
    )
    assert cfg.derivative["order"] == 2
    assert cfg.derivative["r"] == 0.25
    assert np.array_equal(cfg.path.direction, 0.5 * np.eye(2))


def test_derivative_validation():
    with pytest.raises(ValidationError):
        parse({"derivative": {"order": 7}})
    with pytest.raises(ValidationError):
        parse({"derivative": {"r": 1.0}})
    with pytest.raises(ValidationError):
        parse({"derivative": {"direction": [[0.0, 1.0], [-1.0, 0.0]]}})
    with pytest.raises(ValidationError):
        parse({"derivative": {"direction": [[3.0, 0.0], [0.0, 3.0]]}})
    with pytest.raises(ValidationError):
        parse({"derivative": {"spin": 1}})
    with pytest.raises(ValidationError, match="derivative.nodes"):
        parse({"derivative": {"nodes": 3}})
    # deriv does not read nodes, so no rule ties it to the order; the
    # contour oracle checks its own node count.
    assert parse({"derivative": {"order": 6, "nodes": 4}}).derivative["nodes"] == 4


def test_default_derivative_direction_is_identity():
    assert np.allclose(parse().path.direction, np.eye(2))


def test_output_and_write_samples():
    cfg = parse({"output": "runs/a", "write_samples": True})
    assert cfg.output == "runs/a"
    assert cfg.write_samples is True
    with pytest.raises(ValidationError):
        parse({"output": ""})
    with pytest.raises(ValidationError):
        parse({"write_samples": "yes"})
