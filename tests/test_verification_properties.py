"""Property tests of the decomposition and its checks.

Random SPD coefficients and random schedules (skipped levels included) on
small tori: applying the real-space operator to the summed scale kernels
must give the mean-free delta, column by column; the scales telescope,
stay positive, vanish on skipped levels, and match the complex branch at
z = 0.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frdlat.decomposition import build_schedule, complex_decompose, decompose
from frdlat.elliptic import ComplexEllipticPath, validate_map
from frdlat.lattice import TorusGeometry
from frdlat.verification import check_psd, check_sum, envelope_report, kernel_pass

# (d, L, N) small enough that every cube side fits the dense limit.
TORI = [(2, 3, 1), (2, 5, 1), (2, 3, 2), (3, 3, 1), (3, 5, 1)]


@st.composite
def decomposition_cases(draw):
    d, L, N = draw(st.sampled_from(TORI))
    m = draw(st.sampled_from([1, 2]))
    g = TorusGeometry(d=d, m=m, L=L, N=N)
    levels = draw(
        st.lists(
            st.one_of(st.none(), st.integers(min_value=3, max_value=g.side)),
            min_size=N,
            max_size=N,
        )
    )
    rng = np.random.default_rng(draw(st.integers(min_value=0, max_value=2**32 - 1)))
    n = m * d
    B = rng.standard_normal((n, n))
    A = validate_map(B.T @ B / n + 0.5 * np.eye(n), d, m)
    return A, g, levels


@pytest.mark.filterwarnings("ignore:range r_")
@settings(max_examples=40, deadline=None)
@given(decomposition_cases())
def test_green_equation_holds_for_random_spd_coefficients(case):
    A, g, levels = case
    res = decompose(A, g, build_schedule(g, override=levels))
    assert kernel_pass(res, full=True).green <= 1e-12


@pytest.mark.filterwarnings("ignore:range r_")
@settings(max_examples=40, deadline=None)
@given(decomposition_cases())
def test_scale_recursion_invariants_for_random_spd_coefficients(case):
    A, g, levels = case
    sched = build_schedule(g, override=levels)
    res = decompose(A, g, sched)
    assert check_sum(res) <= 1e-12
    assert min(check_psd(res)) >= -1e-10

    live = [j for j, l in enumerate(sched.levels, start=1) if l is not None]
    for j, l in enumerate(sched.levels, start=1):
        if l is None:
            assert res.symbols[j - 1] is None
            assert not np.any(res.kernel(j).values)
    env = envelope_report(res)
    assert sorted(env.level_t_max) == live
    assert env.contraction_max <= 1.0 + 1e-12

    path = ComplexEllipticPath.from_direction(A, np.eye(g.m * g.d))
    cres = complex_decompose(path, 0.0, g, sched)
    for a, b in zip(res.walk(), cres.tables):
        scale = np.max(np.abs(a.values))
        assert np.max(np.abs(a.values - b.values)) <= 1e-11 * scale
