"""Property tests of the real-space Green-equation check.

Random SPD coefficients and random schedules on small tori: applying the
real-space operator to the summed scale kernels must give the mean-free
delta, column by column.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from frdlat.decomposition import build_schedule, decompose
from frdlat.elliptic import validate_map
from frdlat.lattice import TorusGeometry
from frdlat.verification import green_equation_residual

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
    assert green_equation_residual(res) <= 1e-12
