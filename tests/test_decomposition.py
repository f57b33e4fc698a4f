from fractions import Fraction

import numpy as np
import pytest

from frdlat.decomposition import (
    CubeSchedule,
    _family,
    _member,
    build_schedule,
    complex_decompose,
    decompose,
    far_field_constant,
    kernel_sup_norm,
    taylor_jets,
)
from frdlat.elliptic import ComplexEllipticPath, identity_map, symbol_flat, validate_map
from frdlat.errors import EmptyFarRegion, FactorizationFailure, InvalidSchedule, OutsideDisc
from frdlat.lattice import TorusGeometry, rho_inf_grid
from frdlat.spectral import Kernel, MultiplierTable, multiplier_to_kernel, spectral_norms
from frdlat.verification import diagnostics


def test_default_schedule_small_sides():
    g = TorusGeometry(d=2, m=1, L=3, N=3)
    sched = build_schedule(g)
    assert sched.levels == (None, None, 4)
    assert sched.ranges == (-1, -1, 5)
    assert sched.is_skipped(1) and sched.is_skipped(2) and not sched.is_skipped(3)


def test_default_schedule_medium_side():
    g = TorusGeometry(d=2, m=1, L=7, N=2)
    sched = build_schedule(g)
    assert sched.levels == (3, 7)
    assert sched.ranges == (3, 15)


def test_default_schedule_large_side():
    g = TorusGeometry(d=2, m=1, L=17, N=1)
    assert build_schedule(g).levels == (3,)


def test_override_ranges():
    g = TorusGeometry(d=2, m=1, L=5, N=2)
    assert build_schedule(g, override=[3, 5]).ranges == (3, 11)
    g4 = TorusGeometry(d=2, m=1, L=3, N=4)
    sched = build_schedule(g4, override=[3, 5, 9, 17])
    assert sched.ranges == (3, 11, 27, 59)


def test_override_validation():
    g = TorusGeometry(d=2, m=1, L=5, N=2)
    with pytest.raises(InvalidSchedule):
        build_schedule(g, override=[3])
    with pytest.raises(InvalidSchedule):
        build_schedule(g, override=[2, 5])
    with pytest.raises(InvalidSchedule):
        build_schedule(g, override=[3, 27])


def test_range_reaching_half_side_warns():
    g = TorusGeometry(d=2, m=1, L=3, N=2)
    with pytest.warns(UserWarning):
        build_schedule(g, override=[5, 5])


def test_schedule_mismatch_rejected():
    g = TorusGeometry(d=2, m=1, L=5, N=1)
    sched = CubeSchedule((3,), S=3)
    with pytest.raises(InvalidSchedule):
        decompose(identity_map(2, 1), g, sched)


def test_all_skipped_levels_reduce_to_green():
    """With every level skipped, C_1..C_N vanish and the remainder is C."""
    g = TorusGeometry(d=2, m=1, L=3, N=1)
    sched = build_schedule(g, override=[None])
    res = decompose(identity_map(2, 1), g, sched)
    assert np.max(np.abs(res.table(1).values)) == 0.0
    assert np.allclose(res.table(2).values, res.green_table.values)
    assert res.n_scales == 2


@pytest.mark.parametrize("d", [2, 3])
@pytest.mark.parametrize("m", [1, 2])
def test_zero_spectrum_transforms_to_positive_zero(d, m):
    """irfftn of a zero half spectrum is +0.0 at every site, which is the
    shared zero kernel a skipped level gets instead of a transform."""
    g = TorusGeometry(d=d, m=m, L=3, N=2)
    values = multiplier_to_kernel(MultiplierTable(g, np.zeros((g.half_count - 1, m, m)))).values
    assert values.shape == g.kernel_shape()
    assert not np.any(values) and not np.any(np.signbit(values))
    res = decompose(identity_map(d, m) if m == 1 else validate_map(np.eye(d * m), d, m), g,
                    build_schedule(g, override=[None, 3]))
    assert np.array_equal(res.kernel(1).values.view(np.uint64), values.view(np.uint64))
    assert res.kernel(1).imag_residue == 0.0


def test_skipped_levels_share_one_read_only_zero_scale():
    """Every skipped level of a result holds the same table and kernel
    objects, all +0.0, and neither array can be written."""
    g = TorusGeometry(d=2, m=1, L=3, N=4)
    res = decompose(identity_map(2, 1), g, build_schedule(g))
    assert res.schedule.levels[:2] == (None, None)
    assert res.table(1) is res.table(2) and res.kernel(1) is res.kernel(2)
    for arr in (res.table(1).values, res.kernel(1).values):
        assert not np.any(arr) and not np.any(np.signbit(arr.view(np.float64)))
        with pytest.raises(ValueError):
            arr[0] = 1.0
        with pytest.raises(ValueError):
            arr += 1.0
    tables = list(res.walk())
    assert len(tables) == res.n_scales and tables[0] is tables[1] is res.zero_table
    live = {id(t.values) for t in tables[2:]}
    assert len(live) == res.n_scales - 2 and id(res.table(1).values) not in live


def test_telescoping_and_psd():
    g = TorusGeometry(d=2, m=1, L=5, N=2)
    res = decompose(identity_map(2, 1), g, build_schedule(g, override=[3, 5]))
    diag = diagnostics(res)
    assert diag["sum_residual"] < 1e-12
    assert all(v is not None and v < 1e-10 for v in diag["range_residual"])
    assert min(diag["min_psd_eig"]) > -1e-10
    assert diag["imag_residue"] < 1e-12
    assert diag["ranges"] == [3, 11]


def test_matrix_valued_decomposition():
    g = TorusGeometry(d=2, m=2, L=3, N=1)
    rng = np.random.default_rng(7)
    B = rng.standard_normal((4, 4))
    A = validate_map(B.T @ B + 0.2 * np.eye(4), 2, 2)
    res = decompose(A, g, build_schedule(g, override=[3]))
    diag = diagnostics(res)
    assert diag["sum_residual"] < 1e-12
    assert min(diag["min_psd_eig"]) > -1e-10
    k = res.kernel(1)
    vals = k.values
    assert np.max(np.abs(vals - np.conj(vals))) == 0.0
    assert vals.shape == (2, 2, 3, 3)


def test_kernels_have_zero_mean():
    g = TorusGeometry(d=2, m=1, L=5, N=1)
    res = decompose(identity_map(2, 1), g, build_schedule(g, override=[3]))
    for k in range(1, res.n_scales + 1):
        assert abs(np.sum(res.kernel(k).values)) < 1e-13


def test_far_field_constant_empty_region():
    g = TorusGeometry(d=2, m=1, L=3, N=1)
    res = decompose(identity_map(2, 1), g, build_schedule(g, override=[3]))
    with pytest.raises(EmptyFarRegion):
        far_field_constant(res.kernel(1), 1)
    assert diagnostics(res)["range_residual"] == [None]


@pytest.mark.parametrize("d, m", [(2, 1), (2, 2), (3, 2), (2, 3)])
def test_far_field_constant_is_the_fancy_index_mean_bitwise(d, m):
    """far_field_constant gathers the far sites one entry at a time, into
    the layout of K.values[:, :, mask] (sites first), so its mean and
    residual are bitwise those of that index, on values over many
    magnitudes, where the order of the additions shows in the last bits."""
    g = TorusGeometry(d=d, m=m, L=3, N=2)
    rng = np.random.default_rng(10 * d + m)
    values = rng.standard_normal(g.kernel_shape()) * 10.0 ** rng.integers(-8, 9, g.kernel_shape())
    C, residual = far_field_constant(Kernel(g, values), 2)
    far = values[:, :, rho_inf_grid(g) > 2]
    want = far.mean(axis=-1)
    assert np.array_equal(C.view(np.uint64), want.view(np.uint64))
    assert residual == float(np.max(spectral_norms(np.moveaxis(far - want[:, :, None], -1, 0))))


def test_kernel_sup_norm_matches_direct_max():
    g = TorusGeometry(d=2, m=1, L=5, N=1)
    res = decompose(identity_map(2, 1), g, build_schedule(g, override=[3]))
    k = res.kernel(1)
    assert kernel_sup_norm(k) == pytest.approx(float(np.max(np.abs(k.values))))


def test_complex_branch_matches_real_at_zero():
    g = TorusGeometry(d=2, m=1, L=5, N=2)
    sched = build_schedule(g, override=[3, 5])
    A = identity_map(2, 1)
    res = decompose(A, g, sched)
    cres = complex_decompose(ComplexEllipticPath.from_direction(A, np.eye(2)), 0.0, g, sched)
    worst = 0.0
    for k in range(1, res.n_scales + 1):
        a = res.table(k).values
        b = cres.table(k).values
        worst = max(worst, float(np.max(np.abs(a - b))))
    assert worst < 1e-11


def test_complex_branch_telescopes_exactly():
    g = TorusGeometry(d=2, m=1, L=5, N=2)
    sched = build_schedule(g, override=[3, 5])
    path = ComplexEllipticPath.from_direction(identity_map(2, 1), np.eye(2))
    z = 0.3 + 0.4j
    cres = complex_decompose(path, z, g, sched)
    total = np.sum([t.values for t in cres.tables], axis=0)
    green = cres.green_table.values
    assert green.shape == (g.half_count - 1, 1, 1)
    assert np.max(np.abs(total - green)) < 1e-12 * np.max(np.abs(green))


def random_path(d, m, seed):
    rng = np.random.default_rng(seed)
    n = m * d
    B = rng.standard_normal((n, n))
    A = validate_map(B.T @ B / n + 0.5 * np.eye(n), d, m)
    D = rng.standard_normal((n, n))
    D = D + D.T
    return ComplexEllipticPath.from_direction(A, D / np.max(np.abs(np.linalg.eigvalsh(D))))


@pytest.mark.parametrize("d, L, levels", [(2, 5, [3, 5]), (3, 3, [3, 5])])
def test_complex_branch_matches_real_at_real_t_m2(d, L, levels):
    g = TorusGeometry(d=d, m=2, L=L, N=2)
    sched = build_schedule(g, override=levels)
    path = random_path(d, 2, seed=d)
    for t in (0.0, 0.4, -0.4):
        res = decompose(validate_map(path.A0.entries + t * path.A1, d, 2), g, sched)
        cres = complex_decompose(path, t, g, sched)
        pairs = [(res.table(k), cres.table(k)) for k in range(1, res.n_scales + 1)]
        pairs.append((res.green_table, cres.green_table))
        for a, b in pairs:
            scale = np.max(np.abs(a.values))
            assert np.max(np.abs(a.values - b.values)) <= 1e-11 * scale


def test_complex_decompose_rejects_points_off_the_disc():
    g = TorusGeometry(d=2, m=1, L=5, N=1)
    sched = build_schedule(g, override=[3])
    path = ComplexEllipticPath.from_direction(identity_map(2, 1), np.eye(2))
    with pytest.raises(OutsideDisc):
        complex_decompose(path, 1.0, g, sched)
    with pytest.raises(OutsideDisc):
        complex_decompose(path, 0.6 + 0.8j, g, sched)


def test_oversized_direction_fails_the_pencil():
    """|A1| <= c0/2 keeps every member of the stiffness pencil K0 + z K1
    definite on the unit disc; a tripled A1 breaks it, and the jets and the
    contour oracle both re-check it by name."""
    g = TorusGeometry(d=2, m=1, L=5, N=2)
    sched = build_schedule(g, override=[None, 5])
    path = ComplexEllipticPath.from_direction(identity_map(2, 1), np.eye(2))
    complex_decompose(path, 0.5, g, sched)
    taylor_jets(path, g, sched, 2)
    object.__setattr__(path, "A1", 3.0 * path.A1)
    for run in (lambda: complex_decompose(path, 0.1, g, sched),
                lambda: taylor_jets(path, g, sched, 2)):
        with pytest.raises(OutsideDisc, match=r"direction norm 1\.5 exceeds c0/2 = 0\.5"):
            run()


def test_layered_failure_names_its_level(monkeypatch):
    """A cube error names its level in every branch of the product
    formula: the failure is planted in the cube route of each, the real
    and LU local_green_flat of decompose and complex_decompose and the
    local_green_jets of taylor_jets."""
    import frdlat.decomposition as decomposition

    def planted(route):
        real = getattr(decomposition, route)

        def fail_at_cube_5(factor, *args):
            if factor.cube.l == 5:
                raise FactorizationFailure("planted failure for cube l=5")
            return real(factor, *args)

        monkeypatch.setattr(decomposition, route, fail_at_cube_5)

    planted("local_green_flat")
    planted("local_green_jets")
    g = TorusGeometry(d=2, m=1, L=5, N=2)
    sched = build_schedule(g, override=[3, 5])
    path = ComplexEllipticPath.from_direction(identity_map(2, 1), np.eye(2))
    for run in (lambda: decompose(path.A0, g, sched),
                lambda: taylor_jets(path, g, sched, 2),
                lambda: complex_decompose(path, 0.1, g, sched)):
        with pytest.raises(FactorizationFailure, match=r"^level 2: planted failure for cube l=5$"):
            run()


def test_contour_takes_the_layered_rule_past_the_dense_limit():
    """The contour oracle runs the layered cube route, so it takes its
    size rule, not the dense limit: at d=2 S=81 the l=66 cube has 4225
    unknowns, above 4096, and complex_decompose at z = 0 matches
    decompose's tables within the 1e-11 of acceptance criterion 10."""
    g = TorusGeometry(d=2, m=1, L=3, N=4)
    sched = build_schedule(g, override=[None, None, 3, 66])
    A = identity_map(2, 1)
    res = decompose(A, g, sched)
    cres = complex_decompose(ComplexEllipticPath.from_direction(A, np.eye(2)), 0.0, g, sched)
    worst = max(float(np.max(np.abs(a.values - cres.table(k).values)))
                for k, a in enumerate(res.walk(), start=1))
    assert worst <= 1e-11


def test_indefinite_base_fails_the_family_check():
    """An A0 made indefinite after the path was built: the family check
    reads the current entries, so the jets and the oracle refuse it."""
    g = TorusGeometry(d=2, m=1, L=5, N=2)
    sched = build_schedule(g, override=[3, 5])
    A = identity_map(2, 1)
    path = ComplexEllipticPath.from_direction(A, np.eye(2))
    object.__setattr__(A, "entries", -np.eye(2))
    for run in (lambda: complex_decompose(path, 0.1, g, sched),
                lambda: taylor_jets(path, g, sched, 2)):
        with pytest.raises(OutsideDisc, match=r"c0/2 = -0\.5"):
            run()


@pytest.mark.parametrize("d, m", [(2, 1), (2, 2), (3, 1), (3, 2)])
def test_complex_tables_are_exactly_transpose_symmetric(d, m):
    """_member evaluates the n - 1 half-grid rows, and on the plane of
    last index 0, which holds both p and -p, the row at -p is the
    transpose of the row at p to round-off: Ahat(z)(-p) = Ahat(z)(p)^T
    and Ghat(z)(-p) = Ghat(z)(p)^T, at random z in the disc and with a
    skipped level."""
    g = TorusGeometry(d=d, m=m, L=3, N=3)
    sched = build_schedule(g, override=[3, None, 5])
    path = random_path(d, m, seed=10 * d + m)
    bodies = _family(path, g, sched)
    S = g.side
    plane = np.arange(g.site_count // S)  # p = (k, 0) in rows k * (S // 2 + 1)
    k = np.array(np.unravel_index(plane, g.site_shape[:-1]))
    neg = np.ravel_multi_index(-k % S, g.site_shape[:-1])
    rows, partner = plane * (S // 2 + 1) - 1, neg * (S // 2 + 1) - 1
    rows, partner = rows[1:], partner[1:]
    rng = np.random.default_rng(d + m)
    for z in np.sqrt(rng.uniform(0, 0.99, 3)) * np.exp(2j * np.pi * rng.uniform(size=3)):
        stack = _member(path, g, sched, *bodies, z)
        assert stack.shape == (sched.N + 2, g.half_count - 1, m, m)
        assert not np.any(stack[1])
        gap = np.max(np.abs(stack[:, partner] - np.swapaxes(stack[:, rows], -1, -2)))
        assert gap <= 1e-13 * np.max(np.abs(stack))


@pytest.mark.parametrize("d, m", [(2, 1), (2, 2), (3, 2)])
def test_real_tables_are_exactly_transpose_and_conjugate_symmetric(d, m):
    """decompose hermitizes its half-grid rows, so every row of every scale
    table and of the Green table satisfies C(p)^T = conj C(p) bit for
    bit, which irfftn reads as C(-p), for random SPD A and a skipped
    level."""
    g = TorusGeometry(d=d, m=m, L=3, N=3)
    rng = np.random.default_rng(7 * d + m)
    n = m * d
    B = rng.standard_normal((n, n))
    A = validate_map(B.T @ B / n + 0.5 * np.eye(n), d, m)
    res = decompose(A, g, build_schedule(g, override=[3, None, 5]))
    for X in [t.values for t in res.walk()] + [res.green_table.values]:
        assert X.shape == (g.half_count - 1, m, m)
        assert np.array_equal(np.swapaxes(X, -1, -2), np.conj(X))


def _exact(x):
    return Fraction(float(x.real)), Fraction(float(x.imag))


def _cmul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


@pytest.mark.parametrize("levels", [None, [3, 5, 9]])
@pytest.mark.parametrize("seed", [1, 2, 3])
def test_scale_tables_match_exact_arithmetic(levels, seed):
    """Every scale table lies within 1e-15 of its max from the exact
    tables of the same float64 inputs: the X_j that decompose stores and
    the symbol Ahat, with Ahat^-1 and the telescoping differences
    F_{k-1} - F_k, F_k = P_k Q_k, formed in rational arithmetic (m = 1, so
    every factor is one complex number per frequency)."""
    g = TorusGeometry(d=2, m=1, L=3, N=3)
    rng = np.random.default_rng(seed)
    B = rng.standard_normal((2, 2))
    A = validate_map(B.T @ B / 2 + 0.5 * np.eye(2), 2, 1)
    res = decompose(A, g, build_schedule(g, override=levels))
    body = symbol_flat(A.tensor, g)[1:, 0, 0]  # the rows of X_j and of the tables
    X = [None if Xj is None else Xj[:, 0, 0] for Xj in res.symbols]
    exact = np.empty((res.n_scales, body.shape[0]), dtype=object)
    for f, a in enumerate(body):
        re, im = _exact(a)
        norm = re * re + im * im
        P, Q = (Fraction(1), Fraction(0)), (re / norm, -im / norm)
        F = Q
        for k, Xj in enumerate(X):
            if Xj is not None:
                x = _exact(Xj[f])
                R = (1 - x[0], -x[1])
                P, Q = _cmul(P, R), _cmul(R, Q)
            F_prev, F = F, _cmul(P, Q)
            exact[k, f] = (F_prev[0] - F[0], F_prev[1] - F[1])
        exact[-1, f] = F
    for k in range(1, res.n_scales + 1):
        got = res.table(k).values[:, 0, 0]
        # decompose returns each table's Hermitian part: for m = 1 the real part.
        want = [re for re, _ in exact[k - 1]]
        scale = max(abs(w) for w in want)
        err = max(abs(Fraction(float(x.real)) - w) + abs(Fraction(float(x.imag)))
                  for x, w in zip(got, want))
        assert err <= Fraction(1, 10**15) * scale
