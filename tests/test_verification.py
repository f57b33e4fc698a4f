
import numpy as np
import pytest

from frdlat import verification
from frdlat.decomposition import build_schedule, decompose
from frdlat.elliptic import identity_map, symbol_flat, validate_map
from frdlat.errors import InsufficientScales, TooLargeForOracle
from frdlat.lattice import TorusGeometry, centered, p_norms
from frdlat.spectral import (Kernel, MultiplierTable, _hermitize, multiplier_to_kernel,
                             spectral_norms, stack_matmul)
from frdlat.verification import (
    _annulus_index,
    _cholesky,
    brute_force_green,
    check_finite_range,
    check_psd,
    check_sum,
    check_symmetry,
    decay_rows,
    decay_table,
    diagnostics,
    envelope_report,
    eta,
    green_residual,
    imag_ratio,
    kernel_pass,
    psd_ratio,
    range_ratio,
    symmetry_defect,
)


def small_result(L=5, N=1, override=(3,), m=1, seed=None):
    g = TorusGeometry(d=2, m=m, L=L, N=N)
    if seed is None:
        A = identity_map(2, m)
    else:
        rng = np.random.default_rng(seed)
        B = rng.standard_normal((2 * m, 2 * m))
        A = validate_map(B.T @ B + 0.2 * np.eye(2 * m), 2, m)
    return decompose(A, g, build_schedule(g, override=list(override)))


def test_brute_force_green_hand_values():
    """On the 3x3 torus with A = I: C(0) = 2/9, axis neighbors vanish,
    diagonal neighbors carry -1/18."""
    g = TorusGeometry(d=2, m=1, L=3, N=1)
    kern = brute_force_green(identity_map(2, 1), g)
    v = kern.values[0, 0]
    assert v[0, 0] == pytest.approx(2.0 / 9.0, abs=1e-14)
    for site in [(0, 1), (1, 0), (0, 2), (2, 0)]:
        assert v[site] == pytest.approx(0.0, abs=1e-14)
    for site in [(1, 1), (1, 2), (2, 1), (2, 2)]:
        assert v[site] == pytest.approx(-1.0 / 18.0, abs=1e-14)
    assert np.sum(v) == pytest.approx(0.0, abs=1e-13)


def test_brute_force_green_matches_spectral_inverse():
    g = TorusGeometry(d=2, m=2, L=5, N=1)
    rng = np.random.default_rng(15)
    B = rng.standard_normal((4, 4))
    A = validate_map(B.T @ B + 0.3 * np.eye(4), 2, 2)
    res = decompose(A, g, build_schedule(g, override=[3]))
    direct = brute_force_green(A, g)
    spectral = multiplier_to_kernel(res.green_table)
    assert np.max(np.abs(direct.values - spectral.values)) < 1e-10


def test_brute_force_green_size_guard():
    g = TorusGeometry(d=2, m=1, L=3, N=5)
    with pytest.raises(TooLargeForOracle):
        brute_force_green(identity_map(2, 1), g)


def test_check_sum_and_symmetry_are_tiny():
    res = small_result(L=5, N=2, override=(3, 5), m=2, seed=21)
    assert check_sum(res) < 1e-12
    assert check_symmetry(res) < 1e-12
    assert min(check_psd(res)) > -1e-10


def test_check_finite_range_values_and_empty():
    res = small_result(L=5, N=2, override=(3, 5))
    values = check_finite_range(res)
    assert len(values) == 2
    assert all(v is not None and v < 1e-10 for v in values)
    g3 = TorusGeometry(d=2, m=1, L=3, N=1)
    res3 = decompose(identity_map(2, 1), g3, build_schedule(g3, override=[3]))
    assert check_finite_range(res3) == [None]


@pytest.mark.parametrize("L,N,override,m,seed", [(5, 2, (3, 5), 2, 21), (3, 3, (None, 3, None), 1, 4),
                                                 (3, 2, (None, 3), 1, None)])
def test_kernel_pass_matches_the_result_level_checks(L, N, override, m, seed):
    """One full kernel_pass, which verify takes while writing the CSVs,
    hands each kernel to the consumer once, in scale order, and its
    measures are the per-kernel functions applied to each kernel: the
    far-field ratios, the imaginary residue, the symmetry defect, the
    decay rows and the Green-equation residual of the kernels' sum; and,
    from the same walk, the psd ratio of each table and the telescoping
    residual of their sum, which check_psd and check_sum read.  A light
    pass, which decompose takes, skips the symmetry, decay and Green
    measures.  With one live level there are no decay rows."""
    res = small_result(L=L, N=N, override=override, m=m, seed=seed)
    seen = []
    measured = kernel_pass(res, full=True, each=lambda k, kern: seen.append((k, kern.values.copy())))
    assert [k for k, _ in seen] == list(range(1, res.n_scales + 1))
    kernels = [res.kernel(k) for k in range(1, res.n_scales + 1)]
    for (_, values), kern in zip(seen, kernels):
        assert np.array_equal(values, kern.values)
    assert measured.imag == [imag_ratio(kern) for kern in kernels]
    assert measured.ranges == [range_ratio(kern, r) for kern, r in zip(kernels, res.schedule.ranges)]
    assert measured.symmetry == max([0.0] + [symmetry_defect(kern) for kern in kernels])
    assert measured.green == green_residual(res.A, Kernel(res.geometry, sum(k.values for k in kernels)))
    if sum(l is not None for l in override) < 2:
        assert measured.decay is None
        with pytest.raises(InsufficientScales):
            decay_table(res, measured)
    else:
        assert measured.decay == [row for k, kern in enumerate(kernels, 1) for row in decay_rows(kern, k)]
    tables = list(res.walk())
    assert measured.psd == [psd_ratio(t.values) for t in tables] == check_psd(res)
    assert measured.sum_residual == check_sum(res)
    light = kernel_pass(res)
    assert (light.psd, light.imag, light.ranges, light.sum_residual) == (
        measured.psd, measured.imag, measured.ranges, measured.sum_residual)
    assert light.symmetry is light.decay is light.green is None
    assert diagnostics(res, measured) == diagnostics(res)


def test_eta_values():
    assert eta(0, 2) == 10.0
    assert eta(1, 2) == 11.0
    assert eta(2, 2) == 12.0
    assert eta(7, 2) == 18.0


def test_decay_table_requires_two_live_scales():
    res = small_result(L=5, N=1, override=(3,))
    with pytest.raises(InsufficientScales):
        decay_table(res)


def test_decay_table_slopes_and_shapes():
    res = small_result(L=5, N=2, override=(3, 5))
    report = decay_table(res)
    zero = (0, 0)
    assert report.sup(1, zero) > report.sup(2, zero) > 0.0
    assert report.slopes[zero] < 0.0
    row = next(r for r in report.rows if r.k == 2 and r.alpha == (1, 0))
    L, d = 5, 2
    assert row.envelope_shape == pytest.approx(L ** (-(2 - 1) * (d - 2 + 1)) * L ** eta(1, d))
    assert row.constant == pytest.approx(row.sup_norm / row.envelope_shape)
    assert all(np.isfinite(v) for v in report.fitted_constants.values())


def test_envelope_report_counts_and_bounds():
    res = small_result(L=5, N=2, override=(3, 5))
    rep = envelope_report(res)
    g = res.geometry
    assert sum(rep.annulus_counts) == g.side**g.d - 1
    # every p != 0 of the full grid, labelled by the annulus rule of _annulus_index
    n = np.indices(g.site_shape).reshape(g.d, -1).T[1:]
    norms = 2.0 * np.pi / g.side * np.linalg.norm(centered(n, g.side), axis=-1)
    j = np.clip(np.ceil(np.log(np.pi / norms) / np.log(g.L) - 1e-12).astype(int), 0, g.N)
    assert rep.annulus_counts == np.bincount(j, minlength=g.N + 1).tolist()
    assert len(rep.annulus_counts) == g.N + 1
    assert rep.contraction_max <= 1.0 + 1e-12
    for c in (rep.c_product, rep.c_tm, rep.c_low, rep.c_high):
        assert np.isfinite(c) and c >= 0.0
    assert all(v <= 1.0 + 1e-12 for v in rep.product_max.values())


@pytest.mark.parametrize("d, m", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_envelope_norms_match_independent_roots(d, m):
    """envelope_report measures the Ahat^{1/2}-conjugates through a Cholesky
    similarity; the same norms with Ahat^{+-1/2} from eigh, per frequency,
    for random SPD A and a skipped level.  The products are formed here,
    P_0 = I and P_k = P_{k-1} (I - X_k) with matmul, from the stored X_k."""
    g = TorusGeometry(d=d, m=m, L=3, N=3)
    rng = np.random.default_rng(10 * d + m)
    n = m * d
    B = rng.standard_normal((n, n))
    A = validate_map(B.T @ B / n + 0.5 * np.eye(n), d, m)
    res = decompose(A, g, build_schedule(g, override=[3, None, 5]))
    rep = envelope_report(res)

    w, U = np.linalg.eigh(symbol_flat(A.tensor, g)[1:])
    Uh = np.conj(np.swapaxes(U, -1, -2))
    assert np.array_equal(res.body, symbol_flat(A.tensor, g)[1:])  # the rows of the products
    root = (U * np.sqrt(w)[:, None, :]) @ Uh
    invroot = (U / np.sqrt(w)[:, None, :]) @ Uh
    products = [np.broadcast_to(np.eye(m), res.body.shape)]
    for X in res.symbols:
        products.append(products[-1] if X is None else products[-1] @ (np.eye(m) - X))

    def norms(Y):
        return np.linalg.norm(root @ Y @ invroot, ord=2, axis=(-2, -1))

    ann = _annulus_index(g, p_norms(g)[1:])

    def close(got, want):
        assert abs(got - want) <= 1e-12 * want

    for (k, j), got in rep.product_max.items():
        close(got, np.max(norms(products[k])[ann == j]))
    for (k, j), got in rep.tm_max.items():
        close(got, np.max(norms(res.symbols[k] @ products[k])[ann == j]))
    assert sorted(rep.level_t_max) == sorted(rep.level_r_max) == [1, 3]
    for k in (1, 3):
        close(rep.level_t_max[k], np.max(norms(res.symbols[k - 1])))
        close(rep.level_r_max[k], np.max(norms(np.eye(m) - res.symbols[k - 1])))

    # The constants, by the formulas of envelope_report's docstring, from
    # the eigh-root norms: the least c >= 1 with norm <= c^{k-j}
    # L^{-(k-j)(k-j+1)/2} on annuli j < k, for products and smoothed
    # products; norm <= c L^8 L^{4(k-j)} on j >= k for smoothed products;
    # |Ttilde_k(p)| <= c (|p| l_k)^4; |Rtilde_k(p)| <= (c/l_k)(1 + 1/|p|)
    # where |p| l_k >= 1.
    L = float(g.L)
    p = p_norms(g)[1:]

    def lower_branch(meas, k):
        kj = k - ann[ann < k]
        return np.max((meas[ann < k] * L ** (kj * (kj + 1) / 2.0)) ** (1.0 / kj), initial=1.0)

    c_product = max(lower_branch(norms(P), k) for k, P in enumerate(products))
    c_tm = c_low = c_high = 0.0
    for k, l in enumerate(res.schedule.levels):
        if l is None:
            continue
        meas = norms(res.symbols[k] @ products[k])
        high = ann >= k
        c_tm = max(c_tm, lower_branch(meas, k), np.max(meas[high] * L ** (4.0 * (ann[high] - k) - 8.0)))
        c_low = max(c_low, np.max(norms(res.symbols[k]) / (p * l) ** 4))
        sel = p * l >= 1.0
        c_high = max(c_high, np.max(norms(np.eye(m) - res.symbols[k])[sel] * l / (1.0 + 1.0 / p[sel])))
    assert c_product > 1.0 and c_tm > 1.0 and c_low > 0.0 and c_high > 0.0
    for got, want in ((rep.c_product, c_product), (rep.c_tm, c_tm), (rep.c_low, c_low), (rep.c_high, c_high)):
        close(got, want)



@pytest.mark.parametrize("override, m, seed, products", [
    ((3, None, 5), 1, 5, 6),
    ((3, None, 5), 2, 5, 6),
    ((None, None, 4, 11, 31), 1, None, 10),
])
def test_envelope_stack_products(override, m, seed, products, monkeypatch):
    """envelope_report forms Ttilde = L^H X L^{-H} once per live level (two
    products) and, from the second live level on, Ttilde Mtilde and
    Mtilde Rtilde (two more): Mtilde_0 = I and the first Rtilde form none,
    and a skipped level or k = N forms no product.  So 2 + 4 on the
    schedule (3, -, 5) and 2 + 4 + 4 on (-, -, 4, 11, 31).  Conjugating
    P_k, X_{k+1} P_k and X_{k+1} apart took 19 and 29."""
    res = small_result(L=3, N=len(override), override=override, m=m, seed=seed)
    calls = []

    def counted(a, b):
        calls.append(a.shape)
        return stack_matmul(a, b)

    monkeypatch.setattr(verification, "stack_matmul", counted)
    envelope_report(res)
    assert len(calls) == products


def bits(x) -> np.ndarray:
    """The IEEE bit patterns of a float or complex array (signed zeros apart)."""
    return np.ascontiguousarray(x).view(np.uint64)


def test_check_psd_m1_is_lapack_bitwise():
    """At m = 1 psd_ratio, check_psd's measure of one table, reads the real
    part; eigvalsh of the Hermitian part gives the same bits on m = 1 tables over many magnitudes: a zero
    table (a skipped level), then tables with -0.0, negative and
    imaginary parts."""
    rng = np.random.default_rng(3)
    F = 400
    tables = [np.zeros((F, 1, 1), dtype=np.complex128)]
    for _ in range(3):
        scale = 10.0 ** rng.integers(-300, 300, (F, 1, 1))
        t = (rng.standard_normal((F, 1, 1)) + 1j * rng.standard_normal((F, 1, 1))) * scale
        t[:5] = -0.0
        t[5:8] = complex(-0.0, 1.0)
        tables.append(t)
    got = [psd_ratio(t) for t in tables]
    want = []
    for t in tables:
        eigs = np.linalg.eigvalsh(_hermitize(t))
        norms = np.maximum(np.max(np.abs(eigs), axis=-1), 1e-300)
        want.append(float(np.min(eigs[:, 0] / norms)))
    assert np.array_equal(bits(np.array(got)), bits(np.array(want)))
    assert got[0] == 0.0 and min(got[1:]) == -1.0


@pytest.mark.parametrize("m", [2, 3])
def test_check_psd_matches_per_row_eigvalsh(m):
    """At m >= 2 psd_ratio, check_psd's measure of one table, is the least over rows of the least
    eigenvalue of the Hermitian part over its largest |eigenvalue|: per-row
    eigvalsh, on random PSD tables with anti-Hermitian noise, one with a
    planted row whose diagonal and first row are positive but whose least
    eigenvalue is -1/3 of its largest."""
    rng = np.random.default_rng(20 + m)
    F = 60
    tables = []
    for planted in (False, True):
        B = rng.standard_normal((F, m, m)) + 1j * rng.standard_normal((F, m, m))
        noise = rng.standard_normal((F, m, m)) + 1j * rng.standard_normal((F, m, m))
        t = B @ np.conj(np.swapaxes(B, -1, -2)) + 0.1 * (noise - np.conj(np.swapaxes(noise, -1, -2)))
        if planted:
            t[17] = np.eye(m)
            t[17, 0, 1] = t[17, 1, 0] = 2.0
        tables.append(t)
    got = [psd_ratio(t) for t in tables]
    want = []
    for t in tables:
        rows = [np.linalg.eigvalsh(0.5 * (row + np.conj(row.T))) for row in t]
        want.append(min(w[0] / np.max(np.abs(w)) for w in rows))
    assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
    assert got[0] > 0.0 and got[1] == pytest.approx(-1.0 / 3.0, rel=1e-12)


def test_cholesky_m1_is_lapack_bitwise():
    """At m = 1 the envelope's Cholesky factor is the root of the real
    part, bit for bit what np.linalg.cholesky returns, over many
    magnitudes and with imaginary parts that LAPACK does not read."""
    rng = np.random.default_rng(4)
    F = 400
    body = np.abs(rng.standard_normal((F, 1, 1))) * 10.0 ** rng.integers(-300, 300, (F, 1, 1))
    body = body + 1j * rng.standard_normal((F, 1, 1))
    body[:3, 0, 0] = [5e-324, 1.0, 1.7976931348623157e308]
    assert np.array_equal(bits(_cholesky(body)), bits(np.linalg.cholesky(body)))


@pytest.mark.parametrize("m", [1, 2])
def test_check_sum_running_sum_matches_stacked_sum(m, monkeypatch):
    """check_sum adds the tables of the walk one after another in table
    order; the result is bitwise that of summing the stacked tables, on a
    real decomposition and on tables over many magnitudes, where the order
    of the additions shows in the last bits."""
    res = small_result(L=5, N=2, override=(3, None), m=m, seed=22)
    rng = np.random.default_rng(m)
    shape = res.green_table.values.shape
    synthetic = [MultiplierTable(res.geometry,
                                 rng.standard_normal(shape) * 10.0 ** rng.integers(-8, 9, shape)
                                 + 1j * rng.standard_normal(shape)) for _ in range(6)]
    for tables in (list(res.walk()), synthetic):
        monkeypatch.setattr(res, "walk", lambda: iter(tables))
        if tables is synthetic:
            # The sum reads the tables only, and these are not multipliers
            # of real kernels: the pass measures the zero kernel instead.
            monkeypatch.setattr(res, "kernel_of", lambda t: res.zero_kernel)
        green = res.green_table.values
        total = np.sum([t.values for t in tables], axis=0)
        denom = np.maximum(spectral_norms(green, hermitian=True), 1e-300)
        want = float(np.max(spectral_norms(total - green) / denom))
        assert np.array_equal(bits(np.array(check_sum(res))), bits(np.array(want)))
