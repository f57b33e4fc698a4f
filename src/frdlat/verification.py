"""Diagnostic suite: dense oracles, invariant checks, decay and envelopes.

Everything here is a pure function of a DecompositionResult (or of the
coefficient map for the oracle), so repeated runs produce identical
reports.  Decay claims are verified as envelopes and fitted slopes, not
sharp constants: only the scaling is falsifiable at desk scale.
"""

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .decomposition import DecompositionResult, _products, far_field_constant, kernel_sup_norm
from .elliptic import EllipticMap
from .errors import EmptyFarRegion, InsufficientScales, TooLargeForOracle
from .fields import Field, apply_elliptic
from .lattice import DENSE_LIMIT, TorusGeometry, oracle_fits, p_norms
from .spectral import (Kernel, _hermitize, kernel_derivative, reflect_sites, spectral_norms,
                       stack_inv, stack_matmul)


def brute_force_green(A: EllipticMap, g: TorusGeometry) -> Kernel:
    """Green kernel by dense solve on the zero-mean subspace.

    Builds the full operator matrix column by column through the
    real-space action, completes the constant directions to make it
    definite, and solves the m canonical right-hand sides
    (delta_0 - S^-d) e_s.
    """
    n = g.site_count * g.m
    if not oracle_fits(g):
        raise TooLargeForOracle("site_count * m = %d exceeds %d" % (n, DENSE_LIMIT))
    S = g.side
    M = np.empty((n, n))
    basis = np.zeros(g.field_shape())
    flat_sites = g.site_count
    for y in range(flat_sites):
        coords = np.unravel_index(y, g.site_shape)
        for s in range(g.m):
            basis[(s,) + coords] = 1.0
            col = apply_elliptic(A, Field(g, basis.copy())).values
            M[:, y * g.m + s] = np.moveaxis(col, 0, -1).reshape(-1)
            basis[(s,) + coords] = 0.0
    # Complete the m-dimensional constant kernel so the system is definite;
    # right-hand sides are mean-free, so the completion leaves them exact.
    for s in range(g.m):
        u = np.zeros(n)
        u[s :: g.m] = 1.0
        M += np.outer(u, u) / flat_sites
    rhs = np.zeros((n, g.m))
    for s in range(g.m):
        rhs[s :: g.m, s] = -1.0 / flat_sites
        rhs[s, s] += 1.0
    V = np.linalg.solve(M, rhs)
    vals = np.moveaxis(V.reshape(g.site_shape + (g.m, g.m)), (-2, -1), (0, 1))
    vals = vals - vals.mean(axis=tuple(range(2, 2 + g.d)), keepdims=True)
    return Kernel(g, vals)


def check_sum(result: DecompositionResult) -> float:
    """Max over p != 0 of the relative telescoping deviation, read on the
    half grid: the norms at -p, of the conjugates, are the same."""
    green = result.green_table.values
    total = result.tables[0].values.copy()  # a running sum: no stack of all tables
    for t in result.tables[1:]:
        total += t.values
    denom = np.maximum(spectral_norms(green, hermitian=True), 1e-300)
    return float(np.max(spectral_norms(total - green) / denom))


def check_finite_range(result: DecompositionResult):
    """Relative far-field residual per scale k = 1..N; None when the far
    region beyond r_k is empty (claim vacuous on this torus)."""
    out = []
    for k in range(1, result.schedule.N + 1):
        r = result.schedule.ranges[k - 1]
        try:
            _, residual = far_field_constant(result.kernel(k), r)
        except EmptyFarRegion:
            out.append(None)
            continue
        sup = kernel_sup_norm(result.kernel(k))
        out.append(residual / sup if sup > 0.0 else 0.0)
    return out


def check_psd(result: DecompositionResult):
    """Per-scale min eigenvalue over frequencies, normalized per frequency,
    read on the half grid: conj C(p) at -p has the spectrum of C(p)."""
    out = []
    for t in result.tables:
        # LAPACK's eigenvalue of a 1 x 1 matrix is the real part of its entry.
        eigs = (t.values[:, 0].real if t.values.shape[-1] == 1
                else np.linalg.eigvalsh(_hermitize(t.values)))
        norms = np.maximum(np.max(np.abs(eigs), axis=-1), 1e-300)
        out.append(float(np.min(eigs[:, 0] / norms)))
    return out


def diagnostics(result: DecompositionResult) -> dict:
    """The decomposition's own invariants, as written to diagnostics.json.

    sum_residual is the telescoping residual (check_sum), range_residual
    the relative far-field residual per scale k = 1..N, None where the
    far region is empty (check_finite_range), min_psd_eig the per-scale
    normalized minimum eigenvalue (check_psd), and imag_residue the worst
    Hermitian defect of a table (spectral.multiplier_to_kernel), relative
    to its kernel's largest entry.  The schedule and its ranges ride along.
    """
    imag = max(
        kern.imag_residue / max(float(np.max(np.abs(kern.values))), 1e-300)
        for kern in result.kernels
    )
    return {
        "sum_residual": check_sum(result),
        "range_residual": check_finite_range(result),
        "min_psd_eig": check_psd(result),
        "imag_residue": imag,
        "schedule": list(result.schedule.levels),
        "ranges": list(result.schedule.ranges),
    }


def green_equation_residual(result: DecompositionResult) -> float:
    """max over s of |A (sum_k C_k)[:, s] - (delta_0 - S^-d) e_s|.

    Applies the real-space operator (fields.apply_elliptic, the one the
    dense oracle is built from) to each column of the summed scale
    kernels, so it shares neither the symbols nor the multiplier
    arithmetic of the decomposition, and it runs on every torus.
    """
    g = result.geometry
    total = result.kernels[0].values.copy()  # a running sum: no stack of all kernels
    for kern in result.kernels[1:]:
        total += kern.values
    worst = 0.0
    for s in range(g.m):
        rhs = np.zeros(g.field_shape())
        rhs[s] = -1.0 / g.site_count
        rhs[(s,) + (0,) * g.d] += 1.0
        lhs = apply_elliptic(result.A, Field(g, total[:, s])).values
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    return worst


def check_symmetry(result: DecompositionResult) -> float:
    """Max over scales of max |C_k(-x) - C_k(x)^T| relative to max |C_k|."""
    g = result.geometry
    worst = 0.0
    for kern in result.kernels:
        reflected = reflect_sites(kern.values, g)
        transposed = np.swapaxes(kern.values, 0, 1)
        scale = max(float(np.max(np.abs(kern.values))), 1e-300)
        worst = max(worst, float(np.max(np.abs(reflected - transposed))) / scale)
    return worst


def eta(n: int, d: int) -> float:
    """Envelope exponent max((d+n-1)^2/4, d+n+6) + 2."""
    return max(0.25 * (d + n - 1) ** 2, d + n + 6) + 2


def _all_alphas(d: int, max_order: int):
    """Multi-indices of order <= max_order, by order, lexicographic within."""
    return sorted(
        (a for a in product(range(max_order + 1), repeat=d) if sum(a) <= max_order), key=sum
    )


@dataclass
class DecayRow:
    k: int
    alpha: tuple
    sup_norm: float
    envelope_shape: float
    constant: float


@dataclass
class DecayReport:
    geometry: TorusGeometry
    rows: list
    slopes: dict
    fitted_constants: dict

    def sup(self, k: int, alpha: tuple) -> float:
        for row in self.rows:
            if row.k == k and row.alpha == tuple(alpha):
                return row.sup_norm
        raise KeyError((k, alpha))


def decay_table(result: DecompositionResult) -> DecayReport:
    """Sup-norms of kernel differences of order <= 2 per scale with
    envelope shapes.

    The envelope shape is L^{-(k-1)(d-2+|a|)} L^{eta(|a|,d)}; the implied
    constant is the measurement divided by the shape.  Slopes are least
    squares fits of log sup-norm against k over non-skipped scales up to
    N and require at least two such scales.
    """
    g = result.geometry
    alphas = _all_alphas(g.d, 2)
    live = [k for k in range(1, result.schedule.N + 1) if not result.schedule.is_skipped(k)]
    if len(live) < 2:
        raise InsufficientScales(
            "%d non-skipped scales; need at least 2 for slope fits" % len(live)
        )
    rows = []
    sups = {}
    for k in range(1, result.n_scales + 1):
        kern = result.kernel(k)
        for alpha in alphas:
            dk = kernel_derivative(kern, alpha)
            sup = kernel_sup_norm(dk)
            shape = float(
                g.L ** (-(k - 1) * (g.d - 2 + sum(alpha))) * g.L ** eta(sum(alpha), g.d)
            )
            rows.append(
                DecayRow(k=k, alpha=alpha, sup_norm=sup, envelope_shape=shape, constant=sup / shape)
            )
            sups[(k, alpha)] = sup
    slopes = {}
    constants = {}
    for alpha in alphas:
        ks = [k for k in live if sups[(k, alpha)] > 0.0]
        constants[alpha] = max(
            (row.constant for row in rows if row.alpha == alpha), default=0.0
        )
        if len(ks) < 2:
            slopes[alpha] = None
            continue
        ys = np.log([sups[(k, alpha)] for k in ks])
        slopes[alpha] = float(np.polyfit(np.asarray(ks, dtype=float), ys, 1)[0])
    return DecayReport(geometry=g, rows=rows, slopes=slopes, fitted_constants=constants)


@dataclass
class EnvelopeReport:
    annulus_counts: list
    product_max: dict
    tm_max: dict
    c_product: float
    c_tm: float
    c_low: float
    c_high: float
    level_t_max: dict
    level_r_max: dict

    @property
    def contraction_max(self) -> float:
        values = list(self.level_t_max.values()) + list(self.level_r_max.values())
        return max(values) if values else 0.0


def _annulus_index(g: TorusGeometry, norms: np.ndarray) -> np.ndarray:
    """Annulus label per half-grid p != 0, from its |p| (norms): j = 0 for
    |p| >= pi, else the unique j with pi L^-j <= |p| < pi L^-(j-1)."""
    ratio = np.pi / norms
    j = np.ceil(np.log(ratio) / math.log(g.L) - 1e-12).astype(int)
    return np.clip(j, 0, g.N)


def _annulus_fit(meas: np.ndarray, ann: np.ndarray, k: int, L: float):
    """Max of meas on each non-empty annulus j, keyed (k, j), and the least
    c >= 1 with meas <= c^{k-j} L^{-(k-j)(k-j+1)/2} on the annuli j < k."""
    maxima = {}
    for j in range(int(ann.max()) + 1):
        sel = ann == j
        if np.any(sel):
            maxima[(k, j)] = float(np.max(meas[sel]))
    c = 1.0
    low = ann < k
    if np.any(low):
        kj = k - ann[low]
        # (meas L^{kj (kj + 1) / 2})^{1 / kj}, in one array.
        need = kj * (kj + 1) / 2.0
        np.power(L, need, out=need)
        np.multiply(meas[low], need, out=need)
        c = max(c, float(np.max(np.power(need, 1.0 / kj, out=need))))
    return maxima, c


def _cholesky(body: np.ndarray) -> np.ndarray:
    """np.linalg.cholesky of an (F, m, m) stack; at m = 1 LAPACK's factor
    is the root of the real part, taken here without a call per row."""
    return np.sqrt(body.real).astype(complex) if body.shape[-1] == 1 else np.linalg.cholesky(body)


def envelope_report(result: DecompositionResult) -> EnvelopeReport:
    """Step-envelope fits for the product norms and the one-level bounds.

    The bounds are stated for the Ahat^{1/2}-conjugates Ttilde_j =
    Ahat^{1/2} X_j Ahat^{-1/2} (Hermitian), Rtilde_j = I - Ttilde_j and
    Mtilde_k = Ahat^{1/2} P_k Ahat^{-1/2}.  With the Cholesky factor
    Ahat = L L^H, Ahat^{1/2} L^{-H} is unitary, so the similarity
    Y -> L^H Y L^{-H} gives the same operator norms without a root.
    A norm at -p equals the one at p, so the fits read only the half grid;
    annulus_counts count every p != 0 of the full grid, a half-grid row
    off the plane of last index 0 once for p and once for -p.

    Fits the minimal admissible constants: c_product for the product
    envelope (1 on annuli j >= k, c^{k-j} L^{-(k-j)(k-j+1)/2} below),
    c_tm for the smoothed-product envelope (c L^8 L^{4(k-j)} on j >= k,
    same lower branch), c_low for |Ttilde_j(p)| <= c (|p| l_j)^4, and
    c_high for |Rtilde_j(p)| <= (c/l_j)(1 + 1/|p|) where |p| l_j >= 1.
    """
    g = result.geometry
    L = float(g.L)
    norms = p_norms(g)[1:]
    ann = _annulus_index(g, norms)
    # 1 on the plane of last index 0 (row indices 0 mod S//2 + 1), else 2.
    twice = 2 - (np.arange(1, g.half_count) % (g.side // 2 + 1) == 0)
    counts = [int(np.sum(twice[ann == j])) for j in range(g.N + 1)]
    del twice
    Lh = np.conj(np.swapaxes(_cholesky(result.body), -1, -2))
    Lh_inv = stack_inv(Lh)
    identity = np.eye(g.m, dtype=np.complex128)  # P_0, broadcast over the rows

    def similar(Y):
        return stack_matmul(stack_matmul(Lh, Y), Lh_inv)

    product_max = {}
    tm_max = {}
    c_product = c_tm = 1.0
    c_low = c_high = 0.0
    level_t_max = {}
    level_r_max = {}
    # One level at a time: P_k is live only while level k is measured.
    for k, (P, _) in enumerate(_products(result.symbols, identity)):
        maxima, c = _annulus_fit(spectral_norms(similar(P)), ann, k, L)
        product_max.update(maxima)
        c_product = max(c_product, c)
        if k == result.schedule.N or result.symbols[k] is None:
            continue
        X, l = result.symbols[k], result.schedule.levels[k]
        # Nested calls, so one temporary of the similarity is live at a time.
        meas = spectral_norms(stack_matmul(stack_matmul(Lh, stack_matmul(X, P)), Lh_inv))
        maxima, c = _annulus_fit(meas, ann, k, L)
        tm_max.update(maxima)
        c_tm = max(c_tm, c)
        high = ann >= k
        if np.any(high):
            need = meas[high] * L ** (4.0 * (ann[high] - k) - 8.0)
            c_tm = max(c_tm, float(np.max(need)))
        T = _hermitize(similar(X))
        tnorm = spectral_norms(T, hermitian=True)
        rnorm = spectral_norms(np.subtract(identity, T, out=T), hermitian=True)  # I - T, in place
        del T
        level_t_max[k + 1] = float(np.max(tnorm))
        level_r_max[k + 1] = float(np.max(rnorm))
        c_low = max(c_low, float(np.max(tnorm / (norms * l) ** 4)))
        sel = norms * l >= 1.0
        if np.any(sel):
            c_high = max(c_high, float(np.max(rnorm[sel] * l / (1.0 + 1.0 / norms[sel]))))

    return EnvelopeReport(
        annulus_counts=counts,
        product_max=product_max,
        tm_max=tm_max,
        c_product=c_product,
        c_tm=c_tm,
        c_low=c_low,
        c_high=c_high,
        level_t_max=level_t_max,
        level_r_max=level_r_max,
    )
