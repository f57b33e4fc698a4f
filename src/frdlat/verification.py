"""Diagnostic suite: dense oracles, invariant checks, decay and envelopes.

Everything here is a pure function of a DecompositionResult (or of the
coefficient map for the oracle), so repeated runs produce identical
reports.  Decay claims are verified as envelopes and fitted slopes, not
sharp constants: only the scaling is falsifiable at desk scale.

A result makes each table and kernel on demand, so every per-scale
measure (psd_ratio of a table; imag_ratio, range_ratio,
symmetry_defect and decay_rows of a kernel; and the running sums that
the telescoping residual and green_residual read) is one function of
one scale.  kernel_pass takes them all in one walk over the scales,
making and dropping one table and its kernel at a time, and the
result-level checks read its measures.
"""

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .decomposition import DecompositionResult, far_field_constant, kernel_sup_norm
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
    """Max over p != 0 of the relative telescoping deviation (the
    sum_residual of a kernel_pass)."""
    return kernel_pass(result).sum_residual


def check_psd(result: DecompositionResult):
    """Per-scale psd_ratio of the tables (the psd of a kernel_pass)."""
    return kernel_pass(result).psd


def psd_ratio(values: np.ndarray) -> float:
    """Min eigenvalue over frequencies of an (F, m, m) table, normalized
    per frequency, read on the half grid: conj C(p) at -p has the
    spectrum of C(p)."""
    # LAPACK's eigenvalue of a 1 x 1 matrix is the real part of its entry.
    eigs = values[:, 0].real if values.shape[-1] == 1 else np.linalg.eigvalsh(_hermitize(values))
    norms = np.maximum(np.max(np.abs(eigs), axis=-1), 1e-300)
    return float(np.min(eigs[:, 0] / norms))


def imag_ratio(kern: Kernel) -> float:
    """The kernel's Hermitian defect (imag_residue, recorded by
    spectral.multiplier_to_kernel) relative to its largest entry."""
    return kern.imag_residue / max(float(np.max(np.abs(kern.values))), 1e-300)


def range_ratio(kern: Kernel, r: int):
    """Far-field residual of the kernel beyond range r relative to its sup
    norm; None when no site lies beyond r (the claim is vacuous on this
    torus)."""
    try:
        _, residual = far_field_constant(kern, r)
    except EmptyFarRegion:
        return None
    sup = kernel_sup_norm(kern)
    return residual / sup if sup > 0.0 else 0.0


def symmetry_defect(kern: Kernel) -> float:
    """max |C(-x) - C(x)^T| relative to max |C|."""
    reflected = reflect_sites(kern.values, kern.geometry)
    transposed = np.swapaxes(kern.values, 0, 1)
    scale = max(float(np.max(np.abs(kern.values))), 1e-300)
    return float(np.max(np.abs(reflected - transposed))) / scale


def green_residual(A: EllipticMap, total: Kernel) -> float:
    """max over s of |A total[:, s] - (delta_0 - S^-d) e_s|, for total the
    sum of a result's scale kernels.

    Applies the real-space operator (fields.apply_elliptic, the one the
    dense oracle is built from) to each column, so it shares neither the
    symbols nor the multiplier arithmetic of the decomposition, and it
    runs on every torus.
    """
    g = total.geometry
    worst = 0.0
    for s in range(g.m):
        rhs = np.zeros(g.field_shape())
        rhs[s] = -1.0 / g.site_count
        rhs[(s,) + (0,) * g.d] += 1.0
        lhs = apply_elliptic(A, Field(g, total.values[:, s])).values
        worst = max(worst, float(np.max(np.abs(lhs - rhs))))
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


def decay_rows(kern: Kernel, k: int) -> list:
    """One DecayRow per difference order alpha, |alpha| <= 2, of the scale-k
    kernel: its sup norm, the envelope shape L^{-(k-1)(d-2+|a|)}
    L^{eta(|a|,d)}, and the implied constant, the sup norm over the shape."""
    g = kern.geometry
    rows = []
    for alpha in _all_alphas(g.d, 2):
        sup = kernel_sup_norm(kernel_derivative(kern, alpha))
        shape = float(g.L ** (-(k - 1) * (g.d - 2 + sum(alpha))) * g.L ** eta(sum(alpha), g.d))
        rows.append(DecayRow(k=k, alpha=alpha, sup_norm=sup, envelope_shape=shape,
                             constant=sup / shape))
    return rows


def _live_scales(result: DecompositionResult) -> list:
    """The non-skipped scales k <= N, which the slope fits read."""
    return [k for k in range(1, result.schedule.N + 1) if not result.schedule.is_skipped(k)]


@dataclass
class KernelPass:
    """What one pass over a result's scales measured, per scale k =
    1..N+1: psd_ratio of the table (psd), imag_ratio of the kernel (imag)
    and, for k <= N, range_ratio (ranges); and the relative telescoping
    deviation of the tables' sum from the Green table (sum_residual).  A
    full pass also holds the worst symmetry_defect (symmetry), the
    decay_rows of every scale (decay; None with fewer than two live
    scales) and green_residual of the kernels' sum (green)."""

    psd: list
    imag: list
    ranges: list
    sum_residual: float = None
    symmetry: float = None
    decay: list = None
    green: float = None


def kernel_pass(result: DecompositionResult, full: bool = False, each=None) -> KernelPass:
    """Measure every scale table and kernel in one walk over k = 1..N+1.

    Each table is made once (result.walk), added into the running sum of
    the tables and measured; its kernel is made from it, handed to
    each(k, kernel) when given (the CLI writes its CSV there), measured,
    and dropped with it before the next table is made.  A full pass also
    keeps the running sum of the kernels for the Green equation.
    """
    sched = result.schedule
    out = KernelPass(psd=[], imag=[], ranges=[])
    if full:
        out.symmetry = 0.0
        out.decay = [] if len(_live_scales(result)) >= 2 else None
    k, table_sum, total = 0, None, None
    for tab in result.walk():  # not enumerate, whose cached tuple would keep a table
        k += 1
        if table_sum is None:
            table_sum = tab.values.copy()  # the zero table is read-only
        else:
            table_sum += tab.values
        out.psd.append(psd_ratio(tab.values))
        kern = result.kernel_of(tab)
        del tab
        if each is not None:
            each(k, kern)
        out.imag.append(imag_ratio(kern))
        if k <= sched.N:
            out.ranges.append(range_ratio(kern, sched.ranges[k - 1]))
        if full:
            out.symmetry = max(out.symmetry, symmetry_defect(kern))
            if out.decay is not None:
                out.decay += decay_rows(kern, k)
            if total is None:
                total = kern.values.copy()  # so is the zero kernel
            else:
                total += kern.values
        del kern  # before the next table is made
    # The norms at -p, of the conjugates, are the same: the half grid suffices.
    green = result.green_table.values
    denom = np.maximum(spectral_norms(green, hermitian=True), 1e-300)
    out.sum_residual = float(np.max(spectral_norms(table_sum - green) / denom))
    del table_sum
    if full:
        out.green = green_residual(result.A, Kernel(result.geometry, total))
    return out


def check_finite_range(result: DecompositionResult):
    """Relative far-field residual per scale k = 1..N (range_ratio); None
    when the far region beyond r_k is empty (claim vacuous on this torus)."""
    return kernel_pass(result).ranges


def diagnostics(result: DecompositionResult, measured: KernelPass = None) -> dict:
    """The decomposition's own invariants, as written to diagnostics.json.

    sum_residual is the telescoping residual, range_residual the relative
    far-field residual per scale k = 1..N, None where the far region is
    empty (range_ratio), min_psd_eig the per-scale normalized minimum
    eigenvalue (psd_ratio), and imag_residue the worst relative Hermitian
    defect of a table (imag_ratio).  All are read from measured, a
    kernel_pass of result, which is taken here when not given.  The
    schedule and its ranges ride along.
    """
    if measured is None:
        measured = kernel_pass(result)
    return {
        "sum_residual": measured.sum_residual,
        "range_residual": measured.ranges,
        "min_psd_eig": measured.psd,
        "imag_residue": max(measured.imag),
        "schedule": list(result.schedule.levels),
        "ranges": list(result.schedule.ranges),
    }


def check_symmetry(result: DecompositionResult) -> float:
    """Max over scales of symmetry_defect."""
    return kernel_pass(result, full=True).symmetry


def decay_table(result: DecompositionResult, measured: KernelPass = None) -> DecayReport:
    """Sup-norms of kernel differences of order <= 2 per scale with
    envelope shapes (decay_rows), read from measured, a full kernel_pass
    of result, which is taken here when not given.

    Slopes are least squares fits of log sup-norm against k over
    non-skipped scales up to N and require at least two such scales
    (InsufficientScales); fitted_constants holds the largest implied
    constant per alpha over every scale.
    """
    g = result.geometry
    live = _live_scales(result)
    if len(live) < 2:
        raise InsufficientScales(
            "%d non-skipped scales; need at least 2 for slope fits" % len(live)
        )
    if measured is None:
        measured = kernel_pass(result, full=True)
    rows = measured.decay
    sups = {(row.k, row.alpha): row.sup_norm for row in rows}
    slopes = {}
    constants = {}
    for alpha in _all_alphas(g.d, 2):
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
    c >= 1 with meas <= c^{k-j} L^{-(k-j)(k-j+1)/2} on the annuli j < k.
    That c rises with meas, so it is read from the annulus maxima."""
    maxima = {}
    for j in range(int(ann.max()) + 1):
        sel = ann == j
        if np.any(sel):
            maxima[(k, j)] = float(np.max(meas[sel]))
    c = [(v * L ** ((k - j) * (k - j + 1) / 2.0)) ** (1.0 / (k - j))
         for (_, j), v in maxima.items() if j < k]
    return maxima, max(c + [1.0])


def _cholesky(body: np.ndarray) -> np.ndarray:
    """np.linalg.cholesky of an (F, m, m) stack; at m = 1 LAPACK's factor
    is the root of the real part, taken here without a call per row."""
    return np.sqrt(body.real).astype(complex) if body.shape[-1] == 1 else np.linalg.cholesky(body)


def envelope_report(result: DecompositionResult) -> EnvelopeReport:
    """Step-envelope fits for the product norms and the one-level bounds.

    The bounds are stated for the Ahat^{1/2}-conjugates Ttilde_j =
    Ahat^{1/2} X_j Ahat^{-1/2} (Hermitian), Rtilde_j = I - Ttilde_j and
    Mtilde_k = Ahat^{1/2} P_k Ahat^{-1/2}, and are measured in that frame.
    With the Cholesky factor Ahat = L L^H, Ahat^{1/2} L^{-H} is unitary, so
    Ttilde_j is the Hermitian part of L^H X_j L^{-H}: one similarity per
    live level and no root.  P_k = P_{k-1} (I - X_k) becomes Mtilde_k =
    Mtilde_{k-1} Rtilde_k from Mtilde_0 = I, and the smoothed product
    X_{k+1} P_k becomes Ttilde_{k+1} Mtilde_k.  While Mtilde is I neither
    is a product, and a skipped level (X_k = 0) and k = N form none.
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
    identity = np.eye(g.m, dtype=np.complex128)

    product_max = {}
    tm_max = {}
    c_product = c_tm = 1.0
    c_low = c_high = 0.0
    level_t_max = {}
    level_r_max = {}
    M = None  # Mtilde_k, None while it is the identity
    for k in range(result.schedule.N + 1):
        maxima, c = _annulus_fit(np.ones_like(norms) if M is None else spectral_norms(M), ann, k, L)
        product_max.update(maxima)
        c_product = max(c_product, c)
        if k == result.schedule.N or result.symbols[k] is None:
            continue
        X, l = result.symbols[k], result.schedule.levels[k]
        T = _hermitize(stack_matmul(stack_matmul(Lh, X), Lh_inv))
        maxima, c = _annulus_fit(spectral_norms(T if M is None else stack_matmul(T, M)), ann, k, L)
        tm_max.update(maxima)
        high = [v * L ** (4.0 * (j - k) - 8.0) for (_, j), v in maxima.items() if j >= k]
        c_tm = max([c_tm, c] + high)
        meas = spectral_norms(T, hermitian=True)
        level_t_max[k + 1] = float(np.max(meas))
        c_low = max(c_low, float(np.max(meas / (norms * l) ** 4)))
        R = np.subtract(identity, T, out=T)  # Rtilde, in place of Ttilde
        meas = spectral_norms(R, hermitian=True)
        level_r_max[k + 1] = float(np.max(meas))
        sel = norms * l >= 1.0
        if np.any(sel):
            c_high = max(c_high, float(np.max(meas[sel] * l / (1.0 + 1.0 / norms[sel]))))
        M = R if M is None else stack_matmul(M, R)
        del T, R, meas  # before the next level's similarity is formed

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
