"""Coefficient derivatives of the scale kernels via Cauchy integrals.

The family A0 + z A1 with ||A1|| <= c0/2 stays uniformly elliptic on the
unit disc, so every scale multiplier is analytic in z there.  The j-th
derivative at z = 0 is read off a circle of radius r < 1 with the
trapezoid rule, which converges geometrically in the node count; the
doubling gate compares the 2M-node rule against its M-node subset.

Derivatives are reported in the normalized direction Adot = A1/(c0/2):
with A(t) = A0 + t Adot, d^j/dt^j = (2/c0)^j d^j/dz^j.  Node sets are
closed under conjugation and the family is real at conjugate pairs, so
the accumulated tables are multipliers of real kernels to round-off.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .decomposition import CubeSchedule, complex_decompose, decompose, kernel_sup_norm
from .elliptic import ComplexEllipticPath, validate_map
from .errors import NotConverged, OutsideDisc
from .lattice import TorusGeometry
from .spectral import Kernel, MultiplierTable, kernel_derivative, multiplier_to_kernel, spectral_norms

CONVERGENCE_TOL = 1e-9
FD_STEP = 1e-5


@dataclass
class DerivativeResult:
    path: ComplexEllipticPath
    order: int
    n_nodes: int
    tables: list = field(repr=False)
    green_table: MultiplierTable = field(repr=False)
    kernels: list = field(repr=False)
    green_kernel: Kernel = field(repr=False)
    convergence: float = 0.0

    def kernel(self, k: int) -> Kernel:
        """Scale index k is 1-based, up to N+1."""
        return self.kernels[k - 1]


def contour_derivatives(
    path: ComplexEllipticPath,
    g: TorusGeometry,
    sched: CubeSchedule,
    orders,
    r: float = 0.5,
    n_half: int = 32,
) -> dict:
    """Normalized coefficient derivatives of every scale kernel, one node
    sweep shared across the requested orders.

    Evaluates the complex decomposition at 2 * n_half equispaced contour
    nodes, accumulating the full-rule and half-rule quadratures for each
    order in one pass.  Raises NotConverged when the two rules disagree
    beyond CONVERGENCE_TOL in relative supremum norm for any order.
    """
    orders = sorted({int(j) for j in orders})
    if not orders:
        raise ValueError("no derivative orders requested")
    if orders[0] < 0:
        raise ValueError("derivative order must be nonnegative")
    if not 0.0 < r < 1.0:
        raise OutsideDisc("contour radius %g must lie in (0, 1)" % r)
    if n_half < max(2, orders[-1] + 1):
        raise ValueError("need at least max(2, order + 1) half-rule nodes")
    m = g.m
    F = g.site_count - 1
    n_scales = sched.N + 1
    total = 2 * n_half
    full = {j: [np.zeros((F, m, m), dtype=np.complex128) for _ in range(n_scales + 1)] for j in orders}
    half = {j: [np.zeros((F, m, m), dtype=np.complex128) for _ in range(n_scales + 1)] for j in orders}
    for t in range(total):
        theta = np.pi * t / n_half
        z = r * complex(np.cos(theta), np.sin(theta))
        res = complex_decompose(path, z, g, sched)
        bodies = [tab.values for tab in res.tables] + [res.green_table.values]
        for j in orders:
            w_full = np.exp(-1j * j * theta) / total
            for acc, b in zip(full[j], bodies):
                acc += w_full * b
            if t % 2 == 0:
                for acc, b in zip(half[j], bodies):
                    acc += 2.0 * w_full * b

    out = {}
    for j in orders:
        fac = math.factorial(j) / r**j * (2.0 / path.A0.c0) ** j
        fs = [fac * X for X in full[j]]
        hs = [fac * X for X in half[j]]
        num = 0.0
        den = 1e-300
        for Xf, Xh in zip(fs, hs):
            num = max(num, float(np.max(spectral_norms(Xf - Xh))))
            den = max(den, float(np.max(spectral_norms(Xf))))
        convergence = num / den
        if convergence > CONVERGENCE_TOL:
            raise NotConverged(
                "order %d: doubling from %d to %d nodes moved the result by %.3g (tol %.3g)"
                % (j, n_half, total, convergence, CONVERGENCE_TOL)
            )
        tables = []
        kernels = []
        for X in fs[:n_scales]:
            tab = MultiplierTable(g, X)
            tables.append(tab)
            kernels.append(multiplier_to_kernel(tab))
        green_table = MultiplierTable(g, fs[-1])
        out[j] = DerivativeResult(
            path=path,
            order=j,
            n_nodes=total,
            tables=tables,
            green_table=green_table,
            kernels=kernels,
            green_kernel=multiplier_to_kernel(green_table),
            convergence=convergence,
        )
    return out


def derivative_sum_residual(result: DerivativeResult) -> float:
    """Relative deviation of sum_k D^j C_k from D^j C over p != 0."""
    green = result.green_table.values
    total = np.sum([t.values for t in result.tables], axis=0)
    den = max(float(np.max(spectral_norms(green))), 1e-300)
    return float(np.max(spectral_norms(total - green))) / den


def _relative_gap(res: DerivativeResult, kernels, green) -> float:
    """Relative sup-norm gap between res's kernels and the given ones,
    max over scales and the Green kernel."""
    worst = 0.0
    pairs = list(zip(res.kernels, kernels))
    pairs.append((res.green_kernel, green))
    for ka, kb in pairs:
        den = max(kernel_sup_norm(ka), 1e-300)
        worst = max(worst, kernel_sup_norm(Kernel(ka.geometry, ka.values - kb.values)) / den)
    return worst


def radius_agreement(res_a: DerivativeResult, res_b: DerivativeResult) -> float:
    """Relative sup-norm spread between two contour radii, max over scales."""
    return _relative_gap(res_a, res_b.kernels, res_b.green_kernel)


def fd_derivative(path: ComplexEllipticPath, g: TorusGeometry, sched: CubeSchedule):
    """Central-difference first derivative along the normalized direction,
    with step FD_STEP.

    Returns per-scale kernels plus the Green kernel, directly comparable
    to contour_derivatives at order 1.
    """
    A0 = path.A0
    adot = path.direction
    d, m = A0.d, A0.m
    kernels = {}
    for sign in (+1.0, -1.0):
        raw = A0.entries + sign * FD_STEP * adot.reshape(m * d, m * d)
        Ah = validate_map(raw, d, m)
        res = decompose(Ah, g, sched)
        kernels[sign] = [k.values for k in res.kernels] + [
            multiplier_to_kernel(res.green_table).values
        ]
    out = []
    for plus, minus in zip(kernels[1.0], kernels[-1.0]):
        out.append(Kernel(g, (plus - minus) / (2.0 * FD_STEP)))
    return out[:-1], out[-1]


def fd_agreement(res: DerivativeResult, fd_kernels, fd_green) -> float:
    """Relative sup-norm gap between contour and finite-difference
    first derivatives, max over scales and the Green kernel."""
    return _relative_gap(res, fd_kernels, fd_green)


@dataclass
class BoundRow:
    k: int
    alpha: tuple
    order: int
    value: float
    ratio: float


@dataclass
class BoundReport:
    rows: list
    max_ratio: float


def derivative_bound_check(base, derivs, alphas=None) -> BoundReport:
    """Cauchy-type growth check across derivative orders.

    For each scale and spatial multi-index, value_j is the sup norm of
    grad^alpha D^j C_k divided by j! (2/c0)^j; analyticity on the unit
    disc keeps value_j / value_0 bounded.  The stored derivative kernels
    already carry the (2/c0)^j direction normalization, so both factors
    are divided out here.
    """
    g = base.geometry
    if alphas is None:
        alphas = [(0,) * g.d]
    alphas = [tuple(int(v) for v in a) for a in alphas]
    rows = []
    max_ratio = 0.0
    for k in range(1, base.n_scales + 1):
        for alpha in alphas:
            base_kern = kernel_derivative(base.kernel(k), alpha)
            v0 = kernel_sup_norm(base_kern)
            rows.append(BoundRow(k=k, alpha=alpha, order=0, value=v0, ratio=1.0))
            if v0 <= 0.0:
                continue
            for res in derivs:
                dk = kernel_derivative(res.kernel(k), alpha)
                vj = kernel_sup_norm(dk)
                vj /= math.factorial(res.order) * (2.0 / res.path.A0.c0) ** res.order
                ratio = vj / v0
                rows.append(BoundRow(k=k, alpha=alpha, order=res.order, value=vj, ratio=ratio))
                max_ratio = max(max_ratio, ratio)
    return BoundReport(rows=rows, max_ratio=max_ratio)
