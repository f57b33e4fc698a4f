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

from .decomposition import CubeSchedule, complex_at, complex_sweep, decompose, kernel_sup_norm
from .elliptic import ComplexEllipticPath, validate_map
from .errors import NotConverged, OutsideDisc
from .lattice import TorusGeometry
from .spectral import Kernel, MultiplierTable, multiplier_to_kernel, spectral_norms

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

    Builds one complex_sweep and evaluates the complex decomposition at
    2 * n_half equispaced contour nodes from it.  The full-rule and
    half-rule quadratures accumulate in one pass into two arrays, `full`
    and `half`, of shape (len(orders), N+2, S^d - 1, m, m): per order,
    the N+1 scale multipliers and then the Green multiplier.  Raises
    NotConverged when the two rules disagree beyond CONVERGENCE_TOL in
    relative supremum norm for any order.
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
    total = 2 * n_half
    shape = (len(orders), sched.N + 2, g.site_count - 1, g.m, g.m)
    full = np.zeros(shape, dtype=np.complex128)
    half = np.zeros(shape, dtype=np.complex128)
    sweep = complex_sweep(path, g, sched)
    for t in range(total):
        theta = np.pi * t / n_half
        z = r * complex(np.cos(theta), np.sin(theta))
        res = complex_at(sweep, z)
        bodies = [tab.values for tab in res.tables] + [res.green_table.values]
        for i, j in enumerate(orders):
            w_full = np.exp(-1j * j * theta) / total
            for s, b in enumerate(bodies):
                full[i, s] += w_full * b
                if t % 2 == 0:
                    half[i, s] += 2.0 * w_full * b

    out = {}
    for i, j in enumerate(orders):
        fac = math.factorial(j) / r**j * (2.0 / path.A0.c0) ** j
        full[i] *= fac
        half[i] *= fac
        # The half rule is not read after the gate, so its rows take the gap.
        num = float(np.max(spectral_norms(np.subtract(full[i], half[i], out=half[i]))))
        den = max(1e-300, float(np.max(spectral_norms(full[i]))))
        convergence = num / den
        if not convergence <= CONVERGENCE_TOL:  # a NaN sum fails the gate too
            raise NotConverged(
                "order %d: doubling from %d to %d nodes moved the result by %.3g (tol %.3g)"
                % (j, n_half, total, convergence, CONVERGENCE_TOL)
            )
        tables = [MultiplierTable(g, X) for X in full[i]]
        kernels = [multiplier_to_kernel(tab) for tab in tables]
        out[j] = DerivativeResult(
            path=path,
            order=j,
            n_nodes=total,
            tables=tables[:-1],
            green_table=tables[-1],
            kernels=kernels[:-1],
            green_kernel=kernels[-1],
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
    order: int
    value: float
    ratio: float


@dataclass
class BoundReport:
    rows: list
    max_ratio: float


def derivative_bound_check(base, derivs) -> BoundReport:
    """Cauchy-type growth check across derivative orders.

    For each scale, value_j is the sup norm of D^j C_k divided by
    j! (2/c0)^j; analyticity on the unit disc keeps value_j / value_0
    bounded.  The stored derivative kernels already carry the (2/c0)^j
    direction normalization, so both factors are divided out here.
    """
    rows = []
    max_ratio = 0.0
    for k in range(1, base.n_scales + 1):
        v0 = kernel_sup_norm(base.kernel(k))
        rows.append(BoundRow(k=k, order=0, value=v0, ratio=1.0))
        if v0 <= 0.0:
            continue
        for res in derivs:
            vj = kernel_sup_norm(res.kernel(k))
            vj /= math.factorial(res.order) * (2.0 / res.path.A0.c0) ** res.order
            ratio = vj / v0
            rows.append(BoundRow(k=k, order=res.order, value=vj, ratio=ratio))
            max_ratio = max(max_ratio, ratio)
    return BoundReport(rows=rows, max_ratio=max_ratio)
