"""Coefficient derivatives of the scale kernels: exact Taylor jets, and
a Cauchy contour as their oracle.

The family A0 + z A1 with ||A1|| <= c0/2 stays uniformly elliptic on the
unit disc, so every scale multiplier is analytic in z there.  A(z) is
affine, so every factor of the product formula has an exact Taylor series
at z = 0 (decomposition.taylor_jets), and jet_derivatives reads
D^j C_k(0) = j! [z^j] C_k off it with no quadrature: the path of `frdlat
deriv`.  contour_derivatives reads the same derivatives off a circle of
radius r < 1 with the trapezoid rule, which converges geometrically in
the node count, behind a doubling gate that compares the 2M-node rule
against its M-node subset.  Its nodes solve each member's stiffness
(decomposition.complex_at) and share no series code with the jets, so it
is their independent oracle on small tori.

Derivatives are reported in the normalized direction Adot = A1/(c0/2):
with A(t) = A0 + t Adot, d^j/dt^j = (2/c0)^j d^j/dz^j.  A0 and A1 are
real and symmetric, so every derivative table is Hermitian with
C(-p) = C(p)^T: the jets are hermitized and the contour folds its lower
half circle onto the upper one, so the half-grid tables of both are
exactly Hermitian, multipliers of real kernels.
"""

import math
from dataclasses import dataclass, field

import numpy as np

from .decomposition import (CubeSchedule, complex_at, complex_sweep, decompose, kernel_sup_norm,
                            taylor_jets)
from .elliptic import ComplexEllipticPath, validate_map
from .errors import NotConverged, OutsideDisc
from .lattice import TorusGeometry
from .spectral import Kernel, MultiplierTable, _hermitize, multiplier_to_kernel, spectral_norms

CONVERGENCE_TOL = 1e-9
FD_STEP = 1e-5


@dataclass
class DerivativeResult:
    """Normalized order-j derivative tables and kernels of every scale and
    of the Green kernel.  n_nodes and convergence are the contour's node
    count and doubling gap; jets leave them 0."""

    path: ComplexEllipticPath
    order: int
    tables: list = field(repr=False)
    green_table: MultiplierTable = field(repr=False)
    kernels: list = field(repr=False)
    green_kernel: Kernel = field(repr=False)
    n_nodes: int = 0
    convergence: float = 0.0

    def kernel(self, k: int) -> Kernel:
        """Scale index k is 1-based, up to N+1."""
        return self.kernels[k - 1]


def _derivative_result(path, order, stack, g, **quadrature) -> DerivativeResult:
    """A DerivativeResult from an (N+2, n-1, m, m) stack on the half-grid
    rows: the N+1 scale tables and then the Green table."""
    tables = [MultiplierTable(g, X) for X in stack]
    kernels = [multiplier_to_kernel(tab) for tab in tables]
    return DerivativeResult(path=path, order=order, tables=tables[:-1], green_table=tables[-1],
                            kernels=kernels[:-1], green_kernel=kernels[-1], **quadrature)


def jet_derivatives(path: ComplexEllipticPath, g: TorusGeometry, sched: CubeSchedule,
                    max_order: int) -> dict:
    """Normalized derivatives of orders 0..max_order of every scale kernel
    and of the Green kernel, from one taylor_jets series with
    max_order + 1 terms: D^j C_k(0) = j! (2/c0)^j [z^j] C_k.  Each table
    is hermitized, as in decompose."""
    jets = taylor_jets(path, g, sched, max_order + 1)
    return {j: _derivative_result(path, j, _hermitize(
                jets[:, :, j] * (math.factorial(j) * (2.0 / path.A0.c0) ** j)), g)
            for j in range(max_order + 1)}


def contour_derivatives(
    path: ComplexEllipticPath,
    g: TorusGeometry,
    sched: CubeSchedule,
    orders,
    r: float = 0.5,
    n_half: int = 32,
) -> dict:
    """Normalized coefficient derivatives of every scale kernel, one node
    sweep shared across the requested orders: the oracle of
    jet_derivatives, for tori whose cubes fit the dense limit.

    The full rule has 2 * n_half equispaced contour nodes z_t, and the
    half rule the even t.  Nodes t and 2 * n_half - t are conjugate, so the
    complex decomposition is evaluated only at t = 0..n_half, n_half + 1
    nodes from one complex_sweep(path, g, sched).  Both rules
    accumulate in one pass into two arrays, `full` and `half`, of shape
    (len(orders), N+2, n-1, m, m) on the half grid: per order, the N+1 scale
    multipliers and then the Green multiplier.  The real nodes t = 0 and
    t = n_half take half their weight, and each sum P then becomes P + P^H,
    the sum over the whole circle.  For odd n_half the node z = -r
    belongs to the full rule only.  Raises NotConverged when the two rules
    disagree beyond CONVERGENCE_TOL in relative supremum norm for any
    order.

    Round-off floor: the order-j sums scale each node's round-off by
    fac_j = j! (2/c0)^j / r^j, so an order-j kernel is known only to about
    eps * fac_j * max|C| on the circle, an absolute floor.  A small kernel
    can sit far below fac_j * max|C|: for order 3 at c0 ~ 0.3 (r = 0.5),
    two float64 evaluations of one kernel differed by up to 4.4e-9 of its
    own max.
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
    sweep = complex_sweep(path, g, sched)
    full, half = np.zeros((2, len(orders), sched.N + 2) + sweep.body0.shape, dtype=np.complex128)
    for t in range(n_half + 1):
        theta = np.pi * t / n_half
        z = r * complex(np.cos(theta), np.sin(theta))
        stack = complex_at(sweep, z)
        share = 0.5 if t in (0, n_half) else 1.0
        for i, j in enumerate(orders):
            w_full = share * np.exp(-1j * j * theta) / total
            full[i] += w_full * stack
            if t % 2 == 0:
                half[i] += 2.0 * w_full * stack

    out = {}
    for i, j in enumerate(orders):
        fac = math.factorial(j) / r**j * (2.0 / path.A0.c0) ** j
        full_i, half_i = ((P + np.conj(np.swapaxes(P, -1, -2))) * fac for P in (full[i], half[i]))
        # The half rule is not read after the gate, so its rows take the gap.
        num = float(np.max(spectral_norms(np.subtract(full_i, half_i, out=half_i))))
        den = max(1e-300, float(np.max(spectral_norms(full_i))))
        convergence = num / den
        if not convergence <= CONVERGENCE_TOL:  # a NaN sum fails the gate too
            raise NotConverged(
                "order %d: doubling from %d to %d nodes moved the result by %.3g (tol %.3g)"
                % (j, n_half, total, convergence, CONVERGENCE_TOL)
            )
        out[j] = _derivative_result(path, j, full_i, g, n_nodes=total, convergence=convergence)
    return out


def derivative_sum_residual(result: DerivativeResult) -> float:
    """Relative deviation of sum_k D^j C_k from D^j C over the half grid."""
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
    to jet_derivatives at order 1.
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
    """Relative sup-norm gap between first derivatives and their finite
    differences, max over scales and the Green kernel."""
    return _relative_gap(res, fd_kernels, fd_green)


def origin_agreement(res: DerivativeResult, base) -> float:
    """Relative sup-norm gap between order-0 derivatives and the kernels
    of decompose, max over scales and the Green kernel."""
    return _relative_gap(res, base.kernels, multiplier_to_kernel(base.green_table))


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
