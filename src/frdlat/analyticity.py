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
(decomposition._member) and share no series code with the jets, so it
is their independent oracle on small tori.

Derivatives are reported in the normalized direction Adot = A1/(c0/2):
with A(t) = A0 + t Adot, d^j/dt^j = (2/c0)^j d^j/dz^j.  A0 and A1 are
real and symmetric, so every derivative table is Hermitian with
C(-p) = C(p)^T: the jets are hermitized and the contour folds its lower
half circle onto the upper one, so the half-grid tables of both are
exactly Hermitian, multipliers of real kernels.
"""

import math
from dataclasses import dataclass

import numpy as np

from .decomposition import (CubeSchedule, DerivativeResult, _family, _member, _zero_scale, decompose,
                            kernel_sup_norm, taylor_jets)
from .elliptic import ComplexEllipticPath, validate_map
from .errors import NotConverged, OutsideDisc
from .lattice import TorusGeometry
from .spectral import Kernel, MultiplierTable, _hermitize, multiplier_to_kernel, spectral_norms

CONVERGENCE_TOL = 1e-9
FD_STEP = 1e-5


def jet_derivatives(path: ComplexEllipticPath, g: TorusGeometry, sched: CubeSchedule,
                    max_order: int) -> dict:
    """Normalized derivatives of orders 0..max_order of every scale kernel
    and of the Green kernel, from one taylor_jets walk with max_order + 1
    terms: D^j C_k(0) = j! (2/c0)^j [z^j] C_k.  Each series the walk
    yields is split into one table per order, hermitized as in decompose,
    and dropped.  The skipped levels of every order share one read-only
    zero table and zero kernel (decomposition._zero_scale)."""
    J = max_order + 1
    facs = [math.factorial(j) * (2.0 / path.A0.c0) ** j for j in range(J)]
    zero_table, zero_kernel = _zero_scale(g) if None in sched.levels else (None, None)
    tables = [[] for _ in range(J)]
    for C in taylor_jets(path, g, sched, J):
        for j in range(J):
            tables[j].append(zero_table if C is None
                             else MultiplierTable(g, _hermitize(C[:, j] * facs[j])))
    return {j: DerivativeResult(path, j, tabs[:-1], tabs[-1], zero_table=zero_table,
                                zero_kernel=zero_kernel) for j, tabs in enumerate(tables)}


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
    jet_derivatives, on the schedules the jets accept.

    The full rule has 2 * n_half equispaced contour nodes z_t, and the
    half rule the even t.  Nodes t and 2 * n_half - t are conjugate, so the
    complex decomposition is evaluated only at t = 0..n_half: n_half + 1
    calls of decomposition._member on the bodies of one _family(path, g,
    sched), which makes the checks and the bodies once.  Both rules
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
    bodies = _family(path, g, sched)
    full, half = np.zeros((2, len(orders), sched.N + 2) + bodies[0].shape, dtype=np.complex128)
    for t in range(n_half + 1):
        theta = np.pi * t / n_half
        z = r * complex(np.cos(theta), np.sin(theta))
        stack = _member(path, g, sched, *bodies, z)
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
        if not num / den <= CONVERGENCE_TOL:  # a NaN sum fails the gate too
            raise NotConverged(
                "order %d: doubling from %d to %d nodes moved the result by %.3g (tol %.3g)"
                % (j, n_half, total, num / den, CONVERGENCE_TOL)
            )
        out[j] = DerivativeResult(path, j, [MultiplierTable(g, C) for C in full_i[:-1]],
                                  MultiplierTable(g, full_i[-1]))
    return out


def derivative_sum_residual(result: DerivativeResult) -> float:
    """Relative deviation of sum_k D^j C_k from D^j C over the half grid.
    The tables are summed in scale order into one running total, the bits
    np.sum gives over their stack, and the Green table is subtracted in
    place: one table-sized buffer in all."""
    green = result.green_table.values
    tables = iter(result.tables)
    total = next(tables).values.copy()
    for t in tables:
        total += t.values
    total -= green
    den = max(float(np.max(spectral_norms(green))), 1e-300)
    return float(np.max(spectral_norms(total))) / den


def kernel_gap(ka: Kernel, kb: Kernel) -> float:
    """Relative sup-norm gap of kb from ka."""
    den = max(kernel_sup_norm(ka), 1e-300)
    return kernel_sup_norm(Kernel(ka.geometry, ka.values - kb.values)) / den


def _relative_gap(res: DerivativeResult, kernels, green) -> float:
    """Max of kernel_gap between res's kernels and the given ones (an
    iterable, read once), then between the Green kernels."""
    gaps = [kernel_gap(ka, kb) for ka, kb in zip(res.kernels, kernels)]
    return max([0.0] + gaps + [kernel_gap(res.green_kernel, green)])


def radius_agreement(res_a: DerivativeResult, res_b: DerivativeResult) -> float:
    """Relative sup-norm spread between two contour radii, max over scales."""
    return _relative_gap(res_a, res_b.kernels, res_b.green_kernel)


def fd_derivative(path: ComplexEllipticPath, g: TorusGeometry, sched: CubeSchedule):
    """Central-difference first derivative along the normalized direction,
    with step FD_STEP.

    Returns per-scale kernels plus the Green kernel, directly comparable
    to jet_derivatives at order 1.  One list is held: the kernels of the
    + decomposition, each replaced by its difference as the kernel of the
    - decomposition is made.
    """
    A0 = path.A0
    adot = path.direction
    d, m = A0.d, A0.m

    def kernels(sign):
        res = decompose(validate_map(A0.entries + sign * FD_STEP * adot.reshape(m * d, m * d), d, m),
                        g, sched)
        yield from res.kernels()
        yield multiplier_to_kernel(res.green_table)

    out = list(kernels(+1.0))
    for i, minus in enumerate(kernels(-1.0)):
        out[i] = Kernel(g, (out[i].values - minus.values) / (2.0 * FD_STEP))
    return out[:-1], out[-1]


def fd_agreement(res: DerivativeResult, fd_kernels, fd_green) -> float:
    """Relative sup-norm gap between first derivatives and their finite
    differences, max over scales and the Green kernel."""
    return _relative_gap(res, fd_kernels, fd_green)


def origin_agreement(res: DerivativeResult, base, kernels=None) -> float:
    """Relative sup-norm gap between order-0 derivatives and the kernels
    of decompose, max over scales and the Green kernel.  kernels are
    base's kernels in scale order, when the caller has them; else one
    walk of base makes them."""
    kernels = base.kernels() if kernels is None else kernels
    return _relative_gap(res, kernels, multiplier_to_kernel(base.green_table))


@dataclass
class BoundRow:
    k: int
    order: int
    ratio: float


@dataclass
class BoundReport:
    rows: list
    max_ratio: float


def derivative_bound_check(base, derivs, kernels=None) -> BoundReport:
    """Cauchy-type growth check across derivative orders, on base's
    kernels (kernels, as in origin_agreement): per scale k, a BoundRow of
    order 0, then one per derivative result when the kernel of base is
    not zero.

    A row's ratio is v_j / v_0, where v_j is the sup norm of D^j C_k
    divided by j! (2/c0)^j; analyticity on the unit disc keeps it
    bounded.  The stored derivative kernels already carry the (2/c0)^j
    direction normalization, so both factors are divided out here.
    max_ratio is the largest ratio of a derivative order.
    """
    rows = []
    for k, kern in enumerate(base.kernels() if kernels is None else kernels, start=1):
        v0 = kernel_sup_norm(kern)
        rows.append(BoundRow(k=k, order=0, ratio=1.0))
        if v0 <= 0.0:
            continue
        for res in derivs:
            vj = kernel_sup_norm(res.kernel(k))
            vj /= math.factorial(res.order) * (2.0 / res.path.A0.c0) ** res.order
            rows.append(BoundRow(k=k, order=res.order, ratio=vj / v0))
    return BoundReport(rows=rows, max_ratio=max([0.0] + [r.ratio for r in rows if r.order > 0]))
