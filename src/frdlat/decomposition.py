"""Cube schedules, renormalized products, and the multiscale kernels.

Scale k of the decomposition is built from the averaged-projection
symbols of the cubes l_1, ..., l_k.  In the real branch everything is
conjugated by Ahat^{1/2}: with Ttilde = Ahat^{1/2} That Ahat^{-1/2}
Hermitian and Rtilde = I - Ttilde a contraction, the products
Mtilde_k = Rtilde_1 ... Rtilde_k give

    Chat_k = Ahat^{-1/2} [Mtilde_{k-1} Mtilde_{k-1}^H
                          - Mtilde_k Mtilde_k^H] Ahat^{-1/2},

which telescopes exactly to Ahat^{-1} and is positive semidefinite per
frequency.  decompose runs one loop over the schedule and keeps the
recursion in plain lists of (F, m, m) stacks: symbols[j-1] is Ttilde_j,
or None for a skipped level, and products[k] is Mtilde_k for k = 0..N.
The complex branch cannot take Hermitian roots, so it uses
the order-reversed product form with the duals Rhat' = Ahat Rhat Ahat^-1
folded in analytically (the inner Ahat^-1 Ahat pairs cancel):

    Chat_{A,k} = F_{k-1} - F_k,   F_k = P_k Q_k,   F_0 = Ahat^-1,
    P_k = Rhat_1 ... Rhat_k,   Q_k = Rhat_k Q_{k-1},   Q_0 = Ahat^-1.

The complex branch serves contour sweeps: complex_sweep builds the
z-independent part once (the symbol bodies of A0 and A1, so
Ahat(z) = Ahat0 + z Ahat1, and one stiffness pencil per live level), and
complex_at evaluates one node from it.  Ahat(z)(-p) = Ahat(z)(p)^T and
Ghat(z)(-p) = Ghat(z)(p)^T, so every table has C(-p) = C(p)^T:
complex_at works on one row of each pair p, -p, inverts Ahat(z) there by
spectral.stack_inv, and fills the other rows by transposition.  The
real branch never uses the pencil, so finite differences of decompose
stay an independent check of the contour derivatives.  Agreement of the
two branches at real coefficients is a mandatory cross-check exercised
by the test suite.

Every (F, m, m) product goes through spectral.stack_matmul, which avoids
one BLAS call per small matrix.

Skipped levels are explicit: they contribute the identity to every
product and an identically zero kernel.  Scale N+1 carries the remainder
and makes no finite-range claim.
"""

import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from .elliptic import (EllipticMap, ComplexEllipticPath, green_from_body, sqrt_and_invsqrt_flat,
                       symbol_flat)
from .errors import (CubeTooLarge, EmptyFarRegion, FactorizationFailure, InvalidSchedule,
                     OutsideDisc)
from .lattice import TorusGeometry, cube, rho_inf_grid
from .projector import assemble_stiffness, check_cube_size, local_green_flat, stiffness_pencil
from .spectral import (
    Kernel,
    MultiplierTable,
    _hermitize,
    flat_table,
    multiplier_to_kernel,
    negated_rows,
    spectral_norms,
    stack_inv,
    stack_matmul,
)


@dataclass(frozen=True)
class CubeSchedule:
    """Side parameters per level; None marks an explicitly skipped level."""

    levels: tuple
    S: int

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))

    @property
    def N(self) -> int:
        return len(self.levels)

    @property
    def ranges(self) -> tuple:
        """r_k = -1 + 2 sum_{j<=k, non-skip} (l_j - 1), for k = 1..N."""
        out = []
        acc = -1
        for l in self.levels:
            if l is not None:
                acc += 2 * (l - 1)
            out.append(acc)
        return tuple(out)

    def is_skipped(self, k: int) -> bool:
        """Level index k is 1-based."""
        return self.levels[k - 1] is None


def check_levels(levels, N: int, S: int) -> tuple:
    """The one schedule rule: N levels, each skipped (None) or a cube side
    l with l >= 3 and l - 1 < S."""
    levels = list(levels)
    if len(levels) != N:
        raise InvalidSchedule("%d levels given but N = %d" % (len(levels), N))
    checked = []
    for j, l in enumerate(levels, start=1):
        if l is not None:
            l = int(l)
            if l < 3:
                raise InvalidSchedule("level %d: side %d is below 3" % (j, l))
            if l - 1 >= S:
                raise InvalidSchedule(
                    "level %d: side %d does not fit in torus of side %d" % (j, l, S)
                )
        checked.append(l)
    return tuple(checked)


def build_schedule(g: TorusGeometry, override=None) -> CubeSchedule:
    """Default cube sides per level, or a validated user override.

    Defaults: l_j = floor(L^j/8) + 1 for L >= 17; the same with l_1 = 3
    for odd 7 <= L <= 15; for L in {3, 5} the first two levels are
    skipped.  Non-final ranges reaching S/2 are flagged with a warning
    (coverage degenerates), not an error.
    """
    S = g.side
    if override is not None:
        sched = CubeSchedule(check_levels(override, g.N, S), S)
    else:
        levels = []
        for j in range(1, g.N + 1):
            if g.L >= 17:
                levels.append(g.L ** j // 8 + 1)
            elif g.L >= 7:
                levels.append(3 if j == 1 else g.L ** j // 8 + 1)
            else:
                levels.append(None if j <= 2 else g.L ** j // 8 + 1)
        sched = CubeSchedule(tuple(levels), S)
    ranges = sched.ranges
    for k in range(1, sched.N):
        if ranges[k - 1] >= S / 2:
            warnings.warn(
                "range r_%d = %d already reaches S/2 = %.1f" % (k, ranges[k - 1], S / 2),
                stacklevel=2,
            )
    return sched


def _identity_stack(F: int, m: int) -> np.ndarray:
    out = np.zeros((F, m, m), dtype=np.complex128)
    out[:, np.arange(m), np.arange(m)] = 1.0
    return out


@dataclass
class DecompositionResult:
    """Scale tables and kernels C_1..C_{N+1}, plus the recursion behind
    them on the p != 0 rows: symbols[j-1] is the (F, m, m) stack Ttilde_j,
    or None for a skipped level j, and products[k] is Mtilde_k for
    k = 0..N (a skipped level repeats the previous product)."""

    geometry: TorusGeometry
    A: EllipticMap
    schedule: CubeSchedule
    tables: list
    kernels: list
    green_table: MultiplierTable
    symbols: list = field(repr=False)
    products: list = field(repr=False)

    @property
    def n_scales(self) -> int:
        return self.schedule.N + 1

    def table(self, k: int) -> MultiplierTable:
        """Scale index k is 1-based, up to N+1."""
        return self.tables[k - 1]

    def kernel(self, k: int) -> Kernel:
        return self.kernels[k - 1]


def kernel_sup_norm(K: Kernel) -> float:
    """sup over sites of the operator norm of K(x)."""
    g = K.geometry
    flat = flat_table(K.values, g)
    return float(np.max(spectral_norms(flat)))


def far_field_constant(K: Kernel, r: int):
    """Mean of the kernel beyond range r, and the max deviation from it."""
    g = K.geometry
    mask = rho_inf_grid(g) > r
    count = int(np.count_nonzero(mask))
    if count == 0:
        raise EmptyFarRegion("no site lies beyond range %d" % r)
    far = K.values[:, :, mask]
    C = far.mean(axis=-1)
    dev = np.moveaxis(far - C[:, :, None], -1, 0)
    residual = float(np.max(spectral_norms(dev)))
    return C, residual


@contextmanager
def _at_level(j: int):
    """Prefix a cube error raised inside with "level j: ", keeping its type."""
    try:
        yield
    except (CubeTooLarge, FactorizationFailure) as exc:
        raise type(exc)("level %d: %s" % (j, exc)) from exc


def _check_schedule_fits(g: TorusGeometry, sched: CubeSchedule, dense: bool):
    """Fail before any frequency work: the schedule matches the torus and
    every live cube fits the size rule of its route, dense or layered
    (projector.check_cube_size)."""
    if sched.S != g.side:
        raise InvalidSchedule("schedule was built for side %d, not %d" % (sched.S, g.side))
    for j, l in enumerate(sched.levels, start=1):
        if l is not None:
            with _at_level(j):
                check_cube_size(cube(l, g), g.m, dense)


def decompose(A: EllipticMap, g: TorusGeometry, sched: CubeSchedule) -> DecompositionResult:
    """Build all scale kernels C_1..C_{N+1}.

    The construction only; verification.diagnostics measures how well
    the result telescopes, stays positive and has finite range.  A cube
    error (CubeTooLarge, FactorizationFailure) names its level.
    """
    _check_schedule_fits(g, sched, dense=False)
    body = symbol_flat(A.tensor, g)[1:]
    Asqrt, Ainvsqrt = sqrt_and_invsqrt_flat(body)

    identity = _identity_stack(body.shape[0], g.m)
    symbols = []
    products = [identity]
    for j, l in enumerate(sched.levels, start=1):
        if l is None:
            symbols.append(None)
            products.append(products[-1])
            continue
        # The stiffness and Ghat_Q are temporaries: neither outlives its level.
        Q = cube(l, g)
        with _at_level(j):
            T = stack_matmul(Asqrt, local_green_flat(assemble_stiffness(A, Q), g)[1:])
        T = _hermitize(stack_matmul(T, Asqrt) / Q.volume)
        symbols.append(T)
        products.append(stack_matmul(products[-1], identity - T))

    def scale_table(diff):
        return MultiplierTable(g, _hermitize(stack_matmul(stack_matmul(Ainvsqrt, diff), Ainvsqrt)))

    # Consecutive gram differences give C_1..C_N; the last gram is C_{N+1}.
    tables = []
    prev = None
    for Mk in products:
        cur = _hermitize(stack_matmul(Mk, np.conj(np.swapaxes(Mk, -1, -2))))
        if prev is not None:
            tables.append(scale_table(prev - cur))
        prev = cur
    tables.append(scale_table(prev))
    kernels = [multiplier_to_kernel(table) for table in tables]
    green_table = green_from_body(body, g)  # last, so no cube solve runs beside it

    return DecompositionResult(
        geometry=g,
        A=A,
        schedule=sched,
        tables=tables,
        kernels=kernels,
        green_table=green_table,
        symbols=symbols,
        products=products,
    )


@dataclass
class ComplexDecompositionResult:
    geometry: TorusGeometry
    tables: list
    green_table: MultiplierTable

    def table(self, k: int) -> MultiplierTable:
        return self.tables[k - 1]


@dataclass
class ComplexSweep:
    """The z-independent part of the family A0 + z A1 on one torus.

    Ahat(z) = body0 + z body1 is affine in z, and each live level holds
    its cube's stiffness pencil (None for a skipped level), so a node of
    a contour sweep assembles and inverts no stiffness.  rows are the
    p != 0 rows r that precede their -p row partner[r]: the bodies hold
    those rows only, and complex_at evaluates only them.
    """

    geometry: TorusGeometry
    rows: np.ndarray = field(repr=False)
    partner: np.ndarray = field(repr=False)
    body0: np.ndarray = field(repr=False)
    body1: np.ndarray = field(repr=False)
    pencils: list = field(repr=False)


def complex_sweep(path: ComplexEllipticPath, g: TorusGeometry, sched: CubeSchedule) -> ComplexSweep:
    """Schedule and size checks, the symbol bodies of A0 and A1 on the
    half rows, and one stiffness pencil per live level.

    A pencil whose Cholesky fails or whose eigenvalues leave [-1/2, 1/2]
    raises FactorizationFailure naming the level.
    """
    _check_schedule_fits(g, sched, dense=True)
    m, d = g.m, g.d
    A1 = path.A1.reshape(m, d, m, d)
    pencils = []
    for j, l in enumerate(sched.levels, start=1):
        if l is None:
            pencils.append(None)
            continue
        with _at_level(j):
            pencils.append(stiffness_pencil(path.A0, A1, cube(l, g), g))
    neg = negated_rows(g)[1:] - 1
    rows = np.flatnonzero(np.arange(neg.shape[0]) < neg)
    return ComplexSweep(
        geometry=g,
        rows=rows,
        partner=neg[rows],
        body0=symbol_flat(path.A0.tensor, g)[1:][rows],
        body1=symbol_flat(A1, g)[1:][rows],
        pencils=pencils,
    )


def complex_at(sweep: ComplexSweep, z: complex) -> ComplexDecompositionResult:
    """Scale multipliers of the family member A0 + z A1, |z| < 1.

    The product form with the duals folded analytically: with
    R_j = I - Ghat_j Ahat / v_j, P_k = R_1 ... R_k and Q_k = R_k Q_{k-1},
    Q_0 = Ahat^-1, the products F_k = P_k Q_k give C_k = F_{k-1} - F_k and
    C_{N+1} = F_N, which telescope to Ahat^-1 by construction.  Ahat(-p)
    = Ahat(p)^T and Ghat_j(-p) = Ghat_j(p)^T, so C(-p) = C(p)^T: only the
    sweep's half rows are evaluated, and every table, the Green table
    too, takes the transposes at the partner rows.
    """
    if abs(z) >= 1.0:
        raise OutsideDisc("|z| = %.6f is not inside the open unit disc" % abs(z))
    g = sweep.geometry
    rows = sweep.rows + 1  # flat rows of green_flat, p = 0 included
    body = sweep.body0 + z * sweep.body1
    identity = _identity_stack(body.shape[0], g.m)
    # Half rows of the N+1 scale tables and then the Green table.
    half = np.zeros((len(sweep.pencils) + 2,) + body.shape, dtype=np.complex128)
    Ainv = stack_inv(body)
    half[-1] = Ainv
    P = None
    Q = F_prev = Ainv
    for k, pencil in enumerate(sweep.pencils):
        if pencil is None:
            continue
        R = identity - stack_matmul(pencil.green_flat(z)[rows], body) / pencil.cube.volume
        P = R if P is None else stack_matmul(P, R)
        Q = stack_matmul(R, Q)
        F_cur = stack_matmul(P, Q)
        np.subtract(F_prev, F_cur, out=half[k])
        F_prev = F_cur
    half[-2] = F_prev
    out = np.empty(half.shape[:1] + (g.site_count - 1, g.m, g.m), dtype=np.complex128)
    out[:, sweep.rows] = half
    out[:, sweep.partner] = np.swapaxes(half, -1, -2)
    tables = [MultiplierTable(g, X) for X in out]
    return ComplexDecompositionResult(geometry=g, tables=tables[:-1], green_table=tables[-1])


def complex_decompose(
    path: ComplexEllipticPath, z: complex, g: TorusGeometry, sched: CubeSchedule
) -> ComplexDecompositionResult:
    """complex_at for one member of the family: a sweep of one node."""
    return complex_at(complex_sweep(path, g, sched), z)
