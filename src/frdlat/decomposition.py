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

    Chat_{A,k} = P_{k-1} rev_{k-1} Ahat^-1 - P_k rev_k Ahat^-1,
    P_k = Rhat_1 ... Rhat_k,   rev_k = Rhat_k ... Rhat_1.

The complex branch serves contour sweeps: complex_sweep builds the
z-independent part once (the symbol bodies of A0 and A1, so
Ahat(z) = Ahat0 + z Ahat1, and one stiffness pencil per live level), and
complex_at evaluates one node from it.  The real branch never uses the
pencil, so finite differences of decompose stay an independent check of
the contour derivatives.  Agreement of the two branches at real
coefficients is a mandatory cross-check exercised by the test suite.

Every (F, m, m) product goes through spectral.stack_matmul, which avoids
one BLAS call per small matrix.

Skipped levels are explicit: they contribute the identity to every
product and an identically zero kernel.  Scale N+1 carries the remainder
and makes no finite-range claim.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .elliptic import (EllipticMap, ComplexEllipticPath, green_from_body, sqrt_and_invsqrt_flat,
                       symbol_flat)
from .errors import EmptyFarRegion, FactorizationFailure, InvalidSchedule, OutsideDisc
from .lattice import TorusGeometry, cube, rho_inf_grid
from .projector import assemble_stiffness, check_cube_size, local_green_flat, stiffness_pencil
from .spectral import (
    Kernel,
    MultiplierTable,
    _hermitize,
    flat_table,
    multiplier_to_kernel,
    spectral_norms,
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


def _check_schedule_fits(g: TorusGeometry, sched: CubeSchedule):
    """Fail before any frequency work: the schedule matches the torus and
    every live cube is small enough to factor densely."""
    if sched.S != g.side:
        raise InvalidSchedule("schedule was built for side %d, not %d" % (sched.S, g.side))
    for l in sched.levels:
        if l is not None:
            check_cube_size(cube(l, g), g.m)


def decompose(A: EllipticMap, g: TorusGeometry, sched: CubeSchedule) -> DecompositionResult:
    """Build all scale kernels C_1..C_{N+1}.

    The construction only; verification.diagnostics measures how well
    the result telescopes, stays positive and has finite range.
    """
    _check_schedule_fits(g, sched)
    body = symbol_flat(A.tensor, g)[1:]
    Asqrt, Ainvsqrt = sqrt_and_invsqrt_flat(body)

    identity = _identity_stack(body.shape[0], g.m)
    symbols = []
    products = [identity]
    for l in sched.levels:
        if l is None:
            symbols.append(None)
            products.append(products[-1])
            continue
        # The stiffness and Ghat_Q are temporaries: neither outlives its level.
        Q = cube(l, g)
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
    a contour sweep assembles and inverts no stiffness.
    """

    geometry: TorusGeometry
    body0: np.ndarray = field(repr=False)
    body1: np.ndarray = field(repr=False)
    pencils: list = field(repr=False)


def complex_sweep(path: ComplexEllipticPath, g: TorusGeometry, sched: CubeSchedule) -> ComplexSweep:
    """Schedule and size checks, the symbol bodies of A0 and A1, and one
    stiffness pencil per live level.

    A pencil whose Cholesky fails or whose eigenvalues leave [-1/2, 1/2]
    raises FactorizationFailure naming the level.
    """
    _check_schedule_fits(g, sched)
    m, d = g.m, g.d
    A1 = path.A1.reshape(m, d, m, d)
    pencils = []
    for j, l in enumerate(sched.levels, start=1):
        if l is None:
            pencils.append(None)
            continue
        try:
            pencils.append(stiffness_pencil(path.A0, A1, cube(l, g), g))
        except FactorizationFailure as exc:
            raise FactorizationFailure("level %d: %s" % (j, exc)) from exc
    return ComplexSweep(
        geometry=g,
        body0=symbol_flat(path.A0.tensor, g)[1:],
        body1=symbol_flat(A1, g)[1:],
        pencils=pencils,
    )


def complex_at(sweep: ComplexSweep, z: complex) -> ComplexDecompositionResult:
    """Scale multipliers of the family member A0 + z A1, |z| < 1.

    Uses the non-Hermitian product form with duals folded analytically;
    telescoping to the full Green symbol is exact by construction.
    """
    if abs(z) >= 1.0:
        raise OutsideDisc("|z| = %.6f is not inside the open unit disc" % abs(z))
    g = sweep.geometry
    body = sweep.body0 + z * sweep.body1
    Ainv = np.linalg.inv(body)
    identity = _identity_stack(body.shape[0], g.m)

    P = identity
    rev = identity
    F_prev = Ainv
    tables = []
    for pencil in sweep.pencils:
        if pencil is None:
            Ck = np.zeros_like(Ainv)
        else:
            Ghat = pencil.green_flat(z)[1:]
            Rhat = identity - stack_matmul(Ghat, body) / pencil.cube.volume
            P = stack_matmul(P, Rhat)
            rev = stack_matmul(Rhat, rev)
            F_cur = stack_matmul(stack_matmul(P, rev), Ainv)
            Ck = F_prev - F_cur
            F_prev = F_cur
        tables.append(MultiplierTable(g, Ck))
    tables.append(MultiplierTable(g, F_prev))
    green = MultiplierTable(g, Ainv)
    return ComplexDecompositionResult(geometry=g, tables=tables, green_table=green)


def complex_decompose(
    path: ComplexEllipticPath, z: complex, g: TorusGeometry, sched: CubeSchedule
) -> ComplexDecompositionResult:
    """complex_at for one member of the family: a sweep of one node."""
    return complex_at(complex_sweep(path, g, sched), z)
