"""Cube schedules, the scale product formula, and the multiscale kernels.

Scale k of the decomposition is built from the averaged-projection
symbols of the cubes l_1, ..., l_k.  With v_j = l_j^d and Ghat_j the
local Green symbol of cube j, let X_j = Ghat_j Ahat / v_j and
R_j = I - X_j, P_k = R_1 ... R_k, Q_0 = Ahat^-1 and Q_k = R_k Q_{k-1}.
The products F_k = P_k Q_k telescope from F_0 = Ahat^-1, and
F_{k-1} - F_k = P_{k-1} (I - R_k^2) Q_{k-1} = P_{k-1} X_k (I + R_k) Q_{k-1},
so every scale table is one product with no cancelling difference:

    Chat_k = P_{k-1} X_k (Q_{k-1} + Q_k),   k <= N,
    Chat_{N+1} = P_N Q_N.

For real A, X_j is similar to Ahat^{1/2} Ghat_j Ahat^{1/2} / v_j,
Hermitian with spectrum in [0, 1], and Q_k = Ahat^-1 P_k^H, so
Chat_k = P_{k-1} (2 Ghat_k / v_k - Ghat_k Ahat Ghat_k / v_k^2) P_{k-1}^H is
positive semidefinite per frequency.  _scale_tables evaluates the
formula for three callers, which differ in the cube route, in Ahat^-1
and in the arithmetic:

- decompose (real A) solves each cube by the layered Schur route with
  its Cholesky check (projector.local_green_flat), takes Ahat^-1 from
  elliptic.green_from_body (np.linalg.inv) and hermitizes every table;
- taylor_jets (the family A0 + z A1 at z = 0) runs in truncated power
  series: Ghat_j(z) from projector.local_green_jets, Ahat(z) = Ahat0 +
  z Ahat1 and Ahat(z)^-1 = sum_n z^n Ahat0^-1 (-Ahat1 Ahat0^-1)^n with
  Ahat0^-1 from spectral.stack_inv, and Cauchy products throughout;
- complex_at (one node z of the family, the contour oracle) assembles
  the member's stiffness and solves it by local_green_flat's LU route,
  and inverts Ahat(z) by spectral.stack_inv.

That difference keeps the agreement of decompose with the order-0 jets,
of the jets with the contour, and of the finite differences of decompose
with the order-1 jets, independent checks.  A and A1 are symmetric, so
C(-p) = C(p)^T: every branch works on the n - 1 rows p != 0 of the rfftn
half grid (lattice.p_flat), the layout of every table, and decompose's
tables are exactly Hermitian.

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

from .elliptic import EllipticMap, ComplexEllipticPath, green_from_body, symbol_flat
from .errors import (CubeTooLarge, EmptyFarRegion, FactorizationFailure, InvalidSchedule,
                     OutsideDisc)
from .lattice import TorusGeometry, cube, rho_inf_grid
from .projector import assemble_stiffness, check_cube_size, local_green_flat, local_green_jets
from .spectral import (
    Kernel,
    MultiplierTable,
    _hermitize,
    flat_table,
    multiplier_to_kernel,
    series_mul,
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
    """Scale tables and kernels C_1..C_{N+1}, plus the factors of the
    product formula on the half-grid rows p != 0: symbols[j-1] is the
    (n - 1, m, m) stack X_j = Ghat_j Ahat / v_j, or None for a skipped
    level j, and products[k] is P_k = R_1 ... R_k for k = 0..N (P_0 = I; a
    skipped level repeats the previous product).  body is the symbol
    Ahat on the same rows."""

    geometry: TorusGeometry
    A: EllipticMap
    schedule: CubeSchedule
    tables: list
    kernels: list
    green_table: MultiplierTable
    symbols: list = field(repr=False)
    products: list = field(repr=False)
    body: np.ndarray = field(repr=False)

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


def _scale_tables(X: list, Ainv: np.ndarray, identity=None, mul=stack_matmul):
    """The N+1 scale stacks of the product formula, and the products.

    X[j-1] is the (F, m, m) stack X_j, or None for a skipped level, and
    Ainv is Ahat^-1 on the same rows.  Returns the tables
    C_k = P_{k-1} X_k (Q_{k-1} + Q_k) for k = 1..N (zero at a skipped
    level) and C_{N+1} = P_N Q_N, and the products P_0 = I, ..., P_N.
    P_{k-1} X_k serves both C_k and P_k = P_{k-1} - P_{k-1} X_k.  mul is
    the product and identity its unit (the identity stack by default), so
    the same formula runs on power series of stacks.
    """
    if identity is None:
        identity = _identity_stack(Ainv.shape[0], Ainv.shape[-1])
    P, Q = identity, Ainv
    tables = []
    products = [P]
    for Xk in X:
        if Xk is None:
            tables.append(np.zeros_like(Ainv))
        else:
            PX = Xk if P is identity else mul(P, Xk)  # no product while P = I
            Q_next = Q - mul(Xk, Q)
            tables.append(mul(PX, Q + Q_next))
            P, Q = P - PX, Q_next
        products.append(P)
    tables.append(mul(P, Q))
    return tables, products


def decompose(A: EllipticMap, g: TorusGeometry, sched: CubeSchedule) -> DecompositionResult:
    """Build all scale kernels C_1..C_{N+1}.

    The construction only; verification.diagnostics measures how well
    the result telescopes, stays positive and has finite range.  A cube
    error (CubeTooLarge, FactorizationFailure) names its level.
    """
    _check_schedule_fits(g, sched, dense=False)
    body = symbol_flat(A.tensor, g)[1:]
    symbols = []
    for j, l in enumerate(sched.levels, start=1):
        if l is None:
            symbols.append(None)
            continue
        # The stiffness and Ghat_Q are temporaries: neither outlives its level.
        Q = cube(l, g)
        with _at_level(j):
            G = local_green_flat(assemble_stiffness(A, Q), g)[1:]
        symbols.append(stack_matmul(G, body) / Q.volume)
    green = green_from_body(body)  # after the cubes, so no cube solve runs beside it
    tables, products = _scale_tables(symbols, green)
    tables = [MultiplierTable(g, _hermitize(C)) for C in tables]
    return DecompositionResult(
        geometry=g,
        A=A,
        schedule=sched,
        tables=tables,
        kernels=[multiplier_to_kernel(table) for table in tables],
        green_table=MultiplierTable(g, green),
        symbols=symbols,
        products=products,
        body=body,
    )


@dataclass
class ComplexDecompositionResult:
    geometry: TorusGeometry
    tables: list
    green_table: MultiplierTable

    def table(self, k: int) -> MultiplierTable:
        return self.tables[k - 1]


def _family(path: ComplexEllipticPath, g: TorusGeometry, sched: CubeSchedule, dense: bool):
    """The checks of the family A0 + z A1, and its symbol bodies Ahat0 and
    Ahat1 on the half-grid rows p != 0.  Every live cube must fit its
    route (_check_schedule_fits), and |A1| <= c0/2, which keeps every
    member elliptic on the unit disc, is re-checked on the current entries
    of A0 and A1: OutsideDisc if either changed after the path was built."""
    _check_schedule_fits(g, sched, dense)
    c0 = float(np.linalg.eigvalsh(path.A0.entries)[0])
    norm = float(np.max(np.abs(np.linalg.eigvalsh(path.A1))))
    if not norm <= 0.5 * c0 * (1.0 + 1e-12):
        raise OutsideDisc(
            "direction norm %.6g exceeds c0/2 = %.6g: the family is not elliptic on the unit disc"
            % (norm, 0.5 * c0)
        )
    A1 = path.A1.reshape(g.m, g.d, g.m, g.d)
    return symbol_flat(path.A0.tensor, g)[1:], symbol_flat(A1, g)[1:]


def taylor_jets(path: ComplexEllipticPath, g: TorusGeometry, sched: CubeSchedule,
                J: int) -> np.ndarray:
    """The Taylor coefficients [z^n] at z = 0, n < J, of the scale tables
    and the Green table of the family A0 + z A1, as one (N+2, n-1, J, m, m)
    stack on the half-grid rows: the N+1 scale tables and then the Green
    table.

    Every factor of the product formula has an exact series, so
    _scale_tables runs on series of stacks (spectral.series_mul): Ghat_j
    from local_green_jets on K0 and K1, assembled once per live level;
    X_j = Ghat_j (Ahat0 + z Ahat1) / v_j; and Ahat(z)^-1, whose terms are
    Ahat0^-1 (-Ahat1 Ahat0^-1)^n.  The cubes take the layered size rule of
    decompose.  A cube error names its level; a direction above c0/2
    raises OutsideDisc.
    """
    body0, body1 = _family(path, g, sched, dense=False)
    body = np.stack([body0, body1], axis=1)[:, :J]

    def mul(a, b):
        return series_mul(a, b, stack_matmul)

    X = []
    for j, l in enumerate(sched.levels, start=1):
        if l is None:
            X.append(None)
            continue
        Q = cube(l, g)
        with _at_level(j):
            G = local_green_jets(assemble_stiffness(path.A0.tensor, Q),
                                 assemble_stiffness(path.A1.reshape(g.m, g.d, g.m, g.d), Q), g,
                                 J)[1:]
        X.append(mul(G, body) / Q.volume)
    Ainv = np.empty((body0.shape[0], J, g.m, g.m), dtype=np.complex128)
    Ainv[:, 0] = stack_inv(body0)
    for n in range(1, J):
        Ainv[:, n] = -stack_matmul(Ainv[:, n - 1], stack_matmul(body1, Ainv[:, 0]))
    identity = np.zeros_like(Ainv)
    identity[:, 0] = _identity_stack(body0.shape[0], g.m)
    tables, _ = _scale_tables(X, Ainv, identity, mul)
    return np.stack(tables + [Ainv])


@dataclass
class ComplexSweep:
    """The z-independent part of the family A0 + z A1 on one torus, for
    the contour oracle: Ahat(z) = body0 + z body1 on the half-grid rows
    p != 0, and the cube of each live level (None for a skipped level).
    complex_at evaluates them at one node."""

    geometry: TorusGeometry
    path: ComplexEllipticPath
    body0: np.ndarray = field(repr=False)
    body1: np.ndarray = field(repr=False)
    cubes: list = field(repr=False)


def complex_sweep(path: ComplexEllipticPath, g: TorusGeometry, sched: CubeSchedule) -> ComplexSweep:
    """Schedule and size checks and the symbol bodies of A0 and A1 on the
    half-grid rows p != 0.  An oracle: every live cube must fit the dense
    limit of the other cube oracles (CubeTooLarge naming the level), and a
    direction above c0/2 raises OutsideDisc."""
    body0, body1 = _family(path, g, sched, dense=True)
    return ComplexSweep(geometry=g, path=path, body0=body0, body1=body1,
                        cubes=[None if l is None else cube(l, g) for l in sched.levels])


def complex_at(sweep: ComplexSweep, z: complex) -> np.ndarray:
    """Scale multipliers of the family member A0 + z A1, |z| < 1, as one
    (N+2, n-1, m, m) stack on the sweep's rows: the N+1 scale tables
    and then the Green table.

    The product formula (_scale_tables), with X_j = Ghat_j(z) Ahat(z) / v_j
    from local_green_flat of the member's assembled stiffness (its LU
    route) and Q_0 = Ahat(z)^-1 from stack_inv: no series code.
    """
    tensor = sweep.path.tensor_at(z)  # OutsideDisc for |z| >= 1
    body = sweep.body0 + z * sweep.body1
    X = [None if Q is None
         else stack_matmul(local_green_flat(assemble_stiffness(tensor, Q), sweep.geometry)[1:],
                           body) / Q.volume
         for Q in sweep.cubes]
    Ainv = stack_inv(body)
    tables, _ = _scale_tables(X, Ainv)
    return np.stack(tables + [Ainv])


def complex_decompose(
    path: ComplexEllipticPath, z: complex, g: TorusGeometry, sched: CubeSchedule
) -> ComplexDecompositionResult:
    """complex_at for one member of the family: a sweep of one node."""
    tables = [MultiplierTable(g, C) for C in complex_at(complex_sweep(path, g, sched), z)]
    return ComplexDecompositionResult(geometry=g, tables=tables[:-1], green_table=tables[-1])
