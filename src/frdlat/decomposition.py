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
positive semidefinite per frequency.  Three branches evaluate the
formula with one level loop (_symbols), which makes X_j per live level,
and one walk (_scale_tables), which makes the tables from the X_j and
Ahat^-1.  They differ in the cube route that gives Ghat_j, in Ahat^-1 and
in the arithmetic:

- decompose (real A) solves each cube by the layered Schur route with
  its Cholesky check (projector.local_green_flat), takes Ahat^-1 from
  elliptic.green_from_body (np.linalg.inv) and hermitizes every table;
- taylor_jets (the family A0 + z A1 at z = 0) runs in truncated power
  series: Ghat_j(z) from projector.local_green_jets, Ahat(z) = Ahat0 +
  z Ahat1 and Ahat(z)^-1 = sum_n z^n Ahat0^-1 (-Ahat1 Ahat0^-1)^n with
  Ahat0^-1 from spectral.stack_inv, and Cauchy products throughout;
- _member (one node z of the family, the contour oracle's evaluation)
  assembles the member's stiffness and solves it by local_green_flat's
  LU route, and inverts Ahat(z) by spectral.stack_inv.  Its callers run
  _family, the family's checks and symbol bodies, once per call, not
  once per node.

Every cube route holds the same layer blocks, so every branch takes the
layered size rule (projector.check_cube_size).  The differences keep the
agreement of decompose with the order-0 jets, of the jets with the
contour, and of the finite differences of decompose with the order-1
jets, independent checks.  A and A1 are symmetric, so
C(-p) = C(p)^T: every branch works on the n - 1 rows p != 0 of the rfftn
half grid (lattice.p_flat), the layout of every table, and decompose's
tables are exactly Hermitian.

Every (F, m, m) product goes through spectral.stack_matmul, which avoids
one BLAS call per small matrix.

Skipped levels are explicit: they contribute the identity to every
product and an identically zero kernel.  Scale N+1 carries the remainder
and makes no finite-range claim.  The products P_k are walked level by
level in _scale_tables, the one walk of them, so no list of them is
held.  No table or kernel is held either: a DecompositionResult keeps
the factors X_j, the body and the Green table, and its walk makes the
tables in scale order, each kernel one irfftn of its table, so a caller
that takes each scale once and drops it holds one at a time.  The jets
hand their walk to their caller the same way; only the contour oracle,
on small tori, stacks its tables.
"""

import warnings
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property, partial
from itertools import chain, islice

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


@dataclass
class DecompositionResult:
    """The factors of the product formula on the half-grid rows p != 0:
    symbols[j-1] is the (n - 1, m, m) stack X_j = Ghat_j Ahat / v_j, or
    None for a skipped level j, body is the symbol Ahat and green_table
    Ahat^-1.  No scale table, product P_k or kernel is stored: walk()
    makes the tables C_1..C_{N+1} in scale order, and kernels() their
    kernels, so a caller that needs every scale takes one walk.  Every
    skipped level yields the same read-only zero_table, whose kernel is
    the one read-only zero_kernel."""

    geometry: TorusGeometry
    A: EllipticMap
    schedule: CubeSchedule
    green_table: MultiplierTable
    symbols: list = field(repr=False)
    body: np.ndarray = field(repr=False)
    zero_table: MultiplierTable = field(default=None, repr=False)
    zero_kernel: Kernel = field(default=None, repr=False)

    @property
    def n_scales(self) -> int:
        return self.schedule.N + 1

    def walk(self):
        """The Hermitian tables C_1..C_{N+1}, one at a time, from one walk
        of the product formula (_scale_tables).  map holds no raw table
        between steps, so each is dropped once its Hermitian part exists."""
        g, zero = self.geometry, self.zero_table
        return map(lambda C: zero if C is None else MultiplierTable(g, _hermitize(C)),
                   _scale_tables(self.symbols, self.green_table.values))

    def kernel_of(self, table: MultiplierTable) -> Kernel:
        """The kernel of a table of this result: one irfftn
        (multiplier_to_kernel), or zero_kernel for zero_table."""
        return self.zero_kernel if table is self.zero_table else multiplier_to_kernel(table)

    def kernels(self):
        """The kernels of walk(), one at a time."""
        return map(self.kernel_of, self.walk())

    def table(self, k: int) -> MultiplierTable:
        """Table k, 1-based up to N+1, from a walk of the first k scales."""
        return next(islice(self.walk(), k - 1, None))

    def kernel(self, k: int) -> Kernel:
        """The kernel of table k (kernel_of)."""
        return self.kernel_of(self.table(k))


@dataclass
class DerivativeResult:
    """Order-j derivative tables of the family A0 + z A1 on the half-grid
    rows: tables holds the N+1 scale tables and green_table the Green
    table.  Each kernel is made once, when first read: kernels those of
    every scale (kernel_of, so a skipped level of the jets, which holds
    zero_table, reads zero_kernel), green_kernel the Green one."""

    path: ComplexEllipticPath
    order: int
    tables: list = field(repr=False)
    green_table: MultiplierTable = field(repr=False)
    zero_table: MultiplierTable = field(default=None, repr=False)
    zero_kernel: Kernel = field(default=None, repr=False)

    kernel_of = DecompositionResult.kernel_of

    @cached_property
    def kernels(self) -> list:
        return [self.kernel_of(table) for table in self.tables]

    @cached_property
    def green_kernel(self) -> Kernel:
        return multiplier_to_kernel(self.green_table)

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
    # K.values[:, :, mask] in its layout (sites first, which the mean's bits
    # follow), one entry at a time: this index makes no integer index arrays.
    far = np.empty((count, g.m, g.m))
    for i, j in np.ndindex(g.m, g.m):
        far[:, i, j] = K.values[i, j][mask]
    far = np.moveaxis(far, 0, -1)
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


def _check_schedule_fits(g: TorusGeometry, sched: CubeSchedule):
    """Fail before any frequency work: the schedule matches the torus and
    every live cube fits the layered size rule (projector.check_cube_size)."""
    if sched.S != g.side:
        raise InvalidSchedule("schedule was built for side %d, not %d" % (sched.S, g.side))
    for j, l in enumerate(sched.levels, start=1):
        if l is not None:
            with _at_level(j):
                check_cube_size(cube(l, g), g.m)


def _symbols(g: TorusGeometry, sched: CubeSchedule, body: np.ndarray, green_of,
             mul=stack_matmul) -> list:
    """The level loop of every branch: X_j = Ghat_j body / v_j for each
    level j, None at a skipped level.  green_of(Q) gives Ghat_Q on the
    rows of body by the branch's cube route, and mul is the branch's
    product.  A cube error names its level.  The stiffness and Ghat_Q are
    temporaries: neither outlives its level."""
    X = []
    for j, l in enumerate(sched.levels, start=1):
        if l is None:
            X.append(None)
            continue
        Q = cube(l, g)
        with _at_level(j):
            Xj = mul(green_of(Q), body)
        Xj /= Q.volume
        X.append(Xj)
    return X


def _scale_tables(X: list, Ainv: np.ndarray, identity=None, mul=stack_matmul):
    """Yield the N+1 scale stacks of the product formula, one at a time.

    X[j-1] is the (F, m, m) stack X_j, or None for a skipped level, and
    Ainv is Ahat^-1 on the same rows.  Yields C_k = P_{k-1} X_k
    (Q_{k-1} + Q_k) for k = 1..N, None at a skipped level (its table is
    zero), and then C_{N+1} = P_N Q_N.  P_k = P_{k-1} - P_{k-1} X_k, with
    no product formed while P = I, so P_{k-1} X_k serves both C_k and P_k.
    mul is the product and identity its unit (the m x m identity matrix by
    default, which broadcasts over the rows), so the same formula runs on
    power series of stacks.
    """
    if identity is None:
        identity = np.eye(Ainv.shape[-1], dtype=np.complex128)
    P, Q = identity, Ainv
    for Xk in X:
        if Xk is None:
            yield None
            continue
        PX = Xk if P is identity else mul(P, Xk)
        C = [mul(PX, Q + (Q := Q - mul(Xk, Q)))]  # Q_{k-1} + Q_k, and Q becomes Q_k
        P = P - PX
        del PX
        # Popped as it is yielded: while the consumer holds C_k, this frame
        # holds only P_k and Q_k.
        yield C.pop()
    C = [mul(P, Q)]
    del P, Q  # nor P_N and Q_N while the consumer holds C_{N+1}
    yield C.pop()


def _zero_scale(g: TorusGeometry):
    """The zero table and zero kernel that every skipped level of one
    result shares, read-only.  irfftn of a zero spectrum is +0.0
    everywhere, so the kernel is the one a transform would give."""
    values = np.zeros((g.half_count - 1, g.m, g.m), dtype=np.complex128)
    kernel = np.zeros(g.kernel_shape())
    values.flags.writeable = False
    kernel.flags.writeable = False
    return MultiplierTable(g, values), Kernel(g, kernel)


def decompose(A: EllipticMap, g: TorusGeometry, sched: CubeSchedule) -> DecompositionResult:
    """Build the factors of the product formula: the symbols X_j of the
    live levels and the Green table.  No scale table is made here; a
    caller walks them (DecompositionResult.walk).

    The construction only; verification.diagnostics measures how well
    the result telescopes, stays positive and has finite range.  A cube
    error (CubeTooLarge, FactorizationFailure) names its level.  The
    skipped levels of the schedule share one read-only zero table and
    zero kernel.
    """
    _check_schedule_fits(g, sched)
    body = symbol_flat(A.tensor, g)[1:]
    symbols = _symbols(g, sched, body, lambda Q: local_green_flat(assemble_stiffness(A, Q), g)[1:])
    green = green_from_body(body)  # after the cubes, so no cube solve runs beside it
    zero_table, zero_kernel = _zero_scale(g) if None in sched.levels else (None, None)
    return DecompositionResult(geometry=g, A=A, schedule=sched,
                               green_table=MultiplierTable(g, green), symbols=symbols, body=body,
                               zero_table=zero_table, zero_kernel=zero_kernel)


def _family(path: ComplexEllipticPath, g: TorusGeometry, sched: CubeSchedule):
    """The checks of the family A0 + z A1, and its symbol bodies Ahat0 and
    Ahat1 on the half-grid rows p != 0.  Every live cube must fit the
    layered rule (_check_schedule_fits), and |A1| <= c0/2, which keeps every
    member elliptic on the unit disc, is re-checked on the current entries
    of A0 and A1: OutsideDisc if either changed after the path was built."""
    _check_schedule_fits(g, sched)
    c0 = float(np.linalg.eigvalsh(path.A0.entries)[0])
    norm = float(np.max(np.abs(np.linalg.eigvalsh(path.A1))))
    if not norm <= 0.5 * c0 * (1.0 + 1e-12):
        raise OutsideDisc(
            "direction norm %.6g exceeds c0/2 = %.6g: the family is not elliptic on the unit disc"
            % (norm, 0.5 * c0)
        )
    A1 = path.A1.reshape(g.m, g.d, g.m, g.d)
    return symbol_flat(path.A0.tensor, g)[1:], symbol_flat(A1, g)[1:]


def taylor_jets(path: ComplexEllipticPath, g: TorusGeometry, sched: CubeSchedule, J: int):
    """The Taylor coefficients [z^n] at z = 0, n < J, of the scale tables
    and the Green table of the family A0 + z A1, as a walk of
    (n-1, J, m, m) series on the half-grid rows: the N+1 scale series,
    None at a skipped level (its table is zero), and then the Green
    series.

    Every factor of the product formula has an exact series, so
    _scale_tables runs on series of stacks (spectral.series_mul): Ghat_j
    from local_green_jets on K0 and K1, assembled once per live level;
    X_j = Ghat_j (Ahat0 + z Ahat1) / v_j; and Ahat(z)^-1, whose terms are
    Ahat0^-1 (-Ahat1 Ahat0^-1)^n.  The checks and the cubes run before the
    walk is returned: a cube error names its level, and a direction above
    c0/2 raises OutsideDisc.
    """
    body0, body1 = _family(path, g, sched)
    body = np.stack([body0, body1], axis=1)[:, :J]
    A1 = path.A1.reshape(g.m, g.d, g.m, g.d)
    mul = partial(series_mul, mul=stack_matmul)
    X = _symbols(g, sched, body, lambda Q: local_green_jets(
        assemble_stiffness(path.A0.tensor, Q), assemble_stiffness(A1, Q), g, J)[1:], mul)
    Ainv = np.empty((body0.shape[0], J, g.m, g.m), dtype=np.complex128)
    Ainv[:, 0] = stack_inv(body0)
    for n in range(1, J):
        Ainv[:, n] = -stack_matmul(Ainv[:, n - 1], stack_matmul(body1, Ainv[:, 0]))
    identity = np.zeros((J, g.m, g.m), dtype=np.complex128)  # broadcasts over the rows
    identity[0] = np.eye(g.m)
    return chain(_scale_tables(X, Ainv, identity, mul), [Ainv])


def _member(path: ComplexEllipticPath, g: TorusGeometry, sched: CubeSchedule,
            body0: np.ndarray, body1: np.ndarray, z: complex) -> np.ndarray:
    """Scale multipliers of the family member A0 + z A1, |z| < 1, as one
    (N+2, n-1, m, m) stack on the rows of _family's bodies body0 and
    body1: the N+1 scale tables and then the Green table.

    The product formula (_scale_tables), with X_j = Ghat_j(z) Ahat(z) / v_j
    from local_green_flat of the member's assembled stiffness (its LU
    route) and Q_0 = Ahat(z)^-1 from stack_inv: no series code.  A cube
    error names its level.
    """
    tensor = path.tensor_at(z)  # OutsideDisc for |z| >= 1
    body = body0 + z * body1
    X = _symbols(g, sched, body, lambda Q: local_green_flat(assemble_stiffness(tensor, Q), g)[1:])
    Ainv = stack_inv(body)
    return np.stack([np.zeros_like(Ainv) if C is None else C for C in _scale_tables(X, Ainv)]
                    + [Ainv])


def complex_decompose(
    path: ComplexEllipticPath, z: complex, g: TorusGeometry, sched: CubeSchedule
) -> DerivativeResult:
    """One member of the family (_member after _family's checks): its
    tables as an order-0 DerivativeResult, which transforms none until its
    kernels are read."""
    stack = _member(path, g, sched, *_family(path, g, sched), z)
    return DerivativeResult(path, 0, [MultiplierTable(g, C) for C in stack[:-1]],
                            MultiplierTable(g, stack[-1]))
