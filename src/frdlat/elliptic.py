"""The coefficient map A, its frequency symbols, and Hermitian roots.

A acts on m x d matrices and is stored as a real (m*d) x (m*d) array in
(component r, direction j) -> r*d + j ordering.  Its symbol is
(Ahat(p) a)_r = sum_{j,s,k} conj(q_j) A_{r,j;s,k} a_s q_k with
q_j(p) = e^{i p_j} - 1; it is Hermitian positive definite for p != 0 and
vanishes at p = 0.

c0 and the norm are the extreme eigenvalues of the symmetrized array: the
sharp constants, so that derivative bound checks downstream are
meaningful.  Full positive definiteness is required; positivity on
rank-one matrices only is not accepted.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (
    NotPSD,
    NotPositiveDefinite,
    NotSymmetric,
    OutsideDisc,
    SingularSymbol,
)
from .lattice import TorusGeometry, p_flat
from .spectral import MultiplierTable, _hermitize

SYMMETRY_TOL = 1e-12
COND_LIMIT = 1e14


@dataclass(frozen=True)
class EllipticMap:
    d: int
    m: int
    entries: np.ndarray
    c0: float
    opnorm: float

    @property
    def tensor(self) -> np.ndarray:
        """entries reshaped to (m, d, m, d)."""
        m, d = self.m, self.d
        return self.entries.reshape(m, d, m, d)


def max_asymmetry(raw: np.ndarray):
    """Largest |raw - raw^T| entry and its index pair."""
    diff = np.abs(raw - raw.T)
    idx = np.unravel_index(np.argmax(diff), diff.shape)
    return float(diff[idx]), (int(idx[0]), int(idx[1]))


def validate_map(raw, d: int, m: int) -> EllipticMap:
    """Symmetrize within tolerance, compute the extreme eigenvalues, or reject."""
    raw = np.asarray(raw, dtype=np.float64)
    n = m * d
    if raw.shape != (n, n):
        raise ValueError("coefficient array must be %d x %d" % (n, n))
    sym = 0.5 * (raw + raw.T)
    eigs = np.linalg.eigvalsh(sym)
    opnorm = float(np.max(np.abs(eigs)))
    asym, idx = max_asymmetry(raw)
    if asym > SYMMETRY_TOL * max(opnorm, 1e-300):
        raise NotSymmetric(
            "entry (%d, %d) breaks symmetry by %.3e (tolerance %.1e of norm %.3e)"
            % (idx[0], idx[1], asym, SYMMETRY_TOL, opnorm)
        )
    c0 = float(eigs[0])
    if c0 <= 0.0:
        raise NotPositiveDefinite("smallest eigenvalue %.3e is not positive" % c0)
    return EllipticMap(d=d, m=m, entries=sym, c0=c0, opnorm=float(eigs[-1]))


def identity_map(d: int, m: int) -> EllipticMap:
    return validate_map(np.eye(m * d), d, m)


def _q_of(p: np.ndarray) -> np.ndarray:
    return np.exp(1j * p) - 1.0


def symbol_from_tensor(tensor: np.ndarray, p: np.ndarray) -> np.ndarray:
    """Symbol of an arbitrary (possibly complex) coefficient tensor at one p."""
    q = _q_of(np.asarray(p, dtype=np.float64))
    return np.einsum("j,rjsk,k->rs", np.conj(q), tensor, q)


def symbol_flat(tensor: np.ndarray, g: TorusGeometry) -> np.ndarray:
    """Symbols on the half grid of lattice.p_flat, shape (n, m, m); row 0
    is p = 0."""
    q = _q_of(p_flat(g))
    return np.einsum("fj,rjsk,fk->frs", np.conj(q), tensor, q)


def green_symbol(A: EllipticMap, g: TorusGeometry) -> MultiplierTable:
    """Chat(p) = Ahat(p)^-1 on the half-grid rows p != 0, Hermitian PD."""
    return MultiplierTable(g, green_from_body(symbol_flat(A.tensor, g)[1:]))


def green_from_body(body: np.ndarray) -> np.ndarray:
    """The Hermitian part of Ahat^-1 on the rows of a symbol body Ahat(p).

    Raises SingularSymbol when the body's conditioning exceeds COND_LIMIT.
    numpy's eigvalsh and inv make one LAPACK call per matrix, so m = 1
    reads the eigenvalue off the real part and inverts by 1/x, which give
    LAPACK's bits after the Hermitian part is taken.
    """
    scalar = body.shape[-1] == 1
    eigs = body.real if scalar else np.linalg.eigvalsh(body)
    lo = float(np.min(eigs))
    hi = float(np.max(eigs))
    if lo <= 0.0 or hi / lo > COND_LIMIT:
        raise SingularSymbol(
            "symbol family conditioning %.3e exceeds %.1e" % (hi / max(lo, 1e-300), COND_LIMIT)
        )
    return _hermitize(1.0 / body if scalar else np.linalg.inv(body))


def hermitian_sqrt_flat(flat: np.ndarray, context: str = "table", out=None) -> np.ndarray:
    """Batched Hermitian PSD square root, written into out if given;
    eigenvalues down to -1e-10 of each matrix's scale are clamped to zero,
    lower ones raise NotPSD.  A stack that is not Hermitian within 1e-12
    of its largest entry raises ValueError."""
    herm_defect = np.max(np.abs(flat - np.conj(np.swapaxes(flat, -1, -2))))
    if herm_defect > 1e-12 * max(float(np.max(np.abs(flat))), 1e-300):
        raise ValueError("matrix is not Hermitian within tolerance")
    w, U = np.linalg.eigh(flat)
    worst = float(np.min(w / np.maximum(np.max(np.abs(w), axis=-1, keepdims=True), 1e-300)))
    if worst < -1e-10:
        raise NotPSD("%s has eigenvalue %.3e of scale, below the -1e-10 floor" % (context, worst))
    Uh = np.conj(np.swapaxes(U, -1, -2))
    return np.matmul(U * np.sqrt(np.maximum(w, 0.0))[..., None, :], Uh, out=out)


def check_direction(raw: np.ndarray, bound: float, scale: float = 0.0) -> np.ndarray:
    """The symmetric part of a coefficient direction, or a rejection.

    Raises NotSymmetric when an entry breaks symmetry by more than
    SYMMETRY_TOL of max(max |raw|, scale), and ValueError when the
    operator norm exceeds bound (up to a relative 1e-12).
    """
    asym, idx = max_asymmetry(raw)
    if asym > SYMMETRY_TOL * max(float(np.max(np.abs(raw))), scale, 1e-300):
        raise NotSymmetric(
            "direction entry (%d, %d) breaks symmetry by %.3e" % (idx[0], idx[1], asym)
        )
    sym = 0.5 * (raw + raw.T)
    norm = float(np.max(np.abs(np.linalg.eigvalsh(sym)))) if np.any(sym) else 0.0
    if norm > bound * (1.0 + 1e-12):
        raise ValueError("direction norm %.3e exceeds %.3e" % (norm, bound))
    return sym


@dataclass(frozen=True)
class ComplexEllipticPath:
    """The affine family A(z) = A0 + z A1 on the open unit disc.

    The direction obeys the operator-norm bound |A1| <= c0(A0)/2, which
    keeps the form coercive (real part at least half the A0 energy) for
    every |z| < 1.
    """

    A0: EllipticMap
    A1: np.ndarray

    def __post_init__(self):
        A1 = np.asarray(self.A1, dtype=np.float64)
        n = self.A0.m * self.A0.d
        if A1.shape != (n, n):
            raise ValueError("direction must be %d x %d" % (n, n))
        A1 = check_direction(A1, 0.5 * self.A0.c0, scale=self.A0.opnorm)
        object.__setattr__(self, "A1", A1)

    @classmethod
    def from_direction(cls, A0: EllipticMap, direction) -> "ComplexEllipticPath":
        """Scale a unit-ball direction to the admissible radius c0/2."""
        direction = np.asarray(direction, dtype=np.float64)
        check_direction(direction, 1.0)
        return cls(A0=A0, A1=0.5 * A0.c0 * direction)

    @property
    def direction(self) -> np.ndarray:
        """The unit-ball direction this path was scaled from."""
        return self.A1 / (0.5 * self.A0.c0)

    def tensor_at(self, z: complex) -> np.ndarray:
        if abs(z) >= 1.0:
            raise OutsideDisc("|z| = %.6f is not inside the open unit disc" % abs(z))
        m, d = self.A0.m, self.A0.d
        ent = self.A0.entries.astype(np.complex128) + complex(z) * self.A1
        return ent.reshape(m, d, m, d)
