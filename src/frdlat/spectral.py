"""Discrete Fourier transforms on the torus and the multiplier calculus.

Conventions: the forward transform is hat f(p) = sum_x e^{-i<p,x>} f(x) and
the inverse carries the S^-d factor, which is exactly numpy's fftn/ifftn
pair, so the transforms delegate to pocketfft (deterministic, handles the
odd composite sizes L^N).  Kernels live on the canonical site grid.

Multipliers are flat (S^d - 1, m, m) stacks over the frequencies p != 0,
in lattice.p_flat row order from row 1: all operators here act on
zero-mean fields, where constants vanish, so the p = 0 slot is zero by
construction and the kernel's additive-constant ambiguity is fixed
(kernels are stored in the canonical zero-mean gauge).  Only
multiplier_to_kernel embeds the zero row and moves to the grid.
"""

from dataclasses import dataclass

import numpy as np

from .errors import ImaginaryResidue, OrderTooHigh, ShapeMismatch
from .lattice import TorusGeometry

MAX_ORDER = 4
IMAG_TOL = 1e-10


@dataclass
class Kernel:
    """Real matrix-valued map on the torus, zero mean per entry."""

    geometry: TorusGeometry
    values: np.ndarray
    imag_residue: float = 0.0

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.float64)
        if self.values.shape != self.geometry.kernel_shape():
            raise ShapeMismatch(
                "kernel values %s do not match geometry %s"
                % (self.values.shape, self.geometry.kernel_shape())
            )


@dataclass
class MultiplierTable:
    """Complex m x m matrix per frequency p != 0, as an (S^d - 1, m, m) stack."""

    geometry: TorusGeometry
    values: np.ndarray

    def __post_init__(self):
        self.values = np.asarray(self.values, dtype=np.complex128)
        g = self.geometry
        shape = (g.site_count - 1, g.m, g.m)
        if self.values.shape != shape:
            raise ShapeMismatch(
                "multiplier values %s are not the p != 0 stack %s" % (self.values.shape, shape)
            )


def _site_axes(values: np.ndarray, g: TorusGeometry) -> tuple:
    return tuple(range(values.ndim - g.d, values.ndim))


def multiplier_to_kernel(M: MultiplierTable) -> Kernel:
    """Inverse transform, canonicalized to zero mean by the zero p = 0 slot.

    The reconstruction must be real: the residual imaginary part is
    recorded on the kernel and rejected beyond IMAG_TOL * max|entry|.
    """
    g = M.geometry
    grid = _grid_table(_embed_body(M.values, g), g)
    vals = np.fft.ifftn(grid, axes=_site_axes(grid, g))
    scale = max(float(np.max(np.abs(vals.real))), 1e-300)
    residue = float(np.max(np.abs(vals.imag)))
    if residue > IMAG_TOL * scale:
        raise ImaginaryResidue(
            "imaginary residue %.3e exceeds %.1e of max entry %.3e"
            % (residue, IMAG_TOL, scale)
        )
    return Kernel(g, vals.real.copy(), imag_residue=residue)


def kernel_derivative(K: Kernel, alpha) -> Kernel:
    """Iterated forward differences prod_i grad_i^alpha_i of the kernel."""
    g = K.geometry
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != g.d or any(a < 0 for a in alpha):
        raise ValueError("alpha must be %d nonnegative integers" % g.d)
    if sum(alpha) > MAX_ORDER:
        raise OrderTooHigh("|alpha| = %d exceeds max order %d" % (sum(alpha), MAX_ORDER))
    vals = K.values
    for i, a in enumerate(alpha):
        axis = 2 + i
        for _ in range(a):
            vals = np.roll(vals, -1, axis=axis) - vals
    return Kernel(g, vals)


def reflect_sites(values: np.ndarray, g: TorusGeometry) -> np.ndarray:
    """values at -x: flip each site axis and roll the origin back to slot 0."""
    out = values
    for axis in _site_axes(values, g):
        out = np.roll(np.flip(out, axis=axis), 1, axis=axis)
    return out


def pair_rows(g: TorusGeometry):
    """The rows of the p != 0 stack that come before the row of -p, and the
    -p row of each.  S is odd, so the two cover every row exactly once."""
    neg = reflect_sites(np.arange(g.site_count).reshape(g.site_shape), g).ravel()[1:] - 1
    rows = np.flatnonzero(np.arange(neg.shape[0]) < neg)
    return rows, neg[rows]


def unfold_pairs(half: np.ndarray, g: TorusGeometry) -> np.ndarray:
    """(..., H, m, m) pair-row stacks -> (..., S^d - 1, m, m), row -p the
    transpose of row p: the multiplier of a kernel with C(-x) = C(x)^T."""
    rows, partner = pair_rows(g)
    out = np.empty(half.shape[:-3] + (g.site_count - 1,) + half.shape[-2:], dtype=half.dtype)
    out[..., rows, :, :] = half
    out[..., partner, :, :] = np.swapaxes(half, -1, -2)
    return out


def _hermitize(X: np.ndarray) -> np.ndarray:
    """Hermitian part of each trailing m x m matrix."""
    return 0.5 * (X + np.conj(np.swapaxes(X, -1, -2)))


def stack_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b for (F, m, m) stacks.

    numpy's stacked matmul makes one BLAS call per m x m matrix, so the
    m-term sums are formed entry-wise over the whole stack; for m = 1
    that is the product a * b.
    """
    m = a.shape[-1]
    out = a[..., :, :1] * b[..., :1, :]
    for k in range(1, m):
        out += a[..., :, k : k + 1] * b[..., k : k + 1, :]
    return out


def series_mul(a: np.ndarray, b: np.ndarray, mul=np.matmul) -> np.ndarray:
    """The Cauchy product c_n = sum_{i<=n} mul(a_i, b_{n-i}) of two
    truncated power series whose terms run along axis -3, kept to the
    longer one's length J.  The shorter factor's terms drive the loop, so
    a factor with two terms (an affine family) costs two products."""
    J = max(a.shape[-3], b.shape[-3])
    if a.shape[-3] < b.shape[-3]:
        out = mul(a[..., :1, :, :], b)
        for i in range(1, a.shape[-3]):
            out[..., i:, :, :] += mul(a[..., i:i + 1, :, :], b[..., :J - i, :, :])
    else:
        out = mul(a, b[..., :1, :, :])
        for i in range(1, b.shape[-3]):
            out[..., i:, :, :] += mul(a[..., :J - i, :, :], b[..., i:i + 1, :, :])
    return out


def stack_inv(a: np.ndarray) -> np.ndarray:
    """The inverse of each m x m matrix of an (F, m, m) stack.

    numpy's inv makes one LAPACK call per matrix, so m = 1 is 1/x and
    m = 2 is the adjugate over the determinant, over the whole stack.
    Larger m goes through inv, on the finite matrices only.  A matrix
    holding a NaN, or with a zero determinant (singular, for m >= 3), has
    a non-finite inverse and raises nothing, so the doubling gate fails
    on it.
    """
    m = a.shape[-1]
    with np.errstate(divide="ignore", invalid="ignore"):
        if m == 1:
            return 1.0 / a
        if m == 2:
            rdet = 1.0 / (a[:, 0, 0] * a[:, 1, 1] - a[:, 0, 1] * a[:, 1, 0])
            out = np.empty_like(a)
            out[:, 0, 0] = a[:, 1, 1] * rdet
            out[:, 0, 1] = -a[:, 0, 1] * rdet
            out[:, 1, 0] = -a[:, 1, 0] * rdet
            out[:, 1, 1] = a[:, 0, 0] * rdet
            return out
    finite = np.isfinite(a).all(axis=(-2, -1))
    out = np.full(a.shape, np.nan, dtype=np.result_type(a, np.float64))
    try:
        out[finite] = np.linalg.inv(a[finite])
    except np.linalg.LinAlgError:  # a singular matrix: invert one at a time
        for i in np.flatnonzero(finite):
            try:
                out[i] = np.linalg.inv(a[i])
            except np.linalg.LinAlgError:
                pass
    return out


def _embed_body(body: np.ndarray, g: TorusGeometry) -> np.ndarray:
    """Flat (S^d - 1, m, m) rows for p != 0 -> (S^d, m, m) with row 0 zero."""
    out = np.zeros((g.site_count,) + body.shape[1:], dtype=np.complex128)
    out[1:] = body
    return out


def flat_table(values: np.ndarray, g: TorusGeometry) -> np.ndarray:
    """(m, m, *grid) -> (S^d, m, m), rows aligned with lattice.p_flat."""
    m = g.m
    moved = np.moveaxis(values, (0, 1), (-2, -1))
    return moved.reshape(g.site_count, m, m)


def _grid_table(flat: np.ndarray, g: TorusGeometry) -> np.ndarray:
    """(S^d, m, m) -> (m, m, *grid), inverse of flat_table."""
    m = g.m
    grid = flat.reshape(g.site_shape + (m, m))
    return np.moveaxis(grid, (-2, -1), (0, 1))


def spectral_norms(flat: np.ndarray, hermitian: bool = False) -> np.ndarray:
    """Operator 2-norm per frequency of a flat (F, m, m) stack.

    m = 1 is |entry|.  numpy's svd and eigvalsh make one LAPACK call per
    matrix, so m = 2 is in closed form over the whole stack: with squared
    column norms a_i = |c_i|^2 and b = <c_0, c_1>, the norm is
    sqrt((a_0 + a_1)/2 + hypot((a_0 - a_1)/2, |b|)).  With hermitian=True
    it is |(a + c)/2| + hypot((a - c)/2, |b|) for the diagonal a, c and the
    lower entry b, the triangle eigvalsh reads.  Every term is
    nonnegative, so nothing cancels.  Larger m goes through svd, or
    eigvalsh when hermitian, on the finite matrices only: LAPACK rejects a
    stack holding a NaN.  For every m a matrix with a NaN entry in the
    part read has a NaN norm, so the doubling gate fails on it.
    """
    m = flat.shape[-1]
    if m == 1:
        return np.abs(flat[..., 0, 0])
    if m == 2:
        if hermitian:
            a = flat[..., 0, 0].real
            c = flat[..., 1, 1].real
            return np.abs(0.5 * (a + c)) + np.hypot(0.5 * (a - c), np.abs(flat[..., 1, 0]))
        sq = np.square(np.abs(flat))
        a0 = sq[..., 0, 0] + sq[..., 1, 0]
        a1 = sq[..., 0, 1] + sq[..., 1, 1]
        b = np.conj(flat[..., 0, 0]) * flat[..., 0, 1] + np.conj(flat[..., 1, 0]) * flat[..., 1, 1]
        return np.sqrt(0.5 * (a0 + a1) + np.hypot(0.5 * (a0 - a1), np.abs(b)))
    finite = np.isfinite(flat).all(axis=(-2, -1))
    out = np.full(flat.shape[:-2], np.nan)
    if hermitian:
        out[finite] = np.max(np.abs(np.linalg.eigvalsh(flat[finite])), axis=-1)
    else:
        out[finite] = np.linalg.svd(flat[finite], compute_uv=False)[..., 0]
    return out
