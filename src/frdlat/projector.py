"""The cube-local energy projection and its frequency-space symbols.

The local space is ALL fields supported in the open cube interior
Q = {1,...,l-1}^d, with no zero-mean side constraint: a constant supported
strictly inside the torus vanishes, so the energy form is definite there
and the projection is well posed.  Skipped scales are represented
explicitly by the decomposition layer, never by l = 2 stand-in cubes.
(The source material is ambiguous on whether the global zero-mean
constraint restricts to the local space; this implementation fixes the
support-only reading, which is the one the locality arguments use.)

The stiffness matrix K[(z,s),(z',s')] = <A grad(delta_{z'} e_{s'}),
grad(delta_z e_s)> couples nearest and diagonal neighbors only and is
independent of frequency.  The averaged-projection symbol is
That(p) = l^-d Ghat_Q(p) Ahat(p), where averaging the local projection
over every translate of Q is a convolution, so Ghat_Q is the Fourier
transform of one real-space m x m block kernel:

    Ghat_Q(p) = sum_w e^{i<p,w>} g(w),   g(w) = sum_z K^-1[z, z+w].

g vanishes for |w|_inf > l-2 by construction, which is where the finite
range of every scale kernel comes from.  projector_symbol evaluates the
same symbol at one frequency by the plane-wave quadratic form
(f_p e_s)|_Q^dagger K^-1 (f_p e_t)|_Q and serves as the independent
oracle for local_green_flat.

Along the family A0 + z A1 the stiffness is affine, K(z) = K0 + z K1.
stiffness_pencil factors K0 = L L^T once and diagonalizes
L^-1 K1 L^-T = U diag(lam) U^T, so K(z)^-1 = V diag(1/(1 + z lam)) V^T
with V = L^-T U, and each contour node costs two real products, the
shared fold and one FFT.  |A1| <= c0/2 gives |lam| <= 1/2, hence
|1 + z lam| >= 1/2 on the unit disc.  local_green_flat of the assembled
member is the oracle of the pencil.
"""

from dataclasses import dataclass, field

import numpy as np

from .elliptic import EllipticMap, symbol_from_tensor
from .errors import CubeTooLarge, FactorizationFailure, ShapeMismatch, ZeroFrequency
from .fields import Field, apply_elliptic
from .lattice import DENSE_LIMIT, Cube, TorusGeometry


def _coefficient_tensor(A) -> np.ndarray:
    if isinstance(A, EllipticMap):
        return A.tensor.astype(np.float64)
    tensor = np.asarray(A)
    if tensor.ndim == 2:
        # Infer (m, d) is impossible from a square array alone; require 4-d.
        raise ShapeMismatch("pass coefficients as a (m, d, m, d) tensor")
    if tensor.ndim != 4 or tensor.shape[0] != tensor.shape[2] or tensor.shape[1] != tensor.shape[3]:
        raise ShapeMismatch("coefficient tensor must have shape (m, d, m, d)")
    return tensor


def _offset_blocks(tensor: np.ndarray):
    """m x m coupling block per site offset w: 0, +-e_c and e_b - e_a (a != b),
    all distinct, so each entry of K takes exactly one block entry."""
    d = tensor.shape[1]
    unit = np.eye(d, dtype=int)
    blocks = {(0,) * d: np.einsum("rjsj->rs", tensor) + np.einsum("rjsk->rs", tensor)}
    for c in range(d):
        blocks[tuple(unit[c])] = -np.einsum("rjs->rs", tensor[:, :, :, c])
        blocks[tuple(-unit[c])] = -np.einsum("rsk->rs", tensor[:, c, :, :])
    for a in range(d):
        for b in range(d):
            if a != b:
                blocks[tuple(unit[b] - unit[a])] = tensor[:, a, :, b]
    return blocks


@dataclass
class StiffnessFactor:
    """Local energy matrix over the cube interior."""

    cube: Cube
    tensor: np.ndarray = field(repr=False)
    matrix: np.ndarray = field(repr=False)
    m: int

    def solve(self, B: np.ndarray) -> np.ndarray:
        """K^-1 B for B of shape (n, k); complex right-hand sides allowed."""
        return np.linalg.solve(self.matrix, B)


def check_cube_size(cube: Cube, m: int):
    """Reject a cube whose dense stiffness K has more than DENSE_LIMIT unknowns."""
    if cube.interior_count * m > DENSE_LIMIT:
        raise CubeTooLarge(
            "cube l=%d has %d unknowns, above the dense limit %d"
            % (cube.l, cube.interior_count * m, DENSE_LIMIT)
        )


def _cholesky(K: np.ndarray, cube: Cube) -> np.ndarray:
    """L with K = L L^T, or FactorizationFailure naming the cube side."""
    try:
        return np.linalg.cholesky(K)
    except np.linalg.LinAlgError as exc:
        raise FactorizationFailure(
            "stiffness Cholesky failed for cube l=%d: %s" % (cube.l, exc)
        ) from exc


def assemble_stiffness(A, cube: Cube) -> StiffnessFactor:
    """Assemble K over the interior sites of the cube.

    A may be an EllipticMap (real branch), whose positive definiteness
    is verified by a Cholesky factorization, or a raw (m, d, m, d)
    tensor, real or complex, assembled as given: a family member or a
    pencil direction.  K is dense, so a cube with more than DENSE_LIMIT
    unknowns is rejected before assembly.

    K is filled on the site grid, (side,)*d + (m,) + (side,)*d + (m,) with
    side = l - 1: one box per offset w, the site pairs (z, z + w) with both
    ends in Q, then reshaped to (n, n) in the row order of cube.interior.
    """
    checked = isinstance(A, EllipticMap)
    tensor = _coefficient_tensor(A)
    m, d = tensor.shape[0], tensor.shape[1]
    if cube.d != d:
        raise ShapeMismatch("cube dimension %d does not match coefficients %d" % (cube.d, d))
    check_cube_size(cube, m)
    side = cube.l - 1
    grid = (side,) * d + (m,)
    K = np.zeros(grid + grid, dtype=np.result_type(tensor, np.float64))
    for w, blk in _offset_blocks(tensor).items():
        z = np.ix_(*[np.arange(max(0, -wa), side - max(0, wa)) for wa in w])
        K[z + (slice(None),) + tuple(za + wa for za, wa in zip(z, w)) + (slice(None),)] += blk
    K = K.reshape(cube.interior_count * m, -1)

    if checked:
        _cholesky(K, cube)
    return StiffnessFactor(cube=cube, tensor=tensor, matrix=K, m=m)


def _fold_slots(cube: Cube, g: TorusGeometry) -> np.ndarray:
    """Torus slot of w = z' - z for each pair (z, z') of interior sites,
    ravelled like the site grid."""
    sites = cube.interior
    slot = np.zeros((sites.shape[0], sites.shape[0]), dtype=np.intp)
    for a in range(g.d):
        slot = slot * g.side + (sites[None, :, a] - sites[:, None, a]) % g.side
    return slot.ravel()


def _fold(inv_real: np.ndarray, inv_imag, slot: np.ndarray, g: TorusGeometry):
    """Ghat_Q over every frequency of g from the real and imaginary parts
    of K^-1 (each n x n; inv_imag is None for a real K): fold into the
    block kernel g(w), then one unnormalized inverse FFT."""
    m, F = g.m, g.site_count
    n_sites = inv_real.shape[0] // m
    re = inv_real.reshape(n_sites, m, n_sites, m)
    im = None if inv_imag is None else inv_imag.reshape(n_sites, m, n_sites, m)
    kernel = np.empty((F, m, m), dtype=np.complex128)
    for s in range(m):
        for t in range(m):
            kernel[:, s, t] = np.bincount(slot, re[:, s, :, t].ravel(), F)
            if im is not None:
                kernel[:, s, t] += 1j * np.bincount(slot, im[:, s, :, t].ravel(), F)
    grid = kernel.reshape(g.site_shape + (m, m))
    return np.fft.ifftn(grid, axes=tuple(range(g.d)), norm="forward").reshape(F, m, m)


def local_green_flat(factor: StiffnessFactor, g: TorusGeometry) -> np.ndarray:
    """Ghat_Q(p) for every frequency of g, shape (S^d, m, m).

    Ghat_Q(p)_{st} = sum_{z,z'} e^{i<p,z'-z>} K^-1[(z,s),(z',t)], so each
    entry of K^-1 is added into the torus slot w = z' - z mod S of the
    block kernel g(w), and one unnormalized inverse FFT evaluates
    sum_w e^{i<p,w>} g(w).  Every p lies in 2 pi Z^d / S, so folding w
    mod S is exact.  Row order matches lattice.p_flat.
    """
    # The slots' temporaries are freed before K^-1 is allocated.
    slot = _fold_slots(factor.cube, g)
    Kinv = np.linalg.inv(factor.matrix)
    return _fold(Kinv.real, Kinv.imag if np.iscomplexobj(Kinv) else None, slot, g)


@dataclass
class StiffnessPencil:
    """K(z) = K0 + z K1 of one cube, diagonalized once for a contour sweep.

    With K0 = L L^T and L^-1 K1 L^-T = U diag(lam) U^T, V = L^-T U gives
    K(z)^-1 = V diag(1 / (1 + z lam)) V^T, so a node costs two real GEMMs,
    the fold and one FFT instead of an assembly and a complex inverse.
    """

    cube: Cube
    geometry: TorusGeometry
    lam: np.ndarray = field(repr=False)
    V: np.ndarray = field(repr=False)
    slot: np.ndarray = field(repr=False)

    def green_flat(self, z: complex) -> np.ndarray:
        """Ghat_Q of the family member at z, as local_green_flat returns it."""
        w = 1.0 / (1.0 + complex(z) * self.lam)
        V = self.V
        return _fold((V * w.real) @ V.T, (V * w.imag) @ V.T, self.slot, self.geometry)


def stiffness_pencil(A0: EllipticMap, A1: np.ndarray, cube: Cube, g: TorusGeometry):
    """The pencil of A0 + z A1 on one cube; A1 is a real (m, d, m, d) tensor.

    Assembly is linear in the tensor, so K0 and K1 are assembled once.
    The Cholesky factor of K0 is the definiteness check and is reused for
    the reduction.  |A1| <= c0/2 bounds every |lam| by 1/2, which keeps
    |1 + z lam| >= 1/2 on the unit disc; a larger lam, or a failed
    Cholesky, raises FactorizationFailure.
    """
    K0 = assemble_stiffness(A0.tensor, cube).matrix
    K1 = assemble_stiffness(A1, cube).matrix
    Linv = np.linalg.inv(_cholesky(K0, cube))
    M = Linv @ K1 @ Linv.T
    lam, U = np.linalg.eigh(0.5 * (M + M.T))
    top = float(np.max(np.abs(lam)))
    if top > 0.5 * (1.0 + 1e-12):
        raise FactorizationFailure(
            "pencil eigenvalue %.6g exceeds 1/2 for cube l=%d" % (top, cube.l)
        )
    return StiffnessPencil(cube=cube, geometry=g, lam=lam, V=Linv.T @ U, slot=_fold_slots(cube, g))


def projector_symbol(factor: StiffnessFactor, p) -> np.ndarray:
    """That(p) = l^-d Ghat_Q(p) Ahat(p) for a single frequency p != 0."""
    pv = np.asarray(p, dtype=np.float64)
    if np.allclose(pv, 0.0):
        raise ZeroFrequency("projector symbol undefined at p = 0")
    m = factor.m
    phi = np.exp(1j * (factor.cube.interior @ pv))
    W = np.einsum("z,st->zst", phi, np.eye(m)).reshape(-1, m)
    X = factor.solve(W).reshape(-1, m, m)
    G = np.einsum("z,zst->st", np.conj(phi), X)
    Ahat = symbol_from_tensor(factor.tensor, pv)
    return (G @ Ahat) / factor.cube.volume


def oracle_projection(A, cube: Cube, phi: Field) -> Field:
    """The projection onto fields supported in Q, by direct dense solve.

    Small-torus oracle: the variational identity is solved with the cube
    stiffness and the result embedded back into the torus; the residual of
    the identity is re-checked and treated as a bug if violated.
    """
    g = phi.geometry
    if cube.l - 1 >= g.side:
        raise ShapeMismatch("cube does not fit in the torus")
    factor = assemble_stiffness(A, cube)
    rhs_field = apply_elliptic(A, phi)
    sites = cube.interior
    site_sel = tuple(sites.T)
    # rhs[(z, s)] = (phi, delta_z e_s)_+ = (A-applied phi) at (s, z).
    rhs = np.stack([rhs_field.values[s][site_sel] for s in range(g.m)], axis=1)
    v = factor.solve(rhs.reshape(-1, 1)).reshape(-1, g.m)
    out_vals = np.zeros(g.field_shape(), dtype=v.dtype)
    for s in range(g.m):
        out_vals[(s,) + site_sel] = v[:, s]
    out = Field(g, out_vals)
    resid_field = apply_elliptic(A, Field(g, out.values - phi.values))
    resid = max(
        float(np.max(np.abs(resid_field.values[s][site_sel]))) for s in range(g.m)
    )
    scale = max(1.0, float(np.max(np.abs(rhs))))
    if resid > 1e-9 * scale:
        raise FactorizationFailure(
            "projection residual %.3e violates the variational identity" % resid
        )
    return out
