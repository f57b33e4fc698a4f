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
"""

from dataclasses import dataclass, field

import numpy as np

from .elliptic import EllipticMap, symbol_from_tensor
from .errors import (
    CubeTooLarge,
    FactorizationFailure,
    ShapeMismatch,
    TooLargeForOracle,
    ZeroFrequency,
)
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
    """m x m coupling block per site offset w with both ends in Q."""
    m, d = tensor.shape[0], tensor.shape[1]
    blocks = {}

    def add(w, blk):
        w = tuple(int(v) for v in w)
        if w in blocks:
            blocks[w] = blocks[w] + blk
        else:
            blocks[w] = blk

    diag = np.einsum("rjsj->rs", tensor) + np.einsum("rjsk->rs", tensor)
    add((0,) * d, diag)
    for c in range(d):
        e_c = np.zeros(d, dtype=int)
        e_c[c] = 1
        add(e_c, -np.einsum("rjs->rs", tensor[:, :, :, c]))
        add(-e_c, -np.einsum("rsk->rs", tensor[:, c, :, :]))
    for a in range(d):
        for b in range(d):
            if a == b:
                continue
            w = np.zeros(d, dtype=int)
            w[b] = 1
            w[a] = -1
            add(w, tensor[:, a, :, b])
    return blocks


@dataclass
class StiffnessFactor:
    """Local energy matrix over the cube interior."""

    cube: Cube
    tensor: np.ndarray = field(repr=False)
    matrix: np.ndarray = field(repr=False)
    n_sites: int
    m: int

    @property
    def n(self) -> int:
        return self.n_sites * self.m

    def solve(self, B: np.ndarray) -> np.ndarray:
        """K^-1 B for B of shape (n, k); complex right-hand sides allowed."""
        return np.linalg.solve(self.matrix, B)


def assemble_stiffness(A, cube: Cube) -> StiffnessFactor:
    """Assemble K over the interior sites of the cube.

    A may be an EllipticMap (real branch) or a complex (m, d, m, d)
    tensor.  Positive definiteness in the real branch is verified by a
    Cholesky factorization.  K is dense, so a cube with more than
    DENSE_LIMIT unknowns is rejected before assembly.
    """
    tensor = _coefficient_tensor(A)
    m, d = tensor.shape[0], tensor.shape[1]
    if cube.d != d:
        raise ShapeMismatch("cube dimension %d does not match coefficients %d" % (cube.d, d))
    if cube.interior_count * m > DENSE_LIMIT:
        raise CubeTooLarge(
            "cube l=%d has %d unknowns, above the dense limit %d"
            % (cube.l, cube.interior_count * m, DENSE_LIMIT)
        )
    sites = cube.interior
    n_sites = sites.shape[0]
    side = cube.l - 1
    index = np.ravel_multi_index((sites - 1).T, dims=(side,) * d)
    order = np.argsort(index)
    assert np.array_equal(index[order], np.arange(n_sites))

    is_complex = np.issubdtype(tensor.dtype, np.complexfloating)
    dtype = np.complex128 if is_complex else np.float64
    K4 = np.zeros((n_sites, m, n_sites, m), dtype=dtype)
    for w, blk in _offset_blocks(tensor).items():
        shifted = sites + np.asarray(w)
        ok = np.all((shifted >= 1) & (shifted <= side), axis=1)
        if not np.any(ok):
            continue
        rows = np.arange(n_sites)[ok]
        cols = np.ravel_multi_index((shifted[ok] - 1).T, dims=(side,) * d)
        K4[rows, :, cols, :] += blk
    K = K4.reshape(n_sites * m, n_sites * m)

    if not is_complex:
        try:
            np.linalg.cholesky(K)
        except np.linalg.LinAlgError as exc:
            raise FactorizationFailure(
                "stiffness Cholesky failed for cube l=%d: %s" % (cube.l, exc)
            ) from exc
    return StiffnessFactor(cube=cube, tensor=tensor, matrix=K, n_sites=n_sites, m=m)


def local_green_flat(factor: StiffnessFactor, g: TorusGeometry) -> np.ndarray:
    """Ghat_Q(p) for every frequency of g, shape (S^d, m, m).

    Ghat_Q(p)_{st} = sum_{z,z'} e^{i<p,z'-z>} K^-1[(z,s),(z',t)], so each
    entry of K^-1 is added into the torus slot w = z' - z mod S of the
    block kernel g(w), and one unnormalized inverse FFT evaluates
    sum_w e^{i<p,w>} g(w).  Every p lies in 2 pi Z^d / S, so folding w
    mod S is exact.  Row order matches lattice.p_flat.
    """
    m, S, F = factor.m, g.side, g.site_count
    sites = factor.cube.interior
    # Torus slot of w = z' - z for each pair (z, z'), ravelled like the site grid.
    slot = np.zeros((factor.n_sites, factor.n_sites), dtype=np.intp)
    for a in range(g.d):
        slot = slot * S + (sites[None, :, a] - sites[:, None, a]) % S
    slot = slot.ravel()
    Kinv = np.linalg.inv(factor.matrix).reshape(factor.n_sites, m, factor.n_sites, m)
    kernel = np.empty((F, m, m), dtype=np.complex128)
    for s in range(m):
        for t in range(m):
            entries = Kinv[:, s, :, t].ravel()
            kernel[:, s, t] = np.bincount(slot, entries.real, F) + 1j * np.bincount(
                slot, entries.imag, F
            )
    grid = kernel.reshape(g.site_shape + (m, m))
    return np.fft.ifftn(grid, axes=tuple(range(g.d)), norm="forward").reshape(F, m, m)


def projector_symbol(factor: StiffnessFactor, p) -> np.ndarray:
    """That(p) = l^-d Ghat_Q(p) Ahat(p) for a single frequency p != 0."""
    pv = np.asarray(p, dtype=np.float64)
    if np.allclose(pv, 0.0):
        raise ZeroFrequency("projector symbol undefined at p = 0")
    m = factor.m
    phi = np.exp(1j * (factor.cube.interior @ pv))
    W = np.einsum("z,st->zst", phi, np.eye(m)).reshape(factor.n, m)
    X = factor.solve(W).reshape(factor.n_sites, m, m)
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
    if cube.interior_count * g.m > DENSE_LIMIT:
        raise TooLargeForOracle(
            "cube unknowns %d exceed the dense limit %d" % (cube.interior_count * g.m, DENSE_LIMIT)
        )
    if cube.l - 1 >= g.side:
        raise ShapeMismatch("cube does not fit in the torus")
    factor = assemble_stiffness(A, cube)
    rhs_field = apply_elliptic(A, phi)
    sites = cube.interior
    site_sel = tuple(sites.T)
    # rhs[(z, s)] = (phi, delta_z e_s)_+ = (A-applied phi) at (s, z).
    rhs = np.stack([rhs_field.values[s][site_sel] for s in range(g.m)], axis=1)
    v = factor.solve(rhs.reshape(factor.n, 1)).reshape(factor.n_sites, g.m)
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
