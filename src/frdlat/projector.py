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
range of every scale kernel comes from.  K is never dense on the main
path: it is block tridiagonal along the cube's first axis, so
assemble_stiffness keeps its layer blocks D and E, and local_green_flat
gets the layer-distance sums of K^-1 from b x b Schur recursions, with
b = (l-1)^(d-1) m (check_cube_size bounds their size).  The dense K is
built on request (StiffnessFactor.matrix) for the pencil and the oracles,
up to DENSE_LIMIT unknowns.  projector_symbol evaluates the
same symbol at one frequency by the plane-wave quadratic form
(f_p e_s)|_Q^dagger K^-1 (f_p e_t)|_Q and serves as the independent
oracle for local_green_flat.

Along the family A0 + z A1 the stiffness is affine, K(z) = K0 + z K1.
stiffness_pencil factors K0 = L L^T once and diagonalizes
L^-1 K1 L^-T = U diag(lam) U^T, so K(z)^-1 = sum_i v_i v_i^T / (1 + z lam_i)
with v_i the columns of V = L^-T U.  |A1| <= c0/2 gives |lam| <= 1/2, so
|z lam| < 1/2 on the unit disc and the block kernel is a power series
g_z = sum_j z^j g_j whose terms fall by 2^-j.  The pencil keeps the first
J = JET_ORDER = 64 terms, which leaves a tail below 2 * 2^-64 of the
kernel.  Every offset lies in a circular window of side P = min(S, 2l - 3)
per axis, and g_j(-u) = g_j(u)^T, so the jets are kept on half the window:
J m^2 (P^d + 1)/2 words and an S x P matrix, where V and the fold slots
of a dense K(z)^-1 would take n^2 + n^2/m^2 words (n = (l-1)^d m).  Each g_j is
a sum of eigenvector autocorrelations, built by rfftn one cube layer of
eigenvectors at a time.  A contour node then costs one length-J product,
a scatter onto the window and d products with the S x P matrix
e^{i p u} of one axis, which sum over the window one axis at a time; on
every size measured that was several times cheaper than an FFT of the
torus.  local_green_flat of the assembled member is the oracle of the
pencil.
"""

from dataclasses import dataclass, field

import numpy as np

from .elliptic import EllipticMap, symbol_from_tensor
from .errors import CubeTooLarge, FactorizationFailure, ShapeMismatch, ZeroFrequency
from .fields import Field, apply_elliptic
from .lattice import DENSE_LIMIT, Cube, TorusGeometry

# Taylor jets a stiffness pencil keeps: with |z lam| < 1/2 the dropped
# tail is below 2 * 2^-JET_ORDER of the kernel.
JET_ORDER = 64


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
    """Local energy matrix K over the cube interior, kept by layers.

    Along the cube's first axis K is block tridiagonal: every layer of
    b = (l-1)^(d-1) m unknowns has the diagonal block D, and each pair of
    neighbouring layers couples through E = K[layer i, layer i+1], with
    K[layer i+1, layer i] = E^T because K is symmetric.  The one-layer
    cube, l = 2, never uses E.  sweep holds the left Schur recursion of
    _left_sweep when the definiteness check computed it, else None.
    """

    cube: Cube
    tensor: np.ndarray = field(repr=False)
    m: int
    D: np.ndarray = field(repr=False)
    E: np.ndarray = field(repr=False)
    sweep: tuple = field(default=None, repr=False)

    @property
    def matrix(self) -> np.ndarray:
        """The dense K, built from D and E on each access; CubeTooLarge
        above DENSE_LIMIT unknowns."""
        check_cube_size(self.cube, self.m, dense=True)
        layers, b = self.cube.l - 1, self.D.shape[0]
        K = np.zeros((layers, b, layers, b), dtype=self.D.dtype)
        i = np.arange(layers)
        K[i, :, i, :] = self.D
        K[i[:-1], :, i[1:], :] = self.E
        K[i[1:], :, i[:-1], :] = self.E.T
        return K.reshape(layers * b, layers * b)

    def solve(self, B: np.ndarray) -> np.ndarray:
        """K^-1 B for B of shape (n, k) by a dense solve; complex
        right-hand sides allowed, and solved in real arithmetic when K is
        real."""
        K = self.matrix
        if np.iscomplexobj(K) or not np.iscomplexobj(B):
            return np.linalg.solve(K, B)
        X = np.linalg.solve(K, np.concatenate([B.real, B.imag], axis=1))
        return X[:, : B.shape[1]] + 1j * X[:, B.shape[1]:]


def check_cube_size(cube: Cube, m: int, dense: bool):
    """Reject a cube too large for its route, before anything is assembled.

    The dense route (the stiffness pencil and the oracles) forms K, so it
    allows n = (l-1)^d m <= DENSE_LIMIT unknowns.  The layered route
    (assemble_stiffness and local_green_flat) holds stacks of l - 1 blocks
    of b x b, b = n / (l-1), and allows (l-1) b^2 <= DENSE_LIMIT^2 words:
    the size of one dense matrix at the limit.
    """
    layers = cube.l - 1
    n = cube.interior_count * m
    if dense and n > DENSE_LIMIT:
        raise CubeTooLarge(
            "cube l=%d has %d unknowns, above the dense limit %d" % (cube.l, n, DENSE_LIMIT)
        )
    words = layers * (n // layers) ** 2
    if words > DENSE_LIMIT ** 2:
        raise CubeTooLarge(
            "cube l=%d has %d layers of %d unknowns: %d words, above the layered limit %d"
            % (cube.l, layers, n // layers, words, DENSE_LIMIT ** 2)
        )


def _cholesky(K: np.ndarray, cube: Cube) -> np.ndarray:
    """L with K = L L^T, or FactorizationFailure naming the cube side."""
    try:
        return np.linalg.cholesky(K)
    except np.linalg.LinAlgError as exc:
        raise FactorizationFailure(
            "stiffness Cholesky failed for cube l=%d: %s" % (cube.l, exc)
        ) from exc


def _left_sweep(D: np.ndarray, E: np.ndarray, layers: int, invert):
    """The left Schur complements A_1 = D, A_i = D - E^T A_{i-1}^-1 E of
    the layered K, returned as the stacks A_i^-1, shape (layers, b, b),
    and W_i = -A_i^-1 E, shape (layers - 1, b, b).  invert(A_i) returns
    A_i^-1 and may raise."""
    Ainv = np.empty((layers,) + D.shape, dtype=np.result_type(D, E))
    W = np.empty((layers - 1,) + D.shape, dtype=Ainv.dtype)
    A = D
    for i in range(layers):
        Ainv[i] = invert(A)
        if i + 1 < layers:
            W[i] = -(Ainv[i] @ E)
            A = D + E.T @ W[i]
    return Ainv, W


def assemble_stiffness(A, cube: Cube) -> StiffnessFactor:
    """Assemble the layer blocks D and E of K over the cube interior.

    A may be an EllipticMap (real branch), whose positive definiteness is
    verified: K is SPD if and only if every left Schur complement A_i is,
    so each A_i is Cholesky factored, a failure raises
    FactorizationFailure naming the cube side, and the recursion is kept
    for local_green_flat.  A raw (m, d, m, d) tensor, real or complex (a
    family member or a pencil direction), is assembled as given.  A cube
    above the layered size limit is rejected before assembly.

    D and E come from K on a two-layer box, the site grid
    (2,) + (l-1,)*(d-1) + (m,) twice: one box scatter per offset w adds
    its block at the site pairs (z, z + w) with both ends in the box, and
    the grid is reshaped to (2b, 2b) in the row order of cube.interior.
    """
    checked = isinstance(A, EllipticMap)
    tensor = _coefficient_tensor(A)
    m, d = tensor.shape[0], tensor.shape[1]
    if cube.d != d:
        raise ShapeMismatch("cube dimension %d does not match coefficients %d" % (cube.d, d))
    check_cube_size(cube, m, dense=False)
    layers = cube.l - 1
    box = (2,) + (layers,) * (d - 1)
    K = np.zeros(box + (m,) + box + (m,), dtype=np.result_type(tensor, np.float64))
    for w, blk in _offset_blocks(tensor).items():
        z = np.ix_(*[np.arange(max(0, -wa), side - max(0, wa)) for wa, side in zip(w, box)])
        K[z + (slice(None),) + tuple(za + wa for za, wa in zip(z, w)) + (slice(None),)] += blk
    b = layers ** (d - 1) * m
    K = K.reshape(2 * b, 2 * b)
    factor = StiffnessFactor(cube=cube, tensor=tensor, m=m, D=K[:b, :b].copy(), E=K[:b, b:].copy())
    if checked:
        def spd_inverse(Ai):
            Linv = np.linalg.inv(_cholesky(Ai, cube))
            return Linv.T @ Linv

        factor.sweep = _left_sweep(factor.D, factor.E, layers, spd_inverse)
    return factor


def _fold_slots(sites: np.ndarray, S: int) -> np.ndarray:
    """Torus slot of w = z' - z mod S for each pair (z, z') of sites, an
    (n_sites, n_sites) array; the slot ravels the site grid of the axes
    sites covers."""
    slot = np.zeros((sites.shape[0], sites.shape[0]), dtype=np.intp)
    for a in range(sites.shape[1]):
        slot = slot * S + (sites[None, :, a] - sites[:, None, a]) % S
    return slot


def _fold(inv_real: np.ndarray, inv_imag, slot: np.ndarray, g: TorusGeometry):
    """Ghat_Q over every frequency of g from the real and imaginary parts
    of blocks of K^-1 (each with rows over (site, s) and columns over
    (site', t); inv_imag is None for a real K): fold each entry into the
    block kernel g(w) at its ravelled slot, then one unnormalized inverse
    FFT."""
    m, F = g.m, g.site_count
    re = inv_real.reshape(inv_real.shape[0] // m, m, -1, m)
    im = None if inv_imag is None else inv_imag.reshape(re.shape)
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
    entry of K^-1 belongs in the torus slot w = z' - z mod S of the block
    kernel g(w), and one unnormalized inverse FFT evaluates
    sum_w e^{i<p,w>} g(w).  Every p lies in 2 pi Z^d / S, so folding w
    mod S is exact.  Row order matches lattice.p_flat.

    K^-1 is never formed.  With the left Schur recursion (A_i^-1, W_i) of
    _left_sweep (kept by the definiteness check, else formed here by LU),
    the layer blocks G_ij of K^-1 follow from

        G_nn = A_n^-1,   G_ii = A_i^-1 + W_i G_{i+1,i+1} W_i^T,
        G_{i,i+delta} = W_i G_{i+1,i+delta},

    one batched product per delta.  Only their sums over i are needed:
    Sigma_delta = sum_i G_{i,i+delta} and Sigma_{-delta} = Sigma_delta^T
    (transposes, not conjugates, so a complex symmetric K works too).
    A pair of sites in layers i and i + delta has w = (delta, u' - u), so
    Sigma_delta folds over the in-layer site pairs (u, u').
    """
    layers, b = factor.cube.l - 1, factor.D.shape[0]
    if factor.sweep is None:
        Ainv, W = _left_sweep(factor.D, factor.E, layers, np.linalg.inv)
    else:
        Ainv, W = factor.sweep
    G = np.empty_like(Ainv)
    G[-1] = Ainv[-1]
    for i in range(layers - 2, -1, -1):
        G[i] = Ainv[i] + W[i] @ G[i + 1] @ W[i].T
    # sums[layers - 1 + delta] is Sigma_delta, for |delta| <= layers - 1.
    sums = np.empty((2 * layers - 1, b, b), dtype=G.dtype)
    sums[layers - 1] = G.sum(axis=0)
    for delta in range(1, layers):
        G = W[: layers - delta] @ G[1:]
        sums[layers - 1 + delta] = G.sum(axis=0)
        sums[layers - 1 - delta] = sums[layers - 1 + delta].T
    S = g.side
    in_layer = _fold_slots(Cube(l=factor.cube.l, d=g.d - 1).interior, S).ravel()
    slot = ((np.arange(1 - layers, layers) % S)[:, None] * S ** (g.d - 1) + in_layer).ravel()
    sums = sums.reshape(-1, b)
    return _fold(sums.real, sums.imag if np.iscomplexobj(sums) else None, slot, g)


@dataclass
class StiffnessPencil:
    """K(z) = K0 + z K1 of one cube, reduced once for a contour sweep to
    the Taylor jets of its folded block kernel.

    With K0 = L L^T, L^-1 K1 L^-T = U diag(lam) U^T and V = L^-T U,
    K(z)^-1 = sum_i v_i v_i^T / (1 + z lam_i), so the block kernel is

        g_z(u) = sum_j z^j g_j(u),   g_j(u) = sum_i (-lam_i)^j a_i(u),

    where a_i(u)_{st} = sum_x v_i(x, s) v_i(x + u, t) is the
    autocorrelation of eigenvector i.  Every offset u lies in the
    circular window of side P = min(S, 2l - 3) per axis, and
    g_j(-u) = g_j(u)^T, so jets holds g_0..g_{J-1} on the half window:
    row j is g_j at the window sites keep (u = 0 and one of each pair
    u, -u), each an m x m block.  mirror holds the window site of -u for
    each kept u, and dft the (S, P) matrix e^{i p_n u} of one axis.
    |lam| <= 1/2 and |z| < 1 bound the dropped tail by
    sum_{j>=J} 2^-j = 2 * 2^-J of sum_i |a_i|.
    """

    cube: Cube
    geometry: TorusGeometry
    lam: np.ndarray = field(repr=False)
    jets: np.ndarray = field(repr=False)
    keep: np.ndarray = field(repr=False)
    mirror: np.ndarray = field(repr=False)
    dft: np.ndarray = field(repr=False)

    def green_flat(self, z: complex) -> np.ndarray:
        """Ghat_Q of the family member at z, as local_green_flat returns it:
        one length-J product gives g_z on the half window, the transposes
        fill the other half, and the sum over the window runs one axis at a
        time, each a product with dft."""
        g = self.geometry
        m, P = g.m, self.dft.shape[1]
        zj = np.power(complex(z), np.arange(self.jets.shape[0]))
        half = (zj.real @ self.jets + 1j * (zj.imag @ self.jets)).reshape(-1, m, m)
        X = np.empty((P ** g.d, m, m), dtype=np.complex128)
        X[self.keep] = half
        X[self.mirror] = np.swapaxes(half, 1, 2)
        for _ in range(g.d):
            # The leading axis, a window axis, becomes the last, a frequency axis.
            X = X.reshape(P, -1).T @ self.dft.T
        return X.reshape(m, m, g.site_count).transpose(2, 0, 1)


def _window(cube: Cube, S: int):
    """The circular window, of side P = min(S, 2l - 3) per axis, of the
    offsets u of two sites of the cube: the window sites kept (u = 0 and
    the first of each pair u, -u, in C order), the window site of -u for
    each, and the (S, P) matrix e^{2 pi i n u_w / S} from the offsets u_w
    of one axis to the torus frequencies n.  Both ends lie in an interval
    of l - 1 sites, so |u_a| <= l - 2: P = 2l - 3 holds each offset once,
    and P = S folds them mod S as the torus does."""
    P = min(S, 2 * cube.l - 3)
    shape = (P,) * cube.d
    w = np.arange(P)
    offset = np.where(w <= cube.l - 2, w, w - P)
    sites = np.unravel_index(np.arange(P ** cube.d), shape)
    neg = np.ravel_multi_index(tuple((P - a) % P for a in sites), shape)
    keep = np.flatnonzero(np.arange(P ** cube.d) <= neg)
    dft = np.exp(2j * np.pi * (np.outer(np.arange(S), offset) % S) / S)
    return keep, neg[keep], dft


def _autocorrelation_jets(V: np.ndarray, lam: np.ndarray, cube: Cube, m: int,
                          keep: np.ndarray, P: int):
    """g_j(u) = sum_i (-lam_i)^j a_i(u) for j < JET_ORDER at the window
    sites keep of the window of side P, shape (JET_ORDER, len(keep) m^2).

    a_i is the irfftn of conj(vhat_s) vhat_t, where vhat is the rfftn of
    eigenvector i zero padded to P per axis (its sites 1..l-1 shift to
    0..l-2, which leaves offsets alone).  The eigenvectors go in blocks of
    b = n / (l-1), one cube layer, and the jets take each block's a_i in
    chunks of at most b rows, so no temporary outgrows one block.
    """
    d, side = cube.d, cube.l - 1
    n = V.shape[0]
    b = n // side
    powers = np.power(-lam, np.arange(JET_ORDER)[:, None])
    jets = np.zeros((JET_ORDER, keep.shape[0] * m * m))
    for start in range(0, n, b):
        fields = V[:, start:start + b].T.reshape((b,) + (side,) * d + (m,))
        spec = np.fft.rfftn(fields, s=(P,) * d, axes=range(1, d + 1))
        a = np.fft.irfftn(np.conj(spec[..., :, None]) * spec[..., None, :], s=(P,) * d,
                          axes=range(1, d + 1)).reshape(b, -1, m, m)
        a = a[:, keep].reshape(b, -1)
        for j in range(0, JET_ORDER, b):
            jets[j:j + b] += powers[j:j + b, start:start + b] @ a
    return jets


def _pencil_modes(A0: EllipticMap, A1: np.ndarray, cube: Cube):
    """lam and the columns of V = L^-T U, with K0 = L L^T and
    L^-1 K1 L^-T = U diag(lam) U^T; the dense K0 and K1 end here."""
    K0 = assemble_stiffness(A0.tensor, cube).matrix
    K1 = assemble_stiffness(A1, cube).matrix
    Linv = np.linalg.inv(_cholesky(K0, cube))
    M = Linv @ K1 @ Linv.T
    lam, U = np.linalg.eigh(0.5 * (M + M.T))
    return lam, Linv.T @ U


def stiffness_pencil(A0: EllipticMap, A1: np.ndarray, cube: Cube, g: TorusGeometry):
    """The pencil of A0 + z A1 on one cube; A1 is a real (m, d, m, d) tensor.

    Assembly is linear in the tensor, so K0 and K1 are assembled once.
    The Cholesky factor of K0 is the definiteness check and is reused for
    the reduction.  |A1| <= c0/2 bounds every |lam| by 1/2, which keeps
    |z lam| < 1/2 on the unit disc; a larger lam, or a failed Cholesky,
    raises FactorizationFailure.  The dense matrices are temporaries: the
    pencil keeps lam and the jets.
    """
    lam, V = _pencil_modes(A0, A1, cube)
    top = float(np.max(np.abs(lam)))
    if top > 0.5 * (1.0 + 1e-12):
        raise FactorizationFailure(
            "pencil eigenvalue %.6g exceeds 1/2 for cube l=%d" % (top, cube.l)
        )
    keep, mirror, dft = _window(cube, g.side)
    return StiffnessPencil(cube=cube, geometry=g, lam=lam, keep=keep, mirror=mirror, dft=dft,
                           jets=_autocorrelation_jets(V, lam, cube, g.m, keep, dft.shape[1]))


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
