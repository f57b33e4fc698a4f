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
built on request (StiffnessFactor.matrix) for the oracles only, up to
DENSE_LIMIT unknowns.  projector_symbol evaluates the same symbol at one
frequency by the plane-wave quadratic form
(f_p e_s)|_Q^dagger K^-1 (f_p e_t)|_Q and serves as the independent
oracle for local_green_flat.

Along the family A0 + z A1 the stiffness is affine, K(z) = K0 + z K1,
and keeps the layer structure of K0.  local_green_jets runs the same
Schur recursion in truncated power-series arithmetic on the b x b blocks
(spectral.series_mul), so it returns the first J Taylor coefficients of
Ghat_Q(z) at z = 0, exactly up to round-off: no quadrature, no dense K.
"""

from dataclasses import dataclass, field

import numpy as np

from .elliptic import EllipticMap, symbol_from_tensor
from .errors import CubeTooLarge, FactorizationFailure, ShapeMismatch, ZeroFrequency
from .fields import Field, apply_elliptic
from .lattice import DENSE_LIMIT, Cube, TorusGeometry
from .spectral import series_mul


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
        above DENSE_LIMIT unknowns, the one route that forms K."""
        layers, b = self.cube.l - 1, self.D.shape[0]
        if layers * b > DENSE_LIMIT:
            raise CubeTooLarge("cube l=%d has %d unknowns, above the dense limit %d"
                               % (self.cube.l, layers * b, DENSE_LIMIT))
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


def check_cube_size(cube: Cube, m: int):
    """Reject a cube too large for the layered route, before anything is
    assembled.

    Every cube route of the product formula (local_green_flat, real or
    complex, and local_green_jets) holds stacks of l - 1 blocks of b x b,
    n = (l-1)^d m unknowns and b = n / (l-1), and allows
    (l-1) b^2 <= DENSE_LIMIT^2 words: the size of one dense matrix at the
    limit.  Only StiffnessFactor.matrix, which the dense oracles use,
    forms K, and it checks n <= DENSE_LIMIT itself.
    """
    layers = cube.l - 1
    n = cube.interior_count * m
    words = layers * (n // layers) ** 2
    if words > DENSE_LIMIT ** 2:
        raise CubeTooLarge(
            "cube l=%d has %d layers of %d unknowns: %d words, above the layered limit %d"
            % (cube.l, layers, n // layers, words, DENSE_LIMIT ** 2)
        )


def _left_sweep(D: np.ndarray, E: np.ndarray, layers: int, invert, mul=np.matmul):
    """The left Schur complements A_1 = D, A_i = D - E^T A_{i-1}^-1 E of
    the layered K, returned as the stacks A_i^-1, shape (layers,) + D.shape,
    and W_i = -A_i^-1 E, shape (layers - 1,) + D.shape.  invert(A_i)
    returns A_i^-1 and may raise; mul is the product, so the same sweep
    runs on power series of blocks (series_mul)."""
    Ainv = np.empty((layers,) + D.shape, dtype=np.result_type(D, E))
    W = np.empty((layers - 1,) + D.shape, dtype=Ainv.dtype)
    Et = np.swapaxes(E, -1, -2)
    A = D
    for i in range(layers):
        Ainv[i] = invert(A)
        if i + 1 < layers:
            W[i] = -mul(Ainv[i], E)
            A = D + mul(Et, W[i])
    return Ainv, W


def _layer_sums(Ainv: np.ndarray, W: np.ndarray, mul=np.matmul) -> np.ndarray:
    """The sums Sigma_delta = sum_i G_{i,i+delta} of the layer blocks of
    K^-1 for |delta| <= layers - 1, stacked so that row layers - 1 + delta
    is Sigma_delta, from the recursion (A_i^-1, W_i) of _left_sweep (see
    local_green_flat); mul as in _left_sweep."""
    layers = Ainv.shape[0]
    G = np.empty_like(Ainv)
    G[-1] = Ainv[-1]
    for i in range(layers - 2, -1, -1):
        G[i] = Ainv[i] + mul(mul(W[i], G[i + 1]), np.swapaxes(W[i], -1, -2))
    sums = np.empty((2 * layers - 1,) + Ainv.shape[1:], dtype=G.dtype)
    sums[layers - 1] = G.sum(axis=0)
    for delta in range(1, layers):
        G = mul(W[: layers - delta], G[1:])
        sums[layers - 1 + delta] = G.sum(axis=0)
        sums[layers - 1 - delta] = np.swapaxes(sums[layers - 1 + delta], -1, -2)
    return sums


def _layer_slots(cube: Cube, g: TorusGeometry) -> np.ndarray:
    """Torus slot of each entry of the stacked Sigma_delta of _layer_sums:
    a pair of sites in layers i and i + delta has w = (delta, u' - u)."""
    layers, S = cube.l - 1, g.side
    in_layer = _fold_slots(Cube(l=cube.l, d=g.d - 1).interior, S).ravel()
    return ((np.arange(1 - layers, layers) % S)[:, None] * S ** (g.d - 1) + in_layer).ravel()


def assemble_stiffness(A, cube: Cube) -> StiffnessFactor:
    """Assemble the layer blocks D and E of K over the cube interior.

    A may be an EllipticMap (real branch), whose positive definiteness is
    verified: K is SPD if and only if every left Schur complement A_i is,
    so each A_i is Cholesky factored, a failure raises
    FactorizationFailure naming the cube side, and the recursion is kept
    for local_green_flat.  A raw (m, d, m, d) tensor, real or complex (a
    family member A0 + z A1, or A0 or A1 alone), is assembled as given.  A cube
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
    check_cube_size(cube, m)
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
            try:
                Linv = np.linalg.inv(np.linalg.cholesky(Ai))
            except np.linalg.LinAlgError as exc:
                raise FactorizationFailure(
                    "stiffness Cholesky failed for cube l=%d: %s" % (cube.l, exc)) from exc
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
    """Ghat_Q on the half grid of g (lattice.p_flat), shape (n, m, m),
    from the real and imaginary parts of blocks of K^-1 (each with rows
    over (site, s) and columns over (site', t); inv_imag is None for a real
    K): fold each entry into the block kernel g(w) at its ravelled slot.
    sum_w e^{i<p,w>} g(w) of a real part is conj rfftn of it, and the
    imaginary part adds i times its own."""
    m, F = g.m, g.site_count

    def transform(part):
        blocks = part.reshape(part.shape[0] // m, m, -1, m)
        kernel = np.empty((F, m, m))
        for s in range(m):
            for t in range(m):
                kernel[:, s, t] = np.bincount(slot, blocks[:, s, :, t].ravel(), F)
        hat = np.fft.rfftn(kernel.reshape(g.site_shape + (m, m)), axes=tuple(range(g.d)))
        return np.conj(hat).reshape(-1, m, m)

    if inv_imag is None:
        return transform(inv_real)
    return transform(inv_real) + 1j * transform(inv_imag)


def local_green_flat(factor: StiffnessFactor, g: TorusGeometry) -> np.ndarray:
    """Ghat_Q(p) on the rfftn half grid of g, shape (n, m, m), in the row
    order of lattice.p_flat.

    Ghat_Q(p)_{st} = sum_{z,z'} e^{i<p,z'-z>} K^-1[(z,s),(z',t)], so each
    entry of K^-1 belongs in the torus slot w = z' - z mod S of the block
    kernel g(w), and a conjugated rfftn evaluates sum_w e^{i<p,w>} g(w)
    (_fold).  Every p lies in 2 pi Z^d / S, so folding w mod S is exact.

    K^-1 is never formed.  With the left Schur recursion (A_i^-1, W_i) of
    _left_sweep (kept by the definiteness check, else formed here by LU),
    _layer_sums gets the layer blocks G_ij of K^-1 from

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
    sums = _layer_sums(Ainv, W).reshape(-1, b)
    slot = _layer_slots(factor.cube, g)
    return _fold(sums.real, sums.imag if np.iscomplexobj(sums) else None, slot, g)


def _series_inv(A: np.ndarray) -> np.ndarray:
    """The inverse of a truncated power series of blocks, shape (J, b, b):
    B_0 = A_0^-1 by LU, B_n = -B_0 sum_{i=1..n} A_i B_{n-i}."""
    B = np.empty_like(A)
    B[0] = np.linalg.inv(A[0])
    for n in range(1, A.shape[0]):
        B[n] = -(B[0] @ (A[1:n + 1] @ B[n - 1::-1]).sum(axis=0))
    return B


def local_green_jets(factor0: StiffnessFactor, factor1: StiffnessFactor, g: TorusGeometry,
                     J: int) -> np.ndarray:
    """The Taylor coefficients [z^n] Ghat_Q(z), n < J, at z = 0 of the
    family K(z) = K0 + z K1 of one cube, shape (n, J, m, m) with rows as
    in local_green_flat.

    D(z) = D0 + z D1 and E(z) = E0 + z E1, so _left_sweep and _layer_sums
    run unchanged on power series of b x b blocks truncated after J terms:
    a product is a Cauchy product (series_mul) and an inverse is
    _series_inv.  K0 and K1 are real, so every term is real, and each
    order's Sigma_delta is folded on its own.
    """
    layers, b = factor0.cube.l - 1, factor0.D.shape[0]
    D = np.zeros((max(J, 2), b, b))
    D[0], D[1] = factor0.D, factor1.D
    D, E = D[:J], np.stack([factor0.E, factor1.E])[:J]
    Ainv, W = _left_sweep(D, E, layers, _series_inv, series_mul)
    sums = _layer_sums(Ainv, W, series_mul)
    slot = _layer_slots(factor0.cube, g)
    return np.stack([_fold(sums[:, n].reshape(-1, b), None, slot, g) for n in range(J)], axis=1)


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
