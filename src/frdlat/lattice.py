"""Torus geometry, site and frequency indexing, distances, and cube sets.

The lattice is the d-fold product of Z/SZ with S = L^N, L odd.  Sites are
stored canonically with coordinates in {0,...,S-1}; the centered view in
{-(S-1)/2,...,(S-1)/2} is derived on demand.  Frequencies are indexed by
centered integer vectors n with p_j = 2*pi*n_j/S, so every component of p
lies in (-pi, pi).  Frequency stacks live on the rfftn half grid
(half_shape, p_flat), where the last index runs over 0..S//2.
"""

from dataclasses import dataclass

import numpy as np

from .errors import CubeTooLarge

# Largest dimension n of any dense n x n matrix the package builds: the dense
# cube stiffness K of the projector oracles, and the dense Green and
# covariance oracles.  At the limit one complex matrix takes 268 MB.  The
# layered cube solver of decompose, the jets and the contour oracle holds
# stacks of l - 1 blocks of b x b and allows (l - 1) b^2 <= DENSE_LIMIT^2
# words, the size of one dense matrix at the limit (projector.check_cube_size).
DENSE_LIMIT = 4096

# Largest torus site count S^d that TorusGeometry accepts.
MAX_SITES = 2 ** 24


@dataclass(frozen=True)
class TorusGeometry:
    """Shape of the periodic lattice: side S = L^N, d axes, m components."""

    d: int
    m: int
    L: int
    N: int

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("d must be >= 2")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.L < 3 or self.L % 2 == 0:
            raise ValueError("L must be an odd integer >= 3")
        count = 1
        for _ in range(self.N * self.d):  # never forms (L^N)^d for a huge N or d
            count *= self.L
            if count > MAX_SITES:
                raise ValueError("site count L^(N*d) = %d^%d exceeds the cap %d"
                                 % (self.L, self.N * self.d, MAX_SITES))

    @property
    def side(self) -> int:
        return self.L ** self.N

    @property
    def site_count(self) -> int:
        return self.side ** self.d

    @property
    def site_shape(self) -> tuple:
        return (self.side,) * self.d

    def field_shape(self) -> tuple:
        return (self.m,) + self.site_shape

    def gradient_shape(self) -> tuple:
        return (self.m, self.d) + self.site_shape

    def kernel_shape(self) -> tuple:
        return (self.m, self.m) + self.site_shape

    @property
    def half_shape(self) -> tuple:
        """The rfftn half grid of the site grid: the last index runs over
        0..S//2."""
        return self.site_shape[:-1] + (self.side // 2 + 1,)

    @property
    def half_count(self) -> int:
        """n = S^(d-1) (S+1)/2 frequencies on the half grid."""
        return self.site_count // self.side * (self.side // 2 + 1)


def oracle_fits(g: TorusGeometry) -> bool:
    """Whether the dense whole-torus oracles fit: site_count * m <= DENSE_LIMIT."""
    return g.site_count * g.m <= DENSE_LIMIT


def centered(coords, S: int):
    """Map canonical coordinates to the centered representative mod S."""
    c = np.asarray(coords)
    h = (S - 1) // 2
    return ((c + h) % S) - h


@dataclass(frozen=True)
class Cube:
    """The cube of one scale: its interior Q = {1,...,l-1}^d."""

    l: int
    d: int

    def __post_init__(self):
        if self.l < 2:
            raise ValueError("l must be >= 2")

    @property
    def interior(self) -> np.ndarray:
        """Sites of Q as an ((l-1)^d, d) array in lexicographic order."""
        grid = np.meshgrid(*([np.arange(1, self.l)] * self.d), indexing="ij")
        return np.stack([g.ravel() for g in grid], axis=-1)

    @property
    def interior_count(self) -> int:
        return (self.l - 1) ** self.d

    @property
    def volume(self) -> int:
        """Number of translates averaged over, l^d."""
        return self.l ** self.d


def cube(l: int, g: TorusGeometry) -> Cube:
    """Build the scale cube, rejecting sides that do not fit the torus."""
    if l - 1 >= g.side:
        raise CubeTooLarge("cube side %d does not fit in torus of side %d" % (l, g.side))
    return Cube(l=l, d=g.d)


def rho_inf(x, y, g: TorusGeometry) -> int:
    """Periodic sup-norm distance: min over images of max_i |x_i - y_i|."""
    delta = np.abs(centered(np.asarray(x) - np.asarray(y), g.side))
    return int(np.max(delta))


def rho_inf_grid(g: TorusGeometry) -> np.ndarray:
    """rho_inf(x, 0) on the canonical site grid, shape (S,)*d."""
    S = g.side
    line = np.abs(centered(np.arange(S), S))
    # One axis at a time from broadcast lines: no dense (S,)*d meshgrids.
    grid = line
    for _ in range(g.d - 1):
        grid = np.maximum(grid[..., None], line)
    return grid


def p_flat(g: TorusGeometry) -> np.ndarray:
    """Frequencies on the rfftn half grid g.half_shape, flattened C-order:
    shape (g.half_count, d).

    Row 0 is p = 0.  The plane where the last index is 0 holds both p and
    -p; every other p of the full grid is the -p of exactly one row.
    Every frequency stack of the package uses these rows, and its
    multiplier tables the rows from 1 (p != 0).
    """
    S = g.side
    line = 2.0 * np.pi * centered(np.arange(S), S) / S
    grids = np.meshgrid(*([line] * (g.d - 1) + [line[: S // 2 + 1]]), indexing="ij")
    return np.stack([a.ravel() for a in grids], axis=-1)


def p_norms(g: TorusGeometry) -> np.ndarray:
    """Euclidean |p| per half-grid frequency, flattened; entry 0 is 0."""
    return np.sqrt(np.sum(p_flat(g) ** 2, axis=-1))
