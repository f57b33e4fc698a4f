"""Torus geometry, site and frequency indexing, distances, and cube sets.

The lattice is the d-fold product of Z/SZ with S = L^N, L odd.  Sites are
stored canonically with coordinates in {0,...,S-1}; the centered view in
{-(S-1)/2,...,(S-1)/2} is derived on demand.  Frequencies are indexed by
centered integer vectors n with p_j = 2*pi*n_j/S, so every component of p
lies in (-pi, pi).
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import CubeTooLarge

# Largest dimension n of any dense n x n matrix the package builds: the cube
# stiffness K and its inverse, and the dense Green and covariance oracles.
# At the limit one complex matrix takes 268 MB.
DENSE_LIMIT = 4096


@dataclass(frozen=True)
class TorusGeometry:
    """Shape of the periodic lattice: side S = L^N, d axes, m components."""

    d: int
    m: int
    L: int
    N: int
    max_sites: int = field(default=2 ** 24, repr=False)

    def __post_init__(self):
        if self.d < 2:
            raise ValueError("d must be >= 2")
        if self.m < 1:
            raise ValueError("m must be >= 1")
        if self.N < 1:
            raise ValueError("N must be >= 1")
        if self.L < 3 or self.L % 2 == 0:
            raise ValueError("L must be an odd integer >= 3")
        if self.site_count > self.max_sites:
            raise ValueError(
                "site count %d exceeds the cap %d" % (self.site_count, self.max_sites)
            )

    @property
    def side(self) -> int:
        return self.L ** self.N

    # Alias matching the S notation used throughout.
    @property
    def S(self) -> int:
        return self.side

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


def centered(coords, S: int):
    """Map canonical coordinates to the centered representative mod S."""
    c = np.asarray(coords)
    h = (S - 1) // 2
    return ((c + h) % S) - h


def canonical(coords, S: int):
    """Map any integer coordinates to {0,...,S-1} mod S."""
    return np.mod(np.asarray(coords), S)


@dataclass(frozen=True)
class SiteIndex:
    """A lattice site; coords are canonical, centered view derived."""

    coords: tuple
    S: int

    def __post_init__(self):
        c = tuple(int(v) % self.S for v in self.coords)
        object.__setattr__(self, "coords", c)

    @property
    def centered(self) -> tuple:
        return tuple(int(v) for v in centered(np.array(self.coords), self.S))


@dataclass(frozen=True)
class FrequencyIndex:
    """A dual-lattice point, indexed by the centered integer vector n."""

    n: tuple
    S: int

    def __post_init__(self):
        h = (self.S - 1) // 2
        n = tuple(int(v) for v in self.n)
        if any(abs(v) > h for v in n):
            raise ValueError("frequency index outside the centered window")
        object.__setattr__(self, "n", n)

    @property
    def p(self) -> tuple:
        return tuple(2.0 * np.pi * v / self.S for v in self.n)

    @property
    def is_zero(self) -> bool:
        return all(v == 0 for v in self.n)


@dataclass(frozen=True)
class Cube:
    """The cube family of one scale: interior Q, lower closure, full closure.

    Q = {1,...,l-1}^d, Q_minus = {0,...,l-1}^d, closure = {0,...,l}^d.
    """

    l: int
    d: int

    def __post_init__(self):
        if self.l < 2:
            raise ValueError("l must be >= 2")

    def _box(self, lo: int, hi: int) -> np.ndarray:
        axes = [np.arange(lo, hi + 1)] * self.d
        grid = np.meshgrid(*axes, indexing="ij")
        return np.stack([g.ravel() for g in grid], axis=-1)

    @property
    def interior(self) -> np.ndarray:
        """Sites of Q as an ((l-1)^d, d) array in lexicographic order."""
        return self._box(1, self.l - 1)

    @property
    def lower(self) -> np.ndarray:
        """Sites of Q_minus as an (l^d, d) array."""
        return self._box(0, self.l - 1)

    @property
    def closure(self) -> np.ndarray:
        """Sites of the closed cube {0,...,l}^d."""
        return self._box(0, self.l)

    @property
    def interior_count(self) -> int:
        return (self.l - 1) ** self.d

    @property
    def volume(self) -> int:
        """Number of translates averaged over, l^d."""
        return self.l ** self.d


def cube(l: int, g: TorusGeometry) -> Cube:
    """Build the scale cube, rejecting sides that do not fit the torus."""
    if l < 2:
        raise ValueError("l must be >= 2")
    if l - 1 >= g.side:
        raise CubeTooLarge("cube side %d does not fit in torus of side %d" % (l, g.side))
    return Cube(l=l, d=g.d)


def rho_inf(x, y, g: TorusGeometry) -> int:
    """Periodic sup-norm distance: min over images of max_i |x_i - y_i|."""
    xc = np.asarray(x.coords if isinstance(x, SiteIndex) else x)
    yc = np.asarray(y.coords if isinstance(y, SiteIndex) else y)
    delta = np.abs(centered(xc - yc, g.side))
    return int(np.max(delta))


def dist_inf(sites_a, sites_b, g: TorusGeometry) -> int:
    """min over pairs of rho_inf; arguments are iterables of sites."""
    best = None
    for a in sites_a:
        for b in sites_b:
            r = rho_inf(a, b, g)
            if best is None or r < best:
                best = r
    if best is None:
        raise ValueError("dist_inf of an empty site set")
    return best


def dual_frequencies(g: TorusGeometry):
    """All S^d frequencies, ordered lexicographically by the centered n."""
    h = (g.side - 1) // 2
    axes = [np.arange(-h, h + 1)] * g.d
    grid = np.meshgrid(*axes, indexing="ij")
    ns = np.stack([a.ravel() for a in grid], axis=-1)
    return [FrequencyIndex(tuple(int(v) for v in row), g.side) for row in ns]


def rho_inf_grid(g: TorusGeometry) -> np.ndarray:
    """rho_inf(x, 0) on the canonical site grid, shape (S,)*d."""
    S = g.side
    line = np.abs(centered(np.arange(S), S))
    grids = np.meshgrid(*([line] * g.d), indexing="ij")
    return np.maximum.reduce(grids)


def p_flat(g: TorusGeometry) -> np.ndarray:
    """Frequencies on the canonical grid, flattened C-order: shape (S^d, d).

    Row 0 is p = 0; row order matches ravelling the canonical grid, so
    tables stored on the grid align with this enumeration after reshape.
    """
    S = g.side
    line = 2.0 * np.pi * centered(np.arange(S), S) / S
    grids = np.meshgrid(*([line] * g.d), indexing="ij")
    return np.stack([a.ravel() for a in grids], axis=-1)


def p_norms(g: TorusGeometry) -> np.ndarray:
    """Euclidean |p| per canonical-grid frequency, flattened; entry 0 is 0."""
    return np.sqrt(np.sum(p_flat(g) ** 2, axis=-1))
