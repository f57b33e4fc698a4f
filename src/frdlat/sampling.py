"""Spectral sampling of the scale fields and empirical covariance checks.

Each sample draws complex standard Gaussians on a half-set of nonzero
frequencies, mirrors them so zeta_hat(-p) = conj zeta_hat(p) exactly,
colors with the Hermitian root of the scale multiplier, and inverse
transforms.  Streams are keyed by (seed, scale, sample index) through a
counter-based generator, so any sample can be regenerated in isolation
and thread scheduling cannot change the draw.

The scale fields are independent and the total field is their sum, so
run_sampling_suite draws every (scale, sample index) once and feeds the
per-scale estimators, the total estimator and the gradient range checks
from that one draw.  Every estimator is reduced in fixed-size batches
whose partial sums are combined in batch-index order, which makes
multi-threaded runs bitwise identical to single-threaded ones.
"""

from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from .decomposition import DecompositionResult
from .elliptic import hermitian_sqrt_flat
from .errors import EmptyFarRegion, FactorizationFailure, ImaginaryResidue, TooLargeForOracle
from .fields import Field
from .lattice import DENSE_LIMIT, TorusGeometry, centered, rho_inf_grid
from .spectral import Kernel, _hermitize, flat_table, spectral_norms

BATCH = 256
ROOT_TOL = 1e-10
REAL_TOL = 1e-10


def _half_set(g: TorusGeometry):
    """Flat indices of the half-set (first nonzero centered component
    positive, centered-lex order) and of the mirrored partners."""
    S = g.side
    axes = [centered(np.arange(S), S) for _ in range(g.d)]
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([mm.reshape(-1) for mm in mesh], axis=-1)
    mask = np.zeros(len(coords), dtype=bool)
    undecided = np.ones(len(coords), dtype=bool)
    for a in range(g.d):
        col = coords[:, a]
        mask |= undecided & (col > 0)
        undecided &= col == 0
    order = np.lexsort(coords[:, ::-1].T)
    pos = order[mask[order]]
    neg_coords = (-coords[pos]) % S
    neg = np.ravel_multi_index(tuple(neg_coords.T), g.site_shape)
    # Odd side: no nonzero frequency is its own mirror, only p = 0 is
    # self-paired and that slot stays pinned to zero.
    if np.any(pos == neg) or 2 * len(pos) + 1 != g.site_count:
        raise AssertionError("half-set pairing failed; side must be odd")
    return pos, neg


@dataclass
class SamplerState:
    geometry: TorusGeometry
    seed: int
    roots: list = field(repr=False)
    ranges: tuple = ()
    pos_idx: np.ndarray = field(default=None, repr=False)
    neg_idx: np.ndarray = field(default=None, repr=False)
    root_residual: float = 0.0

    @property
    def n_scales(self) -> int:
        return len(self.roots)


def build_sampler(result: DecompositionResult, seed: int = 0) -> SamplerState:
    """Hermitian multiplier roots plus the frequency pairing tables.

    Each root is re-squared and compared against its multiplier; a
    relative deviation beyond 1e-10 aborts the build.
    """
    g = result.geometry
    roots = []
    worst = 0.0
    for idx, tab in enumerate(result.tables, start=1):
        flat = _hermitize(flat_table(tab.values, g))
        root = hermitian_sqrt_flat(flat, "scale %d multiplier" % idx)
        resid = float(np.max(spectral_norms(root @ root - flat)))
        scale = max(float(np.max(spectral_norms(flat, hermitian=True))), 1e-300)
        rel = resid / scale
        if rel > ROOT_TOL:
            raise FactorizationFailure(
                "scale %d root residual %.3g exceeds %.3g" % (idx, rel, ROOT_TOL)
            )
        worst = max(worst, rel)
        roots.append(root)
    pos, neg = _half_set(g)
    return SamplerState(
        geometry=g,
        seed=int(seed),
        roots=roots,
        ranges=result.schedule.ranges,
        pos_idx=pos,
        neg_idx=neg,
        root_residual=worst,
    )


def _component_batch(state: SamplerState, k: int, start: int, count: int) -> np.ndarray:
    """Real sample values of scale k for indices start..start+count-1,
    shaped (count, m, *site)."""
    g = state.geometry
    root = state.roots[k - 1]
    nH = len(state.pos_idx)
    raws = np.empty((count, nH, g.m, 2))
    for i in range(count):
        seq = np.random.SeedSequence(entropy=state.seed, spawn_key=(k, start + i))
        rng = np.random.Generator(np.random.Philox(seq))
        raws[i] = rng.standard_normal((nH, g.m, 2))
    zeta = (raws[..., 0] + 1j * raws[..., 1]) / np.sqrt(2.0)
    zhat = np.zeros((count, g.site_count, g.m), dtype=np.complex128)
    zhat[:, state.pos_idx] = zeta
    zhat[:, state.neg_idx] = np.conj(zeta)
    xhat = g.side ** (g.d / 2.0) * np.einsum("prs,bps->bpr", root, zhat)
    grid = np.moveaxis(xhat.reshape((count,) + g.site_shape + (g.m,)), -1, 1)
    vals = np.fft.ifftn(grid, axes=tuple(range(2, 2 + g.d)))
    scale = max(1.0, float(np.max(np.abs(vals.real))))
    resid = float(np.max(np.abs(vals.imag)))
    if resid > REAL_TOL * scale:
        raise ImaginaryResidue("sampled field has imaginary part %.3g" % resid)
    return np.ascontiguousarray(vals.real)


def sample_component(state: SamplerState, k: int, sample_index: int) -> Field:
    """Scale-k sample; k is 1-based up to N+1, reproducible per index."""
    vals = _component_batch(state, k, sample_index, 1)[0]
    return Field(state.geometry, vals, zero_mean=True)


def _scale_sum(comps: list) -> np.ndarray:
    """The scale fields summed in scale order."""
    total = comps[0]
    for vals in comps[1:]:
        total = total + vals
    return total


def total_batch(state: SamplerState, start: int, count: int) -> np.ndarray:
    """Total field values for indices start..start+count-1, shaped
    (count, m, *site); row i equals sample_total(state, start + i)."""
    scales = range(1, state.n_scales + 1)
    return _scale_sum([_component_batch(state, k, start, count) for k in scales])


def sample_total(state: SamplerState, sample_index: int) -> Field:
    """Sum of independent scale samples sharing the sample index."""
    return Field(state.geometry, total_batch(state, sample_index, 1)[0], zero_mean=True)


@dataclass
class CovarianceEstimate:
    geometry: TorusGeometry
    mean: np.ndarray = field(repr=False)
    se: np.ndarray = field(repr=False)
    n: int = 0
    infinite_width: bool = False


def _correlation_batch(vals: np.ndarray, g: TorusGeometry) -> np.ndarray:
    """Translation-averaged covariance estimate per sample, shaped
    (batch, c, c, *site) for channel count c = vals.shape[1]."""
    site_axes = tuple(range(2, 2 + g.d))
    hat = np.fft.fftn(vals, axes=site_axes)
    prod = np.einsum("br...,bs...->brs...", hat, np.conj(hat))
    est = np.fft.ifftn(prod, axes=tuple(range(3, 3 + g.d))) / g.site_count
    return est.real


def _combine(partials, n: int, g: TorusGeometry) -> CovarianceEstimate:
    total = partials[0][0].copy()
    totsq = partials[0][1].copy()
    for s, ss in partials[1:]:
        total += s
        totsq += ss
    mean = total / n
    if n < 2:
        se = np.full_like(mean, np.inf)
        return CovarianceEstimate(g, mean, se, n, infinite_width=True)
    var = np.maximum((totsq - n * mean**2) / (n - 1), 0.0)
    return CovarianceEstimate(g, np.ascontiguousarray(mean), np.sqrt(var / n), n)


def _batched(values_fn, n: int, threads: int, g: TorusGeometry) -> list:
    """One CovarianceEstimate per array of values_fn(start, count).

    values_fn returns a list of (count, c, *site) arrays for the samples
    start..start+count-1; each array's per-batch sums are combined in
    batch-index order, whatever the thread count.
    """
    n_batches = (n + BATCH - 1) // BATCH

    def work(bi):
        start = bi * BATCH
        sums = []
        for vals in values_fn(start, min(BATCH, n - start)):
            est = _correlation_batch(vals, g)
            sums.append((est.sum(axis=0), (est * est).sum(axis=0)))
        return sums

    if threads <= 1:
        partials = [work(bi) for bi in range(n_batches)]
    else:
        with ThreadPoolExecutor(max_workers=threads) as ex:
            partials = list(ex.map(work, range(n_batches)))
    return [_combine(per_array, n, g) for per_array in zip(*partials)]


def empirical_covariance(samples) -> CovarianceEstimate:
    """Translation-averaged covariance with per-entry standard errors.

    The estimator per sample is (S^-d) sum_x xi(x+z) xi(x)^T; the mean
    and its standard error are taken across samples.  A single sample
    yields the degenerate estimate with the infinite-width flag set.
    """
    samples = list(samples)
    g = samples[0].geometry
    stack = np.stack([f.values for f in samples])
    return _batched(lambda s, c: [stack[s : s + c]], len(samples), 1, g)[0]


def _max_se_ratio(diff: np.ndarray, se: np.ndarray) -> float:
    """Max per-entry diff / se; infinite where se is zero but diff is not."""
    ratio = np.zeros_like(diff)
    live = se > 0.0
    ratio[live] = diff[live] / se[live]
    ratio[~live & (diff > 0.0)] = np.inf
    return float(np.max(ratio))


def covariance_deviation(est: CovarianceEstimate, kernel_values: np.ndarray) -> float:
    """Max per-entry |mean - reference| in standard-error units."""
    return _max_se_ratio(np.abs(est.mean - kernel_values), est.se)


def estimate_agreement(a: CovarianceEstimate, b: CovarianceEstimate) -> float:
    """Max per-entry difference of two estimates in combined-SE units."""
    return _max_se_ratio(np.abs(a.mean - b.mean), np.sqrt(a.se**2 + b.se**2))


@dataclass
class GradientRangeReport:
    r: int
    far_sites: int
    max_abs: float
    max_se_ratio: float
    trivial: bool


def _gradient_channels(vals: np.ndarray, g: TorusGeometry) -> np.ndarray:
    """Forward differences of (batch, m, *site) values as (batch, m*d, *site)."""
    out = np.empty((vals.shape[0], g.m * g.d) + g.site_shape, dtype=vals.dtype)
    for j in range(g.d):
        axis = 2 + j
        out[:, j :: g.d] = np.roll(vals, -1, axis=axis) - vals
    return out


def _far_report(est: CovarianceEstimate, mask: np.ndarray, r: int) -> GradientRangeReport:
    diff = np.abs(est.mean[:, :, mask])
    return GradientRangeReport(
        r=r,
        far_sites=int(np.count_nonzero(mask)),
        max_abs=float(np.max(diff)),
        max_se_ratio=_max_se_ratio(diff, est.se[:, :, mask]),
        trivial=bool(np.max(diff) == 0.0),
    )


def gradient_range_check(samples, r: int) -> GradientRangeReport:
    """Empirical gradient-gradient correlation beyond r + 2.

    r is the claimed range of the sampled scale.  Raises EmptyFarRegion
    when the torus has no site beyond r + 2, making the claim vacuous.
    """
    samples = list(samples)
    g = samples[0].geometry
    mask = rho_inf_grid(g) > r + 2
    if not np.any(mask):
        raise EmptyFarRegion("no site lies beyond range %d + 2" % r)
    stack = np.stack([f.values for f in samples])
    est = _batched(lambda s, c: [_gradient_channels(stack[s : s + c], g)], len(samples), 1, g)[0]
    return _far_report(est, mask, r)


def run_sampling_suite(state: SamplerState, n: int, threads: int = 1) -> dict:
    """Per-scale and total covariance estimates plus per-scale gradient
    range reports from one draw of each (scale, sample index).

    The total is the scale fields summed in scale order.  A gradient
    report is None where the scale's far region is empty, which is
    decided before any draw; only the other scales feed gradient
    estimators.
    """
    g = state.geometry
    scales = range(1, state.n_scales + 1)
    rho = rho_inf_grid(g)
    masks = {k: rho > r + 2 for k, r in enumerate(state.ranges, start=1)}
    checked = [k for k, mask in masks.items() if np.any(mask)]

    def values_fn(start, count):
        comps = [_component_batch(state, k, start, count) for k in scales]
        total = _scale_sum(comps)
        grads = [_gradient_channels(comps[k - 1], g) for k in checked]
        return comps + [total] + grads

    ests = _batched(values_fn, n, threads, g)
    suite = {
        "component": dict(zip(scales, ests)),
        "gradient": dict.fromkeys(masks),
        "total": ests[len(scales)],
    }
    for k, est in zip(checked, ests[len(scales) + 1 :]):
        suite["gradient"][k] = _far_report(est, masks[k], state.ranges[k - 1])
    return suite


def dense_reference_samples(kern: Kernel, n: int, seed: int):
    """Samples drawn through the dense covariance factorization.

    Builds the full site-by-site covariance matrix from the kernel,
    takes its symmetric PSD root by eigendecomposition, and colors
    per-sample standard normals.  A distributional cross-check for the
    spectral sampler, deliberately independent of the FFT path.
    """
    g = kern.geometry
    nfull = g.site_count * g.m
    if nfull > DENSE_LIMIT:
        raise TooLargeForOracle("site_count * m = %d exceeds %d" % (nfull, DENSE_LIMIT))
    sites = np.stack(
        np.unravel_index(np.arange(g.site_count), g.site_shape), axis=-1
    )
    diff = (sites[:, None, :] - sites[None, :, :]) % g.side
    idx = np.ravel_multi_index(tuple(np.moveaxis(diff, -1, 0)), g.site_shape)
    Cv = kern.values.reshape(g.m, g.m, g.site_count)
    M = np.transpose(Cv[:, :, idx], (2, 0, 3, 1)).reshape(nfull, nfull)
    M = 0.5 * (M + M.T)
    w, V = np.linalg.eigh(M)
    floor = -1e-10 * max(float(np.max(np.abs(w))), 1e-300)
    if float(np.min(w)) < floor:
        raise FactorizationFailure("dense covariance has eigenvalue %.3g" % float(np.min(w)))
    root = (V * np.sqrt(np.maximum(w, 0.0))) @ V.T
    out = []
    for i in range(n):
        seq = np.random.SeedSequence(entropy=seed, spawn_key=(i,))
        rng = np.random.Generator(np.random.Philox(seq))
        phi = root @ rng.standard_normal(nfull)
        vals = np.moveaxis(phi.reshape(g.site_shape + (g.m,)), -1, 0)
        out.append(Field(g, np.ascontiguousarray(vals)))
    return out


def shuffled_control(samples) -> CovarianceEstimate:
    """Mismatched-pair control: correlates each sample with its cyclic
    successor, which must be decorrelated everywhere."""
    samples = list(samples)
    g = samples[0].geometry
    stack = np.stack([f.values for f in samples])
    other = np.roll(stack, -1, axis=0)
    site_axes = tuple(range(2, 2 + g.d))
    hat_a = np.fft.fftn(stack, axes=site_axes)
    hat_b = np.fft.fftn(other, axes=site_axes)
    prod = np.einsum("br...,bs...->brs...", hat_a, np.conj(hat_b))
    est = np.fft.ifftn(prod, axes=tuple(range(3, 3 + g.d))).real / g.site_count
    partial = [(est.sum(axis=0), (est * est).sum(axis=0))]
    return _combine(partial, len(samples), g)
