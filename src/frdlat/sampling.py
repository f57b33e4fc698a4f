"""Spectral sampling of the scale fields and their empirical covariances.

Each sample draws w_hat directly on the rfftn half grid (last index
0..S//2) with the law of the half spectrum of real unit white noise:
independent circular normals with E|w_hat(p)|^2 = S^d, made Hermitian on
the plane of last index 0, which holds both p and -p.  Every nonzero
frequency is colored with the Hermitian root of the scale multiplier and
p = 0 is dropped, so the field irfftn(x_hat) has covariance C_k: irfftn
reads the half spectrum as half of a Hermitian one, conj root(p) at -p,
the root of C(-p) = conj C(p), and every field is real by construction.
Sample i of scale k is the fixed slice i of one counter-based Philox
stream keyed by (seed, k), so any sample can be regenerated in isolation
and thread scheduling cannot change the draw.

run_sampling_suite is the one sampling pass.  It draws every (scale,
sample index) once, in batches sized from a byte budget, and keeps each
field as its colored half spectrum from the draw to its correlation.
A batch streams the scales: it draws one scale, takes its correlation
sums (and its gradient channels' sums if the scale is checked), adds it
into the running total in scale order and drops it before the next
draw.  A gradient channel is the spectrum times e^{i p_j} - 1, and a
correlation is one irfftn of x_hat_r conj(x_hat_s), taken one channel
pair (r, s) at a time and reduced to its batch sums at once.  Only the
total fields handed to the optional consumer are inverse transformed to
sites; samples.csv is written that way, from the draw the estimates
use.  Per-batch sums are combined in batch-index order, and the batch
size does not depend on the thread count, which makes multi-threaded
runs bitwise identical to single-threaded ones.  sample_component and
sample_total regenerate single indices in the suite's arithmetic, and
dense_reference_samples is an independent dense-factorization oracle
with its own stream.
"""

from collections import deque
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from itertools import product

import numpy as np

from .decomposition import DecompositionResult
from .elliptic import hermitian_sqrt_flat
from .errors import FactorizationFailure, SampleTooLarge, TooLargeForOracle
from .fields import Field
from .lattice import DENSE_LIMIT, TorusGeometry, oracle_fits, rho_inf_grid
from .spectral import Kernel, spectral_norms

BATCH = 256
ROOT_TOL = 1e-10
# Bytes the sampling suite may hold at once: the batches in flight, each
# with its working arrays and its per-batch sums, and the running sums.
BATCH_BYTES = 2**30
# Batches the budget is shared by: the batch size must not depend on the
# thread count, or the sums would group differently.
IN_FLIGHT = 2


@dataclass
class SamplerState:
    """Per-scale multiplier roots on the rfftn half grid: (n, m, m) stacks
    in the row order of lattice.p_flat, with a zero row at p = 0."""

    geometry: TorusGeometry
    seed: int
    roots: list = field(repr=False)
    ranges: tuple = ()
    root_residual: float = 0.0

    @property
    def n_scales(self) -> int:
        return len(self.roots)


def build_sampler(result: DecompositionResult, seed: int = 0) -> SamplerState:
    """Hermitian multiplier roots, one half-grid stack per scale, from one
    walk of the result's tables.

    Each root is re-squared and compared against its multiplier; a
    relative deviation beyond ROOT_TOL raises FactorizationFailure.  A
    zero row at p = 0 completes the half grid of the draw.
    """
    g = result.geometry
    roots = []
    worst = 0.0
    for idx, tab in enumerate(result.walk(), start=1):
        stack = np.empty((g.half_count, g.m, g.m), dtype=complex)
        stack[0] = 0.0
        root = hermitian_sqrt_flat(tab.values, "scale %d multiplier" % idx, out=stack[1:])
        resid = float(np.max(spectral_norms(root @ root - tab.values)))
        scale = max(float(np.max(spectral_norms(tab.values, hermitian=True))), 1e-300)
        rel = resid / scale
        if rel > ROOT_TOL:
            raise FactorizationFailure(
                "scale %d root residual %.3g exceeds %.3g" % (idx, rel, ROOT_TOL)
            )
        worst = max(worst, rel)
        roots.append(stack)
    return SamplerState(
        geometry=g,
        seed=int(seed),
        roots=roots,
        ranges=result.schedule.ranges,
        root_residual=worst,
    )


def _component_batch(state: SamplerState, k: int, start: int, count: int) -> np.ndarray:
    """Colored half spectra of scale k for indices start..start+count-1,
    shaped (count, m, *half_shape); the p = 0 slot is zero.

    Sample i reads the 4B words of Philox counter blocks [i B, (i+1) B)
    under the key (seed, k), B = ceil(m n / 2), n = half_count.  Each word
    pair (u0, u1) of 53-bit uniforms is one complex normal
    sqrt(-S^d log1p(-u0)) exp(2 pi i u1); the first m n, in (component,
    half grid) C order, are w_hat.  On the plane of last index 0,
    w_hat(p) becomes (w_hat(p) + conj w_hat(-p)) / sqrt 2, and the result
    is root_k(p) w_hat(p).
    """
    g = state.geometry
    n = g.m * g.half_count
    blocks = -(-n // 2)
    bits = np.random.Philox(key=np.array([state.seed, k], dtype=np.uint64))
    bits.advance(start * blocks)
    raw = bits.random_raw(count * 4 * blocks).reshape(count, 4 * blocks)
    raw >>= 11
    u = raw * 2.0**-53
    del raw
    # sqrt(-S^d log1p(-u0)) exp(2 pi i u1), each step in place.
    r = np.negative(u[:, 0::2])
    np.log1p(r, out=r)
    np.multiply(-g.site_count, r, out=r)
    np.sqrt(r, out=r)
    z = 2j * np.pi * u[:, 1::2]
    del u
    np.exp(z, out=z)
    np.multiply(r, z, out=z)
    del r
    what = z[:, :n].reshape((count, g.m) + g.half_shape)
    plane, axes = what[..., 0], tuple(range(2, g.d + 1))
    what[..., 0] = (plane + np.conj(np.roll(np.flip(plane, axes), 1, axes))) / np.sqrt(2.0)
    xhat = np.einsum("prs,bsp->brp", state.roots[k - 1], what.reshape(count, g.m, -1))
    return xhat.reshape(what.shape)


def _to_sites(hat: np.ndarray, g: TorusGeometry) -> np.ndarray:
    """Real values on the sites from half spectra over the last d axes."""
    return np.fft.irfftn(hat, s=g.site_shape, axes=tuple(range(-g.d, 0)))


def sample_component(state: SamplerState, k: int, sample_index: int) -> Field:
    """Scale-k sample; k is 1-based up to N+1, reproducible per index."""
    hat = _component_batch(state, k, sample_index, 1)
    return Field(state.geometry, _to_sites(hat, state.geometry)[0])


def sample_total(state: SamplerState, sample_index: int) -> Field:
    """Sum of independent scale samples sharing the sample index, in the
    suite's arithmetic: the scale spectra summed in scale order, then
    inverse transformed."""
    comps = [_component_batch(state, k, sample_index, 1) for k in range(1, state.n_scales + 1)]
    return Field(state.geometry, _to_sites(sum(comps[1:], comps[0]), state.geometry)[0])


@dataclass
class CovarianceEstimate:
    geometry: TorusGeometry
    mean: np.ndarray = field(repr=False)
    se: np.ndarray = field(repr=False)
    n: int = 0


def _correlation_batch(hat: np.ndarray, g: TorusGeometry):
    """Batch sums of the translation-averaged covariance estimates of real
    fields with half spectra hat (batch, c, *half): the estimate of channel
    pair (r, s) is S^-d sum_x f_r(x + z) f_s(x), the irfftn of
    hat_r conj(hat_s).  Returns the sums of the estimates and of their
    squares over the batch, each shaped (c, c, *site).  The pairs are
    transformed and reduced one at a time, each step in place, so the
    working arrays are one half spectrum and one site array per sample."""
    c = hat.shape[1]
    sums = np.empty((2, c, c) + g.site_shape)
    prod = None if c == 1 else np.empty_like(hat[:, 0])
    est = np.empty((len(hat),) + g.site_shape)
    # irfftn's own steps: ifft along every site axis but the last, then irfft.
    axes = tuple(range(1, g.d + 1))
    for r, s in product(range(c), repeat=2):
        if c == 1:
            # One expression, which numpy evaluates in place on the conj
            # temporary, as conj(x) * x, once that temporary holds 256 KiB;
            # with FMA the two orders round differently, and the m = 1
            # estimates keep the bits of that rule.
            prod = hat[:, 0] * np.conj(hat[:, 0])
        else:
            np.conjugate(hat[:, s], out=prod)
            np.multiply(hat[:, r], prod, out=prod)
        for axis in axes[:-1]:
            np.fft.ifft(prod, axis=axis, out=prod)
        np.fft.irfft(prod, n=g.side, axis=axes[-1], out=est)
        est /= g.site_count
        est.sum(axis=0, out=sums[0, r, s])
        est *= est
        est.sum(axis=0, out=sums[1, r, s])
    return sums[0], sums[1]


def _estimate(total: np.ndarray, totsq: np.ndarray, n: int, g: TorusGeometry) -> CovarianceEstimate:
    """Mean and standard error from per-entry sums over n samples; the
    standard error is infinite for a single sample."""
    mean = total / n
    if n < 2:
        return CovarianceEstimate(g, mean, np.full_like(mean, np.inf), n)
    var = np.maximum((totsq - n * mean**2) / (n - 1), 0.0)
    return CovarianceEstimate(g, np.ascontiguousarray(mean), np.sqrt(var / n), n)


def _max_se_ratio(diff: np.ndarray, se: np.ndarray) -> float:
    """Max per-entry diff / se; infinite where se is infinite (a single
    sample tests nothing) or where se is zero but diff is not."""
    ratio = np.where(np.isinf(se) | (diff > 0.0), np.inf, 0.0)
    live = (se > 0.0) & np.isfinite(se)
    ratio[live] = diff[live] / se[live]
    return float(np.max(ratio))


def covariance_deviation(est: CovarianceEstimate, kernel_values: np.ndarray) -> float:
    """Max per-entry |mean - reference| in standard-error units."""
    return _max_se_ratio(np.abs(est.mean - kernel_values), est.se)


@dataclass
class GradientRangeReport:
    r: int
    far_sites: int
    max_abs: float
    max_se_ratio: float
    trivial: bool


def _gradient_channels(hat: np.ndarray, g: TorusGeometry) -> np.ndarray:
    """Forward differences of (batch, m, *half) half spectra as
    (batch, m*d, *half): channel r*d + j is (e^{2 pi i n_j / S} - 1) hat_r,
    with n_j the frequency index along site axis j."""
    out = np.empty((hat.shape[0], g.m * g.d) + hat.shape[2:], dtype=hat.dtype)
    for j in range(g.d):
        n = hat.shape[2 + j]
        phase = np.exp(2j * np.pi * np.arange(n) / g.side) - 1.0
        out[:, j :: g.d] = phase.reshape((n,) + (1,) * (g.d - 1 - j)) * hat
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


def _in_order(ex, work, items, depth: int):
    """work(item) for each item on the executor, yielded in item order,
    with at most depth calls submitted and not yet yielded."""
    pending = deque()
    for item in items:
        pending.append(ex.submit(work, item))
        if len(pending) == depth:
            yield pending.popleft().result()
    while pending:
        yield pending.popleft().result()


def _batch_bytes(g: TorusGeometry, widths, sites: bool):
    """Bytes a batch in flight holds for correlations of the given channel
    counts: its sums, and its working arrays per sample.

    The sums are those of every estimate and of its square, 16 S^d c^2
    bytes per estimate.  A sample's working arrays are the running total
    and one scale's spectrum, the larger of the draw's temporaries and the
    correlation's (the gradient channels, one pair's product and its
    transform), and with sites its total fields at 8 bytes a value plus
    half the 32 bytes a value of the one batch being spelled for
    samples.csv.  Both are upper bounds of tracemalloc peaks.
    """
    m, half, sites_n = g.m, g.half_count, g.site_count
    sums = 16 * sites_n * sum(c * c for c in widths)
    per_sample = 16 * half * (2 * m + max(3 * m, max(widths) + 2)) + 8 * sites_n
    if sites:
        per_sample += 24 * m * sites_n
    return sums, per_sample


def _batch_plan(sums: int, per_sample: int, threads: int):
    """Batch size and batches in flight that keep the suite within
    BATCH_BYTES, the running sums included.

    The size is BATCH or what IN_FLIGHT batches leave room for, whatever
    the thread count; the pool keeps as many batches in flight as fit, at
    least IN_FLIGHT and two per worker at most.  Raises SampleTooLarge
    when not one sample fits.
    """
    batch = min(BATCH, (BATCH_BYTES - (IN_FLIGHT + 1) * sums) // (IN_FLIGHT * per_sample))
    if batch < 1:
        need = (IN_FLIGHT + 1) * sums + IN_FLIGHT * per_sample
        raise SampleTooLarge(
            "%d batches of one sample need %.1f MB with the running sums, above "
            "the sampler's budget of %.1f MB" % (IN_FLIGHT, need / 1e6, BATCH_BYTES / 1e6)
        )
    return batch, min(2 * threads, (BATCH_BYTES - sums) // (sums + batch * per_sample))


def run_sampling_suite(state: SamplerState, n: int, threads: int = 1, on_total=None) -> dict:
    """Per-scale and total covariance estimates plus per-scale gradient
    range reports from one draw of each (scale, sample index).

    The total is the scale fields summed in scale order.  A gradient
    report is None where the scale's far region is empty, which is
    decided before any draw; only the other scales feed gradient
    estimators.  on_total, if given, is called on the calling thread
    with each batch of total fields, shaped (count, m, *site), in
    batch-index order; without it no field is transformed back to sites.
    Raises ValueError for n < 1 or threads < 1, and SampleTooLarge when
    one sample does not fit BATCH_BYTES, before any draw.
    """
    if n < 1:
        raise ValueError("sample count must be at least 1, got %d" % n)
    g = state.geometry
    scales = range(1, state.n_scales + 1)
    rho = rho_inf_grid(g)
    masks = {k: rho > r + 2 for k, r in enumerate(state.ranges, start=1)}
    checked = [k for k, mask in masks.items() if np.any(mask)]
    widths = [g.m] * (len(scales) + 1) + [g.m * g.d] * len(checked)
    batch, depth = _batch_plan(*_batch_bytes(g, widths, on_total is not None), threads)

    def work(start):
        # One scale's spectrum at a time: its sums are taken, then it joins
        # the running total in scale order and is dropped.
        comps, grads, total = [], [], None
        for k in scales:
            hat = _component_batch(state, k, start, min(batch, n - start))
            comps.append(_correlation_batch(hat, g))
            if k in checked:
                grads.append(_correlation_batch(_gradient_channels(hat, g), g))
            if total is None:
                total = hat
            else:
                total += hat
            del hat
        sums = comps + [_correlation_batch(total, g)] + grads
        return sums, _to_sites(total, g) if on_total is not None else None

    # Batches come back in batch-index order, whatever the thread count, and
    # their sums are added in that order.  At most depth batches stay in
    # flight, so a slow on_total does not let finished batches pile up.
    # One thread draws on the calling thread.
    starts = range(0, n, batch)
    acc = None
    with ThreadPoolExecutor(max_workers=threads) as ex:
        batches = _in_order(ex, work, starts, depth) if threads > 1 else map(work, starts)
        for sums, total in batches:
            if on_total is not None:
                on_total(total)
            if acc is None:
                acc = sums
                continue
            for (s, ss), (bs, bss) in zip(acc, sums):
                s += bs
                ss += bss
    ests = [_estimate(s, ss, n, g) for s, ss in acc]
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
    if not oracle_fits(g):
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

