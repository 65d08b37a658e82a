"""Monte Carlo engine: random subspaces, zero-count averages, and nodal length.

Random function sampling uses independent standard Gaussian coefficient
rows.  For rows in a single eigenspace the induced distribution of the
spanned subspace is rotation invariant and almost surely full rank, which
is exactly the uniform (Haar) distribution on the Grassmannian -- so the
Monte Carlo average matches the closed-form average being tested without
ever materializing an N x N rotation.

One driver, ``_draw_and_count``, runs the trials of the averages and of
Crofton.  Every trial draws from its own generator (seed, trial_index,
resample), making runs reproducible and independent of any execution
order.  The pending trials of one attempt are counted in one batch, each on
its own, and only the declined draws are redrawn -- they form a
measure-zero set -- and the number of resamples is reported.  An S2 average
counts its batch with ``zerofinder.pencil_counts``, which declines a draw
when a common zero curve makes the resultant vanish.  Crofton turns its
batch of Gaussian pairs into circle frames with one batched QR
(``circle_frames``) and declines a circle on which u vanishes identically.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .harmonics import (
    HarmonicBasis,
    SphereInputError,
    build_basis,
    check_coefficients,
    check_integer,
    legendre_roots,
    zonal,
)
from .zerofinder import (
    RankDeficientError,
    SubspaceSample,
    ZeroFindingResult,
    find_common_zeros_s1,
    find_common_zeros_s2,
    _check_s2_bases,
    make_sample,
    pencil_counts,
    restrict_to_great_circle,
)

MAX_RESAMPLES_PER_TRIAL = 64
CIRCLE_CHUNK_POINTS = 8192    # sample points per batch of Crofton circles, m + 1 per circle
AVERAGE_CHUNK_TRIALS = 1024   # Monte Carlo trials drawn and counted per batch


def sphere_surface_area(k: int) -> float:
    """k-dimensional volume of the unit k-sphere: 2 pi^((k+1)/2) / Gamma((k+1)/2)."""
    k = check_integer("sphere dimension", k, 1)
    return 2.0 * math.pi ** ((k + 1) / 2.0) / math.gamma((k + 1) / 2.0)


@dataclass(frozen=True)
class AverageReport:
    """Monte Carlo estimate of the average number of common zeros."""

    trials: int
    histogram: dict[int, int]         # zero count -> number of trials
    mean: float
    stderr: float
    theory: float
    relative_deviation: float
    degenerate_resamples: int
    min_off_circle_margin: float | None   # smallest pencil margin off the circle, if any
    experimental: bool
    formula_id: str

    @property
    def within_band(self) -> bool:
        """Whether the estimate sits within four standard errors of theory."""
        return abs(self.mean - self.theory) <= 4.0 * self.stderr + 1e-12


@dataclass(frozen=True)
class LengthReport:
    """Length of a zero-level curve estimated from random circle crossings."""

    trials: int
    mean_crossings: float
    length: float                     # pi * mean_crossings on the unit S2
    stderr: float                     # pi * stderr of the crossing count
    degenerate_resamples: int


def _summaries(counts: np.ndarray) -> tuple[float, float, dict[int, int]]:
    mean = float(counts.sum() / counts.size)
    if counts.size > 1:
        stderr = float(counts.std(ddof=1) / math.sqrt(counts.size))
    else:
        stderr = 0.0
    histogram = {k: int(f) for k, f in enumerate(np.bincount(counts)) if f}
    return mean, stderr, histogram


def sample_subspace(bases, rng: np.random.Generator) -> SubspaceSample:
    """Draw one coefficient row per basis with iid standard Gaussian entries.

    Resamples internally on the measure-zero event of numerical rank
    deficiency, so it always returns a valid sample.
    """
    bases = list(bases)
    for _ in range(MAX_RESAMPLES_PER_TRIAL):
        rows = [rng.standard_normal(b.dimension) for b in bases]
        try:
            return make_sample(rows, [b.degree for b in bases])
        except RankDeficientError:
            continue
    raise RuntimeError("could not draw a full-rank sample")  # pragma: no cover


def _draw_and_count(trials: int, seed: int, chunk: int, draw, count) -> tuple[list, int]:
    """The result of each of ``trials`` draws, and the number of redraws.

    Trial t draws ``draw(rng)`` from the generator (seed, t, attempt).  The
    pending trials of an attempt, at most ``chunk`` at a time, are counted
    in one ``count(draws)``, one result per draw or None where it declines
    one; only those are redrawn, with attempt + 1, for at most
    MAX_RESAMPLES_PER_TRIAL attempts.  ``count`` counts each draw on its
    own, so the results do not depend on the batching.  ``trials`` and
    ``seed`` are checked here, before the first draw.
    """
    trials, seed = check_integer("trials", trials, 1), check_integer("seed", seed, 0)
    results: list = [None] * trials
    resamples = 0
    for start in range(0, trials, chunk):
        pending = list(range(start, min(start + chunk, trials)))
        for attempt in range(MAX_RESAMPLES_PER_TRIAL):
            draws = [draw(np.random.default_rng([seed, t, attempt])) for t in pending]
            declined = []
            for t, counted in zip(pending, count(draws)):
                if counted is None:
                    declined.append(t)
                    continue
                results[t] = counted
                resamples += attempt
            pending = declined
            if not pending:
                break
        else:  # pragma: no cover
            raise RuntimeError("declined draws persisted across resampling")
    return results, resamples


def theoretical_average(sphere_dim: int, eigenvalues, volume: float) -> float:
    """Expected common-zero count (2/sigma_n) prod_i (lam_i/n)^(1/2) vol(M).

    With n equal eigenvalues this is THM_1_1, (2/sigma_n) (lam/n)^(n/2) vol(M):
    m(m+1) on S2 and 2m on S1.  With unequal eigenvalues it is the same
    Kac-Rice computation (Azais and Wschebor, *Level Sets and Extrema of
    Random Processes and Fields*, Wiley 2009) under this module's sampling
    model, so on S2 it gives sqrt(lam_1 lam_2), the value the paper states
    as a conjecture:

    * The coefficient rows are independent standard Gaussians.  Zero sets do
      not change under scaling, so this is also a uniform direction in each
      eigenspace.
    * u_i(x) ~ N(0, N_i / 4 pi), independent of grad u_i(x) because
      sum_k f_k^2 is constant.
    * grad u_i(x) ~ N(0, (lam_i N_i / 8 pi) I_2) by the gradient-sum
      identity THM_2_1.
    * E|det| of a 2 x 2 matrix of standard Gaussians is 1, so the density
      of common zeros is sqrt(lam_1 lam_2) / 4 pi, and the expected count
      over the area 4 pi is sqrt(lam_1 lam_2).

    On any n-dimensional homogeneous M with irreducible isotropy the same
    steps give the product formula, since E|det G_n| / (2 pi)^(n/2) = 2/sigma_n
    for an n x n matrix G_n of standard Gaussians.
    """
    n = sphere_dim
    root = math.sqrt(math.prod(lam / n for lam in eigenvalues))
    return 2.0 * (volume / sphere_surface_area(n)) * root


def _monte_carlo_average(
    bases: list[HarmonicBasis],
    trials: int,
    seed: int,
    experimental: bool,
    formula_id: str,
) -> AverageReport:
    """Average |Z(U)| over ``trials`` random samples, against ``theoretical_average``.

    A draw is one ``sample_subspace``.  ``_draw_and_count`` counts the draws
    AVERAGE_CHUNK_TRIALS at a time as (count, margin): an S1 draw in closed
    form, with margin inf, and the S2 draws together by ``pencil_counts``,
    whose margin is the smallest off-circle one (inf without one) and which
    declines the draws it cannot count.  The S2 bases, with the solver's
    degree ceiling, are checked before the first draw.
    """
    if not bases or len(bases) != bases[0].sphere_dim or len({b.sphere_dim for b in bases}) != 1:
        raise SphereInputError("need as many functions as the sphere dimension")
    if bases[0].sphere_dim == 2:
        _check_s2_bases(bases)            # before the first draw
    theory = theoretical_average(
        bases[0].sphere_dim, [b.eigenvalue for b in bases], bases[0].manifold_volume
    )

    def count(samples: list[SubspaceSample]) -> list[tuple[int, float] | None]:
        if bases[0].sphere_dim == 2:
            return pencil_counts(bases, samples)
        return [(find_common_zeros_s1(bases[0], s).count, math.inf) for s in samples]

    counted, resamples = _draw_and_count(
        trials, seed, AVERAGE_CHUNK_TRIALS, lambda rng: sample_subspace(bases, rng), count
    )
    counts = np.array([n for n, _ in counted], dtype=np.int64)
    margin = min(low for _, low in counted)
    mean, stderr, histogram = _summaries(counts)
    return AverageReport(
        trials=counts.size,
        histogram=histogram,
        mean=mean,
        stderr=stderr,
        theory=theory,
        relative_deviation=abs(mean - theory) / theory,
        degenerate_resamples=resamples,
        min_off_circle_margin=margin if margin < math.inf else None,
        experimental=experimental,
        formula_id=formula_id,
    )


def average_zero_count(bases, trials: int, seed: int = 0) -> AverageReport:
    """Average |Z(U)| over Haar-random n-subspaces of one eigenspace (THM_1_1).

    All bases must share one degree and one sphere.
    """
    bases = list(bases)
    if len({b.degree for b in bases}) > 1:
        raise SphereInputError("equal-average theory requires equal degrees")
    return _monte_carlo_average(bases, trials, seed, experimental=False, formula_id="THM_1_1")


def conjecture_mixed_average(bases, trials: int, seed: int = 0) -> AverageReport:
    """Average |Z(u_1, u_2)| on S2 for two degrees, against sqrt(lam_1 lam_2).

    The value is a theorem under the Gaussian sampling model (see
    ``theoretical_average``); the report keeps the paper's label, a
    conjecture, and is flagged experimental.
    """
    bases = list(bases)
    if any(b.sphere_dim != 2 for b in bases):
        raise SphereInputError("mixed-average runs take two S2 bases")
    return _monte_carlo_average(
        bases, trials, seed, experimental=True, formula_id="SEC5_CONJECTURE"
    )


def circle_frames(gaussians: np.ndarray) -> np.ndarray:
    """Orthonormal 2-frames (K, 2, 3) of the planes of K pairs of Gaussian 3-vectors (K, 2, 3).

    One batched QR of the (K, 3, 2) transposes; each frame spans the plane
    of its two vectors, and rotation invariance of the Gaussian makes its
    great circle uniform over all great circles.
    """
    q, _ = np.linalg.qr(np.swapaxes(gaussians, 1, 2))
    return np.swapaxes(q, 1, 2)


def crofton_length(basis: HarmonicBasis, coeffs, trials: int, seed: int = 0) -> LengthReport:
    """Estimate the length of {u = 0} from crossings with random great circles.

    On the unit S2 the average number of crossings of a curve by a uniform
    random great circle is length / pi, so pi times the mean crossing count
    estimates the length.

    A draw is two Gaussian 3-vectors, whose plane is the circle.
    ``_draw_and_count`` redraws the circles on which u vanishes identically.
    Each batch of CIRCLE_CHUNK_POINTS // (m + 1) circles is one
    ``circle_frames`` and one call of ``restrict_to_great_circle``, which
    samples u at m + 1 points of each circle and counts each circle's
    crossings on its own, so the report does not depend on the batching.
    """
    if basis.sphere_dim != 2:
        raise SphereInputError("length estimation is defined on S2")
    c = check_coefficients(basis, coeffs)
    if not np.any(c):
        raise SphereInputError("zero function has no zero-level curve")

    def crossings(gaussians: list[np.ndarray]) -> list[int | None]:
        frames = circle_frames(np.stack(gaussians))
        _, found, degenerate = restrict_to_great_circle(basis, c, frames)
        return [None if flat else n for n, flat in zip(found.tolist(), degenerate.tolist())]

    chunk = max(1, CIRCLE_CHUNK_POINTS // (basis.degree + 1))
    counted, resamples = _draw_and_count(
        trials, seed, chunk, lambda rng: rng.standard_normal((2, 3)), crossings
    )
    mean, stderr, _ = _summaries(np.array(counted, dtype=np.int64))
    return LengthReport(
        trials=len(counted),
        mean_crossings=mean,
        length=math.pi * mean,
        stderr=math.pi * stderr,
        degenerate_resamples=resamples,
    )


def zonal_nodal_colatitudes(degree: int) -> np.ndarray:
    """Colatitudes of the zero circles of the degree-m axis-symmetric function."""
    return np.arccos(legendre_roots(degree))[::-1]   # ascending colatitude


def zonal_nodal_length(degree: int) -> float:
    """Exact total length of the zero set: sum of 2 pi sin(colatitude)."""
    return float(np.sum(2.0 * math.pi * np.sin(zonal_nodal_colatitudes(degree))))


def zonal_tilt_threshold(degree: int) -> float:
    """Largest safe tilt angle for the two-axis construction, per degree.

    A quarter of the smallest gap in the colatitude ladder (poles included):
    tilting by less moves each zero circle by less than half the distance to
    its neighbours, so each tilted circle crosses exactly its own partner.
    """
    colat = zonal_nodal_colatitudes(degree)
    gaps = np.diff(np.concatenate([[0.0], colat, [math.pi]]))
    return float(gaps.min() / 4.0)


def zonal_pair_demo(degree: int, alpha: float) -> ZeroFindingResult:
    """Common zeros of two axis-symmetric functions with axes ``alpha`` apart.

    For 0 < alpha below the per-degree tilt threshold the zero circles pair
    up one-to-one and the count is exactly 2m.  alpha = 0 duplicates the
    function and is reported Degenerate.
    """
    basis = build_basis(2, degree)
    bases = _check_s2_bases([basis, basis])    # the solver's degree ceiling, before the tilt
    if isinstance(alpha, (bool, np.bool_)) or not 0.0 <= alpha < math.pi:
        raise SphereInputError("tilt angle must lie in [0, pi)")
    pole = np.array([0.0, 0.0, 1.0])
    tilted = np.array([math.sin(alpha), 0.0, math.cos(alpha)])
    try:
        sample = make_sample([zonal(basis, pole), zonal(basis, tilted)], [degree, degree])
    except RankDeficientError:
        # alpha = 0, or axes so close that the two functions coincide numerically.
        return ZeroFindingResult.degenerate(2 * basis.degree**2)
    return find_common_zeros_s2(bases, sample)
