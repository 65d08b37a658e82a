"""Monte Carlo engine: random subspaces, zero-count averages, and nodal length.

Random function sampling uses independent standard Gaussian coefficient
rows.  For rows in a single eigenspace the induced distribution of the
spanned subspace is rotation invariant and almost surely full rank, which
is exactly the uniform (Haar) distribution on the Grassmannian -- so the
Monte Carlo average matches the closed-form average being tested without
ever materializing an N x N rotation.

Every trial draws its own generator from (seed, trial_index, resample),
making runs reproducible and independent of any execution order.  The S2
trials of one attempt are counted together by ``zerofinder.pencil_counts``,
one batched pencil pass per round of centers, with the same bits as one at
a time.  S2 trials whose zeros the pencil declines to count (a common zero
curve makes the resultant vanish) are resampled -- they form a measure-zero
set -- and the number of resamples is reported.
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
    legendre_roots,
    zonal,
)
from .zerofinder import (
    RankDeficientError,
    SubspaceSample,
    ZeroFindingResult,
    find_common_zeros_s1,
    find_common_zeros_s2,
    _check_solver_degree,
    make_sample,
    pencil_counts,
    restrict_to_great_circle,
)

MAX_RESAMPLES_PER_TRIAL = 64
CIRCLE_CHUNK_POINTS = 8192    # sample points per batch of Crofton circles, m + 1 per circle
AVERAGE_CHUNK_TRIALS = 1024   # Monte Carlo trials drawn and counted per batch


def sphere_surface_area(k: int) -> float:
    """k-dimensional volume of the unit k-sphere: 2 pi^((k+1)/2) / Gamma((k+1)/2)."""
    if not isinstance(k, (int, np.integer)) or k < 1:
        raise SphereInputError(f"sphere dimension must be an integer >= 1, got {k}")
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
    seed: int
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
    seed: int


def _summaries(counts: np.ndarray) -> tuple[float, float, dict[int, int]]:
    mean = float(counts.sum() / counts.size)
    if counts.size > 1:
        stderr = float(counts.std(ddof=1) / math.sqrt(counts.size))
    else:
        stderr = 0.0
    values, freq = np.unique(counts, return_counts=True)
    histogram = {int(v): int(f) for v, f in zip(values, freq)}
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


def _count_draws(
    bases: list[HarmonicBasis], samples: list[SubspaceSample]
) -> list[tuple[int, float] | None]:
    """(count, margin) of each draw, or None where the draw is declined.

    An S1 draw is counted in closed form, with margin inf.  The S2 draws are
    counted together by ``pencil_counts``, and ``margin`` is the smallest
    off-circle margin (inf without one).
    """
    if bases[0].sphere_dim == 1:
        return [(find_common_zeros_s1(bases[0], s).count, math.inf) for s in samples]
    return pencil_counts(bases, samples)


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

    Trial t is drawn from the generator (seed, t, attempt).  The pending
    trials of an attempt, at most AVERAGE_CHUNK_TRIALS at a time, are counted
    in one ``_count_draws`` call, and only the declined ones are redrawn,
    with attempt + 1, each adding one to ``degenerate_resamples``.  Every
    draw is counted on its own, so the report does not depend on the
    batching.
    """
    if trials < 1:
        raise SphereInputError("trials must be >= 1")
    if not bases or len(bases) != bases[0].sphere_dim or len({b.sphere_dim for b in bases}) != 1:
        raise SphereInputError("need as many functions as the sphere dimension")
    theory = theoretical_average(
        bases[0].sphere_dim, [b.eigenvalue for b in bases], bases[0].manifold_volume
    )
    counts = np.empty(trials, dtype=np.int64)
    resamples = 0
    margin = math.inf
    for start in range(0, trials, AVERAGE_CHUNK_TRIALS):
        pending = range(start, min(start + AVERAGE_CHUNK_TRIALS, trials))
        for attempt in range(MAX_RESAMPLES_PER_TRIAL):
            samples = [
                sample_subspace(bases, np.random.default_rng([seed, t, attempt])) for t in pending
            ]
            declined = []
            for t, counted in zip(pending, _count_draws(bases, samples)):
                if counted is None:
                    declined.append(t)
                    continue
                counts[t] = counted[0]
                margin = min(margin, counted[1])
                resamples += attempt
            pending = declined
            if not pending:
                break
        else:  # pragma: no cover
            raise RuntimeError("degenerate samples persisted across resampling")
    mean, stderr, histogram = _summaries(counts)
    return AverageReport(
        trials=trials,
        histogram=histogram,
        mean=mean,
        stderr=stderr,
        theory=theory,
        relative_deviation=abs(mean - theory) / theory,
        degenerate_resamples=resamples,
        min_off_circle_margin=margin if margin < math.inf else None,
        seed=seed,
        experimental=experimental,
        formula_id=formula_id,
    )


def average_zero_count(bases, trials: int, seed: int = 0) -> AverageReport:
    """Average |Z(U)| over Haar-random n-subspaces of one eigenspace (THM_1_1).

    All bases must share one degree and one sphere.
    """
    bases = list(bases)
    if len({b.degree for b in bases}) != 1:
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


def random_circle_frame(rng: np.random.Generator) -> np.ndarray:
    """Orthonormal 2-frame from Gram-Schmidt on two Gaussian vectors.

    Rotation invariance of the Gaussian makes the spanned great circle
    uniform over all great circles.
    """
    while True:
        raw = rng.standard_normal((2, 3))
        e1_norm = np.linalg.norm(raw[0])
        if e1_norm < 1e-12:
            continue
        e1 = raw[0] / e1_norm
        v2 = raw[1] - np.dot(raw[1], e1) * e1
        v2_norm = np.linalg.norm(v2)
        if v2_norm < 1e-12:
            continue
        return np.stack([e1, v2 / v2_norm])


def crofton_length(basis: HarmonicBasis, coeffs, trials: int, seed: int = 0) -> LengthReport:
    """Estimate the length of {u = 0} from crossings with random great circles.

    On the unit S2 the average number of crossings of a curve by a uniform
    random great circle is length / pi, so pi times the mean crossing count
    estimates the length.

    Circle t is drawn from the generator (seed, t, attempt), and only the
    circles on which u vanishes identically are redrawn, with attempt + 1.
    Each batch of CIRCLE_CHUNK_POINTS // (m + 1) circles is one call of
    ``restrict_to_great_circle``, which samples u at m + 1 points of each
    circle and counts each circle's crossings on its own, so the report
    does not depend on the batching.
    """
    if basis.sphere_dim != 2:
        raise SphereInputError("length estimation is defined on S2")
    if trials < 1:
        raise SphereInputError("trials must be >= 1")
    c = check_coefficients(basis, coeffs)
    if not np.any(c):
        raise SphereInputError("zero function has no zero-level curve")
    counts = np.empty(trials, dtype=np.int64)
    resamples = 0
    chunk = max(1, CIRCLE_CHUNK_POINTS // (basis.degree + 1))
    for start in range(0, trials, chunk):
        pending = np.arange(start, min(start + chunk, trials))
        for attempt in range(MAX_RESAMPLES_PER_TRIAL):
            frames = np.stack(
                [random_circle_frame(np.random.default_rng([seed, t, attempt])) for t in pending]
            )
            _, found, degenerate = restrict_to_great_circle(basis, c, frames)
            done = ~degenerate
            counts[pending[done]] = found[done]
            resamples += attempt * int(np.count_nonzero(done))
            pending = pending[degenerate]
            if not pending.size:
                break
        else:  # pragma: no cover
            raise RuntimeError("degenerate circles persisted across resampling")
    mean, stderr, _ = _summaries(counts)
    return LengthReport(
        trials=trials,
        mean_crossings=mean,
        length=math.pi * mean,
        stderr=math.pi * stderr,
        degenerate_resamples=resamples,
        seed=seed,
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
    if degree < 1:
        raise SphereInputError("degree must be >= 1")
    _check_solver_degree(degree)
    if not 0.0 <= alpha < math.pi:
        raise SphereInputError("tilt angle must lie in [0, pi)")
    basis = build_basis(2, degree)
    pole = np.array([0.0, 0.0, 1.0])
    tilted = np.array([math.sin(alpha), 0.0, math.cos(alpha)])
    try:
        sample = make_sample([zonal(basis, pole), zonal(basis, tilted)], [degree, degree])
    except RankDeficientError:
        # alpha = 0, or axes so close that the two functions coincide numerically.
        return ZeroFindingResult.degenerate(2 * degree * degree)
    return find_common_zeros_s2([basis, basis], sample)
