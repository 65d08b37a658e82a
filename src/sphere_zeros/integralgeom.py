"""Monte Carlo engine: random subspaces, zero-count averages, and nodal length.

Random function sampling uses independent standard Gaussian coefficient
rows.  For rows in a single eigenspace the induced distribution of the
spanned subspace is rotation invariant and almost surely full rank, which
is exactly the uniform (Haar) distribution on the Grassmannian -- so the
Monte Carlo average matches the closed-form average being tested without
ever materializing an N x N rotation.

Every trial draws its own generator from (seed, trial_index, resample),
making runs reproducible and independent of any execution order.  Trials
whose zero set is judged non-finite (Degenerate) are resampled -- they form
a measure-zero set -- and the number of resamples is reported.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .harmonics import (
    HarmonicBasis,
    SphereInputError,
    check_coefficients,
    legendre_roots,
    zonal,
)
from .zerofinder import (
    RankDeficientError,
    SolverStatus,
    SubspaceSample,
    ZeroFindingResult,
    find_common_zeros_s1,
    find_common_zeros_s2,
    _circle_roots,
    check_depth,
    make_sample,
    restrict_to_great_circle,  # noqa: F401  (perfbench's traced run wraps this name)
)

MAX_RESAMPLES_PER_TRIAL = 64
CIRCLE_CHUNK_POINTS = 8192    # sample points per batch of Crofton circles, 2m + 2 per circle


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
    depth_escalations: int
    max_residual: float
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
    reference: float | None
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


def _count_zeros_once(
    bases: list[HarmonicBasis],
    depth: int | None,
    seed: int,
    trial: int,
) -> tuple[ZeroFindingResult, int]:
    """Run one trial, resampling Degenerate draws; returns (result, resamples)."""
    for attempt in range(MAX_RESAMPLES_PER_TRIAL):
        rng = np.random.default_rng([seed, trial, attempt])
        sample = sample_subspace(bases, rng)
        if bases[0].sphere_dim == 1:
            result = find_common_zeros_s1(bases[0], sample)
        else:
            result = find_common_zeros_s2(bases, sample, depth)
        if result.status is not SolverStatus.DEGENERATE:
            return result, attempt
    raise RuntimeError("degenerate samples persisted across resampling")  # pragma: no cover


def _monte_carlo_average(
    bases: list[HarmonicBasis],
    trials: int,
    depth: int | None,
    seed: int,
    theory: float,
    experimental: bool,
    formula_id: str,
) -> AverageReport:
    check_depth(depth)     # S1 trials never reach the S2 solver's own check
    counts = np.empty(trials, dtype=np.int64)
    resamples = 0
    escalations = 0
    max_residual = 0.0
    for t in range(trials):
        result, extra = _count_zeros_once(bases, depth, seed, t)
        counts[t] = result.count
        resamples += extra
        escalations += result.escalations
        if np.isfinite(result.max_residual):
            max_residual = max(max_residual, result.max_residual)
    mean, stderr, histogram = _summaries(counts)
    return AverageReport(
        trials=trials,
        histogram=histogram,
        mean=mean,
        stderr=stderr,
        theory=theory,
        relative_deviation=abs(mean - theory) / theory,
        degenerate_resamples=resamples,
        depth_escalations=escalations,
        max_residual=max_residual,
        seed=seed,
        experimental=experimental,
        formula_id=formula_id,
    )


def theoretical_average(sphere_dim: int, eigenvalue: float, volume: float) -> float:
    """Closed-form average count (2/sigma_n) (lam/n)^(n/2) vol(M)."""
    n = sphere_dim
    return 2.0 / sphere_surface_area(n) * (eigenvalue / n) ** (n / 2.0) * volume


def average_zero_count(
    bases,
    trials: int,
    depth: int | None = None,
    seed: int = 0,
) -> AverageReport:
    """Average |Z(U)| over Haar-random n-subspaces of one eigenspace.

    All bases must share one degree (and one sphere); the closed-form
    reference value is (2/sigma_n) (lam/n)^(n/2) vol(M), which is m(m+1)
    on S2 and 2m on S1.
    """
    bases = list(bases)
    if trials < 1:
        raise SphereInputError("trials must be >= 1")
    if len({(b.sphere_dim, b.degree) for b in bases}) != 1:
        raise SphereInputError("equal-average theory requires equal degrees")
    if len(bases) != bases[0].sphere_dim:
        raise SphereInputError("need as many functions as the sphere dimension")
    theory = theoretical_average(
        bases[0].sphere_dim, bases[0].eigenvalue, bases[0].manifold_volume
    )
    return _monte_carlo_average(
        bases,
        trials,
        depth,
        seed,
        theory,
        experimental=False,
        formula_id="THM_1_1",
    )


def conjecture_mixed_average(
    bases,
    trials: int,
    depth: int | None = None,
    seed: int = 0,
) -> AverageReport:
    """Monte Carlo test of the conjectured mixed-eigenvalue average on S2.

    The conjectured value 2 sqrt(lam_1 lam_2) / (sigma_2 * 2) * vol(S2)
    reduces to sqrt(lam_1 * lam_2).  It is not established theory, so the
    report is flagged experimental.
    """
    bases = list(bases)
    if trials < 1:
        raise SphereInputError("trials must be >= 1")
    if len(bases) != 2 or any(b.sphere_dim != 2 for b in bases):
        raise SphereInputError("mixed-average runs take two S2 bases")
    theory = (
        2.0
        * math.sqrt(bases[0].eigenvalue * bases[1].eigenvalue)
        / (sphere_surface_area(2) * 2.0)
        * bases[0].manifold_volume
    )
    return _monte_carlo_average(
        bases,
        trials,
        depth,
        seed,
        theory,
        experimental=True,
        formula_id="SEC5_CONJECTURE",
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


def crofton_length(
    basis: HarmonicBasis,
    coeffs,
    trials: int,
    seed: int = 0,
    reference: float | None = None,
) -> LengthReport:
    """Estimate the length of {u = 0} from crossings with random great circles.

    On the unit S2 the average number of crossings of a curve by a uniform
    random great circle is length / pi, so pi times the mean crossing count
    estimates the length.

    Circle t is drawn from the generator (seed, t, attempt), and only the
    circles on which u vanishes identically are redrawn, with attempt + 1.
    Each circle's crossings are the unit-circle companion eigenvalues of its
    trigonometric polynomial (see ``restrict_to_great_circle``), found in
    batches of CIRCLE_CHUNK_POINTS // (2m + 2) circles; each circle's count
    is the one ``restrict_to_great_circle`` gives for it alone, so the
    report does not depend on the batching.
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
    chunk = max(1, CIRCLE_CHUNK_POINTS // (2 * basis.degree + 2))
    for start in range(0, trials, chunk):
        pending = np.arange(start, min(start + chunk, trials))
        for attempt in range(MAX_RESAMPLES_PER_TRIAL):
            frames = np.stack(
                [random_circle_frame(np.random.default_rng([seed, t, attempt])) for t in pending]
            )
            _, found, degenerate = _circle_roots(basis, c, frames)
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
        reference=reference,
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


def zonal_pair_demo(
    degree: int,
    alpha: float,
    depth: int | None = None,
) -> ZeroFindingResult:
    """Common zeros of two axis-symmetric functions with axes ``alpha`` apart.

    For 0 < alpha below the per-degree tilt threshold the zero circles pair
    up one-to-one and the count is exactly 2m.  alpha = 0 duplicates the
    function and is reported Degenerate.
    """
    if degree < 1:
        raise SphereInputError("degree must be >= 1")
    if not 0.0 <= alpha < math.pi:
        raise SphereInputError("tilt angle must lie in [0, pi)")
    from .harmonics import build_basis

    basis = build_basis(2, degree)
    pole = np.array([0.0, 0.0, 1.0])
    tilted = np.array([math.sin(alpha), 0.0, math.cos(alpha)])
    try:
        sample = make_sample([zonal(basis, pole), zonal(basis, tilted)], [degree, degree])
    except RankDeficientError:
        # alpha = 0, or axes so close that the two functions coincide numerically.
        return ZeroFindingResult.degenerate(2 * degree * degree)
    return find_common_zeros_s2([basis, basis], sample, depth)
