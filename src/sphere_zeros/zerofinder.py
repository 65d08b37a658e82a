"""Common zeros of pairs of eigenfunctions on S2 and single eigenfunctions on S1.

The S2 solver enumerates Z(u1, u2) = {x : u1(x) = u2(x) = 0}, which depends
only on their span U, as the zeros of the orthonormal frame f_1, f_2 of U,
and confirms their number with a second, independent counter.  It

1. counts Z with ``pencil_count`` (below); a sample the pencil declines
   (a common zero curve, or every center declined) is Degenerate, and the
   mesh does not run,
2. takes the depth-D ``icosphere``, the faces [0, F/2) of the icosahedral
   geodesic mesh: the descendants of icosahedron faces 0-9, whose
   antipodes are the rest and which are all that ``icosphere`` builds,
3. discards every triangle on which some f_i provably cannot vanish: a
   centroid value further from zero than the Lipschitz constant times the
   centroid's reach to the face (the constant comes from the exact
   pointwise gradient-sum identity, so the exclusion is certified, not
   heuristic),
4. runs a damped Newton iteration on the sphere from each surviving
   centroid, its step the tangent vector s with grad f_i . s = -f_i taken
   from cross products with no tangent frame, reprojecting to the sphere
   after every step, and adds the antipode of every converged point
   (u(-x) = (-1)^m u(x), so Z(u1, u2) = -Z(u1, u2) and the other half needs
   no search),
5. deduplicates converged points by geodesic radius, and
6. reports the zeros Complete when their number equals the pencil count,
   and Unconfirmed otherwise.  The max residual, max |u_i| over the
   caller's unit rows, is evaluated on the zeros the result reports.

Row values and gradients are summed in the same order at any batch size,
and every Newton operation acts on each start alone, so a start takes the
same steps, to the bit, whichever starts share its sweep.

The two counters share no step past the frame: the mesh finds the zeros as
points, the pencil counts the unit-circle roots of one resultant.  Their
agreement is a strong completeness check, not a proof; the Bezout ceiling
2*m1*m2 is checked on every result.

``restrict_to_great_circle`` finds the roots of one S2 function on a batch
of great circles, the crossings that ``crofton_length`` counts.  On each
circle the function is a trigonometric polynomial whose frequencies all have
the parity of m, so it is a degree-m polynomial in e^{2it}: m + 1 samples
on half the circle and one FFT give its coefficients, and the unit-circle
eigenvalues of its m x m companion matrix give the roots in antipodal pairs.

``pencil_count`` counts Z(u1, u2) without finding it, for the Monte Carlo
averages.  Each antipodal pair of zeros lies on exactly one great circle
through a center c; on the circle at direction phi the two frame functions
are the polynomials P(zeta) of ``_circle_eigenvalues``, and their resultant
R(phi) vanishes where the circle holds a pair.  R is a trigonometric form of
degree m1 m2, so its roots are the unit-circle eigenvalues of one
m1 m2 x m1 m2 companion matrix.  A gap rule on the eigenvalue moduli
places every root on or off the circle; where it leaves one in between,
the count is taken again from the next center.  An R that vanishes
identically at a center off both zero sets means a common zero curve, and
the sample is declined at once.  The basis values at the centers and on
the pencil circles do not depend on the sample and are cached, and
``pencil_counts`` counts a batch of samples in rounds by center rank, one
batched ``det`` and ``eigvals`` per round, with the bits of one sample at a
time.
"""

from __future__ import annotations

import enum
import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .harmonics import (
    MAX_DEGREE,
    HarmonicBasis,
    SphereInputError,
    _contract_rows,
    build_basis,
    check_coefficients,
    check_integer,
    eval_basis_and_gradient_many,
    eval_basis_many,
    point_blocks,
)
from .icosphere import SphereMesh, icosphere

RESIDUAL_FACTOR = 1e-9        # converged zeros satisfy |u_i| <= factor * scale
RANK_TOLERANCE = 1e-8         # smallest/largest singular value ratio
MAX_SOLVER_DEGREE = 12        # the pencil's reach: its gap rule declines more draws past it
UNIT_CIRCLE_TOL = 1e-8        # companion eigenvalues with |log|z|| below this are circle roots
NEWTON_TOL = 1e-12            # Newton stops when the step norm drops below this
MAX_NEWTON_ITER = 30
DEDUP_RADIUS = 1e-6           # geodesic merge radius for found zeros


class RankDeficientError(ValueError):
    """The coefficient rows do not span an n-dimensional function space."""


class SolverStatus(str, enum.Enum):
    COMPLETE = "Complete"
    UNCONFIRMED = "Unconfirmed"
    DEGENERATE = "Degenerate"


@dataclass(frozen=True)
class SubspaceSample:
    """Coefficient rows of the functions u_1, ..., u_n, one basis per row.

    ``rows`` is an (n, N_max) matrix; row i uses its first 2*m_i + 1 entries
    (trailing entries are zero-padded when degrees are mixed).  Rows of equal
    degree represent functions in the same eigenspace; rows of different
    degree live in mutually orthogonal eigenspaces, so the rank is decided
    per degree.

    ``frame`` is an orthonormal basis of the span U of the row functions: a
    degree that occurs once keeps its unit row, and the unit rows of a
    repeated degree give way to their left singular vectors.  The singular
    values decide the rank, s_min <= RANK_TOLERANCE * s_max being deficient,
    so scaling a row moves neither the decision nor the frame.
    """

    rows: np.ndarray
    source_degrees: tuple[int, ...]
    frame: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        rows = np.atleast_2d(np.asarray(self.rows, dtype=float))
        degrees = tuple(check_integer("degree", d, 1, MAX_DEGREE) for d in self.source_degrees)
        if not rows.shape[0]:
            raise SphereInputError("a sample needs at least one row")
        if rows.shape[0] != len(degrees):
            raise SphereInputError("one source degree is required per row")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "source_degrees", degrees)
        if not np.isfinite(rows).all():
            raise SphereInputError("coefficient rows must be finite")
        if not np.any(rows, axis=1).all():
            raise RankDeficientError("sample rows are numerically rank deficient (a zero row)")
        frame = _unit_rows(rows)
        for degree in sorted({d for d in degrees if degrees.count(d) > 1}):
            idx = [i for i, d in enumerate(degrees) if d == degree]
            vectors, singular, _ = np.linalg.svd(frame[idx].T, full_matrices=False)
            # With more rows than entries, the singular value svd leaves out is 0.
            ratio = singular[-1] / singular[0] if len(idx) <= rows.shape[1] else 0.0
            if ratio <= RANK_TOLERANCE:
                raise RankDeficientError(f"rank deficient rows (singular value ratio {ratio:.2e})")
            frame[idx] = vectors.T
        object.__setattr__(self, "frame", frame)


def _binary_scaled(rows: np.ndarray) -> np.ndarray:
    """Finite rows (..., N), each times the power of two bringing its largest entry into [0.5, 1).

    The scaling is exact, so what is computed from the rows up to scale
    keeps every bit, and the squared norms of tiny or huge rows neither
    underflow nor overflow.
    """
    _, exponent = np.frexp(np.max(np.abs(rows), axis=-1, keepdims=True))
    return np.ldexp(rows, -exponent)


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """Nonzero finite rows divided by their Euclidean norms, after the exact ``_binary_scaled``."""
    rows = _binary_scaled(rows)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def make_sample(coefficient_rows, degrees) -> SubspaceSample:
    """Build a SubspaceSample from possibly ragged coefficient rows."""
    widths = [np.asarray(r, dtype=float).ravel() for r in coefficient_rows]
    n_max = max((r.shape[0] for r in widths), default=0)
    rows = np.zeros((len(widths), n_max))
    for i, r in enumerate(widths):
        rows[i, : r.shape[0]] = r
    return SubspaceSample(rows=rows, source_degrees=degrees)


@dataclass(frozen=True)
class ZeroFindingResult:
    """The finite common zero set with solver status and diagnostics."""

    zeros: np.ndarray                 # (k, n+1) unit vectors in a canonical order
    status: SolverStatus
    max_residual: float               # largest |u_i| over reported zeros
    bezout_bound: int                 # 2 * m_1 * ... * m_n
    depth_used: int = 0               # mesh depth of an S2 result
    escalations: int = 0              # always 0; read by the benchmark's traced run

    @classmethod
    def degenerate(cls, bezout_bound: int, depth_used: int = 0) -> ZeroFindingResult:
        """A Degenerate result: no zeros are reported and the residual is NaN."""
        return cls(
            zeros=np.empty((0, 3)),
            status=SolverStatus.DEGENERATE,
            max_residual=math.nan,
            bezout_bound=bezout_bound,
            depth_used=depth_used,
        )

    @property
    def count(self) -> int:
        return int(self.zeros.shape[0])


def verify_bezout(result: ZeroFindingResult) -> bool:
    """True iff the found count respects the 2*m1*...*mn ceiling."""
    if result.status is SolverStatus.DEGENERATE:
        raise ValueError("Bezout check is undefined for a Degenerate result")
    return result.count <= result.bezout_bound


def default_mesh_depth(max_degree: int) -> int:
    """Mesh depth scaling with the nodal feature size pi/m."""
    return max(4, math.ceil(math.log2(max_degree)) + 3)


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@functools.lru_cache(maxsize=MAX_SOLVER_DEGREE)
def _basis_at_centroids(degree: int, depth: int) -> np.ndarray:
    """Cached read-only basis values (N, F/2) at the centroids of a mesh's searched half, one
    entry per degree for equal degrees (a mixed pair adds the lower degree at the higher's depth)."""
    basis, pts = build_basis(2, degree), icosphere(depth).centroids
    values = np.empty((basis.dimension, pts.shape[0]))
    for part in point_blocks(basis, pts.shape[0]):      # no (F/2, N) transient
        values[:, part] = eval_basis_many(basis, pts[part]).T
    return _read_only(values)


def _degree_groups(bases: list[HarmonicBasis]) -> list[tuple[HarmonicBasis, list[int]]]:
    """(basis, row indices) per distinct degree, in ascending degree."""
    groups: dict[int, list[int]] = {}
    for i, b in enumerate(bases):
        groups.setdefault(b.degree, []).append(i)
    return [(bases[idx[0]], idx) for _, idx in sorted(groups.items())]


def _row_values(
    groups: list[tuple[HarmonicBasis, list[int]]], rows: np.ndarray, pts: np.ndarray
) -> np.ndarray:
    """Values (P, n) of the row functions at the points, one evaluation per degree."""
    vals = np.empty((pts.shape[0], rows.shape[0]))
    for basis, idx in groups:
        vals[:, idx] = eval_basis_many(basis, pts, rows=rows[idx, : basis.dimension])
    return vals


def _candidate_faces(
    groups: list[tuple[HarmonicBasis, list[int]]],
    rows: np.ndarray,
    lipschitz: np.ndarray,
    mesh: SphereMesh,
) -> np.ndarray:
    """Newton starts (P, 3): the centroids of the kept faces of the searched half of ``mesh``.

    A zero of u_i inside a face forces |u_i| <= L_i * reach at its centroid,
    with L_i the exact global gradient bound and reach the largest distance
    from the centroid to a point of the face; faces failing this for any i
    are excluded rigorously.  The centroid values are summed from the cached basis block
    by ``_contract_rows``, the bits of ``_row_values`` at the centroids.
    """
    keep = np.ones(mesh.centroids.shape[0], dtype=bool)
    for basis, idx in groups:
        block = _basis_at_centroids(basis.degree, mesh.depth)[None]
        values = _contract_rows(block, rows[idx, : basis.dimension])[0]
        keep &= (np.abs(values) <= lipschitz[idx, None] * mesh.centroid_reach).all(axis=0)
    return mesh.centroids[keep]


_NEXT, _AFTER = np.array([1, 2, 0]), np.array([2, 0, 1])   # cyclic shifts of (0, 1, 2)


def _newton_step(
    pts: np.ndarray, vals: np.ndarray, grad: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Newton steps (P, 3) at points x from row values (P, 2) and tangential gradients (P, 2, 3).

    r_i = x x g_i is g_i turned a quarter turn in the tangent plane, and
    D = r_1 . g_2 = x . (g_1 x g_2) is the determinant of the tangent-plane
    Jacobian.  s = (u_1 r_2 - u_2 r_1) / D is the unique tangent vector with
    g_i . s = -u_i: the tangent-plane Newton step, with no frame.  As
    D^2 = ac - b^2 with a, b, c = g1.g1, g1.g2, g2.g2, it equals the Gram
    form ((b u2 - c u1) g1 + (b u1 - a u2) g2) / (ac - b^2), but rounds like
    det J where the Gram form would square its conditioning.  The mask marks
    the points where D^2 = |det J|^2 is NaN, zero or denormal.
    """
    # x x g_i as np.cross rounds it (x1 g2 - x2 g1, ...), C-ordered like its output.
    x = pts[:, None, :]
    turned = np.multiply(x[..., _NEXT], grad[..., _AFTER], out=np.empty(grad.shape))
    turned -= x[..., _AFTER] * grad[..., _NEXT]
    det = np.einsum("pj,pj->p", turned[:, 0], grad[:, 1])
    singular = ~(det * det >= np.finfo(float).tiny)
    det = np.where(singular, 1.0, det)
    step = vals[:, :1] * turned[:, 1] - vals[:, 1:] * turned[:, 0]
    return step / det[:, None], singular


def _newton_refine(
    groups: list[tuple[HarmonicBasis, list[int]]],
    rows: np.ndarray,
    starts: np.ndarray,
    max_edge: float,
) -> tuple[np.ndarray, np.ndarray]:
    """Damped Newton iteration on the sphere from each start, by ``_newton_step``.

    ``max_edge``, the longest edge of the mesh the starts came from, sets
    the step, travel and path caps.  The per-start arrays hold the active
    starts only, and are compacted in the iterations where some start
    converges or fails.  Every operation acts on each start alone, so a
    start takes the same steps, to the bit, in any sweep.  Returns the final
    points and the mask of the starts that converged.
    """
    pts = starts.copy()
    converged = np.zeros(pts.shape[0], dtype=bool)
    live = np.arange(pts.shape[0])                  # indices of the active starts
    p = origin = starts
    path = np.zeros(pts.shape[0])
    travel_cap = 3.0 * max_edge                     # ~ the face's 2-ring neighborhood
    path_cap = 4.0 * max_edge                       # kills oscillating non-roots early
    for _ in range(MAX_NEWTON_ITER):
        if live.size == 0:
            break
        vals = np.empty((live.size, 2))
        grad = np.empty((live.size, 2, 3))
        for basis, idx in groups:
            vals[:, idx], grad[:, idx, :] = eval_basis_and_gradient_many(
                basis, p, rows=rows[idx, : basis.dimension]
            )
        s, singular = _newton_step(p, vals, grad)
        step = np.linalg.norm(s, axis=1)
        damp = np.minimum(1.0, max_edge / np.maximum(step, 1e-300))
        p = p + damp[:, None] * s
        p /= np.linalg.norm(p, axis=1, keepdims=True)
        path += step * damp
        travel = np.arccos(np.clip(np.einsum("pi,pi->p", p, origin), -1.0, 1.0))
        failed = singular | (travel > travel_cap) | (path > path_cap)
        done = failed | (step < NEWTON_TOL)
        if done.any():
            pts[live[done]] = p[done]
            converged[live[done & ~failed]] = True
            active = ~done
            live, p, origin, path = live[active], p[active], origin[active], path[active]
    pts[live] = p
    return pts, converged


def _dedup_and_sort(points: np.ndarray, stop_above: int) -> np.ndarray:
    """Greedy geodesic dedup (radius DEDUP_RADIUS) after collapsing near-identical points.

    Points equal to 8 decimals collapse to the first of them in input order,
    found by one stable lexsort of the rounded points and an adjacent-row
    compare (as floats, so -0.0 == 0.0).  The representatives come out in
    lexicographic order of their rounded (x, y, z), so a change in the last
    bits of a point, such as the sign of a zero coordinate, does not move it
    in the order.  Stops early (returning the oversized set) once more than
    ``stop_above`` >= 0 representatives appear.
    """
    if points.shape[0] == 0:
        return points.reshape(0, 3)
    # Group nearly identical Newton outputs first (they agree to ~NEWTON_TOL,
    # far below the dedup radius); representatives keep full precision.
    rounded = np.round(points, 8)
    order = np.lexsort(rounded.T[::-1])             # stable, x first
    rounded = rounded[order]
    first = np.concatenate([[True], (rounded[1:] != rounded[:-1]).any(axis=1)])
    collapsed = points[order[first]]
    reps = np.empty((min(collapsed.shape[0], stop_above + 1), 3))
    count = 0
    for p in collapsed:
        if count and np.arccos(np.clip((reps[:count] @ p).max(), -1.0, 1.0)) < DEDUP_RADIUS:
            continue
        reps[count] = p
        count += 1
        if count > stop_above:
            break
    return reps[:count]


def _mesh_zeros(
    groups: list[tuple[HarmonicBasis, list[int]]],
    rows: np.ndarray,
    lipschitz: np.ndarray,
    mesh: SphereMesh,
    cap: int,
) -> np.ndarray:
    """The zeros of the unit rows found from the first half of ``mesh``, with their antipodes.

    The starts of ``_candidate_faces`` run through one ``_newton_refine``
    call capped by the mesh's longest edge, and the converged points through
    one residual filter.  They are joined by their antipodes before dedup:
    every kernel operation is sign-symmetric, so the antipode of a point
    passes the filter with the same residual bits, and the union is the
    zero set of the whole sphere.  Dedup stops once there are more than
    ``cap`` zeros.
    """
    points, ok = _newton_refine(
        groups, rows, _candidate_faces(groups, rows, lipschitz, mesh), mesh.max_edge
    )
    points = points[ok]
    if points.shape[0]:
        resid = np.abs(_row_values(groups, rows, points)).max(axis=1)
        points = points[resid <= RESIDUAL_FACTOR * lipschitz.max()]
    return _dedup_and_sort(np.concatenate([points, -points]), cap)


def _check_s2_bases(bases) -> list[HarmonicBasis]:
    """``bases`` as a list; SphereInputError unless two S2 bases within MAX_SOLVER_DEGREE."""
    bases = list(bases)
    if len(bases) != 2 or any(b.sphere_dim != 2 for b in bases):
        raise SphereInputError("two S2 bases are required, one per sample row")
    if max(b.degree for b in bases) > MAX_SOLVER_DEGREE:
        raise SphereInputError(
            f"S2 zero finding supports degrees up to {MAX_SOLVER_DEGREE} "
            "(the reach validated for the great-circle pencil count)"
        )
    return bases


def _check_s2_rows(bases: list[HarmonicBasis], sample: SubspaceSample) -> None:
    """SphereInputError unless ``sample`` has one row per basis, of its degree and width."""
    if sample.rows.shape[0] != 2:
        raise SphereInputError("sample must have exactly two rows on S2")
    for i, b in enumerate(bases):
        if sample.source_degrees[i] != b.degree:
            raise SphereInputError(f"row {i} degree does not match its basis")
        if sample.rows.shape[1] < b.dimension or np.any(sample.rows[i, b.dimension :]):
            raise SphereInputError(f"row {i} must hold {b.dimension} coefficients, then only zeros")


def find_common_zeros_s2(bases, sample: SubspaceSample) -> ZeroFindingResult:
    """Enumerate Z(u1, u2) on S2 for the two coefficient rows of ``sample``.

    ``_pencil_rounds``, ``pencil_count`` past the checks made here, counts
    Z first; when it declines the sample, the result is Degenerate and the
    mesh does not run.  Otherwise ``_mesh_zeros`` finds the zeros on the
    mesh of depth D = ``default_mesh_depth`` of the larger degree, solving
    on ``sample.frame``, whose rows have unit norm, so the gradient sum is
    a Lipschitz bound.  The result is Complete when the two counts agree and
    Unconfirmed, with the mesh's zeros, when they do not.  ``max_residual``
    is max |u_i| over the unit rows.
    """
    bases = _check_s2_bases(bases)
    _check_s2_rows(bases, sample)
    bezout = 2 * bases[0].degree * bases[1].degree
    depth = default_mesh_depth(max(b.degree for b in bases))
    counted = _pencil_rounds(bases, [sample])[0]
    if counted is None:
        return ZeroFindingResult.degenerate(bezout, depth)
    groups = _degree_groups(bases)
    lipschitz = np.array([math.sqrt(b.gradient_sum_constant) for b in bases])
    zeros = _mesh_zeros(groups, sample.frame, lipschitz, icosphere(depth), bezout)
    confirmed = zeros.shape[0] == counted[0]
    residual = np.abs(_row_values(groups, _unit_rows(sample.rows), zeros)).max(initial=0.0)
    return ZeroFindingResult(
        zeros=zeros,
        status=SolverStatus.COMPLETE if confirmed else SolverStatus.UNCONFIRMED,
        max_residual=float(residual),
        bezout_bound=bezout,
        depth_used=depth,
    )


def find_common_zeros_s1(basis: HarmonicBasis, sample: SubspaceSample) -> ZeroFindingResult:
    """Zeros of a*cos(m t) + b*sin(m t) on the circle, in closed form."""
    if basis.sphere_dim != 1:
        raise SphereInputError("an S1 basis is required")
    if sample.rows.shape != (1, 2):
        raise SphereInputError("S1 sample must be a single row of two coefficients")
    if sample.source_degrees != (basis.degree,):
        raise SphereInputError("sample degree does not match its basis")
    a, b = sample.rows[0]
    amplitude = math.hypot(a, b)
    if amplitude == 0.0:
        raise RankDeficientError("zero coefficient vector")
    m = basis.degree
    # a cos(mt) + b sin(mt) = amplitude * cos(mt - phase)
    phase = math.atan2(b, a)
    k = np.arange(2 * m)
    angles = np.sort((phase + 0.5 * math.pi + k * math.pi) / m % (2.0 * math.pi))
    zeros = np.stack([np.cos(angles), np.sin(angles)], axis=1)
    residual = float(
        np.max(np.abs(eval_basis_many(basis, zeros) @ sample.rows[0])) / amplitude
    )
    return ZeroFindingResult(
        zeros=zeros,
        status=SolverStatus.COMPLETE,
        max_residual=residual,
        bezout_bound=2 * m,
        depth_used=0,
    )


def _circle_points(m: int, frames: np.ndarray) -> np.ndarray:
    """The points cos t_k e1 + sin t_k e2, t_k = pi k / (m + 1), of K circles, as (K (m + 1), 3)."""
    t = math.pi * np.arange(m + 1) / (m + 1)
    e1, e2 = frames[:, 0, :], frames[:, 1, :]
    pts = np.cos(t)[None, :, None] * e1[:, None, :] + np.sin(t)[None, :, None] * e2[:, None, :]
    return pts.reshape(-1, 3)


def _sup_bounds(basis: HarmonicBasis, rows) -> np.ndarray:
    """The sup bound |row| sqrt(N / 4 pi) of |u| for each of the rows (r, N)."""
    return np.array([np.linalg.norm(row) for row in rows]) * basis.embedding_radius


def _polynomials_from_values(
    basis: HarmonicBasis, vals: np.ndarray, scale: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """P(zeta) of ``_circle_eigenvalues`` from values (..., K (m + 1)) with sup bounds (...).

    The twist e^{i m t_k} = (-1)^k e^{-i t_k} and one FFT of length m + 1 per
    circle and function give (m + 1) * (c_{-m}, c_{2-m}, ..., c_m).  Each
    circle is transformed on its own, so the coefficients of a function on a
    circle do not depend on the other functions or circles in the batch.

    Returns the coefficients (..., K, m + 1) and the mask (..., K) of the
    circles on which the function vanishes identically.
    """
    m = basis.degree
    vals = vals.reshape(*vals.shape[:-1], -1, m + 1)
    degenerate = np.max(np.abs(vals), axis=-1) <= 1e-12 * scale[..., None]
    t = math.pi * np.arange(m + 1) / (m + 1)
    twist = (-1.0) ** np.arange(m + 1) * np.exp(-1j * t)
    poly = np.fft.fft(vals * twist, axis=-1)
    # A leading coefficient below the rounding of the FFT (an even zonal
    # function is constant on its equator) is raised to that level; this
    # only moves roots near 0 and infinity.
    lead = poly[..., -1]
    floor = np.finfo(float).eps * np.max(np.abs(poly), axis=-1)
    poly[..., -1] = np.where(np.abs(lead) < floor, floor, lead)
    return poly, degenerate


def _circle_eigenvalues(
    basis: HarmonicBasis, c: np.ndarray, frames: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Companion eigenvalues zeta of u on K great circles at once, for validated inputs.

    On the circle of frame (e1, e2), u(cos t e1 + sin t e2) =
    sum_{j=-m..m} c_j e^{ijt}.  As u(-x) = (-1)^m u(x), u(t + pi) =
    (-1)^m u(t), so only the c_j with j = m mod 2 are nonzero and
    e^{imt} u(t) = P(zeta) = sum_{l=0..m} c_{2l-m} zeta^l with
    zeta = e^{2it}.  One basis evaluation at the m + 1 angles
    t_k = pi k / (m + 1) of ``_circle_points``, contracted as
    ``at_points @ c``, gives the values, and ``_polynomials_from_values``
    the coefficients of P.  The roots of u on a circle are the angles t with
    e^{2it} a unit-modulus root of P, and each such zeta gives the antipodal
    pair t, t + pi (Boyd, "Finding the zeros of a univariate equation", SIAM
    Review 55, 2013).  One batched ``eigvals`` of the m x m companion
    matrices gives the zeta; each matrix is solved on its own, so its
    eigenvalues do not depend on the other circles.

    Returns the eigenvalues (L, m) of the L circles on which u does not
    vanish identically, their indices, and the mask (K,) of the circles on
    which it does.
    """
    vals = eval_basis_many(basis, _circle_points(basis.degree, frames)) @ c
    poly, degenerate = _polynomials_from_values(basis, vals, _sup_bounds(basis, c[None])[0])
    live = np.flatnonzero(~degenerate)
    return _companion_roots(poly[live]), live, degenerate


def _companion_roots(poly: np.ndarray) -> np.ndarray:
    """Roots (K, n) of K polynomials of degree n >= 1, ascending coefficients (K, n + 1).

    One batched ``eigvals`` of the n x n companion matrices; each matrix is
    solved on its own, so its roots do not depend on the other polynomials.
    """
    n = poly.shape[1] - 1
    companion = np.zeros((poly.shape[0], n, n), dtype=complex)
    companion[:, np.arange(1, n), np.arange(n - 1)] = 1.0
    companion[:, :, -1] = -poly[:, :-1] / poly[:, -1:]
    return np.linalg.eigvals(companion)


def _fibonacci_hemisphere(n: int) -> np.ndarray:
    """n unit vectors spread over the upper hemisphere; |u(-c)| = |u(c)| covers the rest."""
    z = (np.arange(n) + 0.5) / n
    turn = math.pi * (3.0 - math.sqrt(5.0)) * np.arange(n)
    r = np.sqrt(1.0 - z * z)
    return np.stack([r * np.cos(turn), r * np.sin(turn), z], axis=1)


PENCIL_CENTERS = _fibonacci_hemisphere(32)    # candidate centers c of the great-circle pencil
# Orthonormal (a, b) spanning the plane orthogonal to each center: the last
# two right singular vectors of the center as a 1 x 3 matrix.
_PENCIL_PLANES = np.linalg.svd(PENCIL_CENTERS[:, None, :])[2][:, 1:]
PENCIL_ON_CIRCLE = 1e-7       # |log|w|| at or below: a root on the unit circle
PENCIL_OFF_CIRCLE = 1e-4      # |log|w|| at or above: a root off it; between, try the next center
PENCIL_FLAT = 1e-10           # max |R| / Hadamard bound at or below: R vanishes identically
PENCIL_CIRCLE_CACHE = 512     # cached (degree, D, center) blocks of pencil-circle basis values
PENCIL_BATCH = 1 << 20        # Sylvester entries of the samples counted together, at most


@functools.lru_cache(maxsize=MAX_SOLVER_DEGREE)
def _center_basis(degree: int) -> np.ndarray:
    """Read-only basis values (32, N) at ``PENCIL_CENTERS``."""
    return _read_only(eval_basis_many(build_basis(2, degree), PENCIL_CENTERS))


@functools.lru_cache(maxsize=PENCIL_CIRCLE_CACHE)
def _pencil_circle_basis(degree: int, pencil_degree: int, center: int) -> np.ndarray:
    """Read-only basis values ((D + 1)(m + 1), N) on the D + 1 pencil circles through one center.

    Circle k has the frame (c, cos phi_k a + sin phi_k b) with
    phi_k = pi k / (D + 1), and holds the m + 1 points of ``_circle_points``.
    """
    phi = math.pi * np.arange(pencil_degree + 1) / (pencil_degree + 1)
    a, b = _PENCIL_PLANES[center]
    frames = np.empty((phi.size, 2, 3))
    frames[:, 0] = PENCIL_CENTERS[center]
    frames[:, 1] = np.cos(phi)[:, None] * a + np.sin(phi)[:, None] * b
    return _read_only(eval_basis_many(build_basis(2, degree), _circle_points(degree, frames)))


def _center_scores(bases: list[HarmonicBasis], rows: list[np.ndarray]) -> np.ndarray:
    """min_i |f_i(c)| / sup|f_i| (S, 32) at the centers c, for the frame rows (S, N_i) of S samples.

    Each f_i(c) is summed from the cached basis values in ascending k from
    zero by ``_contract_rows``, the bits of ``eval_basis_many`` with rows.
    """
    return np.minimum(*(
        np.abs(_contract_rows(_center_basis(b.degree).T[None], r)[0]) / b.embedding_radius
        for b, r in zip(bases, rows)
    ))


def _pencil_sylvester(p1: np.ndarray, p2: np.ndarray) -> np.ndarray:
    """Sylvester matrices (..., m1 + m2, m1 + m2) of polynomial pairs, ascending coefficients.

    ``p1`` has shape (..., m1 + 1) and ``p2`` shape (..., m2 + 1); each
    determinant is the resultant of one pair.
    """
    m1, m2 = p1.shape[-1] - 1, p2.shape[-1] - 1
    sylvester = np.zeros((*p1.shape[:-1], m1 + m2, m1 + m2), dtype=complex)
    shift = np.arange(m2)[:, None]
    sylvester[..., shift, shift + np.arange(m1 + 1)] = p1[..., None, :]
    shift = np.arange(m1)[:, None]
    sylvester[..., m2 + shift, shift + np.arange(m2 + 1)] = p2[..., None, :]
    return sylvester


def pencil_count(bases, sample: SubspaceSample) -> tuple[int, float] | None:
    """|Z(u1, u2)| on S2 from the resultant over the great circles through one point.

    Every antipodal pair of Z lies on exactly one great circle through a
    center c, at a direction phi in [0, pi).  On the circle
    (c, cos phi a + sin phi b) each frame row f_i is the degree-m_i
    polynomial P_i(zeta) of ``_circle_eigenvalues``, and R(phi) =
    Res(P1, P2) vanishes where that circle holds a common pair.  R is a form
    of degree D = m1 m2 in (cos phi, sin phi) with parity D, so
    e^{iD phi} R(phi) = Q(w) is a degree-D polynomial in w = e^{2i phi}:
    R at the D + 1 angles pi k / (D + 1) (one batched ``det`` of the
    Sylvester matrices) and one FFT give its coefficients, and one D x D
    companion gives its roots (Nakatsukasa, Noferini and Townsend, Numer.
    Math. 129, 2015; Boyd, SIAM Review 55, 2013).  Each root on the unit
    circle is one pair, so the count is even and at most 2 m1 m2.

    A center's count holds when every root has margin |log|w|| at most
    ``PENCIL_ON_CIRCLE`` (on the circle) or at least ``PENCIL_OFF_CIRCLE``
    (off it).  The centers of ``PENCIL_CENTERS`` are tried in descending
    order of min_i |f_i(c)| / sup|f_i|, ties in index order, and the first
    count that holds is returned.  A root inside the gap (near-tangent zero
    curves seen edge-on, or rounding) or a pencil circle on which a frame
    function vanishes identically moves the count on to the next center.
    So does an R that vanishes identically at a center with score 0, since
    a common zero at c puts a common pair on every circle.  At a center
    with a positive score, c is off both zero sets, so R = 0 there means a
    common zero curve, and the sample is declined at once.

    Returns (count, smallest margin of a root off the circle, inf without
    one), or None -- claiming nothing -- when the sample is declined: R
    vanishes identically at a center off both zero sets, or every center
    declines.  Raises SphereInputError on the inputs ``find_common_zeros_s2``
    rejects.  This is the one-sample call of ``pencil_counts``.
    """
    return pencil_counts(bases, [sample])[0]


def pencil_counts(bases, samples) -> list[tuple[int, float] | None]:
    """``pencil_count`` of each of the samples, counted together in rounds by center rank.

    The centers of all samples are ranked at once.  Round k counts every
    sample still pending at its k-th center: one Sylvester build, one
    batched ``det``, one FFT and one batched ``eigvals`` for them all.  A
    sample whose count holds leaves, and so does one declined for good; one
    whose center declines goes on to its next center in the next round.  The
    basis values at the centers and on the pencil circles are cached, and
    every step acts on each sample alone, so a sample's count and margin
    are the same bits in any batch and at any position.  A batch holds at
    most ``PENCIL_BATCH`` Sylvester entries; more samples are counted in
    several batches.
    """
    bases, samples = _check_s2_bases(bases), list(samples)
    for sample in samples:
        _check_s2_rows(bases, sample)
    m1, m2 = bases[0].degree, bases[1].degree
    size = max(1, PENCIL_BATCH // ((m1 * m2 + 1) * (m1 + m2) ** 2))
    batches = (samples[lo : lo + size] for lo in range(0, len(samples), size))
    return [c for batch in batches for c in _pencil_rounds(bases, batch)]


def _pencil_rounds(
    bases: list[HarmonicBasis], samples: list[SubspaceSample]
) -> list[tuple[int, float] | None]:
    """``pencil_counts`` of one batch of validated samples."""
    m1, m2 = bases[0].degree, bases[1].degree
    deg = m1 * m2
    rows = [np.stack([s.frame[i, : b.dimension] for s in samples]) for i, b in enumerate(bases)]
    sup = [_sup_bounds(b, r) for b, r in zip(bases, rows)]
    score = _center_scores(bases, rows)
    order = np.argsort(-score, axis=1, kind="stable")
    phi = math.pi * np.arange(deg + 1) / (deg + 1)
    counted: list[tuple[int, float] | None] = [None] * len(samples)
    done = np.zeros(len(samples), dtype=bool)
    pending = np.arange(len(samples))
    for rank in range(order.shape[1]):
        if not pending.size:
            break
        center = order[pending, rank]
        at = list(zip(pending.tolist(), center.tolist()))
        polys, flat = [], np.zeros(pending.size, dtype=bool)
        for b, r, bound in zip(bases, rows, sup):
            vals = np.stack([_pencil_circle_basis(b.degree, deg, c) @ r[k] for k, c in at])
            poly, degenerate = _polynomials_from_values(b, vals, bound[pending])
            polys.append(poly)
            flat |= degenerate.any(axis=1)
        p1, p2 = polys[0][~flat], polys[1][~flat]
        idx, center = pending[~flat], center[~flat]
        hadamard = np.linalg.norm(p1, axis=2) ** m2 * np.linalg.norm(p2, axis=2) ** m1
        resultant = np.linalg.det(_pencil_sylvester(p1, p2))
        # |det| <= prod of row norms (Hadamard); R ~ 0 against it on every circle is R == 0.
        live = np.max(np.abs(resultant) / hadamard, axis=1) > PENCIL_FLAT
        # R == 0 at a center off both zero sets is a common zero curve: no count exists.
        declined = idx[~live & (score[idx, center] > 0)]
        idx, resultant = idx[live], resultant[live]
        q = np.fft.fft(resultant * np.exp(1j * deg * phi), axis=1) / (deg + 1)
        # Q whose degree drops to rounding has a root at infinity: decline, do not divide by it.
        live = np.abs(q[:, -1]) > np.finfo(float).eps * np.max(np.abs(q), axis=1)
        idx = idx[live]
        roots = _companion_roots(q[live])
        with np.errstate(divide="ignore"):       # a root w = 0 has margin inf
            margin = np.abs(np.log(np.abs(roots)))
        on = margin <= PENCIL_ON_CIRCLE
        holds = (on | (margin >= PENCIL_OFF_CIRCLE)).all(axis=1)
        off = np.where(on, math.inf, margin).min(axis=1)
        for k, pairs, low in zip(idx[holds], on.sum(axis=1)[holds], off[holds]):
            counted[k] = (2 * int(pairs), float(low))
        done[idx[holds]] = done[declined] = True
        pending = pending[~done[pending]]
    return counted


def restrict_to_great_circle(
    basis: HarmonicBasis, coeffs, frames
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roots of u on K great circles at once, one per orthonormal 2-frame.

    ``frames`` has shape (K, 2, 3) with K >= 1; one circle is ``frame[None]``.
    Each companion eigenvalue zeta = z^2 of ``_circle_eigenvalues`` with
    |log|zeta|| < 2 * UNIT_CIRCLE_TOL (that is, |log|z|| < UNIT_CIRCLE_TOL)
    gives the two roots arg(zeta) / 2 and arg(zeta) / 2 + pi, mod 2*pi.  A
    double root (the circle tangent to the zero set) may split into a pair
    just off the unit circle and then be missed; for random circles this is
    a measure-zero event.

    Returns the root angles of all circles in one array, ordered by circle
    and ascending in [0, 2*pi) within a circle; the root count of each
    circle; and the mask of the circles on which u vanishes identically
    (these have no roots).  The roots of a circle are the same bits
    whichever batch it is solved in.
    """
    if basis.sphere_dim != 2:
        raise SphereInputError("circle restriction is defined on S2")
    c = _binary_scaled(check_coefficients(basis, coeffs))    # |c| cannot overflow; same roots
    frames = np.asarray(frames, dtype=float)
    if frames.ndim != 3 or frames.shape[1:] != (2, 3) or frames.shape[0] == 0:
        raise SphereInputError(f"frames must have shape (K, 2, 3) with K >= 1, got {frames.shape}")
    gram_err = np.max(np.abs(np.einsum("kij,klj->kil", frames, frames) - np.eye(2)))
    if not gram_err <= 1e-10:
        raise SphereInputError(f"circle frames are not orthonormal (residual {gram_err:.2e})")
    zeta, live, degenerate = _circle_eigenvalues(basis, c, frames)
    radius, tol = np.abs(zeta), 2.0 * UNIT_CIRCLE_TOL        # |zeta| = |z|^2
    on_circle = (radius > math.exp(-tol)) & (radius < math.exp(tol))
    owner = np.broadcast_to(live[:, None], zeta.shape)[on_circle]
    half = np.angle(zeta[on_circle]) / 2.0
    angles = np.concatenate([half, half + math.pi]) % (2.0 * math.pi)
    angles[angles == 2.0 * math.pi] = 0.0       # a tiny negative angle rounds up to 2*pi
    owner = np.concatenate([owner, owner])
    order = np.lexsort((angles, owner))
    return angles[order], np.bincount(owner, minlength=frames.shape[0]), degenerate
