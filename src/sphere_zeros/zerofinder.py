"""Common zeros of pairs of eigenfunctions on S2 and single eigenfunctions on S1.

The S2 solver enumerates Z(u1, u2) = {x : u1(x) = u2(x) = 0} by

1. subdividing an icosahedral geodesic mesh to depth D,
2. discarding every triangle on which some u_i provably cannot vanish
   (sign-definite vertex values further than a Lipschitz clearance from
   zero; the Lipschitz constant comes from the exact pointwise gradient-sum
   identity, so the exclusion is certified, not heuristic),
3. re-testing survivors at their centroids with the same certified bound,
4. running a damped Newton iteration in the moving tangent plane from each
   surviving centroid, reprojecting to the sphere after every step,
5. deduplicating converged points by geodesic radius, and
6. cross-checking the count against a re-run one depth deeper; a
   disagreement escalates once more and marks the result DepthEscalated.

Agreement across depths is a strong heuristic completeness certificate, not
a proof; the Bezout ceiling 2*m1*m2 is checked on every result.  Samples
whose deduplicated candidate set exceeds four times the Bezout ceiling are
reported Degenerate (the common zero set is judged non-finite, e.g. two
axis-symmetric functions about the same axis).
"""

from __future__ import annotations

import enum
import functools
import math
import numbers
from dataclasses import dataclass

import numpy as np

from .harmonics import (
    HarmonicBasis,
    SphereInputError,
    check_coefficients,
    eval_basis_and_gradient_many,
    eval_basis_many,
    tangent_frames,
)
from .icosphere import SphereMesh, icosphere

RESIDUAL_FACTOR = 1e-9        # converged zeros satisfy |u_i| <= factor * scale
DEGENERACY_FACTOR = 4         # deduped count above factor * bezout => Degenerate
RANK_TOLERANCE = 1e-8         # smallest/largest singular value ratio
MAX_SOLVER_DEGREE = 12        # keeps the deepest confirmation mesh at depth 9
MAX_BASE_DEPTH = 7            # confirmation meshes go two levels deeper, to 9
UNIT_CIRCLE_TOL = 1e-8        # companion eigenvalues with |log|z|| below this are circle roots
NEWTON_TOL = 1e-12            # Newton stops when the step norm drops below this
MAX_NEWTON_ITER = 30
DEDUP_RADIUS = 1e-6           # geodesic merge radius for found zeros


class RankDeficientError(ValueError):
    """The coefficient rows do not span an n-dimensional function space."""


class DegenerateRestrictionError(RuntimeError):
    """A function restricted to a circle vanished identically."""


class SolverStatus(str, enum.Enum):
    COMPLETE = "Complete"
    DEPTH_ESCALATED = "DepthEscalated"
    DEGENERATE = "Degenerate"


def check_depth(depth) -> None:
    """Raise SphereInputError unless depth is None (automatic) or an integer in [1, 7]."""
    if depth is not None and (
        not isinstance(depth, numbers.Integral) or not 1 <= depth <= MAX_BASE_DEPTH
    ):
        raise SphereInputError(f"depth must be an integer in [1, {MAX_BASE_DEPTH}], got {depth!r}")


@dataclass(frozen=True)
class SubspaceSample:
    """Coefficient rows of the functions u_1, ..., u_n, one basis per row.

    ``rows`` is an (n, N_max) matrix; row i uses its first 2*m_i + 1 entries
    (trailing entries are zero-padded when degrees are mixed).  Rows of equal
    degree represent functions in the same eigenspace; rows of different
    degree live in mutually orthogonal eigenspaces, which the rank check
    accounts for.
    """

    rows: np.ndarray
    source_degrees: tuple[int, ...]

    def __post_init__(self):
        rows = np.atleast_2d(np.asarray(self.rows, dtype=float))
        degrees = tuple(int(d) for d in self.source_degrees)
        if rows.shape[0] != len(degrees):
            raise SphereInputError("one source degree is required per row")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "source_degrees", degrees)
        if not np.isfinite(rows).all():
            raise SphereInputError("coefficient rows must be finite")
        if not np.any(rows, axis=1).all():
            raise RankDeficientError("sample rows are numerically rank deficient (a zero row)")
        eigs = np.linalg.eigvalsh(self.function_gram())
        if eigs[0] <= (RANK_TOLERANCE**2) * eigs[-1]:
            raise RankDeficientError(
                "sample rows are numerically rank deficient "
                f"(singular value ratio {math.sqrt(max(eigs[0], 0.0) / eigs[-1]):.2e})"
            )

    def function_gram(self) -> np.ndarray:
        """L2 Gram matrix of the row functions scaled to unit norm.

        Cross-degree products vanish.  Scaling a function moves neither its
        zeros nor this matrix, so the rank check does not depend on scale.
        """
        rows = _unit_rows(self.rows)
        n = rows.shape[0]
        gram = np.zeros((n, n))
        for i in range(n):
            for j in range(i, n):
                if self.source_degrees[i] == self.source_degrees[j]:
                    gram[i, j] = gram[j, i] = float(np.dot(rows[i], rows[j]))
        return gram


def _unit_rows(rows: np.ndarray) -> np.ndarray:
    """Nonzero finite rows divided by their Euclidean norms.

    Each row is first scaled by the power of two that brings its largest
    entry into [0.5, 1).  That scaling is exact, so normal-range rows get
    the same bits as from a plain division, and the squared norms of tiny
    or huge rows neither underflow nor overflow.
    """
    _, exponent = np.frexp(np.max(np.abs(rows), axis=1, keepdims=True))
    rows = np.ldexp(rows, -exponent)
    return rows / np.linalg.norm(rows, axis=1, keepdims=True)


def make_sample(coefficient_rows, degrees) -> SubspaceSample:
    """Build a SubspaceSample from possibly ragged coefficient rows."""
    degrees = tuple(int(d) for d in degrees)
    widths = [np.asarray(r, dtype=float).ravel() for r in coefficient_rows]
    n_max = max(r.shape[0] for r in widths)
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
    depth_used: int = 0
    escalations: int = 0

    @classmethod
    def degenerate(
        cls, bezout_bound: int, depth_used: int = 0, escalations: int = 0
    ) -> ZeroFindingResult:
        """A Degenerate result: no zeros are reported and the residual is NaN."""
        return cls(
            zeros=np.empty((0, 3)),
            status=SolverStatus.DEGENERATE,
            max_residual=math.nan,
            bezout_bound=bezout_bound,
            depth_used=depth_used,
            escalations=escalations,
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
    return max(4, math.ceil(math.log2(max_degree)) + 3) if max_degree > 1 else 4


@functools.lru_cache(maxsize=24)
def _basis_at_vertices(degree: int, depth: int) -> np.ndarray:
    """Cached (V, N) basis values on the depth-d mesh vertices."""
    from .harmonics import build_basis

    mesh = icosphere(depth)
    return eval_basis_many(build_basis(2, degree), mesh.vertices)


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
        vals[:, idx] = eval_basis_many(basis, pts) @ rows[idx, : basis.dimension].T
    return vals


def _candidate_faces(
    mesh: SphereMesh,
    groups: list[tuple[HarmonicBasis, list[int]]],
    rows: np.ndarray,
    lipschitz: np.ndarray,
    face_pool: np.ndarray | None,
) -> tuple[np.ndarray, np.ndarray]:
    """Newton starting points and the faces that may contain a common zero.

    A zero of u_i inside a face forces |u_i| <= L_i * r at any face vertex
    (r the covering radius) and |u_i| <= L_i * reach at the centroid, with
    L_i the exact global gradient bound; faces failing either test for any i
    are excluded rigorously.  Survivors are narrowed further by certified
    quadrisection.  ``face_pool`` restricts the search (used when the parent
    depth already excluded the rest of the sphere).
    """
    faces = mesh.faces if face_pool is None else mesh.faces[face_pool]
    cov = mesh.covering_radius if face_pool is None else mesh.covering_radius[face_pool]
    corner = [np.ascontiguousarray(faces[:, k]) for k in range(3)]
    keep = np.ones(faces.shape[0], dtype=bool)
    for basis, idx in groups:
        values = _basis_at_vertices(basis.degree, mesh.depth) @ rows[idx, : basis.dimension].T
        v0, v1, v2 = values[corner[0]], values[corner[1]], values[corner[2]]
        vmax = np.maximum(np.maximum(v0, v1), v2)
        vmin = np.minimum(np.minimum(v0, v1), v2)
        amin = np.minimum(np.minimum(np.abs(v0), np.abs(v1)), np.abs(v2))
        sign_change = (vmax >= 0.0) & (vmin <= 0.0)
        clearance = lipschitz[idx][None, :] * cov[:, None]
        keep &= (sign_change | (amin <= clearance)).all(axis=1)
    cand = np.nonzero(keep)[0] if face_pool is None else face_pool[keep]
    if cand.size == 0:
        return np.empty((0, 3)), cand
    centroids = mesh.centroids[cand]
    reach = mesh.centroid_reach[cand]
    vals = _row_values(groups, rows, centroids)
    ok = (np.abs(vals) <= lipschitz[None, :] * reach[:, None]).all(axis=1)
    return centroids[ok], cand[ok]


def _newton_refine(
    groups: list[tuple[HarmonicBasis, list[int]]],
    rows: np.ndarray,
    starts: np.ndarray,
    mesh: SphereMesh,
) -> np.ndarray:
    """Newton iteration in the moving tangent plane; returns converged points."""
    if starts.shape[0] == 0:
        return starts
    pts = starts.copy()
    origin = starts
    path = np.zeros(pts.shape[0])
    state = np.zeros(pts.shape[0], dtype=np.int8)   # 0 active, 1 converged, 2 failed
    step_cap = mesh.max_edge
    travel_cap = 3.0 * mesh.max_edge                # ~ the face's 2-ring neighborhood
    path_cap = 4.0 * mesh.max_edge                  # kills oscillating non-roots early
    for _ in range(MAX_NEWTON_ITER):
        active = np.nonzero(state == 0)[0]
        if active.size == 0:
            break
        p = pts[active]
        vals = np.empty((active.size, 2))
        grad = np.empty((active.size, 2, 3))
        for basis, idx in groups:
            vals[:, idx], grad[:, idx, :] = eval_basis_and_gradient_many(
                basis, p, rows=rows[idx, : basis.dimension]
            )
        frames = tangent_frames(p)
        e1, e2 = frames[:, 0], frames[:, 1]
        j00 = np.einsum("pj,pj->p", grad[:, 0], e1)
        j01 = np.einsum("pj,pj->p", grad[:, 0], e2)
        j10 = np.einsum("pj,pj->p", grad[:, 1], e1)
        j11 = np.einsum("pj,pj->p", grad[:, 1], e2)
        det = j00 * j11 - j01 * j10
        singular = ~np.isfinite(det) | (np.abs(det) < 1e-300)
        det = np.where(singular, 1.0, det)
        s1 = (-vals[:, 0] * j11 + vals[:, 1] * j01) / det
        s2 = (-vals[:, 1] * j00 + vals[:, 0] * j10) / det
        step = np.hypot(s1, s2)
        damp = np.minimum(1.0, step_cap / np.maximum(step, 1e-300))
        moved = p + (s1 * damp)[:, None] * e1 + (s2 * damp)[:, None] * e2
        moved /= np.linalg.norm(moved, axis=1, keepdims=True)
        pts[active] = moved
        path[active] += step * damp
        travel = np.arccos(np.clip(np.einsum("pi,pi->p", moved, origin[active]), -1.0, 1.0))
        failed = singular | (travel > travel_cap) | (path[active] > path_cap)
        converged = (step < NEWTON_TOL) & ~failed
        state[active[converged]] = 1
        state[active[failed]] = 2
    return pts[state == 1]


def _dedup_and_sort(points: np.ndarray, stop_above: int) -> np.ndarray:
    """Greedy geodesic dedup (radius DEDUP_RADIUS) after collapsing near-identical points.

    Stops early (returning the oversized set) once more than ``stop_above``
    representatives appear -- the caller then declares degeneracy.
    """
    if points.shape[0] == 0:
        return points.reshape(0, 3)
    # Group nearly identical Newton outputs first (they agree to ~NEWTON_TOL,
    # far below the dedup radius); representatives keep full precision.
    _, first = np.unique(np.round(points, 8), axis=0, return_index=True)
    collapsed = points[np.sort(first)]
    order = np.lexsort((collapsed[:, 2], collapsed[:, 1], collapsed[:, 0]))
    collapsed = collapsed[order]
    reps: list[np.ndarray] = []
    rep_arr = np.empty((0, 3))
    for p in collapsed:
        if rep_arr.shape[0]:
            dots = rep_arr @ p
            if np.arccos(np.clip(dots.max(), -1.0, 1.0)) < DEDUP_RADIUS:
                continue
        reps.append(p)
        rep_arr = np.asarray(reps)
        if len(reps) > stop_above:
            break
    order = np.lexsort((rep_arr[:, 2], rep_arr[:, 1], rep_arr[:, 0]))
    return rep_arr[order]


def _children_of(faces: np.ndarray, parent_depth: int) -> np.ndarray:
    """Indices at depth+1 of the four children of each parent face.

    Subdivision emits the three corner blocks then the center block, each in
    parent order, so the children of parent p are p + k * F_parent.
    """
    nf_parent = 20 * 4**parent_depth
    return np.sort(np.concatenate([faces + k * nf_parent for k in range(4)]))


def _solve_at_depth(
    bases: list[HarmonicBasis],
    rows: np.ndarray,
    depth: int,
    bezout: int,
    face_pool: np.ndarray | None = None,
) -> tuple[np.ndarray, float, bool, np.ndarray]:
    """One full pipeline pass.

    Returns (zeros, max_residual, degenerate_flag, surviving_faces); the
    surviving faces seed the restricted search one depth deeper.
    """
    mesh = icosphere(depth)
    groups = _degree_groups(bases)
    lipschitz = np.array([math.sqrt(b.gradient_sum_constant) for b in bases])
    starts, faces_kept = _candidate_faces(mesh, groups, rows, lipschitz, face_pool)
    converged = _newton_refine(groups, rows, starts, mesh)
    if converged.shape[0]:
        resid = np.abs(_row_values(groups, rows, converged)).max(axis=1)
        converged = converged[resid <= RESIDUAL_FACTOR * lipschitz.max()]
    zeros = _dedup_and_sort(converged, DEGENERACY_FACTOR * bezout)
    degenerate = zeros.shape[0] > DEGENERACY_FACTOR * bezout
    max_residual = 0.0
    if zeros.shape[0] and not degenerate:
        max_residual = float(np.abs(_row_values(groups, rows, zeros)).max())
    return zeros, max_residual, degenerate, faces_kept


def find_common_zeros_s2(
    bases,
    sample: SubspaceSample,
    depth: int | None = None,
) -> ZeroFindingResult:
    """Enumerate Z(u1, u2) on S2 for the two coefficient rows of ``sample``.

    ``depth`` is the base mesh depth, None (automatic: max(4, ceil(log2 m) + 3))
    or an integer in [1, 7]; the count is confirmed one and, if needed, two
    levels deeper.
    """
    check_depth(depth)
    bases = list(bases)
    if len(bases) != 2 or any(b.sphere_dim != 2 for b in bases):
        raise SphereInputError("two S2 bases are required, one per sample row")
    if any(b.degree > MAX_SOLVER_DEGREE for b in bases):
        raise SphereInputError(
            f"S2 zero finding supports degrees up to {MAX_SOLVER_DEGREE} "
            "(mesh confirmation depth would exceed the supported maximum)"
        )
    if sample.rows.shape[0] != 2:
        raise SphereInputError("sample must have exactly two rows on S2")
    for i, b in enumerate(bases):
        if sample.source_degrees[i] != b.degree:
            raise SphereInputError(f"row {i} degree does not match its basis")
    # Unit rows: rescaling a function does not move its zeros, and it turns
    # the gradient-sum identity into an exact Lipschitz constant.
    rows = _unit_rows(sample.rows)
    bezout = 2 * bases[0].degree * bases[1].degree
    depth0 = depth if depth is not None else default_mesh_depth(max(b.degree for b in bases))

    zeros0, _, degen0, faces0 = _solve_at_depth(bases, rows, depth0, bezout)
    if degen0:
        return ZeroFindingResult.degenerate(bezout, depth0)
    zeros1, resid1, degen1, faces1 = _solve_at_depth(
        bases, rows, depth0 + 1, bezout, face_pool=_children_of(faces0, depth0)
    )
    if degen1:
        return ZeroFindingResult.degenerate(bezout, depth0 + 1)
    if zeros0.shape[0] == zeros1.shape[0] and zeros1.shape[0] <= bezout:
        return ZeroFindingResult(
            zeros=zeros1,
            status=SolverStatus.COMPLETE,
            max_residual=resid1,
            bezout_bound=bezout,
            depth_used=depth0 + 1,
        )
    zeros2, resid2, degen2, _ = _solve_at_depth(
        bases, rows, depth0 + 2, bezout, face_pool=_children_of(faces1, depth0 + 1)
    )
    if degen2:
        return ZeroFindingResult.degenerate(bezout, depth0 + 2, escalations=1)
    return ZeroFindingResult(
        zeros=zeros2,
        status=SolverStatus.DEPTH_ESCALATED,
        max_residual=resid2,
        bezout_bound=bezout,
        depth_used=depth0 + 2,
        escalations=1,
    )


def find_common_zeros_s1(basis: HarmonicBasis, sample: SubspaceSample) -> ZeroFindingResult:
    """Zeros of a*cos(m t) + b*sin(m t) on the circle, in closed form."""
    if basis.sphere_dim != 1:
        raise SphereInputError("an S1 basis is required")
    if sample.rows.shape != (1, 2):
        raise SphereInputError("S1 sample must be a single row of two coefficients")
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


@dataclass(frozen=True)
class CircleRestriction:
    """A degree-m function restricted to a great circle, with its roots.

    The restriction t -> u(cos(t) e1 + sin(t) e2) is a trigonometric
    polynomial of degree <= m, so it has at most 2m roots unless it vanishes
    identically (circle contained in the zero set), which raises
    DegenerateRestrictionError at construction.
    """

    basis: HarmonicBasis
    coeffs: np.ndarray
    frame: np.ndarray                 # (2, 3) orthonormal rows e1, e2
    root_angles: np.ndarray           # sorted in [0, 2*pi)

    @property
    def count(self) -> int:
        return int(self.root_angles.shape[0])

    def values(self, angles) -> np.ndarray:
        t = np.atleast_1d(np.asarray(angles, dtype=float))
        pts = np.outer(np.cos(t), self.frame[0]) + np.outer(np.sin(t), self.frame[1])
        return eval_basis_many(self.basis, pts) @ self.coeffs


def _circle_eigenvalues(
    basis: HarmonicBasis, c: np.ndarray, frames: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Companion eigenvalues of u on K great circles at once, for validated inputs.

    ``frames`` has shape (K, 2, 3).  On the circle of frame (e1, e2),
    u(cos t e1 + sin t e2) = sum_{j=-m..m} c_j e^{ijt}, so its roots are the
    angles of the unit-modulus roots of z^m sum_j c_j z^j (Boyd, "Finding
    the zeros of a univariate equation", SIAM Review 55, 2013).  One basis
    evaluation at 2m + 2 equispaced angles per circle and one FFT give the
    c_j; one batched ``eigvals`` of the 2m x 2m companion matrices gives the
    roots.  Each circle is transformed and solved on its own, so its
    eigenvalues do not depend on the other circles in the batch.

    Returns the eigenvalues (L, 2m) of the L circles on which u does not
    vanish identically, their indices, and the mask (K,) of the circles on
    which it does.
    """
    k = frames.shape[0]
    m = basis.degree
    n_samples = 2 * m + 2
    t = 2.0 * math.pi * np.arange(n_samples) / n_samples
    e1, e2 = frames[:, 0, :], frames[:, 1, :]
    pts = np.cos(t)[None, :, None] * e1[:, None, :] + np.sin(t)[None, :, None] * e2[:, None, :]
    vals = (eval_basis_many(basis, pts.reshape(-1, 3)) @ c).reshape(k, n_samples)
    scale = float(np.linalg.norm(c)) * basis.embedding_radius   # sup bound for |u|
    degenerate = np.max(np.abs(vals), axis=1) <= 1e-12 * scale

    live = np.flatnonzero(~degenerate)
    spec = np.fft.fft(vals[live], axis=1)
    # n_samples * (c_{-m}, ..., c_m), the coefficients of z^m sum_j c_j z^j in
    # ascending powers; bin m + 1 holds the absent frequency m + 1.
    poly = np.concatenate([spec[:, m + 2 :], spec[:, : m + 1]], axis=1)
    # A leading coefficient below the rounding of the FFT (an even zonal
    # function is constant on its equator) is raised to that level; this
    # only moves roots near 0 and infinity.
    lead = poly[:, -1]
    floor = np.finfo(float).eps * np.max(np.abs(poly), axis=1)
    lead = np.where(np.abs(lead) < floor, floor, lead)
    companion = np.zeros((live.size, 2 * m, 2 * m), dtype=complex)
    companion[:, np.arange(1, 2 * m), np.arange(2 * m - 1)] = 1.0
    companion[:, :, -1] = -poly[:, :-1] / lead[:, None]
    return np.linalg.eigvals(companion), live, degenerate


def _circle_roots(
    basis: HarmonicBasis, c: np.ndarray, frames: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Roots of u on K great circles at once, for validated inputs.

    A root is a companion eigenvalue z with |log|z|| < UNIT_CIRCLE_TOL, at
    angle arg z.  Returns the root angles of all circles in one array,
    ordered by circle and ascending in [0, 2*pi) within a circle; the root
    count of each circle; and a mask of the circles on which u vanishes
    identically (these have no roots).
    """
    z, live, degenerate = _circle_eigenvalues(basis, c, frames)
    radius = np.abs(z)
    on_circle = (radius > math.exp(-UNIT_CIRCLE_TOL)) & (radius < math.exp(UNIT_CIRCLE_TOL))
    owner = np.broadcast_to(live[:, None], z.shape)[on_circle]
    angles = np.angle(z[on_circle]) % (2.0 * math.pi)
    angles[angles == 2.0 * math.pi] = 0.0       # a tiny negative angle rounds up to 2*pi
    order = np.lexsort((angles, owner))
    return angles[order], np.bincount(owner, minlength=frames.shape[0]), degenerate


def restrict_to_great_circle(basis: HarmonicBasis, coeffs, circle_frame) -> CircleRestriction:
    """Roots of u along the great circle spanned by an orthonormal 2-frame.

    The restriction is a trigonometric polynomial of degree m; its roots are
    the unit-circle eigenvalues of a 2m x 2m companion matrix built from one
    FFT of 2m + 2 samples.  A double root (the circle tangent to the zero
    set) may split into a pair just off the unit circle and then be missed;
    for the random circles used by the length estimator this is a
    measure-zero event.

    This is the one-circle case of the batched core that ``crofton_length``
    runs on many circles at once; the roots of a circle are the same bits
    whichever batch it is solved in.
    """
    if basis.sphere_dim != 2:
        raise SphereInputError("circle restriction is defined on S2")
    c = check_coefficients(basis, coeffs)
    frame = np.asarray(circle_frame, dtype=float)
    if frame.shape != (2, 3):
        raise SphereInputError("circle_frame must be two 3-vectors")
    gram_err = np.max(np.abs(frame @ frame.T - np.eye(2)))
    if gram_err > 1e-10:
        raise SphereInputError(f"circle frame is not orthonormal (residual {gram_err:.2e})")
    roots, _, degenerate = _circle_roots(basis, c, frame[None])
    if degenerate[0]:
        raise DegenerateRestrictionError("function vanishes identically on the circle")
    return CircleRestriction(basis=basis, coeffs=c, frame=frame, root_angles=roots)
