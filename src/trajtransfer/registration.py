"""Relative object pose estimation: coarse yaw sweep + Generalized ICP.

The coarse stage replaces a learned pose regressor with a deterministic
centroid shift and a discrete yaw sweep about the vertical axis.  The refine
stage is plane-to-plane Generalized ICP: nearest-neighbour correspondences
within an inlier radius, per-point planar covariances, and a damped
Gauss-Newton step on the summed Mahalanobis cost.  Only cost-decreasing steps
are accepted, so the reported final cost never exceeds the cost at init.

GICP stops (converged) when 8 damped trials in a row fail to lower the cost,
or, before a trial's KD query, when the trial's step would move no matched
demo point by more than ``step_stop`` (10 micrometres with ``GicpParams``), a
stop on step size in physical units (Madsen, Nielsen and Tingleff, "Methods
for Non-Linear Least Squares Problems", 2004).  The step ``[w, t]`` moves a
point ``p`` by at most ``|w| |p| + |t|``, since ``|(R - I) p| <= angle |p|``.
The tasks need millimetres and the sensor noise is 2 mm, so a finer polish
buys no success: against a loop that polishes to float noise, final poses
moved by at most 25 micrometres and 0.11 mrad on the scenes of
``TestStepStop`` (more where the yaw is free, as on a bottle), for about 30%
fewer cost evaluations than a stop at 25 nm.

:func:`estimate_delta` sweeps the whole demo cloud but refines on half of
its points, chosen once per demo by normal-space sampling
(:func:`normal_space_sample`), so a rare surface direction keeps its points
while a large flat face gives up half of its points or more.  ``fitness`` is
measured against this subset.  GICP takes about 30% less time on unseen
occluded rollouts than on the whole cloud.

The sweep scores a 20 degree grid, then the 5 degree yaws next to each grid
yaw within 5% of the grid's best (see :func:`coarse_align`): a third fewer KD
queries than one bounded sweep of all 72 yaws, whose pick it kept in all
1,948 benchmark rollouts checked (seeds 1-3 of each workload, 4 of unseen).

Five savings leave every result bit-identical.  :func:`estimate_delta`
memoizes a demo's covariances and its subset on the demo per neighbour count
``k``, computed at its first registration (not at ingest or load), so later
registrations of that demo reuse them.  Every KD query is bounded just above
the distance beyond which its caller discards the match: the sweep clamps
distances at its cap, and GICP keeps only matches within ``inlier_radius``.
scipy returns ``inf`` (index ``n``) past the bound, and ``min(inf, cap) ==
cap`` as before; the GICP bound is ``nextafter(inlier_radius, inf)`` because
scipy's bound is strict, so a match at exactly the radius still comes back
and counts.  Within one GICP run, a demo point is queried again only if its
move since its last query could have changed its match (see
:class:`_Matches`): 36% of points per cost evaluation on seen clouds, 48% on
unseen occluded ones.  The demo covariances turn with the trial's
rotation in one flat matrix product, which gives the bits of
the stacked ``R @ C @ R.T`` at about a third of its cost.  And the batched
3x3 kernels (:func:`_eigh3x3`, :func:`_inv3x3` and the neighbour mean of
:func:`estimate_covariances`) run on contiguous rows of components, not on
strided views of the stack, with the stacked forms' bits (the tests keep
those forms as references).  That matters most at a demo's first
registration, which estimates its covariances and subset: 4.75 ms before,
3.46 ms after (median over the archive benchmark's 60 demo clouds of 800
points), of which the k-nearest-neighbour query takes 1.67 ms.

A cloud with a coordinate beyond ``MAX_COORDINATE`` raises OutOfRange, as a
too small one raises TooFewPoints, so no input ends in a numpy exception.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.spatial import cKDTree

from .errors import EmptyCloud, NoCorrespondences, OutOfRange, TooFewPoints
from .se3 import Pose, PointCloud, compose

EPS_PLANE = 1e-3  # smallest-eigenvalue floor, relative to the largest
# largest |coordinate| registration accepts, in metres: far beyond any
# tabletop, and far below where squared distances and the Gauss-Newton
# system overflow
MAX_COORDINATE = 1e6
SWEEP_SLICES = 8  # ~50 of an 800-point demo's 400 swept points each: enough to prune, few KD calls
_TIE = 1e-12  # a yaw must beat the incumbent by more than this
COARSE_GRID = 4  # the sweep's first pass scores every 4th yaw, a 20 degree grid
COARSE_SLACK = 0.05  # and keeps the grid yaws within 5% of the grid's best
NORMAL_POLAR = 4  # normal-space sampling's buckets: polar angle bins over [0, pi/2]
NORMAL_AZIMUTH = 8  # and azimuth bins over the full turn


class GicpParams:
    """GICP's fixed settings, read as class attributes; ``GicpParams()`` takes no arguments.
    Module constants would be simpler, once perfbench no longer imports this class."""

    max_iterations = 50
    inlier_radius = 0.025  # metres
    # stop before a trial whose step would move no matched demo point by more
    # than this, in metres
    step_stop = 1e-5
    damping = 1e-4  # initial Levenberg lambda
    k_neighbors = 20
    yaw_steps = 72  # coarse sweep resolution (5 degree steps)


@dataclass(frozen=True)
class RegistrationResult:
    """GICP's best pose and how it ended.

    ``iterations`` counts Gauss-Newton linearisations, the last one included
    even if none of its trials was evaluated; ``converged`` is False only when
    ``max_iterations`` ran out.  If the step stop fires before the first
    trial (the first damped step from ``init`` would move no matched point by
    more than ``step_stop``), the result is ``delta = init``, ``iterations =
    1`` and ``converged = True``.
    """

    delta: Pose  # maps demo-cloud coordinates to test-cloud coordinates (robot frame)
    inlier_rmse: float
    fitness: float  # fraction of test points within the radius of a registered demo point
    iterations: int
    converged: bool

    def to_dict(self) -> dict:
        return {**vars(self), "delta": self.delta.as_row()}


def _check_extent(*clouds: PointCloud) -> None:
    for cloud in clouds:
        if len(cloud) and np.abs(cloud.points).max() > MAX_COORDINATE:
            raise OutOfRange(f"cloud coordinates exceed {MAX_COORDINATE:g} m")


def _sweep_angles(steps: int):
    """Yaw candidates ordered by |angle| so degenerate ties resolve low."""
    step = 2.0 * math.pi / steps
    angles = [0.0]
    for k in range(1, steps // 2 + 1):
        angles.append(k * step)
        if k * step < math.pi - 1e-12:
            angles.append(-k * step)
    return angles


def coarse_align(demo_cloud: PointCloud, test_cloud: PointCloud) -> Pose:
    """Centroid shift plus best yaw from a two-pass sweep about the vertical.

    A yaw scores the nearest-neighbour RMSE of the turned demo cloud against
    the test cloud.  Pass 1 scores every ``COARSE_GRID``-th yaw (a 20 degree
    grid that holds yaw 0); its candidates are the grid yaws scoring at most
    ``1 + COARSE_SLACK`` times the grid's best.  Pass 2 scores the yaws at
    most ``COARSE_GRID // 2`` steps from a candidate, and in sweep order a yaw
    replaces the incumbent only if strictly better (by ``_TIE``), so a
    rotationally symmetric cloud (every grid yaw a candidate, all 72 yaws in
    pass 2) keeps the lowest angle.  A basin next to no candidate is missed.

    Each pass is a branch and bound with slack ``s`` (``COARSE_SLACK``, then
    0) over ``SWEEP_SLICES`` strided slices of the demo points.  Capped
    squared distances are non-negative, so a yaw's partial sum over the slices
    scored so far bounds its score from below.  After the first slice the yaw
    with the lowest partial sum is scored in full; its score ``U`` is the
    incumbent.  After each slice every yaw whose bound exceeds ``(1 + s) U +
    margin`` is dropped, with ``margin = 1e-9 * U + 2 * len(angles) * _TIE``,
    and only the survivors query the next slice (pass 2 reuses pass 1's full
    rows).  The kept rows are complete and in the original point order, and a
    point's distance does not depend on the batch it was queried in, so each
    kept score is the unbounded sweep's.

    Pass 1 drops no candidate: a pruned yaw scores above ``(1 + s) U``, and
    ``U`` is at least the grid's best, which is kept.  In pass 2 a pruned yaw
    cannot change the winner.  Over any set of yaws that holds the incumbent,
    the selection loop ends on a score at most ``U + _TIE``, because every yaw
    scores at least the final score minus ``_TIE``.  Take the loop over the
    pass's yaws and the loop without one yaw ``h`` scoring above ``U +
    margin``.  They first differ when ``h`` becomes the incumbent; from
    then on the lower of their two incumbent scores drops by at most ``_TIE``
    per yaw, or a yaw beats both incumbents and the loops agree again.  Loops
    still apart after the last of at most ``len(angles)`` yaws would both end
    above ``U + margin - len(angles) * _TIE``, which is above ``U + _TIE``,
    so they agree, and by induction over the pruned yaws so does the pruned
    sweep.  The margin's relative term absorbs the rounding of partial sums.
    """
    if len(demo_cloud) == 0 or len(test_cloud) == 0:
        raise EmptyCloud("coarse alignment requires non-empty clouds")
    _check_extent(demo_cloud, test_cloud)
    c_demo = demo_cloud.points.mean(axis=0)
    c_test = test_cloud.points.mean(axis=0)
    centered = demo_cloud.points - c_demo
    # the sweep only has to pick a 5 degree bin; an even subsample keeps the
    # score discriminative at a fraction of the query cost
    if len(centered) > 600:
        step = len(centered) // 600 + 1
        centered = centered[::step]
    n = len(centered)
    tree = cKDTree(test_cloud.points)
    # cap per-point distances so parts visible in only one of two partial
    # views bound the penalty without drowning out small discriminative
    # features (handles, spouts)
    cap = 0.01
    angles = _sweep_angles(GicpParams.yaw_steps)
    ca = np.cos(angles)
    sa = np.sin(angles)

    def capped(yaws, pts):
        """Capped NN distances of ``pts`` turned by each yaw, (len(yaws), len(pts))."""
        x, y, z = pts[:, 0], pts[:, 1], pts[:, 2]
        moved = np.empty((len(yaws), len(pts), 3))
        moved[:, :, 0] = ca[yaws, None] * x - sa[yaws, None] * y
        moved[:, :, 1] = sa[yaws, None] * x + ca[yaws, None] * y
        moved[:, :, 2] = z
        moved += c_test
        d, _ = tree.query(moved.reshape(-1, 3), distance_upper_bound=cap)
        return np.minimum(d.reshape(len(yaws), len(pts)), cap)

    d = np.empty((len(angles), n))  # rows of pruned yaws stay unfilled
    full = np.zeros(len(angles), dtype=bool)  # rows scored in full

    def sweep(yaws, slack):
        """The yaws of ``yaws`` that survive the bound, in sweep order, and their scores."""
        partial = np.zeros(len(angles))  # sums of squared capped distances so far
        alive = yaws
        for c in range(min(SWEEP_SLICES, n)):
            cols = slice(c, None, SWEEP_SLICES)
            new = alive[~full[alive]]  # a row scored in full is reused
            d[new, cols] = capped(new, centered[cols])
            rows = d[alive, cols]
            partial[alive] += np.einsum("ij,ij->i", rows, rows)
            if c == 0:  # the incumbent: the most promising yaw, scored in full
                best = alive[np.argmin(partial[alive])]
                if not full[best]:
                    rest = np.arange(n) % SWEEP_SLICES != 0
                    d[best, rest] = capped([best], centered[rest])[0]
                U = float(np.sqrt(np.mean(d[best] * d[best])))
                # a yaw survives while its bound sqrt(partial / n) <= (1 + slack) U + margin
                bound = n * ((1.0 + slack) * U + 1e-9 * U + 2.0 * _TIE * len(angles)) ** 2
                alive = alive[alive != best]
            alive = alive[partial[alive] <= bound]
            if len(alive) == 0:
                break
        keep = np.sort(np.append(alive, best))  # sweep order
        full[keep] = True
        kept = d[keep]
        return keep, np.sqrt(np.mean(kept * kept, axis=1))

    turns = np.rint(np.array(angles) / (2.0 * math.pi / len(angles))).astype(int)  # in 5 degree steps
    keep, scores = sweep(np.flatnonzero(turns % COARSE_GRID == 0), COARSE_SLACK)
    candidates = turns[keep[scores <= (1.0 + COARSE_SLACK) * scores.min()]]
    apart = np.abs((turns[:, None] - candidates + len(angles) // 2) % len(angles) - len(angles) // 2)
    keep, scores = sweep(np.flatnonzero(apart.min(axis=1) <= COARSE_GRID // 2), 0.0)
    best_angle, best_score = 0.0, math.inf
    for i, score in zip(keep, scores):
        if score < best_score - _TIE:
            best_score, best_angle = float(score), angles[i]
    R = Pose.from_yaw(best_angle)
    # p_test = R (p_demo - c_demo) + c_test
    t = c_test - R.rotation_matrix() @ c_demo
    return Pose(R.rotation, t)


def _components(A: np.ndarray) -> np.ndarray:
    """The nine entries of stacked (N, 3, 3) matrices as a contiguous (9, N)
    block, row-major: row ``3 i + j`` holds every matrix's entry ``(i, j)``."""
    return np.ascontiguousarray(A.reshape(-1, 9).T)


def _stacked(rows) -> np.ndarray:
    """The C-contiguous (N, 3, 3) matrices whose entry ``(i, j)`` is ``rows[3 i + j]``."""
    out = np.empty((len(rows[0]), 9))
    for j, row in enumerate(rows):
        out[:, j] = row
    return out.reshape(-1, 3, 3)


def _cross(u, v):
    """``np.cross`` of 3-vectors given as component triples: the same
    products and subtractions in the same order, so the same bits."""
    return u[1] * v[2] - u[2] * v[1], u[2] * v[0] - u[0] * v[2], u[0] * v[1] - u[1] * v[0]


def _eigh3x3(A: np.ndarray):
    """Batched eigendecomposition of symmetric (N, 3, 3) matrices with finite entries.

    Analytic trigonometric eigenvalues and cross-product eigenvectors; rows
    with a near-degenerate spectrum fall back to ``np.linalg.eigh``.  Returns
    ``(w, v)`` with ascending eigenvalues and eigenvectors in the columns of
    ``v``, matching ``np.linalg.eigh``.  It works on contiguous rows of
    components (:func:`_components`), not on strided views of the stack:
    0.30 ms on an 800-point demo's covariances, against 0.72 ms on the views
    and 0.69 ms for ``np.linalg.eigh`` (median over the archive benchmark's
    60 demos, minimum of 7 timings, numpy 2.4.6, OpenBLAS 0.3.31).  Its bits
    are those of the stacked form it replaced, which ``TestEigh3x3`` keeps
    as its reference: each eigenvector candidate is ``np.cross``'s
    arithmetic on the rows of ``A - lam I``, off-diagonal ``lam * 0.0``
    included, and the first of the longest candidates wins, as with
    ``argmax``.
    """
    a00, a01, a02, a10, a11, a12, a20, a21, a22 = _components(A)
    q = (a00 + a11 + a22) / 3.0
    p1 = a01 * a01 + a02 * a02 + a12 * a12
    b00, b11, b22 = a00 - q, a11 - q, a22 - q
    p2 = b00 * b00 + b11 * b11 + b22 * b22 + 2.0 * p1
    p = np.sqrt(np.maximum(p2, 0.0) / 6.0)
    ps = np.where(p > 0.0, p, 1.0)
    c00, c01, c02 = b00 / ps, a01 / ps, a02 / ps
    c11, c12, c22 = b11 / ps, a12 / ps, b22 / ps
    det_b = (
        c00 * (c11 * c22 - c12 * c12)
        - c01 * (c01 * c22 - c12 * c02)
        + c02 * (c01 * c12 - c11 * c02)
    )
    phi = np.arccos(np.clip(det_b / 2.0, -1.0, 1.0)) / 3.0
    w_hi = q + 2.0 * p * np.cos(phi)
    w_lo = q + 2.0 * p * np.cos(phi + 2.0 * math.pi / 3.0)
    w = np.stack([w_lo, 3.0 * q - w_hi - w_lo, w_hi], axis=1)

    def eigvec(lam):
        off = lam * 0.0  # what ``lam * np.eye(3)`` puts off the diagonal
        r0 = (a00 - lam, a01 - off, a02 - off)
        r1 = (a10 - off, a11 - lam, a12 - off)
        r2 = (a20 - off, a21 - off, a22 - lam)
        cands = [_cross(r0, r1), _cross(r0, r2), _cross(r1, r2)]
        norms = [np.sqrt(c[0] * c[0] + c[1] * c[1] + c[2] * c[2]) for c in cands]
        best, top = cands[0], norms[0]
        for cand, norm in zip(cands[1:], norms[1:]):
            longer = norm > top  # strictly: a tie keeps the earlier candidate
            best = [np.where(longer, x, y) for x, y in zip(cand, best)]
            top = np.where(longer, norm, top)
        n = np.where(top > 0.0, top, 1.0)
        return [x / n for x in best], top

    v_lo, n_lo = eigvec(w[:, 0])
    v_hi, n_hi = eigvec(w[:, 2])
    v_mid = _cross(v_hi, v_lo)
    v = _stacked([vec[i] for i in range(3) for vec in (v_lo, v_mid, v_hi)])

    # fall back where the analytic vectors are unreliable: repeated
    # eigenvalues (tiny cross products) or a (near-)isotropic matrix
    scale = np.maximum(np.abs(w).max(axis=1), 1e-300)
    gap = np.minimum(w[:, 1] - w[:, 0], w[:, 2] - w[:, 1])
    bad = (gap <= 1e-6 * scale) | (n_lo <= 1e-12 * scale * scale) | (n_hi <= 1e-12 * scale * scale)
    if np.any(bad):
        w_b, v_b = np.linalg.eigh(A[bad])
        w[bad] = w_b
        v[bad] = v_b
    return w, v


def estimate_covariances(cloud: PointCloud, k: int = GicpParams.k_neighbors) -> np.ndarray:
    """(N, 3, 3) per-point covariances of the k nearest neighbours, planar-regularized.

    Eigenvalues are clamped below at EPS_PLANE times the largest so plane
    patches stay invertible in the Mahalanobis weights.  A plane needs
    ``k >= 3`` neighbours.
    """
    if k < 3:
        raise TooFewPoints(f"a planar covariance needs >= 3 neighbours, got k={k}")
    n = len(cloud)
    if n < k:
        raise TooFewPoints(f"need >= {k} points, cloud has {n}")
    _check_extent(cloud)
    tree = cKDTree(cloud.points)
    _, idx = tree.query(cloud.points, k=k)
    nbrs = np.take(cloud.points, idx.T, axis=0)  # (k, N, 3): neighbour-major
    # the neighbours' mean, summed in neighbour order, as ``mean(axis=1)`` of
    # the (N, k, 3) stack sums it (a test pins the order)
    nbrs -= np.add.reduce(nbrs, axis=0) / k
    centered = np.ascontiguousarray(nbrs.transpose(1, 0, 2))  # (N, k, 3)
    cov = centered.transpose(0, 2, 1) @ centered / k
    w, v = _eigh3x3(cov)
    largest = np.maximum(w[:, -1], 1e-12)
    w = np.maximum(w, (EPS_PLANE * largest)[:, None])
    return (v * w[:, None, :]) @ v.transpose(0, 2, 1)


def _inv3x3(c: np.ndarray) -> np.ndarray:
    """Batched analytic inverse of (N, 3, 3) matrices via the adjugate.

    Orders of magnitude faster than ``np.linalg.inv`` on batches of small
    matrices, which dominates the refinement loop otherwise.  Works on
    contiguous rows of components (:func:`_components`) and returns a
    C-contiguous stack, with the bits of the stacked form ``TestInv3x3``
    keeps as its reference.
    """
    a, b, c_, d, e, f, g, h, i = _components(c)
    A = e * i - f * h
    B = f * g - d * i
    C = d * h - e * g
    det = a * A + b * B + c_ * C
    out = _stacked(
        [A, c_ * h - b * i, b * f - c_ * e, B, a * i - c_ * g, c_ * d - a * f, C, b * g - a * h, a * e - b * d]
    )
    out /= det[:, None, None]
    return out


def _exp_step(delta: np.ndarray) -> Pose:
    """Pose from a small twist [rot_vec, trans]."""
    w = delta[:3]
    angle = float(np.linalg.norm(w))
    return Pose.from_axis_angle(w if angle > 0 else (0, 0, 1), angle, delta[3:])


def _query_within(tree, pts, radius):
    """Nearest-neighbour distances and indices, exact up to ``radius``.

    Beyond the radius a match may come back as ``inf`` with index
    ``tree.n``; callers use only the matches with ``dist <= radius``.
    """
    return tree.query(pts, distance_upper_bound=np.nextafter(radius, np.inf))


class _Matches:
    """Answers ``_query_within(tree, pts, radius)`` for successive positions
    of the same points, sending to the tree only the points whose answer can
    have changed since they were last queried.

    A point queried at ``a`` keeps its nearest test point ``j`` at ``d1`` and
    the runner-up's distance ``d2`` (a k=2 query bounded at ``2 * radius``;
    beyond the bound both count as ``2 * radius``).  Moved by ``m = |p - a|``,
    every test point's distance changes by at most ``m`` (triangle
    inequality; Elkan, "Using the Triangle Inequality to Accelerate k-Means",
    ICML 2003).  So the point keeps ``j`` within the radius while ``2 m < d2 -
    d1`` and ``d1 + m < radius``, and has no match within it while ``d1 - m >
    radius``.  Each rule holds by ``slack``, which covers the rounding of the
    distances at any coordinate registration accepts, and becomes one bound
    on ``m`` per point, ``safe``.  Points that moved by ``safe`` or more are
    queried again.  Where a new query leaves ``safe <= 0`` (its nearest two
    within ``slack`` of each other, a tie the tree may break either way, or
    its nearest within ``slack`` of the radius) the answer comes from
    ``_query_within`` itself, so ``dist <= radius`` and the indices there are
    exactly the tree's.  A kept match reports its distance at ``a``.
    """

    def __init__(self, tree, radius: float):
        self.tree = tree
        self.radius = radius
        self.bound = np.nextafter(radius, np.inf)
        self.reach = 2.0 * radius
        # a few ulps of the largest coordinate accepted (1.2e-10 m each at
        # MAX_COORDINATE): far above the rounding of any distance compared
        self.slack = 1e-9 * radius + 8.0 * np.spacing(MAX_COORDINATE)
        self.anchor = None  # (N, 3): where each point was last queried
        self.dist = self.idx = None  # the answer at the anchor
        self.safe_sq = None  # safe ** 2, or -1 where safe <= 0

    def query(self, pts, distance_upper_bound):
        if distance_upper_bound != self.bound:
            raise ValueError("_Matches answers only _query_within at its own radius")
        if self.anchor is None:
            self.anchor = np.empty_like(pts)
            self.dist = np.empty(len(pts))
            self.idx = np.empty(len(pts), dtype=np.intp)
            self.safe_sq = np.empty(len(pts))
            todo = np.arange(len(pts))
        else:
            diff = pts - self.anchor
            todo = np.flatnonzero(np.einsum("ni,ni->n", diff, diff) >= self.safe_sq)
        if len(todo):
            p = pts[todo]
            d, i = self.tree.query(p, k=2, distance_upper_bound=self.reach)
            d1 = np.minimum(d[:, 0], self.reach)
            gap = np.minimum(d[:, 1], self.reach) - d1
            within = d1 <= self.radius
            safe = np.where(
                within,
                np.minimum(0.5 * (gap - self.slack), self.radius - self.slack - d1),
                d1 - self.radius - self.slack,
            )
            self.anchor[todo] = p
            self.dist[todo] = np.where(within, d1, np.inf)
            self.idx[todo] = np.where(within, i[:, 0], self.tree.n)
            self.safe_sq[todo] = np.where(safe > 0.0, safe * safe, -1.0)
            unsure = safe <= 0.0
            if np.any(unsure):
                rows = todo[unsure]
                self.dist[rows], self.idx[rows] = _query_within(self.tree, p[unsure], self.radius)
        return self.dist.copy(), self.idx.copy()


def _rotate_covariances(R: np.ndarray, cov: np.ndarray) -> np.ndarray:
    """``R @ cov @ R.T`` for stacked (N, 3, 3) ``cov`` as one flat product.

    Stacked against the transposed ``R.T`` numpy multiplies matrix by matrix;
    flattened, the second product is one (3N, 3) @ (3, 3) call, and with
    OpenBLAS the bits are the same (a test pins this).
    """
    return ((R @ cov).reshape(-1, 3) @ R.T).reshape(-1, 3, 3)


def _corresponding_cost(pose, demo_pts, cov_demo, tree, test_pts, cov_test):
    """Correspondences + mean Mahalanobis cost at a pose; None if no matches.

    ``tree`` is the test cloud's ``cKDTree`` or a :class:`_Matches` over it.
    """
    R = pose.rotation_matrix()
    moved = demo_pts @ R.T + pose.translation
    radius = GicpParams.inlier_radius
    dist, idx = _query_within(tree, moved, radius)
    mask = dist <= radius
    rows = np.flatnonzero(mask)
    if len(rows) == 0:
        return None
    src = moved[rows]
    match = idx[rows]
    tgt = test_pts[match]
    cov = cov_test[match] + _rotate_covariances(R, cov_demo[rows])
    W = _inv3x3(cov)
    d = tgt - src
    Wd = (W @ d[:, :, None])[:, :, 0]
    cost = float(np.einsum("ni,ni->", d, Wd) / d.shape[0])
    return mask, src, tgt, W, d, cost


def generalized_icp(
    demo_cloud: PointCloud,
    test_cloud: PointCloud,
    init: Pose,
    *,
    demo_covariances: np.ndarray | None = None,
    test_covariances: np.ndarray | None = None,
) -> RegistrationResult:
    """Refine ``init`` by plane-to-plane GICP; returns the last accepted pose,
    which is the best visited, since a trial is accepted only if it lowers the
    cost.

    ``demo_covariances``/``test_covariances`` accept precomputed
    :func:`estimate_covariances` results with
    ``k = min(GicpParams.k_neighbors, len(demo_cloud), len(test_cloud))``, so
    repeated registrations against the same cloud skip the (comparatively
    expensive) re-estimation; :func:`estimate_delta` passes the demo's memo.
    Correspondence and fitness queries are bounded just above
    ``inlier_radius`` (see :func:`_query_within`), which changes no result.
    """
    if len(demo_cloud) == 0 or len(test_cloud) == 0:
        raise EmptyCloud("registration requires non-empty clouds")
    _check_extent(demo_cloud, test_cloud)
    k = min(GicpParams.k_neighbors, len(demo_cloud), len(test_cloud))
    if demo_covariances is None:
        demo_covariances = estimate_covariances(demo_cloud, k)
    if test_covariances is None:
        test_covariances = estimate_covariances(test_cloud, k)
    demo_pts = demo_cloud.points
    test_pts = test_cloud.points
    radius = GicpParams.inlier_radius
    tree = _Matches(cKDTree(test_pts), radius)

    state = _corresponding_cost(init, demo_pts, demo_covariances, tree, test_pts, test_covariances)
    if state is None:
        raise NoCorrespondences("no correspondences within the inlier radius at init")
    pose = init
    lam = GicpParams.damping
    converged = False
    iterations = 0
    # residual model r(delta) = d + [src]x dw - dt, so J = [[src]x, -I]; one
    # buffer for every linearisation, its leading rows in use
    J_all = np.zeros((len(demo_pts), 3, 6))
    J_all[:, :, 3:] = -np.eye(3)
    ridge = 1e-12 * np.eye(6)
    for iterations in range(1, GicpParams.max_iterations + 1):
        mask, src, tgt, W, d, cost = state
        J = J_all[: len(src)]
        J[:, 0, 1] = -src[:, 2]
        J[:, 0, 2] = src[:, 1]
        J[:, 1, 0] = src[:, 2]
        J[:, 1, 2] = -src[:, 0]
        J[:, 2, 0] = -src[:, 1]
        J[:, 2, 1] = src[:, 0]
        WJ = (W @ J).reshape(-1, 6)
        H = J.reshape(-1, 6).T @ WJ
        g = WJ.T @ d.reshape(-1)
        diag = np.diag(np.diag(H))
        reach = float(np.sqrt(np.einsum("ni,ni->n", src, src).max()))
        accepted = False
        for _ in range(8):
            try:
                step = np.linalg.solve(H + lam * diag + ridge, -g)
            except np.linalg.LinAlgError:
                break
            # |(R - I) p| <= angle |p|: no matched point would move further
            if np.linalg.norm(step[:3]) * reach + np.linalg.norm(step[3:]) <= GicpParams.step_stop:
                break
            cand = compose(_exp_step(step), pose)
            cand_state = _corresponding_cost(cand, demo_pts, demo_covariances, tree, test_pts, test_covariances)
            if cand_state is not None and cand_state[5] < cost:
                accepted = True
                pose, state = cand, cand_state
                lam = max(lam / 3.0, 1e-10)
                break
            lam *= 10.0
        if not accepted:
            converged = True
            break

    # diagnostics at the final pose: coverage of the test cloud
    R = pose.rotation_matrix()
    moved = demo_pts @ R.T + pose.translation
    back_tree = cKDTree(moved)
    dist, _ = _query_within(back_tree, test_pts, radius)
    inliers = dist <= radius
    fitness = float(np.count_nonzero(inliers) / len(test_pts))
    inlier_rmse = float(np.sqrt(np.mean(dist[inliers] ** 2))) if np.any(inliers) else 0.0
    return RegistrationResult(
        delta=pose,
        inlier_rmse=inlier_rmse,
        fitness=fitness,
        iterations=iterations,
        converged=converged,
    )


def normal_space_sample(covariances: np.ndarray, k: int) -> np.ndarray:
    """Sorted indices of half of a cloud's points (all of them if half would
    hold fewer than ``2 * k``), chosen by normal-space sampling (Rusinkiewicz
    and Levoy, "Efficient Variants of the ICP Algorithm", 3DIM 2001).

    A point's normal is the smallest-eigenvalue eigenvector of its covariance,
    turned so that its z is >= 0, and falls into one of ``NORMAL_POLAR`` x
    ``NORMAL_AZIMUTH`` buckets of equal polar and azimuth angle.  Points are
    taken round-robin across the buckets, one per bucket and round, in bucket
    order; within a bucket the even positions (in index order) come first,
    then the odd ones.  So a rare normal direction (a handle, a rim, a spout)
    keeps all its points while a large flat face gives up half of them or
    more.
    """
    n = len(covariances)
    half = n // 2
    if half < 2 * k:
        return np.arange(n)
    normals = _eigh3x3(covariances)[1][:, :, 0]
    normals = np.where(normals[:, 2:] < 0.0, -normals, normals)
    polar = np.arccos(np.clip(normals[:, 2], 0.0, 1.0))  # [0, pi/2]
    azimuth = np.arctan2(normals[:, 1], normals[:, 0])  # [-pi, pi]
    p_bin = np.minimum((polar * (2.0 * NORMAL_POLAR / math.pi)).astype(np.intp), NORMAL_POLAR - 1)
    a_bin = (((azimuth + math.pi) * (NORMAL_AZIMUTH / (2.0 * math.pi))).astype(np.intp)) % NORMAL_AZIMUTH
    bucket = p_bin * NORMAL_AZIMUTH + a_bin
    by_bucket = np.argsort(bucket, kind="stable")  # bucket by bucket, index order within
    sizes = np.bincount(bucket, minlength=NORMAL_POLAR * NORMAL_AZIMUTH)
    starts = np.cumsum(sizes) - sizes
    b = bucket[by_bucket]
    pos = np.arange(n) - starts[b]  # position within the bucket
    rank = np.empty(n, dtype=np.intp)  # the round in which each point is taken
    rank[by_bucket] = np.where(pos % 2 == 0, pos // 2, (sizes[b] + 1) // 2 + pos // 2)
    order = np.lexsort((bucket, rank))  # round by round, buckets in order
    return np.sort(order[:half])


def estimate_delta(demo, test_cloud: PointCloud) -> RegistrationResult:
    """Full pipeline: coarse yaw-sweep init on the whole demo cloud, then GICP
    refinement on the demo's registered subset.

    At its first registration with a given ``k`` the demo's covariances are
    estimated on the whole cloud, and ``demo.covariances[k]`` keeps the
    subset :func:`normal_space_sample` picks from them, as a cloud, with the
    subset's rows of those covariances.  The result equals
    ``generalized_icp`` of that cloud with those covariances bit for bit.
    """
    init = coarse_align(demo.object_cloud, test_cloud)
    k = min(GicpParams.k_neighbors, len(demo.object_cloud), len(test_cloud))
    if k not in demo.covariances:
        cov = estimate_covariances(demo.object_cloud, k)
        keep = normal_space_sample(cov, k)
        subset = demo.object_cloud.points[keep]
        subset.setflags(write=False)  # handed over: PointCloud keeps it as it is
        demo.covariances[k] = (PointCloud(subset), cov[keep])
    cloud, cov = demo.covariances[k]
    return generalized_icp(cloud, test_cloud, init, demo_covariances=cov)
