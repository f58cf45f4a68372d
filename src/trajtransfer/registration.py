"""Relative object pose estimation: coarse yaw sweep + Generalized ICP.

The coarse stage replaces a learned pose regressor with a deterministic
centroid shift and a discrete yaw sweep about the vertical axis.  The refine
stage is plane-to-plane Generalized ICP: nearest-neighbour correspondences
within an inlier radius, per-point planar covariances, and a damped
Gauss-Newton step on the summed Mahalanobis cost.  Only cost-decreasing steps
are accepted, so the reported final cost never exceeds the cost at init.

GICP stops (converged) when 8 damped trials in a row fail to lower the cost,
when an accepted step changes the cost by less than ``rel_tolerance`` of it,
or, before a trial's KD query, when the trial's step would move no matched
demo point by more than ``rel_tolerance * inlier_radius`` (25 nm with
``GicpParams``).  The step ``[w, t]`` moves a point ``p`` by at most
``|w| |p| + |t|``, since ``|(R - I) p| <= angle |p|``.  Where a test cloud
holds the demo's own surface samples the cost tends to 0, the relative rule
never fires, and without the step rule the loop polished the pose to float
noise, then spent 8 rejected trials proving it was done.  So results are not
bit-identical to that loop: final poses differ from it by well under a
micrometre and a microradian (Madsen, Nielsen and Tingleff, "Methods for
Non-Linear Least Squares Problems", 2004, give this step-size criterion).

Five savings leave every result bit-identical.  :func:`estimate_delta`
memoizes a demo's covariances on the demo per neighbour count ``k``, computed
at its first registration (not at ingest or load), so later registrations of
that demo reuse them.  Every KD query is bounded just above the distance
beyond which its caller discards the match: the sweep clamps distances at its
cap, and GICP keeps only matches within ``inlier_radius``.  scipy returns
``inf`` (index ``n``) past the bound, and ``min(inf, cap) == cap`` as before;
the GICP bound is ``nextafter(inlier_radius, inf)`` because scipy's bound is
strict, so a match at exactly the radius still comes back and counts.  The
yaw sweep is a branch and bound: a yaw's capped distances over part of the
points bound its score from below, and only yaws that can still win are
scored in full (see :func:`coarse_align`).  Within one GICP run, a demo
point is queried again only if its move since its last query could have
changed its match (see :class:`_Matches`): 24% of points per cost evaluation
on seen clouds, 37% on unseen occluded ones.  And the demo covariances turn
with the trial's rotation in one flat matrix product, which gives the bits of
the stacked ``R @ C @ R.T`` at about a third of its cost.

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
SWEEP_SLICES = 8  # ~75 of the sweep's 600 points each: enough to prune yaws, few KD calls
_TIE = 1e-12  # a yaw must beat the incumbent by more than this


class GicpParams:
    """GICP's fixed settings, read as class attributes; ``GicpParams()`` takes no arguments.
    Module constants would be simpler, once perfbench no longer imports this class."""

    max_iterations = 50
    inlier_radius = 0.025  # metres
    # stop once an accepted step changes the cost by less than this fraction
    # of it, or before a trial whose step would move no matched demo point by
    # more than rel_tolerance * inlier_radius (25 nm)
    rel_tolerance = 1e-6
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
    more than 25 nm), the result is ``delta = init``, ``iterations = 1`` and
    ``converged = True``.
    """

    delta: Pose  # maps demo-cloud coordinates to test-cloud coordinates (robot frame)
    inlier_rmse: float
    fitness: float  # fraction of test points with a correspondence within the radius
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
    """Centroid shift plus best yaw from a discrete sweep about the vertical.

    Candidates are scored by nearest-neighbour RMSE of the transformed demo
    cloud against the test cloud; a candidate replaces the incumbent only if
    strictly better (by ``_TIE``), so rotationally symmetric clouds keep the
    lowest angle.

    The sweep is an exact branch and bound over ``SWEEP_SLICES`` strided
    slices of the demo points.  Capped squared distances are non-negative, so
    a yaw's partial sum over the slices scored so far bounds its score from
    below.  After the first slice the yaw with the lowest partial sum is
    scored in full; its score ``U`` is the incumbent.  After each slice every
    yaw whose bound exceeds ``U + margin`` is dropped, with ``margin =
    1e-9 * U + 2 * len(angles) * _TIE``, and only the survivors query the
    next slice.  The survivors' distance rows are complete and in
    the original point order, and a point's distance does not depend on the
    batch it was queried in, so each survivor's score is the full sweep's.

    A pruned yaw cannot change the winner.  Over any set of yaws that holds
    the incumbent, the selection loop ends on a score at most ``U + _TIE``,
    because every yaw scores at least the final score minus ``_TIE``.  Take
    the loop over all yaws and the loop without one yaw ``h`` scoring above
    ``U + margin``.  They first differ when ``h`` becomes the incumbent; from
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
    partial = np.zeros(len(angles))  # sums of squared capped distances so far
    alive = np.arange(len(angles))
    for c in range(min(SWEEP_SLICES, n)):
        cols = slice(c, None, SWEEP_SLICES)
        d[alive, cols] = rows = capped(alive, centered[cols])
        partial[alive] += np.einsum("ij,ij->i", rows, rows)
        if c == 0:  # the incumbent: the most promising yaw, scored in full
            best = int(np.argmin(partial))
            rest = np.arange(n) % SWEEP_SLICES != 0
            d[best, rest] = capped([best], centered[rest])[0]
            U = float(np.sqrt(np.mean(d[best] * d[best])))
            # a yaw survives while its bound sqrt(partial / n) <= U + margin
            bound = n * (U + 1e-9 * U + 2.0 * _TIE * len(angles)) ** 2
            alive = alive[alive != best]
        alive = alive[partial[alive] <= bound]
        if len(alive) == 0:
            break
    keep = np.sort(np.append(alive, best))  # sweep order
    kept = d[keep]
    scores = np.sqrt(np.mean(kept * kept, axis=1))
    best_angle, best_score = 0.0, math.inf
    for i, score in zip(keep, scores):
        if score < best_score - _TIE:
            best_score, best_angle = float(score), angles[i]
    R = Pose.from_yaw(best_angle)
    # p_test = R (p_demo - c_demo) + c_test
    t = c_test - R.rotation_matrix() @ c_demo
    return Pose(R.rotation, t)


def _eigh3x3(A: np.ndarray):
    """Batched eigendecomposition of symmetric (N, 3, 3) matrices.

    Analytic trigonometric eigenvalues and cross-product eigenvectors; rows
    with a near-degenerate spectrum fall back to ``np.linalg.eigh``.  Returns
    ``(w, v)`` with ascending eigenvalues and eigenvectors in the columns of
    ``v``, matching ``np.linalg.eigh``.  The batched LAPACK path costs tens of
    microseconds per 3x3 matrix on some BLAS builds; this is ~50x faster.
    """
    a00, a01, a02 = A[:, 0, 0], A[:, 0, 1], A[:, 0, 2]
    a11, a12, a22 = A[:, 1, 1], A[:, 1, 2], A[:, 2, 2]
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
        m = A - lam[:, None, None] * np.eye(3)
        cands = np.stack(
            [
                np.cross(m[:, 0], m[:, 1]),
                np.cross(m[:, 0], m[:, 2]),
                np.cross(m[:, 1], m[:, 2]),
            ],
            axis=1,
        )
        norms = np.linalg.norm(cands, axis=2)
        best = cands[np.arange(len(A)), np.argmax(norms, axis=1)]
        n = np.linalg.norm(best, axis=1, keepdims=True)
        return best / np.where(n > 0.0, n, 1.0), norms.max(axis=1)

    v_lo, n_lo = eigvec(w[:, 0])
    v_hi, n_hi = eigvec(w[:, 2])
    v_mid = np.cross(v_hi, v_lo)
    v = np.stack([v_lo, v_mid, v_hi], axis=2)

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
    nbrs = cloud.points[idx]  # (N, k, 3)
    mean = nbrs.mean(axis=1, keepdims=True)
    centered = nbrs - mean
    cov = centered.transpose(0, 2, 1) @ centered / k
    w, v = _eigh3x3(cov)
    largest = np.maximum(w[:, -1], 1e-12)
    w = np.maximum(w, (EPS_PLANE * largest)[:, None])
    return (v * w[:, None, :]) @ v.transpose(0, 2, 1)


def _inv3x3(c: np.ndarray) -> np.ndarray:
    """Batched analytic inverse of (N, 3, 3) matrices via the adjugate.

    Orders of magnitude faster than ``np.linalg.inv`` on batches of small
    matrices, which dominates the refinement loop otherwise.
    """
    a, b, c_ = c[:, 0, 0], c[:, 0, 1], c[:, 0, 2]
    d, e, f = c[:, 1, 0], c[:, 1, 1], c[:, 1, 2]
    g, h, i = c[:, 2, 0], c[:, 2, 1], c[:, 2, 2]
    A = e * i - f * h
    B = f * g - d * i
    C = d * h - e * g
    det = a * A + b * B + c_ * C
    out = np.empty_like(c)
    out[:, 0, 0] = A
    out[:, 0, 1] = c_ * h - b * i
    out[:, 0, 2] = b * f - c_ * e
    out[:, 1, 0] = B
    out[:, 1, 1] = a * i - c_ * g
    out[:, 1, 2] = c_ * d - a * f
    out[:, 2, 0] = C
    out[:, 2, 1] = b * g - a * h
    out[:, 2, 2] = a * e - b * d
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
    if not np.any(mask):
        return None
    src = moved[mask]
    tgt = test_pts[idx[mask]]
    cov = cov_test[idx[mask]] + _rotate_covariances(R, cov_demo[mask])
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
    min_move = GicpParams.rel_tolerance * radius
    converged = False
    iterations = 0
    for iterations in range(1, GicpParams.max_iterations + 1):
        mask, src, tgt, W, d, cost = state
        # residual model r(delta) = d + [src]x dw - dt, so J = [[src]x, -I]
        J = np.zeros((d.shape[0], 3, 6))
        J[:, 0, 1] = -src[:, 2]
        J[:, 0, 2] = src[:, 1]
        J[:, 1, 0] = src[:, 2]
        J[:, 1, 2] = -src[:, 0]
        J[:, 2, 0] = -src[:, 1]
        J[:, 2, 1] = src[:, 0]
        J[:, :, 3:] = -np.eye(3)
        WJ = (W @ J).reshape(-1, 6)
        H = J.reshape(-1, 6).T @ WJ
        g = WJ.T @ d.reshape(-1)
        reach = float(np.sqrt(np.einsum("ni,ni->n", src, src).max()))
        accepted = False
        new_state = None
        new_pose = None
        for _ in range(8):
            try:
                step = np.linalg.solve(H + lam * np.diag(np.diag(H)) + 1e-12 * np.eye(6), -g)
            except np.linalg.LinAlgError:
                break
            # |(R - I) p| <= angle |p|: no matched point would move further
            if np.linalg.norm(step[:3]) * reach + np.linalg.norm(step[3:]) <= min_move:
                break
            cand = compose(_exp_step(step), pose)
            cand_state = _corresponding_cost(cand, demo_pts, demo_covariances, tree, test_pts, test_covariances)
            if cand_state is not None and cand_state[5] < cost:
                accepted = True
                new_pose, new_state = cand, cand_state
                lam = max(lam / 3.0, 1e-10)
                break
            lam *= 10.0
        if not accepted:
            converged = True
            break
        rel_change = abs(cost - new_state[5]) / max(cost, 1e-30)
        pose, state = new_pose, new_state
        if rel_change < GicpParams.rel_tolerance:
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


def estimate_delta(demo, test_cloud: PointCloud) -> RegistrationResult:
    """Full pipeline: coarse yaw-sweep init, then GICP refinement.

    The demo's covariances are computed at its first registration with a
    given ``k`` and kept in ``demo.covariances``; the result equals
    ``generalized_icp`` without precomputed covariances bit for bit.
    """
    init = coarse_align(demo.object_cloud, test_cloud)
    k = min(GicpParams.k_neighbors, len(demo.object_cloud), len(test_cloud))
    if k not in demo.covariances:
        demo.covariances[k] = estimate_covariances(demo.object_cloud, k)
    return generalized_icp(demo.object_cloud, test_cloud, init, demo_covariances=demo.covariances[k])
