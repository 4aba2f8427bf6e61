"""Keypoint evaluation in the COCO style: OKS similarity, greedy matching of
detections to ground truth per scene (match_scene, which the round-trip
check shares), AP / AR over the canonical threshold grid, restrictable to
any part-group subset (body, foot, face, hand).

Keypoint similarity is exp(-d^2 / (2 * s^2 * kappa^2)) averaged over the
labeled parts of the ground-truth pose, with s the square root of the
ground-truth area and kappa the per-part falloff from the topology manifest.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, groupby
from operator import itemgetter
from typing import Iterable, Mapping, Sequence

import numpy as np

from .encoder import AnnotatedScene
from .skeleton import PartGroup, SkeletonTopology

OKS_THRESHOLDS: tuple[float, ...] = tuple(round(0.50 + 0.05 * i, 2) for i in range(10))

_RECALL_GRID = np.linspace(0.0, 1.0, 101)


@dataclass(frozen=True)
class EvalPose:
    """A pose as the evaluator sees it: pixel positions keyed by part id.

    Ground-truth poses carry only their labeled parts; the score is ignored
    on the ground-truth side.
    """

    parts: Mapping[int, tuple[float, float]]
    score: float = 0.0


@dataclass(frozen=True)
class EvalResult:
    ap: float
    ar: float
    per_threshold: Mapping[float, tuple[float, float]]  # threshold -> (precision, recall)
    group: frozenset[PartGroup]
    n_gt: int = 0
    n_det: int = 0

    def as_dict(self) -> dict:
        return {
            "ap": self.ap,
            "ar": self.ar,
            "per_threshold": {
                f"{t:.2f}": {"precision": p, "recall": r}
                for t, (p, r) in sorted(self.per_threshold.items())
            },
            "group": sorted(g.value for g in self.group),
            "n_gt": self.n_gt,
            "n_det": self.n_det,
        }


def _subset_mask(topo: SkeletonTopology, group: Iterable[PartGroup] | None) -> np.ndarray:
    """(n_parts,) bool: the parts whose group is in the subset (all groups
    when group is None)."""
    groups = frozenset(group) if group is not None else frozenset(PartGroup)
    mask = np.zeros(topo.n_parts, dtype=bool)
    for p in topo.parts:
        mask[p.part_id] = p.group in groups
    return mask


def _pose_arrays(
    poses: Sequence[Mapping[int, tuple[float, float]]], subset: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """(xy, has) of the given part dicts, part-major: xy is (2, n_parts, N)
    float64 with +inf at absent parts, has (n_parts, N) marks the parts each
    pose carries. Parts outside the subset, and ids outside [0, n_parts),
    are left out."""
    n_parts = len(subset)
    xy = np.full((2, n_parts, len(poses)), np.inf)
    has = np.zeros((n_parts, len(poses)), dtype=bool)
    sizes = [len(p) for p in poses]
    total = sum(sizes)
    if total:
        ids = np.fromiter(chain.from_iterable(poses), dtype=np.int64, count=total)
        values = chain.from_iterable(chain.from_iterable(p.values() for p in poses))
        pts = np.fromiter(values, dtype=np.float64, count=2 * total).reshape(total, 2)
        row = np.repeat(np.arange(len(poses)), sizes)
        ok = (ids >= 0) & (ids < n_parts)
        ok[ok] = subset[ids[ok]]
        xy[:, ids[ok], row[ok]] = pts[ok].T
        has[ids[ok], row[ok]] = True
    return xy, has


def _bbox_areas(xy: np.ndarray, has: np.ndarray) -> np.ndarray:
    """Per pose, the bounding-box area of its parts (see _pose_arrays),
    floored at 1 px^2 so a single-keypoint pose still has a usable OKS
    scale."""
    lo = np.where(has, xy, np.inf).min(axis=1, initial=np.inf)
    hi = np.where(has, xy, -np.inf).max(axis=1, initial=-np.inf)
    span = np.maximum(hi - lo, 0.0)  # a pose with no parts spans nothing
    return np.maximum(span[0] * span[1], 1.0)


# exp() of any argument below this is 0.0 in float64.
_EXP_UNDERFLOW = -746.0

# The most float64 values in one temporary of _oks_columns (512 KiB).
_OKS_BLOCK = 1 << 16


def _oks_columns(
    det_xy: np.ndarray,
    gt_xy: np.ndarray,
    gt_has: np.ndarray,
    gt_area: np.ndarray,
    kappa: np.ndarray,
) -> np.ndarray:
    """OKS of every detection (rows) against every ground truth (columns),
    from the arrays of _pose_arrays. Every ground truth must carry at least
    one part; an absent detection part sits at +inf and scores 0.

    Blocks of ground truths at a time, as (parts, G, D) arrays of at most
    _OKS_BLOCK values, so scratch is bounded whatever the crowd. Each OKS
    sums its ground truth's part similarities in id order, with the bits
    np.add.reduce gives a (k, D) array of them: row after row when D >= 2,
    a single column pairwise. An absent ground-truth part scores +0.0,
    which keeps a non-negative running sum's bits, so two or more
    detections are summed over every part at once, and a lone detection
    over each ground truth's own parts."""
    n_parts, n_det = det_xy.shape[1:]
    n_gt = gt_xy.shape[2]
    mat = np.zeros((n_det, n_gt))
    if not n_det or not n_gt:
        return mat
    count = gt_has.sum(axis=0)
    k = kappa[:, None]
    step = max(1, _OKS_BLOCK // (n_parts * n_det))
    for g0 in range(0, n_gt, step):
        g = slice(g0, g0 + step)
        with np.errstate(invalid="ignore"):  # inf - inf at parts absent on both sides
            dx = det_xy[0][:, None, :] - gt_xy[0, :, g, None]  # (parts, G, D)
            dy = det_xy[1][:, None, :] - gt_xy[1, :, g, None]
            dx **= 2
            dy **= 2
            dx += dy
            z = np.negative(dx, out=dx)
            z /= (2.0 * gt_area[g] * k * k)[:, :, None]
            # np.exp is slow where its result underflows, and most pairs in
            # a crowd are far apart: give those the 0.0 that exp would.
            live = ~(z < _EXP_UNDERFLOW)
        live &= gt_has[:, g, None]
        sim = np.zeros_like(z)
        sim[live] = np.exp(z[live])
        if n_det > 1:
            total = np.add.reduce(sim, axis=0).T
        else:
            total = np.array([np.add.reduce(col[has])
                              for col, has in zip(sim[:, :, 0].T, gt_has[:, g].T)])
        mat[:, g] = total / count[g]
    return mat


def gt_poses_from_scene(scene: AnnotatedScene) -> list[EvalPose]:
    """Ground-truth poses (labeled and occluded parts, pixel coordinates)."""
    return [EvalPose(parts=person.annotated()) for person in scene.people]


def greedy_match(oks: np.ndarray, thresholds: Sequence[float]) -> np.ndarray:
    """Greedy OKS matching at each threshold.

    Rows of oks are detections, already sorted by descending score. Per
    threshold, each detection in row order takes the unmatched column with
    the largest OKS at or above the threshold; on a tie the later column
    wins. Returns (len(thresholds), n_det) matched columns, -1 if unmatched.
    """
    matched = np.full((len(thresholds), oks.shape[0]), -1, dtype=np.intp)
    # Only entries at or above the lowest threshold can ever be taken; in a
    # crowd that is about one per detection, so the loops below stay short.
    rows, cols = np.nonzero(oks >= min(thresholds))
    entries = zip(rows.tolist(), cols.tolist(), oks[rows, cols].tolist())
    by_row = [(r, list(row)) for r, row in groupby(entries, key=itemgetter(0))]
    for ti, t in enumerate(thresholds):
        taken: set[int] = set()
        for r, row in by_row:
            best, best_val = -1, t
            for _, c, val in row:
                if val >= best_val and c not in taken:
                    best, best_val = c, val
            if best >= 0:
                taken.add(best)
                matched[ti, r] = best
    return matched


def match_scene(
    dets: Sequence[EvalPose],
    gts: Sequence[EvalPose],
    topo: SkeletonTopology,
    thresholds: Sequence[float],
    group: Iterable[PartGroup] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """OKS matching of one scene's detections to its ground truths, the one
    matcher behind evaluate and the round-trip check. Returns
    (order, kept, oks, matched):

    - order: the detection indices by descending score (stable);
    - kept: the indices of the ground truths with a part in the subset,
      the only ones matched;
    - oks: (len(order), len(kept)) OKS, rows in rank order, each ground
      truth scaled by the bounding-box area of its parts in the subset;
    - matched: greedy_match of oks at each threshold, columns of oks.
    """
    subset = _subset_mask(topo, group)
    gt_xy, gt_has = _pose_arrays([g.parts for g in gts], subset)
    kept = np.flatnonzero(gt_has.any(axis=0))
    gt_xy, gt_has = gt_xy[:, :, kept], gt_has[:, kept]
    order = np.argsort(-np.array([d.score for d in dets], dtype=np.float64), kind="stable")
    det_xy, _ = _pose_arrays([dets[i].parts for i in order], subset)
    kappa = np.asarray(topo.oks_kappa, dtype=np.float64)
    oks = _oks_columns(det_xy, gt_xy, gt_has, _bbox_areas(gt_xy, gt_has), kappa)
    return order, kept, oks, greedy_match(oks, thresholds)


def evaluate(
    dets: Sequence[Sequence[EvalPose]],
    gts: Sequence[Sequence[EvalPose]],
    topo: SkeletonTopology,
    group: Iterable[PartGroup] | None = None,
) -> EvalResult:
    """AP / AR of per-scene detections against per-scene ground truth.

    Scenes are aligned by index. Per threshold, detections are matched
    greedily (descending score) to the unmatched ground truth with the
    highest OKS at or above the threshold. AP integrates the precision
    envelope on a 101-point recall grid and averages over OKS_THRESHOLDS;
    AR is the mean recall. Ground-truth poses with no labeled parts in
    the subset are excluded from both matching and the gt count.
    """
    if len(dets) != len(gts):
        raise ValueError(f"scene count mismatch: {len(dets)} det scenes vs {len(gts)} gt scenes")
    groups = frozenset(group) if group is not None else frozenset(PartGroup)
    scene_scores = [np.zeros(0)]
    scene_matches = [np.zeros((len(OKS_THRESHOLDS), 0), dtype=np.intp)]
    n_gt_total = 0
    for scene_dets, scene_gts in zip(dets, gts):
        order, kept, _, matched = match_scene(scene_dets, scene_gts, topo, OKS_THRESHOLDS, groups)
        n_gt_total += len(kept)
        scene_matches.append(matched)
        scene_scores.append(np.array([d.score for d in scene_dets], dtype=np.float64)[order])

    # All detections by descending score; ties keep scene, then rank, order.
    scores = np.concatenate(scene_scores)
    n_det_total = len(scores)
    ranked = np.argsort(-scores, kind="stable")
    is_tp = np.concatenate(scene_matches, axis=1)[:, ranked] >= 0
    tp = np.cumsum(is_tp, axis=1)
    precision_curve = tp / np.arange(1, n_det_total + 1)
    # Precision envelope: best precision at this recall or beyond.
    envelope = np.maximum.accumulate(precision_curve[:, ::-1], axis=1)[:, ::-1]

    per_threshold: dict[float, tuple[float, float]] = {}
    ap_values = []
    recalls = []
    for ti, t in enumerate(OKS_THRESHOLDS):
        if n_gt_total == 0:
            ap, precision, recall = 0.0, 0.0, 0.0
        else:
            # 1e-12 slack so a prefix whose recall equals the grid point
            # (up to float rounding) still counts as reaching it.
            idx = np.searchsorted(tp[ti] / n_gt_total, _RECALL_GRID - 1e-12, side="left")
            # Summed in grid order, one value after another.
            ap = sum(envelope[ti, idx[idx < n_det_total]].tolist()) / len(_RECALL_GRID)
            recall = int(is_tp[ti].sum()) / n_gt_total
            precision = float(precision_curve[ti, -1]) if n_det_total else 0.0
        ap_values.append(ap)
        recalls.append(recall)
        per_threshold[float(t)] = (precision, recall)

    return EvalResult(
        ap=float(np.mean(ap_values)), ar=float(np.mean(recalls)),
        per_threshold=per_threshold, group=groups,
        n_gt=n_gt_total, n_det=n_det_total,
    )
