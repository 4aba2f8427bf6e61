"""Keypoint evaluation in the COCO style: OKS similarity, greedy matching of
detections to ground truth per scene, AP / AR over the canonical threshold
grid, restrictable to any part-group subset (body, foot, face, hand).

Keypoint similarity is exp(-d^2 / (2 * s^2 * kappa^2)) averaged over the
labeled parts of the ground-truth pose, with s the square root of the
ground-truth area and kappa the per-part falloff from the topology manifest.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .encoder import AnnotatedScene, Visibility
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

    def restricted(self, part_ids: frozenset[int]) -> "EvalPose":
        return EvalPose(
            parts={pid: xy for pid, xy in self.parts.items() if pid in part_ids},
            score=self.score,
        )


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


def pose_bbox_area(parts: Mapping[int, tuple[float, float]]) -> float:
    """Bounding-box area of the given points, floored at 1 px^2 so a
    single-keypoint pose still has a usable OKS scale."""
    if not parts:
        return 1.0
    xs = [p[0] for p in parts.values()]
    ys = [p[1] for p in parts.values()]
    return max((max(xs) - min(xs)) * (max(ys) - min(ys)), 1.0)


def oks(
    det: Mapping[int, tuple[float, float]],
    gt: Mapping[int, tuple[float, float]],
    gt_area: float,
    topo: SkeletonTopology,
    group: Iterable[PartGroup] | None = None,
) -> float:
    """Object keypoint similarity of a detection against one ground truth.

    gt must contain only labeled parts; parts outside the group subset are
    ignored. A part missing from det contributes 0 to the sum. Raises
    ValueError when the subset leaves no labeled ground-truth parts.
    """
    if gt_area <= 0.0:
        raise ValueError("gt_area must be positive")
    return _oks(det, gt, gt_area, topo.oks_kappa, _subset_ids(topo, group))


def _subset_ids(topo: SkeletonTopology, group: Iterable[PartGroup] | None) -> frozenset[int]:
    groups = frozenset(group) if group is not None else frozenset(PartGroup)
    return frozenset(p.part_id for p in topo.parts if p.group in groups)


def _oks(
    det: Mapping[int, tuple[float, float]],
    gt: Mapping[int, tuple[float, float]],
    gt_area: float,
    kappa: Sequence[float],
    subset_ids: frozenset[int],
) -> float:
    total = 0.0
    count = 0
    for pid, (gx, gy) in gt.items():
        if pid not in subset_ids:
            continue
        count += 1
        if pid not in det:
            continue
        dx, dy = det[pid]
        d2 = (dx - gx) ** 2 + (dy - gy) ** 2
        k = kappa[pid]
        total += math.exp(-d2 / (2.0 * gt_area * k * k))
    if count == 0:
        raise ValueError("ground-truth pose has no labeled parts in the requested subset")
    return total / count


def oks_matrix(
    dets: Sequence[EvalPose],
    gts: Sequence[EvalPose],
    topo: SkeletonTopology,
    group: Iterable[PartGroup] | None = None,
) -> np.ndarray:
    """OKS of every detection (rows) against every ground truth (columns),
    each ground truth scaled by its own bounding-box area."""
    subset_ids = _subset_ids(topo, group)
    mat = np.zeros((len(dets), len(gts)))
    for gi, g in enumerate(gts):
        area = pose_bbox_area(g.parts)
        for di, d in enumerate(dets):
            mat[di, gi] = _oks(d.parts, g.parts, area, topo.oks_kappa, subset_ids)
    return mat


def gt_poses_from_scene(scene: AnnotatedScene) -> list[EvalPose]:
    """Ground-truth poses (labeled and occluded parts, pixel coordinates)."""
    out = []
    for person in scene.people:
        parts = {
            pid: (x, y)
            for pid, (x, y, v) in person.parts.items()
            if v != Visibility.MISSING
        }
        out.append(EvalPose(parts=parts))
    return out


def _greedy_match(oks_matrix: np.ndarray, threshold: float) -> list[int]:
    """For detections in row order (already sorted by descending score),
    return the matched gt column per detection (-1 if unmatched)."""
    matched: list[int] = []
    taken: set[int] = set()
    n_det, n_gt = oks_matrix.shape
    for di in range(n_det):
        best, best_val = -1, threshold
        for gi in range(n_gt):
            if gi in taken:
                continue
            val = oks_matrix[di, gi]
            if val >= best_val:
                best, best_val = gi, val
        if best >= 0:
            taken.add(best)
        matched.append(best)
    return matched


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
    subset_ids = _subset_ids(topo, groups)

    # Per scene: restrict to the subset, sort detections, compute OKS matrices.
    scene_matrices: list[np.ndarray] = []
    scene_scores: list[list[float]] = []
    n_gt_total = 0
    n_det_total = 0
    for scene_dets, scene_gts in zip(dets, gts):
        kept_gts = []
        for g in scene_gts:
            r = g.restricted(subset_ids)
            if r.parts:
                kept_gts.append(r)
        n_gt_total += len(kept_gts)
        order = sorted(range(len(scene_dets)), key=lambda i: (-scene_dets[i].score, i))
        sorted_dets = [scene_dets[i].restricted(subset_ids) for i in order]
        n_det_total += len(sorted_dets)
        scene_matrices.append(oks_matrix(sorted_dets, kept_gts, topo, groups))
        scene_scores.append([d.score for d in sorted_dets])

    per_threshold: dict[float, tuple[float, float]] = {}
    ap_values = []
    recalls = []
    for t in OKS_THRESHOLDS:
        flags: list[tuple[float, int, int, bool]] = []  # (-score, scene, rank, is_tp)
        tp_total = 0
        for si, mat in enumerate(scene_matrices):
            matched = _greedy_match(mat, t)
            for di, gi in enumerate(matched):
                is_tp = gi >= 0
                tp_total += int(is_tp)
                flags.append((-scene_scores[si][di], si, di, is_tp))
        flags.sort()
        tp = np.cumsum([f[3] for f in flags]) if flags else np.zeros(0)
        fp = np.cumsum([not f[3] for f in flags]) if flags else np.zeros(0)
        if n_gt_total == 0:
            ap_values.append(0.0)
            recalls.append(0.0)
            per_threshold[float(t)] = (0.0, 0.0)
            continue
        recall_curve = tp / n_gt_total
        with np.errstate(invalid="ignore"):
            precision_curve = np.where(tp + fp > 0, tp / np.maximum(tp + fp, 1), 0.0)
        # Precision envelope: best precision at this recall or beyond.
        envelope = np.maximum.accumulate(precision_curve[::-1])[::-1] if len(flags) else np.zeros(0)
        ap = 0.0
        for r in _RECALL_GRID:
            # 1e-12 slack so a prefix whose recall equals the grid point
            # (up to float rounding) still counts as reaching it.
            idx = np.searchsorted(recall_curve, r - 1e-12, side="left")
            if idx < len(envelope):
                ap += float(envelope[idx])
        ap /= len(_RECALL_GRID)
        recall = tp_total / n_gt_total
        precision = float(precision_curve[-1]) if len(flags) else 0.0
        ap_values.append(ap)
        recalls.append(recall)
        per_threshold[float(t)] = (precision, recall)

    ap = float(np.mean(ap_values)) if ap_values else 0.0
    ar = float(np.mean(recalls)) if recalls else 0.0
    return EvalResult(
        ap=ap, ar=ar, per_threshold=per_threshold, group=groups,
        n_gt=n_gt_total, n_det=n_det_total,
    )
