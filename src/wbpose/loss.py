"""Masked multi-task L2 losses over confidence and PAF stage outputs.

Plain sums, no averaging: f_L = sum over stages, channels and cells of
W * (pred - gt)^2, likewise f_S; total = sum(f_L per stage) + sum(f_S per
stage). Both PAF components of a limb fall under that limb's mask channels,
which encode_masks emits identically, so the masked squared vector norm is
just the per-channel masked sum. Accumulation is float64 in fixed
channel-major, row-major order (numpy C-order reduction), which makes
repeated calls bit-identical.

Scratch is bounded: the per-channel sums run over blocks of _BLOCK_CHANNELS
channels and reuse two float64 block buffers, so a stage needs about
2 * 16 * H * W * 8 bytes of scratch (0.9 MB at 60x60) rather than full-size
float64 copies of pred, gt and mask. Each channel's reduction is the one a
whole-array pass makes, so the sums keep their bits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .encoder import TargetTensors
from .skeleton import PartGroup, SkeletonTopology

# Channels per block of the per-channel sums.
_BLOCK_CHANNELS = 16


@dataclass
class LossBreakdown:
    total: float
    f_l_per_stage: list[float]  # PAF stages, in stage order
    f_s_per_stage: list[float]  # confidence stages, in stage order
    per_group: dict[PartGroup, float] = field(default_factory=dict)


def _check_shapes(pred: np.ndarray, gt: np.ndarray, mask: np.ndarray) -> None:
    if pred.shape != gt.shape or pred.shape != mask.shape:
        raise ValueError(f"shape mismatch: pred {pred.shape}, gt {gt.shape}, mask {mask.shape}")


def masked_l2(pred: np.ndarray, gt: np.ndarray, mask: np.ndarray) -> float:
    """sum(W * (pred - gt)^2) accumulated in float64, C-order."""
    _check_shapes(pred, gt, mask)
    diff = pred.astype(np.float64) - gt.astype(np.float64)
    return float(np.sum(mask.astype(np.float64) * diff * diff))


def _per_channel_masked(pred: np.ndarray, gt: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """sum(W * (pred - gt)^2) per channel of (C, H, W) arrays, float64.

    Works on _BLOCK_CHANNELS channels at a time with the whole-array form's
    operations in its order: diff = pred - gt in float64, then
    (mask * diff) * diff, then a C-order sum over each channel's cells.
    The shapes must be equal: a block buffer would broadcast a smaller
    operand without a word."""
    _check_shapes(pred, gt, mask)
    n, h, w = gt.shape
    out = np.empty(n, dtype=np.float64)
    diff_buf = np.empty((min(n, _BLOCK_CHANNELS), h, w), dtype=np.float64)
    work_buf = np.empty_like(diff_buf)
    for c0 in range(0, n, _BLOCK_CHANNELS):
        c1 = min(c0 + _BLOCK_CHANNELS, n)
        diff, work = diff_buf[: c1 - c0], work_buf[: c1 - c0]
        # Exact casts into the buffers first: float64 ufuncs on float64
        # operands run faster than ufuncs that cast as they go.
        np.copyto(diff, pred[c0:c1], casting="unsafe")
        np.copyto(work, gt[c0:c1], casting="unsafe")
        np.subtract(diff, work, out=diff)
        np.copyto(work, mask[c0:c1], casting="unsafe")
        np.multiply(work, diff, out=work)
        np.multiply(work, diff, out=work)
        np.sum(work, axis=(1, 2), out=out[c0:c1])
    return out


def loss_gradient(pred: np.ndarray, gt: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """d(masked_l2)/d(pred) = 2 * W * (pred - gt), float64."""
    _check_shapes(pred, gt, mask)
    return 2.0 * mask.astype(np.float64) * (pred.astype(np.float64) - gt.astype(np.float64))


def multitask_loss(
    paf_preds: Sequence[np.ndarray],
    cm_preds: Sequence[np.ndarray],
    targets: TargetTensors,
    topo: SkeletonTopology,
) -> LossBreakdown:
    """Total and per-stage losses for F PAF stages and C confidence stages.

    Every stage is compared against the same groundtruth tensors under the
    same masks. per_group attributes each channel's mass (confidence and PAF,
    summed across stages) to its part group; the background channel belongs
    to no group, so sum(per_group) <= total with equality when it is off.
    Raises ValueError when the ground truth's S, L and W channel counts are
    not the topology's, and, naming the stage and both shapes, when a
    prediction's shape differs from its ground truth's.
    """
    n_conf = topo.confidence_channels
    channels = tuple(len(t) for t in (targets.s_star, targets.l_star, targets.w_mask))
    wanted = (n_conf, topo.paf_channels, n_conf + topo.paf_channels)
    if channels != wanted:
        raise ValueError(
            f"ground truth has {channels} S, L and W channels, topology wants {wanted}"
        )
    w_conf = targets.w_mask[:n_conf]
    w_paf = targets.w_mask[n_conf:]

    conf_groups = topo.confidence_channel_groups()
    paf_groups = topo.paf_channel_groups()
    per_group = {g: 0.0 for g in PartGroup}

    stages = (("PAF", paf_preds, targets.l_star), ("confidence", cm_preds, targets.s_star))
    for kind, preds, gt in stages:
        for k, pred in enumerate(preds):
            if pred.shape != gt.shape:
                raise ValueError(
                    f"{kind} stage {k}: prediction shape {pred.shape} differs from "
                    f"ground truth shape {gt.shape}"
                )

    f_l: list[float] = []
    for pred in paf_preds:
        per_channel = _per_channel_masked(pred, targets.l_star, w_paf)
        f_l.append(float(np.sum(per_channel)))
        for c, g in enumerate(paf_groups):
            per_group[g] += float(per_channel[c])

    f_s: list[float] = []
    for pred in cm_preds:
        per_channel = _per_channel_masked(pred, targets.s_star, w_conf)
        f_s.append(float(np.sum(per_channel)))
        for c, g in enumerate(conf_groups):
            if g is not None:
                per_group[g] += float(per_channel[c])

    total = 0.0
    for v in f_l:
        total += v
    for v in f_s:
        total += v
    return LossBreakdown(total=total, f_l_per_stage=f_l, f_s_per_stage=f_s, per_group=per_group)
