"""Groundtruth target encoding: confidence maps, PAFs and loss masks.

Conventions used throughout the package:
  * image coordinates are (x, y) in pixels, origin top-left;
  * map tensors are float32 arrays shaped (channels, map_h, map_w);
  * map cell (row i, col j) sits at image point (j * stride, i * stride);
  * map_w = ceil(image_w / stride), map_h = ceil(image_h / stride).

Confidence channel c holds max over labeled persons of
exp(-||p*stride - x_c||^2 / sigma^2); the optional background channel is
1 - max over part channels. PAF channels (2l, 2l+1) hold the unit vector
src->dst of limb l inside a band around the segment, averaged where several
persons' bands overlap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping, Sequence

import numpy as np

from .skeleton import PartGroup, SkeletonTopology


class Visibility(str, Enum):
    LABELED = "labeled"
    OCCLUDED = "occluded"  # annotated position, treated as labeled for targets
    MISSING = "missing"


@dataclass
class Person:
    # part_id -> (x_px, y_px, visibility)
    parts: dict[int, tuple[float, float, Visibility]]

    def annotated(self) -> dict[int, tuple[float, float]]:
        return {
            pid: (x, y)
            for pid, (x, y, vis) in self.parts.items()
            if vis != Visibility.MISSING
        }


@dataclass
class AnnotatedScene:
    image_size: tuple[int, int]  # (w, h) px
    people: list[Person]
    coverage: frozenset[PartGroup]
    unlabeled_regions: list[tuple[float, float, float, float]] = field(default_factory=list)
    no_people: bool = False
    scene_id: int = 0

    def __post_init__(self) -> None:
        if self.no_people and (self.people or self.unlabeled_regions):
            raise ValueError("a certified no-people scene cannot carry people or unlabeled regions")


DEFAULT_SIGMA_PX: dict[PartGroup, float] = {
    PartGroup.BODY: 7.0,
    PartGroup.FOOT: 7.0,
    PartGroup.FACE: 3.5,
    PartGroup.HAND: 3.5,
}


@dataclass(frozen=True)
class EncoderParams:
    stride: int = 8
    sigma_px: Mapping[PartGroup, float] = field(
        default_factory=lambda: dict(DEFAULT_SIGMA_PX)
    )

    def __post_init__(self) -> None:
        if self.stride < 1:
            raise ValueError(f"stride must be >= 1, got {self.stride}")

    def sigma_for(self, group: PartGroup) -> float:
        return float(self.sigma_px[group])

    def limb_width_for(self, src_group: PartGroup) -> float:
        """Band half-width of a limb: max(sigma of the src part's group,
        stride). Bands narrower than one grid cell can miss every cell
        center along the segment, which makes the limb undecodable."""
        return max(self.sigma_for(src_group), float(self.stride))


@dataclass
class TargetTensors:
    s_star: np.ndarray  # (conf_channels, H, W) float32
    l_star: np.ndarray  # (2 * n_limbs, H, W) float32
    w_mask: np.ndarray  # (conf_channels + 2 * n_limbs, H, W) float32 in {0, 1}
    stride: int
    image_size: tuple[int, int]

    @property
    def grid(self) -> tuple[int, int, int]:
        """(map_w, map_h, stride)."""
        return self.s_star.shape[2], self.s_star.shape[1], self.stride


def map_shape(image_size: tuple[int, int], stride: int) -> tuple[int, int]:
    """(map_h, map_w) for an image; partial cells at the border are kept."""
    w, h = image_size
    return math.ceil(h / stride), math.ceil(w / stride)


def _grid_axes(image_size: tuple[int, int], stride: int) -> tuple[np.ndarray, np.ndarray]:
    map_h, map_w = map_shape(image_size, stride)
    ys = np.arange(map_h, dtype=np.float64) * stride
    xs = np.arange(map_w, dtype=np.float64) * stride
    return ys, xs


def encode_confidence(
    scene: AnnotatedScene, topo: SkeletonTopology, params: EncoderParams
) -> np.ndarray:
    """Per-part max-of-Gaussians confidence maps (+ background if enabled)."""
    map_h, map_w = map_shape(scene.image_size, params.stride)
    out = np.zeros((topo.confidence_channels, map_h, map_w), dtype=np.float32)
    ys, xs = _grid_axes(scene.image_size, params.stride)

    for part in topo.parts:
        sigma2 = params.sigma_for(part.group) ** 2
        acc: np.ndarray | None = None
        for person in scene.people:
            entry = person.parts.get(part.part_id)
            if entry is None or entry[2] == Visibility.MISSING:
                continue
            px, py = entry[0], entry[1]
            gy = np.exp(-((ys - py) ** 2) / sigma2)
            gx = np.exp(-((xs - px) ** 2) / sigma2)
            g = np.outer(gy, gx)
            acc = g if acc is None else np.maximum(acc, g)
        if acc is not None:
            out[part.part_id] = acc.astype(np.float32)

    bg = topo.background_index
    if bg is not None:
        if topo.n_parts:
            out[bg] = 1.0 - out[: topo.n_parts].max(axis=0)
        else:
            out[bg] = 1.0
    return out


def encode_paf(
    scene: AnnotatedScene, topo: SkeletonTopology, params: EncoderParams
) -> np.ndarray:
    """Part affinity fields: unit vectors inside each limb's band, averaged
    per cell over the persons whose bands cover it."""
    map_h, map_w = map_shape(scene.image_size, params.stride)
    out = np.zeros((2 * topo.n_limbs, map_h, map_w), dtype=np.float32)
    counts = np.zeros((topo.n_limbs, map_h, map_w), dtype=np.int32)
    acc = np.zeros((2 * topo.n_limbs, map_h, map_w), dtype=np.float64)
    stride = params.stride
    group_of = {p.part_id: p.group for p in topo.parts}

    for limb in topo.limbs:
        width = params.limb_width_for(group_of[limb.src])
        for person in scene.people:
            src = person.parts.get(limb.src)
            dst = person.parts.get(limb.dst)
            if src is None or dst is None:
                continue
            if src[2] == Visibility.MISSING or dst[2] == Visibility.MISSING:
                continue
            sx, sy = src[0], src[1]
            dx, dy = dst[0], dst[1]
            length = math.hypot(dx - sx, dy - sy)
            if length == 0.0:
                continue
            ux, uy = (dx - sx) / length, (dy - sy) / length

            # Cells whose centers fall within `width` of the segment. Work on
            # the bounding window only; the test oracle scans the full grid.
            x0 = max(0, int((min(sx, dx) - width) // stride))
            x1 = min(map_w - 1, int((max(sx, dx) + width) // stride) + 1)
            y0 = max(0, int((min(sy, dy) - width) // stride))
            y1 = min(map_h - 1, int((max(sy, dy) + width) // stride) + 1)
            if x0 > x1 or y0 > y1:
                continue
            cx = np.arange(x0, x1 + 1, dtype=np.float64) * stride
            cy = np.arange(y0, y1 + 1, dtype=np.float64) * stride
            gx, gy = np.meshgrid(cx, cy)
            rx, ry = gx - sx, gy - sy
            t = np.clip(rx * ux + ry * uy, 0.0, length)
            dist2 = (rx - t * ux) ** 2 + (ry - t * uy) ** 2
            band = dist2 <= width * width
            if not band.any():
                continue
            sl = (slice(y0, y1 + 1), slice(x0, x1 + 1))
            acc[2 * limb.limb_id][sl][band] += ux
            acc[2 * limb.limb_id + 1][sl][band] += uy
            counts[limb.limb_id][sl][band] += 1

    # Divide the covered cells only. A full-array divide writes every page of
    # acc plus full-size temporaries, which raised peak RSS by about 2%.
    limb, i, j = np.nonzero(counts)
    c = counts[limb, i, j]
    out[2 * limb, i, j] = acc[2 * limb, i, j] / c
    out[2 * limb + 1, i, j] = acc[2 * limb + 1, i, j] / c
    return out


def _cells_outside_image(image_size: tuple[int, int], stride: int) -> np.ndarray:
    """Boolean (H, W) mask of cells whose stride x stride footprint is not
    fully inside the image (only possible when dims are not divisible)."""
    map_h, map_w = map_shape(image_size, stride)
    w, h = image_size
    col_bad = (np.arange(map_w) + 1) * stride > w
    row_bad = (np.arange(map_h) + 1) * stride > h
    return row_bad[:, None] | col_bad[None, :]


def _box_cells(
    boxes: Sequence[tuple[float, float, float, float]],
    image_size: tuple[int, int],
    stride: int,
) -> np.ndarray:
    """Boolean (H, W) mask of cells whose image point lies inside any of the
    closed (x0, y0, x1, y1) pixel boxes."""
    map_h, map_w = map_shape(image_size, stride)
    ys, xs = _grid_axes(image_size, stride)
    inside = np.zeros((map_h, map_w), dtype=bool)
    for x0, y0, x1, y1 in boxes:
        inside |= ((xs >= x0) & (xs <= x1))[None, :] & ((ys >= y0) & (ys <= y1))[:, None]
    return inside


def person_regions_mask(scene: AnnotatedScene, params: EncoderParams) -> np.ndarray:
    """Boolean (H, W) map of cells inside any person region: per-person
    keypoint bounding boxes dilated by twice the body sigma, plus unlabeled
    regions."""
    pad = 2.0 * params.sigma_for(PartGroup.BODY)

    boxes: list[tuple[float, float, float, float]] = []
    for person in scene.people:
        pts = person.annotated()
        if not pts:
            continue
        px = [p[0] for p in pts.values()]
        py = [p[1] for p in pts.values()]
        boxes.append((min(px) - pad, min(py) - pad, max(px) + pad, max(py) + pad))
    boxes.extend(scene.unlabeled_regions)
    return _box_cells(boxes, scene.image_size, params.stride)


def encode_masks(
    scene: AnnotatedScene, topo: SkeletonTopology, params: EncoderParams
) -> np.ndarray:
    """Binary loss masks, one channel per confidence and per PAF channel.

    Covered groups are enabled except inside unlabeled regions. Uncovered
    foot/face/hand channels are re-enabled outside all person regions (the
    image certifies their absence there); uncovered body channels stay off.
    A certified no-people scene enables everything. Cells whose footprint
    leaves the image are always masked out.
    """
    map_h, map_w = map_shape(scene.image_size, params.stride)
    n_channels = topo.confidence_channels + topo.paf_channels
    conf_groups = topo.confidence_channel_groups()
    paf_groups = topo.paf_channel_groups()

    if scene.no_people:
        mask = np.ones((n_channels, map_h, map_w), dtype=np.float32)
    else:
        carve = _box_cells(scene.unlabeled_regions, scene.image_size, params.stride)
        covered_plane = np.ones((map_h, map_w), dtype=np.float32)
        covered_plane[carve] = 0.0

        # Outside person regions the absence of face/hand/foot is certain,
        # so those channels may contribute negatives; requires visible people.
        if scene.people:
            outside = ~(person_regions_mask(scene, params) | carve)
            reenabled_plane = outside.astype(np.float32)
        else:
            reenabled_plane = np.zeros((map_h, map_w), dtype=np.float32)
        off_plane = np.zeros((map_h, map_w), dtype=np.float32)

        mask = np.empty((n_channels, map_h, map_w), dtype=np.float32)
        for c, group in enumerate(conf_groups + paf_groups):
            if group is None:  # background channel carries no mask semantics
                mask[c] = covered_plane
            elif group in scene.coverage:
                mask[c] = covered_plane
            elif group != PartGroup.BODY:
                mask[c] = reenabled_plane
            else:
                mask[c] = off_plane

    outside_image = _cells_outside_image(scene.image_size, params.stride)
    if outside_image.any():
        mask[:, outside_image] = 0.0
    return mask


def encode(
    scene: AnnotatedScene, topo: SkeletonTopology, params: EncoderParams | None = None
) -> TargetTensors:
    params = params or EncoderParams()
    return TargetTensors(
        s_star=encode_confidence(scene, topo, params),
        l_star=encode_paf(scene, topo, params),
        w_mask=encode_masks(scene, topo, params),
        stride=params.stride,
        image_size=scene.image_size,
    )
