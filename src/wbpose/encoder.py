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

Both encoders work on small windows, gathered over all (part or limb,
person) entries at once, and give the same float32 bits as a per-entry loop
over the full grid (tests/oracles.py keeps that loop as the reference):
  * a Gaussian is cut to a square of half-side sqrt(110) * sigma. Outside
    it one axis factor is below exp(-110) ~ 1.7e-48 and the other at most 1,
    so the float64 product is below 2**-150 and rounds to float32 +0, the
    value the map starts from. Inside it the float64 per-axis exp and
    their product are the loop's; entries merge with np.maximum.at after
    the cast, which equals the loop's cast of the max because rounding is
    monotone;
  * a PAF band is tested on its segment's bounding window grown by the
    band width, the loop's window, with the loop's float64 arithmetic. The
    covered cells get compact ids (np.unique) and their sums accumulate in
    float64 with np.bincount, from 0.0 in limb-major, person-minor order,
    so each cell adds the same terms in the same order. No full-map
    accumulator is allocated.
Windows are processed in blocks of at most _BLOCK_CELLS cells, so scratch
memory does not grow with the crowd or the person scale.
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


# Half-side of a Gaussian's window in sigmas: exp(-110) < 2**-150.
_GAUSS_CUT = math.sqrt(110.0)
# Window cells per block of vectorized work: a few float64 temporaries of
# this size, about 1 MB of scratch in all.
_BLOCK_CELLS = 1 << 14

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
        for group in PartGroup:
            if group not in self.sigma_px:
                raise ValueError(f"sigma_px has no sigma for part group {group.value!r}")
            sigma = float(self.sigma_px[group])
            if not (math.isfinite(sigma) and sigma > 0.0):
                raise ValueError(
                    f"sigma_px[{group.value!r}] must be finite and > 0, got {sigma}"
                )

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


def map_shape(image_size: tuple[int, int], stride: int) -> tuple[int, int]:
    """(map_h, map_w) for an image; partial cells at the border are kept."""
    w, h = image_size
    return math.ceil(h / stride), math.ceil(w / stride)


def _annotated_table(
    scene: AnnotatedScene, n_parts: int
) -> tuple[np.ndarray, np.ndarray]:
    """(xy, ok): xy is (people, n_parts, 2) float64 pixel coordinates and ok
    marks the parts each person annotates (labeled or occluded). Ids outside
    the topology are ignored. Raises ValueError on a non-finite coordinate,
    which would otherwise spread NaN over a whole map."""
    xy = np.zeros((len(scene.people), n_parts, 2), dtype=np.float64)
    ok = np.zeros((len(scene.people), n_parts), dtype=bool)
    missing = Visibility.MISSING
    for k, person in enumerate(scene.people):
        rows = [
            (pid, x, y) for pid, (x, y, vis) in person.parts.items()
            if vis != missing and 0 <= pid < n_parts
        ]
        if rows:
            table = np.array(rows, dtype=np.float64)
            pid = table[:, 0].astype(np.intp)
            xy[k, pid] = table[:, 1:]
            ok[k, pid] = True
    if not np.isfinite(xy).all():
        raise ValueError(f"scene {scene.scene_id}: annotated part coordinates must be finite")
    return xy, ok


def _blocks(n: int, cells_each: int):
    """Slices over n windows of cells_each cells, _BLOCK_CELLS at most per
    slice (a single larger window gets a slice of its own)."""
    step = max(1, _BLOCK_CELLS // max(cells_each, 1))
    return (slice(i, i + step) for i in range(0, n, step))


def encode_confidence(
    scene: AnnotatedScene, topo: SkeletonTopology, params: EncoderParams
) -> np.ndarray:
    """Per-part max-of-Gaussians confidence maps (+ background if enabled).

    Each (part, person) Gaussian is evaluated on a square of half-side
    _GAUSS_CUT * sigma around its center and merged with np.maximum.at; all
    entries sharing one sigma are handled together."""
    map_h, map_w = map_shape(scene.image_size, params.stride)
    out = np.zeros((topo.confidence_channels, map_h, map_w), dtype=np.float32)
    flat = out.reshape(-1)
    stride = params.stride
    xy, ok = _annotated_table(scene, topo.n_parts)
    person, part = np.nonzero(ok)
    sigma_of_part = np.array([params.sigma_for(p.group) for p in topo.parts])

    for sigma in sorted({params.sigma_for(g) for g in PartGroup}):
        sel = sigma_of_part[part] == sigma
        chan = part[sel]
        px, py = xy[person[sel], chan].T
        sigma2 = sigma**2
        reach = _GAUSS_CUT * sigma
        # Window sizes that cover every cell within `reach` of any center.
        kh = min(map_h, int(2 * reach // stride) + 2)
        kw = min(map_w, int(2 * reach // stride) + 2)
        y0 = np.clip(np.floor((py - reach) / stride), 0, map_h - kh).astype(np.intp)
        x0 = np.clip(np.floor((px - reach) / stride), 0, map_w - kw).astype(np.intp)
        for b in _blocks(len(chan), kh * kw):
            rows = y0[b, None] + np.arange(kh)
            cols = x0[b, None] + np.arange(kw)
            # The loop's float64 arithmetic: per-axis exp, then the product.
            gy = np.exp(-((rows * float(stride) - py[b, None]) ** 2) / sigma2)
            gx = np.exp(-((cols * float(stride) - px[b, None]) ** 2) / sigma2)
            g = (gy[:, :, None] * gx[:, None, :]).astype(np.float32)
            idx = ((chan[b, None] * map_h + rows) * map_w)[:, :, None] + cols[:, None, :]
            np.maximum.at(flat, idx.ravel(), g.ravel())

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
    per cell over the persons whose bands cover it.

    Each (limb, person) band is tested on the cells of its bounding window,
    padded to the largest window of its block and masked. Sums accumulate
    per covered cell with np.bincount in limb-major, person-minor order."""
    map_h, map_w = map_shape(scene.image_size, params.stride)
    out = np.zeros((2 * topo.n_limbs, map_h, map_w), dtype=np.float32)
    stride = params.stride
    plane = map_h * map_w
    group_of = {p.part_id: p.group for p in topo.parts}
    src = np.array([l.src for l in topo.limbs], dtype=np.intp)
    dst = np.array([l.dst for l in topo.limbs], dtype=np.intp)
    width_of = np.array([params.limb_width_for(group_of[l.src]) for l in topo.limbs])

    xy, ok = _annotated_table(scene, topo.n_parts)
    limb, person = np.nonzero((ok[:, src] & ok[:, dst]).T)
    sx, sy = xy[person, src[limb]].T
    dx, dy = xy[person, dst[limb]].T
    length = np.array(list(map(math.hypot, (dx - sx).tolist(), (dy - sy).tolist())))
    width = width_of[limb]
    # Cells whose centers fall within `width` of the segment lie inside this
    # window; the float floor division is Python's, as in the scalar form.
    x0 = np.maximum(0, (np.minimum(sx, dx) - width) // stride)
    x1 = np.minimum(map_w - 1, (np.maximum(sx, dx) + width) // stride + 1)
    y0 = np.maximum(0, (np.minimum(sy, dy) - width) // stride)
    y1 = np.minimum(map_h - 1, (np.maximum(sy, dy) + width) // stride + 1)
    keep = (length != 0.0) & (x0 <= x1) & (y0 <= y1)
    limb, sx, sy, dx, dy, length, width = (
        a[keep] for a in (limb, sx, sy, dx, dy, length, width)
    )
    x0, x1, y0, y1 = (a[keep].astype(np.intp) for a in (x0, x1, y0, y1))
    ux, uy = (dx - sx) / length, (dy - sy) / length
    nx, ny = x1 - x0 + 1, y1 - y0 + 1

    covered = []  # flat indices into a (limbs, H, W) grid, one per band cell
    weights_x, weights_y = [], []  # the unit vector each band cell adds
    wx, wy = int(nx.max(initial=1)), int(ny.max(initial=1))
    for b in _blocks(len(limb), wx * wy):
        bx, by = int(nx[b].max()), int(ny[b].max())
        cols = x0[b, None] + np.arange(bx)
        rows = y0[b, None] + np.arange(by)
        rx = (cols * float(stride) - sx[b, None])[:, None, :]
        ry = (rows * float(stride) - sy[b, None])[:, :, None]
        bux, buy = ux[b, None, None], uy[b, None, None]
        t = np.clip(rx * bux + ry * buy, 0.0, length[b, None, None])
        dist2 = (rx - t * bux) ** 2 + (ry - t * buy) ** 2
        band = dist2 <= (width[b] * width[b])[:, None, None]
        band &= (np.arange(bx) < nx[b, None])[:, None, :]
        band &= (np.arange(by) < ny[b, None])[:, :, None]
        e, i, j = np.nonzero(band)
        covered.append(limb[b][e] * plane + rows[e, i] * map_w + cols[e, j])
        weights_x.append(ux[b][e])
        weights_y.append(uy[b][e])

    # Sum per covered cell over compact ids: bincount adds each cell's terms
    # in input order from 0.0, the blocks' limb-major, person-minor order.
    # Only covered cells are written; a full-map float64 accumulator would
    # touch every page of a 2 * limbs * H * W array on each call.
    if not covered:
        return out
    cell, inv = np.unique(np.concatenate(covered), return_inverse=True)
    counts = np.bincount(inv)
    xcell = cell + (cell // plane) * plane  # channel 2 * limb of the same cell
    flat_out = out.reshape(-1)
    flat_out[xcell] = np.bincount(inv, weights=np.concatenate(weights_x)) / counts
    flat_out[xcell + plane] = np.bincount(inv, weights=np.concatenate(weights_y)) / counts
    return out


def _box_cells(
    boxes: Sequence[tuple[float, float, float, float]],
    image_size: tuple[int, int],
    stride: int,
) -> np.ndarray:
    """Boolean (H, W) mask of cells whose image point lies inside any of the
    closed (x0, y0, x1, y1) pixel boxes."""
    map_h, map_w = map_shape(image_size, stride)
    ys = np.arange(map_h, dtype=np.float64) * stride
    xs = np.arange(map_w, dtype=np.float64) * stride
    inside = np.zeros((map_h, map_w), dtype=bool)
    for x0, y0, x1, y1 in boxes:
        inside |= ((xs >= x0) & (xs <= x1))[None, :] & ((ys >= y0) & (ys <= y1))[:, None]
    return inside


def encode_masks(
    scene: AnnotatedScene, topo: SkeletonTopology, params: EncoderParams
) -> np.ndarray:
    """Binary loss masks, one channel per confidence and per PAF channel.

    Every channel is a copy of one of three planes, picked by its group:
      * covered groups and the background: enabled except inside unlabeled
        regions;
      * uncovered foot/face/hand: re-enabled outside every person region and
        unlabeled region (the image certifies their absence there), and off
        in a scene without people;
      * uncovered body: off.
    A person region is the bounding box of the parts the map encoders read
    (_annotated_table), dilated by twice the body sigma. A certified
    no-people scene enables everything. Cells whose footprint leaves the
    image are always masked out.
    """
    map_h, map_w = map_shape(scene.image_size, params.stride)
    if scene.no_people:
        planes = np.ones((3, map_h, map_w), dtype=np.float32)
    else:
        carve = _box_cells(scene.unlabeled_regions, scene.image_size, params.stride)
        planes = np.zeros((3, map_h, map_w), dtype=np.float32)
        planes[0] = ~carve
        if scene.people:
            xy, ok = _annotated_table(scene, topo.n_parts)
            pad = 2.0 * params.sigma_for(PartGroup.BODY)
            # A person without annotated parts gets the empty box (inf, -inf).
            where = ok[:, :, None]
            boxes = np.concatenate([
                xy.min(axis=1, initial=np.inf, where=where) - pad,
                xy.max(axis=1, initial=-np.inf, where=where) + pad,
            ], axis=1)
            planes[1] = ~(carve | _box_cells(boxes, scene.image_size, params.stride))

    w, h = scene.image_size
    planes[:, (np.arange(map_h) + 1) * params.stride > h] = 0.0
    planes[:, :, (np.arange(map_w) + 1) * params.stride > w] = 0.0
    # Plane per channel: 0 covered, 1 re-enabled, 2 off.
    kind = [
        0 if group is None or group in scene.coverage else 2 if group == PartGroup.BODY else 1
        for group in topo.confidence_channel_groups() + topo.paf_channel_groups()
    ]
    return planes[kind]


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
