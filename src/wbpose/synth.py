"""Synthetic scene generation and the encode->decode round-trip check.

Scenes are built from the canonical template pose embedded in the topology
manifest: each person is a uniformly scaled, rotated copy with per-limb
angular jitter applied down the kinematic tree, packed by rejection sampling
so person bounding boxes keep a minimum separation. Realism is irrelevant;
the scenes exist to exercise the encoder and decoder end to end.

Each rejection attempt draws every limb's jitter angle in one call and
works on two flat coordinate lists in template order; the limb subtrees are
resolved to list indices once per generate call, and only the accepted
attempt builds a part-id dict. An attempt draws its offset only when the
person fits inside the margins.

All randomness derives from numpy Philox keyed by (seed, scene counters), so
a recipe reproduces bit-identical scenes across runs and processes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Mapping

import numpy as np

from .decoder import DecodeStats, decode_with_stats
from .encoder import AnnotatedScene, EncoderParams, Person, Visibility, encode
from .metrics import EvalPose, gt_poses_from_scene, match_scene
from .scheduler import rng_for
from .skeleton import PartGroup, SkeletonTopology


# A decoded pose finds a true person only at OKS above 0.1; the evaluator's
# matcher accepts OKS >= threshold, hence the float just above. (A fragment
# holding 7 of a person's 70 labeled parts, all exact, scores exactly 0.1.)
_FOUND_OKS = math.nextafter(0.1, 1.0)

# Keypoints in the outermost map cells cannot carry a subpixel offset (the
# peak has no outer neighbour to fit against), so every keypoint keeps this
# many px of clearance from the image borders.
EDGE_MARGIN_PX = 16.0


@dataclass(frozen=True)
class SceneRecipe:
    n_people: int
    image_size: tuple[int, int] = (480, 480)
    min_separation: float = 30.0  # px between person bounding boxes
    person_scale: tuple[float, float] = (90.0, 130.0)  # px height of the template
    coverage: frozenset[PartGroup] = frozenset(PartGroup)
    missing_prob: Mapping[PartGroup, float] = field(default_factory=dict)
    rotation_deg: float = 20.0  # whole-person rotation, uniform +-, <= 180
    jitter_deg: float = 12.0  # per-limb angular jitter, uniform +-, <= 15
    seed: int = 0
    max_attempts: int = 1000

    def __post_init__(self) -> None:
        # Each angle bounds a uniform draw, which a NaN or huge bound
        # overflows and a negative one reverses; a NaN separation fails
        # every placement after the first person.
        for name, cap in (("rotation_deg", 180.0), ("jitter_deg", 15.0)):
            value = getattr(self, name)
            if not 0.0 <= value <= cap:
                raise ValueError(f"{name} must be in [0, {cap:g}], got {value}")
        if not math.isfinite(self.min_separation):
            raise ValueError(f"min_separation must be finite, got {self.min_separation}")
        if self.n_people < 0:
            raise ValueError("n_people must be >= 0")
        if min(self.image_size) < 1:
            raise ValueError(f"image sides must be at least 1 px, got {self.image_size}")
        lo, hi = self.person_scale
        if not 0.0 < lo <= hi < math.inf:  # an infinite HI overflows the height draw
            raise ValueError(f"person_scale needs 0 < LO <= HI < inf, got {lo}:{hi}")


def _limb_subtrees(topo: SkeletonTopology) -> list[tuple[int, list[int]]]:
    """(src part, parts of the subtree hanging off dst, in pre-order) per
    limb, in limb order."""
    children: dict[int, list[int]] = {p.part_id: [] for p in topo.parts}
    for limb in topo.limbs:
        children[limb.src].append(limb.dst)

    def subtree(pid: int) -> list[int]:
        out = [pid]
        for child in children[pid]:
            out.extend(subtree(child))
        return out

    return [(limb.src, subtree(limb.dst)) for limb in topo.limbs]


@dataclass(frozen=True)
class _FlatTemplate:
    """The template pose as two coordinate lists in template order, with each
    limb's (src, subtree) resolved to indices into them."""

    part_ids: list[int]
    xs: list[float]
    ys: list[float]
    limbs: list[tuple[int, list[int]]]


def _flat_template(topo: SkeletonTopology) -> _FlatTemplate:
    template = topo.template_pose
    if template is None:
        raise ValueError("topology manifest carries no template_pose; cannot synthesize scenes")
    part_ids = list(template)
    index = {pid: i for i, pid in enumerate(part_ids)}
    return _FlatTemplate(
        part_ids=part_ids,
        xs=[float(x) for x, _ in template.values()],
        ys=[float(y) for _, y in template.values()],
        limbs=[(index[src], [index[pid] for pid in subtree])
               for src, subtree in _limb_subtrees(topo)],
    )


def _place_person(
    template: _FlatTemplate,
    recipe: SceneRecipe,
    rng: np.random.Generator,
    placed_boxes: list[tuple[float, float, float, float]],
    attempts_left: int,
) -> tuple[dict[int, tuple[float, float]], tuple[float, float, float, float], int]:
    """Rejection-sample one person: jitter the template (each limb's subtree
    rotated around its src joint by an independent uniform angle, forward
    kinematics down the tree), scale and rotate it, draw an offset that keeps
    the image margin, and accept when its box clears every placed box."""
    w, h = recipe.image_size
    m = EDGE_MARGIN_PX
    jitter = recipe.jitter_deg
    limbs = template.limbs
    while attempts_left > 0:
        attempts_left -= 1
        xs, ys = template.xs.copy(), template.ys.copy()
        for (src, subtree), angle in zip(limbs, rng.uniform(-jitter, jitter, len(limbs)).tolist()):
            theta = math.radians(angle)
            c, s = math.cos(theta), math.sin(theta)
            ox, oy = xs[src], ys[src]
            for i in subtree:
                rx, ry = xs[i] - ox, ys[i] - oy
                xs[i] = ox + c * rx - s * ry
                ys[i] = oy + s * rx + c * ry
        scale = rng.uniform(*recipe.person_scale)
        theta = math.radians(rng.uniform(-recipe.rotation_deg, recipe.rotation_deg))
        c, s = math.cos(theta), math.sin(theta)
        px = [scale * (c * x - s * y) for x, y in zip(xs, ys)]
        py = [scale * (s * x + c * y) for x, y in zip(xs, ys)]
        x_lo, x_hi, y_lo, y_hi = min(px), max(px), min(py), max(py)
        if x_hi - x_lo >= w - 2 * m or y_hi - y_lo >= h - 2 * m:
            continue
        ox = rng.uniform(m - x_lo, w - m - x_hi)
        oy = rng.uniform(m - y_lo, h - m - y_hi)
        box = (x_lo + ox, y_lo + oy, x_hi + ox, y_hi + oy)
        if all(_box_gap(box, other) > recipe.min_separation for other in placed_boxes):
            pts = {pid: (x + ox, y + oy) for pid, x, y in zip(template.part_ids, px, py)}
            return pts, box, attempts_left
    raise ValueError(
        f"placed {len(placed_boxes)} of {recipe.n_people} people "
        f"before the {recipe.max_attempts} attempts ran out"
    )


def _box_gap(a: tuple[float, float, float, float], b: tuple[float, float, float, float]) -> float:
    gap_x = max(b[0] - a[2], a[0] - b[2], 0.0)
    gap_y = max(b[1] - a[3], a[1] - b[3], 0.0)
    return math.hypot(gap_x, gap_y)


def generate(recipe: SceneRecipe, topo: SkeletonTopology, scene_id: int = 0) -> AnnotatedScene:
    """One scene per call; (recipe.seed, scene_id) fixes every draw."""
    if recipe.n_people == 0:
        return AnnotatedScene(
            image_size=recipe.image_size, people=[], coverage=recipe.coverage,
            no_people=True, scene_id=scene_id,
        )
    rng = rng_for(recipe.seed, scene_id)
    template = _flat_template(topo)
    boxes: list[tuple[float, float, float, float]] = []
    people: list[Person] = []
    attempts = recipe.max_attempts
    for _ in range(recipe.n_people):
        pts, box, attempts = _place_person(template, recipe, rng, boxes, attempts)
        boxes.append(box)
        parts: dict[int, tuple[float, float, Visibility]] = {}
        for part in topo.parts:
            if part.group not in recipe.coverage:
                continue
            p_missing = float(recipe.missing_prob.get(part.group, 0.0))
            if p_missing > 0.0 and rng.random() < p_missing:
                continue
            x, y = pts[part.part_id]
            parts[part.part_id] = (x, y, Visibility.LABELED)
        people.append(Person(parts))
    return AnnotatedScene(
        image_size=recipe.image_size, people=people, coverage=recipe.coverage,
        scene_id=scene_id,
    )


@dataclass
class RoundtripReport:
    n_people: int
    poses_decoded: int
    people_found: int  # decoded poses matched one-to-one to true people
    part_count_ok: bool
    max_error_cells: float
    mean_error_cells: float
    success: bool
    tol_cells: float
    decode_stats: DecodeStats  # the decode's counters and phase times


def roundtrip_report(
    recipe: SceneRecipe,
    topo: SkeletonTopology,
    enc_params: EncoderParams | None = None,
    tol_cells: float = 0.5,
    scene_id: int = 0,
) -> RoundtripReport:
    """Encode a generated scene, decode it back, and compare against truth.

    Success means: one decoded pose per true person (matched bijectively),
    each matched pose carrying exactly the encodable parts of its person,
    every part within tol_cells map cells of the true location.
    """
    enc_params = enc_params or EncoderParams()
    scene = generate(recipe, topo, scene_id=scene_id)
    tensors = encode(scene, topo, enc_params)
    poses, stats = decode_with_stats((tensors.s_star, tensors.l_star), topo)

    # The evaluator's matching: poses by descending score, each to the
    # unmatched person with the highest OKS above _FOUND_OKS.
    stride = enc_params.stride
    dets = [
        EvalPose({pid: (x * stride, y * stride) for pid, (x, y, _) in p.parts.items()}, p.person_score)
        for p in poses
    ]
    truths = gt_poses_from_scene(scene)
    order, kept, _, matched = match_scene(dets, truths, topo, (_FOUND_OKS,))

    errors: list[float] = []
    part_count_ok = True
    n_found = 0
    for di, col in zip(order.tolist(), matched[0].tolist()):
        if col < 0:
            continue
        n_found += 1
        got, truth = poses[di].parts, truths[kept[col]].parts
        if set(got) != set(truth):
            part_count_ok = False
        for pid, (tx, ty) in truth.items():
            if pid in got:
                errors.append(math.hypot(got[pid][0] - tx / stride, got[pid][1] - ty / stride))

    max_err = max(errors) if errors else 0.0
    mean_err = sum(errors) / len(errors) if errors else 0.0
    success = (
        len(poses) == recipe.n_people
        and n_found == recipe.n_people
        and part_count_ok
        and max_err <= tol_cells
    )
    return RoundtripReport(
        n_people=recipe.n_people,
        poses_decoded=len(poses),
        people_found=n_found,
        part_count_ok=part_count_ok,
        max_error_cells=max_err,
        mean_error_cells=mean_err,
        success=success,
        tol_cells=tol_cells,
        decode_stats=stats,
    )
