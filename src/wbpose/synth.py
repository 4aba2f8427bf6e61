"""Synthetic scene generation and the encode->decode round-trip check.

Scenes are built from the canonical template pose embedded in the topology
manifest: each person is a uniformly scaled, rotated copy with per-limb
angular jitter applied down the kinematic tree, packed by rejection sampling
so person bounding boxes keep a minimum separation. Realism is irrelevant;
the scenes exist to exercise the encoder and decoder end to end.

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
from .metrics import EvalPose, greedy_match, gt_poses_from_scene, oks_matrix
from .skeleton import PartGroup, SkeletonTopology


# A decoded pose finds a true person only at OKS above 0.1; the evaluator's
# matcher accepts OKS >= threshold, hence the float just above. (A fragment
# holding 7 of a person's 70 labeled parts, all exact, scores exactly 0.1.)
_FOUND_OKS = math.nextafter(0.1, 1.0)

# Keypoints in the outermost map cells cannot carry a subpixel offset (the
# peak has no outer neighbour to fit against), so every keypoint keeps this
# many px of clearance from the image borders.
EDGE_MARGIN_PX = 16.0


class PackingError(RuntimeError):
    """Rejection sampling could not place every person."""


@dataclass(frozen=True)
class SceneRecipe:
    n_people: int
    image_size: tuple[int, int] = (480, 480)
    min_separation: float = 30.0  # px between person bounding boxes
    person_scale: tuple[float, float] = (90.0, 130.0)  # px height of the template
    coverage: frozenset[PartGroup] = frozenset(PartGroup)
    missing_prob: Mapping[PartGroup, float] = field(default_factory=dict)
    rotation_deg: float = 20.0  # whole-person rotation, uniform +-
    jitter_deg: float = 12.0  # per-limb angular jitter, uniform +-, <= 15
    seed: int = 0
    max_attempts: int = 1000

    def __post_init__(self) -> None:
        if self.jitter_deg > 15.0:
            raise ValueError("per-limb jitter is capped at 15 degrees")
        if self.n_people < 0:
            raise ValueError("n_people must be >= 0")
        lo, hi = self.person_scale
        if not 0.0 < lo <= hi:
            raise ValueError(f"person_scale needs 0 < LO <= HI, got {lo}:{hi}")


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.Generator(np.random.Philox(np.random.SeedSequence((seed, *key))))


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


def _jittered_template(
    topo: SkeletonTopology,
    subtrees: list[tuple[int, list[int]]],
    rng: np.random.Generator,
    jitter_deg: float,
) -> dict[int, tuple[float, float]]:
    """Template coordinates after rotating each limb's subtree around its src
    joint by an independent uniform angle (forward kinematics down the tree)."""
    template = topo.template_pose
    if template is None:
        raise ValueError("topology manifest carries no template_pose; cannot synthesize scenes")
    pos = {pid: (float(x), float(y)) for pid, (x, y) in template.items()}
    for src, subtree in subtrees:
        theta = math.radians(rng.uniform(-jitter_deg, jitter_deg))
        c, s = math.cos(theta), math.sin(theta)
        ox, oy = pos[src]
        for pid in subtree:
            x, y = pos[pid]
            rx, ry = x - ox, y - oy
            pos[pid] = (ox + c * rx - s * ry, oy + s * rx + c * ry)
    return pos


def _place_person(
    topo: SkeletonTopology,
    subtrees: list[tuple[int, list[int]]],
    recipe: SceneRecipe,
    rng: np.random.Generator,
    placed_boxes: list[tuple[float, float, float, float]],
    attempts_left: int,
) -> tuple[dict[int, tuple[float, float]], tuple[float, float, float, float], int]:
    w, h = recipe.image_size
    m = EDGE_MARGIN_PX
    while attempts_left > 0:
        attempts_left -= 1
        skel = _jittered_template(topo, subtrees, rng, recipe.jitter_deg)
        scale = rng.uniform(*recipe.person_scale)
        theta = math.radians(rng.uniform(-recipe.rotation_deg, recipe.rotation_deg))
        c, s = math.cos(theta), math.sin(theta)
        pts = {
            pid: (scale * (c * x - s * y), scale * (s * x + c * y))
            for pid, (x, y) in skel.items()
        }
        xs = [p[0] for p in pts.values()]
        ys = [p[1] for p in pts.values()]
        bw, bh = max(xs) - min(xs), max(ys) - min(ys)
        if bw >= w - 2 * m or bh >= h - 2 * m:
            continue
        ox = rng.uniform(m - min(xs), w - m - max(xs))
        oy = rng.uniform(m - min(ys), h - m - max(ys))
        box = (min(xs) + ox, min(ys) + oy, max(xs) + ox, max(ys) + oy)
        if all(_box_gap(box, other) > recipe.min_separation for other in placed_boxes):
            return ({pid: (x + ox, y + oy) for pid, (x, y) in pts.items()}, box, attempts_left)
    raise PackingError(
        f"could not place {len(placed_boxes) + 1} of {recipe.n_people} people "
        f"within {recipe.max_attempts} attempts"
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
    rng = _rng(recipe.seed, scene_id)
    subtrees = _limb_subtrees(topo)
    boxes: list[tuple[float, float, float, float]] = []
    people: list[Person] = []
    attempts = recipe.max_attempts
    for _ in range(recipe.n_people):
        pts, box, attempts = _place_person(topo, subtrees, recipe, rng, boxes, attempts)
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
    poses, stats = decode_with_stats(tensors, topo)

    # The evaluator's matching: poses by descending score, each to the
    # unmatched person with the highest OKS above _FOUND_OKS.
    stride = enc_params.stride
    order = sorted(range(len(poses)), key=lambda i: (-poses[i].person_score, i))
    dets = [
        EvalPose({pid: (x * stride, y * stride) for pid, (x, y, _) in poses[i].parts.items()})
        for i in order
    ]
    truths = gt_poses_from_scene(scene)
    labeled = [gi for gi, t in enumerate(truths) if t.parts]
    oks = oks_matrix(dets, [truths[gi] for gi in labeled], topo)
    matched = greedy_match(oks, (_FOUND_OKS,))[0].tolist()

    errors: list[float] = []
    part_count_ok = True
    n_found = 0
    for di, col in enumerate(matched):
        if col < 0:
            continue
        n_found += 1
        got, truth = poses[order[di]].parts, truths[labeled[col]].parts
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
