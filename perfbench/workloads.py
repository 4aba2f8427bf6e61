"""The benchmark's workloads: their inputs, one op each, and its checks.

Every call into wbpose goes through a span of the run's tracer, so the
traced run times each layer at its public entry point without any change
to the library. All inputs derive from the workload seed; the library only
sees the generated scenes, maps and bytes.

Workloads (single process, one caller, closed loop, DecoderParams()
defaults, 480x480 images giving 60x60 maps at stride 8):

* decode_crowd   clean maps for crowds of 1, 5, 10 and 20 people (3, 4, 1
                 and 2 images of each) made in set-up; op = from_bytes ->
                 decode -> evaluate. The decode floor dominates small
                 crowds, pair scoring and OKS matching grow with the crowd.
                 No encoder on the clock.
* decode_noisy   3-person maps plus seeded Gaussian noise (sigma 0.02) on
                 the confidence and PAF channels, closer to network output.
                 Same op; thousands of candidates and tens of thousands of
                 pairs per image, which the support prefilter cannot prune.
* train_targets  the training side: op = plan_batch -> generate (a new
                 scene each op) -> encode_confidence / encode_paf /
                 encode_masks -> to_bytes -> multitask_loss against a fixed
                 seeded prediction. No decoder or evaluator on the clock.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from wbpose.decoder import DecoderParams, DecodeStats, Pose, decode_with_stats
from wbpose.encoder import (
    EncoderParams,
    TargetTensors,
    encode_confidence,
    encode_masks,
    encode_paf,
    map_shape,
)
from wbpose.formats import from_bytes, from_targets, to_bytes, to_targets
from wbpose.loss import multitask_loss
from wbpose.metrics import EvalPose, evaluate, gt_poses_from_scene
from wbpose.scheduler import default_registry, plan_batch
from wbpose.skeleton import SkeletonTopology
from wbpose.synth import SceneRecipe, generate

from tracer import Tracer

IMAGE_SIZE = (480, 480)
CROWD_CYCLE = (1, 5, 10, 20)
# Images per crowd size in one round of the fixed input set (3 + 4 + 1 + 2 =
# 10), chosen so that the median op falls at the middle of the 5-person
# images and the 90th percentile at the middle of the 20-person ones. With
# equal shares the median sits on the gap between two crowd sizes, and near
# the edge of a crowd size a percentile jumps with that size's spread.
CROWD_SHARES = (3, 4, 1, 2)
NOISY_CROWD = 3
NOISY_SCENES = 4
NOISE_SIGMA = 0.02
# Small people, 10 px between bounding boxes and a generous attempt budget,
# so 20-person crowds pack into 480x480 and clean maps still decode back
# exactly (checked over many seeds; 30 px cannot pack 20 people).
PERSON_SCALE = (45.0, 65.0)
MIN_SEPARATION_PX = 10.0
MAX_ATTEMPTS = 20_000


@dataclass
class Context:
    topo: SkeletonTopology
    seed: int
    tracer: Tracer
    enc: EncoderParams = field(default_factory=EncoderParams)
    dec: DecoderParams = field(default_factory=DecoderParams)


@dataclass
class Item:
    """One image of a workload's fixed input set."""

    n_people: int
    scene_id: int
    gt: list[EvalPose] | None = None
    blob: bytes | None = None
    tensors: TargetTensors | None = None  # encoder output, kept until the reference pass
    paf_cells: int = 0
    # Filled by the reference pass; every op on this item must reproduce them.
    expect_ap: float | None = None
    expect_poses: int | None = None


@dataclass
class Reference:
    """Result of the untimed pass over the fixed input set."""

    oks_ap: float
    failures: list[str]
    counts: dict[str, float]


def crowd_items() -> list[Item]:
    """Crowd sizes 1, 5, 10, 20 interleaved, CROWD_SHARES images of each."""
    specs = [
        n for k in range(max(CROWD_SHARES))
        for n, share in zip(CROWD_CYCLE, CROWD_SHARES) if k < share
    ]
    return [Item(n_people=n, scene_id=i) for i, n in enumerate(specs)]


def noisy_items() -> list[Item]:
    return [Item(n_people=NOISY_CROWD, scene_id=i) for i in range(NOISY_SCENES)]


def recipe(seed: int, n_people: int) -> SceneRecipe:
    return SceneRecipe(
        n_people=n_people,
        image_size=IMAGE_SIZE,
        min_separation=MIN_SEPARATION_PX,
        person_scale=PERSON_SCALE,
        seed=seed,
        max_attempts=MAX_ATTEMPTS,
    )


def build_targets(ctx: Context, item: Item):
    """generate -> encode_confidence / encode_paf / encode_masks."""
    tr, n = ctx.tracer, item.n_people
    with tr.span("synth.generate", n=n):
        scene = generate(recipe(ctx.seed, n), ctx.topo, scene_id=item.scene_id)
    with tr.span("encoder.confidence", n=n):
        s_star = encode_confidence(scene, ctx.topo, ctx.enc)
    with tr.span("encoder.paf", n=n):
        l_star = encode_paf(scene, ctx.topo, ctx.enc)
    with tr.span("encoder.masks", n=n):
        w_mask = encode_masks(scene, ctx.topo, ctx.enc)
    return scene, TargetTensors(s_star, l_star, w_mask, ctx.enc.stride, scene.image_size)


def pack(ctx: Context, tensors: TargetTensors) -> bytes:
    with ctx.tracer.span("formats.to_bytes"):
        return to_bytes(from_targets(tensors, ctx.topo.manifest_hash))


def unpack(ctx: Context, blob: bytes) -> TargetTensors:
    with ctx.tracer.span("formats.from_bytes"):
        return to_targets(from_bytes(blob))


def same_tensors(a: TargetTensors, b: TargetTensors) -> bool:
    return (
        np.array_equal(a.s_star, b.s_star)
        and np.array_equal(a.l_star, b.l_star)
        and np.array_equal(a.w_mask, b.w_mask)
        and a.stride == b.stride
    )


def to_eval(poses: list[Pose], stride: int) -> list[EvalPose]:
    return [
        EvalPose({pid: (x * stride, y * stride) for pid, (x, y, _) in p.parts.items()}, p.person_score)
        for p in poses
    ]


def decode_and_evaluate(ctx: Context, tensors: TargetTensors, item: Item):
    tr = ctx.tracer
    with tr.span("decoder.decode", n=item.n_people):
        poses, stats = decode_with_stats((tensors.s_star, tensors.l_star), ctx.topo, ctx.dec)
    tr.annotate_last(nms_ns=stats.nms_ns, scoring_ns=stats.scoring_ns, assembly_ns=stats.assembly_ns)
    dets = to_eval(poses, tensors.stride)
    with tr.span("metrics.evaluate", n=item.n_people):
        result = evaluate([dets], [item.gt], ctx.topo)
    return dets, stats, result


class _Counts:
    """Exact work counts over one pass of the fixed input set."""

    def __init__(self) -> None:
        self.c = dict.fromkeys((
            "decoder.candidates", "decoder.pairs", "decoder.pairs_valid",
            "decoder.poses", "people", "metrics.oks_pairs", "encoder.paf_cells",
            "formats.bytes",
        ), 0)

    def add_decode(self, stats: DecodeStats, n_dets: int, n_gt: int) -> None:
        self.c["decoder.candidates"] += stats.candidates
        self.c["decoder.pairs"] += stats.connections_scored
        self.c["decoder.pairs_valid"] += stats.connections_valid
        self.c["decoder.poses"] += n_dets
        self.c["people"] += n_gt
        self.c["metrics.oks_pairs"] += n_dets * n_gt

    def result(self) -> dict[str, float]:
        c = dict(self.c)
        people = c.pop("people")
        c["decoder.valid_ratio"] = c["decoder.pairs_valid"] / max(c["decoder.pairs"], 1)
        c["decoder.poses_per_person"] = c["decoder.poses"] / max(people, 1)
        return c


class DecodeWorkload:
    """Maps made in set-up; op = from_bytes -> decode -> evaluate."""

    def __init__(self, name: str, items, noise_sigma: float, exact: bool):
        self.name = name
        self._items = items
        self.noise_sigma = noise_sigma
        self.exact = exact  # clean maps must decode back to the ground truth

    @property
    def crowd_cycle(self) -> tuple[int, ...]:
        return tuple(dict.fromkeys(it.n_people for it in self._items()))

    def setup(self, ctx: Context) -> list[Item]:
        items = self._items()
        for item in items:
            scene, tensors = build_targets(ctx, item)
            item.gt = gt_poses_from_scene(scene)
            item.paf_cells = int(np.count_nonzero(tensors.l_star))
            if self.noise_sigma:
                rng = np.random.default_rng((ctx.seed, item.scene_id))
                for maps in (tensors.s_star, tensors.l_star):
                    maps += rng.normal(0.0, self.noise_sigma, maps.shape).astype(np.float32)
            item.blob = pack(ctx, tensors)
            item.tensors = tensors
        return items

    def reference(self, ctx: Context, items: list[Item]) -> Reference:
        failures: list[str] = []
        counts = _Counts()
        all_dets, all_gts = [], []
        for item in items:
            tensors = unpack(ctx, item.blob)
            if not same_tensors(tensors, item.tensors):
                failures.append(f"scene {item.scene_id}: from_bytes(to_bytes(x)) != x")
            item.tensors = None
            dets, stats, result = decode_and_evaluate(ctx, tensors, item)
            item.expect_ap, item.expect_poses = result.ap, len(dets)
            counts.add_decode(stats, len(dets), len(item.gt))
            counts.c["encoder.paf_cells"] += item.paf_cells
            counts.c["formats.bytes"] += len(item.blob)
            all_dets.append(dets)
            all_gts.append(item.gt)
        oks_ap = evaluate(all_dets, all_gts, ctx.topo).ap
        if self.exact and oks_ap != 1.0:
            failures.append(f"oks_ap {oks_ap!r} on clean maps, expected 1.0")
        return Reference(oks_ap, failures, counts.result())

    def op(self, ctx: Context, item: Item, op_index: int):
        tensors = unpack(ctx, item.blob)
        dets, _, result = decode_and_evaluate(ctx, tensors, item)
        return len(dets), result.ap

    def check(self, ctx: Context, item: Item, out) -> bool:
        n_poses, ap = out
        ok = n_poses == item.expect_poses and ap == item.expect_ap
        if self.exact:
            ok = ok and n_poses == item.n_people and ap == 1.0
        return ok


class TrainWorkload:
    """op = plan_batch -> generate -> encode_* -> to_bytes -> multitask_loss."""

    name = "train_targets"
    noise_sigma = 0.0
    crowd_cycle = CROWD_CYCLE

    def __init__(self) -> None:
        self.registry = default_registry()
        self.prediction: tuple[np.ndarray, np.ndarray] | None = None

    def setup(self, ctx: Context) -> list[Item]:
        rng = np.random.default_rng((ctx.seed, 1))
        topo = ctx.topo
        grid = map_shape(IMAGE_SIZE, ctx.enc.stride)
        conf = rng.random((topo.confidence_channels, *grid), dtype=np.float32)
        paf = rng.random((topo.paf_channels, *grid), dtype=np.float32) * 2.0 - 1.0
        self.prediction = (conf, paf)
        return crowd_items()

    def _chain(self, ctx: Context, item: Item, op_index: int):
        tr = ctx.tracer
        with tr.span("scheduler.plan_batch"):
            plan = plan_batch(self.registry, ctx.seed, op_index, 1)
        scene, tensors = build_targets(ctx, item)
        blob = pack(ctx, tensors)
        conf, paf = self.prediction
        with tr.span("loss.multitask"):
            loss = multitask_loss([paf], [conf], tensors, ctx.topo).total
        return plan, scene, tensors, blob, loss

    def reference(self, ctx: Context, items: list[Item]) -> Reference:
        failures: list[str] = []
        counts = _Counts()
        all_dets, all_gts = [], []
        for k, item in enumerate(items):
            out = self._chain(ctx, item, k)
            if not self.check(ctx, item, out):
                failures.append(f"scene {item.scene_id}: bad plan, loss or WBPT round trip")
            scene, tensors, blob = out[1:4]
            item.gt = gt_poses_from_scene(scene)
            dets, stats, _ = decode_and_evaluate(ctx, tensors, item)
            counts.add_decode(stats, len(dets), len(item.gt))
            counts.c["encoder.paf_cells"] += int(np.count_nonzero(tensors.l_star))
            counts.c["formats.bytes"] += len(blob)
            all_dets.append(dets)
            all_gts.append(item.gt)
        oks_ap = evaluate(all_dets, all_gts, ctx.topo).ap
        if oks_ap != 1.0:
            failures.append(f"oks_ap {oks_ap!r} of decode(encode(scene)), expected 1.0")
        return Reference(oks_ap, failures, counts.result())

    def op(self, ctx: Context, item: Item, op_index: int):
        # A new scene every op, as a training pipeline draws them; only the
        # crowd size follows the fixed input set, whose scenes are the ones
        # the first round of ops makes. Many distinct scenes keep the op
        # time percentiles from hanging on the cost of one scene.
        return self._chain(ctx, Item(n_people=item.n_people, scene_id=op_index), op_index)

    def check(self, ctx: Context, item: Item, out) -> bool:
        plan, _, tensors, blob, loss = out
        return (
            len(plan.draws) == 1
            and math.isfinite(loss)
            and loss >= 0.0
            and same_tensors(unpack(ctx, blob), tensors)
        )


WORKLOADS = {
    "decode_crowd": lambda: DecodeWorkload("decode_crowd", crowd_items, 0.0, exact=True),
    "decode_noisy": lambda: DecodeWorkload("decode_noisy", noisy_items, NOISE_SIGMA, exact=False),
    "train_targets": TrainWorkload,
}
