"""OKS and AP/AR evaluation against hand-built and brute-force oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    oracle_ap_101,
    oracle_bbox_area,
    oracle_greedy_oks_assign,
    oracle_greedy_oks_match,
    oracle_oks,
)
from wbpose.metrics import OKS_THRESHOLDS, EvalPose, evaluate, match_scene
from wbpose.skeleton import PartGroup, default_topology


def _oks(det, gt, topo, group=None):
    """OKS of one detection against one ground truth, read from
    match_scene's matrix."""
    _, _, mat, _ = match_scene([EvalPose(det, 1.0)], [EvalPose(gt)], topo, OKS_THRESHOLDS, group)
    return float(mat[0, 0])


def test_oks_identical_poses_is_one(tiny_topo):
    pose = {0: (10.0, 20.0), 1: (30.0, 40.0), 2: (50.0, 60.0)}
    assert _oks(pose, pose, tiny_topo) == 1.0


def test_oks_distant_detection_vanishes(tiny_topo):
    gt = {0: (10.0, 20.0)}
    det = {0: (1e6, 1e6)}
    assert _oks(det, gt, tiny_topo) < 1e-300


def test_oks_three_part_case_matches_summation_oracle(tiny_topo):
    # Hand-set distances; value frozen against the per-term scalar oracle.
    gt = {0: (100.0, 100.0), 1: (150.0, 100.0), 2: (100.0, 180.0)}
    det = {0: (103.0, 104.0), 1: (150.0, 100.0), 2: (90.0, 180.0)}
    area = 4000.0  # the 50 x 80 px bounding box of gt
    assert oracle_bbox_area(gt) == area
    kappa = {p.part_id: tiny_topo.oks_kappa[p.part_id] for p in tiny_topo.parts}
    expected = oracle_oks(det, gt, area, kappa, part_ids=[0, 1, 2])
    got = _oks(det, gt, tiny_topo)
    assert got == pytest.approx(expected, abs=1e-12)


def test_oks_missing_detected_part_contributes_zero(tiny_topo):
    gt = {0: (10.0, 10.0), 1: (20.0, 20.0)}
    det = {0: (10.0, 10.0)}
    assert _oks(det, gt, tiny_topo) == pytest.approx(0.5)


def test_gt_without_parts_in_subset_is_not_matched(tiny_topo):
    body_gt = EvalPose({0: (10.0, 10.0)})  # part 0 is body
    foot_gt = EvalPose({3: (10.0, 30.0)})  # part 3 is foot
    det = EvalPose({0: (10.0, 10.0), 3: (10.0, 30.0)}, 1.0)
    order, kept, mat, matched = match_scene(
        [det], [body_gt, foot_gt], tiny_topo, OKS_THRESHOLDS, {PartGroup.FOOT}
    )
    assert order.tolist() == [0] and kept.tolist() == [1]
    assert mat.tolist() == [[1.0]]
    assert (matched == 0).all()  # column 0 of mat is gt 1
    order, kept, mat, matched = match_scene([det], [body_gt], tiny_topo, OKS_THRESHOLDS, {PartGroup.FOOT})
    assert kept.tolist() == [] and mat.shape == (1, 0) and (matched == -1).all()


def test_oks_area_has_a_floor_of_one_px2(tiny_topo):
    # A detection part kappa * sqrt(area) px off scores exp(-1/2), which
    # pins the area the matrix used.
    k0 = tiny_topo.oks_kappa[0]
    for gt in ({0: (5.0, 5.0)}, {0: (5.0, 5.0), 1: (15.0, 5.0)}):  # a point, a flat pose
        assert oracle_bbox_area(gt) == 1.0
        det = {**gt, 0: (5.0 + k0, 5.0)}
        assert _oks(det, gt, tiny_topo) == pytest.approx((math.exp(-0.5) + len(gt) - 1) / len(gt))
    gt = {0: (0.0, 0.0), 1: (10.0, 20.0)}
    assert oracle_bbox_area(gt) == 200.0
    det = {0: (k0 * math.sqrt(200.0), 0.0), 1: (10.0, 20.0)}
    assert _oks(det, gt, tiny_topo) == pytest.approx((math.exp(-0.5) + 1.0) / 2)


@settings(max_examples=40, deadline=None)
@given(
    dx=st.floats(-500, 500, allow_nan=False),
    dy=st.floats(-500, 500, allow_nan=False),
)
def test_oks_translation_invariance(tiny_topo_module, dx, dy):
    topo = tiny_topo_module
    gt = {0: (100.0, 100.0), 1: (140.0, 120.0)}
    det = {0: (104.0, 98.0), 1: (141.0, 125.0)}
    base = _oks(det, gt, topo)
    moved = _oks(
        {k: (x + dx, y + dy) for k, (x, y) in det.items()},
        {k: (x + dx, y + dy) for k, (x, y) in gt.items()},
        topo,
    )
    assert math.isclose(base, moved, rel_tol=1e-9)


def _pose(score, **parts):
    return EvalPose(parts={int(k[1:]): v for k, v in parts.items()}, score=score)


def test_perfect_detections_score_unity(tiny_topo):
    gts = [
        [_pose(0.0, p0=(50.0, 50.0), p1=(80.0, 90.0))],
        [_pose(0.0, p0=(150.0, 50.0)), _pose(0.0, p2=(20.0, 30.0), p3=(40.0, 50.0))],
    ]
    dets = [
        [EvalPose(parts=g.parts, score=0.9) for g in scene] for scene in gts
    ]
    result = evaluate(dets, gts, tiny_topo)
    assert result.ap == pytest.approx(1.0)
    assert result.ar == pytest.approx(1.0)
    assert set(result.per_threshold) == set(OKS_THRESHOLDS)


def test_zero_detections_score_zero(tiny_topo):
    gts = [[_pose(0.0, p0=(50.0, 50.0))]]
    result = evaluate([[]], gts, tiny_topo)
    assert result.ap == 0.0
    assert result.ar == 0.0


def test_mixed_detections_match_brute_force_pr(tiny_topo):
    # 2 scenes, 3 gts; correct det at 0.9, spurious at 0.8, correct at 0.7.
    gt_a1 = {0: (50.0, 50.0), 1: (90.0, 80.0)}
    gt_a2 = {0: (200.0, 50.0), 1: (240.0, 80.0)}
    gt_b = {0: (100.0, 100.0), 2: (140.0, 150.0)}
    gts = [
        [EvalPose(parts=gt_a1), EvalPose(parts=gt_a2)],
        [EvalPose(parts=gt_b)],
    ]
    dets = [
        [
            EvalPose(parts=gt_a1, score=0.9),
            EvalPose(parts={0: (400.0, 400.0), 1: (420.0, 430.0)}, score=0.8),
        ],
        [EvalPose(parts=gt_b, score=0.7)],
    ]
    result = evaluate(dets, gts, tiny_topo)

    kappa = {p.part_id: tiny_topo.oks_kappa[p.part_id] for p in tiny_topo.parts}

    def oks_fn(det_parts, gt_parts):
        area = oracle_bbox_area(gt_parts)
        return oracle_oks(det_parts, gt_parts, area, kappa, part_ids=sorted(gt_parts))

    for t in OKS_THRESHOLDS:
        flags = []
        for scene_dets, scene_gts in zip(dets, gts):
            det_list = [(d.score, d.parts) for d in scene_dets]
            gt_list = [g.parts for g in scene_gts]
            flags.extend(
                zip(
                    sorted((d.score for d in scene_dets), reverse=True),
                    oracle_greedy_oks_match(det_list, gt_list, oks_fn, t),
                )
            )
        flags.sort(key=lambda sf: -sf[0])
        ordered = [f for _, f in flags]
        expected_ap = oracle_ap_101(ordered, n_gt=3)
        expected_recall = sum(ordered) / 3
        precision, recall = result.per_threshold[t]
        assert recall == pytest.approx(expected_recall, abs=1e-12)
    # The same detections are TP at every threshold here (exact hits), so the
    # mean AP equals the per-threshold oracle value.
    assert result.ap == pytest.approx(oracle_ap_101([True, False, True], 3), abs=1e-12)
    assert result.ar == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_low_score_spurious_detection_never_helps(tiny_topo):
    gts = [[_pose(0.0, p0=(50.0, 50.0), p1=(90.0, 80.0))]]
    dets = [[EvalPose(parts=gts[0][0].parts, score=0.9)]]
    base = evaluate(dets, gts, tiny_topo)
    noisy_dets = [
        dets[0] + [EvalPose(parts={0: (400.0, 10.0), 1: (430.0, 20.0)}, score=0.1)]
    ]
    noisy = evaluate(noisy_dets, gts, tiny_topo)
    assert noisy.ar == base.ar
    assert noisy.ap <= base.ap


def test_duplicating_scenes_preserves_ap_ar(tiny_topo):
    gts = [
        [_pose(0.0, p0=(50.0, 50.0), p1=(90.0, 80.0)), _pose(0.0, p0=(200.0, 50.0), p1=(260.0, 80.0))],
    ]
    dets = [
        [
            EvalPose(parts=gts[0][0].parts, score=0.9),
            EvalPose(parts={0: (205.0, 55.0), 1: (263.0, 84.0)}, score=0.6),
            EvalPose(parts={0: (400.0, 400.0), 1: (440.0, 420.0)}, score=0.5),
        ]
    ]
    once = evaluate(dets, gts, tiny_topo)
    twice = evaluate(dets * 2, gts * 2, tiny_topo)
    assert twice.ap == pytest.approx(once.ap, abs=1e-12)
    assert twice.ar == pytest.approx(once.ar, abs=1e-12)


def test_group_subset_restricts_parts(tiny_topo):
    # Part 3 (big_toe) is a foot part; a det that nails the body but misses
    # the foot is perfect under the body subset.
    gt = {0: (50.0, 50.0), 1: (90.0, 80.0), 3: (95.0, 130.0)}
    det = {0: (50.0, 50.0), 1: (90.0, 80.0), 3: (300.0, 300.0)}
    gts = [[EvalPose(parts=gt)]]
    dets = [[EvalPose(parts=det, score=0.9)]]
    body = evaluate(dets, gts, tiny_topo, group={PartGroup.BODY})
    both = evaluate(dets, gts, tiny_topo)
    assert body.ap == pytest.approx(1.0)
    assert both.ap < 1.0
    assert body.group == frozenset({PartGroup.BODY})


def test_scene_count_mismatch_rejected(tiny_topo):
    with pytest.raises(ValueError):
        evaluate([[]], [[], []], tiny_topo)


def test_evaluating_groundtruth_as_detections_is_perfect_per_group(topo):
    rng = np.random.default_rng(5)
    scenes = []
    for _ in range(3):
        people = []
        for _ in range(2):
            parts = {
                p.part_id: (float(rng.uniform(0, 400)), float(rng.uniform(0, 400)))
                for p in topo.parts
            }
            people.append(EvalPose(parts=parts))
        scenes.append(people)
    for group in PartGroup:
        dets = [
            [EvalPose(parts=g.parts, score=1.0) for g in scene] for scene in scenes
        ]
        result = evaluate(dets, scenes, topo, group={group})
        assert result.ap == pytest.approx(1.0)
        assert result.ar == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# Differential test: the array kernels against the loop oracles, on the full
# whole-body topology.

FULL = default_topology()
FULL_KAPPA = {p.part_id: FULL.oks_kappa[p.part_id] for p in FULL.parts}
# Ids the evaluator ignores; a kernel that indexed with them would wrap the
# negative ones to the last parts (hand parts) or fail on the others.
BAD_IDS = (-1, -2, -FULL.n_parts, FULL.n_parts, FULL.n_parts + 7)


@st.composite
def _eval_scenes(draw):
    """Scenes of ground truths and detections on the full topology: sparse
    and partly-missing poses, ground truths with parts in few groups (or
    none, or only ignored ids), flat ones, exact duplicates, noisy and
    spurious detections, tied scores and out-of-range part ids."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    groups = list(PartGroup)

    def random_pose(keep, in_groups, center, spread):
        return {
            p.part_id: (float(center[0] + rng.normal(0, spread)), float(center[1] + rng.normal(0, spread)))
            for p in FULL.parts
            if p.group in in_groups and rng.random() < keep
        }

    def with_bad_ids(parts, like):
        # Place each ignored id where its wrapped index sits in `like`, so
        # wrapping would change the result.
        out = dict(parts)
        for bad in BAD_IDS:
            out[bad] = like.get(bad % FULL.n_parts, (float(rng.uniform(0, 400)), 0.0))
        return out

    scenes = []
    for _ in range(draw(st.integers(0, 3))):
        gts, dets = [], []
        for _ in range(draw(st.integers(0, 4))):
            kind = draw(st.sampled_from(["pose", "pose", "flat", "duplicate", "empty", "bad_only"]))
            if kind == "duplicate" and gts:
                gts.append(EvalPose(parts=dict(gts[-1].parts)))
                continue
            if kind == "empty":
                gts.append(EvalPose(parts={}))
                continue
            if kind == "bad_only":
                gts.append(EvalPose(parts=with_bad_ids({}, {})))
                continue
            in_groups = set(draw(st.sets(st.sampled_from(groups), min_size=1)))
            keep = draw(st.sampled_from([1.0, 0.5, 0.05]))
            center = rng.uniform(0, 400, 2)
            parts = random_pose(keep, in_groups, center, 40.0)
            if kind == "flat":  # zero bounding-box height: the 1 px^2 floor
                parts = {pid: (x, float(center[1])) for pid, (x, _) in parts.items()}
            if draw(st.booleans()):
                parts = with_bad_ids(parts, parts)
            gts.append(EvalPose(parts=parts))
        for g in gts:
            if not draw(st.booleans()):
                continue
            noise = draw(st.sampled_from([0.0, 0.5, 3.0, 15.0]))
            drop = draw(st.sampled_from([0.0, 0.3, 0.9]))
            parts = {
                pid: (x + float(rng.normal(0, noise)), y + float(rng.normal(0, noise)))
                for pid, (x, y) in g.parts.items()
                if 0 <= pid < FULL.n_parts and rng.random() >= drop
            }
            if draw(st.booleans()):
                parts = with_bad_ids(parts, g.parts)
            dets.append(EvalPose(parts=parts, score=draw(st.sampled_from([0.25, 0.5, 1.0]))))
        for _ in range(draw(st.integers(0, 2))):
            parts = random_pose(0.5, set(groups), rng.uniform(0, 400, 2), 40.0)
            dets.append(EvalPose(parts=parts, score=float(rng.random())))
        rng.shuffle(dets)
        scenes.append((dets, gts))
    return scenes


@pytest.mark.parametrize(
    "group", [None] + [frozenset({g}) for g in PartGroup], ids=lambda g: "all" if g is None else next(iter(g)).value
)
@settings(max_examples=25, deadline=None)
@given(scenes=_eval_scenes())
def test_kernels_equal_loop_oracles(group, scenes):
    subset = sorted(p.part_id for p in FULL.parts if group is None or p.group in group)
    subset_set = set(subset)

    def oks_fn(det_parts, gt_parts):
        area = oracle_bbox_area({k: v for k, v in gt_parts.items() if k in subset_set})
        return oracle_oks(det_parts, gt_parts, area, FULL_KAPPA, part_ids=subset)

    per_t_flags = {t: [] for t in OKS_THRESHOLDS}
    n_gt = n_det = 0
    for dets, gts in scenes:
        order, kept_ids, mat, assigned = match_scene(dets, gts, FULL, OKS_THRESHOLDS, group)
        assert kept_ids.tolist() == [i for i, g in enumerate(gts) if subset_set & set(g.parts)]
        assert order.tolist() == sorted(range(len(dets)), key=lambda i: -dets[i].score)
        kept = [gts[i] for i in kept_ids]
        ranked = [dets[i] for i in order]
        n_gt += len(kept)
        n_det += len(dets)
        assert mat.shape == (len(dets), len(kept))
        for di, d in enumerate(ranked):
            for gi, g in enumerate(kept):
                assert mat[di, gi] == pytest.approx(oks_fn(d.parts, g.parts), rel=0, abs=1e-12)
        det_list = [(d.score, d.parts) for d in dets]
        gt_list = [g.parts for g in kept]
        scores = [d.score for d in ranked]
        for ti, t in enumerate(OKS_THRESHOLDS):
            want = oracle_greedy_oks_assign(det_list, gt_list, oks_fn, t)
            assert assigned[ti].tolist() == [-1 if gi is None else gi for gi in want]
            per_t_flags[t].extend(zip(scores, (gi is not None for gi in want)))

    result = evaluate([d for d, _ in scenes], [g for _, g in scenes], FULL, group)
    assert (result.n_gt, result.n_det) == (n_gt, n_det)
    aps, ars = [], []
    for t in OKS_THRESHOLDS:
        # Stable: equal scores keep scene order, then rank order.
        ordered = [f for _, f in sorted(per_t_flags[t], key=lambda sf: -sf[0])]
        ap = oracle_ap_101(ordered, n_gt) if n_gt else 0.0
        recall = sum(ordered) / n_gt if n_gt else 0.0
        precision = sum(ordered) / len(ordered) if n_gt and ordered else 0.0
        aps.append(ap)
        ars.append(recall)
        got_p, got_r = result.per_threshold[t]
        assert got_p == pytest.approx(precision, rel=0, abs=1e-12)
        assert got_r == pytest.approx(recall, rel=0, abs=1e-12)
    assert result.ap == pytest.approx(sum(aps) / len(aps), rel=0, abs=1e-12)
    assert result.ar == pytest.approx(sum(ars) / len(ars), rel=0, abs=1e-12)
