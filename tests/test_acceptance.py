"""Acceptance gate: nine end-to-end criteria, one test and one printed
PASS/FAIL line each (run with -s to see the lines while passing).

Budgets and tolerances are asserted, not aspirational: a criterion that
cannot hold fails loudly here.
"""
import io
import json
import math
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import stats

from oracles import (
    oracle_ap_101,
    oracle_bbox_area,
    oracle_greedy_oks_match,
    oracle_oks,
    oracle_receptive_field,
)
from wbpose.archmodel import (
    build_stage_graph,
    parse_config,
    receptive_field,
    receptive_field_of_layers,
    runtime_ratio,
)
from wbpose.bench import run_bench
from wbpose.decoder import DecoderParams, DecodeStats, _assemble_forest
from wbpose.encoder import EncoderParams, TargetTensors
from wbpose.formats import (
    KIND_COMBINED,
    KIND_CONFIDENCE,
    KIND_MASK,
    KIND_PAF,
    WbptFile,
    from_bytes,
    ingest_coco,
    to_bytes,
)
from wbpose.loss import loss_gradient, masked_l2, multitask_loss
from wbpose.metrics import OKS_THRESHOLDS, EvalPose, evaluate
from wbpose.scheduler import (
    build_plan,
    default_registry,
    draw_augmentation,
    pick_dataset,
    read_plan_jsonl,
    rng_for,
    write_plan_jsonl,
)
from wbpose.skeleton import PartGroup, default_topology, load_topology
from wbpose.synth import SceneRecipe, roundtrip_report

DATA = Path(__file__).parent / "data"


def report(criterion: str, ok: bool, detail: str) -> None:
    print(f"[acceptance] {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"{criterion}: {detail}"


@pytest.fixture(scope="module")
def topo():
    return default_topology()


def test_criterion_1_roundtrip_fidelity(topo):
    """200 scenes, 1-10 people, separation above 4 sigma, full labeling,
    480x480 at stride 8: exact pose count, parts within 0.5 cells, no
    cross-person errors, under 60 s."""
    t0 = time.monotonic()
    n_scenes = 200
    worst = 0.0
    failures = []
    for i in range(n_scenes):
        n_people = (i % 10) + 1
        recipe = SceneRecipe(
            n_people=n_people,
            image_size=(480, 480),
            min_separation=30.0,  # 4 * sigma_body = 28 px
            person_scale=(45.0, 65.0),
            seed=1,
            max_attempts=20_000,
        )
        r = roundtrip_report(recipe, topo, tol_cells=0.5, scene_id=i)
        worst = max(worst, r.max_error_cells)
        exact = r.poses_decoded == n_people and r.people_found == n_people
        if not (r.success and exact and r.part_count_ok):
            failures.append(i)
    elapsed = time.monotonic() - t0
    report(
        "criterion 1 roundtrip fidelity",
        not failures and worst <= 0.5 and elapsed <= 60.0,
        f"{n_scenes} scenes, worst error {worst:.2e} cells, {elapsed:.1f}s, "
        f"failures {failures}",
    )


def test_criterion_2_masked_loss_soak(tiny_topo):
    """1000 random instances: zero iff equal on unmasked support, masked
    perturbations change nothing, analytic gradient matches central
    differences to 1e-5 relative, under 10 s."""
    t0 = time.monotonic()
    rng = np.random.default_rng(2024)
    n_conf, n_paf = tiny_topo.confidence_channels, tiny_topo.paf_channels
    worst_rel = 0.0
    for _ in range(1000):
        h = int(rng.integers(3, 7))
        w = int(rng.integers(3, 7))
        s = rng.standard_normal((n_conf, h, w)).astype(np.float32)
        l = rng.standard_normal((n_paf, h, w)).astype(np.float32)
        mask = (rng.random((n_conf + n_paf, h, w)) < 0.6).astype(np.float32)
        mask.flat[0] = 0.0
        mask.flat[-1] = 1.0
        targets = TargetTensors(s_star=s, l_star=l, w_mask=mask, stride=8, image_size=(w * 8, h * 8))
        hole_cm = 1.0 - mask[:n_conf]
        hole_paf = 1.0 - mask[n_conf:]

        # equal on support, arbitrary off support -> exactly zero
        pred_cm = s + hole_cm * rng.standard_normal(s.shape).astype(np.float32)
        pred_paf = l + hole_paf * rng.standard_normal(l.shape).astype(np.float32)
        assert multitask_loss([pred_paf], [pred_cm], targets, tiny_topo).total == 0.0

        # one on-support change -> strictly positive
        ci, hi, wi = np.argwhere(mask[:n_conf] == 1.0)[0]
        bumped = pred_cm.copy()
        bumped[ci, hi, wi] += 0.5
        total = multitask_loss([pred_paf], [bumped], targets, tiny_topo).total
        assert total > 0.0

        # masked perturbation leaves the total bit-identical
        shifted = bumped + hole_cm * rng.standard_normal(s.shape).astype(np.float32)
        assert multitask_loss([pred_paf], [shifted], targets, tiny_topo).total == total

        # analytic gradient vs central differences on the L2 kernel
        pred64 = rng.standard_normal((2, 4, 4))
        gt64 = rng.standard_normal((2, 4, 4))
        m64 = (rng.random((2, 4, 4)) < 0.5).astype(np.float64)
        grad = loss_gradient(pred64, gt64, m64)
        for flat in rng.integers(0, pred64.size, size=3):
            step = np.zeros_like(pred64)
            step.flat[flat] = 1e-3
            numeric = (masked_l2(pred64 + step, gt64, m64) - masked_l2(pred64 - step, gt64, m64)) / 2e-3
            analytic = grad.flat[flat]
            rel = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1.0)
            worst_rel = max(worst_rel, rel)
    elapsed = time.monotonic() - t0
    report(
        "criterion 2 masked-loss soak",
        worst_rel <= 1e-5 and elapsed <= 10.0,
        f"1000 instances, worst gradient rel err {worst_rel:.2e}, {elapsed:.1f}s",
    )


def test_criterion_3_scheduler_statistics():
    """100k dataset picks match declared probabilities within 0.5 pp with
    chi-square p above 0.001; plans replay bit-identically; under 5 s."""
    t0 = time.monotonic()
    registry = default_registry()
    n = 100_000
    counts = {spec.name: 0 for spec in registry}
    for i in range(n):
        spec = pick_dataset(registry, rng_for(17, 2 * i))
        counts[spec.name] += 1

    max_dev_pp = 0.0
    for spec in registry:
        dev = abs(counts[spec.name] / n - spec.probability) * 100.0
        max_dev_pp = max(max_dev_pp, dev)
    expected = np.array([spec.probability * n for spec in registry])
    observed = np.array([counts[spec.name] for spec in registry], dtype=float)
    chi2_stat = float(((observed - expected) ** 2 / expected).sum())
    p_value = float(stats.chi2.sf(chi2_stat, df=len(registry) - 1))

    plan_a = build_plan(registry, seed=17, n_batches=40, batch_size=8)
    plan_b = build_plan(registry, seed=17, n_batches=40, batch_size=8)
    buf_a, buf_b = io.StringIO(), io.StringIO()
    write_plan_jsonl(plan_a, buf_a)
    write_plan_jsonl(plan_b, buf_b)
    replayed = read_plan_jsonl(io.StringIO(buf_a.getvalue()))
    bit_identical = plan_a == plan_b == replayed and buf_a.getvalue() == buf_b.getvalue()

    elapsed = time.monotonic() - t0
    report(
        "criterion 3 scheduler statistics",
        max_dev_pp <= 0.5 and p_value > 0.001 and bit_identical and elapsed <= 5.0,
        f"max deviation {max_dev_pp:.3f} pp, chi2 p={p_value:.3f}, "
        f"replay identical={bit_identical}, {elapsed:.1f}s",
    )


def test_criterion_4_augmentation_ranges():
    """10k draws per dataset inside the declared ranges (dome hand
    [2/3, 4.5], MPII hand [0.5, 4.0]) with KS uniformity p above 0.001."""
    registry = default_registry()
    by_name = {spec.name: spec for spec in registry}
    assert by_name["dome_hand"].aug.scale == (2.0 / 3.0, 4.5)
    assert by_name["mpii_hand"].aug.scale == (0.5, 4.0)

    worst_p = 1.0
    for idx, spec in enumerate(registry):
        scales, rotations = [], []
        for k in range(10_000):
            draw = draw_augmentation(spec, rng_for(900 + idx, k))
            scales.append(draw.scale)
            rotations.append(draw.rotation_deg)
            assert 0.0 <= draw.crop_offset[0] < 1.0 and 0.0 <= draw.crop_offset[1] < 1.0
        lo, hi = spec.aug.scale
        r = spec.aug.rotation_deg
        assert min(scales) >= lo and max(scales) < hi, spec.name
        assert min(rotations) >= -r and max(rotations) < r, spec.name
        p_scale = stats.kstest(scales, "uniform", args=(lo, hi - lo)).pvalue
        p_rot = stats.kstest(rotations, "uniform", args=(-r, 2 * r)).pvalue
        worst_p = min(worst_p, p_scale, p_rot)
    report(
        "criterion 4 augmentation ranges",
        worst_p > 0.001,
        f"{len(registry)} datasets x 10k draws in range, worst KS p={worst_p:.4f}",
    )


def test_criterion_5_metric_oracle(tiny_topo):
    """evaluate() equals the exhaustive per-detection matching oracle to
    1e-12 on small instances; perfect detections score 1.0 on every group
    subset of the full skeleton."""
    rng = np.random.default_rng(55)
    kappa = {p.part_id: tiny_topo.oks_kappa[p.part_id] for p in tiny_topo.parts}

    def oks_fn(det_parts, gt_parts):
        return oracle_oks(det_parts, gt_parts, oracle_bbox_area(gt_parts), kappa,
                          part_ids=sorted(gt_parts))

    def random_pose(labelled_ids):
        return {int(pid): (float(rng.uniform(0, 200)), float(rng.uniform(0, 200)))
                for pid in labelled_ids}

    max_diff = 0.0
    for _ in range(30):
        n_scenes = int(rng.integers(1, 4))
        gts, dets = [], []
        for _ in range(n_scenes):
            scene_gts = []
            for _ in range(int(rng.integers(0, 4))):
                ids = rng.choice(5, size=int(rng.integers(1, 6)), replace=False)
                scene_gts.append(EvalPose(parts=random_pose(ids)))
            scene_dets = []
            for g in scene_gts:
                if rng.random() < 0.8:  # noisy copy
                    noise = rng.uniform(0, 30)
                    parts = {pid: (x + float(rng.normal(0, noise)), y + float(rng.normal(0, noise)))
                             for pid, (x, y) in g.parts.items()}
                    scene_dets.append(EvalPose(parts=parts, score=float(rng.random())))
            if rng.random() < 0.5:  # spurious detection
                ids = rng.choice(5, size=2, replace=False)
                scene_dets.append(EvalPose(parts=random_pose(ids), score=float(rng.random())))
            gts.append(scene_gts)
            dets.append(scene_dets)

        result = evaluate(dets, gts, tiny_topo)
        n_gt = sum(len(s) for s in gts)
        ap_per_t, ar_per_t = [], []
        for t in OKS_THRESHOLDS:
            flags = []
            for scene_dets, scene_gts in zip(dets, gts):
                det_list = [(d.score, d.parts) for d in scene_dets]
                gt_list = [g.parts for g in scene_gts]
                flags.extend(zip(
                    sorted((d.score for d in scene_dets), reverse=True),
                    oracle_greedy_oks_match(det_list, gt_list, oks_fn, t),
                ))
            flags.sort(key=lambda sf: -sf[0])
            ordered = [f for _, f in flags]
            ap_per_t.append(oracle_ap_101(ordered, n_gt) if n_gt else 0.0)
            ar_per_t.append(sum(ordered) / n_gt if n_gt else 0.0)
        expected_ap = sum(ap_per_t) / len(ap_per_t)
        expected_ar = sum(ar_per_t) / len(ar_per_t)
        max_diff = max(max_diff, abs(result.ap - expected_ap), abs(result.ar - expected_ar))

    full = default_topology()
    people = [
        [EvalPose(parts={p.part_id: (float(rng.uniform(0, 400)), float(rng.uniform(0, 400)))
                         for p in full.parts}) for _ in range(2)]
        for _ in range(2)
    ]
    subsets_perfect = True
    groups = list(PartGroup)
    for bits in range(1, 2 ** len(groups)):
        subset = {g for i, g in enumerate(groups) if bits >> i & 1}
        dets = [[EvalPose(parts=g.parts, score=1.0) for g in scene] for scene in people]
        res = evaluate(dets, people, full, group=subset)
        subsets_perfect &= res.ap == 1.0 and res.ar == 1.0
    report(
        "criterion 5 metric oracle",
        max_diff <= 1e-12 and subsets_perfect,
        f"30 random instances, max |evaluate - oracle| = {max_diff:.1e}, "
        f"all {2 ** len(groups) - 1} group subsets perfect={subsets_perfect}",
    )


def test_criterion_6_anchor_assembly():
    """A wrist candidate shared by body and hand connections merges the two
    clusters into one pose; distinct wrist candidates stay separate."""
    topo = load_topology({
        "manifest_version": 1,
        "background_channel": False,
        "parts": [
            {"id": 0, "name": "neck", "group": "body", "side": "center"},
            {"id": 1, "name": "l_wrist", "group": "body", "side": "left"},
            {"id": 2, "name": "l_palm", "group": "hand", "side": "left"},
            {"id": 3, "name": "l_index", "group": "hand", "side": "left"},
        ],
        "limbs": [
            {"id": 0, "src": 0, "dst": 1},
            {"id": 1, "src": 1, "dst": 2},
            {"id": 2, "src": 2, "dst": 3},
        ],
        "anchors": [{"part": 1, "groups": ["body", "hand"]}],
        "oks_kappa": {"0": 0.079, "1": 0.062, "2": 0.035, "3": 0.035},
        "template_pose": {"0": [0.0, 0.0], "1": [0.3, 0.4], "2": [0.35, 0.5], "3": [0.4, 0.6]},
    })
    params = DecoderParams(min_parts=2)

    def assemble(cands, conns):
        """cands: (part, x, y) per candidate row; conns: accepted (src row,
        dst row) pairs, each scored 0.9 and each along one limb of topo."""
        limb_ends = {(l.src, l.dst) for l in topo.limbs}
        assert all((cands[s][0], cands[d][0]) in limb_ends for s, d in conns)
        part, xs, ys = (np.array(c) for c in zip(*cands))
        src, dst = (np.array(c, dtype=np.int64) for c in zip(*conns))
        return _assemble_forest(part, xs, ys, np.ones(len(cands)), src, dst,
                                np.full(len(conns), 0.9), params, DecodeStats())

    # shared wrist: body limb and hand limbs meet at candidate 1
    shared = assemble(
        [(0, 10, 10), (1, 12, 14), (2, 13, 15), (3, 14, 16)],
        [(0, 1), (1, 2), (2, 3)],
    )
    merged = len(shared) == 1 and set(shared[0].parts) == {0, 1, 2, 3}

    # distinct wrists: body uses candidate 1, hand hangs off candidate 4
    split = assemble(
        [(0, 10, 10), (1, 12, 14), (2, 40, 45), (3, 41, 46), (1, 39, 44)],
        [(0, 1), (4, 2), (2, 3)],
    )
    stayed = (
        len(split) == 2
        and sorted((set(p.parts) for p in split), key=len) == [{0, 1}, {1, 2, 3}]
        and split[0].parts[1][:2] != split[1].parts[1][:2]
    )
    report(
        "criterion 6 anchor assembly",
        merged and stayed,
        f"shared wrist merges={merged}, distinct wrists stay apart={stayed}",
    )


def test_criterion_7_runtime_shape(topo):
    """Reference bench grid: decode median ratio (20 vs 1 people, 60x60
    maps) at most 2.0; modeled multi-network ratio curve affine in n with
    positive slope; under 120 s."""
    t0 = time.monotonic()
    records = run_bench([1, 5, 10, 20], [(480, 480)], topo, repetitions=60, seed=0)
    medians = {r.n_people: r.median_ns for r in records}
    ratio = medians[20] / medians[1]

    curve = [runtime_ratio(n) for n in range(1, 21)]
    diffs = np.diff(curve)
    affine = bool(np.allclose(diffs, diffs[0], rtol=0, atol=1e-9))
    positive_slope = bool(diffs[0] > 0)

    elapsed = time.monotonic() - t0
    report(
        "criterion 7 runtime shape",
        ratio <= 2.0 and affine and positive_slope and elapsed <= 120.0,
        f"decode 20v1 ratio {ratio:.2f} (60x60 maps), modeled curve affine "
        f"slope {diffs[0]:.3f}, {elapsed:.1f}s",
    )


def test_criterion_8_architecture_arithmetic(topo):
    """All six published config strings parse; concatenation channel
    arithmetic holds; receptive field strictly grows with blocks; the toy
    3-layer case gives 7 px."""
    table = [
        ("1s, 10b, 256w", "1s, 10b, 256w"),
        ("2s, 8b, 128-288w", "1s, 8b, 256w"),
        ("2s, 10b, 128-256w", "1s, 10b, 256w"),
        ("3s, 8b, 96-256w", "1s, 8b, 192w"),
        ("4s, 8b, 96-256w", "1s, 8b, 224w"),
        ("5s, 8b, 64-256w", "1s, 5b, 256w"),
    ]
    concat_ok = True
    for paf_text, cm_text in table:
        paf_spec, cm_spec = parse_config(paf_text), parse_config(cm_text)
        assert paf_spec.n_stages == int(paf_text[0]) and cm_spec.n_stages == 1
        graph = build_stage_graph(paf_spec, cm_spec, topo)
        f = graph.backbone_channels
        concat_ok &= graph.paf_stages[0].input_channels == f
        concat_ok &= all(
            s.input_channels == f + graph.paf_output_channels
            for s in graph.paf_stages[1:]
        )
        concat_ok &= all(
            s.input_channels == f + graph.paf_output_channels
            for s in graph.cm_stages
        )
        concat_ok &= all(s.output_channels == 2 * topo.n_limbs for s in graph.paf_stages)
        concat_ok &= all(
            s.output_channels == topo.confidence_channels for s in graph.cm_stages
        )

    rfs = [
        receptive_field(build_stage_graph(f"1s, {b}b, 64w", "1s, 1b, 64w", topo))
        for b in range(1, 9)
    ]
    rf_grows = all(a < b for a, b in zip(rfs, rfs[1:]))

    toy = receptive_field_of_layers([(3, 1), (3, 1), (3, 1)])
    toy_matches = toy == 7 == oracle_receptive_field([(3, 1), (3, 1), (3, 1)])
    report(
        "criterion 8 architecture arithmetic",
        concat_ok and rf_grows and toy_matches,
        f"6 configs parsed, concat invariants={concat_ok}, rf strictly "
        f"increasing over blocks={rf_grows}, toy 3-layer rf={toy}",
    )


def test_criterion_9_format_roundtrips(topo):
    """WBPT write-then-read is bit-identical for 50 random tensors; toy
    COCO ingestion equals the committed hand-converted fixture."""
    rng = np.random.default_rng(99)
    kinds = [KIND_CONFIDENCE, KIND_PAF, KIND_MASK, KIND_COMBINED]
    identical = 0
    for i in range(50):
        kind = kinds[i % 4]
        h, w = int(rng.integers(1, 12)), int(rng.integers(1, 12))
        sections = ()
        if kind == KIND_COMBINED:
            ns, nl, nw = (int(rng.integers(1, 4)) for _ in range(3))
            channels = ns + nl + nw
            payload = rng.standard_normal((channels, h, w)).astype(np.float32)
            payload[ns + nl:] = (payload[ns + nl:] > 0).astype(np.float32)
            sections = ((KIND_CONFIDENCE, ns), (KIND_PAF, nl), (KIND_MASK, nw))
        else:
            channels = int(rng.integers(1, 8))
            payload = rng.standard_normal((channels, h, w)).astype(np.float32)
            if kind == KIND_MASK:
                payload = (payload > 0).astype(np.float32)
        f = WbptFile(kind=kind, stride=int(rng.integers(1, 17)),
                     manifest_hash=topo.manifest_hash, payload=payload,
                     sections=sections)
        first = to_bytes(f)
        identical += to_bytes(from_bytes(first)) == first

    doc = ingest_coco(json.loads((DATA / "toy_coco.json").read_text()), topo)
    expected = json.loads((DATA / "toy_coco_expected_scenes.json").read_text())
    coco_ok = doc["scenes"] == expected["scenes"]
    report(
        "criterion 9 format round-trips",
        identical == 50 and coco_ok,
        f"{identical}/50 tensors bit-identical, COCO fixture match={coco_ok}",
    )
