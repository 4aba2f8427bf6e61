"""Decoder: NMS, connection scoring, matching and assembly, and decode()
against the reference decode in oracles.py."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbpose.decoder import (
    DecoderParams,
    DecodeStats,
    _assemble_forest,
    _match_all_limbs,
    _nms_arrays,
    _support_keep,
    decode,
    decode_with_stats,
)
from wbpose.encoder import AnnotatedScene, EncoderParams, Person, Visibility, encode
from wbpose.skeleton import PartGroup, default_topology, load_topology

from conftest import tiny_manifest
from oracles import (
    oracle_decode,
    oracle_greedy_match,
    oracle_limb_scores,
    oracle_nms,
    oracle_support_keep,
)

L = Visibility.LABELED


def gaussian_channel(h, w, peaks, sigma=1.5):
    ys, xs = np.mgrid[0:h, 0:w].astype(np.float64)
    ch = np.zeros((h, w))
    for px, py, amp in peaks:
        ch = np.maximum(ch, amp * np.exp(-((xs - px) ** 2 + (ys - py) ** 2) / sigma**2))
    return ch


def one_part_topo():
    return load_topology({
        "manifest_version": 1,
        "background_channel": False,
        "parts": [{"id": 0, "name": "nose", "group": "body", "side": "center"}],
        "limbs": [],
        "anchors": [],
        "oks_kappa": {"0": 0.026},
    })


def two_part_topo():
    return load_topology({
        "manifest_version": 1,
        "background_channel": False,
        "parts": [
            {"id": 0, "name": "neck", "group": "body", "side": "center"},
            {"id": 1, "name": "nose", "group": "body", "side": "center"},
        ],
        "limbs": [{"id": 0, "src": 0, "dst": 1}],
        "anchors": [],
        "oks_kappa": {"0": 0.079, "1": 0.026},
    })


def peaks_of(ch, params):
    """(x, y, score) candidates of a single channel, in decoder order."""
    _, xs, ys, scores = _nms_arrays(ch[None], one_part_topo(), params)
    return list(zip(xs.tolist(), ys.tolist(), scores.tolist()))


def test_nms_two_gaussians_against_grid_scan_oracle():
    ch = gaussian_channel(20, 20, [(5.0, 9.0, 1.0), (11.0, 9.0, 0.8)])
    cands = peaks_of(ch, DecoderParams(nms_threshold=0.1))
    expected = oracle_nms(ch, 0.1, 3)
    assert len(cands) == len(expected) == 2
    got = sorted((round(y), round(x)) for x, y, _ in cands)
    want = sorted((i, j) for i, j, _ in expected)
    assert got == want
    for x, y, _ in cands:
        true = (5.0, 9.0) if x < 8 else (11.0, 9.0)
        assert np.hypot(x - true[0], y - true[1]) <= 0.5


def test_nms_subpixel_refinement_recovers_offsets():
    ch = gaussian_channel(20, 20, [(7.3, 9.6, 1.0)], sigma=1.2)
    ((x, y, _),) = peaks_of(ch, DecoderParams(nms_threshold=0.1))
    # Log-space quadratic fit is exact for an isolated Gaussian.
    assert abs(x - 7.3) < 1e-6
    assert abs(y - 9.6) < 1e-6


def test_nms_plateau_is_not_a_strict_maximum():
    ch = np.zeros((9, 9))
    ch[4, 4] = ch[4, 5] = 0.9
    assert peaks_of(ch, DecoderParams(nms_threshold=0.1)) == []


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("nan_at", [(i, j) for i in (3, 4, 5) for j in (3, 4, 5) if (i, j) != (4, 4)])
def test_nms_nan_neighbour_never_hides_a_peak(nan_at, dtype):
    # The peak at (4, 4) is found wherever the NaN sits in its 3x3 ring;
    # the NaN is neither a peak nor a fit point, and the caller's array is
    # left as it was.
    ch = np.zeros((9, 9), dtype=dtype)
    ch[4, 4] = 0.9
    ch[nan_at] = np.nan
    before = ch.copy()
    params = DecoderParams(nms_threshold=0.1)
    (x, y, score), = peaks_of(ch, params)
    assert (x, y, score) == (4.0, 4.0, float(dtype(0.9)))
    assert [(i, j) for i, j, _ in oracle_nms(ch, params.nms_threshold, 3)] == [(4, 4)]
    np.testing.assert_array_equal(ch, before)


def test_nms_candidates_sorted_and_ids_sequential():
    # Candidate id == row index, so the row order is the id order: part-major,
    # then descending score within each part.
    conf = np.stack([
        gaussian_channel(24, 24, [(5.0, 5.0, 0.6), (16.0, 16.0, 1.0), (5.0, 16.0, 0.8)]),
        gaussian_channel(24, 24, [(10.0, 4.0, 0.7), (18.0, 8.0, 0.9)]),
    ])
    pids, _, _, scores = _nms_arrays(conf, two_part_topo(), DecoderParams(nms_threshold=0.1))
    assert pids.tolist() == [0, 0, 0, 1, 1]
    for p in (0, 1):
        part_scores = scores[pids == p].tolist()
        assert part_scores == sorted(part_scores, reverse=True)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 10_000), thr=st.floats(0.05, 0.6))
def test_nms_threshold_monotonicity(seed, thr):
    rng = np.random.default_rng(seed)
    peaks = [(rng.uniform(2, 17), rng.uniform(2, 17), rng.uniform(0.3, 1.0)) for _ in range(4)]
    ch = gaussian_channel(20, 20, peaks)
    low = peaks_of(ch, DecoderParams(nms_threshold=thr))
    high = peaks_of(ch, DecoderParams(nms_threshold=min(thr * 2, 0.95)))
    assert len(high) <= len(low)


def scene_tensors(topo, people, size=(96, 96)):
    sc = AnnotatedScene(image_size=size, people=people, coverage=frozenset(PartGroup))
    return encode(sc, topo, EncoderParams(stride=8))


def part_xy(conf, topo, params, part_id):
    pids, xs, ys, _ = _nms_arrays(conf, topo, params)
    return np.stack([xs[pids == part_id], ys[pids == part_id]], axis=1)


def test_connection_true_pair_scores_high_and_valid():
    topo = two_part_topo()
    t = scene_tensors(topo, [Person({0: (16.0, 40.0, L), 1: (72.0, 40.0, L)})])
    params = DecoderParams()
    src, dst = part_xy(t.s_star, topo, params, 0), part_xy(t.s_star, topo, params, 1)
    assert len(src) == len(dst) == 1
    (score,), (valid,) = oracle_limb_scores(t.l_star, topo.limbs[0], src, dst, params)
    assert valid
    assert score > 0.9


def test_connection_zero_length_invalid():
    topo = two_part_topo()
    t = scene_tensors(topo, [Person({0: (16.0, 40.0, L), 1: (72.0, 40.0, L)})])
    (score,), (valid,) = oracle_limb_scores(
        t.l_star, topo.limbs[0], [(2.0, 5.0)], [(2.0, 5.0)], DecoderParams()
    )
    assert score == 0.0 and not valid


def test_true_pairs_outrank_cross_pairs_two_people():
    topo = two_part_topo()
    t = scene_tensors(
        topo,
        [
            Person({0: (16.0, 24.0, L), 1: (72.0, 24.0, L)}),
            Person({0: (16.0, 72.0, L), 1: (72.0, 72.0, L)}),
        ],
    )
    params = DecoderParams()
    src, dst = part_xy(t.s_star, topo, params, 0), part_xy(t.s_star, topo, params, 1)
    assert len(src) == len(dst) == 2
    scores, valid = oracle_limb_scores(t.l_star, topo.limbs[0], src, dst, params)
    is_true = np.abs(src[:, None, 1] - dst[None, :, 1]).ravel() < 1.0
    assert is_true.sum() == 2
    assert scores[is_true].min() > scores[~is_true].max()
    assert valid[is_true].all()
    assert not valid[~is_true].any()


def match_and_oracle(rows):
    """_match_all_limbs on rows of (limb, score, valid, src, dst) next to
    oracle_greedy_match run on each limb's valid rows separately."""
    limb_ids, scores, valid, src_ids, dst_ids = (np.array(c) for c in zip(*rows))
    acc_src, acc_dst, acc_score = _match_all_limbs(limb_ids, scores, valid, src_ids, dst_ids)
    got = list(zip(acc_src.tolist(), acc_dst.tolist(), acc_score.tolist()))
    per_limb = [
        oracle_greedy_match([(v, s, d) for l, v, ok, s, d in rows if l == limb and ok])
        for limb in sorted(set(limb_ids.tolist()))
    ]
    return got, per_limb


def test_match_limb_equals_sort_and_sweep_oracle():
    # Three limbs of a chain matched in one call: candidates 4..7 are dst of
    # limb 0 and src of limb 1, so the (limb, candidate) keys must keep the
    # per-limb used-sets apart. Scores repeat within and across limbs on
    # purpose, so the (src, dst) tie-breaks decide.
    rng = np.random.default_rng(11)
    chain = [(range(0, 4), range(4, 8)), (range(4, 8), range(8, 12)), (range(8, 12), range(12, 16))]
    for _ in range(25):
        rows = []
        for limb, (srcs, dsts) in enumerate(chain):
            scores = rng.integers(1, 5, 16) / 4.0
            rows += [(limb, float(scores[i * 4 + j]), True, s, d)
                     for i, s in enumerate(srcs) for j, d in enumerate(dsts)]
        got, per_limb = match_and_oracle(rows)
        # per-limb matchings, concatenated in limb order
        assert [(s, d) for s, d, _ in got] == [pair for want in per_limb for pair in want]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 100_000), ns=st.integers(1, 5), nd=st.integers(1, 5),
       n_limbs=st.integers(1, 3), density=st.sampled_from([0.2, 0.5, 1.0]))
def test_match_limb_exclusivity_and_validity(seed, ns, nd, n_limbs, density):
    rng = np.random.default_rng(seed)
    # Limbs share one src pool and one dst pool, so candidate ids collide
    # across limbs and exclusivity must hold per limb only. A sparse grid
    # mixes pairs whose src and dst no other pair of the limb holds, which
    # matching takes without the greedy loop, with pairs that share one.
    rows = [(limb, float(rng.random()), bool(rng.random() < 0.8), i, 50 + j)
            for limb in range(n_limbs) for i in range(ns) for j in range(nd)
            if (i, j) == (0, 0) or rng.random() < density]
    got, per_limb = match_and_oracle(rows)
    assert [(s, d) for s, d, _ in got] == [pair for want in per_limb for pair in want]
    start = 0
    for limb, want in enumerate(per_limb):
        segment = got[start:start + len(want)]
        start += len(want)
        valid_score = {(s, d): v for l, v, ok, s, d in rows if l == limb and ok}
        assert all(valid_score.get((s, d)) == v for s, d, v in segment)
        srcs = [s for s, _, _ in segment]
        dsts = [d for _, d, _ in segment]
        assert len(set(srcs)) == len(srcs) and len(set(dsts)) == len(dsts)
        assert len(segment) <= min(ns, nd)


def wrist_fixture(topo):
    """Candidate arrays for an elbow -> wrist -> thumb chain around anchor
    l_wrist, plus the row indices of the two limbs' endpoints."""
    elbow = topo.part_by_name("l_elbow").part_id
    wrist = topo.part_by_name("l_wrist").part_id
    thumb = topo.part_by_name("hand_l_thumb_1").part_id
    assert any(l.src == elbow and l.dst == wrist for l in topo.limbs)
    assert any(l.src == wrist and l.dst == thumb for l in topo.limbs)
    # rows: 0 elbow, 1 wrist, 2 thumb, 3 a second wrist candidate
    part = np.array([elbow, wrist, thumb, wrist])
    xy = np.array([1.0, 2.0, 3.0, 9.0])
    score = np.array([0.9, 0.9, 0.9, 0.8])
    return part, xy, xy.copy(), score


def assemble_rows(cands, accepted, params):
    """accepted: (src row, dst row, connection score) triples."""
    src, dst, conn = (np.array(c) for c in zip(*accepted))
    return _assemble_forest(*cands, src, dst, conn, params, DecodeStats())


def test_assembly_merges_groups_through_shared_anchor_candidate(topo):
    cands = wrist_fixture(topo)
    # body limb elbow -> wrist and hand limb wrist -> thumb meet at row 1
    poses = assemble_rows(cands, [(0, 1, 0.9), (1, 2, 0.8)], DecoderParams(min_parts=2, min_score=0.0))
    merged = [p for p in poses if len(p.parts) == 3]
    assert len(merged) == 1
    assert set(merged[0].candidate_ids.values()) == {0, 1, 2}


def test_assembly_keeps_distinct_wrist_candidates_apart(topo):
    cands = wrist_fixture(topo)
    # the hand hangs off the second wrist candidate
    poses = assemble_rows(cands, [(0, 1, 0.9), (3, 2, 0.8)], DecoderParams(min_parts=2, min_score=0.0))
    assert len(poses) == 2
    sets = sorted((set(p.candidate_ids.values()) for p in poses), key=min)
    assert sets == [{0, 1}, {2, 3}]


def test_decode_single_person_recovers_all_parts(topo):
    template = topo.template_pose
    people = [
        Person({pid: (240.0 + 260.0 * x, 40.0 + 260.0 * y, L) for pid, (x, y) in template.items()})
    ]
    sc = AnnotatedScene(image_size=(480, 480), people=people, coverage=frozenset(PartGroup))
    t = encode(sc, topo, EncoderParams(stride=8))
    poses = decode(t, topo, DecoderParams())
    assert len(poses) == 1
    assert set(poses[0].parts) == set(range(topo.n_parts))
    for pid, (x, y, _) in poses[0].parts.items():
        tx, ty = people[0].parts[pid][0] / 8.0, people[0].parts[pid][1] / 8.0
        assert np.hypot(x - tx, y - ty) <= 0.5


def test_decode_deterministic(topo):
    template = topo.template_pose
    people = [
        Person({pid: (120.3 + 199.7 * x, 30.6 + 199.7 * y, L) for pid, (x, y) in template.items()}),
        Person({pid: (330.1 + 199.7 * x, 240.4 + 199.7 * y, L) for pid, (x, y) in template.items()}),
    ]
    sc = AnnotatedScene(image_size=(480, 480), people=people, coverage=frozenset(PartGroup))
    t = encode(sc, topo, EncoderParams(stride=8))
    a = decode(t, topo, DecoderParams())
    b = decode(t, topo, DecoderParams())
    assert len(a) == len(b) == 2
    assert a == b
    # No state leaks between calls: a different scene in between leaves the
    # next decode of the first scene bit-identical.
    other = AnnotatedScene(image_size=(480, 480), people=people[:1], coverage=frozenset(PartGroup))
    assert len(decode(encode(other, topo, EncoderParams(stride=8)), topo, DecoderParams())) == 1
    assert decode(t, topo, DecoderParams()) == a


def test_min_parts_and_min_score_filter():
    topo = two_part_topo()
    t = scene_tensors(topo, [Person({0: (16.0, 40.0, L), 1: (72.0, 40.0, L)})])
    # Default min_parts=4 drops the 2-part pose entirely.
    assert decode(t, topo, DecoderParams()) == []
    kept = decode(t, topo, DecoderParams(min_parts=2, min_score=0.5))
    assert len(kept) == 1 and set(kept[0].parts) == {0, 1}
    dropped = decode(t, topo, DecoderParams(min_parts=2, min_score=1e9))
    assert dropped == []
    # No candidates at all, with a filter that every component passes.
    empty = (np.zeros_like(t.s_star), np.zeros_like(t.l_star))
    assert decode(empty, topo, DecoderParams(min_parts=0)) == []


@pytest.mark.parametrize("params, by_parts, by_score, n_poses", [
    (DecoderParams(), 1, 0, 0),  # the pair is below min_parts=4
    (DecoderParams(min_parts=2, min_score=1e9), 0, 1, 0),
    (DecoderParams(min_parts=1, min_score=1e9), 0, 2, 0),  # the lone candidate too
    (DecoderParams(min_parts=2, min_score=0.5), 0, 0, 1),
], ids=["min_parts", "min_score", "lone_min_score", "kept"])
def test_dropped_poses_are_counted(params, by_parts, by_score, n_poses):
    # One connected pair and one lone part-0 candidate. A lone candidate
    # has no accepted connection, so min_parts does not count it as a pose.
    topo = two_part_topo()
    t = scene_tensors(topo, [Person({0: (16.0, 40.0, L), 1: (72.0, 40.0, L)}),
                             Person({0: (16.0, 80.0, L)})])
    poses, stats = decode_with_stats(t, topo, params)
    assert (stats.candidates, stats.connections_accepted) == (3, 1)
    assert (stats.poses_dropped_min_parts, stats.poses_dropped_min_score) == (by_parts, by_score)
    assert len(poses) == n_poses


DIFF_TOPOLOGIES = {"tiny": load_topology(tiny_manifest()), "default": default_topology()}


def noisy_maps(topo, rng, map_w, map_h, n_people, sigma):
    """Encoder targets for template people at random scales and offsets
    (overlaps allowed), plus Gaussian noise of the given sigma on every
    confidence and PAF channel."""
    template = np.array([topo.template_pose[p] for p in range(topo.n_parts)])
    template = (template - template.min(0)) / np.ptp(template, axis=0).max()
    w, h = 8 * map_w, 8 * map_h
    people = []
    for _ in range(n_people):
        scale = rng.uniform(0.4, 0.9) * min(w, h)
        offset = rng.uniform(0, 1, 2) * (np.array([w, h]) - scale * template.max(0))
        xy = offset + scale * template + rng.normal(0.0, 1.5, template.shape)
        people.append(Person({p: (float(x), float(y), L) for p, (x, y) in enumerate(xy)}))
    t = scene_tensors(topo, people, size=(w, h))
    return (t.s_star + rng.normal(0.0, sigma, t.s_star.shape),
            t.l_star + rng.normal(0.0, sigma, t.l_star.shape))


@pytest.mark.parametrize("sigma", [0.0, 0.005, 0.01, 0.02, 0.05])
@pytest.mark.parametrize("topo_name", sorted(DIFF_TOPOLOGIES))
@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    map_w=st.integers(20, 30),
    map_h=st.integers(20, 30),
    n_people=st.integers(1, 4),
    sample_threshold=st.sampled_from([-0.01, 0.0, 0.05, 0.2]),
    n_samples=st.sampled_from([3, 5, 10]),
    valid_fraction=st.sampled_from([0.5, 0.8, 1.0]),
    min_parts=st.integers(1, 5),
    dtype=st.sampled_from([np.float32, np.float64]),
)
def test_decode_equals_oracle_on_noisy_maps(topo_name, seed, map_w, map_h, n_people, sigma,
                                            sample_threshold, n_samples, valid_fraction,
                                            min_parts, dtype):
    # A negative sample_threshold turns the support prefilter off, so both
    # sides of that switch are compared against the unfiltered oracle.
    # NaN on about 1% of confidence cells, next to peaks and in them.
    topo = DIFF_TOPOLOGIES[topo_name]
    rng = np.random.default_rng(seed)
    conf, paf = noisy_maps(topo, rng, map_w, map_h, n_people, sigma)
    conf[rng.random(conf.shape) < 0.01] = np.nan
    conf, paf = conf.astype(dtype), paf.astype(dtype)
    params = DecoderParams(sample_threshold=sample_threshold, n_samples=n_samples,
                           valid_fraction=valid_fraction, min_parts=min_parts)

    pids, xs, ys, scores = _nms_arrays(conf, topo, params)
    for p in range(topo.n_parts):
        want = oracle_nms(conf[p], params.nms_threshold, 3)
        want.sort(key=lambda c: (-c[2], c[0], c[1]))
        assert scores[pids == p].tolist() == [v for _, _, v in want]
        assert np.all(np.abs(xs[pids == p] - [j for _, j, _ in want]) <= 0.5)
        assert np.all(np.abs(ys[pids == p] - [i for i, _, _ in want]) <= 0.5)

    assert decode((conf, paf), topo, params) == oracle_decode(conf, paf, topo, params)


def horizontal_limb_maps(paf_x):
    """Two-part maps with one candidate at (5, 10) and one at (15, 10), and
    a uniform PAF (paf_x, 0) along the limb between them."""
    conf = np.stack([gaussian_channel(20, 20, [(5.0, 10.0, 1.0)]),
                     gaussian_channel(20, 20, [(15.0, 10.0, 1.0)])])
    paf = np.zeros((2, 20, 20))
    paf[0] = paf_x
    return conf, paf


@pytest.mark.parametrize("scale, kept, valid", [(0.99, 0, 0), (1.0, 1, 0), (1.01, 1, 1)])
def test_prefilter_boundary_at_threshold_length(scale, kept, valid):
    # The threshold is a power of two and the endpoints share a row, so
    # every bilinear sample of the scale-1 field reads exactly the
    # threshold, which does not clear it; that field is still support for
    # the prefilter, which only drops fields strictly shorter than the
    # threshold.
    topo = two_part_topo()
    params = DecoderParams(sample_threshold=0.25, min_parts=2, min_score=0.0)
    conf, paf = horizontal_limb_maps(scale * params.sample_threshold)
    poses, stats = decode_with_stats((conf, paf), topo, params)
    assert (stats.connections_scored, stats.connections_kept) == (1, kept)
    assert stats.connections_valid == stats.connections_accepted == valid
    assert len(poses) == valid
    assert poses == oracle_decode(conf, paf, topo, params)


def test_prefilter_keeps_cells_whose_square_underflows():
    # 1e-165 squared underflows to 0.0, yet every sample of this field
    # clears a threshold of 1e-170.
    topo = two_part_topo()
    params = DecoderParams(sample_threshold=1e-170, min_parts=2, min_score=0.0)
    conf, paf = horizontal_limb_maps(1e-165)
    poses, stats = decode_with_stats((conf, paf), topo, params)
    assert stats.connections_valid == 1
    assert poses == oracle_decode(conf, paf, topo, params)


@pytest.mark.parametrize("topo_name", sorted(DIFF_TOPOLOGIES))
@settings(max_examples=6, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    dtype=st.sampled_from([np.float32, np.float64]),
    sample_threshold=st.sampled_from([-0.01, 0.0, 0.05, 0.2]),
    n_samples=st.sampled_from([3, 5, 10]),
)
def test_decode_equals_oracle_with_nonfinite_paf_cells(topo_name, seed, dtype,
                                                       sample_threshold, n_samples):
    # NaN, +inf and -inf each on 0.5% of PAF cells. With valid_fraction=1
    # every sample of a valid pair clears the threshold, so no accepted
    # score is NaN and the poses compare with ==.
    topo = DIFF_TOPOLOGIES[topo_name]
    rng = np.random.default_rng(seed)
    conf, paf = noisy_maps(topo, rng, 24, 24, 3, 0.01)
    bad = rng.random(paf.shape)
    paf[bad < 0.005] = np.nan
    paf[(bad >= 0.005) & (bad < 0.01)] = np.inf
    paf[(bad >= 0.01) & (bad < 0.015)] = -np.inf
    conf, paf = conf.astype(dtype), paf.astype(dtype)
    params = DecoderParams(sample_threshold=sample_threshold, n_samples=n_samples,
                           valid_fraction=1.0, min_parts=2)
    with np.errstate(invalid="ignore"):
        assert decode((conf, paf), topo, params) == oracle_decode(conf, paf, topo, params)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_prefilter_prunes_noisy_maps(seed):
    # Noise of sigma 0.02 makes nearly every PAF cell nonzero, but few cells
    # are longer than the default sample_threshold of 0.05.
    topo = DIFF_TOPOLOGIES["default"]
    conf, paf = noisy_maps(topo, np.random.default_rng(seed), 30, 30, 3, 0.02)
    _, stats = decode_with_stats((conf, paf), topo)
    assert stats.connections_valid > 0
    assert stats.connections_kept <= 0.3 * stats.connections_scored


def limb_pairs(topo, conf, params, rng, cap):
    """(ch, sx, sy, dx, dy) of every candidate pair of every limb, at most
    cap of them drawn at random, plus one zero-length pair per limb."""
    part, xs, ys, _ = _nms_arrays(conf, topo, params)
    rows = []
    for limb in topo.limbs:
        src, dst = np.flatnonzero(part == limb.src), np.flatnonzero(part == limb.dst)
        rows += [(limb.limb_id, xs[a], ys[a], xs[b], ys[b]) for a in src for b in dst]
        rows.append((limb.limb_id, 3.5, 2.25, 3.5, 2.25))
    if len(rows) > cap:
        rows = [rows[i] for i in np.sort(rng.choice(len(rows), cap, replace=False))]
    ch, sx, sy, dx, dy = (np.array(c) for c in zip(*rows))
    return ch.astype(np.int64), sx, sy, dx, dy


@pytest.mark.parametrize("topo_name", sorted(DIFF_TOPOLOGIES))
@settings(max_examples=12, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    sigma=st.sampled_from([0.01, 0.02, 0.05]),
    dtype=st.sampled_from([np.float32, np.float64]),
    sample_threshold=st.sampled_from([0.0, 0.05, 0.2]),
    n_samples=st.sampled_from([3, 5, 10]),
    valid_fraction=st.sampled_from([1e-12, 0.5, 0.8, 1.0]),
)
def test_support_keep_equals_oracle_on_noisy_maps(topo_name, seed, sigma, dtype,
                                                  sample_threshold, n_samples, valid_fraction):
    # The kept set is exactly the pairs with enough supported positions: no
    # pair that could be valid is dropped (exact), and no pair short of
    # support is kept (tight). NaN and inf on 1% of cells.
    topo = DIFF_TOPOLOGIES[topo_name]
    rng = np.random.default_rng(seed)
    conf, paf = noisy_maps(topo, rng, 24, 24, 3, sigma)
    paf[rng.random(paf.shape) < 0.005] = np.nan
    paf[rng.random(paf.shape) < 0.005] = np.inf
    paf = paf.astype(dtype)
    params = DecoderParams(sample_threshold=sample_threshold, n_samples=n_samples,
                           valid_fraction=valid_fraction)
    pairs = limb_pairs(topo, conf, params, rng, cap=3000)
    assert _support_keep(paf, *pairs, params).tolist() == oracle_support_keep(paf, *pairs, params)


@pytest.mark.parametrize("missed, kept", [
    ((4, 5), True), ((0, 9), True), ((1, 6), True),
    ((4, 5, 3), False), ((0, 8, 9), False), ((2, 4, 7), False),
])
def test_support_keep_boundary_at_miss_budget(missed, kept):
    # n_samples 10, valid_fraction 0.8: a valid pair needs 8 supported
    # positions, so it can miss 2. Sample k of the pair from (0.25, 1.25)
    # to (18.25, 1.25) floors to cell (2k, 1), so its corner block is
    # columns 2k and 2k + 1 of rows 1 and 2, which no other sample reads.
    params = DecoderParams(n_samples=10, valid_fraction=0.8, sample_threshold=0.25)
    assert params.n_samples - params.min_valid_samples == 2
    paf = np.zeros((2, 4, 20))
    paf[0] = 0.3
    for k in missed:
        paf[0, :, 2 * k : 2 * k + 2] = 0.2
    pair = (np.array([0]), np.array([0.25]), np.array([1.25]), np.array([18.25]), np.array([1.25]))
    assert _support_keep(paf, *pair, params).tolist() == ([0] if kept else [])
    assert oracle_support_keep(paf, *pair, params) == ([0] if kept else [])
