"""Decoder: NMS, connection scoring, matching and assembly, and
decode_with_stats against the reference decode in oracles.py."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.sparse import coo_matrix
from scipy.sparse.csgraph import connected_components

from wbpose.decoder import (
    DecoderParams,
    DecodeStats,
    _assemble_forest,
    _corner_support,
    _forest_labels,
    _match_all_limbs,
    _nms_arrays,
    _support_keep,
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


TINY_CELLS = [0.0, 0.04, 0.05, 0.5, 0.9, 1.0, -1.0, np.nan, np.inf, -np.inf]


@st.composite
def tiny_maps(draw):
    """1x1, 1xN, Nx1 and 2x2 maps whose cells repeat a few values, so
    peaks, plateaus, ties and NaN/+-inf cells all land on the border."""
    n = draw(st.integers(2, 6))
    h, w = draw(st.sampled_from([(1, 1), (1, n), (n, 1), (2, 2)]))
    cells = draw(st.lists(st.sampled_from(TINY_CELLS) | st.floats(0.0, 1.0),
                          min_size=h * w, max_size=h * w))
    return np.array(cells).reshape(h, w)


def parts_only_topo(n_parts):
    return load_topology({
        "manifest_version": 1,
        "background_channel": False,
        "parts": [{"id": p, "name": f"p{p}", "group": "body", "side": "center"}
                  for p in range(n_parts)],
        "limbs": [],
        "anchors": [],
        "oks_kappa": {str(p): 0.05 for p in range(n_parts)},
    })


def assert_nms_equals_grid_scan_oracle(stack, thr):
    """Each channel of stack decodes as the grid-scan oracle finds it
    alone, and a peak on the map border takes no offset across it."""
    c, h, w = stack.shape
    pids, xs, ys, scores = _nms_arrays(stack, parts_only_topo(c), DecoderParams(nms_threshold=thr))
    assert np.all(np.diff(pids) >= 0)
    for p in range(c):
        want = sorted(oracle_nms(stack[p], thr, 3), key=lambda k: (-k[2], k[0], k[1]))
        mine = pids == p
        assert scores[mine].tolist() == [float(v) for _, _, v in want]
        for x, y, (i, j, _) in zip(xs[mine].tolist(), ys[mine].tolist(), want):
            assert abs(x - j) <= 0.5 and abs(y - i) <= 0.5
            if j in (0, w - 1):
                assert x == j
            if i in (0, h - 1):
                assert y == i


@settings(max_examples=300, deadline=None)
@given(ch=tiny_maps(), dtype=st.sampled_from([np.float32, np.float64]),
       thr=st.sampled_from([0.05, 0.0]))
def test_nms_tiny_maps_equal_grid_scan_oracle(ch, dtype, thr):
    # Every cell of these maps is on the border, so every peak has a -inf
    # padding neighbour across it on at least one axis and no offset there.
    assert_nms_equals_grid_scan_oracle(ch.astype(dtype)[None], thr)


SEAM_CELLS = [1.0, 0.9, 0.5, 0.05, np.nan, np.inf, -np.inf]


@st.composite
def seam_stacks(draw):
    """2-4 channel stacks whose last column and last row hold peaks,
    plateaus and NaN/+-inf cells. On the raveled, padded stack those cells
    sit one padding cell away from the next row's first cell and the next
    channel's first row."""
    c, h, w = draw(st.integers(2, 4)), draw(st.integers(1, 5)), draw(st.integers(1, 5))
    cells = np.array(draw(st.lists(st.sampled_from(TINY_CELLS) | st.floats(0.0, 1.0),
                                   min_size=c * h * w, max_size=c * h * w))).reshape(c, h, w)
    seam = np.zeros((h, w), dtype=bool)
    seam[:, -1] = seam[-1, :] = True
    n_seam = c * int(seam.sum())
    cells[:, seam] = np.array(draw(st.lists(st.sampled_from(SEAM_CELLS), min_size=n_seam,
                                            max_size=n_seam))).reshape(c, -1)
    return cells


@settings(max_examples=300, deadline=None)
@given(stack=seam_stacks(), dtype=st.sampled_from([np.float32, np.float64]),
       thr=st.sampled_from([0.05, 0.0]))
def test_nms_channel_seams_equal_grid_scan_oracle(stack, dtype, thr):
    # No peak, plateau or non-finite cell leaks across a row end or a
    # channel end of the raveled stack.
    assert_nms_equals_grid_scan_oracle(stack.astype(dtype), thr)


def scene_maps(topo, people, size=(96, 96)):
    """(conf, paf) encoder targets of one scene at stride 8."""
    sc = AnnotatedScene(image_size=size, people=people, coverage=frozenset(PartGroup))
    t = encode(sc, topo, EncoderParams(stride=8))
    return t.s_star, t.l_star


def part_xy(conf, topo, params, part_id):
    pids, xs, ys, _ = _nms_arrays(conf, topo, params)
    return np.stack([xs[pids == part_id], ys[pids == part_id]], axis=1)


def test_connection_true_pair_scores_high_and_valid():
    topo = two_part_topo()
    conf, paf = scene_maps(topo, [Person({0: (16.0, 40.0, L), 1: (72.0, 40.0, L)})])
    params = DecoderParams()
    src, dst = part_xy(conf, topo, params, 0), part_xy(conf, topo, params, 1)
    assert len(src) == len(dst) == 1
    (score,), (valid,) = oracle_limb_scores(paf, topo.limbs[0], src, dst, params)
    assert valid
    assert score > 0.9


def test_connection_zero_length_invalid():
    topo = two_part_topo()
    conf, paf = scene_maps(topo, [Person({0: (16.0, 40.0, L), 1: (72.0, 40.0, L)})])
    (score,), (valid,) = oracle_limb_scores(
        paf, topo.limbs[0], [(2.0, 5.0)], [(2.0, 5.0)], DecoderParams()
    )
    assert score == 0.0 and not valid


def test_true_pairs_outrank_cross_pairs_two_people():
    topo = two_part_topo()
    conf, paf = scene_maps(
        topo,
        [
            Person({0: (16.0, 24.0, L), 1: (72.0, 24.0, L)}),
            Person({0: (16.0, 72.0, L), 1: (72.0, 72.0, L)}),
        ],
    )
    params = DecoderParams()
    src, dst = part_xy(conf, topo, params, 0), part_xy(conf, topo, params, 1)
    assert len(src) == len(dst) == 2
    scores, valid = oracle_limb_scores(paf, topo.limbs[0], src, dst, params)
    is_true = np.abs(src[:, None, 1] - dst[None, :, 1]).ravel() < 1.0
    assert is_true.sum() == 2
    assert scores[is_true].min() > scores[~is_true].max()
    assert valid[is_true].all()
    assert not valid[~is_true].any()


def match_and_oracle(rows):
    """_match_all_limbs on the valid rows of (limb, score, valid, src, dst)
    next to oracle_greedy_match run on each limb's valid rows separately.
    The matching keys number the (limb, src) and (limb, dst) pairs densely,
    as the decoder's enumeration groups do."""
    ok = [r for r in rows if r[2]]
    limb_ids, src_ids, dst_ids = (np.array([r[k] for r in ok], dtype=np.int64) for k in (0, 3, 4))
    scores = np.array([r[1] for r in ok], dtype=np.float64)
    src_keys, dst_keys = (
        np.unique(np.stack([limb_ids, ids]), axis=1, return_inverse=True)[1].reshape(-1)
        for ids in (src_ids, dst_ids)
    )
    won = _match_all_limbs(limb_ids, scores, src_keys, dst_keys)
    got = list(zip(src_ids[won].tolist(), dst_ids[won].tolist(), scores[won].tolist()))
    per_limb = [
        oracle_greedy_match([(v, s, d) for l, v, _, s, d in ok if l == limb])
        for limb in sorted({r[0] for r in rows})
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
    # rows: 0 elbow, 1 wrist, 2 thumb, 3 a second wrist candidate; no two
    # rows share a coordinate, so a pose's coordinates name its rows
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
    assert sorted(x for x, _, _ in merged[0].parts.values()) == [1.0, 2.0, 3.0]


def test_assembly_keeps_distinct_wrist_candidates_apart(topo):
    cands = wrist_fixture(topo)
    # the hand hangs off the second wrist candidate
    poses = assemble_rows(cands, [(0, 1, 0.9), (3, 2, 0.8)], DecoderParams(min_parts=2, min_score=0.0))
    assert len(poses) == 2
    sets = sorted((set(x for x, _, _ in p.parts.values()) for p in poses), key=min)
    assert sets == [{1.0, 2.0}, {3.0, 9.0}]


def test_pose_order_breaks_score_ties_on_lowest_candidate_row():
    # Rows 0 and 1 are part 0, rows 2 and 3 part 1, each at x = 10 * row.
    # With equal connection scores both components score 0.5 + 0.5 + 0.25
    # exactly, and {0, 3} comes first for its lowest row, although its
    # other row is the highest and its connection is listed last. A
    # higher score still comes first.
    cands = (np.array([0, 0, 1, 1]), 10.0 * np.arange(4), np.zeros(4), np.full(4, 0.5))
    params = DecoderParams(min_parts=2, min_score=0.0)

    def order(conn_scores):
        poses = assemble_rows(cands, [(1, 2, conn_scores[0]), (0, 3, conn_scores[1])], params)
        return [(sorted(x for x, _, _ in p.parts.values()), p.person_score) for p in poses]

    assert order([0.25, 0.25]) == [([0.0, 30.0], 1.25), ([10.0, 20.0], 1.25)]
    assert order([0.5, 0.25]) == [([10.0, 20.0], 1.5), ([0.0, 30.0], 1.25)]


@st.composite
def forests(draw):
    """(n, src, dst): forest edges over n nodes, in shuffled order and each
    in a random direction. Shapes: random forests (isolated nodes
    included), no edges, stars, and chains longer than the default
    topology's limb forest is wide (diameter 26)."""
    n = draw(st.integers(1, 80))
    order = draw(st.permutations(range(n)))
    shape = draw(st.sampled_from(["random", "empty", "star", "chain"]))
    if shape == "random":
        parents = [draw(st.none() | st.integers(0, j - 1)) for j in range(1, n)]
        pairs = [(order[p], order[j]) for j, p in enumerate(parents, 1) if p is not None]
    elif shape == "star":
        pairs = [(order[0], v) for v in order[1:]]
    elif shape == "chain":
        pairs = list(zip(order, order[1:]))
    else:
        pairs = []
    flips = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    pairs = draw(st.permutations([(b, a) if f else (a, b) for (a, b), f in zip(pairs, flips)]))
    src = np.array([a for a, _ in pairs], dtype=np.int64)
    dst = np.array([b for _, b in pairs], dtype=np.int64)
    return n, src, dst


@settings(max_examples=300, deadline=None)
@given(forest=forests())
@example(forest=(5, np.array([0, 1, 3]), np.array([2, 2, 1])))  # node 2 has two parent edges
def test_forest_labels_equal_scipy_components(forest):
    n, src, dst = forest
    labels = _forest_labels(n, src, dst)
    graph = coo_matrix((np.ones(src.size, dtype=np.int8), (src, dst)), shape=(n, n))
    n_comp, ref = connected_components(graph, directed=False)
    # Same partition: the label pairs match one to one.
    assert len(set(zip(labels.tolist(), ref.tolist()))) == n_comp == np.unique(labels).size
    # Each component is labelled by its lowest node.
    lowest = np.full(n_comp, n)
    np.minimum.at(lowest, ref, np.arange(n))
    np.testing.assert_array_equal(labels, lowest[ref])


def frame_maps(topo):
    """(conf, paf) of a 2-person 480x480 frame: 60x60 maps."""
    template = topo.template_pose
    people = [
        Person({pid: (x0 + 199.7 * x, y0 + 199.7 * y, L) for pid, (x, y) in template.items()})
        for x0, y0 in ((120.3, 30.6), (330.1, 240.4))
    ]
    sc = AnnotatedScene(image_size=(480, 480), people=people, coverage=frozenset(PartGroup))
    t = encode(sc, topo, EncoderParams(stride=8))
    return t.s_star, t.l_star


@pytest.mark.parametrize("case", ["paf_30x30", "paf_90x90", "conf_4d", "paf_2d"])
def test_decode_rejects_maps_of_other_shapes(topo, case):
    conf, paf = frame_maps(topo)
    assert conf.shape[1:] == paf.shape[1:] == (60, 60)
    assert len(decode_with_stats((conf, paf), topo)[0]) == 2
    if case == "paf_30x30":
        paf = paf[:, ::2, ::2]
    elif case == "paf_90x90":
        paf = np.zeros((paf.shape[0], 90, 90), dtype=paf.dtype)
    elif case == "conf_4d":
        conf = conf[None]
    else:
        paf = paf[:, 0]
    with pytest.raises(ValueError, match="same H and W"):
        decode_with_stats((conf, paf), topo)


@pytest.mark.parametrize("field, value", [
    ("nms_threshold", np.nan), ("nms_threshold", np.inf), ("min_score", np.nan),
    ("min_score", -np.inf), ("sample_threshold", -0.01), ("sample_threshold", np.nan),
    ("sample_threshold", np.inf),
])
def test_params_reject_unusable_thresholds(field, value):
    # A NaN threshold fails every comparison, so it would silently find no
    # peak, keep no pose or pass no sample; a negative sample threshold
    # would let a failed sample pass.
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        DecoderParams(**{field: value})


def test_decode_single_person_recovers_all_parts(topo):
    template = topo.template_pose
    people = [
        Person({pid: (240.0 + 260.0 * x, 40.0 + 260.0 * y, L) for pid, (x, y) in template.items()})
    ]
    sc = AnnotatedScene(image_size=(480, 480), people=people, coverage=frozenset(PartGroup))
    t = encode(sc, topo, EncoderParams(stride=8))
    poses, _ = decode_with_stats((t.s_star, t.l_star), topo)
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
    a, _ = decode_with_stats((t.s_star, t.l_star), topo)
    b, _ = decode_with_stats((t.s_star, t.l_star), topo)
    assert len(a) == len(b) == 2
    assert a == b
    # No state leaks between calls: a different scene in between leaves the
    # next decode of the first scene bit-identical.
    other = AnnotatedScene(image_size=(480, 480), people=people[:1], coverage=frozenset(PartGroup))
    o = encode(other, topo, EncoderParams(stride=8))
    assert len(decode_with_stats((o.s_star, o.l_star), topo)[0]) == 1
    assert decode_with_stats((t.s_star, t.l_star), topo)[0] == a


def test_min_parts_and_min_score_filter():
    topo = two_part_topo()
    conf, paf = scene_maps(topo, [Person({0: (16.0, 40.0, L), 1: (72.0, 40.0, L)})])
    # Default min_parts=4 drops the 2-part pose entirely.
    assert decode_with_stats((conf, paf), topo)[0] == []
    kept, _ = decode_with_stats((conf, paf), topo, DecoderParams(min_parts=2, min_score=0.5))
    assert len(kept) == 1 and set(kept[0].parts) == {0, 1}
    dropped, _ = decode_with_stats((conf, paf), topo, DecoderParams(min_parts=2, min_score=1e9))
    assert dropped == []
    # No candidates at all, with a filter that every component passes.
    empty = (np.zeros_like(conf), np.zeros_like(paf))
    assert decode_with_stats(empty, topo, DecoderParams(min_parts=0))[0] == []


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
    conf, paf = scene_maps(topo, [Person({0: (16.0, 40.0, L), 1: (72.0, 40.0, L)}),
                             Person({0: (16.0, 80.0, L)})])
    poses, stats = decode_with_stats((conf, paf), topo, params)
    assert (stats.candidates, stats.connections_accepted) == (3, 1)
    assert (stats.poses_dropped_min_parts, stats.poses_dropped_min_score) == (by_parts, by_score)
    assert len(poses) == n_poses


def two_parent_manifest():
    """A 6-part body tree in which the neck is the dst of two limbs (from
    each shoulder) and the src of two (to the nose and to the hip). No part
    of the tiny or default topology is the dst of two limbs, so only this
    one tells matching's (limb, dst) keys from keys on the dst alone."""
    names = ["nose", "neck", "l_shoulder", "r_shoulder", "hip", "knee"]
    return {
        "manifest_version": 1,
        "background_channel": False,
        "parts": [{"id": i, "name": n, "group": "body", "side": "center"}
                  for i, n in enumerate(names)],
        "limbs": [
            {"id": 0, "src": 2, "dst": 1},
            {"id": 1, "src": 3, "dst": 1},
            {"id": 2, "src": 1, "dst": 0},
            {"id": 3, "src": 1, "dst": 4},
            {"id": 4, "src": 4, "dst": 5},
        ],
        "anchors": [],
        "oks_kappa": {str(i): 0.079 for i in range(len(names))},
        "template_pose": {"0": [0.0, 0.0], "1": [0.0, 0.3], "2": [-0.2, 0.35],
                          "3": [0.2, 0.35], "4": [0.0, 0.7], "5": [0.05, 1.0]},
    }


DIFF_TOPOLOGIES = {
    "tiny": load_topology(tiny_manifest()),
    "default": default_topology(),
    "two_parent": load_topology(two_parent_manifest()),
}


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
    conf, paf = scene_maps(topo, people, size=(w, h))
    return conf + rng.normal(0.0, sigma, conf.shape), paf + rng.normal(0.0, sigma, paf.shape)


@pytest.mark.parametrize("sigma", [0.0, 0.005, 0.01, 0.02, 0.05])
@pytest.mark.parametrize("topo_name", sorted(DIFF_TOPOLOGIES))
@settings(max_examples=4, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    map_w=st.integers(20, 30),
    map_h=st.integers(20, 30),
    n_people=st.integers(1, 4),
    sample_threshold=st.sampled_from([0.0, 0.05, 0.2]),
    n_samples=st.sampled_from([3, 5, 10]),
    valid_fraction=st.sampled_from([0.5, 0.8, 1.0]),
    min_parts=st.integers(1, 5),
    dtype=st.sampled_from([np.float32, np.float64]),
)
def test_decode_equals_oracle_on_noisy_maps(topo_name, seed, map_w, map_h, n_people, sigma,
                                            sample_threshold, n_samples, valid_fraction,
                                            min_parts, dtype):
    # The support prefilter always runs, and the oracle has none, so this
    # also checks that the prefilter drops no pair that could be valid.
    # NaN and +inf each on about 1% of confidence cells, next to peaks and
    # in them.
    topo = DIFF_TOPOLOGIES[topo_name]
    rng = np.random.default_rng(seed)
    conf, paf = noisy_maps(topo, rng, map_w, map_h, n_people, sigma)
    bad = rng.random(conf.shape)
    conf[bad < 0.01] = np.nan
    conf[(bad >= 0.01) & (bad < 0.02)] = np.inf
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

    assert decode_with_stats((conf, paf), topo, params)[0] == oracle_decode(conf, paf, topo, params)


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
    sample_threshold=st.sampled_from([0.0, 0.05, 0.2]),
    n_samples=st.sampled_from([3, 5, 10]),
    valid_fraction=st.sampled_from([0.5, 0.8, 1.0]),
)
def test_decode_equals_oracle_with_nonfinite_paf_cells(topo_name, seed, dtype, sample_threshold,
                                                       n_samples, valid_fraction):
    # NaN, +inf and -inf each on 0.5% of PAF cells. A non-finite sample
    # fails and adds 0 to its pair's mean, so every score is finite and
    # the poses compare with ==; the decode raises no RuntimeWarning.
    topo = DIFF_TOPOLOGIES[topo_name]
    rng = np.random.default_rng(seed)
    conf, paf = noisy_maps(topo, rng, 24, 24, 3, 0.01)
    bad = rng.random(paf.shape)
    paf[bad < 0.005] = np.nan
    paf[(bad >= 0.005) & (bad < 0.01)] = np.inf
    paf[(bad >= 0.01) & (bad < 0.015)] = -np.inf
    conf, paf = conf.astype(dtype), paf.astype(dtype)
    params = DecoderParams(sample_threshold=sample_threshold, n_samples=n_samples,
                           valid_fraction=valid_fraction, min_parts=2)
    poses, _ = decode_with_stats((conf, paf), topo, params)
    assert poses == oracle_decode(conf, paf, topo, params)
    assert all(np.isfinite(p.person_score) for p in poses)


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
    ch, sx, sy, dx, dy = pairs
    support = _corner_support(paf, params.sample_threshold)
    kept = _support_keep(support, ch, sx, sy, dx - sx, dy - sy, params)
    assert kept.tolist() == oracle_support_keep(paf, *pairs, params)


@pytest.mark.parametrize("n_samples, valid_fraction", [(300, 0.8), (3, 1.0)])
@pytest.mark.parametrize("seed", [0, 1])
def test_prefilter_edge_params_equal_oracles(seed, n_samples, valid_fraction):
    # 300 samples: a true limb holds more supported positions than a uint8
    # counter can count. 3 samples at valid_fraction 1.0: no miss is
    # allowed, so every pair is dropped at its first miss.
    topo = DIFF_TOPOLOGIES["tiny"]
    rng = np.random.default_rng(seed)
    conf, paf = noisy_maps(topo, rng, 20, 20, 3, 0.01)
    params = DecoderParams(n_samples=n_samples, valid_fraction=valid_fraction, min_parts=2)
    ch, sx, sy, dx, dy = pairs = limb_pairs(topo, conf, params, rng, cap=3000)
    support = _corner_support(paf, params.sample_threshold)
    kept = _support_keep(support, ch, sx, sy, dx - sx, dy - sy, params)
    assert kept.tolist() == oracle_support_keep(paf, *pairs, params)
    poses, stats = decode_with_stats((conf, paf), topo, params)
    assert stats.connections_valid > 0
    assert poses == oracle_decode(conf, paf, topo, params)


BORDER_CELLS = [1.0, 1.0 - 1e-7, 0.9, 0.5, 1e-6, 0.0, -1.0, np.nan, np.inf]


@st.composite
def border_peak_maps(draw):
    """Two-part confidence stacks of 1x1, 1xN, Nx1 and small maps whose
    cells mix peaks, near ties and NaN/+inf, so candidates sit on the
    border and close to half a cell from it."""
    n = draw(st.integers(2, 8))
    h, w = draw(st.sampled_from([(1, 1), (1, n), (n, 1)]) | st.tuples(st.integers(2, 6),
                                                                         st.integers(2, 6)))
    cells = draw(st.lists(st.sampled_from(BORDER_CELLS) | st.floats(0.0, 1.0),
                          min_size=2 * h * w, max_size=2 * h * w))
    return np.array(cells).reshape(2, h, w)


@settings(max_examples=200, deadline=None)
@given(conf=border_peak_maps(), seed=st.integers(0, 2**32 - 1),
       n_samples=st.sampled_from([2, 3, 10]), dtype=st.sampled_from([np.float32, np.float64]))
def test_sample_positions_from_border_candidates_stay_in_map(conf, seed, n_samples, dtype):
    # The prefilter and the scorer truncate sample positions and read
    # cells with no floor or clip, which is sound only while every
    # position t * (dx - sx) + sx between two candidates is non-negative
    # and truncates into the map (module docstring). Positions are formed
    # as both form them, for every ordered pair of candidates, and the
    # decode must equal the oracle's, which floors and clips.
    conf = conf.astype(dtype)
    topo = two_part_topo()
    params = DecoderParams(n_samples=n_samples, min_parts=2)
    h, w = conf.shape[1:]
    _, xs, ys, _ = _nms_arrays(conf, topo, params)
    t = np.linspace(0.0, 1.0, n_samples)[:, None]
    for c, size in ((xs, w), (ys, h)):
        assert np.all((c >= 0) & (c <= size - 1))
        src, dst = np.repeat(c, c.size), np.tile(c, c.size)
        pos = t * (dst - src) + src
        assert np.all(pos >= 0) and np.all(np.trunc(pos) <= size - 1)
    paf = np.random.default_rng(seed).normal(0.0, 0.5, (2, h, w)).astype(dtype)
    assert decode_with_stats((conf, paf), topo, params)[0] == oracle_decode(conf, paf, topo, params)


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
    support = _corner_support(paf, params.sample_threshold)
    vec = (np.array([18.0]), np.array([0.0]))
    assert _support_keep(support, *pair[:3], *vec, params).tolist() == ([0] if kept else [])
    assert oracle_support_keep(paf, *pair, params) == ([0] if kept else [])
