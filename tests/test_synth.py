"""Scene generator and encode->decode round-trip checks."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbpose.decoder import DecoderParams, decode
from wbpose.encoder import EncoderParams, PartGroup, Visibility, encode
from wbpose.metrics import EvalPose, gt_poses_from_scene, oks_matrix
from wbpose.skeleton import default_topology
from wbpose.synth import EDGE_MARGIN_PX, PackingError, SceneRecipe, generate, roundtrip_report


def test_zero_people_scene_is_certified_empty(topo):
    scene = generate(SceneRecipe(n_people=0, seed=1), topo)
    assert scene.no_people
    assert scene.people == []


def test_fixed_seed_reproduces_scene_bit_identically(topo):
    a = generate(SceneRecipe(n_people=3, seed=42), topo)
    b = generate(SceneRecipe(n_people=3, seed=42), topo)
    assert a.people == b.people
    c = generate(SceneRecipe(n_people=3, seed=43), topo)
    assert a.people != c.people


def _person_box(person):
    xs = [x for x, _, _ in person.parts.values()]
    ys = [y for _, y, _ in person.parts.values()]
    return min(xs), min(ys), max(xs), max(ys)


def test_packing_respects_min_separation(topo):
    # Pairwise box distance oracle: hypot of per-axis gaps, recomputed here
    # from the emitted keypoints.
    recipe = SceneRecipe(n_people=5, min_separation=40.0, seed=11, image_size=(640, 640))
    scene = generate(recipe, topo)
    boxes = [_person_box(p) for p in scene.people]
    assert len(boxes) == 5
    for i in range(5):
        for j in range(i + 1, 5):
            a, b = boxes[i], boxes[j]
            gx = max(b[0] - a[2], a[0] - b[2], 0.0)
            gy = max(b[1] - a[3], a[1] - b[3], 0.0)
            assert math.hypot(gx, gy) >= 40.0


def test_all_keypoints_inside_margin(topo):
    recipe = SceneRecipe(n_people=3, seed=5)
    scene = generate(recipe, topo)
    w, h = recipe.image_size
    for person in scene.people:
        for x, y, _ in person.parts.values():
            assert EDGE_MARGIN_PX <= x <= w - EDGE_MARGIN_PX
            assert EDGE_MARGIN_PX <= y <= h - EDGE_MARGIN_PX


def test_infeasible_packing_raises(topo):
    with pytest.raises(PackingError):
        generate(SceneRecipe(n_people=12, min_separation=200.0, seed=0), topo)


def test_jitter_cap_enforced():
    with pytest.raises(ValueError):
        SceneRecipe(n_people=1, jitter_deg=15.5)


@pytest.mark.parametrize("scale", [(0.0, 0.0), (-10.0, 50.0), (65.0, 45.0)])
def test_person_scale_must_be_a_positive_range(scale):
    with pytest.raises(ValueError, match="person_scale"):
        SceneRecipe(n_people=1, person_scale=scale)


def test_roundtrip_three_people_full_coverage(topo):
    report = roundtrip_report(SceneRecipe(n_people=3, seed=9), topo)
    assert report.success
    assert report.people_found == 3
    assert report.part_count_ok
    assert report.max_error_cells <= 0.5


def test_roundtrip_body_foot_coverage_yields_no_face_hand_parts(topo):
    recipe = SceneRecipe(
        n_people=2, seed=4, coverage=frozenset({PartGroup.BODY, PartGroup.FOOT})
    )
    scene = generate(recipe, topo)
    tensors = encode(scene, topo, EncoderParams())
    poses = decode(tensors, topo, DecoderParams())
    allowed = {
        p.part_id for p in topo.parts if p.group in (PartGroup.BODY, PartGroup.FOOT)
    }
    assert poses
    for pose in poses:
        assert set(pose.parts) <= allowed


def test_missing_hands_recovered_as_body_only(topo):
    recipe = SceneRecipe(n_people=1, seed=8, missing_prob={PartGroup.HAND: 1.0})
    scene = generate(recipe, topo)
    hand_ids = {p.part_id for p in topo.parts if p.group == PartGroup.HAND}
    assert all(pid not in hand_ids for pid in scene.people[0].parts)
    report = roundtrip_report(recipe, topo)
    assert report.success
    tensors = encode(scene, topo, EncoderParams())
    poses = decode(tensors, topo, DecoderParams())
    for pose in poses:
        assert not (set(pose.parts) & hand_ids)


def test_missing_parts_are_absent_not_occluded(topo):
    recipe = SceneRecipe(n_people=1, seed=2, missing_prob={PartGroup.FACE: 0.5})
    scene = generate(recipe, topo)
    face_ids = {p.part_id for p in topo.parts if p.group == PartGroup.FACE}
    present_face = [pid for pid in scene.people[0].parts if pid in face_ids]
    assert 0 < len(present_face) < len(face_ids)  # some dropped at p=0.5
    assert all(
        v == Visibility.LABELED for _, _, v in scene.people[0].parts.values()
    )


def test_fragment_at_exactly_a_tenth_oks_finds_nobody(topo):
    # Half of all parts missing: the decode splits each person into
    # fragments, and the best one carries 7 of its person's 70 labeled
    # parts, all exact, so its OKS is exactly 0.1. Finding needs OKS > 0.1.
    recipe = SceneRecipe(n_people=2, seed=3, missing_prob={g: 0.5 for g in PartGroup})
    scene = generate(recipe, topo)
    poses = decode(encode(scene, topo, EncoderParams()), topo, DecoderParams())
    s = EncoderParams().stride
    dets = [EvalPose({pid: (x * s, y * s) for pid, (x, y, _) in p.parts.items()}) for p in poses]
    assert oks_matrix(dets, gt_poses_from_scene(scene), topo).max() == 0.1
    report = roundtrip_report(recipe, topo)
    assert (report.poses_decoded, report.people_found) == (10, 0)


@settings(max_examples=8, deadline=None)
@given(p_miss=st.floats(min_value=0.0, max_value=1.0), seed=st.integers(0, 50))
def test_degradation_never_finds_more_people_than_exist(p_miss, seed):
    topo = default_topology()
    recipe = SceneRecipe(
        n_people=2, seed=seed, missing_prob={g: p_miss for g in PartGroup}
    )
    report = roundtrip_report(recipe, topo)
    assert report.people_found <= recipe.n_people
    assert report.poses_decoded >= report.people_found
