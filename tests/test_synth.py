"""Scene generator and encode->decode round-trip checks."""

import dataclasses
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbpose.decoder import DecoderParams, decode
from wbpose.encoder import EncoderParams, PartGroup, Visibility, encode
from wbpose.metrics import EvalPose, gt_poses_from_scene, oks_matrix
from wbpose.skeleton import default_topology
from wbpose.synth import EDGE_MARGIN_PX, PackingError, SceneRecipe, generate, roundtrip_report

from oracles import oracle_generate


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
    recipe = SceneRecipe(n_people=12, min_separation=200.0, seed=0)
    message = "^could not place 3 of 12 people within 1000 attempts$"
    with pytest.raises(PackingError, match=message):
        generate(recipe, topo)
    with pytest.raises(PackingError, match=message):
        oracle_generate(recipe, topo)


def generate_or_error(recipe, topo, scene_id, fn):
    try:
        return fn(recipe, topo, scene_id=scene_id)
    except PackingError as exc:
        return str(exc)


def assert_same_scene(got, want):
    """Field by field; people as (part id, (x, y, visibility)) item lists, so
    coordinates compare with == and dict order counts."""
    if isinstance(want, str):
        assert got == want
        return
    for f in dataclasses.fields(want):
        if f.name != "people":
            assert getattr(got, f.name) == getattr(want, f.name), f.name
    assert [list(p.parts.items()) for p in got.people] == [
        list(p.parts.items()) for p in want.people
    ]


GROUPS = sorted(PartGroup, key=lambda g: g.value)


@settings(max_examples=40, deadline=None)
@given(
    n_people=st.integers(0, 6),
    seed=st.integers(0, 2**32 - 1),
    scene_id=st.integers(0, 1000),
    image_size=st.sampled_from([(480, 480), (320, 240)]),
    min_separation=st.sampled_from([0.0, 30.0, 120.0]),
    # (300, 470) is too big for a 480 px image on some draws and not on
    # others, so the attempt that skips the offset draws is followed by
    # one that takes them; (600, 700) never fits.
    person_scale=st.sampled_from([(45.0, 65.0), (90.0, 130.0), (300.0, 470.0), (600.0, 700.0)]),
    rotation_deg=st.sampled_from([0.0, 20.0, 180.0]),
    jitter_deg=st.sampled_from([0.0, 7.5, 15.0]),
    coverage=st.one_of(st.just(frozenset(PartGroup)), st.frozensets(st.sampled_from(GROUPS))),
    missing_prob=st.dictionaries(st.sampled_from(GROUPS), st.sampled_from([0.0, 0.3, 1.0])),
    max_attempts=st.sampled_from([1, 30, 300]),
)
def test_generate_equals_dict_placement_oracle(topo, n_people, seed, scene_id, image_size,
                                               min_separation, person_scale, rotation_deg,
                                               jitter_deg, coverage, missing_prob, max_attempts):
    recipe = SceneRecipe(
        n_people=n_people, image_size=image_size, min_separation=min_separation,
        person_scale=person_scale, coverage=coverage, missing_prob=missing_prob,
        rotation_deg=rotation_deg, jitter_deg=jitter_deg, seed=seed, max_attempts=max_attempts,
    )
    assert_same_scene(generate_or_error(recipe, topo, scene_id, generate),
                      generate_or_error(recipe, topo, scene_id, oracle_generate))


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
