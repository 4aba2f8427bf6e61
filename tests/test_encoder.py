"""Target encoding against brute-force per-pixel oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbpose.encoder import (
    AnnotatedScene,
    EncoderParams,
    Person,
    Visibility,
    encode,
    encode_confidence,
    encode_masks,
    encode_paf,
    map_shape,
)
from wbpose.skeleton import PartGroup, default_topology, load_topology
from wbpose.synth import SceneRecipe, generate

from conftest import tiny_manifest
from oracles import (
    loop_encode_confidence,
    loop_encode_masks,
    loop_encode_paf,
    oracle_confidence,
    oracle_paf,
)

L = Visibility.LABELED

ALL_GROUPS = frozenset(PartGroup)


def one_part_topo():
    return load_topology({
        "manifest_version": 1,
        "background_channel": False,
        "parts": [{"id": 0, "name": "nose", "group": "body", "side": "center"}],
        "limbs": [],
        "anchors": [],
        "oks_kappa": {"0": 0.026},
    })


def two_part_topo(background=False):
    return load_topology({
        "manifest_version": 1,
        "background_channel": background,
        "parts": [
            {"id": 0, "name": "neck", "group": "body", "side": "center"},
            {"id": 1, "name": "nose", "group": "body", "side": "center"},
        ],
        "limbs": [{"id": 0, "src": 0, "dst": 1}],
        "anchors": [],
        "oks_kappa": {"0": 0.079, "1": 0.026},
    })


def scene(people, size=(80, 80), coverage=ALL_GROUPS, **kw):
    return AnnotatedScene(image_size=size, people=people, coverage=coverage, **kw)


def test_peak_is_exactly_one_on_grid_cell():
    topo = one_part_topo()
    sc = scene([Person({0: (24.0, 16.0, L)})])
    s = encode_confidence(sc, topo, EncoderParams(stride=8))
    assert s[0, 2, 3] == 1.0
    assert s.max() == 1.0


def test_confidence_matches_per_pixel_oracle_two_people():
    # Two noses 3 cells apart with sigma = 2 cells: value is the max of the
    # two Gaussians at every cell.
    topo = one_part_topo()
    params = EncoderParams(stride=8, sigma_px={g: 16.0 for g in PartGroup})
    sc = scene([Person({0: (24.0, 24.0, L)}), Person({0: (48.0, 24.0, L)})])
    got = encode_confidence(sc, topo, params)
    want = oracle_confidence(sc, topo, params)
    np.testing.assert_allclose(got, want, atol=1e-7)
    assert got.min() >= 0.0 and got.max() <= 1.0


def test_confidence_range_and_missing_ignored():
    topo = one_part_topo()
    sc = scene([Person({0: (24.0, 24.0, Visibility.MISSING)})])
    s = encode_confidence(sc, topo, EncoderParams())
    assert not s.any()


def test_horizontal_limb_band_values():
    topo = two_part_topo()
    params = EncoderParams(stride=8)
    sc = scene([Person({0: (16.0, 40.0, L), 1: (56.0, 40.0, L)})])
    l = encode_paf(sc, topo, params)
    # Inside the band: pure +x unit vector.
    assert l[0, 5, 4] == 1.0 and l[1, 5, 4] == 0.0
    # Far away: zero.
    assert l[0, 0, 0] == 0.0 and l[1, 0, 0] == 0.0
    np.testing.assert_allclose(l, oracle_paf(sc, topo, params), atol=1e-12)


def test_crossing_limbs_average_to_half_sqrt2():
    topo = two_part_topo()
    params = EncoderParams(stride=8)
    sc = scene([
        Person({0: (8.0, 40.0, L), 1: (72.0, 40.0, L)}),   # +x limb
        Person({0: (40.0, 8.0, L), 1: (40.0, 72.0, L)}),   # +y limb
    ])
    l = encode_paf(sc, topo, params)
    np.testing.assert_allclose(l, oracle_paf(sc, topo, params), atol=1e-12)
    # Crossing cell holds the average of the two unit vectors.
    v = np.array([l[0, 5, 5], l[1, 5, 5]])
    np.testing.assert_allclose(v, [0.5, 0.5], atol=1e-12)
    np.testing.assert_allclose(np.linalg.norm(v), np.sqrt(2) / 2, atol=1e-12)


def test_paf_norm_never_exceeds_one():
    topo = two_part_topo()
    params = EncoderParams(stride=8)
    rng = np.random.default_rng(7)
    people = [
        Person({0: (float(x0), float(y0), L), 1: (float(x1), float(y1), L)})
        for x0, y0, x1, y1 in rng.uniform(0, 80, size=(6, 4))
    ]
    l = encode_paf(scene(people), topo, params)
    norms = np.sqrt(l[0] ** 2 + l[1] ** 2)
    assert norms.max() <= 1.0 + 1e-12


def test_zero_length_limb_contributes_nothing():
    topo = two_part_topo()
    sc = scene([Person({0: (40.0, 40.0, L), 1: (40.0, 40.0, L)})])
    l = encode_paf(sc, topo, EncoderParams())
    assert not l.any()


def test_background_channel_complements_parts():
    topo = two_part_topo(background=True)
    sc = scene([Person({0: (24.0, 24.0, L), 1: (48.0, 48.0, L)})])
    s = encode_confidence(sc, topo, EncoderParams())
    np.testing.assert_allclose(s[2], 1.0 - s[:2].max(axis=0), atol=1e-7)


@settings(max_examples=25, deadline=None)
@given(
    k=st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
    px=st.floats(20.0, 40.0), py=st.floats(20.0, 40.0),
)
def test_translation_equivariance_by_whole_strides(k, px, py):
    topo = one_part_topo()
    params = EncoderParams(stride=8)
    base = encode_confidence(scene([Person({0: (px, py, L)})]), topo, params)
    shifted = encode_confidence(
        scene([Person({0: (px + 8 * k[0], py + 8 * k[1], L)})]), topo, params
    )
    rolled = np.roll(np.roll(base, k[1], axis=1), k[0], axis=2)
    # Compare away from the wrap-around border.
    inner = (slice(None), slice(2, -2), slice(2, -2))
    np.testing.assert_allclose(shifted[inner], rolled[inner], atol=1e-6)


@settings(max_examples=20, deadline=None)
@given(sigma=st.floats(4.0, 12.0), tau=st.floats(0.05, 0.9))
def test_shrinking_sigma_shrinks_support(sigma, tau):
    topo = one_part_topo()
    sc = scene([Person({0: (37.0, 41.0, L)})])
    wide = encode_confidence(sc, topo, EncoderParams(sigma_px={g: sigma for g in PartGroup}))
    narrow = encode_confidence(sc, topo, EncoderParams(sigma_px={g: sigma * 0.6 for g in PartGroup}))
    assert np.all((narrow > tau) <= (wide > tau))


def test_masks_covered_uncovered_and_reenabled():
    # Coverage {body}: body channels and the background on, foot channels
    # re-enabled only away from the person box, every channel off inside the
    # unlabeled region.
    tiny_topo = load_topology({**tiny_manifest(), "background_channel": True})
    params = EncoderParams(stride=8)
    sc = AnnotatedScene(
        image_size=(160, 160),
        people=[Person({0: (40.0, 40.0, L), 1: (40.0, 56.0, L), 2: (48.0, 120.0, L)})],
        coverage=frozenset({PartGroup.BODY}),
        unlabeled_regions=[(120.0, 120.0, 152.0, 152.0)],
    )
    w = encode_masks(sc, tiny_topo, params)
    assert set(np.unique(w)) <= {0.0, 1.0}
    conf_groups = tiny_topo.confidence_channel_groups()
    paf_groups = tiny_topo.paf_channel_groups()
    groups = conf_groups + paf_groups

    # Independent reconstruction of the three planes.
    ys = np.arange(20) * 8.0
    xs = np.arange(20) * 8.0
    in_region = ((xs >= 120) & (xs <= 152))[None, :] & ((ys >= 120) & (ys <= 152))[:, None]
    pad = 14.0
    in_person = ((xs >= 40 - pad) & (xs <= 48 + pad))[None, :] & (
        (ys >= 40 - pad) & (ys <= 120 + pad))[:, None]
    covered = (~in_region).astype(np.float32)
    reenabled = (~(in_person | in_region)).astype(np.float32)

    assert groups.count(None) == 1
    for c, g in enumerate(groups):
        if g is None or g == PartGroup.BODY:  # background stays supervised
            np.testing.assert_array_equal(w[c], covered, err_msg=f"channel {c}")
        elif g == PartGroup.FOOT:
            np.testing.assert_array_equal(w[c], reenabled, err_msg=f"channel {c}")


def test_uncovered_body_stays_disabled(tiny_topo):
    params = EncoderParams(stride=8)
    sc = AnnotatedScene(
        image_size=(80, 80),
        people=[Person({3: (40.0, 40.0, L)})],
        coverage=frozenset({PartGroup.FOOT}),
    )
    w = encode_masks(sc, tiny_topo, params)
    for c, g in enumerate(tiny_topo.confidence_channel_groups() + tiny_topo.paf_channel_groups()):
        if g == PartGroup.BODY:
            assert not w[c].any()


def test_no_people_scene_enables_everything(tiny_topo):
    sc = AnnotatedScene(image_size=(80, 80), people=[], coverage=frozenset(), no_people=True)
    w = encode_masks(sc, tiny_topo, EncoderParams())
    assert w.all()


def test_unlabeled_people_without_certification_stay_masked(tiny_topo):
    # Empty people list but not certified empty: nothing re-enables.
    sc = AnnotatedScene(image_size=(80, 80), people=[], coverage=frozenset({PartGroup.BODY}))
    w = encode_masks(sc, tiny_topo, EncoderParams())
    for c, g in enumerate(tiny_topo.confidence_channel_groups() + tiny_topo.paf_channel_groups()):
        if g == PartGroup.FOOT:
            assert not w[c].any()


def test_cells_beyond_image_masked(tiny_topo):
    sc = AnnotatedScene(image_size=(68, 61), people=[], coverage=frozenset(), no_people=True)
    w = encode_masks(sc, tiny_topo, EncoderParams(stride=8))
    assert map_shape((68, 61), 8) == (8, 9)
    assert not w[:, :, 8].any()   # last column footprint ends at 72 > 68
    assert not w[:, 7, :].any()   # last row footprint ends at 64 > 61
    assert w[:, :7, :8].all()


# The whole-body topology has a background channel, the tiny one has none.
MASK_TOPOLOGIES = {"default": default_topology(), "tiny": load_topology(tiny_manifest())}


@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_plane_masks_equal_loop_masks(data):
    """Bit-identical to the per-channel loop on scenes with finite parts in
    the topology: any coverage subset, missing parts, people with no
    annotated part, unlabeled regions, certified no-people scenes, map sizes
    that leave partial cells, and region edges exactly on cell points."""
    topo = MASK_TOPOLOGIES[data.draw(st.sampled_from(sorted(MASK_TOPOLOGIES)), label="topology")]
    stride = data.draw(st.sampled_from([1, 3, 4, 8, 16]), label="stride")
    size = (data.draw(st.integers(1, 120), label="w"), data.draw(st.integers(1, 120), label="h"))
    params = EncoderParams(stride=stride)
    pad = 2.0 * params.sigma_for(PartGroup.BODY)
    coverage = data.draw(st.frozensets(st.sampled_from(list(PartGroup))), label="coverage")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))

    def coordinates(extent, spread):
        # A cluster near the image, some coordinates moved so that a dilated
        # box edge falls exactly on a cell point.
        xs = rng.uniform(-20.0, extent + 20.0) + rng.uniform(-spread, spread, topo.n_parts)
        side = rng.choice([-pad, pad], topo.n_parts)
        snapped = np.round((xs + side) / stride) * stride - side
        return np.where(rng.random(topo.n_parts) < 0.5, xs, snapped).tolist()

    vis_of = [L, Visibility.OCCLUDED, Visibility.MISSING]
    people = []
    for _ in range(data.draw(st.integers(0, 5), label="people")):
        p_missing = data.draw(st.sampled_from([0.0, 0.3, 1.0]), label="missing probability")
        present = rng.random(topo.n_parts) < data.draw(st.sampled_from([0.0, 0.5, 1.0]))
        vis = np.where(rng.random(topo.n_parts) < p_missing, 2, rng.integers(0, 2, topo.n_parts))
        spread = data.draw(st.sampled_from([0.0, 5.0, 20.0, 80.0]), label="spread")
        xs, ys = coordinates(size[0], spread), coordinates(size[1], spread)
        people.append(Person({
            pid: (xs[pid], ys[pid], vis_of[vis[pid]])
            for pid in range(topo.n_parts) if present[pid]
        }))
    regions = []
    for _ in range(data.draw(st.integers(0, 2), label="unlabeled regions")):
        x0, y0 = (data.draw(st.floats(-20.0, 120.0)) for _ in range(2))
        regions.append((x0, y0, x0 + data.draw(st.floats(0.0, 80.0)),
                        y0 + data.draw(st.floats(0.0, 80.0))))
    no_people = not people and not regions and data.draw(st.booleans(), label="certified")
    sc = scene(people, size=size, coverage=coverage, unlabeled_regions=regions,
               no_people=no_people)

    got = encode_masks(sc, topo, params)
    want = loop_encode_masks(sc, topo, params)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_masks_ignore_part_ids_outside_topology(tiny_topo):
    # Masks read the parts the map encoders read: an id the topology lacks
    # widens no person region, so foot channels stay re-enabled around it.
    params = EncoderParams(stride=8)
    base = {0: (40.0, 40.0, L), 1: (40.0, 56.0, L)}
    plain = scene([Person(base)], size=(160, 160), coverage=frozenset({PartGroup.BODY}))
    extra = scene([Person({**base, 999: (140.0, 140.0, L)})], size=(160, 160),
                  coverage=frozenset({PartGroup.BODY}))
    assert encode_confidence(extra, tiny_topo, params).tobytes() == \
        encode_confidence(plain, tiny_topo, params).tobytes()
    assert encode_masks(extra, tiny_topo, params).tobytes() == \
        encode_masks(plain, tiny_topo, params).tobytes()
    foot = tiny_topo.confidence_channel_groups().index(PartGroup.FOOT)
    assert encode_masks(extra, tiny_topo, params)[foot, 17, 17] == 1.0


def test_no_people_flag_rejects_people():
    with pytest.raises(ValueError):
        AnnotatedScene(image_size=(8, 8), people=[Person({})], coverage=frozenset(), no_people=True)


def test_encode_deterministic_bit_identical(tiny_topo):
    sc = AnnotatedScene(
        image_size=(96, 96),
        people=[Person({i: (10.0 * i + 5.3, 20.0 + 7.7 * i, L) for i in range(5)})],
        coverage=ALL_GROUPS,
    )
    a = encode(sc, tiny_topo)
    b = encode(sc, tiny_topo)
    assert (a.s_star == b.s_star).all()
    assert (a.l_star == b.l_star).all()
    assert (a.w_mask == b.w_mask).all()


def test_encode_shapes_consistent(topo):
    sc = AnnotatedScene(image_size=(480, 480), people=[], coverage=frozenset(), no_people=True)
    t = encode(sc, topo)
    assert t.s_star.shape == (136, 60, 60)
    assert t.l_star.shape == (268, 60, 60)
    assert t.w_mask.shape == (136 + 268, 60, 60)
    assert t.stride == 8


def four_group_topo():
    """Seven parts over all four groups and a background channel; limbs start
    in every group, so every sigma and every limb width is in use."""
    groups = ["body", "body", "body", "foot", "face", "body", "hand"]
    limbs = [(0, 1), (0, 2), (3, 2), (4, 1), (0, 5), (6, 5)]
    return load_topology({
        "manifest_version": 1,
        "background_channel": True,
        "parts": [{"id": i, "name": f"p{i}", "group": g} for i, g in enumerate(groups)],
        "limbs": [{"id": i, "src": a, "dst": b} for i, (a, b) in enumerate(limbs)],
        "anchors": [],
        "oks_kappa": {str(i): 0.05 for i in range(len(groups))},
    })


FOUR_GROUP_TOPO = four_group_topo()
SIGMAS = st.one_of(st.sampled_from([0.5, 3.5, 7.0, 8.0]), st.floats(0.2, 20.0))


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_windowed_encoders_equal_loop_encoders(data):
    """Bit-identical to the scalar loops: any stride, map sizes that leave
    partial cells, per-group sigma, parts off the image or exactly on a
    window edge, missing parts, zero-length limbs and coincident people."""
    topo = FOUR_GROUP_TOPO
    stride = data.draw(st.integers(1, 16), label="stride")
    size = (data.draw(st.integers(1, 120), label="w"), data.draw(st.integers(1, 120), label="h"))
    sigma = {g: data.draw(SIGMAS, label=f"sigma {g.value}") for g in PartGroup}
    params = EncoderParams(stride=stride, sigma_px=sigma)
    group_of = {p.part_id: p.group for p in topo.parts}

    def coordinate(pid, extent):
        if data.draw(st.booleans()):
            return data.draw(st.floats(-60.0, extent + 60.0))
        # A cell center, or a Gaussian cut or band edge away from one.
        cell = data.draw(st.integers(-4, math.ceil(extent / stride) + 4)) * stride
        edge = data.draw(st.sampled_from([
            0.0, math.sqrt(110.0) * params.sigma_for(group_of[pid]),
            params.limb_width_for(group_of[pid]),
        ]))
        return cell + data.draw(st.sampled_from([-1.0, 1.0])) * edge

    people = []
    for _ in range(data.draw(st.integers(0, 4), label="people")):
        parts = {}
        for pid in range(topo.n_parts):
            kind = data.draw(st.sampled_from(["labeled", "occluded", "missing", "absent", "copy"]))
            if kind == "absent":
                continue
            if kind == "copy" and parts:  # zero-length limb when both ends meet
                x, y, _ = parts[data.draw(st.sampled_from(sorted(parts)))]
                parts[pid] = (x, y, L)
                continue
            vis = Visibility.MISSING if kind == "missing" else (
                Visibility.OCCLUDED if kind == "occluded" else L)
            parts[pid] = (coordinate(pid, size[0]), coordinate(pid, size[1]), vis)
        people.append(Person(parts))
        if data.draw(st.booleans(), label="coincident twin"):
            people.append(Person(dict(parts)))
    sc = scene(people, size=size)

    got = encode_confidence(sc, topo, params)
    want = loop_encode_confidence(sc, topo, params)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()
    got = encode_paf(sc, topo, params)
    want = loop_encode_paf(sc, topo, params)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def test_paf_sums_follow_person_order():
    # Three bands cross cell (5, 5): ux = eps < 2**-54, +1, -1 in person
    # order. In float64, (eps + 1) - 1 == 0 while (-1 + 1) + eps == eps, so
    # only the loop's person order gives exactly 0 there.
    topo = two_part_topo()
    params = EncoderParams(stride=8)
    sc = scene([
        Person({0: (40.0, -56.0, L), 1: (math.nextafter(40.0, 41.0), 136.0, L)}),
        Person({0: (8.0, 40.0, L), 1: (72.0, 40.0, L)}),
        Person({0: (72.0, 40.0, L), 1: (8.0, 40.0, L)}),
    ])
    l = encode_paf(sc, topo, params)
    assert l[0, 5, 5] == 0.0
    assert l[1, 5, 5] == np.float32(1.0 / 3.0)
    assert l.tobytes() == loop_encode_paf(sc, topo, params).tobytes()


@pytest.mark.parametrize("stride,size", [(8, (480, 480)), (4, (250, 190)), (3, (251, 203)), (16, (333, 479))])
def test_windowed_encoders_equal_loop_encoders_on_generated_scenes(topo, stride, size):
    # The whole-body topology at the bench person scale, several crowd sizes.
    params = EncoderParams(stride=stride)
    for n_people in (1, 3, 6):
        recipe = SceneRecipe(n_people=n_people, image_size=size, min_separation=10.0,
                             person_scale=(45.0, 65.0), seed=stride, max_attempts=20_000)
        sc = generate(recipe, topo, scene_id=n_people)
        assert encode_confidence(sc, topo, params).tobytes() == \
            loop_encode_confidence(sc, topo, params).tobytes()
        assert encode_paf(sc, topo, params).tobytes() == loop_encode_paf(sc, topo, params).tobytes()


@pytest.mark.parametrize("sigma_px,match", [
    ({PartGroup.BODY: 7.0, PartGroup.FOOT: 7.0, PartGroup.FACE: 3.5}, "no sigma for part group 'hand'"),
    ({g: -1.0 for g in PartGroup}, "finite and > 0"),
    ({g: 0.0 for g in PartGroup}, "finite and > 0"),
    ({g: float("nan") for g in PartGroup}, "finite and > 0"),
    ({g: float("inf") for g in PartGroup}, "finite and > 0"),
])
def test_sigma_must_cover_every_group_and_be_positive(sigma_px, match):
    with pytest.raises(ValueError, match=match):
        EncoderParams(sigma_px=sigma_px)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
def test_non_finite_part_coordinates_are_rejected(bad):
    topo = two_part_topo()
    sc = scene([Person({0: (bad, 16.0, L), 1: (40.0, 16.0, L)})])
    for encoder in (encode_confidence, encode_paf, encode_masks):
        with pytest.raises(ValueError, match="finite"):
            encoder(sc, topo, EncoderParams())
    # A missing part's coordinates are never read.
    ok = scene([Person({0: (bad, 16.0, Visibility.MISSING), 1: (40.0, 16.0, L)})])
    assert encode_confidence(ok, topo, EncoderParams()).tobytes() == \
        loop_encode_confidence(ok, topo, EncoderParams()).tobytes()
    assert encode_masks(ok, topo, EncoderParams()).tobytes() == \
        loop_encode_masks(ok, topo, EncoderParams()).tobytes()
