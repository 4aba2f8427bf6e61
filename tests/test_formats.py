"""WBPT container, scenes/poses JSON documents, COCO ingestion."""
import dataclasses
import json
import re
import struct
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wbpose import __version__
from wbpose.decoder import Pose
from wbpose.encoder import AnnotatedScene, Person, TargetTensors, Visibility, encode
from wbpose.formats import (
    KIND_COMBINED,
    KIND_CONFIDENCE,
    KIND_MASK,
    KIND_PAF,
    PAYLOAD_ALIGN,
    DocumentError,
    WbptError,
    WbptFile,
    from_bytes,
    from_targets,
    ingest_coco,
    poses_document,
    poses_from_document,
    read_wbpt,
    scene_from_obj,
    scenes_document,
    scenes_from_document,
    to_bytes,
    to_targets,
    write_wbpt,
)
from wbpose.formats import _MASK_BLOCK
from wbpose.skeleton import PartGroup

from conftest import wbpt_v1_bytes

DATA = Path(__file__).parent / "data"
HASH64 = "ab" * 32


def random_file(rng, kind=KIND_CONFIDENCE, channels=3, h=5, w=7):
    payload = rng.standard_normal((channels, h, w)).astype(np.float32)
    sections = ()
    if kind == KIND_MASK:
        payload = (payload > 0).astype(np.float32)
    if kind == KIND_COMBINED:
        payload[2] = (payload[2] > 0).astype(np.float32)
        sections = ((KIND_CONFIDENCE, 1), (KIND_PAF, 1), (KIND_MASK, 1))
    return WbptFile(kind=kind, stride=8, manifest_hash=HASH64, payload=payload, sections=sections)


class TestWbptBinary:
    def test_rewrite_is_byte_identical(self):
        rng = np.random.default_rng(11)
        for kind in (KIND_CONFIDENCE, KIND_PAF, KIND_MASK, KIND_COMBINED):
            first = to_bytes(random_file(rng, kind=kind))
            assert to_bytes(from_bytes(first)) == first

    def test_fields_survive(self):
        f = random_file(np.random.default_rng(0), kind=KIND_COMBINED)
        g = from_bytes(to_bytes(f))
        assert (g.kind, g.stride, g.manifest_hash) == (f.kind, f.stride, f.manifest_hash)
        assert g.sections == f.sections
        assert g.payload.dtype == np.float32
        np.testing.assert_array_equal(g.payload, f.payload)

    def test_file_roundtrip(self, tmp_path):
        f = random_file(np.random.default_rng(1))
        n = write_wbpt(tmp_path / "t.wbpt", f)
        assert n == (tmp_path / "t.wbpt").stat().st_size
        g = read_wbpt(tmp_path / "t.wbpt")
        np.testing.assert_array_equal(g.payload, f.payload)

    def test_bad_magic(self):
        buf = b"XXXX" + to_bytes(random_file(np.random.default_rng(2)))[4:]
        message = "^not a WBPT file: magic b'XXXX', expected b'WBPT'$"
        with pytest.raises(WbptError, match=message):
            from_bytes(buf)

    def test_truncated_one_float_short(self):
        buf = to_bytes(random_file(np.random.default_rng(3)))
        message = f"truncated WBPT file in payload: expected {len(buf)} bytes, got {len(buf) - 4}"
        with pytest.raises(WbptError, match=f"^{message}$"):
            from_bytes(buf[:-4])

    def test_truncated_header(self):
        buf = to_bytes(random_file(np.random.default_rng(4)))
        message = "^truncated WBPT file in header: expected 26 bytes, got 10$"
        with pytest.raises(WbptError, match=message):
            from_bytes(buf[:10])

    def test_trailing_bytes_rejected(self):
        buf = to_bytes(random_file(np.random.default_rng(5)))
        with pytest.raises(WbptError, match="trailing"):
            from_bytes(buf + b"\x00")

    def test_future_version_rejected(self):
        buf = bytearray(to_bytes(random_file(np.random.default_rng(6))))
        struct.pack_into("<I", buf, 4, 3)
        message = "^unsupported WBPT version 3, this reader handles <= 2$"
        with pytest.raises(WbptError, match=message):
            from_bytes(bytes(buf))

    def test_wrong_endianness_byte(self):
        buf = bytearray(to_bytes(random_file(np.random.default_rng(7))))
        buf[8] = 0x02
        with pytest.raises(WbptError, match="endianness"):
            from_bytes(bytes(buf))

    @pytest.mark.parametrize("kind, entries", [
        (KIND_CONFIDENCE, 0), (KIND_PAF, 0), (KIND_MASK, 0),
        *((KIND_COMBINED, n) for n in (*range(1, 18), 254, 255)),
    ])
    def test_payload_offset_is_aligned(self, kind, entries):
        channels = max(entries, 1)
        payload = np.zeros((channels, 3, 2), dtype=np.float32)
        sections = ((KIND_CONFIDENCE, 1),) * entries
        f = WbptFile(kind=kind, stride=8, manifest_hash=HASH64, payload=payload, sections=sections)
        buf = to_bytes(f)
        offset = len(buf) - payload.nbytes
        assert offset % PAYLOAD_ALIGN == 0
        assert 0 <= offset - (len(wbpt_v1_bytes(f)) - payload.nbytes) < PAYLOAD_ALIGN
        assert from_bytes(buf).payload.flags.aligned

    @pytest.mark.parametrize("at", [58, 63])
    def test_nonzero_pad_byte_rejected(self, at):
        buf = bytearray(to_bytes(random_file(np.random.default_rng(13))))
        buf[at] = 0x01
        with pytest.raises(WbptError, match="padding"):
            from_bytes(bytes(buf))

    def test_truncated_inside_pad(self):
        buf = to_bytes(random_file(np.random.default_rng(14), kind=KIND_COMBINED))
        message = "^truncated WBPT file in header padding: expected 80 bytes, got 77$"
        with pytest.raises(WbptError, match=message):
            from_bytes(buf[:77])

    @pytest.mark.parametrize("kind", [KIND_CONFIDENCE, KIND_PAF, KIND_MASK, KIND_COMBINED])
    def test_version_1_reads_back_and_rewrites_as_version_2(self, kind):
        f = random_file(np.random.default_rng(15), kind=kind)
        if kind != KIND_MASK:
            f.payload[0, 0, 0] = np.nan
            f.payload[0, 0, 1] = -np.inf
        old = wbpt_v1_bytes(f)
        g = from_bytes(old)
        assert (g.kind, g.stride, g.manifest_hash, g.sections) == (
            f.kind, f.stride, f.manifest_hash, f.sections
        )
        np.testing.assert_array_equal(g.payload.view(np.uint32), f.payload.view(np.uint32))
        assert g.payload.flags.aligned and g.payload.flags.owndata
        new = to_bytes(g)
        assert new == to_bytes(f) and new != old
        assert struct.unpack_from("<I", new, 4) == (2,)

    def test_payload_of_bytes_is_a_read_only_view(self):
        buf = to_bytes(random_file(np.random.default_rng(16), kind=KIND_COMBINED))
        g = from_bytes(buf)
        assert g.payload.flags.aligned
        assert not g.payload.flags.owndata
        assert not g.payload.flags.writeable
        assert np.shares_memory(g.payload, np.frombuffer(buf, dtype=np.uint8))

    def test_payload_of_bytearray_is_writeable(self):
        buf = bytearray(to_bytes(random_file(np.random.default_rng(17))))
        g = from_bytes(buf)
        assert g.payload.flags.aligned and g.payload.flags.writeable
        g.payload[0, 0, 0] = 5.0
        assert struct.unpack_from("<f", buf, 64) == (5.0,)

    def test_unaligned_buffer_is_read_through_a_copy(self):
        buf = to_bytes(random_file(np.random.default_rng(18), kind=KIND_COMBINED))
        shifted = memoryview(b"\x00" + buf)[1:]
        g = from_bytes(shifted)
        assert g.payload.flags.aligned and g.payload.flags.owndata
        assert not np.shares_memory(g.payload, np.frombuffer(shifted, dtype=np.uint8))
        np.testing.assert_array_equal(
            g.payload.view(np.uint32), from_bytes(buf).payload.view(np.uint32)
        )
        assert to_bytes(g) == buf

    def test_unstorable_header_values_rejected(self):
        payload = np.zeros((256, 1, 1), dtype=np.float32)
        with pytest.raises(WbptError, match="at most 255 entries"):
            WbptFile(kind=KIND_COMBINED, stride=8, manifest_hash=HASH64, payload=payload,
                     sections=((KIND_CONFIDENCE, 1),) * 256)
        with pytest.raises(WbptError, match="stride"):
            WbptFile(kind=KIND_PAF, stride=2**32, manifest_hash=HASH64, payload=payload)
        f = WbptFile(kind=KIND_PAF, stride=2**32 - 1, manifest_hash=HASH64, payload=payload)
        assert from_bytes(to_bytes(f)).stride == 2**32 - 1

    def test_mask_values_validated(self):
        payload = np.full((1, 2, 2), 0.5, dtype=np.float32)
        with pytest.raises(WbptError, match="0.0 or 1.0"):
            WbptFile(kind=KIND_MASK, stride=8, manifest_hash=HASH64, payload=payload)

    def test_directory_must_cover_channels(self):
        payload = np.zeros((3, 2, 2), dtype=np.float32)
        with pytest.raises(WbptError, match="directory covers"):
            WbptFile(
                kind=KIND_COMBINED,
                stride=8,
                manifest_hash=HASH64,
                payload=payload,
                sections=((KIND_CONFIDENCE, 1), (KIND_PAF, 1)),
            )

    @settings(max_examples=30, deadline=None)
    @given(
        kind=st.sampled_from([KIND_CONFIDENCE, KIND_PAF]),
        channels=st.integers(1, 6),
        h=st.integers(1, 9),
        w=st.integers(1, 9),
        stride=st.integers(1, 16),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_roundtrip_property(self, kind, channels, h, w, stride, seed):
        payload = np.random.default_rng(seed).standard_normal((channels, h, w)).astype(np.float32)
        f = WbptFile(kind=kind, stride=stride, manifest_hash=HASH64, payload=payload)
        buf = to_bytes(f)
        g = from_bytes(buf)
        assert to_bytes(g) == buf
        assert (g.map_w, g.map_h, g.channels, g.stride) == (w, h, channels, stride)
        np.testing.assert_array_equal(g.payload, payload)


class TestTargetsPacking:
    def test_encode_pack_unpack(self, tiny_topo):
        scene = AnnotatedScene(
            image_size=(64, 48),
            people=[
                Person(parts={
                    0: (30.0, 10.0, Visibility.LABELED),
                    1: (30.0, 20.0, Visibility.LABELED),
                    2: (32.0, 40.0, Visibility.LABELED),
                })
            ],
            coverage=frozenset({PartGroup.BODY, PartGroup.FOOT}),
        )
        targets = encode(scene, tiny_topo)
        f = from_targets(targets, tiny_topo.manifest_hash)
        assert f.kind == KIND_COMBINED
        assert f.manifest_hash == tiny_topo.manifest_hash
        back = to_targets(from_bytes(to_bytes(f)))
        np.testing.assert_array_equal(back.s_star, targets.s_star)
        np.testing.assert_array_equal(back.l_star, targets.l_star)
        np.testing.assert_array_equal(back.w_mask, targets.w_mask)
        assert back.stride == targets.stride
        assert back.image_size == targets.image_size

    def test_to_targets_returns_writeable_views_of_the_payload(self):
        buf = to_bytes(random_file(np.random.default_rng(9), kind=KIND_COMBINED))
        f = from_bytes(bytearray(buf))
        back = to_targets(f)
        for tensor in (back.s_star, back.l_star, back.w_mask):
            assert np.shares_memory(tensor, f.payload)
            assert tensor.flags.writeable
        back.l_star[0, 0, 0] = 7.0
        assert f.payload[1, 0, 0] == 7.0

        f = from_bytes(buf)
        back = to_targets(f)
        for tensor in (back.s_star, back.l_star, back.w_mask):
            assert np.shares_memory(tensor, np.frombuffer(buf, dtype=np.uint8))
            with pytest.raises(ValueError, match="read-only"):
                tensor[0, 0, 0] = 7.0

    def test_to_targets_needs_combined(self):
        f = random_file(np.random.default_rng(8), kind=KIND_PAF)
        with pytest.raises(WbptError, match="combined"):
            to_targets(f)


def random_targets(rng, channels=(2, 4, 6), h=5, w=7, dtype=np.float32):
    """Encoder-shaped S, L and W: S and L Gaussian noise, W zeros and ones."""
    n_s, n_l, n_w = channels
    return TargetTensors(
        s_star=rng.standard_normal((n_s, h, w)).astype(dtype),
        l_star=rng.standard_normal((n_l, h, w)).astype(dtype),
        w_mask=(rng.random((n_w, h, w)) > 0.3).astype(dtype),
        stride=8,
        image_size=(w * 8, h * 8),
    )


def traced_peak(fn):
    """(the peak bytes that tracemalloc sees fn hold above what was held
    before it, fn's result)."""
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        return tracemalloc.get_traced_memory()[1] - before, out
    finally:
        if not tracing:
            tracemalloc.stop()


def shares(payload, buf) -> bool:
    return np.shares_memory(payload, np.frombuffer(buf, dtype=np.uint8))


class TestOneCopy:
    # A whole-body frame: 136 confidence, 268 PAF and 404 mask channels.
    FRAME = dict(channels=(136, 268, 404), h=60, w=60)

    def test_packing_holds_one_copy_of_the_file(self):
        targets = random_targets(np.random.default_rng(20), **self.FRAME)
        peak, buf = traced_peak(lambda: to_bytes(from_targets(targets, HASH64)))
        assert len(buf) == 80 + 808 * 60 * 60 * 4
        assert peak <= 1.05 * len(buf)

    def test_reading_holds_no_full_size_temporary(self):
        buf = to_bytes(from_targets(random_targets(np.random.default_rng(21), **self.FRAME), HASH64))
        peak, f = traced_peak(lambda: from_bytes(buf))
        assert shares(f.payload, buf)
        assert peak <= 2**20

    def test_bytes_are_handed_back_without_a_copy(self):
        buf = to_bytes(random_file(np.random.default_rng(22), kind=KIND_COMBINED))
        assert to_bytes(from_bytes(buf)) is buf
        f = from_targets(random_targets(np.random.default_rng(23)), HASH64)
        out = to_bytes(f)
        assert shares(f.payload, out)
        assert to_bytes(f) is out
        assert not f.payload.flags.writeable and not f.payload.flags.owndata

    @pytest.mark.parametrize("source", ["bytearray", "memoryview", "version-1", "replace"])
    def test_other_files_are_encoded_anew(self, source):
        f = random_file(np.random.default_rng(24), kind=KIND_COMBINED)
        buf = to_bytes(f)
        g = {
            "bytearray": lambda: from_bytes(bytearray(buf)),
            "memoryview": lambda: from_bytes(memoryview(buf)),
            "version-1": lambda: from_bytes(wbpt_v1_bytes(f)),
            "replace": lambda: dataclasses.replace(from_bytes(buf)),
        }[source]()
        out = to_bytes(g)
        assert type(out) is bytes and out == buf and out is not buf
        assert not shares(g.payload, out)

    def test_packing_equals_encoding_the_concatenated_payload(self):
        targets = random_targets(np.random.default_rng(25), channels=(3, 2, 5), h=4, w=9)
        payload = np.concatenate([targets.s_star, targets.l_star, targets.w_mask])
        sections = ((KIND_CONFIDENCE, 3), (KIND_PAF, 2), (KIND_MASK, 5))
        concatenated = WbptFile(KIND_COMBINED, 8, HASH64, payload, sections)
        assert to_bytes(from_targets(targets, HASH64)) == to_bytes(concatenated)
        wide = random_targets(np.random.default_rng(25), channels=(3, 2, 5), h=4, w=9, dtype=np.float64)
        assert to_bytes(from_targets(wide, HASH64)) == to_bytes(concatenated)

    @pytest.mark.parametrize("shapes", [
        ((2, 4, 5), (4, 4, 6), (6, 4, 5)),
        ((2, 4, 5), (4, 4, 5), (6, 3, 5)),
        ((2, 4, 5), (4, 20), (6, 4, 5)),
    ], ids=["width", "height", "two-dimensional"])
    def test_packing_maps_of_different_sizes_is_refused(self, shapes):
        targets = TargetTensors(*(np.zeros(shape, np.float32) for shape in shapes), 8, (40, 32))
        message = re.escape(f"got shapes {shapes[0]}, {shapes[1]} and {shapes[2]}")
        with pytest.raises(ValueError, match=message):
            from_targets(targets, HASH64)


class TestMaskCheck:
    # One mask channel 2 blocks and 5 values long, so the last block is partial.
    SIZE = 2 * _MASK_BLOCK + 5
    BAD = [0.5, -1.0, np.nan, np.inf, -np.inf, np.nextafter(np.float32(0), np.float32(1)),
           np.nextafter(np.float32(1), np.float32(0)), np.nextafter(np.float32(1), np.float32(2))]

    def mask(self, bad=None, at=0):
        """Zeros and ones, with bad at index at and, where there is room,
        a second bad value at the end, which must not be the one reported."""
        mask = np.tile(np.float32([0.0, 1.0, 1.0]), self.SIZE)[: self.SIZE]
        if bad is not None:
            mask[-1] = 0.25
            mask[at] = bad
        return mask.reshape(1, 1, self.SIZE)

    def paths(self, mask):
        """Write the mask as a combined file, as a mask file, through
        from_targets, and read a combined file holding it."""
        combined = np.concatenate([np.zeros((2, 1, self.SIZE), np.float32), mask])
        sections = ((KIND_CONFIDENCE, 1), (KIND_PAF, 1), (KIND_MASK, 1))
        targets = TargetTensors(combined[:1], combined[1:2], mask, 8, (self.SIZE * 8, 8))
        clean = np.concatenate([combined[:2], self.mask()])
        buf = bytearray(to_bytes(WbptFile(KIND_COMBINED, 8, HASH64, clean, sections)))
        buf[-mask.nbytes:] = mask.tobytes()
        return [
            ("mask section", lambda: WbptFile(KIND_COMBINED, 8, HASH64, combined, sections)),
            ("mask payload", lambda: WbptFile(KIND_MASK, 8, HASH64, mask)),
            ("mask section", lambda: from_targets(targets, HASH64)),
            ("mask section", lambda: from_bytes(bytes(buf))),
        ]

    @pytest.mark.parametrize("bad", BAD, ids=repr)
    @pytest.mark.parametrize("at", [0, _MASK_BLOCK - 1, _MASK_BLOCK, SIZE - 1],
                             ids=["first", "end-of-block", "next-block", "last-partial-block"])
    def test_first_bad_value_is_reported(self, bad, at):
        found = float(np.float32(bad))
        assert found not in (0.0, 1.0)
        for what, make in self.paths(self.mask(bad, at)):
            with pytest.raises(WbptError, match=f"^{what} values must be 0.0 or 1.0, found "
                                                f"{re.escape(repr(found))}$"):
                make()

    def test_negative_zero_is_accepted(self):
        mask = self.mask()
        mask[mask == 0.0] = -0.0
        assert np.signbit(mask).any()
        for _, make in self.paths(mask):
            make()

    def test_first_bad_value_in_c_order_of_a_strided_payload(self):
        mask = np.asfortranarray(np.ones((3, 200, 300), np.float32))
        mask[2, 0, 0] = 0.5  # first in memory
        mask[0, 199, 299] = 0.25  # first in C order
        with pytest.raises(WbptError, match="found 0.25$"):
            WbptFile(KIND_MASK, 8, HASH64, mask)


class TestJsonDocuments:
    def scenes(self):
        return [
            AnnotatedScene(
                image_size=(100, 80),
                people=[
                    Person(parts={
                        0: (10.0, 12.5, Visibility.LABELED),
                        1: (11.0, 20.0, Visibility.OCCLUDED),
                        2: (0.0, 0.0, Visibility.MISSING),
                    })
                ],
                coverage=frozenset({PartGroup.BODY}),
                unlabeled_regions=[(1.0, 2.0, 3.0, 4.0)],
                scene_id=7,
            ),
            AnnotatedScene(
                image_size=(32, 32),
                people=[],
                coverage=frozenset({PartGroup.BODY, PartGroup.FOOT}),
                no_people=True,
                scene_id=8,
            ),
        ]

    def test_scene_roundtrip(self):
        original = self.scenes()
        doc = scenes_document(original, HASH64, seed=42)
        recovered = scenes_from_document(json.loads(json.dumps(doc)))
        assert recovered == original

    def test_provenance_fields(self):
        doc = scenes_document(self.scenes(), HASH64, seed=42)
        assert doc["tool_version"] == __version__
        assert doc["manifest_hash"] == HASH64
        assert doc["seed"] == 42

    def test_scene_from_obj_defaults(self):
        scene = scene_from_obj({"image_size": [10, 10], "coverage": ["body"], "people": []})
        assert scene.unlabeled_regions == [] and not scene.no_people and scene.scene_id == 0

    def test_poses_document_pixel_space(self):
        poses = {
            3: [Pose(parts={0: (2.0, 4.0, 0.9), 5: (1.5, 0.25, 0.7)}, person_score=3.1)],
            1: [],
        }
        doc = poses_document(poses, stride=8, manifest_hash=HASH64, seed=5)
        assert doc["stride"] == 8 and doc["seed"] == 5
        back = poses_from_document(json.loads(json.dumps(doc)))
        assert set(back) == {1, 3}
        (ep,) = back[3]
        assert ep.score == pytest.approx(3.1)
        assert ep.parts[0] == (16.0, 32.0)
        assert ep.parts[5] == (12.0, 2.0)

    @pytest.mark.parametrize("key", ["01", " 1", "1_0", "+1", "-0"])
    def test_non_canonical_part_key_rejected(self, key):
        # int() reads each of these keys, "01" as a second part 1 that would
        # silently replace the first.
        doc = json.loads(json.dumps(scenes_document(self.scenes(), HASH64)))
        doc["scenes"][0]["people"][0]["parts"][key] = [5.0, 5.0, "labeled"]
        with pytest.raises(DocumentError, match=re.escape(f"scene 7 person 0 parts: key '{key}'")):
            scenes_from_document(doc)

    @pytest.mark.parametrize("edit, node", [
        (lambda s: s.update(image_size=[True, 80]), "scene 7: image_size: expected int, got True"),
        (lambda s: s.update(scene_id=False), "scene_id: expected int, got False"),
        (lambda s: s["people"][0]["parts"]["0"].__setitem__(0, True),
         "scene 7 part 0: expected float, got True"),
    ], ids=["image-size", "scene-id", "coordinate"])
    def test_bool_is_not_a_number(self, edit, node):
        # JSON true is not 1: Python's bool is an int, so an isinstance test
        # alone would take it for one.
        doc = json.loads(json.dumps(scenes_document(self.scenes(), HASH64)))
        edit(doc["scenes"][0])
        with pytest.raises(DocumentError, match=re.escape(node)):
            scenes_from_document(doc)

    @pytest.mark.parametrize("key", ["03", " 3 ", "0_3"])
    def test_non_canonical_scene_key_rejected(self, key):
        pose = {"person_score": 1.0, "parts": {"0": [1.0, 2.0, 0.9]}}
        doc = {"poses": {"3": [pose], key: [pose, pose]}}
        with pytest.raises(DocumentError, match=re.escape(f"poses: key '{key}' is not a canonical")):
            poses_from_document(doc)

    @pytest.mark.parametrize("bad", ["NaN", "Infinity", "-Infinity"])
    def test_non_finite_values_rejected(self, bad):
        scenes = json.loads(json.dumps(scenes_document(self.scenes(), HASH64)))
        scenes["scenes"][0]["people"][0]["parts"]["1"][1] = float(bad)
        with pytest.raises(DocumentError, match="scene 7 part 1"):
            scenes_from_document(scenes)
        scenes = json.loads(json.dumps(scenes_document(self.scenes(), HASH64)))
        scenes["scenes"][0]["unlabeled_regions"][0][2] = float(bad)
        with pytest.raises(DocumentError, match="unlabeled region"):
            scenes_from_document(scenes)
        poses = {"poses": {"3": [{"person_score": 1.0, "parts": {"0": [1.0, 2.0, 0.9]}}]}}
        poses["poses"]["3"][0]["parts"]["0"][0] = float(bad)
        with pytest.raises(DocumentError, match="scene 3 pose 0 part 0"):
            poses_from_document(poses)
        poses["poses"]["3"][0]["parts"]["0"][0] = 1.0
        poses["poses"]["3"][0]["person_score"] = float(bad)
        with pytest.raises(DocumentError, match="person_score"):
            poses_from_document(poses)


class TestCocoIngestion:
    def toy(self):
        return json.loads((DATA / "toy_coco.json").read_text())

    def test_matches_hand_converted_fixture(self, topo):
        doc = ingest_coco(self.toy(), topo)
        expected = json.loads((DATA / "toy_coco_expected_scenes.json").read_text())
        assert doc["scenes"] == expected["scenes"]
        assert doc["manifest_hash"] == topo.manifest_hash

    def test_scenes_are_loadable_and_encodable(self, topo):
        doc = ingest_coco(self.toy(), topo)
        scenes = scenes_from_document(doc)
        assert [s.scene_id for s in scenes] == [10, 11, 12]
        assert scenes[2].no_people and not scenes[2].people
        targets = encode(scenes[0], topo)
        assert targets.s_star.max() > 0.9

    def test_unknown_category(self, topo):
        coco = self.toy()
        coco["annotations"][0]["category_id"] = 99
        with pytest.raises(DocumentError, match="unknown category"):
            ingest_coco(coco, topo)

    def test_keypoint_count_mismatch(self, topo):
        coco = self.toy()
        coco["annotations"][0]["keypoints"] = coco["annotations"][0]["keypoints"][:-3]
        with pytest.raises(DocumentError, match="keypoint values"):
            ingest_coco(coco, topo)

    def test_missing_person_category(self, topo):
        coco = self.toy()
        coco["categories"][0]["name"] = "giraffe"
        with pytest.raises(DocumentError, match="person"):
            ingest_coco(coco, topo)

    def test_bad_visibility_flag(self, topo):
        coco = self.toy()
        coco["annotations"][0]["keypoints"][2] = 3
        with pytest.raises(DocumentError, match="visibility"):
            ingest_coco(coco, topo)
