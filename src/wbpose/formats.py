"""Serialization surfaces: the WBPT tensor container, scenes/poses JSON
documents, and COCO-keypoint ingestion.

WBPT layout (all integers little-endian):

    magic      4 bytes  b"WBPT"
    version    u32      currently 2
    endianness u8       0x01 = little (the only value written or accepted)
    map_w      u32
    map_h      u32
    channels   u32
    stride     u32
    kind       u8       1 = confidence, 2 = paf, 3 = mask, 4 = combined
    manifest   32 bytes raw sha256 digest of the topology manifest
    directory  (kind 4 only) u8 count, then count * (u8 kind, u32 channels)
    pad        zero bytes up to the next multiple of 16 (version 2 only)
    payload    channels * map_h * map_w float32, channel-major, row-major

The manifest digest is embedded so a tensor file can refuse to be decoded
against the wrong topology.  A combined file holds the triple the network
trains on, confidence maps S, part affinity fields L and loss masks W, in
that order: its directory is (S, L, W) entries, each of at least one
channel, that cover the payload, so readers need no topology to slice it.
Any other directory is refused wherever a header is checked.

The pad puts the payload at byte 64 of a single-kind file and at byte 80
of a combined one, so ``from_bytes`` can hand it out as an aligned float32
view of the caller's buffer instead of a copy.  The view is read-only when
the buffer is (``bytes``, and so every file ``read_wbpt`` reads) and
writeable when it is not (a ``bytearray``).  Version 1 files, which have no
pad, are still read.  Their payload starts at byte 58 of a single-kind file
and at byte 74 of a combined one, off float32 alignment, so like
any buffer whose payload is not aligned they are read through a copy, which
is writeable.  ``to_bytes`` always writes version 2.

A file read from version 2 ``bytes`` without a copy keeps those bytes, and
``to_bytes`` returns them as they are instead of encoding the payload again.
``from_targets`` builds a file's bytes in one join and reads them back, so
its payload is such a read-only view and packing then writing a frame holds
one copy of it.  A ``bytearray`` or ``memoryview``, a version 1 file or a
``dataclasses.replace`` result is encoded anew.
"""
from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field, replace
from importlib import resources
from typing import Mapping, Sequence

import numpy as np

from . import __version__
from .decoder import Pose
from .encoder import AnnotatedScene, Person, TargetTensors, Visibility
from .jsondoc import DocumentError, id_keys, read, read_at_least
from .metrics import EvalPose
from .skeleton import PartGroup, SkeletonTopology

MAGIC = b"WBPT"
WBPT_VERSION = 2
# The payload of a version 2 file starts at a multiple of this many bytes.
PAYLOAD_ALIGN = 16
LITTLE_ENDIAN = 0x01

KIND_CONFIDENCE = 1
KIND_PAF = 2
KIND_MASK = 3
KIND_COMBINED = 4

_HEADER = struct.Struct("<4sIBIIIIB")
_DIR_ENTRY = struct.Struct("<BI")
# The kinds of a combined file's directory entries: S, L, W.
_COMBINED_KINDS = (KIND_CONFIDENCE, KIND_PAF, KIND_MASK)
_U32_MAX = 0xFFFFFFFF
# Mask values checked per block; 2**16 keeps the check's scratch at 128 KiB.
_MASK_BLOCK = 1 << 16

COCO_BODY_MAPPING_NAME = "coco_body_mapping.json"

# An unlabeled region of a scene, (x0, y0, x1, y1) in pixels.
_BOX = tuple[float, float, float, float]


class WbptError(ValueError):
    """A WBPT file failed validation."""


def _truncated(expected: int, actual: int, what: str) -> WbptError:
    """The file ends before the structure it promises is complete."""
    return WbptError(f"truncated WBPT file in {what}: expected {expected} bytes, got {actual}")


def _check_mask_values(values: np.ndarray, what: str) -> None:
    """Raise on the first value, in C order, that is neither 0.0 nor 1.0.
    Walks the values in blocks of at most _MASK_BLOCK, so its scratch is two
    block-sized bool buffers, not full-size temporaries."""
    zero = np.empty(_MASK_BLOCK, dtype=bool)
    one = np.empty(_MASK_BLOCK, dtype=bool)
    flags = ["external_loop", "buffered", "zerosize_ok"]
    for block in np.nditer(values, flags=flags, buffersize=_MASK_BLOCK, order="C"):
        ok = np.equal(block, 0.0, out=zero[: block.size])
        np.logical_or(ok, np.equal(block, 1.0, out=one[: block.size]), out=ok)
        if not ok.all():
            raise WbptError(f"{what} must be 0.0 or 1.0, found {float(block[ok.argmin()])!r}")


def _check_header(
    kind: int, stride: int, manifest_hash: str, sections: tuple[tuple[int, int], ...], channels: int
) -> None:
    """WbptFile's checks on the fields the header stores besides the kind
    and the map shape: manifest hash, stride and channel directory, which
    is (S, L, W) for a combined file and empty for any other."""
    if len(manifest_hash) != 64 or set(manifest_hash) - set("0123456789abcdef"):
        raise WbptError("manifest_hash must be a lowercase sha256 hex digest")
    if not 1 <= stride <= _U32_MAX:
        raise WbptError(f"stride must be in [1, {_U32_MAX}], got {stride}")
    if kind == KIND_COMBINED:
        kinds = tuple(k for k, _ in sections)
        if kinds != _COMBINED_KINDS:
            raise WbptError(f"combined file must hold S, L, W sections in order, got kinds {kinds}")
        if min(n for _, n in sections) < 1:
            raise WbptError("directory entries must cover at least one channel")
        total = sum(n for _, n in sections)
        if total != channels:
            raise WbptError(f"directory covers {total} channels, payload has {channels}")
    elif sections:
        raise WbptError("only combined files carry a channel directory")


@dataclass(frozen=True)
class WbptFile:
    """An in-memory WBPT container.

    ``payload`` is (channels, map_h, map_w) float32.  ``sections`` is the
    channel directory for combined files, ((1, S channels), (2, L channels),
    (3, W channels)); empty for single-kind files.
    """

    kind: int
    stride: int
    manifest_hash: str
    payload: np.ndarray
    sections: tuple[tuple[int, int], ...] = ()
    # The version 2 ``bytes`` that ``payload`` is a read-only view of, when
    # ``from_bytes`` read it without a copy; ``to_bytes`` hands it back.
    _encoded: bytes | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind not in (KIND_CONFIDENCE, KIND_PAF, KIND_MASK, KIND_COMBINED):
            raise WbptError(f"unknown kind byte {self.kind}")
        if self.payload.ndim != 3:
            raise WbptError(f"payload must be (channels, h, w), got shape {self.payload.shape}")
        if self.payload.dtype != np.float32:
            raise WbptError(f"payload must be float32, got {self.payload.dtype}")
        _check_header(self.kind, self.stride, self.manifest_hash, self.sections, self.channels)
        if self.kind == KIND_MASK:
            _check_mask_values(self.payload, "mask payload values")
        elif self.kind == KIND_COMBINED:
            n_w = self.sections[-1][1]
            _check_mask_values(self.payload[self.channels - n_w :], "mask section values")

    @property
    def channels(self) -> int:
        return self.payload.shape[0]

    @property
    def map_h(self) -> int:
        return self.payload.shape[1]

    @property
    def map_w(self) -> int:
        return self.payload.shape[2]


def _pad_size(at: int) -> int:
    return -at % PAYLOAD_ALIGN


def _encode_header(
    kind: int, map_w: int, map_h: int, channels: int, stride: int, manifest_hash: str,
    sections: tuple[tuple[int, int], ...],
) -> bytes:
    """Every byte of a version 2 file in front of the payload, pad included."""
    parts = [
        _HEADER.pack(MAGIC, WBPT_VERSION, LITTLE_ENDIAN, map_w, map_h, channels, stride, kind),
        bytes.fromhex(manifest_hash),
    ]
    if kind == KIND_COMBINED:
        parts.append(struct.pack("<B", len(sections)))
        parts += [_DIR_ENTRY.pack(k, n) for k, n in sections]
    head = b"".join(parts)
    return head + bytes(_pad_size(len(head)))


def to_bytes(f: WbptFile) -> bytes:
    """The version 2 encoding of f.  A file ``from_bytes`` read from
    version 2 ``bytes`` without a copy (so every ``from_targets`` result)
    gets those same bytes back, not a copy; any other file is encoded."""
    if f._encoded is not None:
        return f._encoded
    head = _encode_header(
        f.kind, f.map_w, f.map_h, f.channels, f.stride, f.manifest_hash, f.sections
    )
    return b"".join([head, np.ascontiguousarray(f.payload, dtype="<f4")])


def from_bytes(buf: bytes | bytearray | memoryview) -> WbptFile:
    """Read a WBPT file.  The payload is a view of ``buf`` where it is
    aligned (every version 2 file in a ``bytes`` or ``bytearray``), and a
    copy otherwise.  A version 2 ``bytes`` buffer read without a copy is what
    ``to_bytes`` of the result returns; see the module docstring."""
    if len(buf) < 4:
        raise _truncated(4, len(buf), "magic")
    if buf[:4] != MAGIC:
        raise WbptError(f"not a WBPT file: magic {bytes(buf[:4])!r}, expected {MAGIC!r}")
    if len(buf) < _HEADER.size:
        raise _truncated(_HEADER.size, len(buf), "header")
    _, version, endian, map_w, map_h, channels, stride, kind = _HEADER.unpack_from(buf, 0)
    if version > WBPT_VERSION or version < 1:
        raise WbptError(f"unsupported WBPT version {version}, this reader handles <= {WBPT_VERSION}")
    if endian != LITTLE_ENDIAN:
        raise WbptError(f"unknown endianness byte {endian:#x}")
    at = _HEADER.size
    if len(buf) < at + 32:
        raise _truncated(at + 32, len(buf), "manifest hash")
    manifest_hash = buf[at : at + 32].hex()
    at += 32
    sections: tuple[tuple[int, int], ...] = ()
    if kind == KIND_COMBINED:
        if len(buf) < at + 1:
            raise _truncated(at + 1, len(buf), "channel directory")
        (count,) = struct.unpack_from("<B", buf, at)
        at += 1
        need = at + count * _DIR_ENTRY.size
        if len(buf) < need:
            raise _truncated(need, len(buf), "channel directory")
        entries = []
        for _ in range(count):
            entries.append(_DIR_ENTRY.unpack_from(buf, at))
            at += _DIR_ENTRY.size
        sections = tuple((int(k), int(n)) for k, n in entries)
    if version >= 2:
        pad = _pad_size(at)
        if len(buf) < at + pad:
            raise _truncated(at + pad, len(buf), "header padding")
        if any(buf[at : at + pad]):
            raise WbptError("nonzero byte in the header padding")
        at += pad
    expected = at + channels * map_h * map_w * 4
    if len(buf) < expected:
        raise _truncated(expected, len(buf), "payload")
    if len(buf) > expected:
        raise WbptError(f"{len(buf) - expected} trailing bytes after payload")
    payload = np.frombuffer(buf, dtype="<f4", offset=at).reshape(channels, map_h, map_w)
    view = payload.flags.aligned
    if not view:
        payload = payload.astype(np.float32, copy=True)
    f = WbptFile(
        kind=int(kind),
        stride=int(stride),
        manifest_hash=manifest_hash,
        payload=payload,
        sections=sections,
    )
    if view and version == WBPT_VERSION and type(buf) is bytes:
        object.__setattr__(f, "_encoded", buf)
    return f


def write_wbpt(path, f: WbptFile) -> int:
    data = to_bytes(f)
    with open(path, "wb") as fh:
        fh.write(data)
    return len(data)


def read_wbpt(path) -> WbptFile:
    """from_bytes of the file at path; a WbptError names the path."""
    with open(path, "rb") as fh:
        buf = fh.read()
    try:
        return from_bytes(buf)
    except WbptError as e:
        raise WbptError(f"{path}: {e}") from None


def from_targets(targets: TargetTensors, manifest_hash: str) -> WbptFile:
    """Pack encoder output as a combined (kind 4) file: S, then L, then W.
    The file's bytes are built in one join and read back with ``from_bytes``,
    so the payload is a read-only view of them and ``to_bytes`` returns them
    without a copy.  Tensors of another dtype are converted to float32.
    Raises ValueError unless S, L and W are (channels, h, w) with one (h, w)."""
    tensors = (targets.s_star, targets.l_star, targets.w_mask)
    shapes = [np.shape(t) for t in tensors]
    if any(len(shape) != 3 for shape in shapes) or len({shape[1:] for shape in shapes}) > 1:
        raise ValueError(
            "S, L and W must be (channels, h, w) maps of one (h, w), "
            f"got shapes {shapes[0]}, {shapes[1]} and {shapes[2]}"
        )
    sections = tuple((kind, shape[0]) for kind, shape in zip(_COMBINED_KINDS, shapes))
    channels = sum(n for _, n in sections)
    _check_header(KIND_COMBINED, targets.stride, manifest_hash, sections, channels)
    _, map_h, map_w = shapes[0]
    head = _encode_header(
        KIND_COMBINED, map_w, map_h, channels, targets.stride, manifest_hash, sections
    )
    return from_bytes(b"".join([head, *(np.ascontiguousarray(t, dtype="<f4") for t in tensors)]))


def to_targets(f: WbptFile) -> TargetTensors:
    """Unpack a combined file.  The three tensors are views of f.payload and
    share its memory, and the payload stays alive while any of them does.
    They are writeable only if the payload is: ``from_bytes`` gives a
    read-only view of ``bytes`` (so of every file ``read_wbpt`` reads), and
    a writeable view of a ``bytearray``, which writes into the buffer too.
    A payload it had to copy is writeable.  The original image size is not
    stored, so it is reconstructed as map size * stride (exact when the
    image was a multiple of the stride, otherwise rounded up to the next
    cell)."""
    if f.kind != KIND_COMBINED:
        raise WbptError(f"need a combined (kind {KIND_COMBINED}) file, got kind {f.kind}")
    (_, n_s), (_, n_l), _ = f.sections
    return TargetTensors(
        s_star=f.payload[:n_s],
        l_star=f.payload[n_s : n_s + n_l],
        w_mask=f.payload[n_s + n_l :],
        stride=f.stride,
        image_size=(f.map_w * f.stride, f.map_h * f.stride),
    )


# ---------------------------------------------------------------------------
# Scenes / poses JSON documents.
#
# Scene coordinates are pixels, matching the annotation side of the encoder.
# Pose documents are also written in pixels (map coordinates * stride) so the
# two document types compare directly and OKS areas stay in one unit.


def _provenance(manifest_hash: str, seed: int | None) -> dict:
    out: dict = {"tool_version": __version__, "manifest_hash": manifest_hash}
    if seed is not None:
        out["seed"] = int(seed)
    return out


def scene_to_obj(scene: AnnotatedScene) -> dict:
    return {
        "scene_id": int(scene.scene_id),
        "image_size": [int(scene.image_size[0]), int(scene.image_size[1])],
        "coverage": sorted(g.value for g in scene.coverage),
        "no_people": bool(scene.no_people),
        "people": [
            {
                "parts": {
                    str(pid): [float(x), float(y), vis.value]
                    for pid, (x, y, vis) in sorted(person.parts.items())
                }
            }
            for person in scene.people
        ],
        "unlabeled_regions": [[float(v) for v in box] for box in scene.unlabeled_regions],
    }


def scene_from_obj(obj: Mapping) -> AnnotatedScene:
    """The scene of one scenes-document entry. Raises DocumentError on a
    malformed node: a non-finite coordinate, a negative scene_id or an
    image_size side below 1 px among them."""
    scene_id = read_at_least(read(obj, dict, "scene").get("scene_id", 0), int, 0, "scene_id")
    where = f"scene {scene_id}"
    people = []
    for i, p in enumerate(read(obj.get("people", []), list[dict], where, "people")):
        parts = id_keys(p.get("parts"), f"{where} person {i} parts")
        people.append(Person(parts={
            pid: read(xyv, tuple[float, float, Visibility], f"{where} part {pid}")
            for pid, xyv in parts.items()
        }))
    image_size = read_at_least(obj.get("image_size"), tuple[int, int], 1, where, "image_size")
    coverage = read(obj.get("coverage"), frozenset[PartGroup], where, "coverage")
    regions = read(obj.get("unlabeled_regions", []), list[_BOX], f"{where} unlabeled region")
    no_people = read(obj.get("no_people", False), bool, where, "no_people")
    try:
        return AnnotatedScene(image_size, people, coverage, regions, no_people, scene_id)
    except ValueError as exc:  # AnnotatedScene's own consistency check
        raise DocumentError(f"{where}: {exc}") from None


def scenes_document(
    scenes: Sequence[AnnotatedScene], manifest_hash: str, seed: int | None = None
) -> dict:
    doc = _provenance(manifest_hash, seed)
    doc["scenes"] = [scene_to_obj(s) for s in scenes]
    return doc


def scenes_from_document(doc: Mapping) -> list[AnnotatedScene]:
    scenes = read(read(doc, dict, "scenes document").get("scenes"), list, "scenes")
    return [scene_from_obj(obj) for obj in scenes]


def pose_to_obj(pose: Pose, stride: int) -> dict:
    return {
        "person_score": float(pose.person_score),
        "parts": {
            str(pid): [float(x) * stride, float(y) * stride, float(s)]
            for pid, (x, y, s) in sorted(pose.parts.items())
        },
    }


def poses_document(
    poses_by_scene: Mapping[int, Sequence[Pose]],
    stride: int,
    manifest_hash: str,
    seed: int | None = None,
) -> dict:
    doc = _provenance(manifest_hash, seed)
    doc["stride"] = int(stride)
    doc["poses"] = {
        str(scene_id): [pose_to_obj(p, stride) for p in poses]
        for scene_id, poses in sorted(poses_by_scene.items())
    }
    return doc


def poses_from_document(doc: Mapping) -> dict[int, list[EvalPose]]:
    """Pixel-space poses keyed by scene id, ready for the evaluator. Raises
    DocumentError on a malformed node, a non-finite number among them."""
    out: dict[int, list[EvalPose]] = {}
    for scene_id, poses in id_keys(read(doc, dict, "poses document").get("poses"), "poses").items():
        out[scene_id] = []
        for i, p in enumerate(read(poses, list[dict], f"scene {scene_id} poses")):
            where = f"scene {scene_id} pose {i}"
            out[scene_id].append(EvalPose(
                parts={
                    pid: read(xys, tuple[float, float, float], f"{where} part {pid}")[:2]
                    for pid, xys in id_keys(p.get("parts"), where, "parts").items()
                },
                score=read(p.get("person_score"), float, where, "person_score"),
            ))
    return out


# ---------------------------------------------------------------------------
# COCO keypoint ingestion.


_COCO_VIS = {0: Visibility.MISSING, 1: Visibility.OCCLUDED, 2: Visibility.LABELED}


def default_coco_mapping() -> dict:
    path = resources.files("wbpose") / "data" / COCO_BODY_MAPPING_NAME
    return json.loads(path.read_text(encoding="utf-8"))


def read_coco_mapping(mapping: Mapping, topo: SkeletonTopology) -> tuple[str, frozenset, dict]:
    """A COCO name mapping's category, part groups and {COCO keypoint name:
    part id}; DocumentError on a malformed node or a name the topology lacks."""
    mapping = read(mapping, dict, "mapping")
    category_name = read(mapping.get("category"), str, "mapping category")
    coverage = read(mapping.get("groups"), frozenset[PartGroup], "mapping groups")
    names = read(mapping.get("keypoints"), dict, "mapping keypoints")
    part_id = {p.name: p.part_id for p in topo.parts}
    for coco_name, ours in names.items():
        if read(ours, str, "mapping keypoints", coco_name) not in part_id:
            raise DocumentError(f"mapping names {ours!r} for {coco_name!r}, a part the topology lacks")
    return category_name, coverage, {coco_name: part_id[ours] for coco_name, ours in names.items()}


def ingest_coco(
    coco: Mapping,
    topo: SkeletonTopology,
    mapping: Mapping | None = None,
    seed: int | None = None,
) -> dict:
    """Convert a COCO keypoint document into a scenes document.

    The mapping names the COCO category, the part groups it covers, and the
    keypoint-name correspondence.  Visibility flags map 0/1/2 to
    missing/occluded/labeled.  Crowd annotations contribute their boxes as
    unlabeled regions instead of people; images without annotations become
    explicit no-people scenes.  Scene ids are the COCO image ids and output
    order follows ascending image id.  DocumentError on a malformed node
    of either document (a negative image id, or a width or height below
    1 px, among them), or a mapping name the topology lacks.
    """
    mapping = default_coco_mapping() if mapping is None else mapping
    category_name, coverage, part_of_name = read_coco_mapping(mapping, topo)

    coco = read(coco, dict, "COCO document")
    categories = read(coco.get("categories", []), list[dict], "COCO categories")
    known_ids = {read(c.get("id"), int, "COCO category id") for c in categories}
    cat_ids = {c["id"] for c in categories if c.get("name") == category_name}
    if not cat_ids:
        raise DocumentError(f"no category named {category_name!r} in the document")
    name_order = list(part_of_name)
    for c in categories:
        if c["id"] in cat_ids and "keypoints" in c:
            name_order = read(c["keypoints"], list[str], f"COCO category {c['id']} keypoints")
    part_of_slot = [part_of_name.get(coco_name) for coco_name in name_order]

    by_id: dict[int, AnnotatedScene] = {}
    for img in read(coco.get("images"), list[dict], "COCO images"):
        img_id = read_at_least(img.get("id"), int, 0, "COCO image id")
        if img_id in by_id:
            raise DocumentError(f"two images have id {img_id}")
        size = read_at_least(
            [img.get("width"), img.get("height")], tuple[int, int], 1, f"image {img_id} size"
        )
        by_id[img_id] = AnnotatedScene(size, [], coverage, scene_id=img_id)
    for ann in read(coco.get("annotations", []), list[dict], "COCO annotations"):
        where = f"annotation {ann.get('id')}"
        cid = read(ann.get("category_id"), int, where, "category_id")
        if cid not in known_ids:
            raise DocumentError(f"{where} has unknown category id {cid}")
        if cid not in cat_ids:
            continue
        image_id = read(ann.get("image_id"), int, where, "image_id")
        if image_id not in by_id:
            raise DocumentError(f"{where} references missing image {image_id}")
        if read(ann.get("iscrowd", 0), int, where, "iscrowd"):
            x, y, w, h = read(ann.get("bbox"), _BOX, where, "bbox")
            by_id[image_id].unlabeled_regions.append((x, y, x + w, y + h))
            continue
        kp = read(ann.get("keypoints"), list, where, "keypoints")
        if len(kp) != 3 * len(part_of_slot):
            raise DocumentError(
                f"{where} has {len(kp)} keypoint values, expected {3 * len(part_of_slot)}"
            )
        parts: dict[int, tuple[float, float, Visibility]] = {}
        for slot, pid in enumerate(part_of_slot):
            if pid is None:
                continue
            x, y, v = read(kp[3 * slot : 3 * slot + 3], tuple[float, float, float], where, "keypoints")
            if v not in _COCO_VIS:
                raise DocumentError(f"{where} has visibility flag {v:g}")
            parts[pid] = (x, y, _COCO_VIS[v])
        by_id[image_id].people.append(Person(parts=parts))
    scenes = [
        replace(s, no_people=not s.people and not s.unlabeled_regions) for _, s in sorted(by_id.items())
    ]
    return scenes_document(scenes, topo.manifest_hash, seed)
