"""Skeleton topology: parts, limbs, anchors and the channel layout they induce.

Topology is data, not code. A manifest (JSON) lists parts with their group
(body / foot / face / hand), limbs as ordered (src, dst) part pairs, anchor
parts bridging two groups, and per-part OKS falloff constants. The channel
layout is fixed by the manifest: confidence channel c == part_id (plus an
optional trailing background channel), PAF channels (2*limb_id, 2*limb_id+1).
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from enum import Enum
from functools import lru_cache
from importlib import resources
from pathlib import Path
from typing import Mapping

from .jsondoc import DocumentError, id_keys, read

MANIFEST_VERSION = 1

DEFAULT_MANIFEST_NAME = "wholebody135.json"


class PartGroup(str, Enum):
    BODY = "body"
    FOOT = "foot"
    FACE = "face"
    HAND = "hand"


class Side(str, Enum):
    LEFT = "left"
    RIGHT = "right"
    CENTER = "center"


@dataclass(frozen=True)
class Part:
    part_id: int
    name: str
    group: PartGroup
    side: Side


@dataclass(frozen=True)
class Limb:
    limb_id: int
    src: int
    dst: int
    # Group owning the limb's PAF channel pair. Resolved at load time as the
    # dst part's group, so cross-group limbs (eye -> face, wrist -> thumb)
    # belong to the non-body group they serve.
    group: PartGroup


@dataclass(frozen=True)
class Anchor:
    part_id: int
    group_a: PartGroup
    group_b: PartGroup


@dataclass(frozen=True)
class SkeletonTopology:
    parts: tuple[Part, ...]
    limbs: tuple[Limb, ...]
    anchors: tuple[Anchor, ...]
    oks_kappa: tuple[float, ...]
    background_channel: bool
    template_pose: Mapping[int, tuple[float, float]] | None
    manifest_hash: str

    @property
    def n_parts(self) -> int:
        return len(self.parts)

    @property
    def n_limbs(self) -> int:
        return len(self.limbs)

    @property
    def confidence_channels(self) -> int:
        return self.n_parts + (1 if self.background_channel else 0)

    @property
    def paf_channels(self) -> int:
        return 2 * self.n_limbs

    @property
    def background_index(self) -> int | None:
        return self.n_parts if self.background_channel else None

    def part_by_name(self, name: str) -> Part:
        for p in self.parts:
            if p.name == name:
                return p
        raise KeyError(name)

    def parts_of_group(self, group: PartGroup) -> tuple[Part, ...]:
        return tuple(p for p in self.parts if p.group == group)

    def confidence_channel_groups(self) -> list[PartGroup | None]:
        """Group per confidence channel; None for the background channel."""
        groups: list[PartGroup | None] = [p.group for p in self.parts]
        if self.background_channel:
            groups.append(None)
        return groups

    def paf_channel_groups(self) -> list[PartGroup]:
        """Group per PAF channel (both channels of a limb share its group)."""
        out: list[PartGroup] = []
        for limb in self.limbs:
            out.extend((limb.group, limb.group))
        return out


def _manifest_hash(manifest: Mapping) -> str:
    canon = json.dumps(manifest, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def load_topology(source: str | Path | Mapping) -> SkeletonTopology:
    """Parse and validate a topology manifest (path or already-parsed dict).

    Raises DocumentError on an ill-typed node, on structural problems (a
    limb that closes a cycle among them: decoding assembles poses over a
    forest), and when some part cannot be reached from any body part or
    anchor.
    """
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            source = json.load(fh)
    manifest = dict(read(source, dict, "manifest"))

    version = read(manifest.get("manifest_version"), int, "manifest_version")
    if version != MANIFEST_VERSION:
        raise DocumentError(f"unsupported manifest_version {version!r}, expected {MANIFEST_VERSION}")

    raw_parts = read(manifest.get("parts"), list[dict], "manifest parts")
    if not raw_parts:
        raise DocumentError("manifest declares no parts")
    seen_ids: set[int] = set()
    seen_names: set[str] = set()
    parts: list[Part] = []
    for idx, entry in enumerate(raw_parts):
        pid = read(entry.get("id"), int, f"part {idx} id")
        if pid in seen_ids:
            raise DocumentError(f"duplicate part id {pid}")
        seen_ids.add(pid)
        name = read(entry.get("name"), str, f"part {pid} name")
        if name in seen_names:
            raise DocumentError(f"duplicate part name {name!r}")
        seen_names.add(name)
        group = read(entry.get("group"), PartGroup, f"part {pid} group")
        side = read(entry.get("side", "center"), Side, f"part {pid} side")
        parts.append(Part(pid, name, group, side))
    n_parts = len(parts)
    if seen_ids != set(range(n_parts)):
        raise DocumentError("part ids must be contiguous from 0 (they fix the channel layout)")
    parts.sort(key=lambda p: p.part_id)
    group_of = {p.part_id: p.group for p in parts}

    limbs: list[Limb] = []
    tree_of = list(range(n_parts))  # union-find over parts joined by limbs

    def root(pid: int) -> int:
        while tree_of[pid] != pid:
            tree_of[pid] = tree_of[tree_of[pid]]
            pid = tree_of[pid]
        return pid

    for idx, entry in enumerate(read(manifest.get("limbs"), list[dict], "manifest limbs")):
        lid = read(entry.get("id", idx), int, f"limb {idx} id")
        if lid != idx:
            raise DocumentError(f"limb ids must be contiguous from 0 in order, got {lid} at index {idx}")
        src, dst = (read(entry.get(end), int, f"limb {lid} {end}") for end in ("src", "dst"))
        for ref in (src, dst):
            if ref not in seen_ids:
                raise DocumentError(f"limb {lid} references unknown part {ref}")
        if src == dst:
            raise DocumentError(f"limb {lid} is degenerate (src == dst == {src})")
        rs, rd = root(src), root(dst)
        if rs == rd:
            raise DocumentError(
                f"limb {lid} ({src} -> {dst}) closes a cycle; the limb graph must be a forest"
            )
        tree_of[rs] = rd
        limbs.append(Limb(lid, src, dst, group_of[dst]))

    anchors: list[Anchor] = []
    for idx, entry in enumerate(read(manifest.get("anchors"), list[dict], "manifest anchors")):
        pid = read(entry.get("part"), int, f"anchor {idx} part")
        if pid not in seen_ids:
            raise DocumentError(f"anchor references unknown part {pid}")
        ga, gb = read(entry.get("groups"), tuple[PartGroup, PartGroup], f"anchor part {pid} groups")
        if ga == gb:
            raise DocumentError(f"anchor part {pid} must bridge two distinct groups")
        if group_of[pid] not in (ga, gb):
            raise DocumentError(f"anchor part {pid} does not belong to either bridged group")
        anchors.append(Anchor(pid, ga, gb))

    kappa = [0.0] * n_parts
    for pid, val in id_keys(manifest.get("oks_kappa"), "manifest oks_kappa").items():
        if pid not in seen_ids:
            raise DocumentError(f"oks_kappa references unknown part {pid}")
        kappa[pid] = read(val, float, f"oks_kappa of part {pid}")
    for p in parts:
        if not kappa[p.part_id] > 0.0:
            raise DocumentError(f"non-positive oks_kappa for part {p.part_id} ({p.name})")

    # Every part must be reachable from a body part or a declared anchor,
    # otherwise decode could never attach the orphaned parts to a person.
    seeds = {p.part_id for p in parts if p.group == PartGroup.BODY}
    seeds.update(a.part_id for a in anchors)
    if not seeds:
        raise DocumentError("topology has no body parts and no anchors to root assembly")
    seed_roots = {root(pid) for pid in seeds}
    orphans = [pid for pid in range(n_parts) if root(pid) not in seed_roots]
    if orphans:
        orphan_groups = sorted({group_of[pid].value for pid in orphans})
        raise DocumentError(
            f"groups {orphan_groups} have parts unreachable from any anchor or body part: {orphans[:8]}"
        )

    background = read(manifest.get("background_channel", True), bool, "manifest background_channel")
    template: dict[int, tuple[float, float]] | None = None
    if manifest.get("template_pose") is not None:
        template = {}
        for pid, xy in id_keys(manifest["template_pose"], "manifest template_pose").items():
            if pid not in seen_ids:
                raise DocumentError(f"template_pose references unknown part {pid}")
            template[pid] = read(xy, tuple[float, float], f"template_pose of part {pid}")
        if set(template) != seen_ids:
            raise DocumentError("template_pose must cover every part or be omitted")

    return SkeletonTopology(
        parts=tuple(parts),
        limbs=tuple(limbs),
        anchors=tuple(anchors),
        oks_kappa=tuple(kappa),
        background_channel=background,
        template_pose=template,
        manifest_hash=_manifest_hash(manifest),
    )


@lru_cache(maxsize=1)
def default_topology() -> SkeletonTopology:
    """The packaged 135-part whole-body topology (25 body+foot, 70 face, 2x20 hand)."""
    ref = resources.files("wbpose") / "data" / DEFAULT_MANIFEST_NAME
    with resources.as_file(ref) as path:
        return load_topology(path)


def default_manifest_path() -> Path:
    ref = resources.files("wbpose") / "data" / DEFAULT_MANIFEST_NAME
    with resources.as_file(ref) as path:
        return Path(path)
