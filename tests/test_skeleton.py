"""Topology loading, validation and channel layout."""

import copy
import importlib.util
import json
from pathlib import Path

import pytest

from wbpose.jsondoc import DocumentError
from wbpose.skeleton import PartGroup, default_manifest_path, load_topology

from conftest import tiny_manifest


def test_default_counts(topo):
    assert topo.n_parts == 135
    assert topo.n_limbs == 134
    by_group = {g: len(topo.parts_of_group(g)) for g in PartGroup}
    assert by_group[PartGroup.BODY] == 19
    assert by_group[PartGroup.FOOT] == 6
    assert by_group[PartGroup.FACE] == 70
    assert by_group[PartGroup.HAND] == 40


def test_default_channel_counts_include_background(topo):
    assert topo.confidence_channels == 135 + 1
    assert topo.paf_channels == 2 * 134
    assert topo.background_index == 135


def test_single_part_topology_is_valid_degenerate():
    t = load_topology({
        "manifest_version": 1,
        "background_channel": False,
        "parts": [{"id": 0, "name": "nose", "group": "body", "side": "center"}],
        "limbs": [],
        "anchors": [],
        "oks_kappa": {"0": 0.026},
    })
    assert (t.confidence_channels, t.paf_channels) == (1, 0)


def body_manifest(n_parts, limbs):
    return {
        "manifest_version": 1,
        "background_channel": False,
        "parts": [{"id": i, "name": f"p{i}", "group": "body", "side": "center"}
                  for i in range(n_parts)],
        "limbs": [{"id": i, "src": s, "dst": d} for i, (s, d) in enumerate(limbs)],
        "anchors": [],
        "oks_kappa": {str(i): 0.05 for i in range(n_parts)},
    }


def test_channel_counts_for_26_limb_body_manifest():
    # 27-part body-only manifest with 26 limbs (a tree) and no background.
    t = load_topology(body_manifest(27, [(0, i + 1) for i in range(26)]))
    assert (t.confidence_channels, t.paf_channels) == (27, 52)


@pytest.mark.parametrize("n_parts, limbs, closing", [
    (3, [(0, 1), (1, 2), (2, 0)], 2),  # 3-part cycle
    (3, [(0, 1), (0, 1), (1, 2)], 1),  # the same limb twice
    # 25 parts with 26 limbs cannot be a forest; limb 24 (1 -> 2) closes
    # the first cycle through part 0.
    (25, [(0, i + 1) for i in range(24)] + [(1, 2), (3, 4)], 24),
])
def test_cyclic_limb_graph_rejected(n_parts, limbs, closing):
    s, d = limbs[closing]
    with pytest.raises(DocumentError, match=rf"limb {closing} \({s} -> {d}\) closes a cycle"):
        load_topology(body_manifest(n_parts, limbs))


def test_bundled_manifest_matches_generator_script():
    script = Path(__file__).resolve().parents[1] / "scripts" / "make_default_manifest.py"
    spec = importlib.util.spec_from_file_location("make_default_manifest", script)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    built = json.dumps(module.build(), indent=1) + "\n"
    assert built == default_manifest_path().read_text(encoding="utf-8")


def test_duplicate_part_id_rejected():
    m = tiny_manifest()
    m["parts"][1] = dict(m["parts"][1], id=0)
    with pytest.raises(DocumentError, match="duplicate|contiguous"):
        load_topology(m)


def test_limb_unknown_part_rejected():
    m = tiny_manifest()
    m["limbs"][0] = {"id": 0, "src": 1, "dst": 99}
    with pytest.raises(DocumentError, match="unknown part"):
        load_topology(m)


def test_nonpositive_kappa_rejected():
    m = tiny_manifest()
    m["oks_kappa"]["3"] = 0.0
    with pytest.raises(DocumentError, match="non-positive"):
        load_topology(m)


@pytest.mark.parametrize("table", ["oks_kappa", "template_pose"])
def test_non_canonical_part_key_rejected(table):
    # int("00") is 0, so this key would silently override part 0's entry.
    m = tiny_manifest()
    m[table]["00"] = m[table]["0"]
    with pytest.raises(DocumentError, match=f"manifest {table}: key '00' is not a canonical"):
        load_topology(m)


@pytest.mark.parametrize("key, value, node", [
    ("background_channel", "false", "manifest background_channel"),  # bool("false") is True
    ("anchors", [{"part": 2, "groups": ["body"]}], "anchor part 2 groups"),
    ("limbs", [{}], "limb 0 src"),
    ("oks_kappa", {"0": None}, "oks_kappa of part 0"),
])
def test_ill_typed_manifest_node_is_named(key, value, node):
    m = tiny_manifest()
    m[key] = value
    with pytest.raises(DocumentError, match=node):
        load_topology(m)


def test_disconnected_group_rejected():
    # Foot parts chained to each other but never attached to the body and
    # with no anchor declared: nothing can reach them.
    m = tiny_manifest()
    m["limbs"] = [
        {"id": 0, "src": 1, "dst": 0},
        {"id": 1, "src": 1, "dst": 2},
        {"id": 2, "src": 3, "dst": 4},
    ]
    m["anchors"] = []
    with pytest.raises(DocumentError, match="unreachable from any anchor or body part"):
        load_topology(m)


def test_anchors_are_cut_vertices_in_default(topo):
    # Dropping an anchor part must orphan at least one part of its non-body
    # group: anchors are the only bridges between the body and their group.
    ids = set(range(topo.n_parts))
    for anchor in topo.anchors:
        other = anchor.group_b if anchor.group_a == PartGroup.BODY else anchor.group_a
        keep = ids - {anchor.part_id}
        edges = [(l.src, l.dst) for l in topo.limbs
                 if l.src != anchor.part_id and l.dst != anchor.part_id]
        adj = {i: [] for i in keep}
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        seeds = [p.part_id for p in topo.parts_of_group(PartGroup.BODY)
                 if p.part_id != anchor.part_id]
        seen = set(seeds)
        stack = list(seeds)
        while stack:
            cur = stack.pop()
            for nxt in adj[cur]:
                if nxt not in seen:
                    seen.add(nxt)
                    stack.append(nxt)
        orphaned = [p.part_id for p in topo.parts_of_group(other) if p.part_id not in seen]
        assert orphaned, f"anchor {anchor.part_id} is not a cut vertex for {other}"


def test_limb_groups_follow_dst(topo):
    wrist = topo.part_by_name("l_wrist")
    thumb = topo.part_by_name("hand_l_thumb_1")
    limb = next(l for l in topo.limbs if l.src == wrist.part_id and l.dst == thumb.part_id)
    assert limb.group == PartGroup.HAND
    paf_groups = topo.paf_channel_groups()
    assert paf_groups[2 * limb.limb_id] == PartGroup.HAND
    assert paf_groups[2 * limb.limb_id + 1] == PartGroup.HAND


def test_channel_layout_is_identity(topo):
    groups = topo.confidence_channel_groups()
    assert len(groups) == topo.confidence_channels
    assert groups[-1] is None  # background
    for p in topo.parts:
        assert groups[p.part_id] == p.group


def test_template_pose_covers_all_parts(topo):
    assert topo.template_pose is not None
    assert set(topo.template_pose) == set(range(topo.n_parts))


def test_manifest_hash_stable_and_content_sensitive(topo):
    m = tiny_manifest()
    t1 = load_topology(m)
    t2 = load_topology(copy.deepcopy(m))
    assert t1.manifest_hash == t2.manifest_hash
    m2 = copy.deepcopy(m)
    m2["oks_kappa"]["0"] = 0.027
    assert load_topology(m2).manifest_hash != t1.manifest_hash


def test_wrists_shared_between_body_and_hand(topo):
    # The wrist part belongs to the body group yet roots the hand tree.
    for tag in ("l", "r"):
        wrist = topo.part_by_name(f"{tag}_wrist")
        assert wrist.group == PartGroup.BODY
        children = [l for l in topo.limbs if l.src == wrist.part_id and l.group == PartGroup.HAND]
        assert len(children) == 5  # one limb per finger
