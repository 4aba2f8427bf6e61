import struct

import numpy as np
import pytest

from wbpose.skeleton import default_topology


@pytest.fixture(scope="session")
def topo():
    return default_topology()


def tiny_manifest():
    """A 5-part body+foot toy topology used across unit tests.

    neck -- nose, neck -- ankle, ankle -- big_toe, ankle -- heel; the ankle
    anchors the foot group.
    """
    return {
        "manifest_version": 1,
        "background_channel": False,
        "parts": [
            {"id": 0, "name": "nose", "group": "body", "side": "center"},
            {"id": 1, "name": "neck", "group": "body", "side": "center"},
            {"id": 2, "name": "ankle", "group": "body", "side": "left"},
            {"id": 3, "name": "big_toe", "group": "foot", "side": "left"},
            {"id": 4, "name": "heel", "group": "foot", "side": "left"},
        ],
        "limbs": [
            {"id": 0, "src": 1, "dst": 0},
            {"id": 1, "src": 1, "dst": 2},
            {"id": 2, "src": 2, "dst": 3},
            {"id": 3, "src": 2, "dst": 4},
        ],
        "anchors": [{"part": 2, "groups": ["body", "foot"]}],
        "oks_kappa": {"0": 0.026, "1": 0.079, "2": 0.089, "3": 0.068, "4": 0.066},
        "template_pose": {"0": [0.0, 0.0], "1": [0.0, 0.3], "2": [0.05, 0.8],
                          "3": [0.15, 0.95], "4": [0.0, 1.0]},
    }


@pytest.fixture()
def tiny_topo():
    from wbpose.skeleton import load_topology

    return load_topology(tiny_manifest())


@pytest.fixture(scope="module")
def tiny_topo_module():
    from wbpose.skeleton import load_topology

    return load_topology(tiny_manifest())


def wbpt_v1_bytes(f):
    """The version 1 encoding of a WbptFile, packed by hand: the version 2
    layout without the zero pad in front of the payload."""
    parts = [
        struct.pack("<4sIBIIIIB", b"WBPT", 1, 0x01, f.map_w, f.map_h, f.channels, f.stride, f.kind),
        bytes.fromhex(f.manifest_hash),
    ]
    if f.sections:
        parts.append(struct.pack("<B", len(f.sections)))
        parts += [struct.pack("<BI", k, n) for k, n in f.sections]
    parts.append(np.asarray(f.payload, dtype="<f4").tobytes())
    return b"".join(parts)
