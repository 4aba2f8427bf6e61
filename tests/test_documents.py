"""Single-node edits to each of the seven JSON documents the CLI reads.

Any one node of a valid document is replaced with a value of another JSON
kind, or one object key is deleted. The command that reads the document
must then succeed or exit 3 with one line naming the edited file; it must
never raise, and never exit 1 (a failed gate) or 2 (a usage error) because
of a document. Each library reader raises DocumentError itself, whose text
the command prints after the file's path.
"""
import copy
import io
import json
from functools import reduce
from operator import getitem
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wbpose.cli import EXIT_IO, EXIT_OK, EXIT_TOLERANCE, main
from wbpose.formats import default_coco_mapping, ingest_coco
from wbpose.jsondoc import DocumentError
from wbpose.scheduler import (
    build_plan,
    default_registry,
    read_plan_jsonl,
    registry_from_json,
    registry_to_json,
    write_plan_jsonl,
)
from wbpose.skeleton import default_topology, load_topology

from conftest import tiny_manifest

DATA = Path(__file__).parent / "data"

REPLACEMENTS = ("x", None, [], {}, -1, 1.5, True)
DELETE = "<delete key>"


def _poses():
    pose = {"person_score": 2.5, "parts": {"0": [40.0, 30.0, 0.9], "5": [52.0, 61.0, 0.7],
                                           "6": [28.0, 60.0, 0.8]}}
    return {"stride": 8, "poses": {"0": [pose], "4": [copy.deepcopy(pose)], "7": []}}


def _plan():
    buf = io.StringIO()
    write_plan_jsonl(build_plan(default_registry(), seed=1, n_batches=2, batch_size=2), buf)
    return [json.loads(line) for line in buf.getvalue().splitlines()]


# document name -> (valid document, argv reading it from {doc}, exit codes
# a well-typed edit may legitimately give besides 0 and 3).
DOCUMENTS = {
    "scenes": (json.loads((DATA / "toy_coco_expected_scenes.json").read_text()),
               ["encode", "--scenes", "{doc}"], ()),
    "poses": (_poses(), ["eval", "{doc}", "{valid}"], ()),
    "coco": (json.loads((DATA / "toy_coco.json").read_text()),
             ["encode", "--coco", "{doc}"], ()),
    "coco-mapping": (default_coco_mapping(),
                     ["encode", "--coco", str(DATA / "toy_coco.json"), "--mapping", "{doc}"], ()),
    "manifest": (tiny_manifest(), ["--manifest", "{doc}", "arch", "--ratio", "--n", "1"], ()),
    "registry": (registry_to_json(default_registry()),
                 ["sample-plan", "--registry", "{doc}", "--batches", "2", "--batch-size", "2",
                  "--out", "{out}"], ()),
    # The plan is JSON lines: its root is the list of lines. A well-typed
    # edit can change what the plan replays, which --check reports as drift.
    "plan": (_plan(), ["sample-plan", "--check", "{doc}"], (EXIT_TOLERANCE,)),
}


def _nodes(doc, path=()):
    yield path
    children = doc.items() if isinstance(doc, dict) else enumerate(doc) if isinstance(doc, list) else ()
    for key, child in children:
        yield from _nodes(child, path + (key,))


def _edits(name, doc):
    """Every (path, new value) single-node edit of doc; DELETE drops an object key."""
    out = []
    for path in _nodes(doc):
        if name == "plan" and not path:
            continue  # a plan file has no root node to replace
        out.extend((path, new) for new in REPLACEMENTS)
        if path and isinstance(reduce(getitem, path[:-1], doc), dict):
            out.append((path, DELETE))
    return out


def _apply(doc, path, new):
    if not path:
        return new
    doc = copy.deepcopy(doc)
    parent = reduce(getitem, path[:-1], doc)
    if new == DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = new
    return doc


@pytest.fixture(scope="module")
def workdir(tmp_path_factory):
    return tmp_path_factory.mktemp("documents")


@pytest.mark.parametrize("name", sorted(DOCUMENTS))
def test_single_node_edit_exits_0_or_3(name, workdir, capsys):
    valid, argv, also_allowed = DOCUMENTS[name]
    paths = {"doc": workdir / f"{name}.json", "valid": workdir / f"{name}-valid.json",
             "out": workdir / f"{name}-out.jsonl"}
    paths["valid"].write_text(json.dumps(valid))
    argv = ["--quiet"] + [arg.format(**paths) for arg in argv]

    @settings(max_examples=75, deadline=None, database=None,
              suppress_health_check=[HealthCheck.too_slow])
    @given(edit=st.sampled_from(_edits(name, valid)))
    def check(edit):
        doc = _apply(valid, *edit)
        if name == "plan":
            text = "".join(json.dumps(line) + "\n" for line in doc)
        else:
            text = json.dumps(doc)
        paths["doc"].write_text(text)
        code = main(argv)
        err = capsys.readouterr().err
        assert code in (EXIT_OK, EXIT_IO, *also_allowed), (edit, code, err)
        assert (code == EXIT_IO) == err.startswith("wbpose: "), (edit, code, err)
        if code == EXIT_IO:
            named = paths["doc"]
            if name == "coco-mapping" and edit == (("category",), "x"):
                # A category the COCO file lacks, which its reader reports.
                named = DATA / "toy_coco.json"
            assert err.startswith(f"wbpose: {named}: ") and err.count("\n") == 1, (edit, err)

    check()


# reader -> (the document it reads, the library call, one malformed node as
# a path and its new value, argv reading the document from {doc}).
READERS = {
    # Limb 3 (2 -> 0) joins ankle and nose, which the neck already joins.
    "load_topology": ("manifest", load_topology, (("limbs", 3), {"id": 3, "src": 2, "dst": 0}),
                      ["--manifest", "{doc}", "arch", "--ratio", "--n", "1"]),
    "registry_from_json": ("registry", registry_from_json, (("datasets", 1, "probability"), 2.0),
                           ["sample-plan", "--registry", "{doc}", "--out", "{out}"]),
    "read_plan_jsonl": ("plan", lambda doc: read_plan_jsonl(json.dumps(line) for line in doc),
                        ((0, "rng_algorithm"), "numpy-pcg64"), ["sample-plan", "--check", "{doc}"]),
    "ingest_coco": ("coco", lambda doc: ingest_coco(doc, default_topology()),
                    (("annotations", 0, "category_id"), 7), ["encode", "--coco", "{doc}"]),
}


@pytest.mark.parametrize("reader", sorted(READERS))
def test_reader_raises_document_error_with_the_printed_line(reader, workdir, capsys):
    name, call, edit, argv = READERS[reader]
    doc = _apply(DOCUMENTS[name][0], *edit)
    with pytest.raises(DocumentError) as info:
        call(doc)
    assert type(info.value) is DocumentError

    paths = {"doc": workdir / f"{reader}.json", "out": workdir / f"{reader}-out.jsonl"}
    paths["doc"].write_text(
        "".join(json.dumps(line) + "\n" for line in doc) if name == "plan" else json.dumps(doc)
    )
    assert main(["--quiet"] + [arg.format(**paths) for arg in argv]) == EXIT_IO
    assert capsys.readouterr().err == f"wbpose: {paths['doc']}: {info.value}\n"
