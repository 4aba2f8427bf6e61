"""End-to-end command-line tests: every subcommand, every exit-code class."""
import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from wbpose import __version__
from wbpose.archmodel import runtime_ratio
from wbpose.bench import BenchRecord
from wbpose.cli import DECODE_TOTALS, EXIT_IO, EXIT_OK, EXIT_TOLERANCE, EXIT_USAGE, main
from wbpose.formats import default_coco_mapping, read_wbpt, to_targets, write_wbpt

from conftest import tiny_manifest, wbpt_v1_bytes

DATA = Path(__file__).parent / "data"
SRC = Path(__file__).resolve().parents[1] / "src"


def src_env():
    """The environment with this checkout's src/ first on PYTHONPATH, for
    a fresh interpreter."""
    return {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )}


def test_cli_import_loads_no_scipy():
    # A fresh interpreter, so no other test's imports can load scipy first.
    code = ("import sys, wbpose.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"


def strict_json(text):
    """json.loads that refuses the NaN and Infinity tokens, which are not JSON."""
    def reject(token):
        raise ValueError(f"{token} is not a JSON number")
    return json.loads(text, parse_constant=reject)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, strict_json(out) if out.strip() else None


def inf_frame(pipeline, tmp_path):
    """Scene 0's tensor file with +inf on the peak of its first confidence
    channel."""
    f = read_wbpt(pipeline / "tensors" / "scene_000000.wbpt")
    payload = f.payload.copy()
    payload[0].flat[np.argmax(payload[0])] = np.inf
    path = tmp_path / "scene_000000.wbpt"
    write_wbpt(path, dataclasses.replace(f, payload=payload))
    return path


def nonfinite_paf_frame(pipeline, tmp_path, value):
    """Scene 0's tensor file with value on 1% of its nonzero PAF cells."""
    f = read_wbpt(pipeline / "tensors" / "scene_000000.wbpt")
    payload = f.payload.copy()
    n_s, n_l = f.sections[0][1], f.sections[1][1]
    paf = payload[n_s:n_s + n_l]
    cells = np.flatnonzero(paf)
    paf.flat[np.random.default_rng(0).choice(cells, cells.size // 100, replace=False)] = value
    path = tmp_path / "scene_000000.wbpt"
    write_wbpt(path, dataclasses.replace(f, payload=payload))
    return path


@pytest.fixture(scope="module")
def pipeline(tmp_path_factory):
    """synth -> encode -> decode artifacts shared by the read-only tests."""
    root = tmp_path_factory.mktemp("cli")
    scenes = root / "scenes.json"
    tensors = root / "tensors"
    poses = root / "poses.json"
    base = ["--seed", "7"]
    assert main(base + ["--quiet", "synth", "--n-scenes", "2", "--n-people", "2",
                        "--image-size", "320x320", "--coverage", "body,foot",
                        "--out", str(scenes)]) == EXIT_OK
    assert main(base + ["--quiet", "encode", "--scenes", str(scenes),
                        "--out-dir", str(tensors)]) == EXIT_OK
    assert main(base + ["--quiet", "decode"] + sorted(str(p) for p in tensors.glob("*.wbpt"))
                + ["--out", str(poses)]) == EXIT_OK
    return root


class TestPipeline:
    def test_artifacts_exist(self, pipeline):
        assert sorted(p.name for p in (pipeline / "tensors").glob("*.wbpt")) == [
            "scene_000000.wbpt", "scene_000001.wbpt",
        ]
        doc = json.loads((pipeline / "poses.json").read_text())
        assert doc["tool_version"] == __version__
        assert doc["seed"] == 7
        assert set(doc["poses"]) == {"0", "1"}
        assert sum(len(v) for v in doc["poses"].values()) == 4

    def test_tensor_files_decode_back(self, pipeline):
        f = read_wbpt(pipeline / "tensors" / "scene_000000.wbpt")
        targets = to_targets(f)
        assert targets.s_star.shape[1:] == (40, 40)
        assert float(targets.s_star.max()) > 0.9

    def test_decode_of_version_1_file_equals_its_rewrite(self, pipeline, tmp_path):
        v2 = pipeline / "tensors" / "scene_000000.wbpt"
        v1 = tmp_path / "v1" / v2.name
        v1.parent.mkdir()
        v1.write_bytes(wbpt_v1_bytes(read_wbpt(v2)))
        rewrite = tmp_path / "v2" / v2.name
        rewrite.parent.mkdir()
        write_wbpt(rewrite, read_wbpt(v1))
        assert rewrite.read_bytes() == v2.read_bytes() != v1.read_bytes()
        docs = []
        for path in (v1, rewrite):
            out = path.parent / "poses.json"
            assert main(["--seed", "7", "--quiet", "decode", str(path), "--out", str(out)]) == EXIT_OK
            docs.append(out.read_bytes())
        assert docs[0] == docs[1]
        assert json.loads(docs[0])["poses"]["0"]

    def test_scene_ids_come_from_filenames(self, pipeline):
        doc = json.loads((pipeline / "poses.json").read_text())
        for poses in doc["poses"].values():
            for p in poses:
                assert p["person_score"] > 0

    def test_decode_summary_counts_pairs(self, pipeline, capsys):
        tensors = sorted(str(p) for p in (pipeline / "tensors").glob("*.wbpt"))
        code, doc = run(capsys, "decode", *tensors)
        assert code == EXIT_OK
        assert (doc["n_scenes"], doc["n_poses"]) == (2, 4)
        assert doc["candidates"] > 0
        assert (doc["connections_scored"] >= doc["connections_kept"]
                >= doc["connections_valid"] >= doc["connections_accepted"] > 0)

    def test_eval_detections_against_themselves(self, pipeline, capsys):
        poses = str(pipeline / "poses.json")
        code, doc = run(capsys, "eval", poses, poses, "--group", "body")
        assert code == EXIT_OK
        assert doc["result"]["ap"] == 1.0 and doc["result"]["ar"] == 1.0
        assert doc["manifest_hash"]

    def test_eval_gate_fails_on_garbage(self, pipeline, capsys, tmp_path):
        doc = json.loads((pipeline / "poses.json").read_text())
        for poses in doc["poses"].values():
            for p in poses:
                p["parts"] = {k: [x + 500, y + 500, s] for k, (x, y, s) in p["parts"].items()}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        code, _ = run(capsys, "--quiet", "eval", str(bad), str(pipeline / "poses.json"),
                      "--min-ap", "0.5")
        assert code == EXIT_TOLERANCE

    def test_pr_csv_written(self, pipeline, capsys, tmp_path):
        poses = str(pipeline / "poses.json")
        pr = tmp_path / "pr.csv"
        code, _ = run(capsys, "--quiet", "eval", poses, poses, "--pr-csv", str(pr))
        assert code == EXIT_OK
        lines = pr.read_text().splitlines()
        assert lines[0] == "threshold,precision,recall"
        assert len(lines) == 11

    def test_loss_of_identical_tensors_is_zero(self, pipeline, capsys):
        t = str(pipeline / "tensors" / "scene_000000.wbpt")
        code, doc = run(capsys, "loss", "--pred", t, "--gt", t)
        assert code == EXIT_OK
        assert doc["loss"]["total"] == 0.0

    def test_loss_cross_scene_positive(self, pipeline, capsys):
        a = str(pipeline / "tensors" / "scene_000000.wbpt")
        b = str(pipeline / "tensors" / "scene_000001.wbpt")
        code, doc = run(capsys, "loss", "--pred", a, "--gt", b)
        assert code == EXIT_OK
        assert doc["loss"]["total"] > 0.0


class TestProvenance:
    def test_summary_carries_version_seed_hash(self, capsys, tmp_path):
        code, doc = run(capsys, "--seed", "11", "synth", "--n-scenes", "1",
                        "--n-people", "0", "--out", str(tmp_path / "s.json"))
        assert code == EXIT_OK
        assert doc["tool_version"] == __version__
        assert doc["seed"] == 11
        assert len(doc["manifest_hash"]) == 64

    def test_quiet_suppresses_stdout(self, capsys, tmp_path):
        code = main(["--quiet", "synth", "--n-scenes", "1", "--n-people", "0",
                     "--out", str(tmp_path / "s.json")])
        assert code == EXIT_OK
        assert capsys.readouterr().out == ""

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        for name in ("a.json", "b.json"):
            main(["--quiet", "--seed", "5", "synth", "--n-scenes", "2",
                  "--n-people", "2", "--image-size", "320x320", "--out", str(tmp_path / name)])
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()


class TestCocoEncode:
    def test_ingest_writes_scenes_doc(self, capsys, tmp_path):
        out = tmp_path / "scenes.json"
        code, doc = run(capsys, "encode", "--coco", str(DATA / "toy_coco.json"),
                        "--scenes-out", str(out))
        assert code == EXIT_OK
        assert doc["n_scenes"] == 3 and doc["files_written"] == []
        written = json.loads(out.read_text())
        expected = json.loads((DATA / "toy_coco_expected_scenes.json").read_text())
        assert written["scenes"] == expected["scenes"]

    def test_ingest_and_encode_tensors(self, capsys, tmp_path):
        code, doc = run(capsys, "encode", "--coco", str(DATA / "toy_coco.json"),
                        "--out-dir", str(tmp_path))
        assert code == EXIT_OK
        assert doc["files_written"] == [
            "scene_000010.wbpt", "scene_000011.wbpt", "scene_000012.wbpt",
        ]
        empty = to_targets(read_wbpt(tmp_path / "scene_000012.wbpt"))
        assert float(np.abs(empty.s_star[:-1]).max()) == 0.0


class TestPlan:
    def test_write_then_check_is_identical(self, capsys, tmp_path):
        plan = tmp_path / "plan.jsonl"
        code, doc = run(capsys, "--seed", "3", "sample-plan", "--batches", "4",
                        "--batch-size", "3", "--out", str(plan))
        assert code == EXIT_OK and doc["registry_hash"]
        code, doc = run(capsys, "sample-plan", "--check", str(plan))
        assert code == EXIT_OK and doc["identical"] is True

    def test_check_of_committed_plan_is_identical(self, capsys):
        code, doc = run(capsys, "sample-plan", "--check", str(DATA / "plan_seed17.jsonl"))
        assert code == EXIT_OK and doc["identical"] is True

    def test_check_flags_drift(self, capsys, tmp_path):
        plan = tmp_path / "plan.jsonl"
        main(["--quiet", "--seed", "3", "sample-plan", "--batches", "2",
              "--batch-size", "2", "--out", str(plan)])
        tampered = plan.read_text().replace('"seed": 3', '"seed": 4', 1)
        plan.write_text(tampered)
        code, doc = run(capsys, "sample-plan", "--check", str(plan))
        assert code == EXIT_TOLERANCE and doc["identical"] is False


class TestArch:
    def test_cost_mode(self, capsys):
        code, doc = run(capsys, "arch", "--spec", "4s, 5b, 96w")
        assert code == EXIT_OK
        assert doc["params"] > 0 and doc["macs"] > 0
        assert doc["receptive_field"] > 84  # deeper than the bare backbone

    def test_ratio_mode(self, capsys):
        code, doc = run(capsys, "arch", "--ratio", "--n", "1..10")
        assert code == EXIT_OK
        assert [row["n_people"] for row in doc["rows"]] == list(range(1, 11))
        ratios = [row["modeled_ratio"] for row in doc["rows"]]
        assert ratios == [runtime_ratio(n) for n in range(1, 11)]
        diffs = np.diff(ratios)
        assert np.all(diffs > 0)
        np.testing.assert_allclose(diffs, diffs[0])  # affine in n
        assert doc["ratio_at_10"] == 7.0
        # The model reads no measurements (no --fit) and writes no file (no --out).
        assert main(["--quiet", "arch", "--ratio", "--fit", "x.csv"]) == EXIT_USAGE
        assert main(["--quiet", "arch", "--ratio", "--out", "x.csv"]) == EXIT_USAGE

    @pytest.mark.parametrize("resolution", ["-8", "0"])
    def test_nonpositive_input_resolution_is_usage_error(self, capsys, resolution):
        assert main(["--quiet", "arch", "--spec", "4s, 5b, 96w",
                     "--input-resolution", resolution]) == EXIT_USAGE
        assert "input_resolution must be >= 1" in capsys.readouterr().err

    def test_malformed_spec(self, capsys):
        assert main(["--quiet", "arch", "--spec", "not a spec"]) == EXIT_USAGE


class TestExitCodes:
    def test_unknown_subcommand(self, capsys):
        assert main(["definitely-not-a-command"]) == EXIT_USAGE

    def test_missing_file_is_io_error(self, capsys):
        assert main(["--quiet", "decode", "nonexistent.wbpt"]) == EXIT_IO

    def test_bad_json_is_io_error(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        assert main(["--quiet", "encode", "--scenes", str(bad)]) == EXIT_IO

    @pytest.mark.parametrize("argv", [
        ["--manifest", "BAD", "arch", "--ratio"],
        ["encode", "--scenes", "BAD"],
        ["encode", "--coco", "BAD"],
        ["encode", "--coco", str(DATA / "toy_coco.json"), "--mapping", "BAD"],
        ["sample-plan", "--registry", "BAD", "--out", "plan.jsonl"],
        ["eval", "BAD", "POSES"],
        ["eval", "POSES", "BAD"],
    ], ids=["manifest", "scenes", "coco", "mapping", "registry", "detections", "groundtruth"])
    def test_json_syntax_error_names_the_file(self, pipeline, capsys, tmp_path, argv):
        text = '{"scenes": ['
        with pytest.raises(json.JSONDecodeError) as info:
            json.loads(text)
        bad = tmp_path / "trunc.json"
        bad.write_text(text)
        places = {"BAD": str(bad), "POSES": str(pipeline / "poses.json"),
                  "plan.jsonl": str(tmp_path / "plan.jsonl")}
        assert main(["--quiet", *(places.get(a, a) for a in argv)]) == EXIT_IO
        assert capsys.readouterr().err == f"wbpose: {bad}: {info.value}\n"

    @pytest.mark.parametrize("argv", [
        ["--manifest", "BAD", "arch", "--ratio"],
        ["encode", "--scenes", "BAD"],
        ["encode", "--coco", "BAD"],
        ["encode", "--coco", str(DATA / "toy_coco.json"), "--mapping", "BAD"],
        ["sample-plan", "--registry", "BAD", "--out", "plan.jsonl"],
        ["eval", "BAD", "POSES"],
        ["eval", "POSES", "BAD"],
    ], ids=["manifest", "scenes", "coco", "mapping", "registry", "detections", "groundtruth"])
    def test_document_not_utf8_names_the_file(self, pipeline, capsys, tmp_path, argv):
        data = b"\xff{}"
        with pytest.raises(UnicodeDecodeError) as info:
            data.decode("utf-8")
        bad = tmp_path / "latin.json"
        bad.write_bytes(data)
        places = {"BAD": str(bad), "POSES": str(pipeline / "poses.json"),
                  "plan.jsonl": str(tmp_path / "plan.jsonl")}
        assert main(["--quiet", *(places.get(a, a) for a in argv)]) == EXIT_IO
        assert capsys.readouterr().err == f"wbpose: {bad}: {info.value}\n"

    def test_plan_not_utf8_names_the_file(self, capsys, tmp_path):
        plan = tmp_path / "plan.jsonl"
        main(["--quiet", "sample-plan", "--batches", "3", "--out", str(plan)])
        data = plan.read_bytes()
        third = data.index(b"\n", data.index(b"\n") + 1) + 1
        data = data[:third] + b"\xff" + data[third:]
        with pytest.raises(UnicodeDecodeError) as info:
            data.decode("utf-8")
        plan.write_bytes(data)
        assert main(["--quiet", "sample-plan", "--check", str(plan)]) == EXIT_IO
        assert capsys.readouterr().err == f"wbpose: {plan}: {info.value}\n"

    def test_plan_syntax_error_names_the_line(self, capsys, tmp_path):
        plan = tmp_path / "plan.jsonl"
        main(["--quiet", "sample-plan", "--batches", "3", "--out", str(plan)])
        lines = plan.read_text().splitlines()
        lines[2] = lines[2].replace('"', "", 1)
        with pytest.raises(json.JSONDecodeError) as info:
            json.loads(lines[2])
        plan.write_text("\n".join(lines) + "\n")
        assert main(["--quiet", "sample-plan", "--check", str(plan)]) == EXIT_IO
        assert capsys.readouterr().err == f"wbpose: plan line 3: {info.value}\n"

    def test_decode_names_the_truncated_file(self, pipeline, capsys, tmp_path):
        good = pipeline / "tensors" / "scene_000000.wbpt"
        buf = good.read_bytes()
        bad = tmp_path / "scene_000001.wbpt"
        bad.write_bytes(buf[:-4])
        assert main(["--quiet", "decode", str(good), str(bad)]) == EXIT_IO
        assert capsys.readouterr().err == (
            f"wbpose: {bad}: truncated WBPT file in payload: "
            f"expected {len(buf)} bytes, got {len(buf) - 4}\n"
        )

    @pytest.mark.parametrize("cut",["one_paf_channel", "wider_map"])
    def test_loss_of_mismatched_shapes_is_format_error(self, pipeline, capsys, tmp_path, cut):
        gt_path = pipeline / "tensors" / "scene_000000.wbpt"
        gt = read_wbpt(gt_path)
        (s_kind, n_s), (l_kind, n_l), mask_section = gt.sections
        if cut == "one_paf_channel":  # would broadcast over all PAF channels
            payload = np.concatenate([gt.payload[: n_s + 1], gt.payload[n_s + n_l :]])
            sections = ((s_kind, n_s), (l_kind, 1), mask_section)
        else:
            payload = np.pad(gt.payload, ((0, 0), (0, 0), (0, 2)))
            sections = gt.sections
        pred_path = tmp_path / "pred.wbpt"
        write_wbpt(pred_path, dataclasses.replace(gt, payload=payload, sections=sections))
        code = main(["--quiet", "loss", "--pred", str(pred_path), "--gt", str(gt_path)])
        assert code == EXIT_IO
        err = capsys.readouterr().err
        assert str(pred_path) in err and str(gt_path) in err

    @pytest.mark.parametrize("side", ["pred", "gt"])
    def test_loss_of_non_finite_map_is_format_error(self, pipeline, capsys, tmp_path, side):
        # Any such cell makes the loss non-finite, which JSON cannot carry.
        files = {"pred": pipeline / "tensors" / "scene_000000.wbpt"}
        files["gt"] = files["pred"]
        files[side] = inf_frame(pipeline, tmp_path)
        code = main(["--quiet", "loss", "--pred", str(files["pred"]), "--gt", str(files["gt"])])
        assert code == EXIT_IO
        assert str(files[side]) in capsys.readouterr().err

    def test_decode_of_inf_cell_writes_strict_json(self, pipeline, capsys, tmp_path):
        # The +inf cell reads as -inf, so no score is non-finite and eval
        # reads the poses document back.
        poses = tmp_path / "p.json"
        code, _ = run(capsys, "decode", str(inf_frame(pipeline, tmp_path)), "--out", str(poses))
        assert code == EXIT_OK
        strict_json(poses.read_text())
        assert main(["--quiet", "eval", str(poses), str(poses)]) == EXIT_OK

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
    def test_decode_of_nonfinite_paf_cells_writes_strict_json(self, pipeline, capsys, tmp_path,
                                                              value):
        # A non-finite PAF sample fails and adds 0 to its pair's mean, so
        # every person score is finite and eval reads the document back.
        poses = tmp_path / "p.json"
        frame = nonfinite_paf_frame(pipeline, tmp_path, value)
        code, _ = run(capsys, "decode", str(frame), "--out", str(poses))
        assert code == EXIT_OK
        doc = strict_json(poses.read_text())
        assert doc["poses"]["0"]
        assert main(["--quiet", "eval", str(poses), str(poses)]) == EXIT_OK

    def test_empty_eval_group_is_usage_error(self, pipeline, capsys):
        poses = str(pipeline / "poses.json")
        assert main(["--quiet", "eval", poses, poses, "--group", ","]) == EXIT_USAGE
        assert "--group needs at least one part group" in capsys.readouterr().err
        # An empty coverage stays a valid scene recipe.
        assert main(["--quiet", "synth", "--coverage", ",", "--image-size", "64x64",
                     "--n-people", "0"]) == EXIT_OK

    @pytest.mark.parametrize("command", [
        ["synth", "--n-people", "0", "--image-size", "0x0"],
        ["roundtrip", "--n-people", "0", "--n-scenes", "1", "--image-size", "0x0"],
    ], ids=["synth", "roundtrip"])
    def test_image_side_below_one_is_usage_error(self, capsys, command):
        assert main(["--quiet"] + command) == EXIT_USAGE
        assert "image sides must be at least 1 px" in capsys.readouterr().err

    def test_nan_scene_coordinate_is_format_error(self, pipeline, capsys, tmp_path):
        doc = json.loads((pipeline / "scenes.json").read_text())
        part = next(iter(doc["scenes"][0]["people"][0]["parts"].values()))
        part[0] = float("nan")
        bad = tmp_path / "nan_scenes.json"
        bad.write_text(json.dumps(doc))  # json writes NaN and reads it back
        code = main(["--quiet", "encode", "--scenes", str(bad), "--out-dir", str(tmp_path / "t")])
        assert code == EXIT_IO
        assert "not a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("side", ["detections", "groundtruth"])
    def test_nan_pose_coordinate_is_format_error(self, pipeline, capsys, tmp_path, side):
        good = pipeline / "poses.json"
        doc = json.loads(good.read_text())
        part = next(iter(doc["poses"]["0"][0]["parts"].values()))
        part[1] = float("nan")
        bad = tmp_path / "nan_poses.json"
        bad.write_text(json.dumps(doc))
        files = [bad, good] if side == "detections" else [good, bad]
        assert main(["--quiet", "eval", *map(str, files)]) == EXIT_IO
        assert "not a finite number" in capsys.readouterr().err

    def test_manifest_mismatch_is_format_error(self, capsys, tmp_path, tiny_topo):
        from wbpose.encoder import AnnotatedScene, Person, Visibility, encode
        from wbpose.formats import from_targets, write_wbpt
        from wbpose.skeleton import PartGroup

        scene = AnnotatedScene(
            image_size=(64, 64),
            people=[Person(parts={0: (30.0, 20.0, Visibility.LABELED)})],
            coverage=frozenset({PartGroup.BODY, PartGroup.FOOT}),
        )
        f = from_targets(encode(scene, tiny_topo), tiny_topo.manifest_hash)
        path = tmp_path / "alien.wbpt"
        write_wbpt(path, f)
        assert main(["--quiet", "decode", str(path)]) == EXIT_IO

    def test_eval_of_poses_from_another_topology_is_format_error(self, capsys, tmp_path, tiny_topo):
        from wbpose.encoder import AnnotatedScene, Person, Visibility, encode
        from wbpose.formats import from_targets, write_wbpt
        from wbpose.skeleton import PartGroup

        scene = AnnotatedScene(
            image_size=(64, 64),
            people=[Person(parts={0: (30.0, 20.0, Visibility.LABELED)})],
            coverage=frozenset({PartGroup.BODY, PartGroup.FOOT}),
        )
        tensors, poses, manifest = (tmp_path / n for n in ("scene_000000.wbpt", "p.json", "tiny.json"))
        write_wbpt(tensors, from_targets(encode(scene, tiny_topo), tiny_topo.manifest_hash))
        manifest.write_text(json.dumps(tiny_manifest()))
        tiny = ["--quiet", "--manifest", str(manifest)]
        assert main(tiny + ["decode", str(tensors), "--out", str(poses)]) == EXIT_OK
        assert main(tiny + ["eval", str(poses), str(poses)]) == EXIT_OK
        assert main(["--quiet", "eval", str(poses), str(poses)]) == EXIT_IO
        assert f"{poses} was decoded against manifest {tiny_topo.manifest_hash[:12]}" in (
            capsys.readouterr().err)

    @pytest.mark.parametrize("side", ["detections", "groundtruth"])
    def test_eval_of_unknown_part_id_is_format_error(self, pipeline, capsys, tmp_path, side):
        good = pipeline / "poses.json"
        doc = json.loads(good.read_text())
        doc["poses"]["1"][0]["parts"]["999"] = [5.0, 5.0, 1.0]
        bad = tmp_path / "alien_part.json"
        bad.write_text(json.dumps(doc))
        files = [bad, good] if side == "detections" else [good, bad]
        assert main(["--quiet", "eval", *map(str, files)]) == EXIT_IO
        assert f"{bad}: scene 1 pose 0 part 999" in capsys.readouterr().err

    def test_cyclic_manifest_is_format_error(self, capsys, tmp_path):
        manifest = {
            "manifest_version": 1,
            "background_channel": False,
            "parts": [{"id": i, "name": f"p{i}", "group": "body"} for i in range(3)],
            "limbs": [{"id": 0, "src": 0, "dst": 1}, {"id": 1, "src": 1, "dst": 2},
                      {"id": 2, "src": 2, "dst": 0}],
            "anchors": [],
            "oks_kappa": {"0": 0.05, "1": 0.05, "2": 0.05},
            "template_pose": {"0": [0.0, 0.0], "1": [0.0, 0.5], "2": [0.2, 1.0]},
        }
        path = tmp_path / "cyclic.json"
        path.write_text(json.dumps(manifest))
        assert main(["--quiet", "--manifest", str(path), "synth",
                     "--out", str(tmp_path / "s.json")]) == EXIT_IO
        assert "limb 2 (2 -> 0) closes a cycle" in capsys.readouterr().err

    def test_mixed_strides_are_format_error(self, capsys, tmp_path):
        scenes = tmp_path / "scenes.json"
        main(["--quiet", "synth", "--n-people", "1", "--image-size", "160x160",
              "--coverage", "body", "--out", str(scenes)])
        for stride in ("8", "4"):
            assert main(["--quiet", "--stride", stride, "encode", "--scenes", str(scenes),
                         "--out-dir", str(tmp_path / f"s{stride}")]) == EXIT_OK
        s8 = tmp_path / "s8" / "scene_000000.wbpt"
        s4 = tmp_path / "s4" / "scene_000000.wbpt"
        assert main(["--quiet", "decode", str(s8), str(s4)]) == EXIT_IO
        err = capsys.readouterr().err
        assert str(s8) in err and str(s4) in err

    def test_duplicate_scene_ids_are_format_error(self, capsys, tmp_path, pipeline):
        # Same file name in two directories: one poses document cannot hold
        # both scenes under one id, so decode refuses instead of keeping one.
        blob = (pipeline / "tensors" / "scene_000000.wbpt").read_bytes()
        paths = [tmp_path / d / "scene_000000.wbpt" for d in ("a", "b")]
        for path in paths:
            path.parent.mkdir()
            path.write_bytes(blob)
        assert main(["--quiet", "decode"] + [str(p) for p in paths]) == EXIT_IO
        err = capsys.readouterr().err
        assert all(str(p) in err for p in paths)

    @pytest.mark.parametrize("argv", [
        ["bench", "--n-people", ","],
        ["roundtrip", "--n-people", ","],
    ])
    def test_empty_integer_list_is_usage_error(self, capsys, argv):
        assert main(["--quiet"] + argv) == EXIT_USAGE
        assert "expected at least one integer" in capsys.readouterr().err

    @pytest.mark.parametrize("document, edit, node", [
        # bool("false") is True, so a cast would load a background channel.
        ("manifest", lambda m: m.update(background_channel="false"), "background_channel"),
        ("manifest", lambda m: m["anchors"][0].update(groups=["body"]), "anchor part 2 groups"),
        # Cast the same way, "false" would certify a scene with people as empty.
        ("scenes", lambda d: d["scenes"][0].update(no_people="false"), "scene 10: no_people"),
        # Iterating {} would read zero scenes and exit 0.
        ("scenes", lambda d: d.update(scenes={}), "scenes: expected list"),
        ("mapping", lambda m: m["keypoints"].update(nose="snout"), "'snout'"),
        # scene_-00005.wbpt would decode back as scene 5.
        ("scenes", lambda d: d["scenes"][0].update(scene_id=-5), "scene_id: expected at least 0"),
        ("coco", lambda c: [c["images"][0].update(id=-5), c["annotations"][0].update(image_id=-5)],
         "COCO image id: expected at least 0"),
        # Each would encode to empty maps.
        ("scenes", lambda d: d["scenes"][0].update(image_size=[0, 0]), "scene 10: image_size"),
        ("scenes", lambda d: d["scenes"][0].update(image_size=[-1, 150]), "scene 10: image_size"),
        ("coco", lambda c: c["images"][0].update(width=0), "image 10 size: expected at least 1"),
        # The encoder would skip a part the topology lacks.
        ("scenes", lambda d: d["scenes"][0]["people"][0]["parts"].update({"999": [5.0, 5.0, "labeled"]}),
         "scene 10 person 0 part 999"),
    ], ids=["background-false", "anchor-one-group", "no-people-false", "scenes-object",
            "unknown-mapped-name", "negative-scene-id", "negative-image-id", "zero-image-size",
            "negative-image-width", "zero-coco-width", "unknown-scene-part"])
    def test_misread_value_is_format_error(self, capsys, tmp_path, document, edit, node):
        doc = {
            "manifest": tiny_manifest(),
            "scenes": json.loads((DATA / "toy_coco_expected_scenes.json").read_text()),
            "mapping": default_coco_mapping(),
            "coco": json.loads((DATA / "toy_coco.json").read_text()),
        }[document]
        edit(doc)
        path = tmp_path / f"{document}.json"
        path.write_text(json.dumps(doc))
        argv = {
            "manifest": ["--manifest", str(path), "arch", "--ratio"],
            "scenes": ["encode", "--scenes", str(path)],
            "mapping": ["encode", "--coco", str(DATA / "toy_coco.json"), "--mapping", str(path)],
            "coco": ["encode", "--coco", str(path)],
        }[document]
        assert main(["--quiet", *argv]) == EXIT_IO
        assert node in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["eval", "d.json", "g.json", "--min-ap", "nan"],
        ["eval", "d.json", "g.json", "--min-ar", "NaN"],
        ["roundtrip", "--tol-cells", "nan"],
        ["roundtrip", "--tol-cells", "inf"],
    ])
    def test_non_finite_gate_is_usage_error(self, capsys, argv):
        # NaN compares false with everything: --min-ap nan would pass any AP,
        # and --tol-cells nan would fail every scene.
        assert main(["--quiet", *argv]) == EXIT_USAGE
        assert "expected a finite number" in capsys.readouterr().err

    @pytest.mark.parametrize("argv, message", [
        (["synth", "--rotation-deg", "nan"], "rotation_deg must be in [0, 180], got nan"),
        (["synth", "--rotation-deg", "inf"], "rotation_deg must be in [0, 180], got inf"),
        (["synth", "--rotation-deg", "1e308"], "rotation_deg must be in [0, 180], got 1e+308"),
        (["synth", "--rotation-deg", "-5"], "rotation_deg must be in [0, 180], got -5.0"),
        (["synth", "--jitter-deg", "nan"], "jitter_deg must be in [0, 15], got nan"),
        (["synth", "--jitter-deg", "-20"], "jitter_deg must be in [0, 15], got -20.0"),
        (["synth", "--min-separation", "nan"], "min_separation must be finite, got nan"),
        (["roundtrip", "--n-scenes", "1", "--min-separation", "nan"],
         "min_separation must be finite, got nan"),
        # Each record would pool the repetitions of both points.
        (["bench", "--n-people", "1,1", "--image-size", "160x160", "--repetitions", "10"],
         "crowd sizes must not repeat, got [1, 1]"),
        # A HI of 400 nines parses as inf, which the height draw cannot take.
        (["synth", "--person-scale", "1:" + "9" * 400],
         "person_scale needs 0 < LO <= HI < inf, got 1.0:inf"),
    ])
    def test_unusable_recipe_or_crowd_grid_is_usage_error(self, capsys, argv, message):
        assert main(["--quiet", *argv]) == EXIT_USAGE
        assert capsys.readouterr().err == f"wbpose: {message}\n"

    @pytest.mark.parametrize("argv", [
        ["synth", "--rotation-deg", "nan"],
        ["bench", "--n-people", "1,1", "--image-size", "160x160", "--repetitions", "10"],
        ["synth", "--person-scale", "1:" + "9" * 400],
    ], ids=["synth", "bench", "person_scale"])
    def test_process_exits_2_without_traceback(self, argv):
        proc = subprocess.run([sys.executable, "-m", "wbpose.cli", "--quiet", *argv],
                              capture_output=True, text=True, env=src_env(), timeout=120)
        assert proc.returncode == EXIT_USAGE
        assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr

    def test_process_exits_3_without_traceback(self, tmp_path):
        # The other tests call main() in-process; this checks the code the
        # interpreter actually exits with.
        doc = json.loads((DATA / "toy_coco_expected_scenes.json").read_text())
        doc["scenes"][0]["people"] = None
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        proc = subprocess.run(
            [sys.executable, "-m", "wbpose.cli", "--quiet", "encode", "--scenes", str(bad)],
            capture_output=True, text=True, env=src_env(), timeout=120,
        )
        assert proc.returncode == EXIT_IO
        assert "Traceback" not in proc.stderr
        assert "scene 10: people: expected list, got None" in proc.stderr

    def test_ill_typed_registry_is_format_error(self, capsys, tmp_path):
        from wbpose.scheduler import default_registry, registry_to_json

        doc = registry_to_json(default_registry())
        doc["datasets"][0]["probability"] = "0.7651"
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps(doc))
        assert main(["--quiet", "sample-plan", "--registry", str(registry),
                     "--out", str(tmp_path / "plan.jsonl")]) == EXIT_IO
        assert "bad dataset entry 'coco'" in capsys.readouterr().err

    @pytest.mark.parametrize("key, value", [("crop", [480.5, 480]), ("scale", ["a", 1])])
    def test_ill_typed_aug_range_element_is_format_error(self, capsys, tmp_path, key, value):
        from wbpose.scheduler import default_registry, registry_to_json

        doc = registry_to_json(default_registry())
        doc["datasets"][0]["aug"][key] = value
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps(doc))
        assert main(["--quiet", "sample-plan", "--registry", str(registry),
                     "--out", str(tmp_path / "plan.jsonl")]) == EXIT_IO
        assert f"bad '{key}'" in capsys.readouterr().err

    def test_ill_typed_crop_offset_is_format_error(self, capsys, tmp_path):
        plan = tmp_path / "plan.jsonl"
        main(["--quiet", "sample-plan", "--batches", "2", "--out", str(plan)])
        header, first, *rest = plan.read_text().splitlines()
        doc = json.loads(first)
        doc["draws"][0]["crop_offset"] = ["x", 0]
        plan.write_text("\n".join([header, json.dumps(doc)] + rest) + "\n")
        assert main(["--quiet", "sample-plan", "--check", str(plan)]) == EXIT_IO
        err = capsys.readouterr().err
        assert "plan line 2" in err and "'crop_offset'" in err

    @pytest.mark.parametrize("dataset, where, key, misspelled", [
        ("coco", "aug", "flip_prob", "flip_probabilty"),
        ("no_people", None, "special", "speical"),
    ])
    def test_misspelled_registry_key_is_format_error(self, capsys, tmp_path, dataset, where,
                                                     key, misspelled):
        # Both keys have defaults, so a reader that skipped unknown keys
        # would plan with flip 0.5, or with people in the negatives.
        from wbpose.scheduler import default_registry, registry_to_json

        doc = registry_to_json(default_registry())
        entry = next(e for e in doc["datasets"] if e["name"] == dataset)
        obj = entry[where] if where else entry
        obj[misspelled] = obj.pop(key)
        registry = tmp_path / "registry.json"
        registry.write_text(json.dumps(doc))
        assert main(["--quiet", "sample-plan", "--registry", str(registry),
                     "--out", str(tmp_path / "plan.jsonl")]) == EXIT_IO
        err = capsys.readouterr().err
        assert f"bad dataset entry {dataset!r}" in err and repr(misspelled) in err

    def test_plan_draw_with_extra_key_is_format_error(self, capsys, tmp_path):
        plan = tmp_path / "plan.jsonl"
        main(["--quiet", "sample-plan", "--batches", "2", "--out", str(plan)])
        header, first, *rest = plan.read_text().splitlines()
        doc = json.loads(first)
        doc["draws"][0]["shear_deg"] = 0.0
        plan.write_text("\n".join([header, json.dumps(doc)] + rest) + "\n")
        assert main(["--quiet", "sample-plan", "--check", str(plan)]) == EXIT_IO
        err = capsys.readouterr().err
        assert "plan line 2" in err and "'shear_deg'" in err

    def test_plan_header_without_batch_size_is_format_error(self, capsys, tmp_path):
        plan = tmp_path / "plan.jsonl"
        main(["--quiet", "sample-plan", "--batches", "2", "--out", str(plan)])
        header, *batches = plan.read_text().splitlines()
        doc = json.loads(header)
        del doc["batch_size"]
        plan.write_text("\n".join([json.dumps(doc)] + batches) + "\n")
        assert main(["--quiet", "sample-plan", "--check", str(plan)]) == EXIT_IO
        assert "'batch_size'" in capsys.readouterr().err

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == EXIT_OK

    @pytest.mark.parametrize("command", [
        ["encode", "--scenes", str(DATA / "toy_coco_expected_scenes.json")],
        ["roundtrip", "--n-scenes", "1", "--n-people", "1"],
        ["bench", "--n-people", "1", "--repetitions", "10"],
    ])
    def test_zero_stride_is_usage_error(self, capsys, command):
        assert main(["--quiet", "--stride", "0"] + command) == EXIT_USAGE
        assert "stride must be >= 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["roundtrip", "--n-scenes", "0"],
        ["synth", "--n-scenes", "-1"],
    ])
    def test_scene_count_below_one_is_usage_error(self, capsys, command):
        assert main(["--quiet"] + command) == EXIT_USAGE
        assert "expected a count of at least 1" in capsys.readouterr().err

    @pytest.mark.parametrize("command", [
        ["synth", "--n-scenes", "1"],
        ["roundtrip", "--n-scenes", "1"],
        ["bench", "--repetitions", "10"],
        ["sample-plan", "--out", "plan.jsonl"],
        ["arch", "--ratio"],
    ], ids=lambda command: command[0])
    def test_negative_seed_is_usage_error_naming_the_option(self, capsys, command):
        # Every summary echoes the seed so that the run can be replayed, and
        # the generators take only seeds >= 0. argparse prints its usage
        # first, which lists every global flag; the error is one line.
        assert main(["--quiet", "--seed", "-1"] + command) == EXIT_USAGE
        errors = [line for line in capsys.readouterr().err.splitlines()
                  if line.startswith("wbpose:")]
        assert errors == ["wbpose: error: argument --seed: expected a non-negative integer, got -1"]


class TestRoundtripCommand:
    def test_small_gate_passes(self, capsys, topo):
        code, doc = run(capsys, "--seed", "2", "roundtrip", "--n-scenes", "2",
                        "--n-people", "1..2", "--image-size", "320x320")
        assert code == EXIT_OK
        assert doc["failures"] == []
        assert doc["max_error_cells"] <= 0.5
        assert len(doc["reports"]) == 2
        # Decoder counters totalled over both scenes, as in `wbpose decode`.
        from wbpose.synth import SceneRecipe, roundtrip_report

        totals = dict.fromkeys(DECODE_TOTALS, 0)
        for i, n_people in enumerate((1, 2)):
            recipe = SceneRecipe(n_people=n_people, image_size=(320, 320), seed=2)
            stats = roundtrip_report(recipe, topo, scene_id=i).decode_stats
            for key in DECODE_TOTALS:
                totals[key] += getattr(stats, key)
        assert {key: doc[key] for key in DECODE_TOTALS} == totals
        assert doc["candidates"] == 3 * topo.n_parts
        assert doc["connections_accepted"] == 3 * topo.n_limbs
        assert doc["connections_kept"] >= doc["connections_valid"] >= doc["connections_accepted"]
        assert doc["poses_dropped_min_parts"] == doc["poses_dropped_min_score"] == 0

    def test_person_scale_reaches_the_recipe(self, capsys, topo):
        # Ten people pack into 480x480 only at the small scale.
        from wbpose.synth import SceneRecipe, roundtrip_report

        code, doc = run(capsys, "--seed", "1", "roundtrip", "--n-scenes", "1",
                        "--n-people", "10", "--person-scale", "45:65")
        assert code == EXIT_OK
        recipe = SceneRecipe(n_people=10, person_scale=(45.0, 65.0), seed=1)
        report = dataclasses.asdict(roundtrip_report(recipe, topo))
        del report["decode_stats"]
        assert doc["reports"] == [report]


class TestBenchCommand:
    def test_summary_carries_records(self, capsys):
        code, doc = run(capsys, "--seed", "1", "bench", "--n-people", "1,2",
                        "--image-size", "240x240", "--image-size", "160x160",
                        "--repetitions", "10")
        assert code == EXIT_OK
        assert doc["n_records"] == 4
        records = [BenchRecord(**r) for r in doc["records"]]  # every field, no extras
        assert [(r.n_people, r.map_w) for r in records] == [(1, 30), (2, 30), (1, 20), (2, 20)]
        # Two crowd sizes cannot fix three coefficients.
        assert [(f["map_w"], f["n_people"], f["median_ns"]) for f in doc["fits"]] == [
            (30, [1, 2], None), (20, [1, 2], None)]
        # The records are the output; bench writes no file.
        assert main(["--quiet", "bench", "--csv", "x.csv"]) == EXIT_USAGE


SYNTH = ["synth", "--n-people", "1", "--image-size", "160x160", "--out", "s.json"]
ENCODE = ["encode", "--scenes", "s.json", "--out-dir", "t"]
DECODE = ["decode", "t/scene_000000.wbpt", "--out", "p.json"]

# Per case, the commands to run in a fresh directory: the last one is
# checked, the ones before it make its inputs.
ONE_DOCUMENT_CASES = {
    "synth": [SYNTH],
    "encode": [SYNTH, ENCODE],
    "decode": [SYNTH, ENCODE, DECODE],
    "loss": [SYNTH, ENCODE, ["loss", "--pred", "t/scene_000000.wbpt",
                             "--gt", "t/scene_000000.wbpt"]],
    "eval": [SYNTH, ENCODE, DECODE, ["eval", "p.json", "p.json"]],
    "roundtrip": [["roundtrip", "--n-scenes", "1", "--n-people", "1", "--image-size", "160x160"]],
    "sample-plan": [["sample-plan", "--batches", "2", "--out", "plan.jsonl"]],
    "arch-cost": [["arch", "--spec", "4s, 5b, 96w"]],
    "arch-ratio": [["arch", "--ratio", "--n", "1..3"]],
    "bench": [["bench", "--n-people", "1", "--image-size", "160x160", "--repetitions", "10"]],
}


@pytest.mark.parametrize("case", sorted(ONE_DOCUMENT_CASES))
def test_stdout_is_one_json_document(case, capsys, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    *setup, argv = ONE_DOCUMENT_CASES[case]
    for cmd in setup:
        assert main(["--quiet"] + cmd) == EXIT_OK
    capsys.readouterr()
    assert main(argv) == EXIT_OK
    doc = strict_json(capsys.readouterr().out)
    assert doc["command"] == argv[0]
    assert len(doc["manifest_hash"]) == 64
    assert doc["peak_rss_mb"] > 0
