"""Command-line surface.

One executable, nine subcommands: encode, decode, loss, eval, synth,
roundtrip, sample-plan, arch, bench.  Global flags (--manifest, --seed,
--stride, --quiet) sit before the subcommand.  Every run prints one
JSON document to stdout (unless --quiet) and nothing else there: a summary
carrying tool_version, the seed, the command and manifest_hash, so outputs
are attributable and replayable, and the process's peak_rss_mb. Tables
(bench records and fits, arch --ratio rows) are lists inside that document.

Exit codes: 0 success, 1 a tolerance gate failed (roundtrip/eval/sample-plan
--check), 2 usage error, 3 I/O or format error (a file made against another
topology among them).  Two error classes carry every input failure: a
WbptError or DocumentError (or an OSError) exits 3; any other ValueError
exits 2.  Every input file is read through _read, so a bad file prints one
line, "wbpose: {path}: {reason}", whichever file and reader it is; a clash
between two files (decode strides or scene ids, loss shapes) names both.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import re
import resource
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .archmodel import build_stage_graph, cost_estimate, receptive_field, runtime_ratio
from .bench import growth_fits, run_bench
from .decoder import DecodeStats, decode_with_stats
from .encoder import EncoderParams, TargetTensors, encode
from .formats import (
    WbptError,
    WbptFile,
    from_bytes,
    from_targets,
    ingest_coco,
    poses_document,
    poses_from_document,
    read_coco_mapping,
    scenes_document,
    scenes_from_document,
    to_targets,
    write_wbpt,
)
from .jsondoc import DocumentError, read
from .loss import multitask_loss
from .metrics import evaluate
from .scheduler import (
    build_plan,
    default_registry,
    read_plan_jsonl,
    registry_from_json,
    write_plan_jsonl,
)
from .skeleton import PartGroup, default_topology, load_topology
from .synth import SceneRecipe, generate, roundtrip_report

EXIT_OK = 0
EXIT_TOLERANCE = 1
EXIT_USAGE = 2
EXIT_IO = 3


# DecodeStats counters that decode and roundtrip summaries total over scenes.
DECODE_TOTALS = tuple(
    f.name for f in dataclasses.fields(DecodeStats) if not f.name.endswith("_ns")
)


def _size(text: str) -> tuple[int, int]:
    m = re.fullmatch(r"(\d+)x(\d+)", text)
    if not m:
        raise argparse.ArgumentTypeError(f"expected WxH, got {text!r}")
    return int(m.group(1)), int(m.group(2))


def _int_at_least(low: int):
    """The argparse type of an integer option whose values start at low."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
        if value < low:
            raise argparse.ArgumentTypeError(f"expected an integer of at least {low}, got {value}")
        return value
    return parse


def _int_list(text: str) -> list[int]:
    try:
        values = [int(v) for v in text.split(",") if v != ""]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")
    if not values:
        raise argparse.ArgumentTypeError(f"expected at least one integer, got {text!r}")
    return values


def _int_range(text: str) -> list[int]:
    m = re.fullmatch(r"(\d+)\.\.(\d+)", text)
    if m:
        lo, hi = int(m.group(1)), int(m.group(2))
        if hi < lo:
            raise argparse.ArgumentTypeError(f"empty range {text!r}")
        return list(range(lo, hi + 1))
    return _int_list(text)


def _threshold(text: str) -> float:
    value = float(text)  # argparse reports a ValueError as an invalid value
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _groups(text: str) -> frozenset[PartGroup]:
    try:
        return frozenset(PartGroup(g.strip()) for g in text.split(",") if g.strip())
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e))


def _scale(text: str) -> tuple[float, float]:
    m = re.fullmatch(r"([0-9.]+):([0-9.]+)", text)
    if not m:
        raise argparse.ArgumentTypeError(f"expected LO:HI, got {text!r}")
    return float(m.group(1)), float(m.group(2))


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="wbpose", description=__doc__.splitlines()[0])
    p.add_argument("--manifest", type=Path, default=None, help="topology manifest JSON (default: bundled wholebody135)")
    p.add_argument("--seed", type=_int_at_least(0), default=0, help="base RNG seed, echoed in outputs")
    p.add_argument("--stride", type=_int_at_least(1), default=8, help="map cell size in pixels")
    p.add_argument("--quiet", action="store_true", help="suppress the JSON summary on stdout")
    sub = p.add_subparsers(dest="command", required=True)

    enc = sub.add_parser("encode", help="scenes (or COCO keypoints) -> WBPT tensor files")
    src = enc.add_mutually_exclusive_group(required=True)
    src.add_argument("--scenes", type=Path, help="scenes document JSON")
    src.add_argument("--coco", type=Path, help="COCO keypoint JSON to ingest")
    enc.add_argument("--mapping", type=Path, help="COCO name mapping JSON (with --coco)")
    enc.add_argument("--scenes-out", type=Path, help="write the (ingested) scenes document here")
    enc.add_argument("--out-dir", type=Path, help="directory for one combined .wbpt per scene")

    dec = sub.add_parser("decode", help="WBPT tensor files -> poses document")
    dec.add_argument("tensors", type=Path, nargs="+", help="combined .wbpt files")
    dec.add_argument("--out", type=Path, help="poses document JSON path (default stdout summary only)")

    los = sub.add_parser("loss", help="masked multitask loss of a prediction against groundtruth")
    los.add_argument("--pred", type=Path, required=True, help="predicted combined .wbpt")
    los.add_argument("--gt", type=Path, required=True, help="groundtruth combined .wbpt")

    ev = sub.add_parser("eval", help="AP/AR of detected poses against groundtruth poses")
    ev.add_argument("detections", type=Path, help="poses document JSON")
    ev.add_argument("groundtruth", type=Path, help="poses document JSON")
    ev.add_argument("--group", type=_groups, default=None, help="restrict to part groups, e.g. body,foot")
    ev.add_argument("--pr-csv", type=Path, help="write per-threshold precision/recall CSV")
    ev.add_argument("--min-ap", type=_threshold, default=None, help="gate: exit 1 when AP is below this")
    ev.add_argument("--min-ar", type=_threshold, default=None, help="gate: exit 1 when AR is below this")

    # Scene options shared by synth and roundtrip. An option left out never
    # reaches the namespace, so SceneRecipe's default applies (see _recipe).
    scene = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    scene.add_argument("--image-size", type=_size, metavar="WxH", help="image size in px")
    scene.add_argument("--min-separation", type=float, help="px between person boxes")
    scene.add_argument("--person-scale", type=_scale, metavar="LO:HI",
                       help="range of person heights in px")

    syn = sub.add_parser("synth", parents=[scene], help="generate annotated scenes")
    syn.add_argument("--n-scenes", type=_int_at_least(1), default=1)
    syn.add_argument("--n-people", type=_int_at_least(0), default=3)
    syn.add_argument("--rotation-deg", type=float, default=argparse.SUPPRESS)
    syn.add_argument("--jitter-deg", type=float, default=argparse.SUPPRESS)
    syn.add_argument("--coverage", type=_groups, default=argparse.SUPPRESS)
    syn.add_argument("--out", type=Path, help="scenes document JSON path")

    rt = sub.add_parser("roundtrip", parents=[scene], help="decode(encode(scene)) fidelity gate")
    rt.add_argument("--n-scenes", type=_int_at_least(1), default=20)
    rt.add_argument("--n-people", type=_int_range, default=[1, 2, 3], metavar="LIST|A..B")
    rt.add_argument("--tol-cells", type=_threshold, default=0.5)

    sp = sub.add_parser("sample-plan", help="deterministic training-batch plan as JSON lines")
    sp.add_argument("--batches", type=_int_at_least(0), default=10)
    sp.add_argument("--batch-size", type=_int_at_least(1), default=8)
    sp.add_argument("--registry", type=Path, help="dataset registry JSON (default: built-in)")
    out = sp.add_mutually_exclusive_group(required=True)
    out.add_argument("--out", type=Path, help="plan JSONL path")
    out.add_argument("--check", type=Path, help="existing plan to replay against; exit 1 on drift")

    ar = sub.add_parser("arch", help="stage-graph cost arithmetic and runtime-ratio model")
    ar.add_argument("--spec", help='PAF stage spec, e.g. "4s, 5b, 96w"')
    ar.add_argument("--cm", help="confidence stage spec (default: same as --spec)")
    ar.add_argument("--input-resolution", type=_int_at_least(1), default=480)
    ar.add_argument("--ratio", action="store_true", help="emit modeled baseline/single ratios")
    ar.add_argument("--n", type=_int_range, default=list(range(1, 21)), metavar="A..B")

    be = sub.add_parser("bench", help="decode-only timing over a synthetic grid")
    be.add_argument("--n-people", type=_int_list, default=[1, 5, 10, 20])
    be.add_argument("--image-size", type=_size, action="append", default=None, metavar="WxH")
    be.add_argument("--repetitions", type=_int_at_least(10), default=30)
    return p


def _topology(args):
    if args.manifest is None:
        return default_topology()
    # read() first: load_topology would take a string document for a path.
    return _read(args.manifest, lambda doc: load_topology(read(doc, dict, "manifest")))


def _emit(args, topo, payload: dict) -> None:
    doc = {
        "tool_version": __version__, "seed": args.seed,
        "command": args.command, "manifest_hash": topo.manifest_hash, **payload,
        # Linux reports ru_maxrss in KiB.
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if not args.quiet:
        print(json.dumps(doc, indent=2))


def _write_json(path: Path, doc: dict) -> None:
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _scene_id_of(path: Path, fallback: int) -> int:
    m = re.search(r"(\d+)$", path.stem)
    return int(m.group(1)) if m else fallback


def _json(path: Path):
    return json.loads(path.read_text(encoding="utf-8"))


def _wbpt(path: Path) -> WbptFile:
    return from_bytes(path.read_bytes())


def _read(path: Path, reader, topo=None, load=_json):
    """reader(load(path)), with any failure of the file raised again as one
    line that names it, "{path}: {reason}": a DocumentError or WbptError,
    text that is not UTF-8, or a JSON syntax error.  Given topo, the file
    must have been made against its manifest (a document that names none
    is read against it), and scenes or poses may hold only its part ids:
    the readers take no topology, and the encoder and the evaluator would
    skip any other."""
    try:
        raw = load(path)
        out = reader(raw)
        if topo is not None:
            if isinstance(raw, WbptFile):
                made = raw.manifest_hash
            else:
                made = raw.get("manifest_hash", topo.manifest_hash)
            if made != topo.manifest_hash:
                raise DocumentError(
                    f"made against manifest {str(made)[:12]}..., "
                    f"the active topology is {topo.manifest_hash[:12]}..."
                )
            people = []  # none in the maps of a .wbpt file
            if isinstance(out, list):  # scenes
                people = [(f"scene {s.scene_id} person {i}", p) for s in out for i, p in enumerate(s.people)]
            elif isinstance(out, dict):  # poses by scene id
                people = [(f"scene {k} pose {i}", p) for k, poses in out.items() for i, p in enumerate(poses)]
            for where, person in people:
                for pid in person.parts:
                    if not 0 <= pid < topo.n_parts:
                        raise DocumentError(f"{where} part {pid}: the topology has part ids 0..{topo.n_parts - 1}")
        return out
    except (UnicodeDecodeError, json.JSONDecodeError, DocumentError, WbptError) as e:
        raise (WbptError if isinstance(e, WbptError) else DocumentError)(f"{path}: {e}") from None


def cmd_encode(args) -> int:
    if args.mapping is not None and args.coco is None:
        raise ValueError("--mapping names COCO keypoints and needs --coco")
    topo = _topology(args)
    if args.coco is None:
        scenes = _read(args.scenes, scenes_from_document, topo)
    else:
        # The mapping is checked on its own, so that its errors name it
        # (read_coco_mapping returns a tuple, so `and doc` keeps the
        # document). Ingested scenes carry the topology's manifest and ids.
        mapping = args.mapping and _read(args.mapping, lambda doc: read_coco_mapping(doc, topo) and doc)
        scenes = _read(args.coco, lambda doc: scenes_from_document(
            ingest_coco(doc, topo, mapping, seed=args.seed)
        ))
    if args.scenes_out:
        _write_json(args.scenes_out, scenes_document(scenes, topo.manifest_hash, args.seed))
    params = EncoderParams(stride=args.stride)
    written = []
    if args.out_dir:
        args.out_dir.mkdir(parents=True, exist_ok=True)
        for scene in scenes:
            f = from_targets(encode(scene, topo, params), topo.manifest_hash)
            path = args.out_dir / f"scene_{scene.scene_id:06d}.wbpt"
            write_wbpt(path, f)
            written.append(path.name)
    _emit(args, topo, {"n_scenes": len(scenes), "files_written": written})
    return EXIT_OK


def cmd_decode(args) -> int:
    topo = _topology(args)
    poses_by_scene = {}
    path_of = {}
    totals = dict.fromkeys(DECODE_TOTALS, 0)
    for i, path in enumerate(args.tensors):
        t = _read(path, to_targets, topo, _wbpt)
        # One poses document carries one stride for every scene.
        if i == 0:
            stride, first = t.stride, path
        elif t.stride != stride:
            raise WbptError(
                f"{path} has stride {t.stride} but {first} has stride {stride}; "
                "decode files of one stride per run"
            )
        scene_id = _scene_id_of(path, i)
        if scene_id in path_of:
            raise WbptError(
                f"{path} and {path_of[scene_id]} both map to scene id {scene_id}; "
                "decode files with distinct scene numbers per run"
            )
        path_of[scene_id] = path
        try:
            poses_by_scene[scene_id], stats = decode_with_stats((t.s_star, t.l_star), topo)
        except ValueError as e:  # the decoder's shape checks
            raise WbptError(f"{path}: {e}") from None
        for key in totals:
            totals[key] += getattr(stats, key)
    doc = poses_document(poses_by_scene, stride, topo.manifest_hash, args.seed)
    if args.out:
        _write_json(args.out, doc)
    _emit(args, topo, {
        "n_scenes": len(poses_by_scene),
        "n_poses": sum(len(v) for v in poses_by_scene.values()),
        **totals,
    })
    return EXIT_OK


def cmd_loss(args) -> int:
    topo = _topology(args)

    def finite_targets(f: WbptFile) -> TargetTensors:
        # The reader already holds masks to {0, 1}; a non-finite map cell
        # would make the loss non-finite and the summary invalid JSON.
        t = to_targets(f)
        if not (np.isfinite(t.s_star).all() and np.isfinite(t.l_star).all()):
            raise WbptError("a confidence or PAF value is not finite")
        return t

    pred, gt = (_read(path, finite_targets, topo, _wbpt) for path in (args.pred, args.gt))
    try:
        breakdown = multitask_loss([pred.l_star], [pred.s_star], gt, topo)
    except ValueError as e:  # the loss's shape checks
        raise WbptError(f"--pred {args.pred}, --gt {args.gt}: {e}") from None
    _emit(args, topo, {"loss": dataclasses.asdict(breakdown)})
    return EXIT_OK


def cmd_eval(args) -> int:
    if args.group is not None and not args.group:
        raise ValueError("--group needs at least one part group")
    topo = _topology(args)
    det_doc, gt_doc = (
        _read(path, poses_from_document, topo) for path in (args.detections, args.groundtruth)
    )
    scene_ids = sorted(set(det_doc) | set(gt_doc))
    dets = [det_doc.get(sid, []) for sid in scene_ids]
    # The evaluator ignores the score of a ground-truth pose.
    gts = [gt_doc.get(sid, []) for sid in scene_ids]
    result = evaluate(dets, gts, topo, group=args.group)
    if args.pr_csv:
        with open(args.pr_csv, "w", newline="", encoding="utf-8") as fh:
            w = csv.writer(fh)
            w.writerow(["threshold", "precision", "recall"])
            for t, (prec, rec) in sorted(result.per_threshold.items()):
                w.writerow([f"{t:.2f}", repr(prec), repr(rec)])
    _emit(args, topo, {"n_scenes": len(scene_ids), "result": result.as_dict()})
    if args.min_ap is not None and result.ap < args.min_ap:
        return EXIT_TOLERANCE
    if args.min_ar is not None and result.ar < args.min_ar:
        return EXIT_TOLERANCE
    return EXIT_OK


_RECIPE_OPTIONS = (
    "image_size", "min_separation", "person_scale", "rotation_deg", "jitter_deg", "coverage",
)


def _recipe(args, n_people: int) -> SceneRecipe:
    """The options given on the command line; SceneRecipe fills in the rest."""
    given = {k: v for k, v in vars(args).items() if k in _RECIPE_OPTIONS}
    return SceneRecipe(n_people=n_people, seed=args.seed, **given)


def cmd_synth(args) -> int:
    topo = _topology(args)
    recipe = _recipe(args, args.n_people)
    scenes = [generate(recipe, topo, scene_id=i) for i in range(args.n_scenes)]
    doc = scenes_document(scenes, topo.manifest_hash, args.seed)
    if args.out:
        _write_json(args.out, doc)
    _emit(args, topo, {
        "n_scenes": len(scenes),
        "n_people_total": sum(len(s.people) for s in scenes),
    })
    return EXIT_OK


def cmd_roundtrip(args) -> int:
    topo = _topology(args)
    enc_params = EncoderParams(stride=args.stride)
    reports = []
    for i in range(args.n_scenes):
        n_people = args.n_people[i % len(args.n_people)]
        reports.append(roundtrip_report(
            _recipe(args, n_people), topo, enc_params,
            tol_cells=args.tol_cells, scene_id=i,
        ))
    failures = [i for i, r in enumerate(reports) if not r.success]
    _emit(args, topo, {
        "n_scenes": len(reports), "failures": failures,
        "max_error_cells": max(r.max_error_cells for r in reports),
        **{key: sum(getattr(r.decode_stats, key) for r in reports) for key in DECODE_TOTALS},
        "reports": [
            {k: v for k, v in dataclasses.asdict(r).items() if k != "decode_stats"}
            for r in reports
        ],
    })
    return EXIT_TOLERANCE if failures else EXIT_OK


def cmd_sample_plan(args) -> int:
    topo = _topology(args)
    registry = _read(args.registry, registry_from_json) if args.registry else default_registry()
    if args.check:
        reference = _read(
            args.check, read_plan_jsonl, load=lambda path: io.StringIO(path.read_text(encoding="utf-8"))
        )
        regenerated = build_plan(
            registry, reference.seed, len(reference.batches), reference.batch_size
        )
        identical = regenerated == reference
        _emit(args, topo, {"checked": str(args.check), "identical": identical})
        return EXIT_OK if identical else EXIT_TOLERANCE
    plan = build_plan(registry, args.seed, args.batches, args.batch_size)
    with open(args.out, "w", encoding="utf-8") as fh:
        write_plan_jsonl(plan, fh)
    _emit(args, topo, {
        "n_batches": len(plan.batches), "batch_size": plan.batch_size,
        "registry_hash": plan.registry_hash,
    })
    return EXIT_OK


def cmd_arch(args) -> int:
    topo = _topology(args)
    if args.ratio:
        _emit(args, topo, {
            "mode": "ratio", "ratio_at_10": runtime_ratio(10.0),
            "rows": [{"n_people": n, "modeled_ratio": runtime_ratio(n)} for n in args.n],
        })
        return EXIT_OK
    if not args.spec:
        raise ValueError("arch needs --spec (cost mode) or --ratio (model mode)")
    graph = build_stage_graph(
        args.spec, args.cm or args.spec, topo, input_resolution=args.input_resolution
    )
    cost = cost_estimate(graph)
    _emit(args, topo, {
        "mode": "cost", "paf_spec": args.spec, "cm_spec": args.cm or args.spec,
        "params": cost.params, "macs": cost.macs,
        "receptive_field": receptive_field(graph),
        "per_segment": dataclasses.asdict(cost)["per_segment"],
    })
    return EXIT_OK


def cmd_bench(args) -> int:
    topo = _topology(args)
    sizes = args.image_size or [(480, 480)]
    records = run_bench(
        args.n_people, sizes, topo,
        enc_params=EncoderParams(stride=args.stride),
        repetitions=args.repetitions, seed=args.seed,
    )
    _emit(args, topo, {
        "n_records": len(records), "records": [dataclasses.asdict(r) for r in records],
        "fits": growth_fits(records),
    })
    return EXIT_OK


_HANDLERS = {
    "encode": cmd_encode,
    "decode": cmd_decode,
    "loss": cmd_loss,
    "eval": cmd_eval,
    "synth": cmd_synth,
    "roundtrip": cmd_roundtrip,
    "sample-plan": cmd_sample_plan,
    "arch": cmd_arch,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return EXIT_USAGE if e.code not in (0, None) else EXIT_OK
    try:
        return _HANDLERS[args.command](args)
    except (WbptError, DocumentError, OSError) as e:
        print(f"wbpose: {e}", file=sys.stderr)
        return EXIT_IO
    except ValueError as e:
        print(f"wbpose: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
