"""Checks of the benchmark itself. Run from the repository root:

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
import share  # noqa: F401  (puts this checkout's src/ on sys.path)
import workloads as W
from tracer import Tracer
from wbpose.skeleton import default_topology

RUN = [sys.executable, str(Path(run.__file__).resolve())]


def _result(*args: str, cwd=run.ROOT) -> tuple[int, dict | None]:
    proc = subprocess.run(RUN + list(args), cwd=cwd, capture_output=True, text=True, timeout=170)
    lines = proc.stdout.strip().splitlines()
    try:
        return proc.returncode, json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        return proc.returncode, None


@pytest.mark.parametrize("name", ["decode_crowd", "decode_noisy"])
def test_holdout_seed_keeps_shape_and_changes_inputs(name):
    assert run.HOLDOUT_SEED != run.DEFAULT_SEED
    made = {}
    for seed in (run.DEFAULT_SEED, run.HOLDOUT_SEED):
        ctx = W.Context(topo=default_topology(), seed=seed, tracer=Tracer())
        made[seed] = W.WORKLOADS[name]().setup(ctx)
    a, b = made[run.DEFAULT_SEED], made[run.HOLDOUT_SEED]
    assert [it.n_people for it in a] == [it.n_people for it in b]
    assert all(x.tensors.s_star.shape == y.tensors.s_star.shape == (136, 60, 60) for x, y in zip(a, b))
    assert all(x.blob != y.blob for x, y in zip(a, b))


def test_holdout_seed_changes_training_scenes():
    topo = default_topology()
    item = W.crowd_items()[1]
    scenes = [
        W.build_targets(W.Context(topo=topo, seed=seed, tracer=Tracer()), item)[0]
        for seed in (run.DEFAULT_SEED, run.HOLDOUT_SEED)
    ]
    assert len(scenes[0].people) == len(scenes[1].people) == item.n_people
    assert scenes[0].people[0].parts != scenes[1].people[0].parts


def test_noisy_oks_ap_repeats_exactly_for_one_seed():
    aps = []
    for _ in range(2):
        code, result = _result("--workload", "decode_noisy", "--seed", "3", "--seconds", "1")
        assert code == 0 and result["correct"]
        record = json.loads((run.OUT_DIR / "decode_noisy-seed3-trace0.json").read_text())
        aps.append(record["end_to_end"]["oks_ap"])
    assert aps[0] == aps[1]
    assert 0.0 < aps[0] < 1.0


def test_traced_run_prints_every_per_layer_metric():
    spec = run.load_spec()
    code, result = _result("--workload", "decode_noisy", "--seconds", "1", "--trace", "1")
    assert code == 0 and result["correct"]
    assert list(result["metrics"]) == [m["name"] for m in spec["per_layer"]]
    assert all(isinstance(m["value"], float | int) for m in result["metrics"].values())


def test_refuses_to_run_without_the_library(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.BENCH_DIR, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "decode_crowd", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert "{" not in proc.stdout


def test_self_time_subtracts_direct_children():
    tr = Tracer(enabled=True)
    with tr.span("op"):
        with tr.span("a"):
            pass
        with tr.span("b"):
            pass
    own = tr.self_times_ns()
    assert own[0] == tr.spans[0].duration_ns - tr.spans[1].duration_ns - tr.spans[2].duration_ns
    assert own[1:] == [tr.spans[1].duration_ns, tr.spans[2].duration_ns]
