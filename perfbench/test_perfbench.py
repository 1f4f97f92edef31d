"""Tests of the benchmark itself: metric names, determinism, backend parity."""

from __future__ import annotations

import json
import os
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
for path in (HERE, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)

import run  # noqa: E402
import workloads  # noqa: E402
from emdut.cli import main as cli_main  # noqa: E402
from emdut.core import parse_point_set  # noqa: E402
from emdut.sweep1d import emdut_1d_sweep  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    SPEC = json.load(_fh)


def _bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "0.3", "--trace", str(trace), "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["detail"], json.loads(lines[-1])


def test_spec_lists_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(workloads.WORKLOADS)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_tiny_run_reports_every_metric(workload, trace, section):
    detail, result = _bench(workload, trace)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert detail["failed_frac"] == 0
    want = {m["name"]: m["unit"] for m in SPEC[section]}
    got = {name: m["unit"] for name, m in result["metrics"].items()}
    assert got == want


def _answers(pool) -> list:
    """Every solve answer of the pool; ``gen`` output only names files."""
    out = []
    for op in pool.ops:
        for text in run.run_op(cli_main, op):
            payload = json.loads(text)
            if "value" in payload:
                payload.pop("stats")  # holds wall-clock millis
                out.append(payload)
    return out


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_instances_and_answers(workload, tmp_path):
    first = workloads.build(workload, 5, str(tmp_path / "a"), "tiny")
    second = workloads.build(workload, 5, str(tmp_path / "b"), "tiny")
    other = workloads.build(workload, 6, str(tmp_path / "c"), "tiny")
    assert first.digest == second.digest != other.digest
    assert _answers(first) == _answers(second)


def _read(path: str):
    with open(path, encoding="utf-8") as fh:
        return parse_point_set(fh.read())


def test_envelope_backends_agree_on_small_sweep_instances(tmp_path, record_property):
    pool = workloads.build("sweep_asym", 7, str(tmp_path), "tiny")
    reassignments = {"naive": [], "tree": []}
    for op in pool.ops:
        argv = op.calls[0]
        blue, red = (_read(argv[argv.index(flag) + 1]) for flag in ("--blue", "--red"))
        results = {}
        for backend in reassignments:
            value, tau, _, stats = emdut_1d_sweep(blue, red, envelope=backend,
                                                  return_stats=True)
            results[backend] = (value, tau)
            reassignments[backend].append(stats.reassignment_events)
        assert results["naive"] == results["tree"]
    # The backends may schedule ties differently, so event counts are only
    # recorded here, not compared.
    record_property("reassignment_events", json.dumps(reassignments))
