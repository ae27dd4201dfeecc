"""Tests of the benchmark itself: inputs, checks, tracing and a smoke run.

Run from the root of a checkout with ``python3 -m pytest perfbench``.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
#: traced self times must sum to the traced pass wall time within this
#: share; the rest is the benchmark's own loop and report checks
SELF_TIME_SLACK = 0.02


@pytest.fixture(scope="module")
def cli():
    return run.load_program()


def _files(workdir):
    return {name: open(os.path.join(workdir, name)).read()
            for name in sorted(os.listdir(workdir))}


def _relative(path):
    return os.path.relpath(str(path), os.getcwd())


def test_inputs_are_deterministic_in_the_seed(tmp_path):
    a, b, c = (tmp_path / "a", tmp_path / "b", tmp_path / "c")
    passes_a = workloads.make_passes("quotient", 7, str(a))
    workloads.make_passes("quotient", 7, str(b))
    workloads.make_passes("quotient", 8, str(c))
    assert _files(a) == _files(b)
    assert _files(a) != _files(c)
    assert len(passes_a) == workloads.QUOTIENT_PASSES
    assert sum(map(len, passes_a)) >= 100
    for reqs in passes_a:
        kinds = [r.kind for r in reqs]
        assert {k: kinds.count(k) for k in set(kinds)} == \
            {"generic": 15, "pair": 12, "inside": 9}
    for w in ("verify", "reproduce"):
        argvs = [[r.argv for r in reqs]
                 for reqs in workloads.make_passes(w, 7, str(a))]
        assert argvs == [[r.argv for r in reqs]
                         for reqs in workloads.make_passes(w, 7, str(b))]
        assert argvs[0][0][:2] == ["--seed", "7"]


def test_metric_names_and_benchmark_file_agree():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    e2e = [(m["name"], m["unit"]) for m in bench["end_to_end"]]
    layer = [(m["name"], m["unit"], m["better"]) for m in bench["per_layer"]]
    assert e2e == run.END_TO_END
    assert layer == tracing.PER_LAYER + run.RAW_TIMES
    assert [w["name"] for w in bench["workloads"]] == \
        list(workloads.WORKLOADS)
    for name, *_ in e2e + layer:
        assert NAME.fullmatch(name), name
    names = [n for n, *_ in e2e + layer]
    assert len(names) == len(set(names))


def test_checks_reject_wrong_reports():
    req = workloads.Request([], "inside", {"level_norm": 2.0})

    def report(value, converged=True):
        return json.dumps({"passed": converged, "result": {
            "value": value, "converged": converged}})

    assert workloads.check_report(req, 0, report(1e-12))[0]
    assert not workloads.check_report(req, 0, report(1e-6))[0]
    assert not workloads.check_report(req, 2, report(1e-12, False))[0]
    generic = workloads.Request([], "generic", {"level_norm": 2.0})
    assert not workloads.check_report(generic, 0, report(2.1))[0]
    pair = [workloads.Request([], "pair", {"pair": 3}) for _ in range(2)]
    assert workloads.check_pairs(pair, [1.0, 1.0 + 1e-9]) == []
    assert len(workloads.check_pairs(pair, [1.0, 1.001])) == 1
    verify = workloads.Request([], "verify", {"suite": "mideal"})
    row = {"name": "r", "passed": True}
    assert workloads.check_report(verify, 0, json.dumps(
        {"passed": True, "result": {"mideal": [row]}}))[0]
    assert not workloads.check_report(verify, 0, json.dumps(
        {"passed": True, "result": {"systems": [row]}}))[0]
    dual = workloads.Request([], "dual")
    assert not workloads.check_report(dual, 0, json.dumps(
        {"passed": True, "result": {"dual_lower_bound": 0.9}}))[0]


def test_tracing_keeps_reports_and_counts(cli, tmp_path):
    requests = workloads.make_passes("quotient", 3, _relative(tmp_path))[0]
    requests = requests[:6] + requests[27:36]
    plain = run.run_pass(cli, requests)
    traced = []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracer.installed():
            res = run.run_pass(cli, requests, tracer=tracer)
        traced.append((res, tracer))
    assert not plain.failures
    assert {plain.digest} == {res.digest for res, _ in traced}
    counts = []
    for res, tracer in traced:
        m = tracer.metrics()
        counts.append({name: m[name] for name, unit, _ in tracing.PER_LAYER
                       if unit in tracing.COUNT_UNITS and name in m})
        assert m["opspace.quotient_level_norm.calls"] == len(requests)
        assert m["cli.run.calls"] == len(requests)
        self_time = tracer.self_time_total()
        assert self_time <= res.wall
        assert res.wall - self_time <= SELF_TIME_SLACK * res.wall
    assert counts[0] == counts[1]
    assert counts[0]["kernel.eigh.calls"] > 0
    # the wrappers are gone once the block ends
    import numpy as np
    import realops.optim
    assert realops.optim.polyak_minimize.__module__ == "realops.optim"
    assert np.linalg.svd.__module__.startswith("numpy")


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "quotient",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_smoke_all_workloads():
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "all",
         "--seconds", "0", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    for w in workloads.WORKLOADS:
        for name, unit in run.END_TO_END:
            metric = result["metrics"][f"{w}.{name}"]
            assert metric["unit"] == unit and metric["value"] > 0
