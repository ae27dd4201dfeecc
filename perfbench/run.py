"""Benchmark of realops: three closed-loop workloads through ``realops.cli.run``.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload quotient --seed 0xC0FFEE \\
        --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload

One client (this process, one thread) sends each request only after the
previous one returned, in process, and checks every report.  A *pass* is
one of the workload's request lists; passes cycle through the lists while
another one should end by about ``--seconds``, and at least one runs.
The program is imported from ``src/`` of the checkout and nowhere else.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (median over
fresh processes that start the interpreter, import realops, make the
inputs and write them), ``peak_rss_mb``, and the times ``wall_ref``
(median pass time) and ``latency_ref_p50``/``latency_ref_p90``
(percentiles over every request of the run).  Those three are in units
of a reference loop of numpy/scipy kernels timed before the first pass
and after each one, each pass divided by the mean of the two around it:
on a shared host, identical work runs up to 1.5x slower for a minute at
a time, and the ratio cancels most of that.  The raw medians in seconds
are printed on the notes line.
``--trace 1`` alternates untraced and traced passes of the first request
list and prints the per-layer metrics of ``tracing.py``, the raw times of
the untraced passes (``run.*``) and the reference time (``ref.s``);
``trace.overhead_frac`` compares the two kinds of pass.  Spans are
written to ``perfbench/.work``.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is
0 when every check held, 1 when one failed and 2 when the program could
not be loaded or the arguments are wrong.
"""

from __future__ import annotations

import os

# One BLAS thread: the matrices are tiny and the loop has a single client.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join("perfbench", ".work")
DEFAULT_SEED = 0xC0FFEE
#: fresh processes timed per run for setup_s
SETUP_PROBES = 5
PROBE_TIMEOUT_S = 120

#: rounds of the reference loop; one round is 64 inputs of four kernels
REF_ROUNDS = 48

END_TO_END = [
    ("setup_s", "s"),
    ("wall_ref", "ref"),
    ("latency_ref_p50", "ref"),
    ("latency_ref_p90", "ref"),
    ("peak_rss_mb", "MiB"),
]
#: raw times of the untraced passes of a traced run, and the reference
RAW_TIMES = [
    ("run.wall_s", "s", "lower"),
    ("run.latency_ms_p50", "ms", "lower"),
    ("run.latency_ms_p90", "ms", "lower"),
    ("ref.s", "s", "lower"),
]


class ProgramMissing(Exception):
    pass


def load_program():
    """Import realops.cli from the checkout's own src/ directory."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "realops", "cli.py")):
        raise ProgramMissing(f"no realops sources under {src}")
    sys.path.insert(0, src)
    import realops.cli
    if not os.path.abspath(realops.cli.__file__).startswith(src + os.sep):
        raise ProgramMissing(f"realops was loaded from {realops.cli.__file__}")
    return realops.cli


def _quantile(xs, q):
    if len(xs) == 1:
        return xs[0]
    return statistics.quantiles(xs, n=100, method="inclusive")[q - 1]


def _input_digest(workdir: str) -> str:
    h = hashlib.sha256()
    if os.path.isdir(workdir):
        for name in sorted(os.listdir(workdir)):
            if name.endswith(".json"):
                h.update(name.encode())
                with open(os.path.join(workdir, name), "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


# ----------------------------------------------------------------------
# One pass
# ----------------------------------------------------------------------

class PassResult:
    def __init__(self, index):
        self.index = index
        self.wall = 0.0
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.report_bytes = 0
        self.digest = ""


def run_pass(cli, requests, index=0, tracer=None) -> PassResult:
    from workloads import check_pairs, check_report
    res = PassResult(index)
    digest = hashlib.sha256()
    values = []
    clock = time.perf_counter
    t_pass = clock()
    for i, req in enumerate(requests):
        if tracer is not None:
            tracer.request = i
        buf = io.StringIO()
        t0 = clock()
        try:
            with contextlib.redirect_stdout(buf):
                code = cli.run(req.argv)
        except Exception as exc:       # a traceback is a failed request
            code, why = None, f"raised {type(exc).__name__}: {exc}"
        res.latencies.append(clock() - t0)
        text = buf.getvalue()
        if code is not None:
            ok, why = check_report(req, code, text)
        else:
            ok = False
        values.append(json.loads(text)["result"].get("value") if ok
                      else None)
        if not ok:
            res.failures.append(f"request {i} ({req.kind}): {why}")
        res.report_bytes += len(text.encode())
        digest.update(text.encode())
    res.failures += check_pairs(requests, values)
    res.wall = clock() - t_pass
    res.digest = digest.hexdigest()
    return res


# ----------------------------------------------------------------------
# Runs
# ----------------------------------------------------------------------

def reference_seconds() -> float:
    """Time of a fixed loop over the kernels realops spends its time in
    (SVD, eigh, kron and expm of 2x2 and 4x4 inputs), with no realops
    code.  Timed beside every pass, it gauges how fast the shared host
    runs the same kind of work at that moment."""
    import numpy as np
    import scipy.linalg
    rng = np.random.default_rng(1)
    mats = rng.standard_normal((64, 4, 4))
    small = 0.1 * rng.standard_normal((64, 2, 2))
    t0 = time.perf_counter()
    for _ in range(REF_ROUNDS):
        for a, b in zip(mats, small):
            np.linalg.svd(a)
            np.linalg.eigh(a + a.T)
            np.kron(b, b)
            scipy.linalg.expm(b)
    return time.perf_counter() - t0


def timed_passes(cli, workload, deadline):
    """Passes cycling through the request lists until the deadline, with
    the reference loop timed before the first pass and after each one.

    Returns the passes and, for each, the mean of the reference times
    around it."""
    refs = [reference_seconds()]
    passes = []
    while not passes or _time_left(deadline, passes, refs[-1]):
        k = len(passes) % len(workload)
        passes.append(run_pass(cli, workload[k], k))
        refs.append(reference_seconds())
    return passes, [(a + b) / 2 for a, b in zip(refs, refs[1:])]


def relative_times(passes, scales) -> dict[str, float]:
    """End-to-end times in units of the reference loop timed beside each
    pass: slow and fast stretches of a shared host scale both alike."""
    walls = [p.wall / s for p, s in zip(passes, scales)]
    lat = [x / s for p, s in zip(passes, scales) for x in p.latencies]
    return {"wall_ref": statistics.median(walls),
            "latency_ref_p50": statistics.median(lat),
            "latency_ref_p90": _quantile(lat, 90)}


def raw_times(passes, scales) -> dict[str, float]:
    lat_ms = [x * 1000.0 for p in passes for x in p.latencies]
    return {"run.wall_s": statistics.median(p.wall for p in passes),
            "run.latency_ms_p50": statistics.median(lat_ms),
            "run.latency_ms_p90": _quantile(lat_ms, 90),
            "ref.s": statistics.median(scales)}


def _time_left(deadline: float, passes, ref: float) -> bool:
    """Start another pass only if it should end at most half a pass past
    the deadline, so a run lasts about ``--seconds`` whatever the pass
    length."""
    typical = statistics.median(p.wall for p in passes) + ref
    return time.perf_counter() + 0.5 * typical < deadline


def probe_setup(args) -> tuple[float, str]:
    """Seconds from spawning a fresh benchmark process to its inputs
    being written and the program imported."""
    cmd = [sys.executable, os.path.abspath(__file__), "--workload",
           args.workload, "--seed", str(args.seed), "--probe"]
    t0 = time.perf_counter()
    with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        try:
            rest, _ = proc.communicate(timeout=PROBE_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            proc.kill()
            raise
    if proc.returncode != 0 or not line.startswith("ready "):
        raise RuntimeError(f"set-up probe failed: {line}{rest}")
    return elapsed, line.split()[1]


def untraced_run(args, cli, workload, workdir):
    digest = _input_digest(os.path.join(workdir, "inputs"))
    setups = []
    problems = []
    for _ in range(SETUP_PROBES):
        elapsed, probe_digest = probe_setup(args)
        setups.append(elapsed)
        if probe_digest != digest:
            problems.append("inputs differ between processes at one seed")
    passes, scales = timed_passes(cli, workload,
                                  time.perf_counter() + args.seconds)
    with open(os.path.join(workdir, "passes.json"), "w") as fh:
        json.dump({"setup_s": setups, "pass": [p.index for p in passes],
                   "wall_s": [p.wall for p in passes], "ref_s": scales,
                   "latency_s": [p.latencies for p in passes]}, fh)
    metrics = {"setup_s": statistics.median(setups),
               **relative_times(passes, scales),
               "peak_rss_mb": resource.getrusage(
                   resource.RUSAGE_SELF).ru_maxrss / 1024.0}
    raw = raw_times(passes, scales)
    notes = [f"setup probes {len(setups)}", f"passes {len(passes)}",
             f"latency samples {sum(len(p.latencies) for p in passes)}",
             "raw medians: " + ", ".join(f"{name} {value:.4f}"
                                        for name, value in raw.items())]
    return passes, metrics, dict(END_TO_END), notes, problems


def traced_run(args, cli, workload, workdir):
    """Untraced and traced passes of the first request list, alternately."""
    from tracing import COUNT_UNITS, PER_LAYER, Tracer
    requests = workload[0]
    plain, traced, per_pass, scales = [], [], [], []
    deadline = time.perf_counter() + args.seconds
    with open(os.path.join(workdir, "spans.jsonl"), "w") as spans:
        while not traced or _time_left(deadline, plain + traced,
                                       scales[-1]):
            if len(plain) <= len(traced):
                scales.append(reference_seconds())
                plain.append(run_pass(cli, requests))
                continue
            tracer = Tracer()
            with tracer.installed():
                res = run_pass(cli, requests, tracer=tracer)
            traced.append(res)
            m = tracer.metrics()
            m["trace.wall_s"] = res.wall
            m["cli.report_bytes"] = res.report_bytes
            m["trace.self_time_s"] = tracer.self_time_total()
            per_pass.append(m)
            tracer.dump(spans, len(traced) - 1)
    units = {name: unit for name, unit, _ in PER_LAYER + RAW_TIMES}
    problems = [f"count {name} differs between traced passes"
                for name in units if units[name] in COUNT_UNITS and
                name in per_pass[0] and
                len({m[name] for m in per_pass}) > 1]
    metrics = {name: per_pass[0][name] if units.get(name) in COUNT_UNITS
               else statistics.median(m[name] for m in per_pass)
               for name in per_pass[0]}
    metrics.update(raw_times(plain, scales))
    metrics["trace.overhead_frac"] = metrics["trace.wall_s"] / \
        metrics["run.wall_s"] - 1
    notes = [f"untraced passes {len(plain)}", f"traced passes {len(traced)}",
             f"span self time {metrics['trace.self_time_s']:.4f} s",
             f"spans in {os.path.join(workdir, 'spans.jsonl')}"]
    return plain + traced, metrics, units, notes, problems


def run_workload(args) -> int:
    from workloads import make_passes
    try:
        cli = load_program()
    except (ProgramMissing, ImportError) as exc:
        print(f"perfbench: cannot load realops: {exc}", file=sys.stderr)
        return 2
    workdir = os.path.join(WORK, f"{args.workload}-{args.seed:x}")
    if args.probe:
        workdir += "-probe"
    inputs = os.path.join(workdir, "inputs")
    os.makedirs(inputs, exist_ok=True)
    workload = make_passes(args.workload, args.seed, inputs)
    if args.probe:
        print(f"ready {_input_digest(inputs)}", flush=True)
        return 0
    run = traced_run if args.trace else untraced_run
    passes, metrics, units, notes, problems = run(args, cli, workload,
                                                  workdir)
    attempted = sum(len(p.latencies) for p in passes)
    failures = [f for p in passes for f in p.failures]
    digests: dict[int, set] = {}
    for p in passes:
        digests.setdefault(p.index, set()).add(p.digest)
    if any(len(d) > 1 for d in digests.values()):
        problems.append("reports differ between passes of the same inputs")
    correct = not failures and not problems
    print(f"perfbench workload={args.workload} seed={args.seed:#x} "
          f"trace={args.trace} requests={attempted} failed={len(failures)} "
          f"failed_frac={len(failures) / attempted:g} "
          f"reports_sha256={passes[0].digest}")
    print("  " + ", ".join(notes))
    for line in failures[:20] + problems:
        print(f"  CHECK FAILED {line}")
    for name in units:
        print(f"  {name:<46} {metrics[name]:>16.6f} {units[name]}")
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": len(failures),
        "metrics": {name: {"value": metrics[name], "unit": units[name]}
                    for name in units}}))
    return 0 if correct else 1


def run_all(args) -> int:
    """Run every workload in its own process; print one combined line."""
    from workloads import WORKLOADS
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        cmd = [sys.executable, os.path.abspath(__file__), "--workload",
               workload, "--seed", str(args.seed), "--seconds",
               str(args.seconds), "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                              text=True)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]), flush=True)
        if proc.returncode == 2 or not lines:
            return 2
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, val in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = val
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    from workloads import WORKLOADS
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=list(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=lambda v: int(v, 0),
                        default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    os.chdir(ROOT)
    sys.path.insert(0, HERE)
    if args.workload == "all":
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
