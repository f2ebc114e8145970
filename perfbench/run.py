"""relcomp benchmark harness.

usage: python3 perfbench/run.py --workload {corpus,gorenstein,search}
                                [--seed N] [--seconds S] [--trace 0|1]

Runs one fixed relcomp CLI workload again and again for about
``run_seconds`` of BENCHMARK.json (``--seconds``, if given, must equal it),
each time in a fresh interpreter (one child alive at a time: a closed loop
with one client), and checks every run's output exactly.  With ``--trace 0``
it reports the end-to-end metrics; with ``--trace 1`` it alternates
untraced and traced runs and reports the per-layer metrics and the tracing
overhead.  Human-readable lines come first; the last stdout line is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  See perfbench/README.md.
"""

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_PROBES = 5  # import-only children after each workload run
DEADLINE_S = 170  # a run must end well inside 180 s
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
RUN_DIR = ".bench_run"
# How an invocation's samples of an end-to-end metric become its value.  Each
# run does fixed work with exactly checked output, so a busy shared host can
# only add time to it: the fastest run is the steadiest estimate of a time
# (best-of-N, as timeit does).  Every other metric reports the median.
BEST_OF = {"wall_s": min, "cpu_s": min, "setup_s": min, "items_per_s": max}


def nproc():
    return len(os.sched_getaffinity(0))


def child_env(root):
    """The environment of every child: relcomp from the checkout's src/,
    and BLAS/OpenMP pools capped at the CPUs this process may use."""
    env = dict(os.environ)
    cpus = nproc()
    for var in THREAD_VARS:
        value = env.get(var, "")
        if not (value.isdigit() and 1 <= int(value) <= cpus):
            env[var] = str(cpus)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(root / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return env


def environment(env, seed):
    import numpy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = "unknown"
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "nproc": nproc(), "seed": seed,
            "threads": {var: env[var] for var in THREAD_VARS}}


class Runner:
    """Starts the children of one benchmark run, one at a time."""

    def __init__(self, root, work_dir, env, deadline):
        self.root = root
        self.work_dir = work_dir
        self.env = env
        self.deadline = deadline
        self.count = 0

    def child(self, run_dir, trace, argv):
        """Run child.py once; returns its JSON line, or None if it failed."""
        self.count += 1
        timeout = self.deadline - time.monotonic()
        if timeout <= 0:
            return None
        t0 = time.monotonic()
        cmd = [sys.executable, str(HERE / "child.py"), repr(t0), str(run_dir),
               str(trace), "%s-%d" % (run_dir.name, self.count), "--", *argv]
        try:
            proc = subprocess.run(cmd, cwd=self.root, env=self.env,
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                                  text=True, timeout=timeout)
        except subprocess.TimeoutExpired:
            print("child timed out after %.0f s" % timeout, file=sys.stderr)
            return None
        if proc.returncode != 0:
            print("child failed (exit %d):\n%s" % (proc.returncode, proc.stderr),
                  file=sys.stderr)
            return None
        return json.loads(proc.stdout.strip().splitlines()[-1])

    def setup(self):
        return self.child(self.work_dir, 0, [])

    def rep(self, name, seed, trace):
        """One run of a workload: measurements, output check and spans."""
        run_dir = Path(tempfile.mkdtemp(prefix="%s-" % name, dir=self.work_dir))
        out_dir = run_dir / "witnesses"
        got = self.child(run_dir, trace, workloads.command(name, seed, out_dir))
        if got is None:
            return {"ok": False, "problems": ["child failed"], "trace": trace}
        stdout = (run_dir / "stdout.txt").read_bytes().decode()
        got["problems"] = workloads.problems(name, seed, got["exit"], stdout, out_dir)
        got["ok"] = not got["problems"]
        got["digest"] = workloads.digest(stdout, out_dir)
        got["trace"] = trace
        if trace:
            got["layers"] = tracer.layer_metrics(
                tracer.read_spans(run_dir / "spans.jsonl"))
            shutil.copy(run_dir / "spans.jsonl",
                        self.work_dir.parent / ("spans-%s-seed%d.jsonl" % (name, seed)))
        shutil.rmtree(run_dir)
        return got


def measure(runner, name, seed, seconds, trace):
    """Warm-up, then workload runs (with --trace 1, pairs of one untraced
    and one traced run), each followed by set-up probes.  Another run starts
    only when the median length so far says it ends within ``seconds`` of
    the first; at least one always runs.  Spreading the probes over the
    whole run lets their fastest one fall in a quiet moment of the host."""
    runner.setup()  # fills the bytecode cache; not measured
    setups, reps, lengths = [], [], []
    start = time.monotonic()
    while True:
        t = time.monotonic()
        for traced in ((0, 1) if trace else (0,)):
            reps.append(runner.rep(name, seed, traced))
        if "exit" not in reps[-1]:  # the child died or the deadline passed
            break
        setups += [p["setup_s"] for p in (runner.setup() for _ in range(SETUP_PROBES)) if p]
        lengths.append(time.monotonic() - t)
        if time.monotonic() - start + statistics.median(lengths) > seconds:
            break
    return setups + [r["setup_s"] for r in reps if "setup_s" in r], reps


def spread(values):
    """(median, first quartile, third quartile) of a sample."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q2, q1, q3


def value(key, values):
    """The reported value of a metric from its samples."""
    return BEST_OF.get(key, statistics.median)(values)


def end_to_end(setups, reps, items):
    good = [r for r in reps if r["ok"]] or [r for r in reps if "wall_s" in r]
    return {
        "wall_s": [r["wall_s"] for r in good],
        "cpu_s": [r["cpu_s"] for r in good],
        "items_per_s": [items / r["wall_s"] for r in good],
        "setup_s": setups,
        "peak_rss_mb": [r["maxrss_kb"] / 1024 for r in good],
    }


def per_layer(reps):
    traced = [r for r in reps if r["trace"] and "layers" in r]
    samples = {key: [r["layers"][key] for r in traced]
               for key in traced[0]["layers"]} if traced else {}
    # reps alternate untraced, traced: one ratio per pair
    ratios = [t["wall_s"] / u["wall_s"] for u, t in zip(reps[::2], reps[1::2])
              if "wall_s" in u and "wall_s" in t]
    if ratios:
        samples["trace.overhead_ratio"] = ratios
    return samples


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None,
                        help="measuring time; must equal run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # SIGTERM unwinds like an error, so the running child is killed and reaped
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "relcomp" / "cli.py").is_file():
        sys.exit("perfbench: no relcomp sources at %s" % (ROOT / "src" / "relcomp"))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    seconds = spec["run_seconds"]
    if args.seconds not in (None, seconds):
        sys.exit("perfbench: --seconds %d differs from run_seconds %d of BENCHMARK.json"
                 % (args.seconds, seconds))
    sys.path.insert(0, str(ROOT / "src"))

    env = child_env(ROOT)
    env_record = environment(env, args.seed)
    (ROOT / RUN_DIR).mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix="run-", dir=ROOT / RUN_DIR))
    try:
        runner = Runner(ROOT, work_dir, env, deadline)
        setups, reps = measure(runner, args.workload, args.seed, seconds, args.trace)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    if not setups or not any("wall_s" in r for r in reps):
        sys.exit("perfbench: no run of %s completed" % args.workload)

    items = workloads.WORKLOADS[args.workload].items
    failed = sum(not r["ok"] for r in reps)
    if args.trace:
        declared = spec["per_layer"]
        samples = per_layer(reps)
    else:
        declared = spec["end_to_end"]
        samples = end_to_end(setups, reps, items)
    print("relcomp benchmark: workload=%s seed=%d seconds=%d trace=%d"
          % (args.workload, args.seed, seconds, args.trace))
    print("env: " + json.dumps(env_record, sort_keys=True))
    for r in reps:
        print("run trace=%d ok=%s digest=%s %s" % (
            r["trace"], r["ok"], r.get("digest", "-"),
            "; ".join(r["problems"]) or "exact output"))
    for key, values in sorted(samples.items()):
        med, q1, q3 = spread(values)
        print("%-44s %.6g  (median %.6g, quartiles %.6g..%.6g, n=%d)"
              % (key, value(key, values), med, q1, q3, len(values)))
    print("failed_frac %.6g  (%d of %d runs)" % (failed / len(reps), failed, len(reps)))

    missing = [m["name"] for m in declared if m["name"] not in samples]
    if missing:
        sys.exit("perfbench: no samples of %s" % ", ".join(missing))
    metrics = {m["name"]: {"value": value(m["name"], samples[m["name"]]), "unit": m["unit"]}
               for m in declared}
    record = {"env": env_record, "workload": args.workload, "trace": args.trace,
              "seconds": seconds, "samples": samples, "failed": failed,
              "attempted": len(reps), "runs": reps}
    (ROOT / RUN_DIR / ("result-%s-seed%d-trace%d.json"
                       % (args.workload, args.seed, args.trace))).write_text(
        json.dumps(record, indent=1, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": len(reps),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
