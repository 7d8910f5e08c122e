"""Benchmark entry point for skmslab.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout.  Each run starts fresh Python
processes (worker.py), one after another, with one BLAS thread and `src`
on PYTHONPATH, so no installed copy of the package is needed or used.
The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics: every end-to-end metric of
BENCHMARK.json with --trace 0, every per-layer metric with --trace 1.
The line before it is the run record: environment, load, seed, per-op
detail, and the sha256 of each verify_all report.

Exits non-zero without a result when the package source is missing, a
worker fails, or a metric named in BENCHMARK.json is not produced.
"""

import argparse
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("verify_all", "cocycle_d10", "mc_oracle", "homotopy_d8")
# one closed-loop client on one core; the count must not exceed nproc
BLAS_THREADS = 1
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# every worker is stopped and waited for before the run reaches this
RUN_LIMIT_S = 170
# cold_s is the median over the main worker and this many more fresh
# processes that stop after their cold pass; verify_all's cold pass is two
# ~1 s ops that the probes around them bracket loosely, so it takes more
EXTRA_COLD = {"verify_all": 3}
EXTRA_COLD_DEFAULT = 2
# a (dim, degree) bucket a workload never runs has no latency to report
OPTIONAL = re.compile(r"kernels\.chain_integral\.d\d+n\d+\.us_p50$")


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    return 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "skmslab" / "__init__.py").is_file():
        return fail("no package source at %s" % src)
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = bench["per_layer" if args.trace else "end_to_end"]

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src)] + [p for p in [env.get("PYTHONPATH")] if p])
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    threads = str(min(BLAS_THREADS, os.cpu_count() or 1))
    for var in BLAS_VARS:
        env[var] = threads

    load_before = os.getloadavg()
    started = time.perf_counter()
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), "--src", str(src)]
    extra = 0 if args.trace else EXTRA_COLD.get(args.workload, EXTRA_COLD_DEFAULT)
    runs = [cmd] + [cmd + ["--cold-only"]] * extra
    outs = []
    for argv_ in runs:
        left = RUN_LIMIT_S - (time.perf_counter() - started)
        try:
            proc = subprocess.run(argv_, cwd=ROOT, env=env, capture_output=True,
                                  text=True, timeout=max(1.0, left))
        except subprocess.TimeoutExpired:
            return fail("run exceeded %d s; worker stopped" % RUN_LIMIT_S)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return fail("worker exited with status %d" % proc.returncode)
        outs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    out = outs[0]
    correct = all(o["correct"] for o in outs)
    attempted = sum(o["attempted"] for o in outs)
    failed = sum(o["failed"] for o in outs)
    out["record"]["failed_ratio"] = failed / attempted
    if not args.trace:
        colds = [o["metrics"]["cold_s"] for o in outs]
        out["metrics"]["cold_s"] = statistics.median(colds)
        out["metrics"]["ok_ratio"] = 1.0 - failed / attempted
        out["record"]["cold_samples"] = colds

    metrics = {}
    for entry in wanted:
        name = entry["name"]
        value = out["metrics"].pop(name, None)
        if value is None:
            if not OPTIONAL.match(name):
                return fail("metric %s was not produced" % name)
            value = 0.0
        metrics[name] = {"value": value, "unit": entry["unit"]}

    record = out["record"]
    record.update({
        "workload": args.workload,
        "trace": args.trace,
        "run_s": time.perf_counter() - started,
        "loadavg_before": load_before,
        "loadavg_after": os.getloadavg(),
        "unlisted_metrics": out["metrics"],
    })
    print(json.dumps({"record": record}))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
