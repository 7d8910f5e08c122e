"""One benchmark run of one workload, in a fresh process.

Started by run.py with the BLAS thread count and PYTHONPATH already set.
Prints one JSON object: every end-to-end metric (untraced run) or every
per-layer metric (traced run), plus the run record.

Run structure: set up once, run one cold pass (the first in this
process, caches empty), time repeated set-ups (`setup_s`), then run warm
passes over the same inputs until the time is up and the workload's
minimum op count is reached.  Around every timed set-up and warm op a
probe (calibrate.py) reads the host speed, and the time is rescaled by
it.  A traced run traces the cold pass and alternates untraced and
traced warm passes; its per-layer numbers are per traced warm pass.
With --cold-only the process stops after the cold pass.
"""

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

SETUP_REPS = 25
SETUP_SAMPLE_S = 0.01
MIN_TRACED_PASSES = 2
# stop warm passes here even if the minimum op count is not reached, so the
# run ends well inside the 180 s the benchmark is allowed
HARD_STOP_S = 120.0
HEADROOM_CAP = 16.0


def _digits(residual, tol):
    if residual == 0.0:
        return HEADROOM_CAP
    if not tol > 0.0 or not math.isfinite(residual):
        return -HEADROOM_CAP
    return max(-HEADROOM_CAP, min(HEADROOM_CAP, math.log10(tol / residual)))


def _nearest_rank(values, pct):
    ordered = sorted(values)
    k = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[k - 1], len(ordered) - k


class Pass:
    """Op times of one pass, raw and rescaled to the probe's reference."""

    def __init__(self, op_s, scaled_s, outcomes):
        self.op_s = op_s
        self.scaled_s = scaled_s
        self.outcomes = outcomes


def run_pass(workload, inputs, tracer=None, install=None, probe=None,
             probe_first=True):
    """Time each op over the inputs; tracing is on only inside this call.

    With a probe, the probe runs after every op and, if probe_first,
    before the first, all outside the op's timing; each op is rescaled by
    the mean of the probes around it.
    """
    undo = install(tracer) if tracer is not None else None
    op_s, scaled_s, outcomes = [], [], []
    try:
        before = probe.run() if probe and probe_first else None
        for inp in inputs:
            t0 = time.perf_counter()
            try:
                outcomes.append((workload.run_op(inp), None))
            except Exception as exc:  # a failed op is counted, the loop goes on
                outcomes.append((None, "%s: %s" % (type(exc).__name__, exc)))
            op_s.append(time.perf_counter() - t0)
            if probe:
                after = probe.run()
                scaled_s.append(op_s[-1] * probe.scale(before or after, after))
                before = after
    finally:
        if undo is not None:
            undo()
    return Pass(op_s, scaled_s, outcomes)


class Verdicts:
    """Checks every op of every pass against its gates and the cold pass."""

    def __init__(self, workload, inputs):
        self.workload = workload
        self.inputs = inputs
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.mismatches = 0
        self.baseline = None
        self.headroom = []
        self.details = []

    def add(self, pass_):
        first = self.baseline is None
        prints = []
        for i, (inp, (result, error)) in enumerate(zip(self.inputs,
                                                        pass_.outcomes)):
            self.attempted += 1
            check = None
            if error is None:
                try:
                    check = self.workload.check(inp, result)
                except Exception as exc:  # malformed output fails the op
                    error = "check %s: %s" % (type(exc).__name__, exc)
            if error is not None and len(self.errors) < 5:
                self.errors.append(error)
            fingerprint = None if check is None else check.fingerprint
            prints.append(fingerprint)
            if first and check is not None:
                self.headroom.append(min((_digits(r, t) for r, t in check.gates),
                                         default=HEADROOM_CAP))
                self.details.append(check.detail)
            # the same input must give the same result on every pass,
            # traced or not
            mismatch = not first and (fingerprint is None
                                      or self.baseline[i] is None
                                      or not _same(fingerprint, self.baseline[i]))
            self.mismatches += mismatch
            if check is None or check.failed or mismatch:
                self.failed += 1
        if first:
            self.baseline = prints

    def headroom_digits(self):
        return min(self.headroom, default=-HEADROOM_CAP)


def _same(a, b):
    if isinstance(a, tuple):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    return a == b


def environment():
    import numpy as np
    import scipy

    build = np.show_config(mode="dicts").get("Build Dependencies", {})
    blas = build.get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": "%s %s" % (blas.get("name"), blas.get("version")),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
    }


def layer_metrics(tracer, traced_s, traced_passes, cold_edd_calls, scale):
    """Per traced warm pass; times rescaled by the run's mean probe."""
    per = 1.0 / traced_passes
    per_s = scale / traced_passes
    st = tracer.stat
    out = {}
    for name in ("kernels.chain_integral", "kernels.exp_divided_difference",
                 "kernels.indefinite_integration_matrix", "kernels.Spectrum",
                 "scipy.expm", "perturbation.PerturbedContext",
                 "perturbation.transgression_G", "perturbation.tau_r_eval",
                 "cochain.tau_eval", "cochain.connes_B", "cochain.hochschild_b",
                 "cochain.is_scalar_slot", "graded.classify",
                 "dynamics.GradedSystem", "dynamics.heisenberg_flow"):
        out[name + ".calls"] = st(name).calls * per
    for name in ("kernels.chain_integral", "scipy.expm",
                 "kernels.simplex_quadrature",
                 "kernels.indefinite_integration_matrix",
                 "perturbation.PerturbedContext", "perturbation.dyson_alpha_info",
                 "perturbation.dyson_gamma_one_info", "cochain.is_scalar_slot",
                 "dynamics.GradedSystem", "workbench.build_model",
                 "workbench.emit_report"):
        out[name + ".self_s"] = st(name).self_s * per_s
    for layer in ("graded", "kernels", "dynamics", "cochain", "perturbation",
                  "workbench"):
        out[layer + ".self_s"] = tracer.layer_self(layer) * per_s
    counters = tracer.counters
    out["kernels.chain_integral.refused"] = \
        counters.get("kernels.chain_integral.refused", 0) * per
    out["kernels.exp_divided_difference.cold_calls"] = cold_edd_calls
    out["scipy.expm.dim_max"] = counters.get("scipy.expm.dim_max", 0)
    points = counters.get("kernels.heat_chain_integrand.points", 0)
    eval_s = st("kernels.heat_chain_integrand.eval").incl_s
    out["kernels.heat_chain_integrand.points"] = points * per
    out["kernels.heat_chain_integrand.points_per_s"] = \
        points / (eval_s * scale) if eval_s > 0.0 else 0.0
    out["workbench.emit_report.bytes"] = \
        counters.get("workbench.emit_report.bytes", 0) * per
    for key, samples in tracer.chain_us.items():
        out["kernels.chain_integral.%s.us_p50" % key] = \
            statistics.median(samples) * scale
    out["share.chain_integral"] = st("kernels.chain_integral").incl_s / traced_s
    out["share.heat_chain_integrand"] = eval_s / traced_s
    out["share.perturbation_fresh_chains"] = \
        (tracer.layer_self("perturbation") + tracer.pert_kernel_s) / traced_s
    return out


def timed_setups(workload, seed, probe):
    """Median set-up time, each sample rescaled by the probes around it.

    A sample times as many set-ups in a row as fill SETUP_SAMPLE_S, short
    next to a host-speed state but long next to timer noise.
    """
    t0 = time.perf_counter()
    workload.setup(seed)
    batch = max(1, math.ceil(SETUP_SAMPLE_S / (time.perf_counter() - t0)))
    samples = []
    before = probe.run()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        for _ in range(batch):
            workload.setup(seed)
        took = (time.perf_counter() - t0) / batch
        after = probe.run()
        samples.append(took * probe.scale(before, after))
        before = after
    return statistics.median(samples)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--cold-only", action="store_true",
                        help="stop after the cold pass (extra cold samples)")
    parser.add_argument("--src", required=True,
                        help="directory the skmslab package must load from")
    args = parser.parse_args(argv)
    start = time.perf_counter()

    import skmslab
    if not os.path.abspath(skmslab.__file__).startswith(
            os.path.abspath(args.src) + os.sep):
        raise SystemExit("skmslab loaded from %s, not from %s"
                         % (skmslab.__file__, args.src))
    import tracing
    from calibrate import Probe
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload]
    inputs = workload.setup(args.seed)
    tracer = tracing.Tracer() if args.trace else None
    verdicts = Verdicts(workload, inputs)
    probe = Probe()
    # no probe before the first cold op, so it meets every library cold
    cold = run_pass(workload, inputs, tracer, tracing.install, probe,
                    probe_first=False)
    verdicts.add(cold)
    record = {"seed": args.seed, "ops_per_pass": len(inputs),
              "cold_raw_s": sum(cold.op_s)}
    if args.cold_only:
        print(json.dumps({"correct": verdicts.failed == 0,
                          "attempted": verdicts.attempted,
                          "failed": verdicts.failed,
                          "metrics": {"cold_s": sum(cold.scaled_s)},
                          "record": record}))
        return
    setup_s = timed_setups(workload, args.seed, probe)

    def more(done_ops, done_traced=MIN_TRACED_PASSES, done_plain=MIN_TRACED_PASSES):
        elapsed = time.perf_counter() - start
        if elapsed > HARD_STOP_S:
            return False
        need = (done_ops < workload.min_ops or done_traced < MIN_TRACED_PASSES
                or done_plain < MIN_TRACED_PASSES)
        return need or elapsed < args.seconds

    if not args.trace:
        warm = []
        while more(sum(len(p.op_s) for p in warm)):
            warm.append(run_pass(workload, inputs, probe=probe))
            verdicts.add(warm[-1])
        op_ms = [t * 1e3 for p in warm for t in p.scaled_s]
        tail, beyond = _nearest_rank(op_ms, workload.tail_pct)
        metrics = {
            "setup_s": setup_s,
            # the mean, not the median: each pass mixes only a few host
            # speed states, and a median jumps between them
            "wall_s": statistics.fmean(sum(p.scaled_s) for p in warm),
            # run.py takes the median of this and the cold-only processes,
            # and adds ok_ratio over all of them
            "cold_s": sum(cold.scaled_s),
            "op_ms_p50": statistics.median(op_ms),
            "op_ms_tail": tail,
            "headroom_digits": verdicts.headroom_digits(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        record.update({
            "raw_wall_s": statistics.fmean(sum(p.op_s) for p in warm),
            "warm_passes": len(warm),
            "warm_ops": len(op_ms),
            "tail_percentile": workload.tail_pct,
            "tail_samples_beyond": beyond,
        })
    else:
        cold_edd = tracer.stat("kernels.exp_divided_difference").calls
        undo = tracing.install(tracer)
        record["bindings"] = tracing.binding_report()
        undo()
        tracer.reset()
        plain, traced = [], []
        while more(workload.min_ops, len(traced), len(plain)):
            if len(plain) <= len(traced):
                plain.append(run_pass(workload, inputs, probe=probe))
                verdicts.add(plain[-1])
            else:
                traced.append(run_pass(workload, inputs, tracer,
                                       tracing.install, probe))
                verdicts.add(traced[-1])
        scale = probe.mean_scale()
        traced_s = sum(sum(p.op_s) for p in traced)
        metrics = layer_metrics(tracer, traced_s, len(traced), cold_edd, scale)
        metrics["trace.overhead_s"] = (
            statistics.fmean(sum(p.scaled_s) for p in traced)
            - statistics.fmean(sum(p.scaled_s) for p in plain))
        record.update({"traced_passes": len(traced), "plain_passes": len(plain)})

    record.update({
        "env": environment(),
        "probe_scale": probe.mean_scale(),
        "mismatched_ops": verdicts.mismatches,
        "errors": verdicts.errors,
        "op_headroom_digits": verdicts.headroom,
        "op_details": verdicts.details,
    })
    print(json.dumps({
        "correct": verdicts.failed == 0,
        "attempted": verdicts.attempted,
        "failed": verdicts.failed,
        "metrics": metrics,
        "record": record,
    }))


if __name__ == "__main__":
    main()
