"""Command line front end.

Subcommands: model gen|validate, verify <suite>, tau eval, perturb sweep,
homotopy check.  Exit status is 0 only when every emitted check row
passed (evaluation-only commands count as passing).
"""

import argparse
import contextlib
import dataclasses
import json
import sys as _sys

import numpy as np

from ..cochain import _tau_pool, tau_eval
from ..errors import ChainBudgetExceeded
from ..kernels import (GAUSS_MIN_ORDER, SimplexQuadratureRule,
                       heat_chain_integrand, simplex_quadrature)
from ..perturbation import (PerturbedContext, endpoint_transgression_check,
                            homotopy_check, homotopy_steps, lipschitz_check,
                            skms_check_perturbed, witten_invariance_check)
from .models import (ModelSpec, build_model, build_perturbed_model, check_scale,
                     model_digest)
from .reports import emit_report
from .suites import SUITES, TOL_FD, SuiteConfig, gate, run_suite


def _usage(parse):
    # a type= function: parse(text) runs while the arguments are parsed,
    # and its ValueError becomes a usage error with the same message
    def checked(text):
        try:
            return parse(text)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc))
    return checked


def _number(kind, text):
    # kind(text), or ValueError "invalid <kind> value: <text>"
    try:
        return kind(text)
    except ValueError:
        raise ValueError("invalid %s value: %r" % (kind.__name__, text)) from None


def _int_in(what, low):
    # an int >= low
    @_usage
    def parse(text):
        value = _number(int, text)
        if value < low:
            raise ValueError("%s must be at least %d, got %d" % (what, low, value))
        return value
    return parse


@_usage
def _coupling(text):
    # a finite float in [0, 1]
    r = _number(float, text)
    if not 0.0 <= r <= 1.0:
        raise ValueError("r must be in [0, 1], got %r" % r)
    return r


def _scale(field, positive):
    # a finite float, > 0 or >= 0 as a spec requires
    return _usage(lambda text: check_scale(field, _number(float, text), positive))


@_usage
def _steps(text):
    # a comma list of floats; _cmd_homotopy_check checks them with --r
    try:
        return tuple(float(h) for h in text.split(","))
    except ValueError:
        raise ValueError("invalid step list: %r" % text) from None


_OPTIONS = {
    "--tol": dict(type=_scale("tol", False), default=None,
                  help="override the default tolerance, a finite number >= 0 "
                  "(see the README)"),
    "--max-degree": dict(type=_int_in("max degree", 1), default=5,
                         help="highest cochain degree checked, >= 1"),
    "--seed": dict(type=_int_in("seed", 0), default=0),
    "--out": dict(default=None, help="write report/output here"),
    "--format": dict(choices=("json", "csv"), default="json"),
    "--timing": dict(action="store_true",
                     help="record wall times (breaks byte determinism)"),
}


def _add_options(parser, *names):
    # each subcommand registers only the options it reads, so any other
    # is a usage error rather than silently ignored
    for name in names:
        parser.add_argument(name, **_OPTIONS[name])


def _config(args):
    kwargs = dict(max_degree=args.max_degree, seed=args.seed, timing=args.timing)
    if args.tol is not None:
        kwargs["tol_exact"] = args.tol
    return SuiteConfig(**kwargs)


@contextlib.contextmanager
def _usage_errors(what, errors=(OSError, ValueError, TypeError)):
    # errors raised inside are usage errors, which main reports in one
    # line, "<what>: <cause>", rather than a traceback: by default a spec
    # that cannot be read, is refused or cannot be built
    try:
        yield
    except errors as exc:
        raise argparse.ArgumentError(None, "%s: %s" % (what, exc))


def _load_model(path, seed=None):
    # (spec, system, perturbation) from the spec file; with a seed, a spec
    # without a perturbation gets the stand-in of build_perturbed_model
    with _usage_errors("cannot load model %s" % path):
        with open(path) as fh:
            spec = ModelSpec.from_json(fh.read())
        model = build_model(spec) if seed is None else build_perturbed_model(spec, seed)
        return (spec,) + model


def _write(text, path):
    # text to the file at path, or to stdout without one
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    else:
        _sys.stdout.write(text)


def _finish(spec, reports, args):
    # the checks' rows are unstamped: each gets args.seed and the spec's
    # digest, the stamp that run_suite already gave the rows of verify
    digest = model_digest(spec)
    reports = [dataclasses.replace(r, seed=args.seed, model_digest=digest)
               for r in reports]
    _write(emit_report(reports, format=args.format), args.out)
    return 0 if all(r.passed for r in reports) else 1


def _cmd_model_gen(args):
    pert = None
    if args.perturb_seed is not None or args.perturb_scale is not None:
        # same default strength the suites use when they synthesize one
        pert = {"seed": args.perturb_seed or 0,
                "scale": args.perturb_scale if args.perturb_scale is not None
                else 0.3}
    with _usage_errors("cannot build model"):
        spec = ModelSpec(kind=args.kind, p=args.p, q=args.q, seed=args.seed,
                         scale=args.scale, perturbation=pert)
        build_model(spec)  # raises on invalid specs before anything is written
    _write(spec.to_json(), args.out)
    return 0


def _cmd_model_validate(args):
    spec, system, pert = _load_model(args.model)
    info = {
        "digest": model_digest(spec),
        "dim": system.dim,
        "witten_index": system.witten_index,
        "has_perturbation": pert is not None,
    }
    _sys.stdout.write(json.dumps(info, indent=2) + "\n")
    return 0


def _cmd_verify(args):
    # built here as well, so a spec that cannot be built is a usage error
    spec = _load_model(args.model, args.seed)[0]
    return _finish(spec, run_suite(spec, args.suite, _config(args)), args)


def _tau_by_quadrature(system, n, xs, rule):
    # --quadrature's route, on the chain's own insertions: _tau_pool of one tuple
    mats, _ = _tau_pool(system, xs, np.arange(n + 1)[:, None])
    integrand = heat_chain_integrand(system.spectrum, mats, system.grading)
    value, err = simplex_quadrature(integrand, n, rule)
    return value / system.witten_index, abs(err / system.witten_index)


def _cmd_tau_eval(args):
    # the quadrature runs at even degrees only; the degree and the rule are
    # parsed apart, so only here can the rule be priced, before any work
    rule = None
    if args.quadrature is not None and args.degree % 2 == 0:
        rule = dataclasses.replace(args.quadrature, seed=args.seed)
        with _usage_errors("argument --quadrature", (ValueError, ChainBudgetExceeded)):
            rule.price(args.degree)
    spec, system, _ = _load_model(args.model)
    rng = np.random.default_rng(np.random.SeedSequence((args.seed, 0x7E)))
    out = []
    for index in range(args.tuples):
        xs = system.random_elements(rng, args.degree + 1, parity="even")
        entry = {"degree": args.degree, "tuple_index": index}
        try:
            if rule is not None:
                val, err = _tau_by_quadrature(system, args.degree, xs, rule)
                entry["estimate"] = [val.real, val.imag]
                entry["quadrature_error"] = err
            val = tau_eval(system, args.degree, xs)
            entry["value"] = [val.real, val.imag]
        except ChainBudgetExceeded as exc:
            entry["error"] = str(exc)
        out.append(entry)
    _write(json.dumps({"schema": "skms-tau/1", "model_digest": model_digest(spec),
                       "evaluations": out}, indent=2) + "\n", args.out)
    return 0


def _cmd_perturb_sweep(args):
    spec, system, pert = _load_model(args.model, args.seed)
    tol = args.tol if args.tol is not None else SuiteConfig().tol_exact
    # the grid's context is priced before it is built
    with _usage_errors("argument --grid", ChainBudgetExceeded):
        invariance = witten_invariance_check(system, pert, grid=args.grid)
    reports = gate(invariance + lipschitz_check(system, pert, samples=50, seed=args.seed),
                   tol)
    couplings = (0.0, 0.5, 1.0)
    contexts = PerturbedContext(system, pert, couplings)
    for k, r_value in enumerate(couplings):
        measured = skms_check_perturbed(contexts.at(k), samples=10, seed=args.seed)
        for row in gate(measured, tol):
            reports.append(dataclasses.replace(
                row, identity_name="%s@r=%s" % (row.identity_name, r_value)))
    return _finish(spec, reports, args)


def _cmd_homotopy_check(args):
    # r and the steps are parsed apart, so only here can they be checked
    # together, before any work
    try:
        homotopy_steps(args.r, args.steps)
    except ValueError as exc:
        raise argparse.ArgumentError(None, "argument --steps: %s" % exc)
    spec, system, pert = _load_model(args.model, args.seed)
    rng = np.random.default_rng(np.random.SeedSequence((args.seed, 0x48)))
    xs = list(system.random_elements(rng, args.degree + 1, parity="even"))
    # a chain past the budget ends the checks in one usage line; tau eval
    # reports the same refusal per entry, verify as a failing row
    with _usage_errors("argument --degree", ChainBudgetExceeded):
        reports = homotopy_check(system, pert, args.degree, xs, r=args.r,
                                 hs=args.steps)
        reports += endpoint_transgression_check(
            system, pert, args.degree, xs,
            tol=args.tol if args.tol is not None else TOL_FD)
    return _finish(spec, reports, args)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="skms",
        description="numerical workbench for graded KMS functionals and "
                    "their cyclic cocycles")
    sub = parser.add_subparsers(dest="command", required=True)

    model = sub.add_parser("model", help="generate or validate model files")
    model_sub = model.add_subparsers(dest="model_command", required=True)
    gen = model_sub.add_parser("gen")
    gen.add_argument("--kind", choices=("RectangularBlock", "RandomGraded"),
                     default="RectangularBlock")
    gen.add_argument("--p", type=int, required=True)
    gen.add_argument("--q", type=int, required=True)
    gen.add_argument("--scale", type=_scale("scale", True), default=None)
    gen.add_argument("--perturb-seed", type=_int_in("perturbation seed", 0),
                     default=None)
    gen.add_argument("--perturb-scale", type=_scale("perturbation scale", False),
                     default=None)
    _add_options(gen, "--seed", "--out")
    gen.set_defaults(func=_cmd_model_gen)
    val = model_sub.add_parser("validate")
    val.add_argument("model")
    val.set_defaults(func=_cmd_model_validate)

    verify = sub.add_parser("verify", help="run a verification suite")
    verify.add_argument("suite", choices=SUITES + tuple(s.lower() for s in SUITES))
    verify.add_argument("--model", required=True)
    _add_options(verify, *_OPTIONS)
    verify.set_defaults(func=_cmd_verify)

    tau = sub.add_parser("tau", help="evaluate the cocycle on seeded tuples")
    tau_sub = tau.add_subparsers(dest="tau_command", required=True)
    tau_eval_p = tau_sub.add_parser("eval")
    tau_eval_p.add_argument("--model", required=True)
    tau_eval_p.add_argument("--degree", type=_int_in("degree", 0), default=2)
    tau_eval_p.add_argument("--tuples", type=_int_in("tuples", 0), default=1)
    tau_eval_p.add_argument("--quadrature", type=_usage(SimplexQuadratureRule.parse),
                            default=None, help="gauss:<order> (order >= %d) "
                            "or mc:<samples>" % GAUSS_MIN_ORDER)
    _add_options(tau_eval_p, "--seed", "--out")
    tau_eval_p.set_defaults(func=_cmd_tau_eval)

    perturb = sub.add_parser("perturb", help="sweep the coupling parameter")
    perturb_sub = perturb.add_subparsers(dest="perturb_command", required=True)
    sweep = perturb_sub.add_parser("sweep")
    sweep.add_argument("--model", required=True)
    sweep.add_argument("--grid", type=_int_in("grid", 2), default=11,
                       help="coupling values from r = 0 to r = 1, >= 2")
    _add_options(sweep, "--seed", "--out", "--format", "--tol")
    sweep.set_defaults(func=_cmd_perturb_sweep)

    homotopy = sub.add_parser("homotopy", help="transgression checks")
    homotopy_sub = homotopy.add_subparsers(dest="homotopy_command",
                                           required=True)
    check = homotopy_sub.add_parser("check")
    check.add_argument("--model", required=True)
    check.add_argument("--degree", type=_int_in("degree", 0), default=2)
    check.add_argument("--r", type=_coupling, default=0.5,
                       help="coupling at which the derivative is taken, in [0, 1]")
    check.add_argument("--steps", type=_steps, default="1e-2,5e-3,2.5e-3",
                       help="comma list of at least two positive "
                       "finite-difference steps")
    _add_options(check, "--seed", "--out", "--format", "--tol")
    check.set_defaults(func=_cmd_homotopy_check)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except argparse.ArgumentError as exc:
        # arguments that are valid alone but not together, or a model file
        # that cannot be loaded
        parser.error(str(exc))


if __name__ == "__main__":
    raise SystemExit(main())
