"""Command-line front end.

Subcommands: schemes, check, simulate, error-table, converge, dense,
local-order, exact-order.  Every output header records, for provenance,
each option that shapes its numbers (``_RECORDED``, with the problem's own
options as ``problem_params``); ``--threads`` and ``--outcome-cap`` are left
out because they change no number.  Each command that takes a scheme takes
exactly one of ``--scheme`` and ``--scheme-file``; ``simulate`` measures no
functional, so it takes no ``--f`` or ``--reference``.  Numeric fields use
round-trip (17 significant digit) formatting.  Emits CSV (default) or JSON;
plot-ready data only, no image rendering.
"""

from __future__ import annotations

import argparse
import json
import math
import shutil
import sys
import tempfile
import warnings

import numpy as np

from . import __version__
from .increments import CapacityError, check_step
from .integrator import TimeGrid
from .sde import functional_from_name, linear_problem, ode_problem, system2d_problem
from .stats import (
    _MAX_STEPS,
    _OUTCOME_CAP,
    check_fit_steps,
    check_outcome_count,
    dense_error_profile,
    empirical_order,
    error_table,
    exact_weak_expectation,
    grid_for_step,
    _dense_value,
    _path_steps,
)
from .streams import check_index
from .tableau import builtin_scheme, parse_tableau, scheme_names

# the options an output header records, in header order, where its command
# takes them; a problem's own options are recorded as problem_params.
# --threads and --outcome-cap are left out: results are bit-identical for
# any thread count, and the cap only decides whether an enumeration runs
_RECORDED = (
    "command", "scheme", "scheme_file", "problem", "problem_params", "f",
    "h", "h_list", "n_list", "t_eval", "theta_list", "theta_eval",
    "m_samples", "seed", "confidence", "dense_per_step", "reference",
    "grid_points", "tol", "output_format", "output",
)


def _problems():
    """Problem name -> (factory, its options in keyword order)."""
    # built on each call, so the factories are the module globals at call
    # time and a caller that replaces them (for instance to trace drift
    # calls) is honoured
    return {
        "linear": (linear_problem, ("a", "b", "x0", "T")),
        "system2d": (system2d_problem, ()),
        "ode": (ode_problem, ("lam", "x0", "T")),
    }


# each problem option and its default; a problem takes the options its
# entry in _problems() names and refuses the others
_PROBLEM_OPTIONS = {"a": 1.5, "b": 0.1, "lam": 1.0, "x0": 0.1, "T": 2.0}


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


def _strict_json(v):
    """v with each non-finite float spelled as in CSV ("nan", "inf",
    "-inf"), a JSON string, since strict JSON has no NaN or Infinity."""
    if isinstance(v, float) and not math.isfinite(v):
        return _fmt(v)
    if isinstance(v, dict):
        return {k: _strict_json(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_strict_json(x) for x in v]
    return v


def _emit(args, columns, rows, header=(), footer=()):
    """Write one table, headed by the recorded options, as CSV or JSON.

    ``rows`` is any iterable of rows.  Each row goes to a temporary file as
    it arrives, and the file is copied to the output only once the last row
    is in, so a command that fails on the way writes nothing.
    """
    given = vars(args)
    config = {k: given[k] for k in _RECORDED if given.get(k) is not None}
    with tempfile.TemporaryFile("w+") as tmp:
        if args.output_format == "json":
            _write_json(tmp, config, columns, rows, header, footer)
        else:
            tmp.write(f"# csrk {__version__}\n"
                      f"# config = {json.dumps(config, default=_fmt)}\n")
            tmp.writelines(f"# {key} = {value}\n" for key, value in header)
            tmp.write(",".join(columns) + "\n")
            tmp.writelines(",".join(_fmt(v) for v in row) + "\n"
                           for row in rows)
            tmp.writelines(f"# {key} = {_fmt(value)}\n"
                           for key, value in footer)
        tmp.seek(0)
        if args.output:
            with open(args.output, "w") as fh:
                shutil.copyfileobj(tmp, fh)
        else:
            shutil.copyfileobj(tmp, sys.stdout)


def _write_json(fh, config, columns, rows, header, footer):
    """The document json.dumps(..., indent=2) writes, one row at a time."""
    doc = {"version": __version__, "config": config, **dict(header),
           "columns": columns, "rows": [], **dict(footer)}
    text = json.dumps(_strict_json(doc), indent=2, default=_fmt) + "\n"
    # "rows" is a key of the top-level object only, and a string value
    # holding these characters has its quotes escaped
    head, _, tail = text.partition('"rows": []')
    fh.write(head + '"rows": [')
    sep, end = "\n    ", "]"
    for row in rows:
        # a row sits two levels deep: its lines are indented by 4 more
        item = json.dumps(_strict_json(row), indent=2, default=_fmt)
        fh.write(sep + item.replace("\n", "\n    "))
        sep, end = ",\n    ", "\n  ]"
    fh.write(end + tail)


def _load_scheme(args):
    if args.scheme_file is None:
        return builtin_scheme(args.scheme)
    with open(args.scheme_file) as fh:
        return parse_tableau(fh.read())


def _problem_params(args):
    names = _problems()[args.problem][1]
    unused = [f"--{k}" for k in _PROBLEM_OPTIONS
              if k not in names and getattr(args, k) is not None]
    if unused:
        raise ValueError(f"problem {args.problem!r} does not take "
                         f"{', '.join(unused)}")
    return {k: _PROBLEM_OPTIONS[k] if getattr(args, k) is None
            else getattr(args, k) for k in names}


def _build_problem(args):
    factory, _ = _problems()[args.problem]
    return factory(**args.problem_params)


def _setup(args):
    """Scheme, problem and reference (which carries f) of a problem command."""
    scheme = _load_scheme(args)
    problem = _build_problem(args)
    provenance = {"derived": "derived_closed_form"}.get(args.reference,
                                                        args.reference)
    f = functional_from_name(args.f)
    return scheme, problem, problem.reference_for(f, provenance)


def _floats(text):
    return [float(v) for v in text.split(",") if v]


def _ints(text):
    return [int(v) for v in text.split(",") if v]


def _add_scheme_args(p):
    g = p.add_mutually_exclusive_group(required=True)
    g.add_argument("--scheme", help="builtin scheme name")
    g.add_argument("--scheme-file", help="JSON scheme-definition document")


def _add_problem_args(p):
    _add_scheme_args(p)
    p.add_argument("--problem", required=True, choices=list(_problems()))
    for name in _PROBLEM_OPTIONS:
        p.add_argument(f"--{name}", type=float)


def _add_estimate_args(p):
    """A problem command that measures a functional against a reference."""
    _add_problem_args(p)
    p.add_argument("--f", default="x", help="functional: x or x2")
    p.add_argument("--reference", default=None,
                   choices=["paper_stated", "derived"],
                   help="reference selector (default: derived when available)")


def _add_mc_args(p):
    p.add_argument("--M", dest="m_samples", metavar="M", type=int,
                   default=10**5, help="sample count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--confidence", type=float, default=0.9)
    p.add_argument("--threads", type=int, default=1,
                   help="worker threads (does not affect results)")


def _add_output_args(p):
    p.add_argument("--format", dest="output_format", default="csv",
                   choices=["csv", "json"])
    p.add_argument("--output", default=None, help="output path (default stdout)")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``csrk: error:`` line, exit status 2.

    Options must be spelled out: with prefix matching, an option a command
    lacks could bind to a longer one (``simulate --f`` to ``--format``).
    Subparsers are made by this class, so this holds for every command.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)

    def error(self, message):
        self.exit(2, f"csrk: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="csrk",
        description="Continuous stochastic Runge-Kutta weak approximation",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("schemes", help="list builtin schemes")
    _add_output_args(p)

    p = sub.add_parser("check", help="verify order conditions")
    _add_scheme_args(p)
    p.add_argument("--grid-points", type=int, default=21)
    p.add_argument("--tol", type=float, default=1e-12)
    _add_output_args(p)

    p = sub.add_parser("simulate", help="simulate one path with dense output")
    _add_problem_args(p)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dense-per-step", type=int, default=0,
                   help="extra dense evaluations per step")
    _add_output_args(p)

    for name in ("error-table", "converge"):
        p = sub.add_parser(name, help="MC error rows" +
                           (" plus order fit" if name == "converge" else ""))
        _add_estimate_args(p)
        p.add_argument("--t-eval", type=float, required=True)
        p.add_argument("--h-list", type=_floats, required=True)
        _add_mc_args(p)
        _add_output_args(p)

    p = sub.add_parser("dense", help="dense-output error profile")
    _add_estimate_args(p)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--theta-list", type=_floats,
                   default=[round(0.1 * i, 1) for i in range(1, 10)])
    _add_mc_args(p)
    _add_output_args(p)

    p = sub.add_parser("local-order", help="one-step exact weak errors")
    _add_estimate_args(p)
    p.add_argument("--h-list", type=_floats, required=True)
    _add_output_args(p)

    p = sub.add_parser("exact-order", help="full-grid exact weak errors")
    _add_estimate_args(p)
    p.add_argument("--N-list", dest="n_list", type=_ints, required=True)
    p.add_argument("--theta-eval", type=float, default=1.0)
    p.add_argument("--outcome-cap", type=int, default=_OUTCOME_CAP)
    _add_output_args(p)

    return ap


def _cmd_schemes(args):
    rows = []
    for name in scheme_names():
        t = builtin_scheme(name)
        rows.append((name, t.stages, t.meta.p_deterministic,
                     t.meta.p_stochastic))
    _emit(args, ("name", "stages", "p_deterministic", "p_stochastic"), rows)
    return 0


def _cmd_check(args):
    # the catalog is imported here: no other command reads it
    from .conditions import check_conditions, default_theta_grid

    scheme = _load_scheme(args)
    if not scheme.meta.declared_conditions:
        # an empty set would pass with no rows
        raise ValueError(f"scheme {scheme.meta.name!r} declares no conditions "
                         "to check (meta.conditions)")
    grid = default_theta_grid(args.grid_points)
    report = check_conditions(scheme, grid, args.tol)
    rows = [(r.cid.family, r.cid.index, r.residual, r.worst_theta,
             "pass" if r.passed else "FAIL") for r in report.records]
    _emit(args, ("family", "index", "residual", "worst_theta", "pass"), rows,
          header=[("scheme", scheme.meta.name)],
          footer=[("overall", "pass" if report.passed else "FAIL")])
    return 0 if report.passed else 1


def _cmd_simulate(args):
    scheme = _load_scheme(args)
    problem = _build_problem(args)
    grid = grid_for_step(problem, args.h)
    sub = args.dense_per_step
    check_index("--dense-per-step", sub)
    # the temporary file of _emit holds every row until the table is
    # written, so their count is limited
    n_rows = grid.n_steps * (sub + 1) + 1
    if n_rows > _MAX_STEPS:
        raise ValueError(f"--dense-per-step {sub} on {grid.n_steps} steps "
                         f"asks for {n_rows} rows, above the limit "
                         f"{_MAX_STEPS}")

    def rows():
        # path 0 of the seed, from the path loop: a step's rows need only
        # its own cache, so no cache outlives its step
        y = problem.x0
        for n, cache, y_next in _path_steps(scheme, problem, grid, args.seed,
                                            np.uint64(0), grid.n_steps,
                                            scheme.dense_weights(1.0)):
            t_n, h_n = grid.step(n)
            yield (t_n, 0.0, *y)
            for j in range(1, sub + 1):
                th = j / (sub + 1)
                yield (t_n + th * h_n, th,
                       *_dense_value(scheme, cache, t_n + th * h_n))
            y = y_next
        yield (grid.T, 1.0, *y)

    _emit(args, ("t", "theta",
                 *[f"y{i + 1}" for i in range(problem.dim_state)]), rows())
    return 0


def _error_rows(args, with_order):
    scheme, problem, ref = _setup(args)
    if with_order:
        # refused before the first estimate, not after the last
        check_fit_steps(args.h_list)
    records = error_table(
        scheme, problem, ref, args.t_eval, args.h_list, args.m_samples,
        args.seed, confidence=args.confidence, threads=args.threads,
    )
    rows = [(r.h, r.mean_error, r.variance_of_mean, r.ci_low, r.ci_high)
            for r in records]
    footer = ()
    if with_order:
        est = empirical_order([(r.h, r.mean_error) for r in records])
        footer = [("slope", est.slope), ("intercept", est.intercept)]
    _emit(args, ("h", "mu", "sigma2_mu", "ci_low", "ci_high"), rows,
          header=[("reference_provenance", ref.provenance)], footer=footer)
    return 0


def _cmd_dense(args):
    scheme, problem, ref = _setup(args)
    profile = dense_error_profile(
        scheme, problem, ref, args.h, args.theta_list, args.m_samples,
        args.seed, confidence=args.confidence, threads=args.threads,
    )
    rows = [(t, th, r.mean_error, r.variance_of_mean, r.ci_low, r.ci_high)
            for t, th, r in profile]
    _emit(args, ("t", "theta", "mu", "sigma2_mu", "ci_low", "ci_high"), rows,
          header=[("reference_provenance", ref.provenance)])
    return 0


def _cmd_exact(args):
    """local-order: one step of each h; exact-order: N steps over [t0, T]."""
    scheme, problem, ref = _setup(args)
    t0, T = problem.t0, problem.T
    theta = getattr(args, "theta_eval", 1.0)
    cap = getattr(args, "outcome_cap", _OUTCOME_CAP)
    if args.command == "local-order":
        lead = ("h",)
        for h in args.h_list:
            check_step(h)
        runs = [(TimeGrid.uniform(t0, t0 + h, 1), (h,)) for h in args.h_list]
    else:
        lead = ("N", "h")
        # the whole list is checked before any grid is built or enumerated
        for n in args.n_list:
            check_outcome_count(problem.dim_noise, n, cap)
        runs = [(TimeGrid.uniform(t0, T, n), (n, (T - t0) / n))
                for n in args.n_list]
    check_fit_steps([cols[-1] for _, cols in runs])
    rows, pairs = [], []
    for grid, cols in runs:
        val = exact_weak_expectation(scheme, problem, grid, ref.functional,
                                     theta_eval=theta, outcome_cap=cap)
        t_last, h_last = grid.step(grid.n_steps - 1)
        err = val - ref.at(t_last + theta * h_last)
        pairs.append((cols[-1], err))
        rows.append((*cols, err))
    _emit(args, (*lead, "error"), rows,
          header=[("reference_provenance", ref.provenance)],
          footer=[("slope", empirical_order(pairs).slope)])
    return 0


_COMMANDS = {
    "schemes": _cmd_schemes,
    "check": _cmd_check,
    "simulate": _cmd_simulate,
    "error-table": lambda a: _error_rows(a, with_order=False),
    "converge": lambda a: _error_rows(a, with_order=True),
    "dense": _cmd_dense,
    "local-order": _cmd_exact,
    "exact-order": _cmd_exact,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if "problem" in vars(args):
            args.problem_params = _problem_params(args)
        # a numerical failure is reported by the one-line error below, so
        # NumPy's overflow warnings on the way to it would only repeat it
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            return _COMMANDS[args.command](args)
    except (ArithmeticError, CapacityError, KeyError, ValueError,
            OSError) as exc:
        # a TableauError is a ValueError, a BlowupError an ArithmeticError;
        # str() of a KeyError is the repr of its message, quotes included
        message = exc.args[0] if isinstance(exc, KeyError) else exc
        print(f"csrk: error: {message}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
