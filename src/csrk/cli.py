"""Command-line front end.

Subcommands: schemes, check, simulate, error-table, converge, dense,
local-order, exact-order.  Every output carries the full run configuration
in its header for provenance; numeric fields use round-trip (17 significant
digit) formatting.  Emits CSV (default) or JSON; plot-ready data only, no
image rendering.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from dataclasses import dataclass, field

from . import __version__
from .conditions import check_conditions, default_theta_grid
from .increments import CapacityError
from .integrator import BlowupError, TimeGrid
from .sde import functional_from_name, linear_problem, ode_problem, system2d_problem
from .stats import (
    DEFAULT_CHUNK_SIZE,
    check_step,
    dense_error_profile,
    empirical_order,
    error_table,
    exact_grid,
    exact_weak_expectation,
    simulate_path,
)
from .streams import PathStream
from .tableau import TableauError, builtin_scheme, parse_tableau, scheme_names

_ENV_THREADS = "CSRK_THREADS"

# the options that parameterise each problem, in its factory's keyword order
_PROBLEM_PARAMS = {
    "linear": ("a", "b", "x0", "T"),
    "system2d": (),
    "ode": ("lam", "x0", "T"),
}


@dataclass
class RunConfig:
    """Fully serializable run description; echoed into every output header."""

    command: str
    scheme: str | None = None
    scheme_file: str | None = None
    problem: str | None = None
    problem_params: dict = field(default_factory=dict)
    f: str | None = None
    h: float | None = None
    h_list: list[float] | None = None
    n_list: list[int] | None = None
    t_eval: float | None = None
    theta_list: list[float] | None = None
    m_samples: int | None = None
    seed: int | None = None
    confidence: float | None = None
    reference: str | None = None
    grid_points: int | None = None
    tol: float | None = None
    output_format: str = "csv"
    output: str | None = None

    def to_dict(self):
        return {k: v for k, v in dataclasses.asdict(self).items() if v is not None}


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.17g}"
    return str(v)


class Emitter:
    def __init__(self, config: RunConfig, extra_header=()):
        self.config = config
        self.extra = list(extra_header)
        self.columns = None
        self.rows = []
        self.footer = {}

    def set_columns(self, *columns):
        self.columns = list(columns)

    def add_row(self, *values):
        self.rows.append(list(values))

    def add_footer(self, key, value):
        self.footer[key] = value

    def emit(self):
        cfg = self.config
        if cfg.output_format == "json":
            doc = {
                "version": __version__,
                "config": cfg.to_dict(),
                **dict(self.extra),
                "columns": self.columns,
                "rows": self.rows,
            }
            doc.update(self.footer)
            text = json.dumps(doc, indent=2, default=_fmt) + "\n"
        else:
            lines = [f"# csrk {__version__}"]
            lines.append("# config = " + json.dumps(cfg.to_dict(), default=_fmt))
            for key, value in self.extra:
                lines.append(f"# {key} = {value}")
            lines.append(",".join(self.columns))
            for row in self.rows:
                lines.append(",".join(_fmt(v) for v in row))
            for key, value in self.footer.items():
                lines.append(f"# {key} = {_fmt(value)}")
            text = "\n".join(lines) + "\n"
        if cfg.output:
            with open(cfg.output, "w") as fh:
                fh.write(text)
        else:
            sys.stdout.write(text)


def _load_scheme(args):
    if getattr(args, "scheme_file", None):
        with open(args.scheme_file) as fh:
            return parse_tableau(fh.read())
    return builtin_scheme(args.scheme)


def _problem_params(args):
    return {k: getattr(args, k) for k in _PROBLEM_PARAMS[args.problem]}


def _build_problem(args):
    # the factories are module globals looked up at call time, so a caller
    # that replaces them (for instance to trace drift calls) is honoured
    factory = {"linear": linear_problem, "system2d": system2d_problem,
               "ode": ode_problem}[args.problem]
    return factory(**_problem_params(args))


def _setup(args):
    """Scheme, problem, functional and reference of a problem command."""
    scheme = _load_scheme(args)
    problem = _build_problem(args)
    f = functional_from_name(args.f)
    return scheme, problem, f, problem.reference_for(f, _provenance(args))


def _floats(text):
    return [float(v) for v in text.split(",") if v]


def _ints(text):
    return [int(v) for v in text.split(",") if v]


def _int_at_least(low, kind):
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(
                f"expected a {kind} integer, got {text!r}")
        return value
    return parse


_positive_int = _int_at_least(1, "positive")
_non_negative_int = _int_at_least(0, "non-negative")


def _add_scheme_args(p, file_ok=True):
    p.add_argument("--scheme", default=None, help="builtin scheme name")
    if file_ok:
        p.add_argument("--scheme-file", default=None,
                       help="JSON scheme-definition document")


def _add_problem_args(p):
    p.add_argument("--problem", required=True, choices=list(_PROBLEM_PARAMS))
    p.add_argument("--a", type=float, default=1.5)
    p.add_argument("--b", type=float, default=0.1)
    p.add_argument("--lam", type=float, default=1.0)
    p.add_argument("--x0", type=float, default=0.1)
    p.add_argument("--T", type=float, default=2.0)
    p.add_argument("--f", default="x", help="functional: x or x2")
    p.add_argument("--reference", default=None,
                   choices=["paper_stated", "derived"],
                   help="reference selector (default: derived when available)")


def _add_mc_args(p):
    p.add_argument("--M", dest="m_samples", metavar="M", type=int,
                   default=10**5, help="sample count")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--confidence", type=float, default=0.9)
    # a string default goes through type=, so a bad CSRK_THREADS is a usage
    # error of the commands that take --threads and of no other
    p.add_argument("--threads", type=_positive_int,
                   default=os.environ.get(_ENV_THREADS, "1"),
                   help="worker threads (does not affect results)")
    p.add_argument("--chunk-size", type=_positive_int,
                   default=DEFAULT_CHUNK_SIZE)
    p.add_argument("--allow-shortened", action="store_true",
                   help="accept step sizes that do not divide the horizon")


def _add_output_args(p):
    p.add_argument("--format", dest="output_format", default="csv",
                   choices=["csv", "json"])
    p.add_argument("--output", default=None, help="output path (default stdout)")


def _provenance(args):
    if args.reference is None:
        return None
    return "derived_closed_form" if args.reference == "derived" else args.reference


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as one ``csrk: error:`` line, exit status 2."""

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
    _add_scheme_args(p)
    _add_problem_args(p)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dense-per-step", type=_non_negative_int, default=0,
                   help="extra dense evaluations per step")
    _add_output_args(p)

    for name in ("error-table", "converge"):
        p = sub.add_parser(name, help="MC error rows" +
                           (" plus order fit" if name == "converge" else ""))
        _add_scheme_args(p)
        _add_problem_args(p)
        p.add_argument("--t-eval", type=float, required=True)
        p.add_argument("--h-list", type=_floats, required=True)
        _add_mc_args(p)
        _add_output_args(p)

    p = sub.add_parser("dense", help="dense-output error profile")
    _add_scheme_args(p)
    _add_problem_args(p)
    p.add_argument("--h", type=float, required=True)
    p.add_argument("--theta-list", type=_floats,
                   default=[round(0.1 * i, 1) for i in range(1, 10)])
    _add_mc_args(p)
    _add_output_args(p)

    p = sub.add_parser("local-order", help="one-step exact weak errors")
    _add_scheme_args(p)
    _add_problem_args(p)
    p.add_argument("--h-list", type=_floats, required=True)
    p.add_argument("--outcome-cap", type=int, default=10**7)
    _add_output_args(p)

    p = sub.add_parser("exact-order", help="full-grid exact weak errors")
    _add_scheme_args(p)
    _add_problem_args(p)
    p.add_argument("--N-list", dest="n_list", type=_ints, required=True)
    p.add_argument("--theta-eval", type=float, default=1.0)
    p.add_argument("--outcome-cap", type=int, default=10**7)
    _add_output_args(p)

    return ap


def _config_from(args) -> RunConfig:
    cfg = {f.name: getattr(args, f.name)
           for f in dataclasses.fields(RunConfig) if hasattr(args, f.name)}
    if hasattr(args, "problem"):
        cfg["problem_params"] = _problem_params(args)
    return RunConfig(**cfg)


def _cmd_schemes(args):
    em = Emitter(_config_from(args))
    em.set_columns("name", "stages", "p_deterministic", "p_stochastic")
    for name in scheme_names():
        t = builtin_scheme(name)
        em.add_row(name, t.stages, t.meta.p_deterministic, t.meta.p_stochastic)
    em.emit()
    return 0


def _cmd_check(args):
    scheme = _load_scheme(args)
    grid = default_theta_grid(args.grid_points)
    report = check_conditions(scheme, grid, args.tol)
    em = Emitter(_config_from(args), [("scheme", scheme.meta.name)])
    em.set_columns("family", "index", "residual", "worst_theta", "pass")
    for r in report.records:
        em.add_row(r.cid.family, r.cid.index, r.residual, r.worst_theta,
                   "pass" if r.passed else "FAIL")
    em.add_footer("overall", "pass" if report.passed else "FAIL")
    em.emit()
    return 0 if report.passed else 1


def _cmd_simulate(args):
    scheme = _load_scheme(args)
    problem = _build_problem(args)
    grid = exact_grid(problem, args.h)
    path = simulate_path(scheme, problem, grid, PathStream(args.seed, 0))
    em = Emitter(_config_from(args))
    em.set_columns("t", "theta",
                   *[f"y{i + 1}" for i in range(problem.dim_state)])
    sub = args.dense_per_step
    for n in range(grid.n_steps):
        t_n, h_n = grid.step(n)
        em.add_row(t_n, 0.0, *path.nodes[n])
        for j in range(1, sub + 1):
            th = j / (sub + 1)
            em.add_row(t_n + th * h_n, th, *path.value(t_n + th * h_n))
    em.add_row(grid.T, 1.0, *path.nodes[-1])
    em.emit()
    return 0


def _error_rows(args, with_order):
    scheme, problem, f, ref = _setup(args)
    records = error_table(
        scheme, problem, f, args.t_eval, args.h_list, args.m_samples,
        args.seed, confidence=args.confidence, provenance=ref.provenance,
        allow_shortened=args.allow_shortened, chunk_size=args.chunk_size,
        threads=args.threads,
    )
    em = Emitter(_config_from(args),
                 [("reference_provenance", ref.provenance)])
    em.set_columns("h", "mu", "sigma2_mu", "ci_low", "ci_high")
    for r in records:
        em.add_row(r.h, r.mean_error, r.variance_of_mean, r.ci_low, r.ci_high)
    if with_order:
        est = empirical_order(records)
        em.add_footer("slope", est.slope)
        em.add_footer("intercept", est.intercept)
    em.emit()
    return 0


def _cmd_dense(args):
    scheme, problem, f, ref = _setup(args)
    rows = dense_error_profile(
        scheme, problem, f, args.h, args.theta_list, args.m_samples,
        args.seed, confidence=args.confidence, provenance=ref.provenance,
        chunk_size=args.chunk_size, threads=args.threads,
    )
    em = Emitter(_config_from(args),
                 [("reference_provenance", ref.provenance)])
    em.set_columns("t", "theta", "mu", "sigma2_mu", "ci_low", "ci_high")
    for t, th, r in rows:
        em.add_row(t, th, r.mean_error, r.variance_of_mean, r.ci_low, r.ci_high)
    em.emit()
    return 0


def _cmd_exact(args):
    """local-order: one step of each h; exact-order: N steps over [t0, T]."""
    scheme, problem, f, ref = _setup(args)
    t0, T = problem.t0, problem.T
    theta = getattr(args, "theta_eval", 1.0)
    if args.command == "local-order":
        lead = ("h",)
        for h in args.h_list:
            check_step(h)
        runs = [(TimeGrid.uniform(t0, t0 + h, 1), (h,)) for h in args.h_list]
    else:
        lead = ("N", "h")
        runs = [(TimeGrid.uniform(t0, T, n), (n, (T - t0) / n))
                for n in args.n_list]
    em = Emitter(_config_from(args),
                 [("reference_provenance", ref.provenance)])
    em.set_columns(*lead, "error")
    pairs = []
    for grid, cols in runs:
        val = exact_weak_expectation(scheme, problem, grid, f,
                                     theta_eval=theta,
                                     outcome_cap=args.outcome_cap)
        t_last, h_last = grid.step(grid.n_steps - 1)
        err = val - ref.value(t_last + theta * h_last)
        pairs.append((cols[-1], err))
        em.add_row(*cols, err)
    em.add_footer("slope", empirical_order(pairs).slope)
    em.emit()
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
    ap = build_parser()
    args = ap.parse_args(argv)
    if hasattr(args, "scheme") and args.scheme is None and \
            getattr(args, "scheme_file", None) is None and \
            args.command != "schemes":
        ap.error("one of --scheme or --scheme-file is required")
    try:
        return _COMMANDS[args.command](args)
    except (TableauError, CapacityError, BlowupError, KeyError, ValueError,
            OSError) as exc:
        print(f"csrk: error: {exc}", file=sys.stderr)
        return 2
    except OverflowError as exc:
        print(f"csrk: error: a value overflows a float ({exc}); "
              "try smaller problem parameters", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
