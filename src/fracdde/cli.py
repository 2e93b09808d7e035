"""Command line interface.

Four subcommands: ``simulate`` writes a delay-embedded trajectory as CSV,
``curves`` writes the sampled stability boundary as CSV, ``classify``
prints a JSON verdict for one delay pair, and ``equilibria`` prints the
equilibria of a built-in model with their linearizations as JSON.

Exit codes: 0 on success, 1 on any usage or validation error, 2 when a
simulation left the finite float range (the partial trajectory is still
written).
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Sequence

import numpy as np

from .models import IkedaParams, UcarParams, ikeda_rhs, ucar_rhs
from .solver import DelayPair, SystemRhs, build_grid, simulate
from .stability import (
    LinearCoefficients,
    StabilityVerdict,
    _classify_with_boundary,
    curve_columns,
    find_equilibria,
    linearize,
    stable_at_zero_delay,
)

__all__ = ["main"]

_USAGE_EXIT = 1
_TRUNCATION_EXIT = 2


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; 2 is reserved for truncation
    # here, so route all parser errors to exit code 1.
    def error(self, message: str):
        self.exit(_USAGE_EXIT, f"{self.prog}: error: {message}\n")


# 17 significant digits round-trip any double exactly; "%.17g" prints the
# same text as format(value, ".17g").
_FLOAT = "%.17g\n"
# Both CSV writers build and write at most this many rows of text at a time,
# so neither holds the whole file's text.  With k history steps the simulate
# writer holds at most k + 2 * _ROWS_PER_WRITE strings: the states of one
# chunk and the k before them, and its time stamps.  The curves writer holds
# one chunk's cells and, per column, one string per distinct value with an
# integer index per row into them.
_ROWS_PER_WRITE = 4096


_PARAM_OWNER = {"delta": "ucar", "epsilon": "ucar", "c1": "ikeda", "c2": "ikeda"}


def _check_foreign_params(args: argparse.Namespace) -> None:
    model = getattr(args, "model", None)
    for name, owner in _PARAM_OWNER.items():
        if getattr(args, name, None) is not None and model != owner:
            raise ValueError(f"--{name} applies to the {owner} model only")
    if model in ("ucar", "ikeda"):
        for name in ("a", "b"):
            if getattr(args, name, None) is not None:
                raise ValueError(f"--{name} does not apply to the {model} model")


def _given(args: argparse.Namespace, *names: str) -> dict:
    return {n: v for n in names if (v := getattr(args, n, None)) is not None}


def _rhs_from_args(args: argparse.Namespace) -> SystemRhs:
    _check_foreign_params(args)
    if args.model == "ucar":
        return ucar_rhs(UcarParams(**_given(args, "delta", "epsilon")))
    if args.model == "ikeda":
        return ikeda_rhs(IkedaParams(**_given(args, "c1", "c2")))
    if args.a is None or args.b is None:
        raise ValueError("--model linear requires both --a and --b")
    a, b = args.a, args.b
    return SystemRhs(
        g=lambda x1, x2: a * x1 + b * x2,
        dg_dx1=lambda x1, x2: a,
        dg_dx2=lambda x1, x2: b,
    )


def _coef_from_args(args: argparse.Namespace) -> LinearCoefficients:
    if args.a is not None or args.b is not None:
        if args.model is not None or args.x_star is not None:
            raise ValueError("give either --a/--b or --model with --x-star, not both")
        if args.a is None or args.b is None:
            raise ValueError("--a and --b must be given together")
        _check_foreign_params(args)
        return LinearCoefficients(args.a, args.b)
    if args.model is None or args.x_star is None:
        raise ValueError("give either --a/--b or --model with --x-star")
    return linearize(_rhs_from_args(args), args.x_star)


def _v_range(args: argparse.Namespace) -> tuple[float, float] | None:
    if args.v_min is None and args.v_max is None:
        return None
    if args.v_min is None or args.v_max is None:
        raise ValueError("--v-min and --v-max must be given together")
    return (args.v_min, args.v_max)


def _cmd_simulate(args: argparse.Namespace) -> int:
    rhs = _rhs_from_args(args)
    grid = build_grid(
        DelayPair(args.tau1, args.tau2), args.T, args.h, tolerance=args.grid_tolerance
    )
    traj = simulate(rhs, args.alpha, grid, args.history)
    # The rows of phase_columns, without building its table: row j is
    # t_j, x[k + j], x[k + j - k1], x[k + j - k2].  A chunk of n rows from
    # start reads values[start : start + k + n], of which the first k were
    # formatted by the chunk before it (the history, for the first chunk).
    k = traj.history_steps
    rows = traj.n_steps + 1 if traj.truncated_at is None else traj.truncated_at
    prev = _formatted(traj.values[:k])
    with open(args.out, "w", newline="") as fh:
        fh.write("t,x,x_tau1,x_tau2\n")
        for start in range(0, rows, _ROWS_PER_WRITE):
            n = min(_ROWS_PER_WRITE, rows - start)
            t = _formatted(np.arange(start, start + n) * traj.h)
            s = prev + _formatted(traj.values[k + start : k + start + n])
            x, x1, x2 = (s[k - lag : k - lag + n] for lag in (0, grid.k1, grid.k2))
            fh.write("\n".join(map(",".join, zip(t, x, x1, x2))))
            fh.write("\n")
            prev = s[n:]
    if traj.truncated_at is not None:
        print(
            f"state left the finite range at step {traj.truncated_at} "
            f"(t = {traj.truncated_at * grid.h:.6g}); wrote the preceding rows",
            file=sys.stderr,
        )
        return _TRUNCATION_EXIT
    return 0


def _formatted(values: np.ndarray) -> list[str]:
    # One "%" over the whole array, split at the newlines: cheaper per value
    # than one "%" per value, and "%.17g" never prints a newline.
    return ((_FLOAT * len(values)) % tuple(values.tolist())).split("\n")[:-1]


def _distinct_text(column: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The text of each distinct value of ``column`` and, per row, its index.

    Floats are keyed by their bits, so ``-0.0`` and ``0.0`` keep their own
    text; integer labels by value, as a bit view would reinterpret a narrower
    platform integer.
    """
    if column.dtype.kind == "f":
        keys, codes = np.unique(column.view(np.int64), return_inverse=True)
        text = _formatted(keys.view(np.float64))
    else:
        keys, codes = np.unique(column, return_inverse=True)
        text = list(map(str, keys.tolist()))
    return np.array(text, dtype=object), codes


def _cmd_curves(args: argparse.Namespace) -> int:
    coef = _coef_from_args(args)
    columns = curve_columns(
        args.alpha,
        coef,
        v_range=_v_range(args),
        samples=args.samples,
        max_branch=args.max_branch,
    )
    v, _, _, sign1, m1, sign2, m2, _ = columns
    # Rows ordered by (m1, sign1, v); the trailing keys only break ties
    # between branches that share a sample v.
    order = np.lexsort((sign2, m2, v, sign1, m1))
    # Each row is one (sample, tau1 branch, tau2 branch) combination, so the
    # columns repeat values: each distinct one is formatted once.
    tables = [_distinct_text(col[order]) for col in columns]
    with open(args.out, "w", newline="") as fh:
        fh.write("v,tau1,tau2,sign1,m1,sign2,m2,residual\n")
        for start in range(0, len(order), _ROWS_PER_WRITE):
            cells = (text[codes[start : start + _ROWS_PER_WRITE]].tolist() for text, codes in tables)
            fh.write("\n".join(map(",".join, zip(*cells))))
            fh.write("\n")
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    coef = _coef_from_args(args)
    delays = DelayPair(args.tau1, args.tau2)
    verdict, boundary = _classify_with_boundary(
        args.alpha,
        coef,
        delays,
        tolerance=args.tolerance,
        v_range=_v_range(args),
        samples=args.samples,
    )
    print(
        json.dumps(
            {
                "verdict": verdict.value,
                "critical_tau2": boundary,
                "a": coef.a,
                "b": coef.b,
                "alpha": args.alpha,
                "tau1": delays.tau1,
                "tau2": delays.tau2,
            }
        )
    )
    return 0


def _cmd_equilibria(args: argparse.Namespace) -> int:
    rhs = _rhs_from_args(args)
    roots = find_equilibria(rhs, (args.bracket[0], args.bracket[1]), resolution=args.resolution)
    entries = []
    for x_star in roots:
        coef = linearize(rhs, x_star)
        entries.append(
            {
                "x_star": x_star,
                "a": coef.a,
                "b": coef.b,
                "stable_at_zero": stable_at_zero_delay(coef)
                is StabilityVerdict.STABLE_AT_ZERO_DELAYS,
            }
        )
    print(json.dumps(entries, indent=2))
    return 0


def _add_coefficient_source(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--a", type=float, help="linearization coefficient of x(t - tau1)")
    parser.add_argument("--b", type=float, help="linearization coefficient of x(t - tau2)")
    parser.add_argument("--model", choices=("ucar", "ikeda"), help="built-in model to linearize")
    parser.add_argument("--x-star", type=float, help="equilibrium at which to linearize")
    _add_model_params(parser)


def _add_model_params(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--delta", type=float, help="ucar linear gain (default 1)")
    parser.add_argument("--epsilon", type=float, help="ucar cubic gain (default 1)")
    parser.add_argument("--c1", type=float, help="ikeda damping coefficient (default -3)")
    parser.add_argument("--c2", type=float, help="ikeda feedback gain (default 24)")


def _add_window(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--v-min", type=float, help="lower end of the frequency window")
    parser.add_argument("--v-max", type=float, help="upper end of the frequency window")
    parser.add_argument("--samples", type=int, default=2000, help="frequency samples (default 2000)")


# Built once per process: parsing leaves the parser unchanged, and the
# commands look up what they call as module globals at call time.
@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fracdde", description=__doc__.splitlines()[0] if __doc__ else None)
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="integrate the equation and write CSV")
    p_sim.add_argument("--model", choices=("ucar", "ikeda", "linear"), required=True)
    p_sim.add_argument("--a", type=float, help="linear model: coefficient of x(t - tau1)")
    p_sim.add_argument("--b", type=float, help="linear model: coefficient of x(t - tau2)")
    _add_model_params(p_sim)
    p_sim.add_argument("--alpha", type=float, required=True, help="derivative order in (0, 1]")
    p_sim.add_argument("--tau1", type=float, required=True)
    p_sim.add_argument("--tau2", type=float, required=True)
    p_sim.add_argument("--T", type=float, required=True, help="integration horizon")
    p_sim.add_argument("--h", type=float, required=True, help="requested step size")
    p_sim.add_argument("--history", type=float, required=True, help="constant history value")
    p_sim.add_argument(
        "--grid-tolerance",
        type=float,
        default=1e-9,
        help="relative commensurability tolerance (default 1e-9)",
    )
    p_sim.add_argument("--out", required=True, help="output CSV path")
    p_sim.set_defaults(func=_cmd_simulate)

    p_cur = sub.add_parser("curves", help="sample the stability boundary and write CSV")
    _add_coefficient_source(p_cur)
    p_cur.add_argument("--alpha", type=float, required=True)
    _add_window(p_cur)
    p_cur.add_argument(
        "--max-branch", type=int, default=8, help="largest winding number (default 8)"
    )
    p_cur.add_argument("--out", required=True, help="output CSV path")
    p_cur.set_defaults(func=_cmd_curves)

    p_cls = sub.add_parser("classify", help="classify one delay pair as JSON")
    _add_coefficient_source(p_cls)
    p_cls.add_argument("--alpha", type=float, required=True)
    p_cls.add_argument("--tau1", type=float, required=True)
    p_cls.add_argument("--tau2", type=float, required=True)
    p_cls.add_argument(
        "--tolerance", type=float, default=1e-6, help="boundary band half-width (default 1e-6)"
    )
    _add_window(p_cls)
    p_cls.set_defaults(func=_cmd_classify)

    p_eq = sub.add_parser("equilibria", help="list model equilibria as JSON")
    p_eq.add_argument("--model", choices=("ucar", "ikeda"), required=True)
    _add_model_params(p_eq)
    p_eq.add_argument(
        "--bracket",
        type=float,
        nargs=2,
        default=(-10.0, 10.0),
        metavar=("LO", "HI"),
        help="search interval (default -10 10)",
    )
    p_eq.add_argument(
        "--resolution", type=int, default=2001, help="scan points in the bracket (default 2001)"
    )
    p_eq.set_defaults(func=_cmd_equilibria)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:  # the package errors subclass ValueError
        print(f"fracdde: error: {exc}", file=sys.stderr)
        return _USAGE_EXIT


if __name__ == "__main__":
    sys.exit(main())
