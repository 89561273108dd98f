"""Command line front end.

Subcommands cover single kernel evaluations (eval), grids of evaluations
(grid), the order-one Mehler-Fock transform pair (transform), kernels on
quotient surfaces (quotient), and the self-check suites (verify).

Conventions shared by every subcommand:

* Points are given as ``--x A,B`` in geodesic polar coordinates, angles in
  radians.  A is the radius (colatitude on the sphere, in [0, pi]); B is the
  angle.  Lattice and cylinder generators are Cartesian vectors.
* Ranges are ``START:STOP:COUNT`` with inclusive endpoints; COUNT 0 is an
  empty range.
* Records go to stdout (or ``--out FILE``) as CSV with a fixed header, 17
  significant digits, or as one JSON object per line with the same keys.
  Reruns with the same arguments produce byte-identical output.
* ``--tol`` sets the absolute error budget (default 1e-8).  For ``verify`` it
  instead overrides the pass thresholds.
* Exit codes: 0 success, 1 verification failure, 2 invalid usage or argument
  domain, 3 numerical nonconvergence.  Errors are a single ``error: ...``
  line on stderr.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from .errors import EnumerationOverflowError, HeatformsError, NonconvergenceError
from .geometry import Point, SurfaceKind
from .kernels import Kernel0Value, k0, k1, k2
from .quadrature import ToleranceBudget
from .quotient import (CoveringGroupSpec, QuotientSurface, _k0_quotient_full,
                       k1_quotient_flat)
from .specfun import _forward_with_error, _roundtrip
from .verify import PROFILES, SUITE_NAMES, run_suite

_MAX_RECORDS = 10 ** 6

_SCALAR_HEADER = ("surface", "degree", "x1", "x2", "y1", "y2", "t",
                  "value", "err_est", "terms", "radius")
_MATRIX_HEADER = ("surface", "degree", "x1", "x2", "y1", "y2", "t",
                  "m11", "m12", "m21", "m22", "err_est", "terms", "radius")
_TRANSFORM_HEADER = ("direction", "profile", "arg", "value", "err_est")


class _UsageError(Exception):
    """Invalid arguments detected after parsing; maps to exit code 2."""


class _Parser(argparse.ArgumentParser):
    # Replace argparse's two-line usage dump with the single-line error
    # contract; the exit code stays 2.
    def error(self, message):
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(2)


def _parse_floats(text: str, flag: str, n: int) -> tuple[float, ...]:
    parts = text.split(",")
    if len(parts) != n:
        raise _UsageError(f"{flag} expects {n} comma-separated numbers, "
                          f"got {text!r}")
    try:
        vals = tuple(float(p) for p in parts)
    except ValueError:
        raise _UsageError(f"{flag} expects numbers, got {text!r}") from None
    if not all(math.isfinite(v) for v in vals):
        raise _UsageError(f"{flag} values must be finite")
    return vals


def _parse_range(text: str, flag: str) -> list[float]:
    parts = text.split(":")
    if len(parts) != 3:
        raise _UsageError(f"{flag} expects START:STOP:COUNT, got {text!r}")
    try:
        start, stop = float(parts[0]), float(parts[1])
        count = int(parts[2])
    except ValueError:
        raise _UsageError(f"{flag} expects START:STOP:COUNT, "
                          f"got {text!r}") from None
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise _UsageError(f"{flag} endpoints must be finite")
    if count < 0:
        raise _UsageError(f"{flag} count must be nonnegative")
    if count > _MAX_RECORDS:
        raise _UsageError(f"{flag} count {count} exceeds the "
                          f"{_MAX_RECORDS}-record guard")
    if count == 0:
        return []
    if count == 1:
        return [start]
    step = (stop - start) / (count - 1)
    return [start + i * step for i in range(count)]


def _fmt_cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, float):
        return format(v, ".17g")
    return str(v)


def _write(text: str, out) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _emit(rows, header, args) -> None:
    if args.format == "csv":
        lines = [",".join(header)]
        lines += [",".join(_fmt_cell(row[h]) for h in header) for row in rows]
    else:
        lines = [json.dumps({h: row[h] for h in header}) for row in rows]
    _write("\n".join(lines) + "\n" if lines else "", args.out)


def _kernel_record(surface: str, degree: int, x: Point, y: Point, t: float,
                   val) -> dict:
    """One record of a computed Kernel0Value or Kernel1Value."""
    row = {"surface": surface, "degree": degree,
           "x1": x.c1, "x2": x.c2, "y1": y.c1, "y2": y.c2, "t": float(t)}
    if degree == 1:
        m = val.matrix
        row.update(m11=m.m11, m12=m.m12, m21=m.m21, m22=m.m22)
    else:
        row["value"] = val.value
    row.update(err_est=val.err_est, terms=val.terms, radius=val.radius)
    return row


def _run_grid(args) -> int:
    """grid, and eval as its one-record case: no ranges, fixed --y and --t."""
    kind = SurfaceKind.parse(args.surface)
    budget = ToleranceBudget(abs_tol=args.tol)
    x = Point(kind, *_parse_floats(args.x, "--x", 2))
    y_fixed = _parse_floats(args.y, "--y", 2) if args.y else None

    def axis(range_text, flag, fallback, what):
        if range_text is not None:
            return _parse_range(range_text, flag)
        if fallback is None:
            raise _UsageError(f"grid needs {flag} or {what}")
        return [float(fallback)]

    y1s = axis(args.y1, "--y1", y_fixed[0] if y_fixed else None, "--y")
    y2s = axis(args.y2, "--y2", y_fixed[1] if y_fixed else None, "--y")
    ts = axis(args.t_range, "--t-range", args.t, "--t")
    total = len(y1s) * len(y2s) * len(ts)
    if total > _MAX_RECORDS:
        raise _UsageError(f"grid of {total} records exceeds the "
                          f"{_MAX_RECORDS}-record guard")
    kernel = (k0, k1, k2)[args.degree]
    rows = []
    for a in y1s:
        for b in y2s:
            y = Point(kind, a, b)
            for t in ts:
                rows.append(_kernel_record(kind.value, args.degree, x, y, t,
                                           kernel(kind, x, y, t, budget)))
    header = _MATRIX_HEADER if args.degree == 1 else _SCALAR_HEADER
    _emit(rows, header, args)
    return 0


def _run_transform(args) -> int:
    budget = ToleranceBudget(abs_tol=args.tol)
    profile = PROFILES[args.profile]
    if args.direction == "forward":
        rows = []
        for rho in _parse_range(args.rho_range, "--rho-range"):
            val, err = _forward_with_error(profile, rho, budget)
            rows.append({"direction": "forward", "profile": profile.name,
                         "arg": rho, "value": val, "err_est": err})
    else:
        inverse, rel_err = _roundtrip(profile, _parse_range(args.r_range, "--r-range"),
                                      budget)
        if args.direction == "inverse":
            rows = [{"direction": "inverse", "profile": profile.name, "arg": r,
                     "value": back, "err_est": err} for r, back, err in inverse]
        elif rel_err is None:
            raise _UsageError("--r-range must contain at least one "
                              "radius with a nonzero profile value")
        else:
            rows = [{"direction": "roundtrip", "profile": profile.name,
                     "arg": None, "value": rel_err, "err_est": None}]
    _emit(rows, _TRANSFORM_HEADER, args)
    return 0


_MODEL_FLAG = {"torus": "--lattice", "cylinder": "--vector",
               "hyperbolic-cylinder": "--ell", "trivial": "--surface"}


def _quotient_group(args) -> CoveringGroupSpec:
    if args.model in ("klein", "projective"):
        raise _UsageError(
            f"model {args.model!r} needs an orientation-reversing covering "
            "transformation; only orientation-preserving groups are "
            "supported")
    given = {"--lattice": args.lattice, "--vector": args.vector,
             "--ell": args.ell, "--surface": args.surface}
    needed = _MODEL_FLAG[args.model]
    for flag, value in given.items():
        if value is not None and flag != needed:
            raise _UsageError(f"{flag} does not apply to model {args.model!r}")
    if given[needed] is None:
        raise _UsageError(f"model {args.model!r} requires {needed}")
    if args.model == "torus":
        a, b, c, d = _parse_floats(args.lattice, "--lattice", 4)
        return CoveringGroupSpec.euclidean_lattice((a, b), (c, d))
    if args.model == "cylinder":
        return CoveringGroupSpec.euclidean_cyclic(
            _parse_floats(args.vector, "--vector", 2))
    if args.model == "hyperbolic-cylinder":
        return CoveringGroupSpec.hyperbolic_cyclic(args.ell)
    return CoveringGroupSpec.trivial(args.surface)


def _run_quotient(args) -> int:
    group = _quotient_group(args)
    q = QuotientSurface.from_group(group)
    budget = ToleranceBudget(abs_tol=args.tol)
    surface = (f"trivial-{group.base.value}" if args.model == "trivial"
               else args.model)
    # Reduce to the fundamental domain first; records echo the reduced
    # coordinates.
    x = q.reduce(Point(group.base, *_parse_floats(args.x, "--x", 2)))
    y = q.reduce(Point(group.base, *_parse_floats(args.y, "--y", 2)))
    if args.degree == 0:
        val = Kernel0Value(*_k0_quotient_full(q, x, y, args.t, budget))
    else:
        val = k1_quotient_flat(q, x, y, args.t, budget)
    _emit([_kernel_record(surface, args.degree, x, y, args.t, val)],
          _MATRIX_HEADER if args.degree == 1 else _SCALAR_HEADER, args)
    return 0


def _run_verify(args) -> int:
    if args.tol is not None and not (args.tol > 0.0
                                     and math.isfinite(args.tol)):
        raise _UsageError("--tol must be a positive finite number")
    rows = run_suite(args.suite, args.tol)
    failed = sum(1 for row in rows if not row.passed)
    lines = [f"{'PASS' if row.passed else 'FAIL'} {row.name}: "
             f"measured={row.measured:.3e} tol={row.tol:.3e}"
             for row in rows]
    lines.append(f"{len(rows)} checks: {len(rows) - failed} passed, "
                 f"{failed} failed")
    _write("\n".join(lines) + "\n", args.out)
    return 0 if failed == 0 else 1


def _add_common(sub) -> None:
    sub.add_argument("--tol", type=float, default=1e-8,
                     help="absolute error budget (default 1e-8)")
    sub.add_argument("--format", choices=("csv", "json"), default="csv",
                     help="csv (fixed header) or one JSON object per line")
    sub.add_argument("--out", metavar="FILE",
                     help="write records to FILE instead of stdout")


def _add_point_args(sub, grid: bool) -> None:
    sub.add_argument("--surface", required=True,
                     help="plane (euclidean), sphere, or hyperbolic")
    sub.add_argument("--degree", type=int, choices=(0, 1, 2), default=0,
                     help="form degree of the kernel")
    sub.add_argument("--x", required=True, metavar="A,B",
                     help="first point, geodesic polar, angles in radians")
    if grid:
        sub.add_argument("--y", metavar="A,B",
                         help="fixed second point, used for axes without a "
                              "range")
        sub.add_argument("--t", type=float, help="fixed diffusion time")
        sub.add_argument("--y1", metavar="START:STOP:COUNT",
                         help="range for the second point's radial "
                              "coordinate")
        sub.add_argument("--y2", metavar="START:STOP:COUNT",
                         help="range for the second point's angle (radians)")
        sub.add_argument("--t-range", metavar="START:STOP:COUNT",
                         help="range for the diffusion time")
    else:
        sub.add_argument("--y", required=True, metavar="A,B",
                         help="second point, geodesic polar, angles in "
                              "radians")
        sub.add_argument("--t", type=float, required=True,
                         help="diffusion time")


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="heatforms",
        description="Heat kernels for 0-, 1-, and 2-forms on the plane, "
                    "sphere, and hyperbolic plane, and on their quotients. "
                    "All angles are in radians; points are geodesic polar "
                    "pairs A,B with A the radius (colatitude on the sphere) "
                    "and B the angle.",
        epilog="Exit codes: 0 success, 1 verification failure, 2 invalid "
               "usage, 3 numerical nonconvergence.")
    subs = parser.add_subparsers(dest="command", required=True,
                                 metavar="COMMAND")

    p_eval = subs.add_parser(
        "eval", help="evaluate a kernel at one point pair",
        description="Evaluate the degree-0, 1, or 2 heat kernel at a single "
                    "point pair and print one record.")
    _add_point_args(p_eval, grid=False)
    _add_common(p_eval)
    p_eval.set_defaults(func=_run_grid, y1=None, y2=None, t_range=None)

    p_grid = subs.add_parser(
        "grid", help="evaluate a kernel over ranges of y and t",
        description="Evaluate over the Cartesian product of --y1, --y2, and "
                    "--t-range (each falls back to the fixed --y / --t when "
                    "absent).  Records are ordered with y1 outermost, then "
                    "y2, then t.  A count of 0 gives a header-only table.  "
                    "At most 10^6 records.")
    _add_point_args(p_grid, grid=True)
    _add_common(p_grid)
    p_grid.set_defaults(func=_run_grid)

    p_tr = subs.add_parser(
        "transform", help="order-one Mehler-Fock transform of a profile",
        description="Apply the order-one Mehler-Fock transform pair to a "
                    "named radial profile.  forward tabulates the transform "
                    "over --rho-range; inverse reconstructs the profile "
                    "over --r-range from the numerically computed "
                    "transform; roundtrip prints a single record whose "
                    "value is the relative L2 reconstruction error over "
                    "--r-range (arg left empty).")
    p_tr.add_argument("--direction", required=True,
                      choices=("forward", "inverse", "roundtrip"))
    p_tr.add_argument("--profile", required=True, choices=tuple(PROFILES),
                      help="gaussian is r*exp(-r^2), cubic is r^3*exp(-r^2)")
    p_tr.add_argument("--rho-range", metavar="START:STOP:COUNT",
                      default="0:6:13", help="spectral grid for forward")
    p_tr.add_argument("--r-range", metavar="START:STOP:COUNT",
                      default="0.3:2.4:8",
                      help="radial grid for inverse and roundtrip")
    _add_common(p_tr)
    p_tr.set_defaults(func=_run_transform)

    p_q = subs.add_parser(
        "quotient", help="kernels on quotient surfaces",
        description="Evaluate the heat kernel on a quotient surface by the "
                    "covering-group image sum.  torus needs --lattice "
                    "a,b,c,d (two Cartesian generators); cylinder needs "
                    "--vector a,b; hyperbolic-cylinder needs --ell (the "
                    "translation length along the closed geodesic); trivial "
                    "needs --surface and reduces to the base kernel.  "
                    "Input points are reduced to the fundamental domain "
                    "before evaluation and the records echo the reduced "
                    "coordinates.")
    p_q.add_argument("--model", required=True,
                     choices=("torus", "cylinder", "hyperbolic-cylinder",
                              "trivial", "klein", "projective"))
    p_q.add_argument("--lattice", metavar="A,B,C,D",
                     help="lattice generators (A,B) and (C,D)")
    p_q.add_argument("--vector", metavar="A,B", help="cylinder generator")
    p_q.add_argument("--ell", type=float, help="hyperbolic translation "
                                               "length")
    p_q.add_argument("--surface", help="base surface for the trivial model")
    p_q.add_argument("--degree", type=int, choices=(0, 1), default=0)
    p_q.add_argument("--x", required=True, metavar="A,B",
                     help="first point on the base, geodesic polar, radians")
    p_q.add_argument("--y", required=True, metavar="A,B",
                     help="second point on the base")
    p_q.add_argument("--t", type=float, required=True, help="diffusion time")
    _add_common(p_q)
    p_q.set_defaults(func=_run_quotient)

    p_v = subs.add_parser(
        "verify", help="run the numerical self-check suites",
        description="Run one verification suite (or all of them) and print "
                    "one PASS/FAIL line per check plus a summary.  Exits 0 "
                    "only if every check passes.")
    p_v.add_argument("--suite", choices=SUITE_NAMES, default="all")
    p_v.add_argument("--tol", type=float, default=None,
                     help="override every check's pass threshold; never "
                          "changes the computation budgets")
    p_v.add_argument("--out", metavar="FILE",
                     help="write the report to FILE instead of stdout")
    p_v.set_defaults(func=_run_verify)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except (NonconvergenceError, EnumerationOverflowError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (_UsageError, HeatformsError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
