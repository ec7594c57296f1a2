"""Command-line front end.

Exit codes: 0 success, 1 invalid arguments (also an input too large for
memory), 2 a verify property failed, 3 I/O failure.  Numbers go to stdout in
shortest round-trip form; CSV files use 17 significant digits; JSON uses
native number encoding.  Identical flags (including ``--seed``) produce
byte-identical output.  Monte Carlo draws run in the calling thread;
``--workers`` is accepted for compatibility and has no effect.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .densities import (HypercubeSpec, StepDensity, hypercube_density,
                        sample_density, tv_distance)
from .lower import bayes_risk_curve, cube_lower, mixedpbin_mass, richness_lower_bound
from .pbin import pbin_pmf, pbin_shift_difference, pbin_survival
from .rates import (bound_sweep, format_number, reports_to_csv, sweep_summary,
                    to_csv, to_record)
from .streams import child_rng
from .upper import (certificate_upper_bound, chi2_radius, exact_mad,
                    hoeffding_certificate, mad_floor, mc_mad, uniform_ratio)
from .verify import run_verify


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2; the contract wants 1
        self.print_usage(sys.stderr)
        raise SystemExit(f"error: {message}")


def parse_n_values(text: str) -> list[int]:
    """``7`` | ``1:32`` | ``1:32:4`` (arithmetic) | ``4:1024:x2`` (geometric).

    A range must hold at least one value, in increasing order."""
    parts = text.split(":")
    try:
        if len(parts) > 3:
            raise ValueError
        if len(parts) == 1:
            return [int(parts[0])]
        start, stop = int(parts[0]), int(parts[1])
        if len(parts) == 2:
            out = list(range(start, stop + 1))
        elif parts[2].startswith("x"):
            factor = int(parts[2][1:])
            if factor < 2 or start < 1:
                raise ValueError
            out = []
            while start <= stop:
                out.append(start)
                start *= factor
        else:
            step = int(parts[2])
            if step < 1:
                raise ValueError
            out = list(range(start, stop + 1, step))
        if not out:
            raise ValueError
        return out
    except ValueError:
        raise SystemExit(f"error: bad n range {text!r}") from None


def _emit(text: str, out: str | None) -> None:
    if not text.endswith("\n"):
        text += "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _print_row(values) -> None:
    print(" ".join(str(float(v)) for v in values))


def _load_density(path: str) -> StepDensity:
    return StepDensity.from_json(Path(path).read_text())


def _table(columns, rows, args) -> str:
    if args.format == "json":
        recs = [to_record(columns, row) for row in rows]
        return json.dumps(recs, indent=2) + "\n"
    return to_csv(columns, rows)


def _cmd_pbin(args) -> int:
    if args.action == "pmf":
        _print_row(pbin_pmf(args.probs))
    elif args.action == "survival":
        _print_row([pbin_survival(args.probs, args.l)])
    else:  # shift
        if args.p is None or args.p2 is None:
            raise SystemExit("error: shift needs --p and --p2")
        lhs, rhs = pbin_shift_difference(args.probs, args.p, args.p2, args.l)
        _print_row([lhs, rhs, abs(lhs - rhs)])
    return 0


def _cmd_experiment(args) -> int:
    if args.action == "build":
        if args.spec_file:
            spec = HypercubeSpec.from_json(Path(args.spec_file).read_text())
        else:
            if args.bits is None:
                raise SystemExit("error: build needs --bits or --spec-file")
            bits = [int(b) for b in args.bits.replace(",", "")]
            spec = HypercubeSpec(args.r, len(bits), bits)
        _emit(hypercube_density(spec).to_json(), args.out)
    elif args.action == "sample":
        f = _load_density(args.density)
        rng = child_rng(args.seed, "cli-sample", 0)
        x = sample_density(f, args.n, rng)
        if args.format == "json":
            _emit(json.dumps([float(v) for v in x]) + "\n", args.out)
        else:
            _emit("\n".join(format_number(v) for v in x) + "\n", args.out)
    else:  # tv
        f = _load_density(args.density)
        g = _load_density(args.density2)
        _print_row([tv_distance(f, g)])
    return 0


def _cmd_upper(args) -> int:
    if args.action == "chi2":
        cert = hoeffding_certificate(args.r)
        _print_row([cert.C, cert.s, chi2_radius(cert)])
        return 0
    ns = parse_n_values(args.n)
    f = hypercube_density(HypercubeSpec(args.r, 1, [0]))
    ratio = uniform_ratio(f).two_level
    if args.action == "bound":
        cert = hoeffding_certificate(args.r)
        rows = [(args.r, n, certificate_upper_bound(cert, n)) for n in ns]
        _emit(_table(("r", "n", "certificate_bound"), rows, args), args.out)
    elif args.action == "floor":
        rows = [(args.r, n, mad_floor(ratio, n + 1) / 2.0) for n in ns]
        _emit(_table(("r", "n", "floor_half"), rows, args), args.out)
    else:  # mad
        cert = hoeffding_certificate(args.r)
        columns = ("r", "n", "exact_mad_half", "certificate_bound",
                   "floor_half", "mc_estimate", "mc_ci")
        rows = []
        for n in ns:
            mc_est, mc_ci = (np.nan, np.nan)
            if args.mc:
                mc_est, mc_ci = mc_mad(f, n + 1, args.mc, seed=args.seed)
            rows.append((args.r, n, exact_mad(ratio, n + 1) / 2.0,
                         certificate_upper_bound(cert, n),
                         mad_floor(ratio, n + 1) / 2.0, mc_est, mc_ci))
        _emit(_table(columns, rows, args), args.out)
    return 0


def _cmd_lower(args) -> int:
    if args.action == "risks":
        curve = bayes_risk_curve(args.r, max(parse_n_values(args.n)))
        rows = [(args.r, n, v) for n, v in enumerate(curve.values)]
        _emit(_table(("r", "n", "risk"), rows, args), args.out)
    elif args.action == "cube":
        columns = ("r", "n", "m", "l_star", "delta_max", "delta_avg",
                   "richness_bound", "ci", "method")
        rows = []
        for n in parse_n_values(args.n):
            res = cube_lower(n, args.r)
            rows.append((args.r, n, res.m, res.l_star, res.delta,
                         res.delta_avg,
                         richness_lower_bound(1.0 - 1.0 / args.r, 1.0, n),
                         res.ci_at_star, res.method))
        _emit(_table(columns, rows, args), args.out)
    else:  # mixedpbin
        n = max(parse_n_values(args.n))
        table = bayes_risk_curve(args.r, n).values
        res = mixedpbin_mass(n, args.m, np.full(args.m, 1.0 / args.m), table)
        columns = ("r", "n", "m", "k_star", "mass", "mass_sqrt_m", "ci",
                   "method")
        rows = [(args.r, n, args.m, res.k_star, res.mass,
                 res.mass * args.m**0.5, res.ci_at_star, res.method)]
        _emit(_table(columns, rows, args), args.out)
    return 0


def _cmd_sweep(args) -> int:
    reports = bound_sweep(args.r, parse_n_values(args.n))
    if args.format == "json":
        payload = {
            "reports": [to_record(vars(rep), vars(rep).values())
                        for rep in reports],
            "summary": sweep_summary(reports),
        }
        _emit(json.dumps(payload, indent=2) + "\n", args.out)
    else:
        _emit(reports_to_csv(reports), args.out)
        if args.summary:
            Path(args.summary).write_text(
                json.dumps(sweep_summary(reports), indent=2) + "\n")
    return 0


def _cmd_verify(args) -> int:
    failures = run_verify(quick=args.quick, seed=args.seed)
    return 2 if failures else 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_common(p) -> None:
    p.add_argument("--mc", type=int, default=0,
                   help="Monte Carlo draws of `upper mad` (0: none); "
                        "accepted and ignored by `lower` and `sweep`, "
                        "which are exact")
    p.add_argument("--seed", type=int, default=0,
                   help="master 64-bit seed of `upper mad`; accepted and "
                        "ignored by `lower` and `sweep`")
    p.add_argument("--workers", type=_positive_int, default=1,
                   help="accepted for compatibility and ignored: Monte "
                        "Carlo draws run in the calling thread")
    p.add_argument("--out", help="write the report to this path")
    p.add_argument("--format", choices=("csv", "json"), default="csv",
                   help="report format")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="obsvalue",
        description=("Bounds on the value of one additional i.i.d. "
                     "observation for densities on [0,1] bounded below "
                     "by 1/r."),
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser(
        "pbin", help="Poisson-binomial pmf / survival / shift identity",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "output:\n"
            "  pmf       the m+1 mass values, space separated\n"
            "  survival  P(PBin(probs) >= l)\n"
            "  shift     lhs, rhs, |lhs-rhs| of the shift identity, where\n"
            "            the last listed probability is replaced by --p/--p2\n"
        ),
    )
    p.add_argument("action", choices=("pmf", "survival", "shift"))
    p.add_argument("probs", type=float, nargs="*",
                   help="success probabilities in [0, 1]")
    p.add_argument("--l", type=int, default=1, help="threshold l")
    p.add_argument("--p", type=float, help="shift: larger probability")
    p.add_argument("--p2", type=float, help="shift: smaller probability")
    p.set_defaults(fn=_cmd_pbin)

    p = sub.add_parser(
        "experiment", help="build / sample / compare step densities",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "output:\n"
            "  build   step density JSON {\"breakpoints\":[..],\"values\":[..]}\n"
            "  sample  one draw per line (JSON array with --format json)\n"
            "  tv      total variation distance on stdout\n"
        ),
    )
    p.add_argument("action", choices=("build", "sample", "tv"))
    p.add_argument("--r", type=float, default=2.0, help="lower-bound scale r > 1")
    p.add_argument("--bits", help="vertex bits, e.g. 0101")
    p.add_argument("--spec-file", help="vertex spec JSON "
                                       '{"r":..,"m":..,"bits":[..]}')
    p.add_argument("--density", help="step density JSON file")
    p.add_argument("--density2", help="second step density JSON file (tv)")
    p.add_argument("--n", type=int, default=10, help="number of draws")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(fn=_cmd_experiment)

    p = sub.add_parser(
        "upper", help="MAD surrogate, closed-form bound, floor, chi2 radius",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "CSV columns (mad):\n"
            "  r                 density floor scale\n"
            "  n                 sample size the report row describes\n"
            "  exact_mad_half    exact_mad(n+1)/2, the kernel TV surrogate\n"
            "  certificate_bound closed form C*sqrt(pi/(4s))/sqrt(n+1)\n"
            "  floor_half        MAD floor /2 (rate unimprovable below it)\n"
            "  mc_estimate,mc_ci Monte Carlo MAD and 3-sigma half-width\n"
            "                    (NaN unless --mc > 0); each of the --mc\n"
            "                    draws is one Multinomial vector: how many\n"
            "                    of n+1 draws fall on each level of 1/f\n"
            "bound/floor emit (r, n, certificate_bound) and "
            "(r, n, floor_half);\nchi2 prints (C, s, radius).\n"
        ),
    )
    p.add_argument("action", choices=("mad", "bound", "floor", "chi2"))
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--n", default="1", help="n or range (1:32, 4:1024:x2)")
    _add_common(p)
    p.set_defaults(fn=_cmd_upper)

    p = sub.add_parser(
        "lower", help="risk curve, survival-gap bound, mixed point mass",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "CSV columns:\n"
            "  risks:     r, n, risk (per-cell Bayes testing risk r(n))\n"
            "  cube:      r, n, m (=2n cells), l_star (best threshold),\n"
            "             delta_max (survival-gap bound), delta_avg (best\n"
            "             adjacent-threshold average), richness_bound\n"
            "             (closed form), ci (3-sigma half-width at l_star),\n"
            "             method (exact: composition enumeration | gf:\n"
            "             generating functions; both exact, ci is 0)\n"
            "  mixedpbin: r, n, m, k_star (best outcome), mass,\n"
            "             mass_sqrt_m (mass*sqrt(m)), ci, method\n"
        ),
    )
    p.add_argument("action", choices=("risks", "cube", "mixedpbin"))
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--n", default="1", help="n or range (1:32, 4:1024:x2)")
    p.add_argument("--m", type=_positive_int, default=1,
                   help="cells (mixedpbin)")
    _add_common(p)
    p.set_defaults(fn=_cmd_lower)

    p = sub.add_parser(
        "sweep", help="consolidated bound report over an n grid, plus rate "
                      "fits",
        formatter_class=argparse.RawDescriptionHelpFormatter,
        epilog=(
            "CSV columns (one row per n):\n"
            "  r             density floor scale\n"
            "  n             sample size\n"
            "  m             witness cells (2n)\n"
            "  lower         survival-gap lower bound (best threshold)\n"
            "  lower_ci      3-sigma half-width of `lower` (always 0: exact)\n"
            "  l_star        threshold attaining `lower`\n"
            "  delta_avg     best adjacent-threshold average gap\n"
            "  lower_closed  closed form alpha*beta/(12 sqrt(2) sqrt(n+1))\n"
            "  upper_exact   exact_mad(n+1)/2, kernel TV surrogate\n"
            "  upper_closed  closed form C*sqrt(pi/(4s))/sqrt(n+1)\n"
            "  floor_half    MAD floor /2\n"
            "  lower_method  exact (enumeration) | gf (generating functions)\n"
            "The JSON summary holds log-log rate fits of upper_exact and "
            "lower.\n"
        ),
    )
    p.add_argument("--r", type=float, required=True)
    p.add_argument("--n", required=True, help="range, e.g. 4:1024:x2")
    p.add_argument("--summary", help="also write the JSON rate summary here")
    _add_common(p)
    p.set_defaults(fn=_cmd_sweep)

    p = sub.add_parser("verify", help="run every identity and "
                                      "oracle-equivalence property")
    p.add_argument("--quick", action="store_true", help="reduced budgets")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(fn=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        if exc.code in (0, None):  # --help / --version
            return 0
        print(exc.code if isinstance(exc.code, str) else "", file=sys.stderr)
        return 1
    try:
        return args.fn(args)
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, ArithmeticError, AssertionError, MemoryError,
            SystemExit) as exc:
        if isinstance(exc, SystemExit) and isinstance(exc.code, int):
            return exc.code
        print(str(exc) or type(exc).__name__, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
