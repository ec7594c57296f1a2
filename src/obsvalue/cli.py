"""Command-line front end.

Exit codes: 0 success, 1 invalid arguments (also an input too large for
memory, and a table over the output budget, refused before any row is
computed), 2 a verify property failed, 3 I/O failure.  Numbers go to stdout in
shortest round-trip form; CSV files use 17 significant digits; JSON uses
native number encoding.  Identical flags (including ``--seed``) produce
byte-identical output.  Monte Carlo draws run in the calling thread;
``upper``, ``lower`` and ``sweep`` accept ``--workers`` for compatibility,
and it has no effect.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import __version__
from .constants import check_budget
from .densities import (HypercubeSpec, StepDensity, hypercube_density,
                        sample_density, tv_distance)
from .lower import (bayes_risk_curve, check_mixedpbin_output, cube_lowers,
                    mixedpbin_mass)
from .pbin import pbin_pmf, pbin_shift_difference, pbin_survival
from .rates import (BoundReport, bound_sweep, format_number, reports_to_csv,
                    sweep_summary, to_csv, to_record)
from .streams import child_rng
from .upper import (certificate_upper_bound, chi2_radius, exact_mad,
                    hoeffding_certificate, mad_floor, mc_mad, uniform_ratio)


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse exits 2; the contract wants 1
        self.print_usage(sys.stderr)
        raise SystemExit(f"error: {message}")


def parse_n_values(text: str) -> range | list[int]:
    """``7`` | ``1:32`` | ``1:32:4`` (arithmetic) | ``4:1024:x2`` (geometric).

    A range must hold at least one value, in increasing order.  The first
    three forms give a ``range``, so no list of their values is built; the
    geometric form gives a list of at most log2(stop) + 1 values."""
    parts = text.split(":")
    try:
        if len(parts) > 3:
            raise ValueError
        start = int(parts[0])
        stop = int(parts[1]) if len(parts) > 1 else start
        if len(parts) < 3:
            out = range(start, stop + 1)
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
            out = range(start, stop + 1, step)
        if not out:
            raise ValueError
        return out
    except ValueError:
        raise SystemExit(f"error: bad n range {text!r}") from None


# Characters ``_emit`` writes at a time.  The stream encodes each write, so
# the write adds one slice and its encoding to the text, not a whole copy.
_SLICE = 1 << 20


def _emit(text: str, out: str | None) -> None:
    """Write ``text``, and a newline if it does not end in one, to the file
    ``out`` or to stdout, ``_SLICE`` characters at a time."""
    with open(out, "w") if out else contextlib.nullcontext(sys.stdout) as f:
        for lo in range(0, len(text), _SLICE):
            f.write(text[lo:lo + _SLICE])
        if not text.endswith("\n"):
            f.write("\n")


def _print_row(values) -> None:
    print(" ".join(str(float(v)) for v in values))


def _load_density(path: str) -> StepDensity:
    return StepDensity.from_json(Path(path).read_text())


# Bytes a cell of a table, or a draw of `experiment sample`, holds at the
# command's peak: its value, its share of its row's CSV line or JSON record,
# of the text they are joined into and of that text encoded for stdout.
# Measured with tracemalloc at 2 * 10^4 and 10^5 rows: at most 108 (`sweep
# --format json`, whose reports the rate fit reads all at once).
_CELL_BYTES = 128


def _json_records(columns, rows, depth: int) -> str:
    """``rows`` as the records of ``columns`` that ``json.dumps(...,
    indent=2)`` prints as the items of a list at nesting ``depth``, joined
    by ",\n".  json's C encoder, which takes no indent, renders each
    record as its row is computed: its items are split by what ``indent=2``
    puts between them at that depth."""
    pad = "\n" + "  " * depth
    return ",\n".join(
        pad[1:] + "{" + pad + "  " + json.dumps(
            to_record(columns, row), separators=("," + pad + "  ", ": "))[1:-1]
        + pad + "}" for row in rows)


def _table(args, columns, ns, rows) -> None:
    """Emit the table whose rows ``rows(ns)`` yields, a tuple of
    ``columns`` values for each value of ``ns``: CSV, or the text of
    ``json.dumps(records, indent=2)``.

    A table over the output budget is refused before ``rows`` is called,
    so nothing it builds for its rows (a risk curve) is built.  Each row is
    rendered to its line or record as it is computed and then dropped, and
    the text is printed or written only after the last row, so a failed
    run prints nothing."""
    check_budget(len(ns) * len(columns) * _CELL_BYTES, f"the {len(ns)} rows")
    if args.format == "csv":
        return _emit(to_csv(columns, rows(ns)), args.out)
    _emit("[\n" + _json_records(columns, rows(ns), 1) + "\n]\n", args.out)


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
        if args.density is None:
            raise SystemExit("error: sample needs --density")
        check_budget(args.n * _CELL_BYTES, f"the {args.n} draws")
        x = sample_density(_load_density(args.density), args.n,
                           child_rng(args.seed, "cli-sample", 0))
        # Rendered 4096 draws at a time: the text of every draw at once
        # held up to 76 bytes a draw more (JSON at 2 * 10^4 draws).
        blocks = [x[i:i + 4096] for i in range(0, args.n, 4096)]
        if args.format == "json":
            _emit("[" + ", ".join(json.dumps(b.tolist())[1:-1]
                                  for b in blocks) + "]\n", args.out)
        else:
            _emit("".join("\n".join(map(format_number, b)) + "\n"
                          for b in blocks), args.out)
    else:  # tv
        if args.density is None or args.density2 is None:
            raise SystemExit("error: tv needs --density and --density2")
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
        _table(args, ("r", "n", "certificate_bound"), ns, lambda ns: (
            (args.r, n, certificate_upper_bound(cert, n)) for n in ns))
    elif args.action == "floor":
        _table(args, ("r", "n", "floor_half"), ns, lambda ns: (
            (args.r, n, mad_floor(ratio, n + 1) / 2.0) for n in ns))
    else:  # mad
        cert = hoeffding_certificate(args.r)

        def row(n):
            mc = (mc_mad(f, n + 1, args.mc, seed=args.seed) if args.mc
                  else (np.nan, np.nan))
            return (args.r, n, exact_mad(ratio, n + 1) / 2.0,
                    certificate_upper_bound(cert, n),
                    mad_floor(ratio, n + 1) / 2.0, *mc)
        _table(args, ("r", "n", "exact_mad_half", "certificate_bound",
                      "floor_half", "mc_estimate", "mc_ci"), ns,
               lambda ns: map(row, ns))
    return 0


def _cmd_lower(args) -> int:
    ns = parse_n_values(args.n)
    if args.action == "risks":
        _table(args, ("r", "n", "risk"), range(ns[-1] + 1), lambda _: (
            (args.r, n, v)
            for n, v in enumerate(bayes_risk_curve(args.r, ns[-1]).values)))
    elif args.action == "cube":
        _table(args, ("r", "n", "m", "l_star", "delta_max", "delta_avg",
                      "richness_bound", "ci", "method"), ns, lambda ns: (
            (args.r, c.n, c.m, c.l_star, c.delta, c.delta_avg, c.closed,
             c.ci_at_star, c.method) for c in cube_lowers(args.r, ns)))
    else:  # mixedpbin
        check_mixedpbin_output(ns[-1], args.m)

        def rows(ns):
            # one curve for every n: its first n + 1 values are the curve
            # of n
            curve = bayes_risk_curve(args.r, ns[-1]).values
            weights = np.full(args.m, 1.0 / args.m)
            for n in ns:
                res = mixedpbin_mass(n, args.m, weights, curve[:n + 1])
                yield (args.r, n, args.m, res.k_star, res.mass,
                       res.mass * args.m**0.5, res.ci_at_star, res.method)
        _table(args, ("r", "n", "m", "k_star", "mass", "mass_sqrt_m", "ci",
                      "method"), ns, rows)
    return 0


def _cmd_sweep(args) -> int:
    ns = parse_n_values(args.n)
    columns = [f.name for f in fields(BoundReport)]
    check_budget(len(ns) * len(columns) * _CELL_BYTES, f"the {len(ns)} rows")
    reports = bound_sweep(args.r, ns)
    # The rate fit needs 3 reports, and a CSV sweep without --summary may
    # have fewer: it fits nothing.
    summary = (sweep_summary(reports)
               if args.format == "json" or args.summary else None)
    # The sidecar is written first, so a run that cannot write it prints
    # no report.
    if args.summary:
        Path(args.summary).write_text(json.dumps(summary, indent=2) + "\n")
    if args.format == "json":
        # The text of json.dumps({"reports": records, "summary": summary},
        # indent=2); the reports are dropped before it is written.
        text = ('{\n  "reports": [\n' + _json_records(
            columns, (vars(rep).values() for rep in reports), 2) + "\n  ],"
            + json.dumps({"summary": summary}, indent=2)[1:] + "\n")
        del reports
        _emit(text, args.out)
    else:
        _emit(reports_to_csv(reports), args.out)
    return 0


def _cmd_verify(args) -> int:
    from .verify import run_verify  # only this subcommand needs it
    failures = run_verify(quick=args.quick, seed=args.seed)
    return 2 if failures else 0


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _seed(text: str) -> int:
    """A master seed: an integer in [0, 2^64), the seeds that
    ``streams.child_seed`` tells apart."""
    value = int(text)
    if not 0 <= value < 1 << 64:
        raise argparse.ArgumentTypeError(
            f"must be in [0, 2^64), got {value}")
    return value


def _add_common(p) -> None:
    p.add_argument("--mc", type=int, default=0,
                   help="Monte Carlo draws of `upper mad` (0: none); "
                        "accepted and ignored by `lower` and `sweep`, "
                        "which are exact")
    p.add_argument("--seed", type=_seed, default=0,
                   help="master seed of `upper mad`'s Monte Carlo draws, in "
                        "[0, 2^64); accepted and ignored by `lower` and "
                        "`sweep`")
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
            "  shift     lhs, rhs, |lhs-rhs| of the shift identity, with --p,\n"
            "            then --p2, appended to the listed probabilities\n"
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
    p.add_argument("--seed", type=_seed, default=0,
                   help="master seed of `sample`, in [0, 2^64)")
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
            "                    (NaN unless --mc > 0) over --mc draws of\n"
            "                    S ~ Bin(n+1, q), how many of n+1 draws\n"
            "                    fall on the high level of 1/f; each chunk\n"
            "                    of 8192 draws is one histogram over S's\n"
            "                    values, or one draw a row when Bin(n+1, q)\n"
            "                    may hold more than 8192 values\n"
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
            "cube and mixedpbin print one row per n of --n; risks one row\n"
            "per n from 0 to the largest\n"
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
    p.add_argument("--seed", type=_seed, default=0,
                   help="master seed of the checks' draws, in [0, 2^64)")
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
        print(str(exc) or type(exc).__name__, file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
