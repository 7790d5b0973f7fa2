"""Command-line front end.

Commands: check, scan, conjecture1, conjecture2, bounds, prime-powers,
substitute.  This module parses arguments, renders output and maps
outcomes to exit codes; the rules behind them live in the library.
``_exit_code`` maps a command's verdicts to 1 if any is violated, else 2
if any is indeterminate, else 0.  64 is any ``InvalidInput`` (a usage
error, primes past the sieve budget, a scan end above 10^12, ...), 65
raw input too large to factor (use a factor string), 74 output that
could not be opened or written (nothing is printed for a reader that
closed the pipe early), 70 any other exception, a bug or a
``MemoryError``, with its traceback on stderr, so no failure reads as
a verdict.  ``--output PATH`` is opened at the command's first write, so
a refused command leaves it as it was.  Exact integers print through
``output.int_str``, except the running products of conjecture1 and
bounds, whose digits carry from row to row as exact Decimals along
``explorer.q_steps``.
"""

from __future__ import annotations

import argparse
import decimal
import errno
import json
import os
import re
import sys
import traceback
from fractions import Fraction
from typing import Iterable, Iterator, Optional, TextIO

from . import explorer, primes, robin, theorems
from .factorization import Factorization, sigma_int
from .intervals import (
    _GUARD,
    InvalidInput,
    PrecisionConfig,
    dyadic_from_fraction,
)
from .output import (
    exact_context,
    int_str,
    interval_json,
    interval_sig,
    sig_str_fraction,
    sig_str_dyadic,
    sig_str_num_den,
)
from .robin import Verdict

EXIT_SATISFIED = 0
EXIT_VIOLATED = 1
EXIT_INDETERMINATE = 2
EXIT_USAGE = 64
EXIT_TOO_LARGE = 65
EXIT_SOFTWARE = 70
EXIT_IOERR = 74

_N_PRINT_DIGITS = 50  # larger n are reported as log10(n)

_DEFAULT_LOG_N_MAX = "27.631021"  # ln(10^12)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise InvalidInput(message)


def _int_arg(text: str) -> int:
    """An ASCII decimal integer; int() alone takes "5_040" and other digits."""
    if re.fullmatch(r"-?\d+", text, re.ASCII):
        try:
            return int(text)
        except ValueError:  # past int()'s digit limit
            pass
    raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")


def _decimal_arg(text: str) -> Fraction:
    """An ASCII decimal; Fraction() alone takes "1_5" and "1e400000000"."""
    if re.fullmatch(r"-?\d+(\.\d+)?", text, re.ASCII):
        try:
            return Fraction(text)
        except ValueError:  # past int()'s digit limit
            pass
    raise argparse.ArgumentTypeError(f"invalid decimal value: {text!r}")


def _build_parser() -> _Parser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--precision-bits", type=_int_arg, default=53,
                        help="starting interval precision (default 53)")
    common.add_argument("--max-precision-bits", type=_int_arg, default=4096,
                        help="escalation ceiling (default 4096)")
    common.add_argument("--format", choices=("human", "csv", "json", "svg"),
                        default="human")
    common.add_argument("--output", default="-",
                        help="output path (default: standard output)")

    parser = _Parser(prog="robincheck",
                     description="Certified checks of the sigma(n) < "
                                 "e^gamma n log log n inequality")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common],
                       help="check one n or factor string")
    p.add_argument("value", help="decimal integer >= 2 or factor string like 2^4*3^2*5*7")

    p = sub.add_parser("scan", parents=[common],
                       help="check every n in a range, streaming violations")
    p.add_argument("start", type=_int_arg)
    p.add_argument("end", type=_int_arg)

    p = sub.add_parser("conjecture1", parents=[common],
                       help="primorial partial-product table (q_m vs alpha_m)")
    p.add_argument("m_max", type=_int_arg)

    p = sub.add_parser("conjecture2", parents=[common],
                       help="bounded exponent-increment counterexample search")
    p.add_argument("--primes", type=_int_arg, default=9, dest="prime_count")
    p.add_argument("--max-exp", type=_int_arg, default=6)
    p.add_argument("--max-log-n", type=_decimal_arg,
                   default=_DEFAULT_LOG_N_MAX,
                   help="upper bound on ln n (decimal, default ln 10^12)")
    p.add_argument("--no-prune-justification", action="store_true",
                   help="allow --primes beyond 9 (outside the corollary-backed range)")
    p.add_argument("--all-arrangements", action="store_true",
                   help="check every arrangement of the exponents directly")

    p = sub.add_parser("bounds", parents=[common],
                       help="corollary bound table vs e^gamma ln ln 5040")
    p.add_argument("m_max", type=_int_arg)

    p = sub.add_parser("prime-powers", parents=[common],
                       help="verify every prime power in (5040, limit]")
    p.add_argument("--limit", type=_int_arg, default=10 ** 6)

    p = sub.add_parser("substitute", parents=[common],
                       help="one-shot prime substitution report")
    p.add_argument("factors", help="base factor string")
    p.add_argument("index", type=_int_arg, help="0-based entry to replace")
    p.add_argument("new_prime", type=_int_arg)
    return parser


def _exit_code(verdicts: Iterable[Verdict]) -> int:
    """1 if any verdict is violated, else 2 if any is undecided, else 0."""
    present = set(verdicts)
    if Verdict.VIOLATED in present:
        return EXIT_VIOLATED
    if Verdict.INDETERMINATE in present:
        return EXIT_INDETERMINATE
    return EXIT_SATISFIED


def _write_json(doc, out: TextIO) -> None:
    json.dump(doc, out, indent=2)
    out.write("\n")


def _write_csv(out: TextIO, header: str, rows, none: str = "") -> int:
    """Write the header and one line per record; return the record count.

    The records are the dicts --format json prints.  Column ``c`` is
    ``row[c]`` when the record has that key, else ``row[a][b]`` for
    ``c = a_b`` split at the last underscore.  A None value, or a None
    parent, prints as ``none``; a nested record prints as its first field
    (substitute's ``before`` is ``before.factorization``).
    """
    out.write(header + "\n")
    columns = header.split(",")
    count = 0
    for row in rows:
        out.write(",".join(_csv_cell(row, c, none) for c in columns) + "\n")
        count += 1
    return count


def _csv_cell(row: dict, column: str, none: str) -> str:
    if column in row:
        value = row[column]
    else:
        parent, _, field = column.rpartition("_")
        value = None if row[parent] is None else row[parent][field]
    if isinstance(value, dict):
        value = next(iter(value.values()))
    if value is None:
        return none
    if isinstance(value, bool):
        return "true" if value else "false"
    return str(value)


def _num_den(fr: Fraction) -> dict:
    return {"num": int_str(fr.numerator), "den": int_str(fr.denominator)}


def _ratio_str(fr: Fraction) -> str:
    return f"{int_str(fr.numerator)}/{int_str(fr.denominator)}"


def _n_display(f: Factorization) -> tuple[Optional[str], Optional[str]]:
    """(n, log10_n): exactly one is set, depending on the size of n."""
    if f.log2_magnitude() <= 4 * _N_PRINT_DIGITS:
        n = f.n()
        s = str(n)
        if len(s) <= _N_PRINT_DIGITS:
            return s, None
    return None, sig_str_fraction(_log10_midpoint(f))


def _log10_midpoint(f: Factorization) -> Fraction:
    """Midpoint of a 53-bit outward-rounded enclosure of log10(n)."""
    # both bounds pairs sit at scale 2**(53 + _GUARD), which cancels
    n_lo, n_hi = robin.log_n(f, 53)
    t_lo, t_hi = robin.log_n(Factorization(((2, 1), (5, 1)),), 53)
    lo = dyadic_from_fraction(Fraction(n_lo, t_hi), 53 + _GUARD, False)
    hi = dyadic_from_fraction(Fraction(n_hi, t_lo), 53 + _GUARD, True)
    return (lo.as_fraction() + hi.as_fraction()) / 2


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------

def _cmd_check(args, cfg: PrecisionConfig, out: TextIO) -> int:
    value = args.value.strip()
    if re.fullmatch(r"\d+", value, re.ASCII):
        f = primes.factorize(int(value))
    else:
        f = primes.parse_factor_string(value)
    result = robin.check(f, cfg)
    n_str, log10_str = _n_display(f)
    margin = result.margin_lower_bound  # derived on each read
    if args.format != "human":
        record = {
            "n": n_str,
            "log10_n": log10_str,
            "factorization": f.as_string(),
            "sigma_over_n": _num_den(result.lhs),
            "rhs": interval_json(result.rhs),
            "verdict": result.verdict.value,
            "reason": result.reason,
            "margin_lower_bound": (None if margin is None
                                   else margin.decimal_str()),
            "precision_bits": result.precision_used,
        }
        if args.format == "json":
            _write_json(record, out)
        else:
            _write_csv(out, "n,log10_n,factorization,sigma_over_n_num,"
                       "sigma_over_n_den,rhs_lo,rhs_hi,verdict,reason,"
                       "margin_lower_bound,precision_bits", [record])
    else:
        if n_str is not None:
            out.write(f"n = {n_str}\n")
        else:
            out.write(f"log10(n) = {log10_str}\n")
        out.write(f"factorization = {f.as_string()}\n")
        out.write(f"sigma(n)/n = {_ratio_str(result.lhs)}"
                  f" = {sig_str_fraction(result.lhs)}\n")
        if result.rhs is not None:
            out.write(f"rhs (e^gamma log log n) = {interval_sig(result.rhs)}\n")
        else:
            out.write("rhs (e^gamma log log n) = undefined (n <= e)\n")
        out.write(f"verdict = {result.verdict.value}\n")
        if result.reason:
            out.write(f"reason = {result.reason}\n")
        if margin is not None:
            out.write(f"margin >= {sig_str_dyadic(margin)}\n")
        out.write(f"precision = {result.precision_used} bits\n")
    return _exit_code([result.verdict])


# ---------------------------------------------------------------------------
# scan
# ---------------------------------------------------------------------------

SCAN_CSV_HEADER = "n,sigma,sigma_over_n_num,sigma_over_n_den,rhs_lo,rhs_hi,reason"


def _cmd_scan(args, cfg: PrecisionConfig, out: TextIO) -> int:
    segments = explorer.iter_scan_results(args.start, args.end, cfg)
    indeterminates: list[int] = []

    def violations():
        for segment in segments:
            for n, result in segment:
                if result.verdict is Verdict.VIOLATED:
                    yield n, result
                else:
                    indeterminates.append(n)

    if args.format == "human":
        found = 0
        for n, result in violations():
            found += 1
            out.write(f"VIOLATED n={n} sigma/n={_ratio_str(result.lhs)}"
                      f" ({sig_str_fraction(result.lhs)})"
                      + (f" rhs={interval_sig(result.rhs)}"
                         if result.rhs else " rhs=undefined") + "\n")
    else:
        rows = ({"n": n,
                 "sigma": int_str(sigma_int(result.factorization)),
                 "sigma_over_n": _num_den(result.lhs),
                 "rhs": interval_json(result.rhs),
                 "reason": result.reason} for n, result in violations())
        if args.format == "csv":
            found = _write_csv(out, SCAN_CSV_HEADER, rows)
        else:
            rows = list(rows)
            found = len(rows)
    checked = args.end - args.start + 1
    summary = (f"checked={checked} violations={found} "
               f"indeterminates={len(indeterminates)}")
    if args.format == "json":
        _write_json({
            "lo": args.start, "hi": args.end, "checked": checked,
            "violations": rows,
            "indeterminates": indeterminates,
        }, out)
    else:
        # CSV keeps its rows on stdout and reports the rest on stderr
        report = sys.stderr if args.format == "csv" else out
        for n in indeterminates:
            report.write(f"INDETERMINATE n={n}\n")
        report.write(summary + "\n")
    return _exit_code([Verdict.VIOLATED] * found
                      + [Verdict.INDETERMINATE] * len(indeterminates))


# ---------------------------------------------------------------------------
# conjecture1
# ---------------------------------------------------------------------------

CONJ1_CSV_HEADER = ("m,p_m,q_m_num,q_m_den,q_m_dec,alpha_lo,alpha_hi,"
                    "ratio_lo,ratio_hi,n_exceeds_5040")


def _q_digits(plist, d: int = 1) -> Iterator[tuple[str, str]]:
    """The digits of qn and qd along ``explorer.q_steps(plist, d)``.

    Exact Decimals carried from row to row convert in linear time, where
    each row's int would cost a superlinear ``int_str`` from scratch.
    """
    ctx = exact_context()
    for _, qn, qd in explorer.q_steps(plist, d, decimal.Decimal(1),
                                      ctx.divide_int, ctx.multiply):
        yield str(qn), str(qd)


def _cmd_conjecture1(args, cfg: PrecisionConfig, out: TextIO) -> int:
    table = explorer.conjecture31_table(args.m_max, cfg)
    if args.format == "svg":
        out.write(_conjecture1_svg(table))
        return EXIT_SATISFIED
    rows = ({"m": r.m, "p_m": r.p_m,
             "q_m": {"num": num, "den": den},
             "q_m_dec": sig_str_num_den(r.q_num, r.q_den),
             "alpha": interval_json(r.alpha),
             "ratio": interval_json(r.ratio),
             "n_exceeds_5040": r.n_exceeds_5040}
            for r, (num, den) in zip(table, _q_digits([r.p_m for r in table])))
    if args.format == "json":
        _write_json({"rows": list(rows)}, out)
    elif args.format == "csv":
        _write_csv(out, CONJ1_CSV_HEADER, rows, "undefined")
    else:
        for r in table:
            alpha = interval_sig(r.alpha) if r.alpha else "undefined"
            ratio = interval_sig(r.ratio) if r.ratio else "undefined"
            marker = "  [n > 5040]" if r.n_exceeds_5040 else ""
            out.write(f"m={r.m} p={r.p_m} "
                      f"q={sig_str_num_den(r.q_num, r.q_den)} "
                      f"alpha={alpha} ratio={ratio}{marker}\n")
    return EXIT_SATISFIED


def _conjecture1_svg(rows: list[explorer.ConjectureRow]) -> str:
    """Two polylines (q_m and alpha_m) over m, vertical marker at n > 5040."""
    width, height, pad = 800, 500, 60
    xs = [r.m for r in rows]
    q_vals = [r.q_num / r.q_den for r in rows]
    a_pts = [(r.m, float(r.alpha.midpoint())) for r in rows if r.alpha]
    y_max = max(q_vals + [v for _, v in a_pts] + [1.0]) * 1.05
    x_max = max(xs)

    def sx(m):
        return pad + (width - 2 * pad) * (m - 1) / max(1, x_max - 1)

    def sy(v):
        return height - pad - (height - 2 * pad) * v / y_max

    def polyline(points, color):
        pts = " ".join(f"{sx(m):.2f},{sy(v):.2f}" for m, v in points)
        return (f'<polyline fill="none" stroke="{color}" stroke-width="1.5" '
                f'points="{pts}"/>')

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<line x1="{pad}" y1="{height-pad}" x2="{width-pad}" '
        f'y2="{height-pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{height-pad}" '
        f'stroke="black"/>',
        f'<text x="{width//2}" y="{height-pad//4}" text-anchor="middle" '
        f'font-size="13">m (number of primes)</text>',
        polyline(list(zip(xs, q_vals)), "#1f77b4"),
    ]
    if a_pts:
        parts.append(polyline(a_pts, "#d62728"))
    first_exceed = next((r.m for r in rows if r.n_exceeds_5040), None)
    if first_exceed is not None:
        x = sx(first_exceed)
        parts.append(f'<line x1="{x:.2f}" y1="{pad}" x2="{x:.2f}" '
                     f'y2="{height-pad}" stroke="#888" stroke-dasharray="4 3"/>')
        parts.append(f'<text x="{x+4:.2f}" y="{pad+14}" font-size="12" '
                     f'fill="#555">n &gt; 5040</text>')
    parts.append(f'<text x="{width-pad}" y="{pad}" text-anchor="end" '
                 f'font-size="12" fill="#1f77b4">q_m</text>')
    parts.append(f'<text x="{width-pad}" y="{pad+16}" text-anchor="end" '
                 f'font-size="12" fill="#d62728">alpha_m</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


# ---------------------------------------------------------------------------
# conjecture2
# ---------------------------------------------------------------------------

def _cmd_conjecture2(args, cfg: PrecisionConfig, out: TextIO) -> int:
    if args.prime_count > 9 and not args.no_prune_justification:
        raise InvalidInput(
            "--primes beyond 9 leaves the corollary-backed range; "
            "pass --no-prune-justification to proceed anyway")
    report = explorer.conjecture32_search(
        args.prime_count, args.max_exp, args.max_log_n, cfg,
        non_increasing_only=not args.all_arrangements,
    )
    ce_rows = [{
        "base": f.as_string(), "index": j, "verdict": r.verdict.value,
    } for f, j, r in report.counterexamples]
    found = sum(r.verdict is Verdict.VIOLATED
                for _, _, r in report.counterexamples)
    undecided = len(ce_rows) - found
    if args.format == "json":
        _write_json({
            "prime_count_max": report.prime_count_max,
            "exponent_max": report.exponent_max,
            "log_n_max": str(report.log_n_max),
            "candidates_enumerated": report.candidates_enumerated,
            "bases_probed": report.bases_probed,
            "counterexamples": ce_rows,
        }, out)
    elif args.format == "csv":
        _write_csv(out, "base,index,verdict", ce_rows)
        print(f"candidates={report.candidates_enumerated} "
              f"probed={report.bases_probed} "
              f"counterexamples={found}"
              + (f" undecided={undecided}" if undecided else ""),
              file=sys.stderr)
    else:
        out.write(f"candidates enumerated = {report.candidates_enumerated}\n")
        out.write(f"bases probed (satisfied, n > 5040) = {report.bases_probed}\n")
        out.write(f"counterexamples = {found}\n")
        if undecided:
            out.write(f"undecided = {undecided}\n")
        for row in ce_rows:
            at = "" if row["index"] is None else f" index {row['index']}"
            out.write(f"  base {row['base']}{at} -> {row['verdict']}\n")
    return _exit_code(r.verdict for _, _, r in report.counterexamples)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

BOUNDS_CSV_HEADER = ("m,p_m,unbounded_num,unbounded_den,unbounded_dec,"
                     "unbounded_passes,squarefree_num,squarefree_den,"
                     "squarefree_dec,squarefree_passes,threshold_lo,threshold_hi")


_PASSES = {True: "pass", False: "FAIL", None: "undecided"}


def _bound_json(report: theorems.BoundReport, num: str, den: str) -> dict:
    return {"num": num, "den": den,
            "dec": sig_str_fraction(report.bound_value),
            "passes": report.passes}


def _cmd_bounds(args, cfg: PrecisionConfig, out: TextIO) -> int:
    table = theorems.bound_table(args.m_max, cfg)
    thr = table[0][1].threshold
    plist = [p for p, _, _ in table]
    # unbounded = prod p/(p-1) is the d = -1 walk's qd/qn
    rows = ({"m": u.m, "p_m": p,
             "unbounded": _bound_json(u, u_den, u_num),
             "squarefree": _bound_json(s, s_num, s_den)}
            for (p, u, s), (u_num, u_den), (s_num, s_den)
            in zip(table, _q_digits(plist, -1), _q_digits(plist)))
    if args.format == "json":
        _write_json({"threshold": interval_json(thr), "rows": list(rows)}, out)
    elif args.format == "csv":
        _write_csv(out, BOUNDS_CSV_HEADER,
                   ({**row, "threshold": interval_json(thr)} for row in rows))
    else:
        out.write(f"threshold e^gamma*loglog(5040) = {interval_sig(thr)}\n")
        for p, u, s in table:
            out.write(f"m={u.m} p={p} "
                      f"unbounded={sig_str_fraction(u.bound_value)} "
                      f"({_PASSES[u.passes]}) "
                      f"squarefree={sig_str_fraction(s.bound_value)} "
                      f"({_PASSES[s.passes]})\n")
    return _exit_code(Verdict.INDETERMINATE for _, u, s in table
                      for r in (u, s) if r.passes is None)


# ---------------------------------------------------------------------------
# prime-powers
# ---------------------------------------------------------------------------

def _cmd_prime_powers(args, cfg: PrecisionConfig, out: TextIO) -> int:
    results = theorems.verify_prime_powers(args.limit, cfg)
    not_satisfied = [r for r in results if r.verdict is not Verdict.SATISFIED]
    if args.format == "csv":
        # a prime power's factorization has exactly one entry
        _write_csv(out, "n,p,k,lhs_num,lhs_den,rhs_lo,rhs_hi,verdict", (
            {"n": p ** k, "p": p, "k": k, "lhs": _num_den(r.lhs),
             "rhs": interval_json(r.rhs), "verdict": r.verdict.value}
            for r in results for p, k in r.factorization.entries),
            "undefined")
    elif args.format == "json":
        _write_json({
            "limit": args.limit,
            "checked": len(results),
            "all_satisfied": not not_satisfied,
            "exceptions": [{
                "factorization": r.factorization.as_string(),
                "verdict": r.verdict.value,
            } for r in not_satisfied],
        }, out)
    else:
        out.write(f"prime powers in (5040, {args.limit}]: {len(results)} checked\n")
        out.write(f"all satisfied: {'yes' if not not_satisfied else 'NO'}\n")
        for r in not_satisfied:
            out.write(f"  {r.factorization.as_string()} -> {r.verdict.value}\n")
    return _exit_code(r.verdict for r in not_satisfied)


# ---------------------------------------------------------------------------
# substitute
# ---------------------------------------------------------------------------

def _cmd_substitute(args, cfg: PrecisionConfig, out: TextIO) -> int:
    f = primes.parse_factor_string(args.factors)
    report = theorems.substitution_report(f, args.index, args.new_prime, cfg)
    record = {
        "before": {"factorization": report.before.factorization.as_string(),
                   "verdict": report.before.verdict.value},
        "after": {"factorization": report.after.factorization.as_string(),
                  "verdict": report.after.verdict.value},
        "index": report.index,
        "old_prime": report.old_prime,
        "new_prime": report.new_prime,
        "lhs_decreased": report.lhs_decreased,
        "rhs_increased": report.rhs_increased,
    }
    if args.format == "json":
        _write_json(record, out)
    elif args.format == "csv":
        _write_csv(out, "before,before_verdict,after,after_verdict,index,"
                   "old_prime,new_prime,lhs_decreased,rhs_increased",
                   [record], "undecided")
    else:
        out.write(f"before: {report.before.factorization.as_string()} "
                  f"-> {report.before.verdict.value}\n")
        out.write(f"after:  {report.after.factorization.as_string()} "
                  f"-> {report.after.verdict.value}\n")
        out.write(f"replaced p={report.old_prime} with P={report.new_prime} "
                  f"at index {report.index}\n")
        out.write(f"lhs strictly decreased: {report.lhs_decreased}\n")
        increased = ("undecided" if report.rhs_increased is None
                     else report.rhs_increased)
        out.write(f"rhs (log n) certified increased: {increased}\n")
    verdicts = [report.after.verdict]
    if (report.rhs_increased is None
            or report.before.verdict is Verdict.INDETERMINATE):
        verdicts.append(Verdict.INDETERMINATE)
    return _exit_code(verdicts)


_COMMANDS = {
    "check": _cmd_check,
    "scan": _cmd_scan,
    "conjecture1": _cmd_conjecture1,
    "conjecture2": _cmd_conjecture2,
    "bounds": _cmd_bounds,
    "prime-powers": _cmd_prime_powers,
    "substitute": _cmd_substitute,
}


class _OutputFile:
    """``--output PATH``, opened (and so truncated) by its first write.

    A command that refuses its input before writing leaves PATH as it
    was; ``flush``, which ``main`` calls once the command has returned,
    creates the file for a command that wrote nothing.
    """

    def __init__(self, path: str):
        self._path = path
        self._file: Optional[TextIO] = None

    def _opened(self) -> TextIO:
        if self._file is None:
            self._file = open(self._path, "w")
        return self._file

    def write(self, text: str) -> int:
        return self._opened().write(text)

    def flush(self) -> None:
        self._opened().flush()

    def close(self) -> None:
        if self._file is not None:
            self._file.close()


def _discard_stdout() -> None:
    """Point fd 1 at the null device after the reader closed the pipe.

    Otherwise the interpreter's final flush of sys.stdout fails again and
    prints a traceback on the way out.
    """
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, ValueError):  # not backed by a descriptor
        return
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, fd)
    os.close(devnull)


def main(argv=None) -> int:
    parser = _build_parser()
    max_str_digits = sys.get_int_max_str_digits()
    try:
        args = parser.parse_args(argv)
        # sigma(n)/n of a big factor string runs past the 4300 digits int
        # <-> str converts by default; restored for in-process callers
        sys.set_int_max_str_digits(0)
        if args.format == "svg" and args.command != "conjecture1":
            raise InvalidInput("--format svg is only valid for: conjecture1")
        cfg = PrecisionConfig(start_bits=args.precision_bits,
                              max_bits=args.max_precision_bits)
        try:
            out = (sys.stdout if args.output == "-"
                   else _OutputFile(args.output))
            try:
                code = _COMMANDS[args.command](args, cfg, out)
                out.flush()
            finally:
                if out is not sys.stdout:
                    out.close()
            return code
        except OSError as exc:
            if exc.errno == errno.EPIPE:
                _discard_stdout()
            else:
                print(f"robincheck: cannot write output: {exc}",
                      file=sys.stderr)
            return EXIT_IOERR
    except InvalidInput as exc:
        print(f"robincheck: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except primes.InputTooLarge as exc:
        print(f"robincheck: {exc}", file=sys.stderr)
        return EXIT_TOO_LARGE
    except Exception:
        traceback.print_exc()
        return EXIT_SOFTWARE
    finally:
        sys.set_int_max_str_digits(max_str_digits)


if __name__ == "__main__":
    sys.exit(main())
