"""The benchmark's workloads: seeded inputs, timed operations, output checks.

Every operation is one call into robincheck, made by a single caller that
waits for it (a closed loop with one client).  Each result is checked
against the known truth or against an independent computation in this
file; a wrong result is a failed operation and makes the run incorrect.
An operation that raises or runs past ``OP_LIMIT_S`` is a failed
operation too, and its time counts toward no timing.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import resource
import signal
import time
import traceback
from fractions import Fraction

import numpy as np

EULER_GAMMA = 0.57721566490153286
WINDOW = 1 << 20          # one scanner segment
OP_LIMIT_S = 20.0         # an operation still running after this has failed
LN_1E12 = "27.631021"     # the CLI's default --max-log-n, ln 10^12
CONJ1_HEADER = ("m,p_m,q_m_num,q_m_den,q_m_dec,alpha_lo,alpha_hi,"
                "ratio_lo,ratio_hi,n_exceeds_5040")
SCAN_COLUMNS = ("n", "sigma", "sigma_over_n_num", "sigma_over_n_den", "reason")
_TAIL = 10 ** 18          # CLI rows are matched on their last 18 digits


class Mismatch(Exception):
    """An operation's output disagrees with the benchmark's own reference."""


class OpTimeout(Exception):
    """An operation ran past OP_LIMIT_S."""


def _on_alarm(signum, frame):
    raise OpTimeout(f"still running after {OP_LIMIT_S:g} s")


def failure_kind(exc: BaseException) -> str:
    if isinstance(exc, ValueError) and "integer string conversion" in str(exc):
        # Python's 4300-digit int->str limit; the CLI would exit 1 with a
        # traceback, the exit code that means "violated".
        return "int_str_digits_limit"
    return type(exc).__name__


class Recorder:
    """Times operations, checks their outputs, counts failures.

    ``speed[part]`` is [count, sum] of the meter's speed samples taken
    during the part's successful operations (meter.py)."""

    def __init__(self, meter):
        self.meter = meter
        self.samples: dict[str, list[tuple[float, float, int]]] = {}
        self.speed: dict[str, list] = {}
        self.attempted: dict[str, int] = {}
        self.failures: list[dict] = []
        self.correct = True
        self._planned: dict[str, list] = {}
        signal.signal(signal.SIGALRM, _on_alarm)

    def plan(self, part, fn, check, work=1):
        """Queue one operation for run_planned()."""
        self._planned.setdefault(part, []).append((fn, check, work))

    def run_planned(self):
        """Run the queued operations, each part's spread evenly over the run.

        The machine's speed drifts over seconds; interleaving the parts
        lets every part sample the whole round instead of one stretch.
        """
        order = []
        for rank, (part, ops) in enumerate(self._planned.items()):
            for j, op in enumerate(ops):
                order.append(((j + 0.5) / len(ops), rank, part, op))
        self._planned = {}
        for _, _, part, (fn, check, work) in sorted(order, key=lambda t: t[:2]):
            self.op(part, fn, check, work)

    def op(self, part, fn, check, work=1):
        """Run fn() once; record (wall, cpu, work) and the speeds sampled
        meanwhile if check(result) passes."""
        self.attempted[part] = self.attempted.get(part, 0) + 1
        cpu0 = _cpu_s()
        signal.setitimer(signal.ITIMER_REAL, OP_LIMIT_S)
        try:
            t0 = time.perf_counter()
            result = fn()
            wall = time.perf_counter() - t0
        except Exception as exc:  # a failed operation; the round goes on
            self._fail(part, failure_kind(exc), exc)
            return
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        cpu = _cpu_s() - cpu0
        try:
            check(result)
        except Exception as exc:  # any disagreement is a wrong output
            self.correct = False
            self._fail(part, "mismatch", exc)
            return
        self.samples.setdefault(part, []).append((wall, cpu, work))
        speeds = self.meter.between(t0, t0 + wall)
        acc = self.speed.setdefault(part, [0, 0.0])
        acc[0] += len(speeds)
        acc[1] += sum(speeds)

    def _fail(self, part, kind, exc):
        last = traceback.format_exception_only(type(exc), exc)[-1].strip()
        self.failures.append({"part": part, "kind": kind, "detail": last[:160]})


def _cpu_s() -> float:
    """CPU seconds of this process and of its finished children."""
    child = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + child.ru_utime + child.ru_stime


def run_cli(rc, argv, sink=None):
    """robincheck's CLI in this process: (exit code, stdout)."""
    out = sink if sink is not None else io.StringIO()
    with contextlib.redirect_stdout(out), \
            contextlib.redirect_stderr(io.StringIO()):
        code = rc.cli.main(list(argv))
    return code, out


# ---------------------------------------------------------------------------
# Reference arithmetic, independent of robincheck
# ---------------------------------------------------------------------------

def ref_primes(limit: int) -> list[int]:
    flags = np.ones(limit + 1, dtype=bool)
    flags[:2] = False
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p::p] = False
    return np.flatnonzero(flags).tolist()


def ref_sigma(n: int, plist: list[int]) -> int:
    """sigma(n) by trial division; plist must reach sqrt(n)."""
    total, rem = 1, n
    for p in plist:
        if p * p > rem:
            break
        if rem % p == 0:
            pk = 1
            while rem % p == 0:
                rem //= p
                pk *= p
            total *= (pk * p - 1) // (p - 1)
    if rem > 1:
        total *= rem + 1
    return total


def product(values) -> int:
    values = list(values)
    while len(values) > 1:
        values = [values[i] * values[i + 1] if i + 1 < len(values)
                  else values[i] for i in range(0, len(values), 2)]
    return values[0] if values else 1


def expect(cond, what):
    if not cond:
        raise Mismatch(what)


def check_rhs(result, ln_n: float):
    """The enclosure must contain e^gamma ln ln n (float, loose tolerance)."""
    want = math.exp(EULER_GAMMA) * math.log(ln_n)
    lo = float(result.rhs.lo.as_fraction())
    hi = float(result.rhs.hi.as_fraction())
    expect(lo <= want * (1 + 1e-9) and hi >= want * (1 - 1e-9),
           f"rhs [{lo}, {hi}] misses e^gamma ln ln n = {want}")


def check_satisfied(result, entries):
    expect(result.verdict.value == "satisfied",
           f"{result.verdict.value} for n > 5040")
    expect(result.factorization.entries == tuple(entries),
           "factorization changed")
    num = product(p ** (k + 1) - 1 for p, k in entries)
    den = product(p ** k * (p - 1) for p, k in entries)
    expect(result.lhs.numerator * den == result.lhs.denominator * num,
           "sigma(n)/n differs from prod (p^(k+1)-1)/(p^k (p-1))")
    check_rhs(result, math.fsum(k * math.log(p) for p, k in entries))


# ---------------------------------------------------------------------------
# scan: explorer.scan_range windows in three decades, plus `scan 2 5040`
# ---------------------------------------------------------------------------

class Scan:
    """Sigma sieve and block filter; the exact check sees no candidate."""

    name = "scan"
    windows = {7: 4, 9: 2, 11: 1}   # windows per round in each decade
    cli_scans = 3
    # scan_jobs2 runs in two worker processes, whose speed the meter does
    # not sample, so it is measured and printed but not gated
    gated = ("scan_1e7", "scan_1e9", "scan_1e11", "cli_scan")
    nominal_round_s = 6.0   # a round's wall time, set-up included

    def prepare(self, root):
        golden = root / "tests" / "data" / "violators_2_5040.csv"
        self.golden = golden.read_text().splitlines()

    def setup(self, rc):
        rc.primes.primes_up_to(1000)   # factorize's trial-division primes
        rc.robin.check_n(5041)         # e^gamma and ln 2 caches

    def inputs(self, rc, rng, first):
        # Windows start in the first tenth of each decade: the sieve costs
        # about sqrt(hi) numpy calls, so a start anywhere in the decade
        # would make one seed's window cost up to 3x another's.
        return {
            "windows": [(k, 10 ** k + rng.randrange(10 ** k // 10))
                        for k, count in self.windows.items()
                        for _ in range(count)],
            "jobs2": 10 ** 9 + rng.randrange(10 ** 8),
        }

    def warmup(self, rc):
        rc.explorer.scan_range(2 * 10 ** 6, 2 * 10 ** 6 + WINDOW - 1)

    def run(self, rc, inp, rec, trace_mode):
        scan = rc.explorer.scan_range
        for k, a in inp["windows"]:
            b = a + WINDOW - 1
            rec.plan(f"scan_1e{k}", lambda a=a, b=b: scan(a, b),
                     lambda r, a=a, b=b: self.check_clean(r, a, b), work=WINDOW)
        if not trace_mode:
            # spans recorded in pool workers never reach the tracer, so
            # trace-mode rounds leave this part out
            a = inp["jobs2"]
            b = a + 2 * WINDOW - 1
            rec.plan("scan_jobs2", lambda: scan(a, b, worker_count=2),
                     lambda r: self.check_clean(r, a, b), work=2 * WINDOW)
        for _ in range(self.cli_scans):
            rec.plan("cli_scan",
                     lambda: run_cli(rc, ["scan", "2", "5040", "--format", "csv"]),
                     self.check_golden)
        rec.run_planned()

    @staticmethod
    def check_clean(report, lo, hi):
        # Robin's inequality holds for every 5040 < n <= 10^(10^10).
        expect((report.lo, report.hi, report.checked_count)
               == (lo, hi, hi - lo + 1), "scan covered another range")
        expect(not report.violations, f"violations above 5040: "
               f"{[n for n, _ in report.violations][:5]}")
        expect(not report.indeterminates, "indeterminate n above 5040")

    def check_golden(self, result):
        code, out = result
        expect(code == 1, f"scan 2 5040 exited {code}, want 1 (violations)")
        lines = out.getvalue().splitlines()
        header = lines[0].split(",")
        cols = [header.index(c) for c in SCAN_COLUMNS]
        got = [",".join(SCAN_COLUMNS)] + [
            ",".join(row.split(",")[i] for i in cols) for row in lines[1:]]
        expect(got == self.golden, "scan 2 5040 differs from the golden CSV")


# ---------------------------------------------------------------------------
# certify: single certified checks of small factorizations
# ---------------------------------------------------------------------------

class Certify:
    """RHS kernel, ln n and its ln-p cache, compare and factorize."""

    name = "certify"
    gated = ("check", "sweep", "search", "factor64")
    nominal_round_s = 12.0
    stream_size = 3000      # (a) log-uniform raw integers per round
    sample_every = 100      # (a) cross-checked against ref_sigma
    sweep_limit = 10 ** 6   # (b)
    searches = 2            # (c) per round
    semiprimes = 24         # (d) 62-bit semiprimes per round

    def prepare(self, root):
        self.plist = ref_primes(self.sweep_limit)
        powers = set()
        for p in self.plist:
            v = p
            while v <= self.sweep_limit:
                if v > 5040:
                    powers.add(v)
                v *= p
        self.prime_powers = powers

    def setup(self, rc):
        rc.primes.primes_up_to(self.sweep_limit)   # the sweep's primes
        rc.robin.check_n(5041)

    def inputs(self, rc, rng, first):
        lo, hi = math.log(5041), math.log(10 ** 12)
        stream = [min(max(int(math.exp(rng.uniform(lo, hi))), 5041), 10 ** 12)
                  for _ in range(self.stream_size)]
        pairs = []
        while len(pairs) < self.semiprimes:
            p, q = _prime31(rc, rng), _prime31(rc, rng)
            if p != q:
                pairs.append((min(p, q), max(p, q)))
        return {"stream": stream, "semiprimes": pairs}

    def warmup(self, rc):
        rng = np.random.default_rng(0)
        for n in rng.integers(5041, 10 ** 9, 200).tolist():
            rc.robin.check(rc.primes.factorize(n))
        rc.robin.check_n(1073741827 * 1073741831)
        rc.theorems.verify_prime_powers(20000)
        rc.explorer.conjecture32_search(4, 3, Fraction(15))

    def run(self, rc, inp, rec, trace_mode):
        robin, primes = rc.robin, rc.primes
        for i, n in enumerate(inp["stream"]):
            deep = i % self.sample_every == 0
            rec.plan("check", lambda n=n: robin.check(primes.factorize(n)),
                     lambda r, n=n, deep=deep: self.check_stream(r, n, deep))
        rec.plan("sweep",
                 lambda: rc.theorems.verify_prime_powers(self.sweep_limit),
                 self.check_sweep, work=len(self.prime_powers))
        for _ in range(self.searches):
            rec.plan("search",
                     lambda: rc.explorer.conjecture32_search(9, 6, Fraction(LN_1E12)),
                     self.check_search)
        for p, q in inp["semiprimes"]:
            rec.plan("factor64", lambda p=p, q=q: robin.check_n(p * q),
                     lambda r, p=p, q=q: check_satisfied(r, ((p, 1), (q, 1))))
        rec.run_planned()

    def check_stream(self, result, n, deep):
        expect(result.verdict.value == "satisfied", f"{n}: {result.verdict.value}")
        expect(result.factorization.n() == n, f"{n}: factors multiply to another n")
        if deep:
            expect(result.lhs == Fraction(ref_sigma(n, self.plist), n),
                   f"{n}: sigma(n)/n differs from trial division")
            check_rhs(result, math.log(n))

    def check_sweep(self, results):
        got = set()
        for r in results:
            expect(r.verdict.value == "satisfied",
                   f"prime power {r.factorization} is {r.verdict.value}")
            ((p, k),) = r.factorization.entries
            got.add(p ** k)
        expect(len(results) == len(got) and got == self.prime_powers,
               "the sweep checked another set of prime powers")

    @staticmethod
    def check_search(report):
        expect(not report.counterexamples,
               f"{len(report.counterexamples)} counterexamples")
        expect(0 < report.bases_probed <= report.candidates_enumerated,
               "the search probed no base")


def _prime31(rc, rng) -> int:
    while True:
        x = rng.randrange(1 << 30, 1 << 31) | 1
        if rc.primes.is_prime(x):
            return x


# ---------------------------------------------------------------------------
# bigexact: huge factored inputs, the primorial table and their rendering
# ---------------------------------------------------------------------------

class BigExact:
    """Big-int gcd and products, memory growth and rendering."""

    name = "bigexact"
    # The CLI parts fail at real size today (int->str digit limit); they
    # are counted as failed operations and left out of the timed mix so
    # that a fix lowers the failure count without moving round_s.
    gated = ("primorial", "ca", "table")
    nominal_round_s = 7.0
    table_m = 10 ** 4
    primorials = 4          # m stratified over [9000, 11000)
    ca_numbers = 6          # k stratified over [3000, 6000)

    def prepare(self, root):
        self.plist = ref_primes(200_000)

    def setup(self, rc):
        rc.primes.first_primes(11_000)
        rc.robin.check_n(5041)

    def inputs(self, rc, rng, first):
        # one draw per equal slice of each range keeps a round's total
        # cost alike across seeds (a check costs about m^2)
        prim = [rc.primes.primorial_factorization(m)
                for m in stratified(rng, 9000, 11000, self.primorials)]
        ca = [colossally_abundant(rc, k)
              for k in stratified(rng, 3000, 6000, self.ca_numbers)]
        return {"primorials": prim, "ca": ca, "first": first}

    def warmup(self, rc):
        rc.robin.check(rc.primes.primorial_factorization(2000))
        rc.explorer.conjecture31_table(500)

    def run(self, rc, inp, rec, trace_mode):
        check = rc.robin.check
        for part, key in (("primorial", "primorials"), ("ca", "ca")):
            for f in inp[key]:
                rec.plan(part, lambda f=f: check(f),
                         lambda r, f=f: check_satisfied(r, f.entries))
        fingerprints = []
        rec.plan("table", lambda: rc.explorer.conjecture31_table(self.table_m),
                 lambda rows: fingerprints.extend(self.check_table(rows)),
                 work=self.table_m)
        rec.run_planned()
        # The CLI renders in a run's first round only: it is failure
        # accounting, and at real size each call costs seconds.  Every
        # round of a traced run renders, so that the pairs match.
        if not (inp["first"] or trace_mode):
            return
        if fingerprints:
            sink = _Conj1Csv(fingerprints)
            rec.op("cli_conjecture1",
                   lambda: run_cli(rc, ["conjecture1", str(self.table_m),
                                        "--format", "csv"], sink),
                   lambda res: sink.finish(res[0]))
        f = inp["primorials"][0]
        rec.op("cli_check",
               lambda: run_cli(rc, ["check", f.as_string(), "--format", "json"]),
               lambda res: self.check_json(res, f))

    def check_table(self, rows):
        """Check the rows; return (m, p_m, q_num, q_den) fingerprints."""
        m_max = self.table_m
        expect(len(rows) == m_max, f"{len(rows)} rows, want {m_max}")
        exact = Fraction(1)
        ln_q = 0.0
        theta = 0.0
        out = []
        for i, (row, p) in enumerate(zip(rows, self.plist), 1):
            expect(row.m == i and row.p_m == p, f"row {i}: wrong m or p_m")
            expect(row.n_exceeds_5040 == (i >= 6), f"row {i}: wrong n > 5040 flag")
            expect((row.alpha is None) == (i == 1), f"row {i}: alpha defined?")
            ln_q += math.log1p(1 / p)
            theta += math.log(p)
            if i <= 40:
                exact *= Fraction(p + 1, p)
                expect(Fraction(row.q_num, row.q_den) == exact, f"row {i}: q_m")
            if i % 1000 == 0:
                got = math.log(row.q_num) - math.log(row.q_den)
                expect(abs(got - ln_q) < 1e-9, f"row {i}: ln q_m")
                alpha = math.exp(EULER_GAMMA) * math.log(theta)
                lo = float(row.alpha.lo.as_fraction())
                hi = float(row.alpha.hi.as_fraction())
                expect(lo <= alpha * (1 + 1e-9) and hi >= alpha * (1 - 1e-9),
                       f"row {i}: alpha misses e^gamma ln theta(p_m)")
                ratio = alpha / math.exp(ln_q)
                lo = float(row.ratio.lo.as_fraction())
                hi = float(row.ratio.hi.as_fraction())
                expect(lo <= ratio * (1 + 1e-6) and hi >= ratio * (1 - 1e-6),
                       f"row {i}: ratio misses alpha/q")
            out.append((row.m, row.p_m, row.q_num % _TAIL, row.q_den % _TAIL))
        return out

    @staticmethod
    def check_json(result, f):
        code, out = result
        expect(code == 0, f"check exited {code}, want 0 (satisfied)")
        doc = json.loads(out.getvalue())
        expect(doc["verdict"] == "satisfied", f"verdict {doc['verdict']}")
        expect(doc["factorization"] == f.as_string(), "factorization differs")
        num = product(p + 1 for p, _ in f.entries)
        den = product(p for p, _ in f.entries)
        got_num, got_den = doc["sigma_over_n"]["num"], doc["sigma_over_n"]["den"]
        g = math.gcd(num, den)
        expect(int(got_num[-18:]) == (num // g) % _TAIL
               and int(got_den[-18:]) == (den // g) % _TAIL,
               "sigma(n)/n in the JSON differs")


class _Conj1Csv(io.TextIOBase):
    """Streams `conjecture1 --format csv` output and checks each row."""

    def __init__(self, fingerprints):
        self.want = fingerprints
        self.pending = ""
        self.rows = 0
        self.header = None
        self.bad: list[str] = []

    def write(self, s):
        lines = (self.pending + s).split("\n")
        self.pending = lines.pop()
        for line in lines:
            if self.header is None:
                self.header = line
                continue
            m, p_m, q_num, q_den = line.split(",", 4)[:4]
            want = self.want[self.rows] if self.rows < len(self.want) else None
            got = (int(m), int(p_m), int(q_num[-18:]), int(q_den[-18:]))
            if got != want and len(self.bad) < 3:
                self.bad.append(line[:80])
            self.rows += 1
        return len(s)

    def finish(self, code):
        expect(code == 0, f"conjecture1 exited {code}, want 0")
        expect(self.header == CONJ1_HEADER, "conjecture1 CSV header differs")
        expect(self.rows == len(self.want) and not self.pending and not self.bad,
               f"conjecture1 CSV rows differ: {self.bad}")


def stratified(rng, lo: int, hi: int, count: int) -> list[int]:
    """One uniform integer from each of count equal slices of [lo, hi)."""
    width = (hi - lo) / count
    return [lo + int((i + rng.random()) * width) for i in range(count)]


def colossally_abundant(rc, k: int):
    """The colossally abundant number whose largest prime is the k-th prime.

    For a parameter e the exponent of p is
    floor(log((p^(1+e) - 1) / (p^e - 1)) / log p) - 1 (Alaoglu-Erdos
    1944); it is at least 1 exactly while p^e <= 1 + 1/p, so e is taken
    midway between that bound for the k-th and the (k+1)-th prime.  The
    floats only choose the input; robincheck certifies whatever it gets.
    """
    plist = rc.primes.first_primes(k + 1)
    bound = [math.log1p(1 / p) / math.log(p) for p in plist[k - 1:k + 1]]
    eps = (bound[0] + bound[1]) / 2
    entries = []
    for p in plist[:k]:
        lp = math.log(p)
        xm1 = math.expm1(eps * lp)            # p^e - 1
        e = math.floor((math.log(p * xm1 + p - 1) - math.log(xm1)) / lp) - 1
        entries.append((p, e))
    f = rc.factorization.Factorization(tuple(entries))
    expect(all(e >= 1 for _, e in entries), "colossally abundant exponents")
    return f


WORKLOADS = {w.name: w for w in (Scan, Certify, BigExact)}
