"""Span-recording wrappers around robincheck's layer functions.

The package imports functions with ``from .x import y``, so one function
object is bound under several module names (``check`` lives in ``robin``,
``explorer``, ``theorems`` and the package itself; ``cli._COMMANDS`` holds
the ``_cmd_*`` functions).  ``Tracer.install`` replaces every binding it
finds, in module globals and in module-level dicts, so no call slips past.

Each wrapper records a span (name, start, end, parent) and folds it into
per-layer aggregates as it closes: call count, self time (duration minus
the time covered by child spans) and the number of calls per parent
layer.  Keeping every span would cost about 100 MB on a ``certify`` round
(a million spans), so only the aggregates stay in memory.
"""

from __future__ import annotations

import functools
import importlib
import time

# (layer, module, attribute names); every metric below is derived from these.
LAYERS = (
    ("primes.factorize", "primes", ("factorize",)),
    ("primes.brent_rho", "primes", ("_brent_rho",)),
    ("primes.source_grow", "primes", ("_PrimeSource._grow_to",)),
    ("factorization.lhs", "factorization", ("sigma_over_n_fraction",)),
    ("robin.check", "robin", ("check",)),
    ("robin.log_n", "robin", ("log_n",)),
    ("robin.rhs_from_log", "robin", ("_rhs_from_log",)),
    ("robin.ln_prime", "robin", ("_ln_prime_fp",)),
    ("intervals.ln_fp", "intervals", ("_ln_fp",)),
    ("intervals.compare", "intervals", ("compare",)),
    ("intervals.exp_gamma", "intervals", ("exp_gamma",)),
    ("explorer.sigma_segment", "explorer", ("_sigma_segment",)),
    ("explorer.rhs_floor", "explorer", ("_rhs_floor_scaled",)),
    ("explorer.filter", "explorer", ("_scan_segment",)),
    ("explorer.table", "explorer", ("conjecture31_table",)),
    ("explorer.enumerate_bases", "explorer", ("_enumerate_bases",)),
    ("theorems.prime_powers_enum", "theorems", ("_prime_powers_in",)),
    ("output.render", "output",
     ("sig_str_num_den", "sig_str_fraction", "sig_str_dyadic")),
    ("cli.command", "cli",
     ("_cmd_check", "_cmd_scan", "_cmd_conjecture1", "_cmd_conjecture2",
      "_cmd_bounds", "_cmd_prime_powers", "_cmd_substitute")),
)

MODULES = ("intervals", "primes", "factorization", "robin", "theorems",
           "explorer", "output", "cli")

# per_layer metric -> (layer, "calls" | "self_s"); names follow the
# benchmark definition, so a few self times are spelled *_self_s.
LAYER_METRICS = {
    "explorer.sigma_segment_calls": ("explorer.sigma_segment", "calls"),
    "explorer.sigma_segment_s": ("explorer.sigma_segment", "self_s"),
    "explorer.rhs_floor_calls": ("explorer.rhs_floor", "calls"),
    "explorer.rhs_floor_s": ("explorer.rhs_floor", "self_s"),
    "explorer.filter_calls": ("explorer.filter", "calls"),
    "explorer.filter_self_s": ("explorer.filter", "self_s"),
    "robin.check_calls": ("robin.check", "calls"),
    "robin.check_self_s": ("robin.check", "self_s"),
    "robin.log_n_calls": ("robin.log_n", "calls"),
    "robin.log_n_s": ("robin.log_n", "self_s"),
    "robin.rhs_from_log_calls": ("robin.rhs_from_log", "calls"),
    "robin.rhs_from_log_s": ("robin.rhs_from_log", "self_s"),
    "robin.ln_prime_calls": ("robin.ln_prime", "calls"),
    "robin.ln_prime_s": ("robin.ln_prime", "self_s"),
    "intervals.ln_fp_calls": ("intervals.ln_fp", "calls"),
    "intervals.ln_fp_s": ("intervals.ln_fp", "self_s"),
    "intervals.compare_calls": ("intervals.compare", "calls"),
    "intervals.compare_s": ("intervals.compare", "self_s"),
    "intervals.exp_gamma_calls": ("intervals.exp_gamma", "calls"),
    "intervals.exp_gamma_s": ("intervals.exp_gamma", "self_s"),
    "primes.factorize_calls": ("primes.factorize", "calls"),
    "primes.factorize_s": ("primes.factorize", "self_s"),
    "primes.brent_rho_calls": ("primes.brent_rho", "calls"),
    "primes.brent_rho_s": ("primes.brent_rho", "self_s"),
    "primes.source_grow_calls": ("primes.source_grow", "calls"),
    "primes.source_grow_s": ("primes.source_grow", "self_s"),
    "factorization.lhs_calls": ("factorization.lhs", "calls"),
    "factorization.lhs_s": ("factorization.lhs", "self_s"),
    "explorer.table_calls": ("explorer.table", "calls"),
    "explorer.table_s": ("explorer.table", "self_s"),
    "theorems.prime_powers_enum_s": ("theorems.prime_powers_enum", "self_s"),
    "explorer.enumerate_bases_s": ("explorer.enumerate_bases", "self_s"),
    "output.render_calls": ("output.render", "calls"),
    "output.render_s": ("output.render", "self_s"),
    "cli.command_calls": ("cli.command", "calls"),
    "cli.command_self_s": ("cli.command", "self_s"),
}


def unit_of(metric: str) -> str:
    if metric.endswith(("_calls", "_candidates", "escalations", "undecided",
                        "spans")):
        return "count"
    if metric.endswith("_ratio"):
        return "ratio"
    if metric.endswith("_bits"):
        return "bits"
    return "s"


class Tracer:
    """Per-layer call counts and self times for one process."""

    def __init__(self):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.edges: dict[tuple[str, str], int] = {}  # (parent, child) -> calls
        self.scanned_n = 0      # n covered by explorer._scan_segment spans
        self.escalations = 0    # check results above the start precision
        self.undecided = 0      # check results that stayed indeterminate
        self.lhs_bits = 0       # bits of every sigma(n)/n num and den made
        self.missing: list[str] = []
        self._stack = [["root", 0.0]]  # open spans: [layer, child time]

    def clear(self, keep=("primes.source_grow",)):
        """Forget what was recorded so far, except the layers in ``keep``."""
        for layer in self.calls:
            if layer not in keep:
                self.calls[layer] = 0
                self.self_s[layer] = 0.0
        self.edges.clear()
        self.scanned_n = self.escalations = self.undecided = self.lhs_bits = 0

    def _wrap(self, layer, fn, observe):
        stack = self._stack
        calls, self_s, edges = self.calls, self.self_s, self.edges
        calls.setdefault(layer, 0)
        self_s.setdefault(layer, 0.0)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                duration = clock() - start
                stack.pop()
                parent = stack[-1]
                parent[1] += duration
                calls[layer] += 1
                self_s[layer] += duration - frame[1]
                key = (parent[0], layer)
                edges[key] = edges.get(key, 0) + 1
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observers(self, robin, intervals):
        start_bits = intervals.DEFAULT_PRECISION.start_bits

        def check(args, result):
            if result.precision_used > start_bits:
                self.escalations += 1
            if result.verdict is robin.Verdict.INDETERMINATE:
                self.undecided += 1

        def lhs(args, result):
            self.lhs_bits += (result.numerator.bit_length()
                              + result.denominator.bit_length())

        def scan_segment(args, result):
            self.scanned_n += args[1] - args[0]

        return {"robin.check": check, "factorization.lhs": lhs,
                "explorer.filter": scan_segment}

    def install(self):
        """Wrap every layer function wherever the package binds it."""
        mods = [importlib.import_module("robincheck")] + [
            importlib.import_module(f"robincheck.{m}") for m in MODULES]
        by_name = {m.__name__.rsplit(".", 1)[-1]: m for m in mods}
        observers = self._observers(by_name["robin"], by_name["intervals"])
        replace: dict[int, object] = {}
        for layer, mod_name, attrs in LAYERS:
            mod = by_name[mod_name]
            for attr in attrs:
                owner, _, name = attr.rpartition(".")
                holder = getattr(mod, owner, None) if owner else mod
                fn = getattr(holder, name, None)
                if fn is None:
                    self.missing.append(f"{mod_name}.{attr}")
                    continue
                wrapped = self._wrap(layer, fn, observers.get(layer))
                replace[id(fn)] = wrapped
                if owner:
                    setattr(holder, name, wrapped)
        for mod in mods:
            for name, value in list(vars(mod).items()):
                if id(value) in replace:
                    setattr(mod, name, replace[id(value)])
                elif isinstance(value, dict):
                    for key, item in list(value.items()):
                        if id(item) in replace:
                            value[key] = replace[id(item)]

    def layer_metrics(self) -> dict[str, float]:
        out = {}
        for metric, (layer, field) in LAYER_METRICS.items():
            source = self.calls if field == "calls" else self.self_s
            out[metric] = source.get(layer, 0)
        candidates = self.edges.get(("explorer.filter", "robin.check"), 0)
        out["explorer.exact_candidates"] = candidates
        out["explorer.candidate_ratio"] = (candidates / self.scanned_n
                                           if self.scanned_n else 0.0)
        out["robin.escalations"] = self.escalations
        out["robin.undecided"] = self.undecided
        out["factorization.lhs_bits"] = self.lhs_bits
        out["trace.spans"] = sum(self.calls.values())
        return out
