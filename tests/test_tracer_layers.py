"""The benchmark's tracer still finds every layer it names in robincheck.

perfbench/tracer.py wraps functions by module and attribute name, so a
rename in the package would silently drop a layer from traced runs.  The
file is run by path with runpy, which only reads it (no bytecode is
written next to it).
"""

import importlib
import json
import os
import runpy
import subprocess
import sys

_ROOT = os.path.join(os.path.dirname(__file__), "..")
_TRACER = os.path.abspath(os.path.join(_ROOT, "perfbench", "tracer.py"))


def test_every_layer_attribute_resolves():
    tracer = runpy.run_path(_TRACER)
    for name in tracer["MODULES"]:
        importlib.import_module(f"robincheck.{name}")
    for layer, mod_name, attrs in tracer["LAYERS"]:
        for attr in attrs:
            holder = importlib.import_module(f"robincheck.{mod_name}")
            for part in attr.split("."):
                assert hasattr(holder, part), f"{layer}: {mod_name}.{attr}"
                holder = getattr(holder, part)
            assert callable(holder), f"{layer}: {mod_name}.{attr}"


_TRACE_CHECK_5041_5040 = """
import json, runpy, sys
t = runpy.run_path(sys.argv[1])["Tracer"]()
t.install()
import robincheck
robincheck.check_n(5041)
after_5041 = dict(t.edges)
r = robincheck.check_n(5040)
after_check = sorted(t.edges)
r.lhs
print(json.dumps({"missing": t.missing, "edges": sorted(t.edges),
                  "edges_check": after_check,
                  "edges_5041": sorted(after_5041.items())}))
"""


def test_traced_check_records_its_layers():
    # installing the tracer rewrites module globals, so it runs apart;
    # 5041 is settled by the bit-length floor, and 5040 reaches decide(),
    # where the enclosure of sigma(n)/n decides; the exact sigma(n)/n is
    # built where the result's lhs is read
    env = dict(os.environ,
               PYTHONPATH=os.path.abspath(os.path.join(_ROOT, "src")))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACE_CHECK_5041_5040, _TRACER],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    doc = json.loads(proc.stdout)
    assert doc["missing"] == []
    edges = {tuple(e) for e in doc["edges"]}
    for child in ("robin.log_n", "robin.rhs_from_log", "intervals.compare"):
        assert ("robin.check", child) in edges, child
    assert ("root", "factorization.lhs") in edges
    assert "factorization.lhs" not in {e[1] for e in doc["edges_check"]}
    # the RHS kernel's one ln call and a cold ln p both run the ln kernel
    assert ("robin.rhs_from_log", "intervals.ln_fp") in edges
    assert ("robin.ln_prime", "intervals.ln_fp") in edges
    # 5041's check ran no ln p series
    calls_5041 = {tuple(edge): n for edge, n in doc["edges_5041"]}
    assert calls_5041.get(("robin.check", "robin.log_n"), 0) == 0


_TRACE_SEARCH = """
import json, runpy, sys
from fractions import Fraction
t = runpy.run_path(sys.argv[1])["Tracer"]()
t.install()
import robincheck
robincheck.explorer.conjecture32_search(4, 3, Fraction(15))
print(json.dumps({"missing": t.missing, "calls": t.calls}))
"""


def test_traced_search_enumerates_its_bases_once():
    # the search's walk runs inside explorer._enumerate_bases, the call
    # the explorer.enumerate_bases layer wraps
    env = dict(os.environ,
               PYTHONPATH=os.path.abspath(os.path.join(_ROOT, "src")))
    proc = subprocess.run(
        [sys.executable, "-c", _TRACE_SEARCH, _TRACER],
        capture_output=True, text=True, env=env, timeout=120, check=True)
    doc = json.loads(proc.stdout)
    assert doc["missing"] == []
    assert doc["calls"]["explorer.enumerate_bases"] == 1
