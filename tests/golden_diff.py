"""Replay every CLI golden case and report which printed fields moved.

usage: PYTHONPATH=src python tests/golden_diff.py OLD_GOLDEN_DIR [--record]

Each case of OLD_GOLDEN_DIR/manifest.json is run through ``cli.main`` of
the package on the path.  Its exit code must equal the manifest's, and a
pinned stderr must be byte-identical.  Stdout is compared with the old
file: CSV cell by cell under its column name, JSON leaf by leaf under its
key path (list indices written ``[]``), any other format as whole bytes.
Only the enclosure columns that round on the ``precision_bits`` grid, and
what is derived from them, may differ (``ROUNDED``).  The report names
every file and column that moved and the number of cells.  With
``--record`` the new stdout is written over the golden file in this
repository's tests/data/cli_golden, and only when no other byte moved.
Exit status 0 means every other byte, verdict, precision and exit code
is unchanged.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import os
import sys
from collections import Counter

from robincheck import cli

ROUNDED = {
    "rhs_lo", "rhs_hi", "rhs.lo", "rhs.hi",
    "alpha_lo", "alpha_hi", "alpha.lo", "alpha.hi",
    "ratio_lo", "ratio_hi", "ratio.lo", "ratio.hi",
    "threshold_lo", "threshold_hi", "threshold.lo", "threshold.hi",
    "margin_lower_bound",
}

_GOLDEN_DIR = os.path.join(os.path.dirname(__file__), "data", "cli_golden")


def _leaves(doc, path=""):
    """(key path, leaf value) pairs of a JSON document, in order."""
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _leaves(value, f"{path}.{key}" if path else key)
    elif isinstance(doc, list):
        for value in doc:
            yield from _leaves(value, f"{path}[]")
    else:
        yield path, doc


def _json_shape(doc):
    """The document with every leaf blanked: keys, lengths and nesting."""
    if isinstance(doc, dict):
        return {k: _json_shape(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_json_shape(v) for v in doc]
    return None


def changed_fields(name: str, old: str, new: str) -> Counter:
    """Field name -> cells that differ; '<bytes>' when only bytes compare."""
    moved: Counter = Counter()
    if old == new:
        return moved
    if name.endswith(".csv"):
        old_rows = list(csv.reader(io.StringIO(old)))
        new_rows = list(csv.reader(io.StringIO(new)))
        if (len(old_rows) != len(new_rows) or not old_rows
                or old_rows[0] != new_rows[0]):
            moved["<shape>"] += 1
            return moved
        header = old_rows[0]
        for a, b in zip(old_rows[1:], new_rows[1:]):
            if len(a) != len(b):
                moved["<shape>"] += 1
                continue
            for col, x, y in zip(header, a, b):
                moved[col] += x != y
    elif name.endswith(".json"):
        old_doc, new_doc = json.loads(old), json.loads(new)
        if _json_shape(old_doc) != _json_shape(new_doc):
            moved["<shape>"] += 1
            return moved
        for (path, x), (_, y) in zip(_leaves(old_doc), _leaves(new_doc)):
            moved[path] += x != y
        # the documents agree leaf by leaf: the layout differs
        if not +moved:
            moved["<layout>"] += 1
    else:
        moved["<bytes>"] += 1
    return +moved


def run_case(argv: list[str]) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def main(old_dir: str, record: bool) -> int:
    with open(os.path.join(old_dir, "manifest.json")) as fh:
        cases = json.load(fh)
    ok = True
    outputs = []
    print(f"{len(cases)} cases in {old_dir}/manifest.json")
    for case in cases:
        code, out, err = run_case(case["argv"])
        files = [(case["stdout"], out)]
        if "stderr" in case:
            files.append((case["stderr"], err))
        if code != case["exit"]:
            ok = False
            print(f"{case['stdout']}: exit {code}, was {case['exit']}")
        for name, new in files:
            with open(os.path.join(old_dir, name), newline="") as fh:
                old = fh.read()
            moved = changed_fields(name, old, new)
            if not moved:
                print(f"  unchanged  {name}")
                continue
            # a JSON row field is checked by its name inside the row
            bad = [c for c in moved if c.rsplit("[].", 1)[-1] not in ROUNDED]
            ok = ok and not bad
            cols = ", ".join(f"{c} ({n})" for c, n in sorted(moved.items()))
            label = "NOT ALLOWED" if bad else "rounded"
            print(f"  {label:10s} {name}: {cols}")
            outputs.append((name, new))
    print("verdicts, precision_bits, exit codes, stderr and every other byte "
          + ("unchanged" if ok else "CHANGED"))
    if record and ok:
        for name, new in outputs:
            with open(os.path.join(_GOLDEN_DIR, name), "w", newline="") as fh:
                fh.write(new)
        print(f"re-recorded {len(outputs)} files in {_GOLDEN_DIR}")
    return 0 if ok else 1


if __name__ == "__main__":
    args = [a for a in sys.argv[1:] if a != "--record"]
    if len(args) != 1:
        sys.exit(__doc__)
    sys.exit(main(args[0], "--record" in sys.argv[1:]))
