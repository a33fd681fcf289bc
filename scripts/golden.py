#!/usr/bin/env python
"""Re-pin the golden store: rerun every golden run and rewrite the store.

Reruns each spec in ``tests/golden/runs.py``, prints every field or stream
that moved against ``tests/golden/store.json`` (the lines a behaviour
change's CHANGES.md entry quotes), and writes the store back in its one
canonical form.  A re-pin must say why: without ``--because`` nothing is
run or written and the exit code is 2.

Usage: PYTHONPATH=src python scripts/golden.py --because "<cause>"
"""

from __future__ import annotations

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))

from tests.golden.runs import SPECS, STORE_PATH, compare, dumps, entry, load_store, run  # noqa: E402


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--because", required=True, metavar="CAUSE",
        help="why the pinned values may move (printed with the diff)",
    )
    args = parser.parse_args(argv)

    old = load_store() if os.path.exists(STORE_PATH) else {}
    new, moved = {}, 0
    for spec in SPECS:
        outcome = run(spec)
        new[spec.id] = entry(outcome)
        problems = compare(outcome, old[spec.id]) if spec.id in old else ["added"]
        if problems:
            moved += 1
            print(f"{spec.id}: {', '.join(problems)}")
    for spec_id in sorted(set(old) - set(new)):
        moved += 1
        print(f"{spec_id}: removed")
    with open(STORE_PATH, "w", encoding="utf-8") as f:
        f.write(dumps(new))
    print(f"re-pinned {len(new)} runs, {moved} moved (run vs stored), because: {args.because}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
