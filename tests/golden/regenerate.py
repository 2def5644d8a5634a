"""Regenerate the golden outputs that ``tests/test_golden.py`` compares with.

Run from anywhere, with the project's dependencies installed:

    python tests/golden/regenerate.py

It recomputes every pinned output from the current source, prints each cell
that moved (old -> new) under the test's comparison rules, and rewrites
``tests/golden/outputs.json`` with the new value of those cells only: every
cell that did not move keeps its committed value, so on an unchanged source
the file comes out byte-identical. Regenerate only for a deliberate output
change, and list the moved cells with the change.
"""

import json
import sys
import tempfile
from pathlib import Path

TESTS = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(TESTS.parent / "src"), str(TESTS)]

from test_golden import GOLDEN, golden_outputs, merged, mismatches  # noqa: E402


def main() -> int:
    with tempfile.TemporaryDirectory() as workdir:
        outputs = json.loads(json.dumps(golden_outputs(Path(workdir))))
    if GOLDEN.exists():
        committed = json.loads(GOLDEN.read_text())
        moved = mismatches(committed, outputs)
        print("\n".join(moved) if moved else "no cell moved")
        outputs = merged(committed, outputs)
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(json.dumps(outputs, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
