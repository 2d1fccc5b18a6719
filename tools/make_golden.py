"""Write the golden outputs under tests/golden again, after a deliberate
change of output: python tools/make_golden.py (with ceilprop importable).

The files are written in place, one command at a time, so each forward
command reads the fit.json and gamma.csv just written; see
tests/test_golden.py for what each file holds and how it is compared.
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))

from test_golden import GOLDEN, produce  # noqa: E402

if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    (GOLDEN / "fit.json").unlink(missing_ok=True)  # the fits update a parameter file, so start from none
    produce(GOLDEN, GOLDEN)
    print(f"wrote {', '.join(sorted(path.name for path in GOLDEN.iterdir()))} to {GOLDEN}")
