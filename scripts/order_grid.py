#!/usr/bin/env python3
"""Order grid: corpus commands whose failure goes away at a higher order.

Runs every command of ``scripts/equivalence_sweep.py``'s corpus grid in
process at ``--order`` 2, 4, 6, 8, 10 and unset (every corpus file stores
order 12 or more), and prints each command that exits 1 at one order and 0
at a higher one, with its exit code at each order.  A pass at order N
certifies only through N, so exit 0 below a later exit 1 is consistent, but
exit 1 below a later exit 0 means the higher-order pass is vacuous.  The
last line counts them:

    python scripts/order_grid.py
"""

import contextlib
import io
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(HERE / "src"), str(HERE / "scripts")]

from crjets import cli  # noqa: E402
from equivalence_sweep import PREFIX, grid  # noqa: E402

ORDERS = (2, 4, 6, 8, 10, None)


def exit_code(call):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(call)


def main():
    commands = list(grid(HERE / "corpus", [None]))
    flips = 0
    for call in commands:
        row = [exit_code(call + ([] if o is None else ["--order", str(o)])) for o in ORDERS]
        if any(code == 1 and 0 in row[i + 1 :] for i, code in enumerate(row)):
            flips += 1
            cells = " ".join(f"{o or 'stored'}={code}" for o, code in zip(ORDERS, row))
            print(f"{' '.join(call).replace(PREFIX, '')}: {cells}")
    print(f"{flips} of {len(commands)} commands exit 1 at one order and 0 at a higher one")


if __name__ == "__main__":
    main()
