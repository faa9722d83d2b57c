#!/usr/bin/env python3
"""Run every subcommand over the corpus in process and print one digest.

The grid: `analyze` on each surface; `verify`, `dynamics`, `segre` K 0..4
and `determine` K 1..3 on each surface with each map (and each second map);
`ode` in its three modes on each equation; all of it with `--order` unset,
2, 4 and 8.  Each call's argv, stdout, stderr and exit code go into one
sha256, paths taken relative to the checkout, so two checkouts whose
reports agree byte for byte print the same line:

    python scripts/corpus_sweep.py                 # this checkout
    python scripts/corpus_sweep.py --root OTHER    # another checkout's src/ and corpus/

CI compares the line with ``scripts/sweep_digests.txt``; a change that
alters output on purpose updates that manifest and names the calls it
changed.
"""

import argparse
import contextlib
import hashlib
import io
import pathlib
import sys


def grid(corpus: pathlib.Path, orders):
    surfaces, maps, odes = (
        sorted(map(str, corpus.glob(f"*.{kind}"))) for kind in ("surf", "map", "ode")
    )
    for order in orders:
        opt = [] if order is None else ["--order", str(order)]
        for s in surfaces:
            yield ["analyze", s, *opt]
            for m in maps:
                yield ["verify", s, s, m, *opt]
                yield ["dynamics", s, m, *opt]
                for k in range(5):
                    yield ["segre", s, s, m, str(k), *opt]
                for m2 in maps:
                    for k in (1, 2, 3):
                        yield ["determine", s, m, m2, str(k), *opt]
        for f in odes:
            for mode in ("solve", "determine", "chain"):
                yield ["ode", f, mode, *opt]


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=str(pathlib.Path(__file__).resolve().parents[1]))
    args = parser.parse_args(argv)
    root = pathlib.Path(args.root).resolve()
    sys.path.insert(0, str(root / "src"))
    from crjets import cli

    prefix = str(root) + "/"
    digest, calls = hashlib.sha256(), 0
    for call in grid(root / "corpus", (None, 2, 4, 8)):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(call)
        record = ([a.replace(prefix, "") for a in call], out.getvalue(), err.getvalue(), code)
        digest.update(repr(record).replace(prefix, "").encode())
        calls += 1
    print(f"{calls} calls sha256 {digest.hexdigest()}")


if __name__ == "__main__":
    main()
