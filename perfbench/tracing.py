"""Span tracing and scalar counting around the public functions of crjets.

Both instruments replace a function at every place it is bound by name: the
class attribute or module global that defines it, every alias of it inside
its class (``__rmul__ = __mul__``), and every module global that imported it
(``from .mapjets import verify_mapping`` in ``crjets.cli``, and the
benchmark's own ``from crjets... import``).  ``uninstall`` puts every
original back.

They only record while ``active`` is set, so that the benchmark's own input
generation and oracle checks stay out of the per-layer numbers.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

MARK = "_perfbench_wrapped"

# span name -> (module, attribute path) of each traced public function
TRACED = {
    "series.compose": ("crjets.series", "TruncatedSeries.compose"),
    "series.mul": ("crjets.series", "TruncatedSeries.__mul__"),
    "series.inverse": ("crjets.series", "TruncatedSeries.inverse"),
    "series.divide": ("crjets.series", "TruncatedSeries.divide"),
    "series.kth_root": ("crjets.series", "kth_root"),
    "series.implicit_solve": ("crjets.series", "implicit_solve"),
    "series.solve_composition": ("crjets.series", "solve_composition"),
    "hypersurface.validate": ("crjets.hypersurface", "NormalFormSurface.validate"),
    "hypersurface.compute_invariants": (
        "crjets.hypersurface",
        "NormalFormSurface.compute_invariants",
    ),
    "hypersurface.from_real_graph": ("crjets.hypersurface", "from_real_graph"),
    "mapjets.verify_mapping": ("crjets.mapjets", "verify_mapping"),
    "mapjets.segre_jet_reconstruct": ("crjets.mapjets", "segre_jet_reconstruct"),
    "mapjets.determination_experiment": ("crjets.mapjets", "determination_experiment"),
    "mapjets.invariance_check": ("crjets.mapjets", "invariance_check"),
    "mapjets.MapGerm.inverse": ("crjets.mapjets", "MapGerm.inverse"),
    "odejets.formal_coefficients": ("crjets.odejets", "formal_coefficients"),
    "odejets.determination_order": ("crjets.odejets", "determination_order"),
    "odejets.kernel_chain_diagnostic": ("crjets.odejets", "kernel_chain_diagnostic"),
    "dsl.parse_document": ("crjets.dsl", "parse_document"),
    "cli.main": ("crjets.cli", "main"),
}
LINALG_FUNCTIONS = (
    "rref",
    "rank",
    "kernel_basis",
    "image_basis",
    "solve",
    "mat_mul",
    "mat_vec",
    "mat_sub",
    "identity",
    "det",
    "invert",
    "span_intersection",
    "span_dim",
)
for _fn in LINALG_FUNCTIONS:
    TRACED[f"linalg.{_fn}"] = ("crjets.linalg", _fn)

# spans whose direct series.compose children are fixed-point iterations
ITERATING = ("series.implicit_solve", "mapjets.MapGerm.inverse", "series.solve_composition")
TERM_COUNTED = ("series.mul", "series.compose")
RATIONAL_OPS = (
    "__add__",
    "__radd__",
    "__neg__",
    "__sub__",
    "__rsub__",
    "__mul__",
    "__rmul__",
    "__truediv__",
    "__rtruediv__",
    "__pow__",
)


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *outer, attr = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return vars(owner)[attr]


def _owners(modules):
    """Each module and the classes it defines: every place a name is bound."""
    for module in modules:
        yield module
        yield from (
            v for v in vars(module).values()
            if isinstance(v, type) and v.__module__ == module.__name__
        )


class _Patcher:
    """Replaces functions at every binding site and restores them."""

    def __init__(self):
        self.installed: list[tuple] = []

    def patch(self, replacements: dict, modules):
        """``replacements`` maps id(original) -> (original, wrapper)."""
        for owner in list(_owners(modules)):
            for key, value in list(vars(owner).items()):
                hit = replacements.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(owner, key, hit[1])
                    self.installed.append((owner, key, value))

    def restore(self):
        while self.installed:
            owner, key, value = self.installed.pop()
            setattr(owner, key, value)


def _crjets_modules(extra):
    mods = [m for name, m in sorted(sys.modules.items()) if name.startswith("crjets") and m]
    return mods + [m for m in extra if m not in mods]


def wrapped_bindings(extra=()):
    """(owner, name) of every binding that still holds a wrapper."""
    return [
        (owner.__name__, key)
        for owner in _owners(_crjets_modules(extra))
        for key, value in vars(owner).items()
        if getattr(value, MARK, False)
    ]


class Tracer:
    """Records one span per traced call: (id, parent id, name, start, end).

    Self time is accumulated as each span ends: its duration minus the
    durations of its direct children.
    """

    def __init__(self):
        self.active = False
        self.spans: list[tuple] = []
        self.self_s: dict = defaultdict(float)
        self.calls: Counter = Counter()
        self.compose_children: Counter = Counter()
        self.terms_out = 0
        self.bytes_in = 0
        self.report_bytes = 0
        self._stack: list[list] = []
        self._next_id = 0
        self._patcher = _Patcher()

    def _wrap(self, name: str, fn):
        stack = self._stack
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            sid = tracer._next_id
            tracer._next_id += 1
            frame = [sid, 0.0, name]
            parent = stack[-1] if stack else None
            stream = sys.stdout if name == "cli.main" else None
            mark = stream.tell() if stream is not None and hasattr(stream, "getvalue") else None
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                tracer.spans.append((sid, parent[0] if parent else None, name, start, end))
                tracer.self_s[name] += duration - frame[1]
                tracer.calls[name] += 1
                if parent is not None:
                    parent[1] += duration
                    if name == "series.compose":
                        tracer.compose_children[parent[2]] += 1
            if name in TERM_COUNTED:
                tracer.terms_out += len(result.coefficients)
            elif name == "dsl.parse_document":
                tracer.bytes_in += len(args[0].encode("utf-8"))
            elif mark is not None:
                tracer.report_bytes += len(stream.getvalue()[mark:].encode("utf-8"))
            return result

        setattr(wrapper, MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, extra_modules=()):
        replacements = {}
        for name, (module, path) in TRACED.items():
            fn = _resolve(module, path)
            replacements[id(fn)] = (fn, self._wrap(name, fn))
        self._patcher.patch(replacements, _crjets_modules(extra_modules))

    def uninstall(self):
        self._patcher.restore()

    def metrics(self) -> dict:
        """Per-layer numbers: calls, self seconds, fixed-point iterations."""
        out = {}
        for name in sorted(TRACED):
            if name.startswith("linalg."):
                continue
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
        for name in ITERATING:
            out[f"{name}.compose_calls"] = self.compose_children[name]
        linalg = [n for n in TRACED if n.startswith("linalg.")]
        out["linalg.calls"] = sum(self.calls[n] for n in linalg)
        out["linalg.self_s"] = sum(self.self_s[n] for n in linalg)
        out["series.terms_out"] = self.terms_out
        out["dsl.bytes_in"] = self.bytes_in
        out["cli.report_bytes"] = self.report_bytes
        return out


def _bits(c) -> int:
    re, im = c.re, c.im
    return max(
        re.numerator.bit_length(),
        re.denominator.bit_length(),
        im.numerator.bit_length(),
        im.denominator.bit_length(),
    )


class ScalarCounter:
    """Counts ComplexRational arithmetic calls and the largest coefficient
    height, in bits, among the results of the traced series functions.

    Kept apart from :class:`Tracer` because these calls run millions of
    times and their counting cost would inflate the series self times.
    """

    def __init__(self):
        self.active = False
        self.calls = 0
        self.bits_max = 0
        self._patcher = _Patcher()

    def _count(self, fn):
        counter = self

        def wrapper(*args):
            if counter.active:
                counter.calls += 1
            return fn(*args)

        setattr(wrapper, MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    def _measure(self, fn):
        counter = self

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            if counter.active:
                active, counter.active = counter.active, False
                try:
                    for c in result.coefficients.values():
                        if hasattr(c, "re"):
                            b = _bits(c)
                            if b > counter.bits_max:
                                counter.bits_max = b
                finally:
                    counter.active = active
            return result

        setattr(wrapper, MARK, True)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, extra_modules=()):
        from crjets.rational import ComplexRational

        replacements = {}
        for op in RATIONAL_OPS:
            fn = ComplexRational.__dict__[op]
            replacements.setdefault(id(fn), (fn, self._count(fn)))
        for name, (module, path) in TRACED.items():
            if name.startswith("series."):
                fn = _resolve(module, path)
                replacements[id(fn)] = (fn, self._measure(fn))
        self._patcher.patch(replacements, _crjets_modules(extra_modules))

    def uninstall(self):
        self._patcher.restore()

    def metrics(self) -> dict:
        return {"rational.calls": self.calls, "rational.coeff_bits_max": self.bits_max}
