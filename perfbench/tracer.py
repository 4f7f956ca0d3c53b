"""In-memory span tracer around symslice's public functions.

`Tracer.install()` replaces each function named in `TRACED` with a
wrapper in every loaded `symslice` namespace that holds it (a function
imported into several modules gets the same wrapper everywhere), and
`RatMatrix.__mul__` on the class.  Each call records one span
`(name, start, end, parent, op, outcome)` in a list; nothing is written
until the caller asks.  `Tracer.uninstall()` puts every original object
back and `assert_untraced()` proves that no wrapper is left.

Per-layer metrics come from the spans: call counts, self time (a span's
duration minus the part its child spans cover), outcome counters, and
for the elimination primitives the largest input system and the bit
height of its largest entry.
"""

from __future__ import annotations

import json
import sys
import time
from collections import defaultdict

# Layer -> public functions wrapped by the tracer.
TRACED = {
    "exact": (
        "kernel_basis",
        "solve",
        "rank",
        "inverse",
        "charpoly",
        "pfaffian",
        "spans_equal",
        "RatMatrix.__mul__",
    ),
    "pairs": ("make_pair", "in_eigenspace", "bracket"),
    "nilpotent": ("make_witness", "centralizer", "is_relatively_regular"),
    "sl2": ("complete_triple", "verify_triple"),
    "slice": ("make_slice", "invariants", "invert_on_slice"),
    "matspace": ("random_group_element", "act", "act_mpq"),
    "cli": ("main", "make_certificate"),
}

# Elimination primitives whose input size is recorded.
SIZED = ("exact.kernel_basis", "exact.solve", "exact.rank", "exact.inverse")

# Outcome counters: (span name, recorded outcome) -> metric name.
OUTCOMES = {
    ("nilpotent.is_relatively_regular", "false"): "nilpotent.is_relatively_regular.false",
    ("slice.invert_on_slice", "NotFound"): "slice.invert_on_slice.not_found",
}

_MARK = "_perfbench_span"


def span_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in TRACED.items() for fn in fns]


def _symslice_modules():
    return [
        m
        for key, m in sorted(sys.modules.items())
        if m is not None and (key == "symslice" or key.startswith("symslice."))
    ]


def entry_bits(rows) -> int:
    """Bit length of the largest numerator or denominator among the entries."""
    top = 0
    for row in rows:
        for x in row:
            h = max(abs(x.numerator), x.denominator)
            if h > top:
                top = h
    return top.bit_length()


def self_times(spans) -> list[float]:
    """Self time of each span: its duration minus the union of its
    children's intervals, clipped to the span."""
    children = defaultdict(list)
    for idx, s in enumerate(spans):
        if s[3] >= 0:
            children[s[3]].append(idx)
    out = []
    for idx, (_, start, end, *_rest) in enumerate(spans):
        covered = 0.0
        lo = start
        for c in sorted(children.get(idx, ()), key=lambda i: spans[i][1]):
            c_start = max(spans[c][1], lo)
            c_end = min(spans[c][2], end)
            if c_end > c_start:
                covered += c_end - c_start
                lo = c_end
        out.append((end - start) - covered)
    return out


class Tracer:
    """Records spans of the wrapped functions while installed."""

    def __init__(self):
        self.spans: list = []
        self.op = None
        self._stack: list[int] = []
        self._sized: list = []
        self._patches: list = []

    # -- installation ------------------------------------------------------

    def install(self):
        if self._patches:
            raise RuntimeError("tracer already installed")
        import symslice.exact

        modules = _symslice_modules()
        originals = {}
        for layer, fns in TRACED.items():
            mod = sys.modules[f"symslice.{layer}"]
            for fn in fns:
                if fn == "RatMatrix.__mul__":
                    continue
                originals[id(getattr(mod, fn))] = (f"{layer}.{fn}", getattr(mod, fn))
        wrappers = {key: self._wrap(name, fn) for key, (name, fn) in originals.items()}
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                w = wrappers.get(id(value))
                if w is not None:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, w)
        cls = symslice.exact.RatMatrix
        orig_mul = cls.__dict__["__mul__"]
        self._patches.append((cls, "__mul__", orig_mul))
        cls.__mul__ = self._wrap("exact.RatMatrix.__mul__", orig_mul)

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)
        assert_untraced()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    def _wrap(self, name, fn):
        spans = self.spans
        stack = self._stack
        sized = self._sized if name in SIZED else None
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            outcome = "ok"
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if result is False:
                    outcome = "false"
                return result
            except BaseException as exc:
                outcome = type(exc).__name__
                raise
            finally:
                end = clock()
                stack.pop()
                spans[idx] = (name, start, end, parent, self.op, outcome)
                if sized is not None:
                    sized.append((name, args))

        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__qualname__ = getattr(fn, "__qualname__", name)
        wrapper.__doc__ = fn.__doc__
        wrapper.__wrapped__ = fn
        setattr(wrapper, _MARK, name)
        return wrapper

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        """calls, self_s, outcome counters and input sizes per wrapped function."""
        out = {}
        for name in span_names():
            out[f"{name}.calls"] = 0
            out[f"{name}.self_s"] = 0.0
        for (name, _), metric in OUTCOMES.items():
            out[metric] = 0
        for name in SIZED:
            for key in ("max_rows", "max_cols", "max_bits"):
                out[f"{name}.{key}"] = 0
        for s, self_t in zip(self.spans, self_times(self.spans)):
            name, outcome = s[0], s[5]
            out[f"{name}.calls"] += 1
            out[f"{name}.self_s"] += self_t
            metric = OUTCOMES.get((name, outcome))
            if metric is not None:
                out[metric] += 1
        for name, args in self._sized:
            m = args[0]
            rows = [m.row(i) for i in range(m.rows)]
            if name == "exact.solve":
                rows.append(args[1])
            out[f"{name}.max_rows"] = max(out[f"{name}.max_rows"], m.rows)
            out[f"{name}.max_cols"] = max(out[f"{name}.max_cols"], m.cols)
            out[f"{name}.max_bits"] = max(out[f"{name}.max_bits"], entry_bits(rows))
        return out

    def inclusive_s(self, name: str) -> float:
        """Summed duration of the spans called `name` inside ops (none of
        the traced functions calls itself, so no two of them nest)."""
        return sum(s[2] - s[1] for s in self.spans if s[0] == name and isinstance(s[4], int))

    def write_spans(self, path):
        """One JSON object per span, times relative to the first span."""
        t0 = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as fh:
            for idx, (name, start, end, parent, op, outcome) in enumerate(self.spans):
                fh.write(
                    json.dumps(
                        {
                            "id": idx,
                            "name": name,
                            "start": start - t0,
                            "end": end - t0,
                            "parent": parent,
                            "op": op,
                            "outcome": outcome,
                        }
                    )
                    + "\n"
                )


def assert_untraced():
    """Raise if any symslice namespace still holds a tracing wrapper."""
    for mod in _symslice_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, _MARK):
                raise RuntimeError(f"{mod.__name__}.{attr} is still wrapped")
    exact = sys.modules.get("symslice.exact")
    if exact is not None and hasattr(exact.RatMatrix.__dict__["__mul__"], _MARK):
        raise RuntimeError("RatMatrix.__mul__ is still wrapped")
