"""In-memory spans around the library's public functions.

``install`` wraps each function named in ``WRAPPED`` and rebinds the wrapper
at *every* place the original is bound: the package modules import each
other with ``from .exact_poly import discriminant``, so patching only the
defining module would miss every call made through such a binding.

A span is ``[id, name, start, end, parent, input, error, hit]``: times from
``time.perf_counter``, ``parent`` is the id of the enclosing span (-1 at top
level), ``input`` is the benchmark input being processed, ``error`` the
exception type name or None, and ``hit`` is set for ``certify_galois`` spans
whose ``(f, prime_bound)`` this process has certified before.  Spans stay in
memory until the caller writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

# (module, function): the layers' public entry points the benchmark measures
WRAPPED = (
    ("exact_poly", "parse_poly"),
    ("exact_poly", "discriminant"),
    ("exact_poly", "resultant"),
    ("exact_poly", "integer_model"),
    ("exact_poly", "factor_int"),
    ("exact_poly", "int_squarefree_part"),
    ("modp_factor", "reduce_mod_p"),
    ("modp_factor", "degree_pattern"),
    ("galois_cert", "certify_galois"),
    ("galois_cert", "sample_cycle_types"),
    ("morse_scan", "scan_A_h"),
    ("morse_scan", "is_morse"),
    ("rank_engine", "rank_verdict"),
    ("rank_engine", "rank_table"),
    ("jacobian_invariants", "decomposition_table"),
    ("jacobian_invariants", "c2"),
    ("cli", "main"),
)

ID, NAME, START, END, PARENT, INPUT, ERROR, HIT = range(8)

# a traced CLI child appends its spans to stderr after this marker
SPAN_MARKER = "@@bench-spans@@ "


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.input_id = -1
        self._stack: list[int] = []
        self._certified: set = set()

    def wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        is_certify = name == "galois_cert.certify_galois"
        clock = time.perf_counter
        from berger_rank.galois_cert import DEFAULT_PRIME_BOUND as default_bound

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            hit = None
            if is_certify:
                bound = args[1] if len(args) > 1 else kwargs.get("prime_bound", default_bound)
                key = (args[0], bound)
                hit = key in self._certified
                self._certified.add(key)
            span = [len(spans), name, 0.0, 0.0, stack[-1] if stack else -1, self.input_id, None, hit]
            spans.append(span)
            stack.append(span[ID])
            span[START] = clock()
            try:
                return fn(*args, **kwargs)
            except BaseException as exc:
                span[ERROR] = type(exc).__name__
                raise
            finally:
                span[END] = clock()
                stack.pop()

        return wrapper


def _package_modules():
    return [
        mod
        for name, mod in list(sys.modules.items())
        if mod is not None and (name == "berger_rank" or name.startswith("berger_rank."))
    ]


def install(tracer: Tracer):
    """Wrap every function in WRAPPED wherever it is bound; return an undo."""
    import berger_rank.cli  # noqa: F401  (loads every module that binds a name)

    wrappers = {}  # id(original) -> (original, wrapper)
    for module_name, func_name in WRAPPED:
        fn = getattr(sys.modules[f"berger_rank.{module_name}"], func_name)
        wrappers[id(fn)] = (fn, tracer.wrap(f"{module_name}.{func_name}", fn))
    patched = []
    for mod in _package_modules():
        for attr, value in list(vars(mod).items()):
            fn, wrapper = wrappers.get(id(value), (None, None))
            if fn is value:
                setattr(mod, attr, wrapper)
                patched.append((mod, attr, value))

    def undo():
        for mod, attr, value in patched:
            setattr(mod, attr, value)

    return undo


def self_times(spans: list[list]) -> list[float]:
    """Per span: its duration minus the time its direct children cover.

    Spans come from one thread with stack discipline, so children of a span
    are disjoint and nested inside it; their durations add up to the time
    they cover.
    """
    own = [s[END] - s[START] for s in spans]
    index = {s[ID]: i for i, s in enumerate(spans)}
    for s in spans:
        if s[PARENT] >= 0:
            own[index[s[PARENT]]] -= s[END] - s[START]
    return own


def aggregate(spans: list[list]) -> dict[str, dict]:
    """{name: {"calls", "self_s", "total_s", "errors"}} over all spans."""
    out: dict[str, dict] = defaultdict(
        lambda: {"calls": 0, "self_s": 0.0, "total_s": 0.0, "errors": 0}
    )
    for s, own in zip(spans, self_times(spans)):
        row = out[s[NAME]]
        row["calls"] += 1
        row["self_s"] += own
        row["total_s"] += s[END] - s[START]
        row["errors"] += s[ERROR] is not None
    return dict(out)


def top_level_seconds(spans: list[list]) -> float:
    return sum(s[END] - s[START] for s in spans if s[PARENT] < 0)


def has_ancestor(index: dict[int, list], span: list, names: tuple[str, ...]) -> bool:
    """Whether a span named in ``names`` encloses ``span``; index maps id -> span."""
    parent = span[PARENT]
    while parent >= 0:
        up = index[parent]
        if up[NAME] in names:
            return True
        parent = up[PARENT]
    return False
