"""Layer spans recorded from outside the program.

The tracer wraps every public callable of every module of a package: module
functions, public methods (and explicit ``__init__``) of public classes, and
names a module bound from elsewhere with ``from ... import``.  A layer is the
module that defines the callable; a callable bound from outside the package
(``solver.linprog``) forms the layer ``<module>.external``.

A span opens only where a call crosses from one layer into another.  Calls
inside the same layer fold into the open span, so a span's self time is the
time its layer was busy after being entered through that callable, minus the
spans it opened in other layers.  Every call is counted, folded or not.

Because wrapping goes by module and not by a list of functions, a rewritten
function keeps its time attributed to its module.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import pkgutil
import time
import types
from collections import Counter, defaultdict
from contextlib import contextmanager

ROOT = "<root>"
HARNESS = "harness"


@dataclasses.dataclass
class ModelSize:
    vars: int
    rows: int
    binaries: int
    nnz: int


def model_size(lp) -> ModelSize:
    """Size of a built model through the LinearProgram public attributes."""
    return ModelSize(
        lp.n_vars,
        lp.n_constraints,
        len(lp.binary_ids()),
        sum(len(con.coeffs) for con in lp.constraints),
    )


def package_modules(package) -> list:
    """The package and every module directly inside it."""
    mods = [package]
    for info in pkgutil.iter_modules(package.__path__):
        mods.append(importlib.import_module(f"{package.__name__}.{info.name}"))
    return mods


class Tracer:
    """Spans and counts at the layer boundaries of one package.

    Use as a context manager: entering installs the wrappers, leaving
    removes them.  ``harness()`` marks the benchmark's own work; wall time
    that falls in no span is reported as ``unaccounted_s``.
    """

    def __init__(self, package):
        self.package = package
        self.self_s: defaultdict = defaultdict(float)  # (layer, label) -> s
        self.entries: Counter = Counter()  # (layer, label) -> spans opened
        self.calls: Counter = Counter()  # (layer, label) -> every call
        self.rows: Counter = Counter()  # (layer, label) -> rows returned
        self.model_labels: set = set()  # (layer, label) entries that built models
        self.models: list[ModelSize] = []
        self.solves: list[tuple[str, int]] = []  # (status, nodes)
        self.bookkeeping_s = 0.0
        self.unaccounted_s = 0.0
        self._stack: list = []
        self._patches: list = []

    # -- installation -------------------------------------------------------

    def __enter__(self):
        self._stack[:] = [[ROOT, 0.0, time.perf_counter()]]
        modules = package_modules(self.package)
        own = {m.__name__ for m in modules}
        wrapped: dict = {}
        done_classes: set = set()
        for mod in modules:
            short = self._short(mod.__name__)
            for name, val in list(vars(mod).items()):
                if name.startswith("_"):
                    continue
                if isinstance(val, type):
                    if val.__module__ in own and val not in done_classes:
                        done_classes.add(val)
                        self._wrap_class(val, self._short(val.__module__))
                    continue
                if not isinstance(val, (types.FunctionType, types.BuiltinFunctionType)):
                    continue
                if getattr(val, "__module__", None) in own:
                    layer, label = self._short(val.__module__), val.__qualname__
                else:
                    layer, label = f"{short}.external", name
                key = (id(val), layer)
                if key not in wrapped:
                    wrapped[key] = self._wrap(val, layer, label)
                self._patch(mod, name, wrapped[key])
        return self

    def __exit__(self, *exc):
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        root = self._stack[0]
        self.unaccounted_s += time.perf_counter() - root[2] - root[1]
        return False

    def _short(self, module_name: str) -> str:
        prefix = self.package.__name__ + "."
        return module_name[len(prefix):] if module_name.startswith(prefix) else module_name

    def _patch(self, owner, name, value):
        self._patches.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def _wrap_class(self, cls, layer):
        generated_init = dataclasses.is_dataclass(cls)
        for name, val in list(cls.__dict__.items()):
            if not isinstance(val, types.FunctionType):
                continue
            if name.startswith("_") and not (name == "__init__" and not generated_init):
                continue
            self._patch(cls, name, self._wrap(val, layer, val.__qualname__))

    def _wrap(self, fn, layer, label):
        key = (layer, label)
        stack = self._stack
        clock = time.perf_counter
        self_s, entries, calls = self.self_s, self.entries, self.calls
        observe = self._observe

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            calls[key] += 1
            if stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                self_s[key] += dur - frame[1]
                entries[key] += 1
                stack[-1][1] += dur
            observe(key, result)
            return result

        return traced

    def _observe(self, key, result):
        """Record what a span produced: models, solves and row lists."""
        t0 = time.perf_counter()
        lp = getattr(result, "lp", None)
        if lp is not None and hasattr(lp, "constraints"):
            self.model_labels.add(key)
            self.models.append(model_size(lp))
        elif hasattr(result, "status") and hasattr(result, "nodes"):
            self.solves.append((str(result.status), int(result.nodes)))
        elif isinstance(result, list):
            self.rows[key] += len(result)
        book = time.perf_counter() - t0
        self.bookkeeping_s += book
        self._stack[-1][1] += book

    # -- harness spans ------------------------------------------------------

    @contextmanager
    def harness(self):
        """Time the benchmark's own work as the layer ``harness``."""
        frame = [HARNESS, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            yield
        finally:
            dur = time.perf_counter() - start
            self._stack.pop()
            self.self_s[(HARNESS, HARNESS)] += dur - frame[1]
            self._stack[-1][1] += dur

    # -- queries ------------------------------------------------------------

    def layer_self_s(self, layer: str, match=lambda label: True) -> float:
        return sum(v for (l, lab), v in self.self_s.items() if l == layer and match(lab))

    def call_count(self, layer: str, match=lambda label: True) -> int:
        return sum(v for (l, lab), v in self.calls.items() if l == layer and match(lab))

    def row_count(self, layer: str) -> int:
        return sum(v for (l, _), v in self.rows.items() if l == layer)

    def total_self_s(self) -> float:
        return sum(self.self_s.values())


def ends_with(*names):
    """Label matcher for callables whose last dotted name is in ``names``."""
    return lambda label: label.rsplit(".", 1)[-1] in names


def contains(word):
    return lambda label: word in label
