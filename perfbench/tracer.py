"""In-memory span recorder around kronmc's public functions.

``Tracer.installed()`` replaces each target function with a recording
wrapper in every kronmc namespace that binds it (``kronmc.kron_submatrix``,
``kronmc.solvers.kron_submatrix``, ...), and each target property on its
class, then puts the originals back.  Outside that block kronmc runs
unwrapped, so untraced realizations pay nothing.

A span records its name, start, end, parent span, realization id and phase
("setup", "run" or "check"), plus sizes taken from the call's arguments or
result where a target asks for them.  Spans stay in memory and are written
as JSON lines at the end of a run.
"""

import functools
import importlib
import inspect
import json
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass

KRONMC_MODULES = ("kronmc", "kronmc.graphs", "kronmc.kernels", "kronmc.sampling",
                  "kronmc.solvers", "kronmc.analysis", "kronmc.bench", "kronmc.cli")


@dataclass(slots=True)
class Span:
    name: str
    start: float
    end: float
    parent: int | None
    realization: object
    phase: str
    sizes: dict | None = None

    @property
    def seconds(self):
        return self.end - self.start


@dataclass(frozen=True)
class Target:
    """A function or property to wrap: ``attr`` is ``name`` or ``Class.name``
    inside ``module``, and its spans are called ``name``;
    ``sizes(arguments, result)`` returns a dict of counts."""

    module: str
    attr: str
    sizes: object = None

    @property
    def name(self):
        return self.attr.rpartition(".")[2]


class Tracer:
    def __init__(self, targets):
        self.targets = targets
        self.spans = []
        self.realization = None
        self.phase = "setup"
        self._stack = []

    def _open(self, name):
        parent = self._stack[-1] if self._stack else None
        span = Span(name, 0.0, 0.0, parent, self.realization, self.phase)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span):
        span.end = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    def _wrap(self, target, fn):
        signature = inspect.signature(fn) if target.sizes else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = self._open(target.name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(span)
            if signature is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                span.sizes = target.sizes(bound.arguments, result)
            return result

        return traced

    @contextmanager
    def installed(self):
        """Wrap every target for the duration of the block."""
        modules = [importlib.import_module(m) for m in KRONMC_MODULES]
        patches = []
        try:
            for target in self.targets:
                owner = importlib.import_module(target.module)
                cls_name, _, prop = target.attr.rpartition(".")
                if cls_name:
                    cls = getattr(owner, cls_name)
                    original = vars(cls)[prop]
                    patches.append((cls, prop, original))
                    setattr(cls, prop, property(self._wrap(target, original.fget)))
                    continue
                original = getattr(owner, target.attr)
                wrapper = self._wrap(target, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            patches.append((module, key, original))
                            setattr(module, key, wrapper)
            yield self
        finally:
            for owner, key, original in reversed(patches):
                setattr(owner, key, original)

    def write_jsonl(self, path, header):
        with open(path, "w") as fh:
            fh.write(json.dumps(header) + "\n")
            for index, span in enumerate(self.spans):
                fh.write(json.dumps({"id": index, **asdict(span)}) + "\n")


def self_times(spans):
    """Each span's duration minus the durations of its direct children."""
    child = [0.0] * len(spans)
    for span in spans:
        if span.parent is not None:
            child[span.parent] += span.seconds
    return [span.seconds - c for span, c in zip(spans, child)]
