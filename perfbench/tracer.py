"""Outside-in span tracer for linfeas.

``Tracer.install`` wraps every public function of the linfeas modules (plus
a few private CLI entry points the layer metrics need) and rebinds the
wrapper in every linfeas module that holds the function, including
module-level dispatch tables such as ``cli.ALGORITHMS``: ``cli``,
``generators``, ``reporting`` and ``theorems`` import names directly, so
patching only the defining module would miss their calls. Each call records
a span (name, start, end, parent, request id, attributes) in memory.

Batch workers are forked from the traced process and inherit the wrappers.
A worker drops the spans it inherited, links its root spans to the span
that was open in the parent at fork time, and appends each finished root
span tree to ``spans-<pid>.jsonl`` in the spill directory, which the parent
reads back with ``collect_children``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import time
from dataclasses import dataclass, field
from pathlib import Path

LAYERS = ("instance", "generators", "margins", "algorithms", "lp", "theorems", "reporting", "cli")

# private CLI functions that mark stage boundaries the layer metrics use
CLI_PRIVATE = ("_batch_worker", "_run_one", "_load", "_build_parser", "_emit", "_certify_meb", "_certify_radius")


@dataclass
class Span:
    span_id: tuple[int, int]  # (pid, counter)
    parent_id: tuple[int, int] | None
    name: str  # "<layer>.<function>"
    start: float
    end: float
    request: str
    attrs: dict = field(default_factory=dict)
    remote_parent: bool = False  # parent lives in another process

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start

    def to_json(self) -> dict:
        return {
            "span_id": list(self.span_id),
            "parent_id": None if self.parent_id is None else list(self.parent_id),
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "request": self.request,
            "attrs": self.attrs,
            "remote_parent": self.remote_parent,
        }

    @classmethod
    def from_json(cls, payload: dict) -> "Span":
        parent = payload["parent_id"]
        return cls(
            span_id=tuple(payload["span_id"]),
            parent_id=None if parent is None else tuple(parent),
            name=payload["name"],
            start=payload["start"],
            end=payload["end"],
            request=payload["request"],
            attrs=payload["attrs"],
            remote_parent=payload["remote_parent"],
        )


def _solver_attrs(args, kwargs, result) -> dict:
    instance = args[0] if args else kwargs["instance"]
    return {"d": instance.d, "n": instance.n, "steps": result[1].steps}


def _csv_attrs(args, kwargs, result) -> dict:
    return {"rows": int(args[0].ts.size)}


def _summary_attrs(args, kwargs, result) -> dict:
    return {"checks": len(result.checks)}


def _main_attrs(args, kwargs, result) -> dict:
    argv = args[0] if args else kwargs.get("argv")
    return {"command": argv[0] if argv else None}


ANNOTATE = {
    "algorithms.perceptron_classic": _solver_attrs,
    "algorithms.perceptron_normalized": _solver_attrs,
    "algorithms.vng": _solver_attrs,
    "algorithms.IterateTrace.write_csv": _csv_attrs,
    "reporting.build_run_summary": _summary_attrs,
    "cli.main": _main_attrs,
}

METHODS = (("algorithms", "IterateTrace", "write_csv"), ("reporting", "RunSummary", "save"))


class Tracer:
    def __init__(self, spill_dir: Path):
        self.spill_dir = Path(spill_dir)
        self.pid = os.getpid()
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._counter = 0
        self._fork_parent: tuple[int, int] | None = None
        self._fork_request: str | None = None
        self._restore: list[tuple[object, str, object]] = []

    # --- recording ----------------------------------------------------------

    def _adopt_fork(self) -> None:
        top = self._stack[-1] if self._stack else None
        self._fork_parent = None if top is None else top.span_id
        self._fork_request = None if top is None else top.request
        self.pid = os.getpid()
        self.spans = []
        self._stack = []

    def _wrap(self, name: str, fn):
        tracer = self
        annotate = ANNOTATE.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if os.getpid() != tracer.pid:
                tracer._adopt_fork()
            tracer._counter += 1
            parent = tracer._stack[-1] if tracer._stack else None
            remote = parent is None and tracer._fork_parent is not None
            if parent is not None:
                parent_id, request = parent.span_id, parent.request
            elif remote:
                parent_id, request = tracer._fork_parent, tracer._fork_request
            else:
                parent_id = None
                request = f"{tracer.pid}-{tracer._counter}"  # a root span starts a request
            span = Span((tracer.pid, tracer._counter), parent_id, name, 0.0, 0.0, request, {}, remote)
            tracer._stack.append(span)
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.attrs["error"] = True
                raise
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()
                tracer.spans.append(span)
                if not tracer._stack and remote:
                    tracer._spill()
            if annotate is not None:
                span.attrs.update(annotate(args, kwargs, result))
            return result

        return traced

    def _spill(self) -> None:
        self.spill_dir.mkdir(parents=True, exist_ok=True)
        with open(self.spill_dir / f"spans-{self.pid}.jsonl", "a", encoding="utf-8") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_json()) + "\n")
        self.spans = []

    def collect_children(self) -> None:
        """Read back and remove the spans that forked workers spilled."""
        if not self.spill_dir.is_dir():
            return
        for path in sorted(self.spill_dir.glob("spans-*.jsonl")):
            with open(path, "r", encoding="utf-8") as fh:
                self.spans.extend(Span.from_json(json.loads(line)) for line in fh)
            path.unlink()

    def take(self) -> list[Span]:
        spans, self.spans = self.spans, []
        return spans

    # --- installation -------------------------------------------------------

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"linfeas.{layer}") for layer in LAYERS}
        package = importlib.import_module("linfeas")
        wrappers: dict[int, object] = {}
        for layer, module in modules.items():
            for attr, obj in vars(module).items():
                if not inspect.isfunction(obj) or obj.__module__ != module.__name__:
                    continue
                if attr.startswith("_") and not (layer == "cli" and attr in CLI_PRIVATE):
                    continue
                wrappers[id(obj)] = self._wrap(f"{layer}.{attr}", obj)
        for module in (package, *modules.values()):
            for attr, obj in list(vars(module).items()):
                if id(obj) in wrappers and inspect.isfunction(obj):
                    self._set(module, attr, obj, wrappers[id(obj)])
                elif isinstance(obj, dict):
                    for key, value in list(obj.items()):
                        if inspect.isfunction(value) and id(value) in wrappers:
                            self._restore.append((obj, key, value))
                            obj[key] = wrappers[id(value)]
        for layer, cls_name, method in METHODS:
            cls = getattr(modules[layer], cls_name)
            original = cls.__dict__[method]
            self._set(cls, method, original, self._wrap(f"{layer}.{cls_name}.{method}", original))

    def _set(self, owner, attr: str, original, wrapper) -> None:
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)
        self._restore = []


def self_times(spans: list[Span]) -> dict[tuple[int, int], float]:
    """Span duration minus the time its same-process children cover."""
    child_time: dict[tuple[int, int], float] = {}
    for span in spans:
        if span.parent_id is not None and not span.remote_parent:
            child_time[span.parent_id] = child_time.get(span.parent_id, 0.0) + span.duration
    return {span.span_id: span.duration - child_time.get(span.span_id, 0.0) for span in spans}
