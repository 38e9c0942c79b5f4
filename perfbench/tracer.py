"""Span tracing of the simulator's layers, installed from outside.

:func:`install` replaces a fixed set of public functions of
:mod:`repro` with timing wrappers.  Nothing in ``src/`` changes: the
wrappers are set on the module or class attribute *where callers look
the name up*, so a name bound by ``from ... import`` is patched in every
``repro`` module that holds it.

Spans are kept in memory.  Pool workers forked after :func:`install`
inherit the wrappers; a forked process starts an empty span list and
appends its spans to ``<out_dir>/spans-<pid>.jsonl`` whenever its
outermost span closes (a worker's outermost span is one ``simulate``),
because pool workers exit without running ``atexit`` hooks.
"""

from __future__ import annotations

import functools
import itertools
import os
import pathlib
import sys
import threading
import time
from typing import Any, Callable

from .stats import Span


class Tracer:
    """Collects :class:`Span` records for one process tree."""

    def __init__(self, out_dir: "pathlib.Path | str") -> None:
        self.out_dir = pathlib.Path(out_dir)
        self.out_dir.mkdir(parents=True, exist_ok=True)
        self.enabled = True
        self._origin = os.getpid()
        self._reset(self._origin)

    def _reset(self, pid: int) -> None:
        self._pid = pid
        self._spans: list[Span] = []
        self._sids = itertools.count()
        self._local = threading.local()

    def _stack(self) -> list[int]:
        pid = os.getpid()
        if pid != self._pid:
            # A forked child: drop the parent's spans and open stack.
            self._reset(pid)
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(
        self,
        name: str,
        fn: Callable[..., Any],
        before: "Callable[[tuple], dict] | None" = None,
        after: "Callable[[Any], dict] | None" = None,
    ) -> Callable[..., Any]:
        """*fn* timed as span *name*.

        ``before(args)`` and ``after(result)`` return facts stored in the
        span's ``extra``; ``before`` sees the state the call starts from.
        """
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            if not tracer.enabled:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            sid = next(tracer._sids)
            stack.append(sid)
            extra = before(args) if before is not None else {}
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
            if after is not None:
                extra.update(after(result))
            tracer._spans.append(Span(name, start, end, tracer._pid, sid, parent, extra))
            if not stack and tracer._pid != tracer._origin:
                tracer.flush()
            return result

        return wrapper

    def flush(self) -> None:
        """Append this process's buffered spans to its span file."""
        if not self._spans:
            return
        path = self.out_dir / f"spans-{self._pid}.jsonl"
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("".join(span.to_json() + "\n" for span in self._spans))
        self._spans = []

    def collect(self) -> list[Span]:
        """Every span of this process plus those flushed by other processes."""
        self.flush()
        return read_spans(self.out_dir)


def read_spans(out_dir: "pathlib.Path | str") -> list[Span]:
    """All spans the processes of one run wrote to *out_dir*."""
    spans: list[Span] = []
    for path in sorted(pathlib.Path(out_dir).glob("spans-*.jsonl")):
        with open(path, encoding="utf-8") as fh:
            spans.extend(Span.from_json(line) for line in fh if line.strip())
    return spans


def patch_everywhere(original: Callable[..., Any], wrapper: Callable[..., Any]) -> None:
    """Rebind *original* to *wrapper* in every loaded ``repro`` module."""
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapper)


def _counting(counter: dict[str, int], key: str, fn: Callable[..., Any]) -> Callable[..., Any]:
    @functools.wraps(fn)
    def wrapper(*args: Any, **kwargs: Any) -> Any:
        counter[key] = counter.get(key, 0) + 1
        return fn(*args, **kwargs)

    return wrapper


def install(tracer: Tracer) -> dict[str, int]:
    """Wrap the named layer functions; returns the live pool counter.

    Call it before any pool forks and after every ``repro`` module the
    workload uses is imported.
    """
    from repro.core import ckernel, columnar, engine, simulation
    from repro.experiments import base
    from repro.runtime import cache, runner, serialization, spec

    def sim_facts(result: Any) -> dict:
        return {
            "scheduler": result.params.scheduler,
            "cycles": result.cycles,
            "flits": result.flits_moved,
        }

    def cycles_arg(args: tuple) -> dict:
        return {"cycles": int(args[1])}

    def first_load(args: tuple) -> dict:
        # ``load`` compiles only on its first call in a process.
        return {"build": not getattr(ckernel, "_tried", True)}

    for module, attr, name, before, after in (
        (runner, "run_points", "run_points", None, None),
        (simulation, "simulate", "simulate", None, sim_facts),
        (simulation, "build_network", "build_network", None, None),
        (ckernel, "load", "ckernel.load", first_load, None),
        (cache, "code_version_salt", "code_version_salt", None, None),
        (serialization, "canonical_json", "canonical_json", None, None),
        (serialization, "result_from_payload", "result_from_payload", None, None),
    ):
        original = getattr(module, attr)
        patch_everywhere(original, tracer.wrap(name, original, before, after))

    for cls, attr, name, before in (
        (engine.Engine, "run", "Engine.run", cycles_arg),
        (columnar.ColumnarEngine, "__init__", "ColumnarEngine.__init__", None),
        (columnar.ColumnarEngine, "run", "ColumnarEngine.run", cycles_arg),
        (cache.ResultCache, "get_entry", "ResultCache.get_entry", None),
        (cache.ResultCache, "put", "ResultCache.put", None),
        (spec.PointSpec, "key", "PointSpec.key", None),
        (base.Experiment, "run", "Experiment.run", None),
        (base.Experiment, "evaluate", "Experiment.evaluate", None),
    ):
        setattr(cls, attr, tracer.wrap(name, getattr(cls, attr), before))

    pools: dict[str, int] = {}
    runner.ProcessPoolExecutor = _counting(pools, "started", runner.ProcessPoolExecutor)  # type: ignore[misc]
    return pools
