"""Spans around calls into the program's layers, recorded from outside.

Nothing in ``src/repro`` is instrumented.  A traced pass wraps each
pipeline stage in a :class:`TimedPass` (same ``name``/``requires``/
``produces`` as the stage it wraps) and, while :func:`layer_probes` is
active, swaps a few public functions for timing wrappers: the chemistry
build steps, the static checker and the simulator kernels.  Spans live in
memory and are written out once, as Chrome trace-event JSON.
"""

from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict
from pathlib import Path
from typing import Any, Callable, Iterator


class Tracer:
    """In-memory span recorder.  A span's parent is the span open when it
    started; every span of one item carries that item's id."""

    def __init__(self) -> None:
        self.spans: list[dict[str, Any]] = []
        self._open: list[int] = []
        self._item = ""
        self._origin = time.perf_counter()

    @contextlib.contextmanager
    def span(self, name: str, **args: Any) -> Iterator[None]:
        record = {
            "id": len(self.spans),
            "name": name,
            "item": self._item,
            "parent": self._open[-1] if self._open else None,
            "args": args,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    @contextlib.contextmanager
    def item(self, item_id: str, label: str) -> Iterator[None]:
        self._item = item_id
        try:
            with self.span("item", label=label):
                yield
        finally:
            self._item = ""

    def wrap(self, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        def timed(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return function(*args, **kwargs)

        return timed

    # ------------------------------------------------------------------
    # Reports
    # ------------------------------------------------------------------
    def self_times(self) -> dict[str, dict[str, float]]:
        """Per-layer self time (duration minus the time covered by child
        spans), per workload phase (the item label's prefix).  The
        ``item`` row is the part of each item no layer span covers -- the
        uncovered remainder."""
        children: dict[int, float] = defaultdict(float)
        phase_of: dict[str, str] = {}
        for span in self.spans:
            if span["parent"] is not None:
                children[span["parent"]] += span["end"] - span["start"]
            if span["name"] == "item":
                phase_of[span["item"]] = span["args"]["label"].split("/")[0]
        totals: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        for span in self.spans:
            phase = totals[phase_of.get(span["item"], "")]
            phase[span["name"]] += span["end"] - span["start"] - children[span["id"]]
        return {phase: dict(layers) for phase, layers in totals.items()}

    def chrome_events(self, pid: int, label: str) -> list[dict[str, Any]]:
        events: list[dict[str, Any]] = [
            {"name": "process_name", "ph": "M", "pid": pid, "args": {"name": label}}
        ]
        for span in self.spans:
            events.append(
                {
                    "name": span["name"],
                    "cat": span["name"].split(".")[0],
                    "ph": "X",
                    "ts": (span["start"] - self._origin) * 1e6,
                    "dur": (span["end"] - span["start"]) * 1e6,
                    "pid": pid,
                    "tid": 1,
                    "args": {
                        "item": span["item"],
                        "span": span["id"],
                        "parent": span["parent"],
                        **span["args"],
                    },
                }
            )
        return events


def write_chrome_trace(path: Path, events: list[dict[str, Any]]) -> None:
    """Trace-event JSON that Perfetto and chrome://tracing load as is."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}))


# ----------------------------------------------------------------------
# Stage wrappers
# ----------------------------------------------------------------------
def stage_layer(stage_name: str, config: Any) -> str:
    """The layer a pipeline stage belongs to, for this item's config."""
    if stage_name == "build_problem":
        return "qasm.build_problem" if config.problem else "chem.build_problem"
    if stage_name == "route":
        return f"route.{config.compiler}"
    return {
        "build_ansatz": "ansatz.build",
        "compress": "compress",
        "initial_layout": "layout",
        "metrics": "metrics",
        "energy": "energy",
    }.get(stage_name, stage_name)


def timed_passes(passes: list[Any], tracer: Tracer) -> list[Any]:
    """Wrap each stage so its run is one span named after its layer."""
    from repro.core.passes import Pass

    class TimedPass(Pass):
        def __init__(self, inner: Any) -> None:
            self.inner = inner
            self.name = inner.name
            self.requires = inner.requires
            self.produces = inner.produces

        def run(self, context: Any) -> None:
            with tracer.span(stage_layer(self.name, context.config)):
                self.inner.run(context)

    return [TimedPass(stage) for stage in passes]


# ----------------------------------------------------------------------
# Layer probes: timing wrappers on public functions, removed afterwards
# ----------------------------------------------------------------------
#: (module, attribute, span name).  The chemistry steps are the module
#: globals that the memoized Hamiltonian build calls; the static checker is
#: looked up from ``repro.analysis`` by every stage that validates.
FUNCTION_PROBES = (
    ("repro.chem.hamiltonian", "build_basis", "chem.integrals"),
    ("repro.chem.hamiltonian", "compute_integrals", "chem.integrals"),
    ("repro.chem.hamiltonian", "run_rhf", "chem.rhf"),
    ("repro.chem.hamiltonian", "transform_to_mo", "chem.mo_transform"),
    ("repro.chem.hamiltonian", "reduce_to_active_space", "chem.mo_transform"),
    ("repro.chem.hamiltonian", "fermionic_hamiltonian", "chem.fermion"),
    ("repro.chem.hamiltonian", "jordan_wigner", "chem.jordan_wigner"),
    ("repro.analysis", "assert_clean", "analysis.check"),
    ("repro.sim.trajectory", "trajectory_estimate", "sim.trajectory"),
)
#: (module, class, method, span name) for the simulator kernels.
METHOD_PROBES = (
    ("repro.sim.pauli_evolution", "PauliEvolutionWorkspace", "evolve_inplace", "sim.evolve"),
    ("repro.sim.expectation", "ExpectationEngine", "value", "sim.expectation"),
    ("repro.sim.expectation", "ExpectationEngine", "values", "sim.expectation"),
    ("repro.vqe.gradient", "AdjointGradient", "value_and_gradient", "vqe.adjoint_gradient"),
)


@contextlib.contextmanager
def layer_probes(tracer: Tracer) -> Iterator[None]:
    """Install the timing wrappers; restore the originals on exit."""
    import importlib

    restore: list[tuple[Any, str, Any]] = []
    try:
        for module_name, attribute, span in FUNCTION_PROBES:
            module = importlib.import_module(module_name)
            original = getattr(module, attribute)
            restore.append((module, attribute, original))
            setattr(module, attribute, tracer.wrap(span, original))
        for module_name, class_name, method, span in METHOD_PROBES:
            owner = getattr(importlib.import_module(module_name), class_name)
            original = owner.__dict__[method]
            restore.append((owner, method, original))
            wrapper = (
                _evolve_probe(tracer, original)
                if span == "sim.evolve"
                else tracer.wrap(span, original)
            )
            setattr(owner, method, wrapper)
        yield
    finally:
        for owner, attribute, original in reversed(restore):
            setattr(owner, attribute, original)


def _evolve_probe(tracer: Tracer, original: Callable[..., Any]) -> Callable[..., Any]:
    """Time ``evolve_inplace`` and record the bytes it computes: one read
    and one write of the complex state per Pauli rotation (a model, not a
    hardware counter)."""

    def timed(self: Any, paulis: Any, angles: Any, state: Any) -> Any:
        with tracer.span("sim.evolve", bytes=2 * len(paulis) * state.nbytes):
            return original(self, paulis, angles, state)

    return timed
