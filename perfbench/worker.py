"""One benchmark client in a fresh interpreter (started by ``run.py``).

Sets the workload up, then sends its items one at a time, each only after
the previous one has returned (a closed loop with one client), and prints
one JSON record as its last line of standard output.

    python3 perfbench/worker.py --workload W --seed N --t0 T --mode setup|measure
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(Path(__file__).resolve().parent))

import calibrate  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


#: Reference-kernel samples that scale the set-up time.
SETUP_REFERENCE_SAMPLES = 3


def _stats(cache: Any) -> dict[str, int]:
    return {"hits": cache.stats.hits, "misses": cache.stats.misses}


class Workload:
    """Set-up state of one workload and the code that runs its passes."""

    def __init__(self, name: str, seed: int, *, pin: bool = True) -> None:
        from repro.core.cache import compile_cache

        self.name = name
        self.inputs = workloads.seeded_inputs(seed)
        self.items = workloads.build_items(name, self.inputs, ROOT)
        self.cache = compile_cache()
        self.calibrator = calibrate.Calibrator()
        self.exact: dict[str, float] = {}
        self.first_outputs: dict[str, dict[str, Any]] = {}
        self.expected = (
            workloads.expected_outputs()
            if pin and seed == workloads.DEFAULT_SEED
            else None
        )
        if name == "compile_sweep":
            self._prime_importance()
        elif name == "vqe_energy":
            self._compile_and_solve()

    def _prime_importance(self) -> None:
        """Build the H2O Hamiltonian and score its ansatz once, so the
        sweep's Compress stages take the importance-memo path; the
        compile cache is left empty."""
        from repro.ansatz.uccsd import build_uccsd_program
        from repro.chem.hamiltonian import build_molecule_hamiltonian
        from repro.core.compression import compress_ansatz

        problem = build_molecule_hamiltonian(
            "H2O", workloads.bond_length("H2O", self.inputs)
        )
        compress_ansatz(build_uccsd_program(problem).program, problem.hamiltonian, 0.3)

    def _compile_and_solve(self) -> None:
        """Build, compile (filling the compile cache) and diagonalize each
        molecule, so the items time the Energy stage."""
        from repro.core.passes import PipelineConfig
        from repro.core.pipeline import Pipeline
        from repro.sim.exact import ground_state_energy

        for item in self.items:
            result = Pipeline(PipelineConfig(**item.config)).run()
            self.exact[item.config["molecule"]] = float(
                ground_state_energy(result.problem.hamiltonian)
            )

    def pipeline(self, item: workloads.Item, tracer: tracing.Tracer | None) -> Any:
        from repro.core.passes import Energy, PipelineConfig
        from repro.core.pipeline import Pipeline, default_passes
        from repro.sim.noise import DepolarizingNoiseModel

        passes = default_passes()
        if item.energy is not None:
            options = dict(item.energy)
            if options.pop("noise", None) == "depolarizing":
                options["noise"] = DepolarizingNoiseModel(
                    two_qubit_error=workloads.TWO_QUBIT_ERROR
                )
            passes.append(Energy(compute_exact=False, **options))
        if tracer is not None:
            passes = tracing.timed_passes(passes, tracer)
        return Pipeline(PipelineConfig(**item.config), passes=passes)

    def run_pass(self, index: int, tracer: tracing.Tracer | None) -> dict[str, Any]:
        """Run the item list once; time each item; check its output."""
        if self.name == "compile_sweep":
            self.cache.clear()  # the sweep phase must miss the compile cache
        # Every pass starts from a collected heap.  Collections inside a pass
        # land on whichever item crosses the collector's threshold, so one
        # item's time can vary 3x between passes; run.py takes each item's
        # median over the passes.
        gc.collect()
        phases: dict[str, dict[str, int]] = {}
        records = []
        for position, item in enumerate(self.items):
            reference = self.calibrator.before_item()
            before = _stats(self.cache)
            error = None
            start = time.perf_counter()
            cpu_start = time.process_time()
            try:
                if tracer is None:
                    result = self.pipeline(item, None).run()
                else:
                    with tracer.item(f"p{index}.i{position}", item.label):
                        result = self.pipeline(item, tracer).run()
            except Exception as exc:  # noqa: BLE001 - an item fails, the run goes on
                result, error = None, f"{type(exc).__name__}: {exc}"
            cpu = time.process_time() - cpu_start
            latency = time.perf_counter() - start
            self.calibrator.after_item(cpu)
            after = _stats(self.cache)
            phase = phases.setdefault(item.phase, {"hits": 0, "misses": 0})
            for key in phase:
                phase[key] += after[key] - before[key]
            record: dict[str, Any] = {
                "label": item.label,
                "latency_s": latency,
                "cpu_s": cpu,
                "reference": reference,
            }
            if result is not None:
                record["outputs"] = workloads.item_outputs(result)
                error = self._check(item, result, record["outputs"])
                record.update(self._layer_counts(item, result))
            record["error"] = error
            records.append(record)
        # Close the pass with a sample, then scale each item's CPU time by
        # the samples around it (see calibrate.py).
        self.calibrator.sample()
        for record in records:
            record["time_s"] = record["cpu_s"] * self.calibrator.scale(record.pop("reference"))
        return {"items": records, "cache_phases": phases}

    def _check(
        self, item: workloads.Item, result: Any, outputs: dict[str, Any]
    ) -> str | None:
        try:
            # Expensive oracles run on an item's first pass only; run.py
            # checks that every later pass repeats its outputs.
            if item.label not in self.first_outputs:
                workloads.check_item(item, result, self.exact)
                self.first_outputs[item.label] = outputs
            if item.phase == "replay":
                swept = self.first_outputs.get(item.label.replace("replay/", "sweep/"))
                if swept != outputs:
                    raise AssertionError(f"{item.label}: replay differs from sweep")
            if self.expected is not None:
                want = self.expected.get(self.name, {}).get(item.label)
                if want != workloads.pinned(outputs):
                    raise AssertionError(
                        f"{item.label}: {workloads.pinned(outputs)} != expected {want}"
                    )
        except AssertionError as exc:
            return f"AssertionError: {exc}"
        return None

    def _layer_counts(self, item: workloads.Item, result: Any) -> dict[str, Any]:
        """Work counts read off the item's result, for the per-layer table."""
        from repro.core.compression import CompressedAnsatz

        counts: dict[str, Any] = {"swaps": int(result.metrics["num_swaps"])}
        if "molecule" in item.config:
            counts["molecule"] = item.config["molecule"]
            counts["hamiltonian_terms"] = len(result.problem.hamiltonian)
        if isinstance(result.compressed, CompressedAnsatz):
            counts["pauli_strings"] = len(result.full_ansatz.program)
            counts["compress_pairs"] = (
                counts["pauli_strings"] * counts["hamiltonian_terms"]
            )
        if result.vqe_result is not None and item.noiseless:
            exact = self.exact[item.config["molecule"]]
            counts["error_mha"] = (float(result.vqe_result.energy) - exact) * 1e3
        return counts


def scale_out_probe(workload: Workload) -> dict[str, Any]:
    """run_batch over the sweep's chemistry configs with each executor."""
    from repro.core.passes import PipelineConfig
    from repro.core.pipeline import run_batch

    configs = [
        PipelineConfig(**item.config) for item in workload.items if item.phase == "sweep"
    ]
    workers = min(2, os.cpu_count() or 1)
    seconds, records = {}, {}
    for executor in ("serial", "thread", "process"):
        workload.cache.clear()
        start = time.perf_counter()
        results = run_batch(configs, executor=executor, workers=workers)
        seconds[executor] = time.perf_counter() - start
        records[executor] = [
            r.to_dict() if hasattr(r, "to_dict") else str(r) for r in results
        ]
    identical = records["serial"] == records["thread"] == records["process"]
    return {
        "configs": len(configs),
        "workers": workers,
        "seconds": seconds,
        "identical": identical,
    }


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True,
                        help="time.time() when the parent started this process")
    parser.add_argument("--mode", choices=("setup", "measure"), required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--min-passes", type=int, default=1)
    parser.add_argument("--traced", action="store_true",
                        help="run every pass traced")
    parser.add_argument("--trace-file", default="")
    parser.add_argument("--no-expected", action="store_true",
                        help="skip the default-seed regression oracle")
    args = parser.parse_args()

    import_start = time.perf_counter()
    import repro  # noqa: F401
    from repro.core.cache import compile_cache

    import_s = time.perf_counter() - import_start
    cache_at_start = _stats(compile_cache())
    workload = Workload(args.workload, args.seed, pin=not args.no_expected)
    # Set-up CPU time counts from the start of this process, interpreter
    # start-up included; it is scaled by the samples that follow it.
    setup_cpu = time.process_time()
    setup_wall = time.time() - args.t0
    for _ in range(SETUP_REFERENCE_SAMPLES):
        workload.calibrator.sample()
    out: dict[str, Any] = {
        "setup_s": setup_cpu * calibrate.REFERENCE_S
        / statistics.median(workload.calibrator.samples),
        "setup_wall_s": setup_wall,
        "import_s": import_s,
        "cache_at_start": cache_at_start,
    }
    if args.mode == "measure":
        out.update(measure(workload, args))
    out["reference_samples"] = workload.calibrator.samples
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out["peak_rss_mb"] = usage.ru_maxrss / 1024.0
    print(json.dumps(out))


def measure(workload: Workload, args: argparse.Namespace) -> dict[str, Any]:
    """Run passes until ``--seconds`` have gone by, and at least
    ``--min-passes``."""
    tracer = tracing.Tracer() if args.traced else None
    passes: list[dict[str, Any]] = []
    start = time.perf_counter()
    while len(passes) < args.min_passes or time.perf_counter() - start < args.seconds:
        if tracer is None:
            passes.append(workload.run_pass(len(passes), None))
        else:
            with tracing.layer_probes(tracer):
                passes.append(workload.run_pass(len(passes), tracer))
    out: dict[str, Any] = {"passes": passes}
    if tracer is not None:
        out["self_times"] = tracer.self_times()
        out["layers"] = layer_totals(tracer, passes)
        if args.trace_file:
            events = tracer.chrome_events(os.getpid(), f"{args.workload} seed {args.seed}")
            tracing.write_chrome_trace(Path(args.trace_file), events)
        if args.workload == "compile_sweep":
            out["scale_out"] = scale_out_probe(workload)
    return out


def layer_totals(tracer: tracing.Tracer, passes: list[dict[str, Any]]) -> dict[str, Any]:
    """Per pass: inclusive seconds per span name, bytes computed by the
    evolve kernel, and the share of item time no layer span covers."""
    traced = len(passes)
    seconds: dict[str, float] = {}
    evolve_bytes = 0
    for span in tracer.spans:
        if span["name"] == "item":
            continue
        seconds[span["name"]] = seconds.get(span["name"], 0.0) + span["end"] - span["start"]
        evolve_bytes += span["args"].get("bytes", 0)
    uncovered = sum(phase.get("item", 0.0) for phase in tracer.self_times().values())
    item_total = sum(s["end"] - s["start"] for s in tracer.spans if s["name"] == "item")
    return {
        "seconds": {name: value / traced for name, value in seconds.items()},
        "evolve_bytes": evolve_bytes / traced,
        "uncovered_frac": uncovered / item_total if item_total else 0.0,
    }


if __name__ == "__main__":
    main()
