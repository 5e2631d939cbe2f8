"""Layered end-to-end benchmark of the co-optimization pipeline.

    python3 perfbench/run.py --workload cold_table2|compile_sweep|vqe_energy \\
        --seed N --seconds S --trace 0|1

Run from the repository root.  Every pass of a workload runs in a worker
process (``worker.py``) started from a fresh interpreter, with one client
that sends each item after the previous one returned.  ``--trace 0``
measures the end-to-end metrics with tracing off; ``--trace 1`` runs
untraced and traced passes and reports the per-layer metrics, prints a
self-time table and writes a Chrome trace (``perfbench/out/``).  The
end-to-end times are CPU seconds scaled to a reference host speed by a
kernel timed between items (``calibrate.py``); the unscaled elapsed and
CPU times are printed beside them and reported per layer.  The last
line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Any

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import calibrate  # noqa: E402
import workloads  # noqa: E402

#: Set-up samples per run (the median is reported).  Fewer where set-up
#: is long (vqe_energy diagonalizes two 12-qubit Hamiltonians), to keep a
#: run well under a minute.
SETUP_SAMPLES = {"cold_table2": 3, "compile_sweep": 2, "vqe_energy": 2}
#: Passes an untraced run times at least.  compile_sweep takes three so
#: each item's latency is a median that drops a pass hit by a garbage
#: collection; vqe_energy's items run for seconds each, so two suffice.
#: cold_table2 runs one ~21 s pass per worker.
MIN_PASSES = {"compile_sweep": 3, "vqe_energy": 2}
#: MtR on XTree17Q at ratio 0.3: NaH + H2O + BH3 routed CNOTs at the
#: equilibrium geometries (BENCH_compiler.json: 464 + 3840 + 9632).
TABLE2_ROUTED_CNOTS = 13936
WORKER_TIMEOUT_S = 170
#: Workers run BLAS on one thread: the program's own work is serial, and
#: a second BLAS thread spin-waiting on a shared core only adds noise.
ONE_THREAD = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}



class WorkerError(RuntimeError):
    pass


# ----------------------------------------------------------------------
# Host fingerprint
# ----------------------------------------------------------------------
def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def _llc_bytes() -> int | None:
    """Size of the largest CPU cache, from sysfs (None when unknown)."""
    sizes = []
    for path in Path("/sys/devices/system/cpu/cpu0/cache").glob("index*/size"):
        try:
            text = path.read_text().strip()
        except OSError:
            continue
        scale = {"K": 1 << 10, "M": 1 << 20, "G": 1 << 30}.get(text[-1:], 1)
        sizes.append(int(text.rstrip("KMG")) * scale)
    return max(sizes) if sizes else None


def memcpy_probe(llc: int | None) -> dict[str, Any]:
    """Copy bandwidth over a working set of 4x the LLC: two arrays of 2x
    the LLC each, one copied onto the other.  GB/s counts bytes read plus
    bytes written, the same convention as the evolve-kernel byte model."""
    import numpy as np

    fallback = llc is None
    working_set = 4 * (llc if llc else 32 << 20)
    array_bytes = working_set // 2
    source = np.ones(array_bytes // 8)
    target = np.zeros_like(source)
    times = []
    for _ in range(5):
        start = time.perf_counter()
        np.copyto(target, source)
        times.append(time.perf_counter() - start)
    del source, target
    return {
        "llc_bytes": llc,
        "llc_assumed": fallback,
        "array_bytes": array_bytes,
        "working_set_bytes": working_set,
        "gbps": 2 * array_bytes / statistics.median(times) / 1e9,
    }


def host_fingerprint(with_memcpy: bool) -> dict[str, Any]:
    import numpy

    llc = _llc_bytes()
    host = {
        "nproc": os.cpu_count(),
        "nproc_usable": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "llc_bytes": llc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }
    if with_memcpy:
        host["memcpy"] = memcpy_probe(llc)
    return host


# ----------------------------------------------------------------------
# Workers
# ----------------------------------------------------------------------
def spawn(args: argparse.Namespace, mode: str, *, traced: bool = False,
          **options: Any) -> dict[str, Any]:
    """Start one worker from a fresh interpreter and wait for its record."""
    flags = [f"--{key.replace('_', '-')}={value}" for key, value in options.items()]
    if traced:
        flags.append("--traced")
    if args.record_expected:
        flags.append("--no-expected")
    command = [
        sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
        "--seed", str(args.seed), "--mode", mode, *flags, "--t0", repr(time.time()),
    ]
    done = subprocess.run(
        command, cwd=ROOT, env=dict(os.environ, PYTHONPATH=str(ROOT / "src"), **ONE_THREAD),
        capture_output=True, text=True, timeout=WORKER_TIMEOUT_S, check=False,
    )
    if done.returncode != 0:
        raise WorkerError(f"worker exited {done.returncode}:\n{done.stderr[-4000:]}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_workers(args: argparse.Namespace, traced: bool) -> list[dict[str, Any]]:
    """The measuring workers of one run, all traced or all untraced."""
    options: dict[str, Any] = {}
    if traced:
        options["trace_file"] = OUT / f"trace-{args.workload}-seed{args.seed}.json"
    if args.workload != "cold_table2":
        # A trace run starts two workers (untraced, traced), so each runs
        # only as many passes as --seconds asks for, to stay short.
        passes = 1 if args.trace else MIN_PASSES[args.workload]
        return [spawn(args, "measure", traced=traced, seconds=args.seconds,
                      min_passes=passes, **options)]
    # Cold: one fresh interpreter per pass, so no process-level memo of
    # an earlier pass survives into the next.
    results: list[dict[str, Any]] = []
    start = time.perf_counter()
    while not results or time.perf_counter() - start < args.seconds:
        results.append(spawn(args, "measure", traced=traced, **options))
    return results


# ----------------------------------------------------------------------
# Oracles over the whole run
# ----------------------------------------------------------------------
def mark_run_failures(args: argparse.Namespace, results: list[dict[str, Any]]) -> list[str]:
    """Checks that need every worker's records.  Marks failing items and
    returns the reasons."""
    reasons = []
    first: dict[str, Any] = {}
    for worker in results:
        cold = worker["cache_at_start"]
        for run_pass in worker["passes"]:
            for record in run_pass["items"]:
                if cold["hits"] or cold["misses"]:
                    record["error"] = record["error"] or f"compile cache not empty at start: {cold}"
                outputs = record.get("outputs")
                if outputs is None:
                    continue
                seen = first.setdefault(record["label"], outputs)
                if seen != outputs:
                    record["error"] = record["error"] or "outputs differ between passes"
    if args.workload == "cold_table2" and args.seed == workloads.DEFAULT_SEED:
        for worker in results:
            for run_pass in worker["passes"]:
                routed = sum(r["outputs"]["total_cnots"] for r in run_pass["items"] if "outputs" in r)
                if routed != TABLE2_ROUTED_CNOTS:
                    reasons.append(f"routed_cnots {routed} != {TABLE2_ROUTED_CNOTS}")
                    for record in run_pass["items"]:
                        record["error"] = record["error"] or reasons[-1]
    for worker in results:
        for run_pass in worker["passes"]:
            reasons += [f"{r['label']}: {r['error']}" for r in run_pass["items"] if r["error"]]
    return reasons


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
def percentile(values: list[float], fraction: float) -> float:
    """Harrell-Davis estimate of a quantile: a weighted mean of all order
    statistics, weighted by a beta distribution centred on ``fraction``.
    Where the sorted times jump, a single order statistic moves by 30%
    when one item crosses the jump; the weighted mean moves by a few."""
    from scipy.special import betainc

    ordered = sorted(values)
    n = len(ordered)
    a, b = (n + 1) * fraction, (n + 1) * (1 - fraction)
    edges = [float(betainc(a, b, i / n)) for i in range(n + 1)]
    return sum((hi - lo) * value for lo, hi, value in zip(edges, edges[1:], ordered))


def compiled_sum(run_pass: dict[str, Any], key: str) -> int:
    return sum(r["outputs"][key] for r in run_pass["items"] if "outputs" in r)


def item_medians(passes: list[dict[str, Any]], key: str = "time_s") -> list[float]:
    """Each item's median time over the run's passes: by default its CPU
    time scaled to the reference speed (calibrate.py), with
    ``key="latency_s"`` its elapsed time.  Taking the median per item
    first keeps a one-off stall in one pass out of the run's figures."""
    by_label: dict[str, list[float]] = {}
    for run_pass in passes:
        for record in run_pass["items"]:
            by_label.setdefault(record["label"], []).append(record[key])
    return [statistics.median(values) for values in by_label.values()]


def end_to_end(passes: list[dict[str, Any]], results: list[dict[str, Any]],
               setup: list[float]) -> tuple[dict[str, float], dict[str, int]]:
    times = item_medians(passes)
    values = {
        "setup_s": statistics.median(setup),
        "pass_s": sum(times),
        "item_p50_s": percentile(times, 0.5),
        "item_p95_s": percentile(times, 0.95),
        "peak_rss_mb": max(w["peak_rss_mb"] for w in results),
        "routed_cnots": compiled_sum(passes[0], "total_cnots"),
        "scheduled_depth": compiled_sum(passes[0], "scheduled_depth"),
    }
    timed = sum(len(p["items"]) for p in passes)
    samples = {
        "setup_s": len(setup),
        "pass_s": timed,
        "item_p50_s": timed,
        "item_p95_s": timed,
        "peak_rss_mb": len(results),
        "routed_cnots": len(passes[0]["items"]),
        "scheduled_depth": len(passes[0]["items"]),
    }
    return values, samples


def per_layer(results: list[dict[str, Any]], traced_workers: list[dict[str, Any]],
              host: dict[str, Any], attempted: int, failed: int) -> dict[str, float]:
    """Per-layer metrics from the traced workers; the untraced workers of
    the same run give the base of the tracing overhead."""
    traced_worker = traced_workers[0]
    layers = traced_worker["layers"]
    seconds = layers["seconds"]
    traced = [p for w in traced_workers for p in w["passes"]]
    untraced = [p for w in results for p in w["passes"]]
    items = traced[0]["items"]
    molecules: dict[str, dict[str, Any]] = {}
    for record in items:
        if "molecule" in record:
            molecules.setdefault(record["molecule"], record)

    def total(key: str) -> float:
        return sum(r.get(key, 0) for r in items)

    phases = traced[0]["cache_phases"]

    def hit_ratio(phase: str) -> float:
        counts = phases.get(phase, {"hits": 0, "misses": 0})
        lookups = counts["hits"] + counts["misses"]
        return counts["hits"] / lookups if lookups else 0.0

    evaluations = sum(r["outputs"].get("function_evaluations", 0) for r in items if "outputs" in r)
    scale_out = traced_worker.get("scale_out", {"seconds": {}, "identical": False})
    gbps = host["memcpy"]["gbps"]
    evolve_s = seconds.get("sim.evolve", 0.0)
    base = sum(item_medians(untraced))
    reference = [s for w in results + traced_workers for s in w["reference_samples"]]
    errors = [r["error_mha"] for r in items if "error_mha" in r]
    metrics = {
        "wall_s": sum(item_medians(untraced, "latency_s")),
        "setup.wall_s": statistics.median(w["setup_wall_s"] for w in results + traced_workers),
        "ref.kernel_s": statistics.median(reference),
        "setup.import_s": statistics.median(w["import_s"] for w in results + traced_workers),
        "chem.build_problem_s": seconds.get("chem.build_problem", 0.0),
        "chem.integrals_s": seconds.get("chem.integrals", 0.0),
        "chem.rhf_s": seconds.get("chem.rhf", 0.0),
        "chem.mo_transform_s": seconds.get("chem.mo_transform", 0.0),
        "chem.fermion_s": seconds.get("chem.fermion", 0.0),
        "chem.jordan_wigner_s": seconds.get("chem.jordan_wigner", 0.0),
        "chem.hamiltonian_terms": sum(r["hamiltonian_terms"] for r in molecules.values()),
        "ansatz.build_s": seconds.get("ansatz.build", 0.0),
        "ansatz.pauli_strings": sum(r.get("pauli_strings", 0) for r in molecules.values()),
        "compress.s": seconds.get("compress", 0.0),
        "compress.pairs": total("compress_pairs"),
        "compress.pairs_per_s": (
            total("compress_pairs") / seconds["compress"] if seconds.get("compress") else 0.0
        ),
        "layout.s": seconds.get("layout", 0.0),
        "route.mtr_s": seconds.get("route.mtr", 0.0),
        "route.sabre_s": seconds.get("route.sabre", 0.0),
        "route.swaps": total("swaps"),
        "overhead_cnots": compiled_sum(traced[0], "overhead_cnots"),
        "qasm.build_problem_s": seconds.get("qasm.build_problem", 0.0),
        "metrics.s": seconds.get("metrics", 0.0),
        "analysis.check_s": seconds.get("analysis.check", 0.0),
        "cache.start_lookups": sum(
            w["cache_at_start"]["hits"] + w["cache_at_start"]["misses"]
            for w in results + traced_workers
        ),
        "cache.hits": sum(p["hits"] for p in phases.values()),
        "cache.misses": sum(p["misses"] for p in phases.values()),
        "cache.hit_ratio.sweep": hit_ratio("sweep"),
        "cache.hit_ratio.replay": hit_ratio("replay"),
        "energy.s": seconds.get("energy", 0.0),
        "vqe.function_evaluations": evaluations,
        "vqe.s_per_evaluation": seconds.get("energy", 0.0) / evaluations if evaluations else 0.0,
        "vqe_iterations": sum(r["outputs"].get("iterations", 0) for r in items if "outputs" in r),
        "energy_error_mha": max(errors) if errors else 0.0,
        "sim.evolve_s": evolve_s,
        "sim.expectation_s": seconds.get("sim.expectation", 0.0),
        "sim.trajectory_s": seconds.get("sim.trajectory", 0.0),
        "sim.evolve_bytes_computed": layers["evolve_bytes"],
        "sim.bandwidth_frac": (
            layers["evolve_bytes"] / evolve_s / (gbps * 1e9) if evolve_s else 0.0
        ),
        "run_batch.serial_s": scale_out["seconds"].get("serial", 0.0),
        "run_batch.thread_s": scale_out["seconds"].get("thread", 0.0),
        "run_batch.process_s": scale_out["seconds"].get("process", 0.0),
        "run_batch.identical": 1.0 if scale_out["identical"] else 0.0,
        "trace.overhead_frac": sum(item_medians(traced)) / base - 1.0,
        "trace.uncovered_frac": layers["uncovered_frac"],
        "host.memcpy_gbps": gbps,
        "item_samples": sum(len(p["items"]) for p in untraced),
        "failed_frac": failed / attempted,
    }
    return metrics


# ----------------------------------------------------------------------
# Reporting
# ----------------------------------------------------------------------
def self_time_table(traced_workers: list[dict[str, Any]]) -> list[str]:
    """Self time per layer over the traced passes, with each layer's share
    of all traced item time and of each phase's item time."""
    by_phase = traced_workers[0]["self_times"]
    phases = sorted(by_phase)
    totals: dict[str, float] = {}
    for layers in by_phase.values():
        for name, value in layers.items():
            totals[name] = totals.get(name, 0.0) + value
    phase_sums = {phase: sum(by_phase[phase].values()) for phase in phases}
    grand = sum(totals.values())
    header = f"{'layer (self time, traced passes)':28s} {'seconds':>9s} {'share':>7s}"
    lines = [header + "".join(f" {phase[:9]:>9s}" for phase in phases)]
    for name, value in sorted(totals.items(), key=lambda kv: -kv[1]):
        label = "(uncovered remainder)" if name == "item" else name
        shares = "".join(
            f" {by_phase[phase].get(name, 0.0) / phase_sums[phase]:9.1%}" for phase in phases
        )
        lines.append(f"{label:28s} {value:9.4f} {value / grand:7.1%}" + shares)
    return lines


def record_expected(args: argparse.Namespace, results: list[dict[str, Any]]) -> None:
    """Pin this run's compile outputs as the default-seed oracle."""
    path = workloads.EXPECTED_FILE
    data = json.loads(path.read_text()) if path.exists() else {"items": {}}
    data["note"] = (
        "Regression oracle taken from the seed commit at --seed 0: the "
        "compressed-program digest and routed counts of every item. "
        "Regenerate with run.py --record-expected only when a change is "
        "meant to alter compile results."
    )
    pinned = {}
    for record in results[0]["passes"][0]["items"]:
        pinned[record["label"]] = workloads.pinned(record["outputs"])
    data["items"][args.workload] = pinned
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-expected", action="store_true",
                        help="rewrite expected_seed0.json from this run (seed 0 only)")
    args = parser.parse_args()
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program source under {ROOT / 'src'}; run from a "
              "full checkout of the repository", file=sys.stderr)
        return 2
    if args.record_expected and args.seed != workloads.DEFAULT_SEED:
        parser.error("--record-expected needs the default seed")

    # Byte-compile up front so the first run's set-up time does not pay it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src"), str(HERE)],
                   check=True, capture_output=True, timeout=WORKER_TIMEOUT_S)
    host = host_fingerprint(with_memcpy=bool(args.trace))
    try:
        results = run_workers(args, traced=False)
        traced = run_workers(args, traced=True) if args.trace else []
        setups = list(results)
        while not args.trace and len(setups) < SETUP_SAMPLES[args.workload]:
            setups.append(spawn(args, "setup"))
        setup = [w["setup_s"] for w in setups]
    except (WorkerError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.record_expected:
        record_expected(args, results)

    reasons = mark_run_failures(args, results + traced)
    passes = [p for w in results + traced for p in w["passes"]]
    attempted = sum(len(p["items"]) for p in passes)
    failed = sum(1 for p in passes for r in p["items"] if r["error"])

    print(f"workload {args.workload} seed {args.seed} trace {args.trace}")
    print("host " + json.dumps(host, sort_keys=True))
    for phase, counts in results[0]["passes"][0]["cache_phases"].items():
        print(f"compile cache, phase {phase}: {counts['hits']} hits, {counts['misses']} misses")
    for reason in reasons[:20]:
        print(f"FAILED {reason}")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    report: dict[str, Any] = {
        "host": host,
        "cache_phases": [p["cache_phases"] for p in passes],
        "failures": reasons,
    }
    if args.trace:
        values = per_layer(results, traced, host, attempted, failed)
        report["scale_out"] = traced[0].get("scale_out")
        report["self_times"] = traced[0]["self_times"]
        for line in self_time_table(traced):
            print(line)
    else:
        values, samples = end_to_end([p for w in results for p in w["passes"]], results, setup)
        report["samples"] = samples
        for name, value in values.items():
            print(f"{name:16s} {value:14.6g} {units[name]:6s} (n={samples[name]})")
        untraced_passes = [p for w in results for p in w["passes"]]
        print(f"unscaled: pass {sum(item_medians(untraced_passes, 'latency_s')):.6g} s elapsed, "
              f"{sum(item_medians(untraced_passes, 'cpu_s')):.6g} s CPU; set-up "
              f"{statistics.median(w['setup_wall_s'] for w in setups):.6g} s elapsed; "
              f"reference kernel {statistics.median(s for w in setups for s in w['reference_samples']):.6g} s "
              f"(nominal {calibrate.REFERENCE_S} s)")
    report["metrics"] = values
    OUT.mkdir(exist_ok=True)
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1, sort_keys=True) + "\n"
    )
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
