"""The three closed-loop workloads: their items, seeded inputs and oracles.

Importing this module does not import :mod:`repro`; only the worker
process calls into the program.  An item is one pipeline run; a pass is
the workload's whole item list, run once, one item at a time.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Any

WORKLOADS = ("cold_table2", "compile_sweep", "vqe_energy")

#: Seed 0 is the default seed: equilibrium geometries and the pipeline's
#: default SABRE seed, i.e. the paper's Table II instances.
DEFAULT_SEED = 0
DEFAULT_SABRE_SEED = 11
#: Other seeds move each bond length by at most this much (Angstrom):
#: enough to change every Hamiltonian, small enough that the work per
#: item (SCF iterations, optimizer steps, kept parameters) stays alike.
MAX_BOND_OFFSET = 0.02
MOLECULES = ("BH3", "BeH2", "H2O", "LiH", "NaH")

CORPUS_DIR = "benchmarks/corpus"
SWEEP_RATIOS = (0.1, 0.3, 0.5, 0.7)
SWEEP_FLOWS = (("mtr", "xtree17"), ("sabre", "grid17"))
CORPUS_COMPILERS = ("mtr", "sabre")
#: Routed results on devices up to this size are simulated and compared
#: with their logical reference (2**12 amplitudes per state).
VERIFY_MAX_QUBITS = 12
#: Slack on the variational bound E >= E_exact (float round-off only).
VARIATIONAL_TOL = 1e-8
TWO_QUBIT_ERROR = 1e-4

EXPECTED_FILE = Path(__file__).with_name("expected_seed0.json")


@dataclass
class Item:
    """One pipeline run of a workload."""

    label: str
    phase: str
    config: dict[str, Any]
    energy: dict[str, Any] | None = None
    noiseless: bool = True
    verify: bool = False


@dataclass
class Inputs:
    """What a seed decides: bond-length offsets and the SABRE seed."""

    bond_offsets: dict[str, float]
    sabre_seed: int


def seeded_inputs(seed: int) -> Inputs:
    if seed == DEFAULT_SEED:
        return Inputs({name: 0.0 for name in MOLECULES}, DEFAULT_SABRE_SEED)
    rng = random.Random(seed)
    offsets = {
        name: round(rng.uniform(-MAX_BOND_OFFSET, MAX_BOND_OFFSET), 4)
        for name in MOLECULES
    }
    return Inputs(offsets, rng.randrange(1, 1 << 16))


def bond_length(name: str, inputs: Inputs) -> float:
    from repro.chem.molecules import molecule_by_name

    return round(molecule_by_name(name).bond_length + inputs.bond_offsets[name], 4)


def _molecule(name: str, inputs: Inputs, **config: Any) -> dict[str, Any]:
    return {
        "molecule": name,
        "bond_length": bond_length(name, inputs),
        "seed": inputs.sabre_seed,
        **config,
    }


def _qubits_in(path: Path) -> int:
    """Register width of a corpus file, read from its ``qreg`` lines (the
    set-up must not parse the QASM: the items time that parse)."""
    sizes = re.findall(r"^\s*qreg\s+\w+\s*\[\s*(\d+)\s*\]", path.read_text(), re.M)
    if not sizes:
        raise ValueError(f"{path} declares no qreg")
    return sum(int(size) for size in sizes)


def _sweep(inputs: Inputs, phase: str) -> list[Item]:
    return [
        Item(
            f"{phase}/H2O-r{ratio}-{compiler}",
            phase,
            _molecule("H2O", inputs, ratio=ratio, compiler=compiler, device=device),
        )
        for ratio in SWEEP_RATIOS
        for compiler, device in SWEEP_FLOWS
    ]


def _corpus(root: Path, inputs: Inputs) -> list[Item]:
    from repro.bench.corpus import corpus_devices
    from repro.hardware.registry import get_device

    paths = sorted((root / CORPUS_DIR).glob("*.qasm"))
    if not paths:
        raise FileNotFoundError(f"no .qasm files under {root / CORPUS_DIR}")
    items = []
    for path in paths:
        for device in corpus_devices(_qubits_in(path)):
            for compiler in CORPUS_COMPILERS:
                items.append(
                    Item(
                        f"corpus/{path.stem}-{device}-{compiler}",
                        "corpus",
                        {
                            "problem": f"qasm:{CORPUS_DIR}/{path.name}",
                            "device": device,
                            "compiler": compiler,
                            "seed": inputs.sabre_seed,
                        },
                        verify=get_device(device).num_qubits <= VERIFY_MAX_QUBITS,
                    )
                )
    return items


def _vqe(inputs: Inputs) -> list[Item]:
    noisy = {"backend": "trajectory", "noise": "depolarizing"}
    specs = [
        ("H2O", {}),
        ("BeH2", {"gradient": "adjoint"}),
        ("LiH", {**noisy, "trajectories": 256}),
        ("NaH", {**noisy, "trajectories": 128}),
    ]
    return [
        Item(
            f"vqe/{name}",
            "vqe",
            _molecule(name, inputs, ratio=0.3),
            energy=energy,
            noiseless="noise" not in energy,
        )
        for name, energy in specs
    ]


def build_items(workload: str, inputs: Inputs, root: Path) -> list[Item]:
    """The item list of one pass, in the order the client sends it."""
    if workload == "cold_table2":
        return [
            Item(f"table2/{name}", "table2", _molecule(name, inputs, ratio=0.3))
            for name in ("NaH", "H2O", "BH3")
        ]
    if workload == "compile_sweep":
        return (
            _sweep(inputs, "sweep")
            + _corpus(root, inputs)
            + _sweep(inputs, "replay")
        )
    if workload == "vqe_energy":
        return _vqe(inputs)
    raise ValueError(f"unknown workload {workload!r}; choose from {WORKLOADS}")


# ----------------------------------------------------------------------
# Output digests and oracles
# ----------------------------------------------------------------------
def program_digest(program: Any) -> str:
    """Digest of a compressed Pauli program: its kept terms, in order.

    Computed here rather than with the program's own content hash, so a
    change to that hash cannot hide or fake a change to the program.
    Coefficients are rounded to 12 significant digits so that last-bit
    differences from reordered float arithmetic do not count.
    """
    hasher = hashlib.sha256()
    hasher.update(f"{program.num_qubits};{program.num_parameters};".encode())
    for term in program.terms:
        hasher.update(
            f"{term.pauli}|{term.parameter_index}|{term.coefficient:.12g};".encode()
        )
    return hasher.hexdigest()[:16]


def item_outputs(result: Any) -> dict[str, Any]:
    """The deterministic outputs of one item that later passes must repeat."""
    from repro.core.compression import CompressedAnsatz

    metrics = result.metrics
    out: dict[str, Any] = {
        key: int(metrics[key])
        for key in ("total_cnots", "overhead_cnots", "num_swaps", "scheduled_depth")
    }
    if isinstance(result.compressed, CompressedAnsatz):
        out["program_digest"] = program_digest(result.compressed.program)
    if result.vqe_result is not None:
        out["energy"] = float(result.vqe_result.energy)
        out["iterations"] = int(result.vqe_result.iterations)
        out["function_evaluations"] = int(result.vqe_result.function_evaluations)
    return out


def check_item(item: Item, result: Any, exact: dict[str, float]) -> None:
    """Raise AssertionError when an item's output is wrong."""
    if item.verify:
        from repro.compiler.verify import assert_circuit_routed_equivalent

        assert_circuit_routed_equivalent(result.problem.circuit, result.compiled)
    if result.vqe_result is None:
        return
    energy = float(result.vqe_result.energy)
    if not math.isfinite(energy):
        raise AssertionError(f"{item.label}: energy {energy} is not finite")
    if item.noiseless:
        reference = exact[item.config["molecule"]]
        if energy < reference - VARIATIONAL_TOL:
            raise AssertionError(
                f"{item.label}: E={energy!r} breaks the variational bound "
                f"E_exact={reference!r}"
            )
        if energy > float(result.problem.hf_energy) + VARIATIONAL_TOL:
            raise AssertionError(
                f"{item.label}: E={energy!r} is above the Hartree-Fock energy"
            )


def expected_outputs() -> dict[str, Any]:
    """The default-seed regression oracle (see NOTES.md)."""
    return json.loads(EXPECTED_FILE.read_text())["items"]


#: Output keys the default-seed oracle pins: compile results only, since
#: optimizer traces may legitimately move in the last bits.
PINNED_KEYS = (
    "program_digest",
    "total_cnots",
    "overhead_cnots",
    "num_swaps",
    "scheduled_depth",
)


def pinned(outputs: dict[str, Any]) -> dict[str, Any]:
    return {key: outputs[key] for key in PINNED_KEYS if key in outputs}
