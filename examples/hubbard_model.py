"""Beyond chemistry: the Fermi-Hubbard model on the same stack (Section VII).

The paper's discussion section argues the Pauli-string-centric principle
carries over to condensed-matter models.  This example builds a 1D
Hubbard chain, constructs a UCCSD-style ansatz over its sites with the
same excitation machinery, compresses it against the Hubbard Hamiltonian
and compiles it to an X-Tree -- no chemistry-specific code involved.

Run:  python examples/hubbard_model.py
"""

import numpy as np

from repro.ansatz.excitations import generate_excitations
from repro.chem.hubbard import hubbard_hamiltonian
from repro.chem.jordan_wigner import jordan_wigner_batch
from repro.compiler import MergeToRootCompiler
from repro.core import compress_ansatz
from repro.core.ir import IRTerm, PauliProgram
from repro.hardware import xtree
from repro.sim import ground_state_energy
from repro.vqe import VQE


def hubbard_ansatz(num_sites: int, num_up: int, num_down: int) -> PauliProgram:
    """UCCSD-style ansatz over Hubbard sites (blocked spin ordering)."""
    num_qubits = 2 * num_sites
    terms = []
    excitations = generate_excitations(num_sites, num_up, num_down)
    generators = jordan_wigner_batch([e.generator() for e in excitations], num_qubits)
    for parameter, generator in enumerate(generators):
        for coefficient, pauli in generator:
            terms.append(IRTerm(pauli, float(coefficient.imag), parameter))
    occupations = list(range(num_up)) + [num_sites + i for i in range(num_down)]
    return PauliProgram(num_qubits, len(excitations), terms, occupations)


def main() -> None:
    num_sites, tunneling, interaction = 3, 1.0, 4.0
    hamiltonian = hubbard_hamiltonian(num_sites, tunneling, interaction)
    exact = ground_state_energy(hamiltonian)
    print(
        f"1D Hubbard chain: {num_sites} sites, t={tunneling}, U={interaction} "
        f"-> {hamiltonian.num_qubits} qubits, {len(hamiltonian)} Pauli terms"
    )
    print(f"global ground-state energy: {exact:.6f}\n")

    program = hubbard_ansatz(num_sites, num_up=1, num_down=1)
    print(
        f"ansatz: {program.num_parameters} parameters, {len(program)} Pauli "
        f"strings, {program.cnot_count()} CNOTs (chain synthesis)"
    )

    # The Hubbard Hartree-Fock point is a gradient saddle for the double
    # excitations, so start from a small symmetric-breaking perturbation.
    print(f"\n{'config':>8} {'params':>7} {'E':>10} {'iters':>6}")
    for label, ratio in [("full", 1.0), ("50%", 0.5)]:
        compressed = compress_ansatz(program, hamiltonian, ratio)
        initial = np.full(compressed.num_parameters, 0.05)
        outcome = VQE(compressed.program, hamiltonian).run(initial=initial)
        print(
            f"{label:>8} {compressed.num_parameters:7d} "
            f"{outcome.energy:10.6f} {outcome.iterations:6d}"
        )

    device = xtree(8)
    compiled = MergeToRootCompiler(device).compile(program)
    print(
        f"\ncompiled to {device.name}: {compiled.total_cnots} CNOTs, "
        f"{compiled.num_swaps} routing swaps "
        f"({compiled.overhead_cnots} overhead CNOTs)"
    )

    # VQE conserves particle number, so compare within the 2-particle sector.
    matrix = hamiltonian.to_matrix()
    values, vectors = np.linalg.eigh(matrix)
    particle_numbers = np.array([bin(i).count("1") for i in range(matrix.shape[0])])
    sector_energy = min(
        value
        for value, vector in zip(values, vectors.T)
        if abs(np.dot(np.abs(vector) ** 2, particle_numbers) - 2.0) < 1e-8
    )
    vqe_energy = VQE(program, hamiltonian).run().energy
    print(
        f"2-particle sector: exact {sector_energy:.6f}, VQE {vqe_energy:.6f}, "
        f"error {vqe_energy - sector_energy:+.2e}"
    )


if __name__ == "__main__":
    main()
