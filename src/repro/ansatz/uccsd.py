"""UCCSD ansatz as a Pauli-string program.

Each excitation generator ``T_k - T_k+`` maps under Jordan-Wigner to
``i * sum_j c_{kj} P_{kj}`` with real ``c_{kj}``; the (single-step
Trotterized) UCCSD unitary is

    U(theta) = prod_k prod_j exp(i theta_k c_{kj} P_{kj}).

Singles expand to 2 strings and doubles to 8, reproducing the paper's
"# of Pauli" column in Table I exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.ansatz.excitations import Excitation, generate_excitations
from repro.chem.hamiltonian import MolecularProblem
from repro.chem.jordan_wigner import jordan_wigner_batch
from repro.core.ir import IRTerm, PauliProgram
from repro.pauli import PauliSum

_IMAG_TOLERANCE = 1e-10


@dataclass
class UCCSDAnsatz:
    """The full (uncompressed) UCCSD ansatz of a molecular problem."""

    program: PauliProgram
    excitations: list[Excitation]
    generators: list[PauliSum]   # Hermitian G_k with T_k - T_k+ = i G_k

    @property
    def num_parameters(self) -> int:
        return self.program.num_parameters

    @property
    def num_pauli_strings(self) -> int:
        return len(self.program)


def build_uccsd_program(problem: MolecularProblem) -> UCCSDAnsatz:
    """Build the UCCSD Pauli-string IR for a molecular problem."""
    num_qubits = problem.num_qubits
    excitations = generate_excitations(
        problem.num_spatial_orbitals, problem.num_alpha, problem.num_beta
    )
    # One batched Jordan-Wigner call: the kernel's cost is per call, not
    # per generator.
    qubit_generators = jordan_wigner_batch(
        [excitation.generator() for excitation in excitations], num_qubits
    )
    terms: list[IRTerm] = []
    generators: list[PauliSum] = []
    for parameter_index, (excitation, qubit_generator) in enumerate(
        zip(excitations, qubit_generators)
    ):
        # T - T+ is anti-Hermitian: all coefficients purely imaginary.
        hermitian = PauliSum.zero(num_qubits)
        for coefficient, pauli in qubit_generator:
            if abs(coefficient.real) > _IMAG_TOLERANCE:
                raise ValueError(
                    f"generator for excitation {excitation} is not anti-Hermitian"
                )
            c = float(coefficient.imag)
            hermitian.add_term(c, pauli)
            terms.append(IRTerm(pauli, c, parameter_index))
        generators.append(hermitian)
    program = PauliProgram(
        num_qubits=num_qubits,
        num_parameters=len(excitations),
        terms=terms,
        initial_occupations=problem.hartree_fock_occupations(),
    )
    return UCCSDAnsatz(program=program, excitations=excitations, generators=generators)
