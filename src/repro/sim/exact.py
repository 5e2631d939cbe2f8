"""Exact ground-state solver for qubit Hamiltonians.

Provides the "Ground State" reference line of Figure 9: the lowest
eigenvalue of ``H = sum w_j P_j`` computed with a matrix-free Lanczos
(scipy ``eigsh`` over a LinearOperator built on the grouped Pauli
evaluator), falling back to dense diagonalization for tiny systems.
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np
from scipy.sparse.linalg import LinearOperator, eigsh

from repro.pauli import PauliSum
from repro.sim.expectation import ExpectationEngine

if TYPE_CHECKING:
    from repro.chem.hamiltonian import MolecularProblem

_DENSE_QUBIT_LIMIT = 6

#: Fixed seed of the Lanczos starting vector.  ``eigsh`` defaults to a
#: *random* ``v0``, which makes the last float bits of the reference
#: energy run-to-run (and process-to-process) dependent -- poison for
#: the executor-determinism guarantees of ``bond_scan``/``run_batch``.
_LANCZOS_V0_SEED = 97


def _lanczos_v0(dim: int) -> np.ndarray:
    """A deterministic dense starting vector for ``eigsh``."""
    return np.random.default_rng(_LANCZOS_V0_SEED).standard_normal(dim)


def ground_state_energy(hamiltonian: PauliSum, *, k: int = 1) -> float:
    """Lowest eigenvalue of the Hamiltonian (Hartree for molecules)."""
    return ground_state(hamiltonian, k=k)[0]


#: Exact ground-state energies keyed by (molecule name, bond length):
#: bond scans and pipeline sweeps revisit one molecular instance under
#: several ansatz configurations, and each process diagonalizes it once.
#: Safe because the chem layer memoizes the Hamiltonian on the same key.
_MOLECULE_ENERGY_CACHE: dict[tuple[str, float], float] = {}


def molecule_ground_state_energy(problem: "MolecularProblem") -> float:
    """Memoized :func:`ground_state_energy` of a molecular problem."""
    key = (problem.molecule.name, float(problem.molecule.bond_length))
    energy = _MOLECULE_ENERGY_CACHE.get(key)
    if energy is None:
        energy = float(ground_state_energy(problem.hamiltonian))
        # lint: ignore[RR101] - idempotent memo: racing writers store equal values
        _MOLECULE_ENERGY_CACHE[key] = energy
    return energy


def ground_state(hamiltonian: PauliSum, *, k: int = 1) -> tuple[float, np.ndarray]:
    """Lowest eigenvalue and eigenvector of the Hamiltonian.

    Deterministic: the dense path exactly so, the Lanczos path through a
    fixed seeded starting vector (identical results in every process).
    """
    n = hamiltonian.num_qubits
    dim = 1 << n
    if n <= _DENSE_QUBIT_LIMIT:
        matrix = hamiltonian.to_matrix()
        values, vectors = np.linalg.eigh(matrix)
        return float(values[0]), vectors[:, 0]

    engine = ExpectationEngine(hamiltonian)

    def matvec(vector: np.ndarray) -> np.ndarray:
        return engine.apply(vector.astype(complex))

    operator = LinearOperator((dim, dim), matvec=matvec, dtype=complex)
    values, vectors = eigsh(operator, k=max(k, 1), which="SA", v0=_lanczos_v0(dim))
    order = np.argsort(values)
    return float(values[order[0]]), vectors[:, order[0]]


def spectrum(hamiltonian: PauliSum, k: int = 4) -> np.ndarray:
    """The ``k`` lowest eigenvalues (diagnostics / tests)."""
    n = hamiltonian.num_qubits
    if n <= _DENSE_QUBIT_LIMIT:
        return np.sort(np.linalg.eigvalsh(hamiltonian.to_matrix()))[:k]
    engine = ExpectationEngine(hamiltonian)
    dim = 1 << n
    operator = LinearOperator(
        (dim, dim), matvec=lambda v: engine.apply(v.astype(complex)), dtype=complex
    )
    values, _ = eigsh(operator, k=k, which="SA", v0=_lanczos_v0(dim))
    return np.sort(values)
