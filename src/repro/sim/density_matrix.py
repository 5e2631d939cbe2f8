"""Exact density-matrix simulator with depolarizing noise.

Used for the paper's noisy case studies (Figure 10, LiH and NaH).  The
density matrix rho (dimension ``2^n x 2^n``) is propagated exactly:

* unitary gates act as ``rho -> U rho U+`` (a contraction on the ket
  index followed by the conjugate contraction on the bra index);
* depolarizing channels act as convex mixtures of Pauli conjugations.

Exact propagation removes the shot noise of the paper's sampled qasm
simulation while keeping the identical channel, so the reported signal
(energy error vs compression under noise) is preserved.
"""

from __future__ import annotations

import numpy as np

from repro.circuit import Circuit
from repro.circuit.gates import Gate
from repro.pauli import PauliSum
from repro.sim.noise import DepolarizingNoiseModel, depolarizing_paulis

_MAX_QUBITS = 12


class DensityMatrixSimulator:
    """Propagate density matrices through circuits with optional noise."""

    def __init__(
        self, num_qubits: int, noise: DepolarizingNoiseModel | None = None
    ) -> None:
        if num_qubits > _MAX_QUBITS:
            raise ValueError(
                f"density-matrix simulation capped at {_MAX_QUBITS} qubits "
                f"(requested {num_qubits})"
            )
        self.num_qubits = num_qubits
        self.noise = noise or DepolarizingNoiseModel(two_qubit_error=0.0)
        self.rho = self._initial_rho()

    def _initial_rho(self) -> np.ndarray:
        dim = 1 << self.num_qubits
        rho = np.zeros((dim, dim), dtype=complex)
        rho[0, 0] = 1.0
        return rho

    def reset(self) -> "DensityMatrixSimulator":
        self.rho = self._initial_rho()
        return self

    # ------------------------------------------------------------------
    # Core maps
    # ------------------------------------------------------------------
    def _apply_unitary(self, gate: Gate) -> None:
        """In-place ``rho -> U rho U+``.

        The density matrix is viewed as a rank-2n tensor; ket axes occupy
        the first n positions (axis ``n-1-q`` for qubit q) and bra axes
        the last n (axis ``2n-1-q``).
        """
        n = self.num_qubits
        dim = 1 << n
        matrix = gate.matrix()
        tensor = self.rho.reshape([2] * (2 * n))
        if gate.num_qubits == 1:
            qubit = gate.qubits[0]
            axis_ket = n - 1 - qubit
            axis_bra = 2 * n - 1 - qubit
            tensor = np.tensordot(matrix, tensor, axes=([1], [axis_ket]))
            tensor = np.moveaxis(tensor, 0, axis_ket)
            tensor = np.tensordot(np.conjugate(matrix), tensor, axes=([1], [axis_bra]))
            tensor = np.moveaxis(tensor, 0, axis_bra)
        elif gate.num_qubits == 2:
            qubit_a, qubit_b = gate.qubits
            gate_tensor = matrix.reshape(2, 2, 2, 2)
            axis_a_ket, axis_b_ket = n - 1 - qubit_a, n - 1 - qubit_b
            axis_a_bra, axis_b_bra = 2 * n - 1 - qubit_a, 2 * n - 1 - qubit_b
            tensor = np.tensordot(gate_tensor, tensor, axes=([2, 3], [axis_b_ket, axis_a_ket]))
            tensor = np.moveaxis(tensor, [0, 1], [axis_b_ket, axis_a_ket])
            tensor = np.tensordot(
                np.conjugate(gate_tensor), tensor, axes=([2, 3], [axis_b_bra, axis_a_bra])
            )
            tensor = np.moveaxis(tensor, [0, 1], [axis_b_bra, axis_a_bra])
        else:
            raise ValueError(f"unsupported gate arity: {gate!r}")
        self.rho = np.ascontiguousarray(tensor).reshape(dim, dim)

    def _apply_depolarizing(self, qubits: tuple[int, ...], probability: float) -> None:
        """rho -> (1-p) rho + p/(4^k-1) sum_P P rho P."""
        if probability <= 0.0:
            return
        input_rho = self.rho
        mixed = np.zeros_like(input_rho)
        for local_pauli in depolarizing_paulis(len(qubits)):
            self.rho = input_rho
            for i, qubit in enumerate(qubits):
                op = local_pauli.op_on(i)
                if op != "I":
                    self._apply_unitary(Gate(op.lower(), (qubit,)))
            mixed += self.rho
        weight = probability / (4 ** len(qubits) - 1)
        self.rho = (1.0 - probability) * input_rho + weight * mixed

    # ------------------------------------------------------------------
    # Public interface
    # ------------------------------------------------------------------
    def run(self, circuit: Circuit) -> np.ndarray:
        if circuit.num_qubits != self.num_qubits:
            raise ValueError("qubit count mismatch")
        hardware_view = circuit.decompose_swaps()
        for gate in hardware_view.gates:
            if gate.name in ("barrier", "measure"):
                continue
            self._apply_unitary(gate)
            error = self.noise.error_for(gate.name, gate.num_qubits)
            self._apply_depolarizing(gate.qubits, error)
        return self.rho

    def expectation(self, observable: PauliSum) -> float:
        """``Tr(rho H)`` evaluated term-by-term."""
        value = 0.0 + 0.0j
        for coefficient, pauli in observable:
            value += coefficient * np.trace(pauli.to_matrix() @ self.rho)
        return float(value.real)

    def expectation_matrix(self, observable_matrix: np.ndarray) -> float:
        """``Tr(rho H)`` with a prebuilt dense observable (fast path)."""
        return float(np.einsum("ij,ji->", observable_matrix, self.rho).real)

    def purity(self) -> float:
        return float(np.trace(self.rho @ self.rho).real)

    def trace(self) -> float:
        return float(np.trace(self.rho).real)
