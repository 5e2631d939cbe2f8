"""Jordan-Wigner encoding [54] of fermionic operators into Pauli sums.

Spin orbital p maps to qubit p with

    a_p  = Z_{p-1} ... Z_0 (X_p + i Y_p) / 2
    a_p+ = Z_{p-1} ... Z_0 (X_p - i Y_p) / 2

Products of ladder operators are expanded with the symplectic Pauli
algebra, which keeps the implementation generic (any ladder product, any
ordering) and lets the tests verify canonical anticommutation relations
directly.
"""

from __future__ import annotations

from repro.chem.fermion import FermionOperator
from repro.pauli import PauliString, PauliSum


def ladder_operator(num_qubits: int, orbital: int, creation: bool) -> PauliSum:
    """JW image of ``a_p`` or ``a_p+`` as a two-term Pauli sum."""
    if not 0 <= orbital < num_qubits:
        raise ValueError(f"orbital {orbital} out of range for {num_qubits} qubits")
    z_chain = (1 << orbital) - 1  # Z on qubits 0..p-1
    x_term = PauliString(num_qubits, x=1 << orbital, z=z_chain)
    y_term = PauliString(num_qubits, x=1 << orbital, z=z_chain | (1 << orbital))
    sign = -0.5j if creation else 0.5j
    return PauliSum(num_qubits, {x_term.key(): 0.5, y_term.key(): sign})


def jordan_wigner(operator: FermionOperator, num_qubits: int | None = None) -> PauliSum:
    """Map a fermionic operator to its qubit representation.

    The number of qubits defaults to ``max_orbital + 1``.
    """
    if num_qubits is None:
        num_qubits = operator.max_orbital() + 1
        if num_qubits <= 0:
            raise ValueError("cannot infer qubit count from a scalar operator")
    result = PauliSum.zero(num_qubits)
    for coefficient, ladder in operator:
        term = PauliSum.identity(num_qubits, coefficient)
        for orbital, creation in ladder:
            term = term @ ladder_operator(num_qubits, orbital, creation)
        result.add_sum(term)
    return result.chop()
