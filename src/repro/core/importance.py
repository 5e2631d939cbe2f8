"""Parameter importance estimation (Algorithm 1 of the paper).

For an ansatz Pauli string ``Pa`` and a Hamiltonian string ``PH`` the
*importance decay factor* ``d`` counts the qubits on which tuning Pa's
parameter is unlikely to move PH's measured value:

1. Pa has ``I`` on the qubit (the simulation circuit touches nothing);
2. PH has ``I`` on the qubit (the measurement ignores the qubit);
3. the two operators are equal (rotation about an axis does not change
   the projection onto that same axis -- Figure 5).

Equivalently, ``d = n - #{qubits where both are non-identity and
different}``, which is three bitmask operations in the symplectic
representation.  The string's score is ``sum_PH base^-d * |w_H|`` and a
parameter's importance is the sum over its strings.

:func:`decay_factor` is the scalar definition.  The scores themselves
come from one numpy kernel over symplectic mask tables (``uint64`` words,
so any qubit count takes the same path), which keeps the paper's
O(n * #Pa * #PH) cost but runs it as array operations.  The kernel is
bit-identical to the scalar double loop (score ``+=`` term by term,
importance ``+=`` string by string) because it keeps that loop's
floating-point order exactly:

* each weight ``base^-d`` comes from a power table built with Python's
  ``decay_base ** -k``, and each ``|w_H|`` from the coefficient's own
  ``abs()`` (``np.power`` and ``np.abs`` can differ in the last ulp);
* each row is accumulated sequentially in Hamiltonian iteration order
  (``np.cumsum``, not the pairwise ``np.sum`` or a matmul);
* string scores are scattered into parameters with ``np.add.at`` in
  program order.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.core.bits import popcount
from repro.core.ir import PauliProgram
from repro.pauli import PauliString, PauliSum
from repro.pauli.pauli_string import mask_words

#: Size of one ``(rows, terms)`` uint64 intermediate.  It fixes the
#: row-block size, so working memory stays flat and cache-resident at
#: any problem size.
_BLOCK_BYTES = 1 << 18


def decay_factor(ansatz_pauli: PauliString, hamiltonian_pauli: PauliString) -> int:
    """The exponent ``d`` comparing one ansatz / Hamiltonian string pair."""
    if ansatz_pauli.num_qubits != hamiltonian_pauli.num_qubits:
        raise ValueError("qubit count mismatch")
    both_non_identity = ansatz_pauli.support_mask & hamiltonian_pauli.support_mask
    differ = (ansatz_pauli.x ^ hamiltonian_pauli.x) | (
        ansatz_pauli.z ^ hamiltonian_pauli.z
    )
    active_difference = both_non_identity & differ
    return ansatz_pauli.num_qubits - active_difference.bit_count()


def _string_scores(
    paulis: Sequence[PauliString], hamiltonian: PauliSum, decay_base: float
) -> np.ndarray:
    """Alg. 1 score of every string in ``paulis`` (one row each)."""
    if decay_base <= 1.0:
        raise ValueError("decay base must exceed 1")
    n = hamiltonian.num_qubits
    hx, hz, _ = hamiltonian.to_tables()
    h_support = hx | hz
    # The constant term is insensitive to every parameter.
    varying = h_support.any(axis=0)
    hx, hz, h_support = hx[:, varying], hz[:, varying], h_support[:, varying]
    # Each coefficient's own abs(): np.abs on complex128 can differ from
    # Python's complex abs in the last ulp.
    magnitudes = np.array([abs(c) for _, c in hamiltonian.items()], dtype=float)[varying]
    scores = np.zeros(len(paulis))
    if not len(magnitudes):
        return scores
    ax = mask_words([pauli.x for pauli in paulis], n)
    az = mask_words([pauli.z for pauli in paulis], n)
    a_support = ax | az
    # weight_of_count[c] = base^-d for d = n - c active differences.
    weight_of_count = np.array([decay_base ** -(n - c) for c in range(n + 1)])
    rows = max(1, _BLOCK_BYTES // (8 * len(magnitudes)))
    for start in range(0, len(paulis), rows):
        stop = min(start + rows, len(paulis))
        block = slice(start, stop)
        count = np.zeros((stop - start, len(magnitudes)), dtype=np.intp)
        for word in range(len(ax)):
            active = ax[word, block, None] ^ hx[word]
            active |= az[word, block, None] ^ hz[word]
            active &= a_support[word, block, None]
            active &= h_support[word]
            count += popcount(active)
        weights = weight_of_count[count]
        weights *= magnitudes
        scores[block] = np.cumsum(weights, axis=1)[:, -1]
    return scores


def string_score(
    ansatz_pauli: PauliString, hamiltonian: PauliSum, *, decay_base: float = 2.0
) -> float:
    """Importance score of one ansatz Pauli string against H (Alg. 1).

    ``decay_base`` parameterizes the exponential decay ``base^-d`` (the
    paper uses 2; the ablation benchmark sweeps it).
    """
    if ansatz_pauli.num_qubits != hamiltonian.num_qubits:
        raise ValueError("qubit count mismatch")
    return float(_string_scores([ansatz_pauli], hamiltonian, decay_base)[0])


def parameter_importance(
    program: PauliProgram, hamiltonian: PauliSum, *, decay_base: float = 2.0
) -> np.ndarray:
    """Importance of every parameter: sum of its strings' scores.

    Complexity O(n * #Pa * #PH), as stated in Section III-A.
    """
    if program.num_qubits != hamiltonian.num_qubits:
        raise ValueError("program and Hamiltonian qubit counts differ")
    scores = _string_scores(program.paulis(), hamiltonian, decay_base)
    importance = np.zeros(program.num_parameters)
    parameters = np.array([term.parameter_index for term in program], dtype=np.intp)
    np.add.at(importance, parameters, scores)
    return importance
