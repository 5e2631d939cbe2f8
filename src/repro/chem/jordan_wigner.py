"""Jordan-Wigner encoding [54] of fermionic operators into Pauli sums.

Spin orbital p maps to qubit p with

    a_p  = Z_{p-1} ... Z_0 (X_p + i Y_p) / 2
    a_p+ = Z_{p-1} ... Z_0 (X_p - i Y_p) / 2

so a product of L ladder operators expands into the 2^L products of
their X and Y halves.  :func:`jordan_wigner_batch` maps a whole list of
operators with one numpy kernel over word-major ``uint64`` symplectic
tables (see :func:`~repro.pauli.pauli_string.mask_words`), one path at
every qubit count.  It gives the same bits as the per-term
``PauliSum.compose`` expansion it replaced (kept as the oracle
``scalar_jordan_wigner`` in ``tests/test_fermion_jw.py``):

* Ladder terms are grouped by their *orbital pattern*: for each step,
  the step at which its orbital first occurs, e.g. ``(0, 1, 1, 0)`` for
  ``a_p+ a_q+ a_q a_p``.  A group holds a ``(terms, 2^d)`` value table,
  one column per parity choice over the ``d`` distinct orbitals seen so
  far.
* Each step applies ``v = v * f * phase`` to the X and the Y half,
  with ``f`` the half's factor (``0.5``, ``-0.5j`` or ``0.5j``, as in
  :func:`ladder_operator`) and ``phase`` the ``(1j)**k`` of
  :meth:`PauliString.compose <repro.pauli.PauliString.compose>` from
  its six popcounts.  A new orbital doubles the table; a repeated one
  lands every X product on the key of one Y product, and the two are
  added right there, the step where the compose loop merges them.
  Summing all 2^L products only at the end would add in another order,
  which can differ in the last ulp once an orbital occurs three times.
* Term results are summed per (operator, key) one after another in
  sorted-ladder order (a stable ``np.lexsort``, then ``np.add.at`` into
  ``+0.0`` zeros), and each sum finishes with :meth:`PauliSum.chop`.
  Keys are inserted in sorted ``(x, z)`` order, the order
  ``items()``, iteration and ``to_tables()`` read them in.
* The loop adds every product into ``get(key, 0.0)``, which turns a
  ``-0.0`` component into ``+0.0``.  The kernel leaves that to the
  ``+0.0`` start of the final sums: the factors are exact (powers of
  two times 1, -1, i or -i), so a zero component's sign never reaches
  a nonzero one on the way there.  For the same reason the exact-zero
  products the loop pops would add nothing; they are dropped before
  the sort only to save work.

The kernel pays a fixed cost per pattern group, so callers map many
operators in one call: :func:`~repro.ansatz.uccsd.build_uccsd_program`
passes every excitation generator at once.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.chem.fermion import FermionOperator
from repro.core.bits import popcount
from repro.pauli import PauliString, PauliSum
from repro.pauli.pauli_string import masks_from_words

#: Factor of each ladder operator's X half, and of its Y half indexed by
#: the creation flag (``a_p``: ``+0.5j``, ``a_p+``: ``-0.5j``).
_X_HALF = 0.5
_Y_HALF = np.array([0.5j, -0.5j])
#: ``(1j)**k`` exactly as :meth:`PauliString.compose` evaluates it.
_PHASES = np.array([(1j) ** k for k in range(4)])
_ALL_ONES = np.uint64(0xFFFFFFFFFFFFFFFF)


def ladder_operator(num_qubits: int, orbital: int, creation: bool) -> PauliSum:
    """JW image of ``a_p`` or ``a_p+`` as a two-term Pauli sum."""
    _check_orbital(orbital, num_qubits)
    z_chain = (1 << orbital) - 1  # Z on qubits 0..p-1
    x_term = PauliString(num_qubits, x=1 << orbital, z=z_chain)
    y_term = PauliString(num_qubits, x=1 << orbital, z=z_chain | (1 << orbital))
    sign = -0.5j if creation else 0.5j
    return PauliSum(num_qubits, {x_term.key(): _X_HALF, y_term.key(): sign})


def jordan_wigner(operator: FermionOperator, num_qubits: int | None = None) -> PauliSum:
    """Map a fermionic operator to its qubit representation.

    The number of qubits defaults to ``max_orbital + 1``.
    """
    return jordan_wigner_batch([operator], num_qubits)[0]


def jordan_wigner_batch(
    operators: Sequence[FermionOperator], num_qubits: int | None = None
) -> list[PauliSum]:
    """Map every operator of ``operators`` with one batched kernel.

    ``num_qubits`` applies to all of them; when omitted, each operator
    gets its own ``max_orbital + 1``.
    """
    sizes = [_qubit_count(operator, num_qubits) for operator in operators]
    rows_by_pattern: dict[tuple[int, ...], list[tuple]] = {}
    term_operator: list[int] = []
    for index, (operator, size) in enumerate(zip(operators, sizes)):
        for coefficient, ladder in operator:
            orbitals, creation = zip(*ladder) if ladder else ((), ())
            if orbitals and (min(orbitals) < 0 or max(orbitals) >= size):
                for orbital in orbitals:
                    _check_orbital(orbital, size)
            pattern = tuple(map(orbitals.index, orbitals))
            rows_by_pattern.setdefault(pattern, []).append(
                (len(term_operator), coefficient, orbitals, creation)
            )
            term_operator.append(index)
    if not term_operator:
        return [PauliSum.zero(size) for size in sizes]

    num_words = max(1, -(-max(sizes) // 64))
    # Overflow to inf (and inf * 0 = nan) stays silent, as in the float
    # arithmetic of the compose loop.
    with np.errstate(over="ignore", invalid="ignore"):
        parts = [
            _expand_group(pattern, *_group_tables(rows), num_words)
            for pattern, rows in rows_by_pattern.items()
        ]
    term_ids, xs, zs, values = (np.concatenate(arrays, axis=-1) for arrays in zip(*parts))
    owner = np.asarray(term_operator, dtype=np.int64)[term_ids]

    # Sort by (operator, x, z) with the term index breaking ties, so each
    # key's contributions arrive in sorted-ladder order.
    order = np.lexsort((term_ids, *zs, *xs, owner))
    owner, xs, zs, values = owner[order], xs[:, order], zs[:, order], values[order]
    starts = np.ones(len(values), dtype=bool)
    starts[1:] = (owner[1:] != owner[:-1]) | (xs[:, 1:] != xs[:, :-1]).any(axis=0)
    starts[1:] |= (zs[:, 1:] != zs[:, :-1]).any(axis=0)
    first = np.flatnonzero(starts)
    totals = np.zeros(len(first), dtype=np.complex128)
    with np.errstate(over="ignore", invalid="ignore"):
        np.add.at(totals, np.cumsum(starts) - 1, values)

    keys = list(zip(masks_from_words(xs[:, first]), masks_from_words(zs[:, first])))
    coefficients = totals.tolist()
    bounds = np.searchsorted(owner[first], np.arange(len(operators) + 1)).tolist()
    return [
        PauliSum(size, dict(zip(keys[lo:hi], coefficients[lo:hi]))).chop()
        for size, lo, hi in zip(sizes, bounds, bounds[1:])
    ]


def _group_tables(rows: list[tuple]) -> tuple[np.ndarray, ...]:
    """``(term ids, coefficients, orbitals, creation flags)`` of one pattern group."""
    term_ids, coefficients, orbitals, creation = zip(*rows)
    return (
        np.array(term_ids, dtype=np.int64),
        np.array(coefficients, dtype=np.complex128),
        np.array(orbitals, dtype=np.int64),
        np.array(creation, dtype=np.int64),
    )


def _expand_group(
    pattern: tuple[int, ...],
    term_ids: np.ndarray,
    coefficients: np.ndarray,
    orbitals: np.ndarray,
    creation: np.ndarray,
    num_words: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Nonzero ``(term id, x, z, value)`` products of one pattern group.

    ``x`` and ``z`` come back as ``(num_words, K)`` tables.
    """
    num_terms = len(term_ids)
    word_index = np.arange(num_words)[:, None]
    values = coefficients[:, None]
    x = np.zeros((num_words, num_terms, 1), dtype=np.uint64)
    z = np.zeros((num_words, num_terms, 1), dtype=np.uint64)
    first_steps: list[int] = []  # step of each distinct orbital, column bits high to low
    for step, first in enumerate(pattern):
        word, offset = np.divmod(orbitals[:, step], 64)
        in_word = word_index == word
        bit = np.where(in_word, np.uint64(1) << offset.astype(np.uint64), np.uint64(0))
        chain = np.where(word_index < word, _ALL_ONES, np.where(in_word, bit - np.uint64(1), 0))
        bit, chain = bit[:, :, None], chain[:, :, None]  # X half: (bit, chain); Y: chain | bit
        x_values = values * _X_HALF * _PHASES[_phase_index(x, z, bit, chain)]
        y_half = _Y_HALF[creation[:, step]][:, None]
        y_values = values * y_half * _PHASES[_phase_index(x, z, bit, chain | bit)]
        x = x ^ bit
        z = z ^ chain
        if first == step:  # new orbital: X and Y columns interleave
            first_steps.append(step)
            values = np.stack((x_values, y_values), axis=-1).reshape(num_terms, -1)
            z = np.stack((z, z ^ bit), axis=-1).reshape(num_words, num_terms, -1)
        else:  # repeated orbital: the Y product of column s ^ m shares column s's key
            mask = 1 << (len(first_steps) - 1 - first_steps.index(first))
            values = x_values + y_values[:, np.arange(values.shape[1]) ^ mask]
    keep = (values != 0).ravel()
    return (
        np.repeat(term_ids, values.shape[1])[keep],
        np.broadcast_to(x, z.shape).reshape(num_words, -1)[:, keep],
        z.reshape(num_words, -1)[:, keep],
        values.ravel()[keep],
    )


def _phase_index(x1: np.ndarray, z1: np.ndarray, x2: np.ndarray, z2: np.ndarray) -> np.ndarray:
    """``k`` of the phase ``(1j)**k`` in ``P1 * P2``, over word tables.

    The six popcounts of :meth:`PauliString.compose`, summed over the
    leading word axis.
    """
    x_only_1, y_1, z_only_1 = x1 & ~z1, x1 & z1, z1 & ~x1
    x_only_2, y_2, z_only_2 = x2 & ~z2, x2 & z2, z2 & ~x2
    plus = (
        popcount(x_only_1 & y_2).astype(np.int64)
        + popcount(y_1 & z_only_2)
        + popcount(z_only_1 & x_only_2)
    )
    minus = (
        popcount(y_1 & x_only_2).astype(np.int64)
        + popcount(z_only_1 & y_2)
        + popcount(x_only_1 & z_only_2)
    )
    return (plus - minus).sum(axis=0) % 4


def _qubit_count(operator: FermionOperator, num_qubits: int | None) -> int:
    if num_qubits is not None:
        return num_qubits
    inferred = operator.max_orbital() + 1
    if inferred <= 0:
        raise ValueError("cannot infer qubit count from a scalar operator")
    return inferred


def _check_orbital(orbital: int, num_qubits: int) -> None:
    if not 0 <= orbital < num_qubits:
        raise ValueError(f"orbital {orbital} out of range for {num_qubits} qubits")
