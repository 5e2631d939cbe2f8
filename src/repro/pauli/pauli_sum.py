"""Weighted sums of Pauli strings (Hamiltonians and ansatz generators).

A :class:`PauliSum` holds a mapping from symplectic keys ``(x, z)`` to
complex coefficients.  The molecular Hamiltonian ``H = sum_j w_j P_j`` and
the anti-Hermitian UCCSD generators are both PauliSums; the paper's
importance estimation (Algorithm 1) compares the strings of the two sums.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator

import numpy as np

from repro.pauli.pauli_string import PauliString, mask_words

_DEFAULT_TOLERANCE = 1e-12


class PauliSum:
    """A complex-weighted sum of n-qubit Pauli strings."""

    __slots__ = ("num_qubits", "_terms")

    def __init__(self, num_qubits: int, terms: dict[tuple[int, int], complex] | None = None):
        self.num_qubits = num_qubits
        self._terms: dict[tuple[int, int], complex] = dict(terms) if terms else {}

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def zero(cls, num_qubits: int) -> "PauliSum":
        return cls(num_qubits)

    @classmethod
    def identity(cls, num_qubits: int, coefficient: complex = 1.0) -> "PauliSum":
        return cls(num_qubits, {(0, 0): coefficient})

    @classmethod
    def from_pauli(cls, pauli: PauliString, coefficient: complex = 1.0) -> "PauliSum":
        return cls(pauli.num_qubits, {pauli.key(): coefficient})

    @classmethod
    def from_terms(
        cls, terms: Iterable[tuple[complex, PauliString]], num_qubits: int | None = None
    ) -> "PauliSum":
        terms = list(terms)
        if num_qubits is None:
            if not terms:
                raise ValueError("num_qubits required for an empty term list")
            num_qubits = terms[0][1].num_qubits
        result = cls(num_qubits)
        for coefficient, pauli in terms:
            result.add_term(coefficient, pauli)
        return result

    @classmethod
    def from_label_dict(cls, labels: dict[str, complex]) -> "PauliSum":
        """Build from ``{"XIYZ": w, ...}`` labels (all the same length)."""
        paulis = [(w, PauliString.from_label(label)) for label, w in labels.items()]
        if not paulis:
            raise ValueError("empty label dict")
        return cls.from_terms(paulis)

    # ------------------------------------------------------------------
    # Mutation (builder-style; the sums are mutable during construction)
    # ------------------------------------------------------------------
    def add_term(self, coefficient: complex, pauli: PauliString) -> None:
        if pauli.num_qubits != self.num_qubits:
            raise ValueError("qubit count mismatch")
        key = pauli.key()
        value = self._terms.get(key, 0.0) + coefficient
        if value == 0:
            self._terms.pop(key, None)
        else:
            self._terms[key] = value

    def add_key(self, coefficient: complex, key: tuple[int, int]) -> None:
        value = self._terms.get(key, 0.0) + coefficient
        if value == 0:
            self._terms.pop(key, None)
        else:
            self._terms[key] = value

    def chop(self, tolerance: float = _DEFAULT_TOLERANCE) -> "PauliSum":
        """Drop terms with magnitude below ``tolerance`` (returns self)."""
        self._terms = {k: v for k, v in self._terms.items() if abs(v) > tolerance}
        return self

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self._terms)

    def __iter__(self) -> Iterator[tuple[complex, PauliString]]:
        """Iterate ``(coefficient, PauliString)`` in deterministic order."""
        for (x, z) in sorted(self._terms):
            yield self._terms[(x, z)], PauliString(self.num_qubits, x, z)

    def items(self) -> Iterator[tuple[tuple[int, int], complex]]:
        return iter(sorted(self._terms.items()))

    def coefficient(self, pauli: PauliString) -> complex:
        return self._terms.get(pauli.key(), 0.0)

    def paulis(self) -> list[PauliString]:
        return [pauli for _, pauli in self]

    def to_tables(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Symplectic ``(x, z, coeff)`` tables of the terms, in iteration order.

        ``x`` and ``z`` are ``(W, T)`` ``uint64`` word tables (see
        :func:`~repro.pauli.pauli_string.mask_words`); ``coeff`` is the
        ``(T,)`` ``complex128`` coefficient vector.
        """
        keys = sorted(self._terms)
        return (
            mask_words([x for x, _ in keys], self.num_qubits),
            mask_words([z for _, z in keys], self.num_qubits),
            np.array([self._terms[key] for key in keys], dtype=np.complex128),
        )

    def is_hermitian(self, tolerance: float = 1e-10) -> bool:
        return all(abs(v.imag) < tolerance for v in self._terms.values())

    def norm1(self) -> float:
        """Sum of coefficient magnitudes (induced 1-norm on Pauli weights)."""
        return sum(abs(v) for v in self._terms.values())

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "PauliSum") -> None:
        if self.num_qubits != other.num_qubits:
            raise ValueError("qubit count mismatch")

    def __add__(self, other: "PauliSum") -> "PauliSum":
        self._check_compatible(other)
        result = PauliSum(self.num_qubits, self._terms)
        result.add_sum(other)
        return result

    def add_sum(self, other: "PauliSum") -> None:
        """Accumulate ``other`` into this sum in place (no copy of self)."""
        self._check_compatible(other)
        for key, value in other._terms.items():
            self.add_key(value, key)

    def __sub__(self, other: "PauliSum") -> "PauliSum":
        return self + (other * -1.0)

    def __mul__(self, scalar: complex) -> "PauliSum":
        if isinstance(scalar, PauliSum):
            return self.compose(scalar)
        return PauliSum(
            self.num_qubits, {k: v * scalar for k, v in self._terms.items() if v * scalar != 0}
        )

    __rmul__ = __mul__

    def compose(self, other: "PauliSum") -> "PauliSum":
        """Operator product ``self @ other`` expanded into Pauli terms."""
        self._check_compatible(other)
        result = PauliSum(self.num_qubits)
        n = self.num_qubits
        for (x1, z1), c1 in self._terms.items():
            p1 = PauliString(n, x1, z1)
            for (x2, z2), c2 in other._terms.items():
                phase, product = p1.compose(PauliString(n, x2, z2))
                result.add_key(c1 * c2 * phase, product.key())
        return result

    def __matmul__(self, other: "PauliSum") -> "PauliSum":
        return self.compose(other)

    def dagger(self) -> "PauliSum":
        """Hermitian conjugate (Pauli strings are self-adjoint)."""
        return PauliSum(self.num_qubits, {k: v.conjugate() for k, v in self._terms.items()})

    def commutator(self, other: "PauliSum") -> "PauliSum":
        return (self @ other - other @ self).chop()

    # ------------------------------------------------------------------
    # Numerics
    # ------------------------------------------------------------------
    def to_matrix(self):
        """Dense matrix (test/diagnostic use, small n only)."""
        if self.num_qubits > 12:
            raise ValueError("to_matrix is only intended for small qubit counts")
        dim = 1 << self.num_qubits
        matrix = np.zeros((dim, dim), dtype=complex)
        for coefficient, pauli in self:
            matrix += coefficient * pauli.to_matrix()
        return matrix

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PauliSum):
            return NotImplemented
        if self.num_qubits != other.num_qubits:
            return False
        keys = set(self._terms) | set(other._terms)
        return all(
            math.isclose(
                abs(self._terms.get(k, 0.0) - other._terms.get(k, 0.0)), 0.0, abs_tol=1e-10
            )
            for k in keys
        )

    def __repr__(self) -> str:
        preview = ", ".join(
            f"{coefficient:+.4g}*{pauli}" for coefficient, pauli in list(self)[:4]
        )
        suffix = ", ..." if len(self) > 4 else ""
        return f"PauliSum({len(self)} terms: {preview}{suffix})"
