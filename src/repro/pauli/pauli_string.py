"""Symplectic representation of a single n-qubit Pauli string.

A Pauli string ``P = G_{n-1} G_{n-2} ... G_0`` with ``G_i`` in
``{I, X, Y, Z}`` is stored as a pair of integer bitmasks ``(x, z)``:

* bit ``i`` of ``x`` is set when ``G_i`` is ``X`` or ``Y``;
* bit ``i`` of ``z`` is set when ``G_i`` is ``Z`` or ``Y``.

This matches the paper's indexing convention: in the textual label the
*leftmost* character acts on the *highest* qubit (``"XIYZ"`` on four qubits
means ``q3=X, q2=I, q1=Y, q0=Z``, exactly as in Figure 2 of the paper).

The representation makes the operations the co-optimization stack needs --
products, commutation checks, support masks, per-qubit comparisons --
cheap bit arithmetic rather than per-character string work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

_LABEL_TO_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_BITS_TO_LABEL = {(0, 0): "I", (1, 0): "X", (1, 1): "Y", (0, 1): "Z"}


@dataclass(frozen=True)
class PauliString:
    """An immutable n-qubit Pauli string in symplectic form.

    Attributes:
        num_qubits: number of qubits n.
        x: bitmask of qubits carrying an X component (X or Y).
        z: bitmask of qubits carrying a Z component (Z or Y).
    """

    num_qubits: int
    x: int = 0
    z: int = 0

    def __post_init__(self) -> None:
        if self.num_qubits < 0:
            raise ValueError("num_qubits must be non-negative")
        mask = (1 << self.num_qubits) - 1
        if self.x & ~mask or self.z & ~mask:
            raise ValueError(
                f"bitmasks exceed {self.num_qubits} qubits: x={self.x:#x} z={self.z:#x}"
            )

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------
    @classmethod
    def from_label(cls, label: str) -> "PauliString":
        """Build from a textual label such as ``"XIYZ"`` (qubit 0 rightmost)."""
        x = 0
        z = 0
        n = len(label)
        for position, char in enumerate(label):
            qubit = n - 1 - position
            try:
                xbit, zbit = _LABEL_TO_BITS[char]
            except KeyError:
                raise ValueError(f"invalid Pauli character {char!r} in {label!r}") from None
            x |= xbit << qubit
            z |= zbit << qubit
        return cls(n, x, z)

    @classmethod
    def from_ops(cls, num_qubits: int, ops: dict[int, str]) -> "PauliString":
        """Build from a sparse ``{qubit: 'X'|'Y'|'Z'}`` mapping."""
        x = 0
        z = 0
        for qubit, char in ops.items():
            if not 0 <= qubit < num_qubits:
                raise ValueError(f"qubit {qubit} out of range for {num_qubits} qubits")
            xbit, zbit = _LABEL_TO_BITS[char]
            if (xbit, zbit) == (0, 0):
                continue
            x |= xbit << qubit
            z |= zbit << qubit
        return cls(num_qubits, x, z)

    @classmethod
    def identity(cls, num_qubits: int) -> "PauliString":
        return cls(num_qubits, 0, 0)

    @classmethod
    def single(cls, num_qubits: int, qubit: int, op: str) -> "PauliString":
        """A single-qubit Pauli ``op`` on ``qubit``, identity elsewhere."""
        return cls.from_ops(num_qubits, {qubit: op})

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def op_on(self, qubit: int) -> str:
        """The single-qubit operator ('I', 'X', 'Y' or 'Z') on ``qubit``."""
        if not 0 <= qubit < self.num_qubits:
            raise ValueError(f"qubit {qubit} out of range")
        xbit = (self.x >> qubit) & 1
        zbit = (self.z >> qubit) & 1
        return _BITS_TO_LABEL[(xbit, zbit)]

    def label(self) -> str:
        """Textual label, qubit 0 rightmost (paper convention)."""
        return "".join(self.op_on(q) for q in reversed(range(self.num_qubits)))

    @property
    def support_mask(self) -> int:
        """Bitmask of qubits with a non-identity operator."""
        return self.x | self.z

    def support(self) -> list[int]:
        """Sorted list of qubits with a non-identity operator."""
        mask = self.support_mask
        return [q for q in range(self.num_qubits) if (mask >> q) & 1]

    @property
    def weight(self) -> int:
        """Number of non-identity operators (the string's Hamming weight)."""
        return self.support_mask.bit_count()

    @property
    def num_xy(self) -> int:
        """Number of qubits carrying X or Y (they need basis-change gates)."""
        return self.x.bit_count()

    def is_identity(self) -> bool:
        return self.x == 0 and self.z == 0

    def y_count(self) -> int:
        """Number of Y operators in the string."""
        return (self.x & self.z).bit_count()

    # ------------------------------------------------------------------
    # Algebra
    # ------------------------------------------------------------------
    def commutes_with(self, other: "PauliString") -> bool:
        """True when the two strings commute (symplectic inner product even)."""
        self._check_compatible(other)
        overlap = (self.x & other.z).bit_count() + (self.z & other.x).bit_count()
        return overlap % 2 == 0

    def compose(self, other: "PauliString") -> tuple[complex, "PauliString"]:
        """The product ``self * other`` as ``(phase, string)``.

        The phase is a power of ``i`` determined per qubit by the
        single-qubit products (e.g. ``X*Y = iZ``).
        """
        self._check_compatible(other)
        x1, z1 = self.x, self.z
        x2, z2 = other.x, other.z
        # Per-qubit classification masks.
        x_only_1, y_1, z_only_1 = x1 & ~z1, x1 & z1, z1 & ~x1
        x_only_2, y_2, z_only_2 = x2 & ~z2, x2 & z2, z2 & ~x2
        # Cyclic products X*Y=iZ, Y*Z=iX, Z*X=iY contribute +i each;
        # the reversed orders contribute -i each.
        plus = (
            (x_only_1 & y_2).bit_count()
            + (y_1 & z_only_2).bit_count()
            + (z_only_1 & x_only_2).bit_count()
        )
        minus = (
            (y_1 & x_only_2).bit_count()
            + (z_only_1 & y_2).bit_count()
            + (x_only_1 & z_only_2).bit_count()
        )
        phase = (1j) ** ((plus - minus) % 4)
        return phase, PauliString(self.num_qubits, x1 ^ x2, z1 ^ z2)

    def __mul__(self, other: "PauliString") -> tuple[complex, "PauliString"]:
        return self.compose(other)

    # ------------------------------------------------------------------
    # Numerics
    # ------------------------------------------------------------------
    def to_matrix(self):
        """Dense ``2^n x 2^n`` complex matrix (small n only; used by tests)."""
        if self.num_qubits > 12:
            raise ValueError("to_matrix is only intended for small qubit counts")
        dim = 1 << self.num_qubits
        indices = np.arange(dim)
        columns = indices ^ self.x
        # Phase per basis state: i^{y_count} * (-1)^{popcount(z & column)}.
        # Convention: P|c> = phase(c) |c ^ x>, derived from per-qubit action
        # X|b>=|b^1>, Z|b>=(-1)^b |b>, Y|b> = i(-1)^b |b^1>.
        z_and = indices & self.z
        signs = np.ones(dim, dtype=complex)
        parity = np.zeros(dim, dtype=np.int64)
        col = z_and
        while col.any():
            parity ^= col & 1
            col = col >> 1
        signs = np.where(parity, -1.0, 1.0).astype(complex)
        global_phase = (1j) ** (self.y_count() % 4)
        matrix = np.zeros((dim, dim), dtype=complex)
        matrix[columns, indices] = global_phase * signs
        return matrix

    # ------------------------------------------------------------------
    # Dunder / misc
    # ------------------------------------------------------------------
    def _check_compatible(self, other: "PauliString") -> None:
        if self.num_qubits != other.num_qubits:
            raise ValueError(
                f"qubit count mismatch: {self.num_qubits} vs {other.num_qubits}"
            )

    def __str__(self) -> str:
        return self.label()

    def __repr__(self) -> str:
        return f"PauliString({self.label()!r})"

    def __iter__(self) -> Iterator[str]:
        """Iterate operators from qubit 0 upward."""
        return (self.op_on(q) for q in range(self.num_qubits))

    def key(self) -> tuple[int, int]:
        """Hashable (x, z) pair used by :class:`~repro.pauli.PauliSum`."""
        return (self.x, self.z)


def paulis_from_labels(labels: Sequence[str]) -> list[PauliString]:
    """Convenience constructor for test fixtures and examples."""
    return [PauliString.from_label(label) for label in labels]


def mask_words(masks: Sequence[int], num_qubits: int) -> np.ndarray:
    """Split integer bitmasks into a word-major ``(W, len(masks))`` ``uint64`` table.

    ``W = max(1, ceil(num_qubits / 64))`` and row ``w`` holds qubits
    ``64w .. 64w + 63`` of every mask, so kernels over these tables take
    one path at every qubit count.
    """
    num_words = max(1, -(-num_qubits // 64))
    table = np.empty((num_words, len(masks)), dtype=np.uint64)
    for word in range(num_words):
        shift = 64 * word
        table[word] = np.fromiter(
            ((mask >> shift) & 0xFFFFFFFFFFFFFFFF for mask in masks),
            dtype=np.uint64,
            count=len(masks),
        )
    return table


def masks_from_words(table: np.ndarray) -> list[int]:
    """Integer bitmasks of a word-major ``(W, K)`` table; inverse of :func:`mask_words`."""
    masks = table[0].tolist()
    for word in range(1, len(table)):
        masks = [mask | (high << (64 * word)) for mask, high in zip(masks, table[word].tolist())]
    return masks
