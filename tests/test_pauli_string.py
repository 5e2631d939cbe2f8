"""Unit and property tests for the symplectic Pauli-string representation."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.pauli import PauliString
from repro.pauli.pauli_string import mask_words, masks_from_words

# Single-qubit Pauli matrices for cross-checking.
I2 = np.eye(2, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
SINGLE = {"I": I2, "X": SX, "Y": SY, "Z": SZ}


def dense(label: str) -> np.ndarray:
    """Kronecker reference matrix, leftmost label char = highest qubit."""
    matrix = np.array([[1.0 + 0j]])
    for char in label:
        matrix = np.kron(matrix, SINGLE[char])
    return matrix


def labels(num_qubits: int):
    return st.text(alphabet="IXYZ", min_size=num_qubits, max_size=num_qubits)


class TestConstruction:
    def test_from_label_round_trip(self):
        assert PauliString.from_label("XIYZ").label() == "XIYZ"

    def test_paper_figure2_example(self):
        # exp(i theta X3 I2 Y1 Z0): label "XIYZ".
        pauli = PauliString.from_label("XIYZ")
        assert pauli.op_on(3) == "X"
        assert pauli.op_on(2) == "I"
        assert pauli.op_on(1) == "Y"
        assert pauli.op_on(0) == "Z"

    def test_from_ops_sparse(self):
        pauli = PauliString.from_ops(5, {0: "Z", 3: "X"})
        assert pauli.label() == "IXIIZ"

    def test_identity(self):
        identity = PauliString.identity(4)
        assert identity.is_identity()
        assert identity.weight == 0

    def test_single(self):
        pauli = PauliString.single(3, 1, "Y")
        assert pauli.label() == "IYI"

    def test_invalid_character_rejected(self):
        with pytest.raises(ValueError):
            PauliString.from_label("XQ")

    def test_out_of_range_qubit_rejected(self):
        with pytest.raises(ValueError):
            PauliString.from_ops(2, {5: "X"})

    def test_mask_overflow_rejected(self):
        with pytest.raises(ValueError):
            PauliString(2, x=8)


class TestInspection:
    def test_support_and_weight(self):
        pauli = PauliString.from_label("XIYZ")
        assert pauli.support() == [0, 1, 3]
        assert pauli.weight == 3

    def test_num_xy_counts_basis_changes(self):
        assert PauliString.from_label("XIYZ").num_xy == 2
        assert PauliString.from_label("ZZZZ").num_xy == 0

    def test_y_count(self):
        assert PauliString.from_label("YYXZ").y_count() == 2

    def test_iter_order_is_qubit0_first(self):
        assert list(PauliString.from_label("XIYZ")) == ["Z", "Y", "I", "X"]


class TestAlgebra:
    @pytest.mark.parametrize(
        "a,b,expected_phase,expected_label",
        [
            ("X", "Y", 1j, "Z"),
            ("Y", "X", -1j, "Z"),
            ("Y", "Z", 1j, "X"),
            ("Z", "X", 1j, "Y"),
            ("X", "X", 1, "I"),
            ("I", "Z", 1, "Z"),
        ],
    )
    def test_single_qubit_products(self, a, b, expected_phase, expected_label):
        phase, product = PauliString.from_label(a) * PauliString.from_label(b)
        assert phase == expected_phase
        assert product.label() == expected_label

    def test_anticommuting_pair(self):
        x = PauliString.from_label("XX")
        z = PauliString.from_label("ZI")
        assert not x.commutes_with(z)

    def test_commuting_pair(self):
        assert PauliString.from_label("XX").commutes_with(PauliString.from_label("ZZ"))

    def test_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            PauliString.from_label("X").compose(PauliString.from_label("XY"))

    @settings(max_examples=150, deadline=None)
    @given(labels(3), labels(3))
    def test_compose_matches_dense(self, a, b):
        pa, pb = PauliString.from_label(a), PauliString.from_label(b)
        phase, product = pa.compose(pb)
        np.testing.assert_allclose(
            phase * dense(product.label()), dense(a) @ dense(b), atol=1e-12
        )

    @settings(max_examples=150, deadline=None)
    @given(labels(4), labels(4))
    def test_commutation_matches_dense(self, a, b):
        pa, pb = PauliString.from_label(a), PauliString.from_label(b)
        commutator = dense(a) @ dense(b) - dense(b) @ dense(a)
        assert pa.commutes_with(pb) == np.allclose(commutator, 0.0)

    @settings(max_examples=50, deadline=None)
    @given(labels(3))
    def test_self_product_is_identity(self, a):
        phase, product = PauliString.from_label(a) * PauliString.from_label(a)
        assert phase == 1
        assert product.is_identity()


class TestMatrix:
    @settings(max_examples=60, deadline=None)
    @given(labels(3))
    def test_to_matrix_matches_kron(self, label):
        np.testing.assert_allclose(
            PauliString.from_label(label).to_matrix(), dense(label), atol=1e-12
        )

    def test_matrix_limit(self):
        with pytest.raises(ValueError):
            PauliString.identity(20).to_matrix()


class TestMaskWords:
    @settings(max_examples=50, deadline=None)
    @given(st.integers(1, 200).flatmap(
        lambda n: st.tuples(st.just(n), st.lists(st.integers(0, (1 << n) - 1), max_size=6))
    ))
    def test_masks_from_words_inverts_mask_words(self, case):
        num_qubits, masks = case
        table = mask_words(masks, num_qubits)
        assert table.shape == (max(1, -(-num_qubits // 64)), len(masks))
        assert masks_from_words(table) == masks
