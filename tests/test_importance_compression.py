"""Tests for Algorithm 1 (importance estimation) and ansatz compression."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ansatz import build_uccsd_program
from repro.chem import build_molecule_hamiltonian
from repro.core import (
    compress_ansatz,
    decay_factor,
    parameter_importance,
    random_ansatz,
    string_score,
)
from repro.core.ir import IRTerm, PauliProgram
from repro.pauli import PauliString, PauliSum


def scalar_parameter_importance(program, hamiltonian, decay_base=2.0):
    """Alg. 1 as the per-pair double loop: the oracle for the kernel.

    Scores accumulate term by term in Hamiltonian iteration order and
    importances string by string in program order; the vectorized
    kernel must reproduce this bit for bit.
    """
    terms = [
        (abs(coefficient), pauli) for coefficient, pauli in hamiltonian
        if not pauli.is_identity()  # the constant term moves with no parameter
    ]
    importance = np.zeros(program.num_parameters)
    for term in program:
        score = 0.0
        for magnitude, hamiltonian_pauli in terms:
            d = decay_factor(term.pauli, hamiltonian_pauli)
            score += (decay_base ** -d) * magnitude
        importance[term.parameter_index] += score
    return importance


class TestDecayFactor:
    def test_paper_figure4_example(self):
        # Pa = I Y X Z (q3..q0), PH = Y X X I: d = 3 (q3: Pa has I,
        # q0: PH has I, q1: equal X; q2 differs -> active).
        pa = PauliString.from_label("IYXZ")
        ph = PauliString.from_label("YXXI")
        assert decay_factor(pa, ph) == 3

    def test_all_identity_ansatz_string(self):
        pa = PauliString.identity(4)
        ph = PauliString.from_label("XYZX")
        assert decay_factor(pa, ph) == 4

    def test_fully_conflicting(self):
        pa = PauliString.from_label("XXXX")
        ph = PauliString.from_label("ZZZZ")
        assert decay_factor(pa, ph) == 0

    def test_equal_strings_decay_fully(self):
        pa = PauliString.from_label("XYZX")
        assert decay_factor(pa, pa) == 4

    def test_size_mismatch(self):
        with pytest.raises(ValueError):
            decay_factor(PauliString.from_label("X"), PauliString.from_label("XX"))

    @settings(max_examples=100, deadline=None)
    @given(
        st.text(alphabet="IXYZ", min_size=4, max_size=4),
        st.text(alphabet="IXYZ", min_size=4, max_size=4),
    )
    def test_matches_per_qubit_definition(self, a, b):
        pa, ph = PauliString.from_label(a), PauliString.from_label(b)
        expected = sum(
            1
            for q in range(4)
            if pa.op_on(q) == "I" or ph.op_on(q) == "I" or pa.op_on(q) == ph.op_on(q)
        )
        assert decay_factor(pa, ph) == expected


class TestStringScore:
    def test_weighted_sum(self):
        hamiltonian = PauliSum.from_label_dict({"XX": 0.5, "ZZ": -0.25})
        pa = PauliString.from_label("XX")
        # d(XX, XX) = 2 -> 0.5/4; d(XX, ZZ) = 0 -> 0.25.
        assert string_score(pa, hamiltonian) == pytest.approx(0.5 / 4 + 0.25)

    def test_identity_term_ignored(self):
        # The II term contributes nothing regardless of its weight.
        hamiltonian = PauliSum.from_label_dict({"II": 10.0, "XX": 0.5})
        without = PauliSum.from_label_dict({"XX": 0.5})
        pa = PauliString.from_label("YY")
        assert string_score(pa, hamiltonian) == string_score(pa, without)

    def test_decay_base_validation(self):
        hamiltonian = PauliSum.from_label_dict({"XX": 0.5})
        with pytest.raises(ValueError):
            string_score(PauliString.from_label("YY"), hamiltonian, decay_base=1.0)


class TestParameterImportance:
    def test_importance_shared_across_strings(self):
        problem = build_molecule_hamiltonian("LiH")
        program = build_uccsd_program(problem).program
        importance = parameter_importance(program, problem.hamiltonian)
        assert importance.shape == (8,)
        assert np.all(importance > 0)

    def test_size_mismatch_rejected(self):
        problem = build_molecule_hamiltonian("H2")
        program = build_uccsd_program(problem).program
        other = PauliSum.from_label_dict({"XX": 1.0})
        with pytest.raises(ValueError):
            parameter_importance(program, other)


def _case(num_qubits, hamiltonian_terms, program_terms, num_parameters):
    """A (program, Hamiltonian) pair from raw ``(x, z, weight)`` tuples."""
    hamiltonian = PauliSum(num_qubits)
    for x, z, coefficient in hamiltonian_terms:
        hamiltonian.add_key(coefficient, (x, z))
    program = PauliProgram(
        num_qubits,
        num_parameters,
        [
            IRTerm(PauliString(num_qubits, x, z), 0.5, index)
            for x, z, index in program_terms
        ],
    )
    return program, hamiltonian


@st.composite
def importance_cases(draw):
    """Random programs and Hamiltonians over 1..130 qubits (1-3 words)."""
    n = draw(st.one_of(st.integers(1, 130), st.sampled_from([63, 64, 65, 128])))
    masks = st.tuples(st.integers(0, (1 << n) - 1), st.integers(0, (1 << n) - 1))
    coefficients = st.complex_numbers(
        max_magnitude=10.0, allow_nan=False, allow_infinity=False
    )
    hamiltonian_terms = [
        (x, z, c)
        for (x, z), c in draw(st.lists(st.tuples(masks, coefficients), max_size=12))
    ]
    num_parameters = draw(st.integers(1, 5))
    # Strings come from a small pool so duplicates are common.
    pool = draw(st.lists(masks, min_size=1, max_size=6))
    program_terms = [
        (*draw(st.sampled_from(pool)), draw(st.integers(0, num_parameters - 1)))
        for _ in range(draw(st.integers(0, 10)))
    ]
    return _case(n, hamiltonian_terms, program_terms, num_parameters)


class TestKernelMatchesScalarReference:
    """The vectorized Alg. 1 kernel is bit-identical to the scalar loop."""

    @pytest.mark.parametrize(
        "molecule", ["H2", "LiH", "NaH", "HF", "BeH2", "H2O", "BH3"]
    )
    def test_table2_molecules(self, molecule):
        problem = build_molecule_hamiltonian(molecule)
        program = build_uccsd_program(problem).program
        for decay_base in (2.0, 1.5, 4.0):
            assert np.array_equal(
                parameter_importance(
                    program, problem.hamiltonian, decay_base=decay_base
                ),
                scalar_parameter_importance(program, problem.hamiltonian, decay_base),
            )

    @settings(max_examples=150, deadline=None)
    @given(
        importance_cases(),
        st.one_of(st.sampled_from([2.0, 1.5, 3.0, 4.0]), st.floats(1.01, 8.0)),
    )
    @example(  # one full word: bit 63 set on both sides
        _case(64, [(1 << 63, 0, 0.3), ((1 << 63) | 1, 1, -1.25)],
              [(1 << 63, 1 << 63, 0), (1, 0, 1)], 2),
        2.0,
    )
    @example(  # a second word holding one qubit
        _case(65, [(1 << 64, 0, 0.7), ((1 << 64) | (1 << 63), 1 << 64, 0.2j)],
              [(1 << 64, 1 << 64, 0), ((1 << 63) | (1 << 64), 0, 0)], 1),
        1.5,
    )
    @example(  # identity-only Hamiltonian: every score is exactly zero
        _case(3, [(0, 0, -1.1)], [(1, 0, 0), (6, 2, 1)], 2), 2.0
    )
    @example(  # duplicate strings, on one parameter and across two
        _case(4, [(3, 0, 0.5), (0, 12, -0.25), (5, 5, 0.125)],
              [(3, 1, 0), (3, 1, 0), (3, 1, 1)], 2),
        3.0,
    )
    @example(_case(5, [(1, 2, 0.5)], [], 3), 4.0)  # empty program
    def test_random_programs(self, case, decay_base):
        program, hamiltonian = case
        assert np.array_equal(
            parameter_importance(program, hamiltonian, decay_base=decay_base),
            scalar_parameter_importance(program, hamiltonian, decay_base),
        )

    def test_string_score_is_the_one_row_case(self):
        problem = build_molecule_hamiltonian("LiH")
        program = build_uccsd_program(problem).program
        for term in program.terms[:8]:
            single = PauliProgram(program.num_qubits, 1, [IRTerm(term.pauli, 1.0, 0)])
            expected = scalar_parameter_importance(single, problem.hamiltonian)[0]
            assert string_score(term.pauli, problem.hamiltonian) == expected


class TestCompression:
    @pytest.fixture(scope="class")
    def lih(self):
        problem = build_molecule_hamiltonian("LiH")
        return problem, build_uccsd_program(problem).program

    def test_keep_counts_ceiling(self, lih):
        problem, program = lih
        for ratio, expected in [(0.1, 1), (0.3, 3), (0.5, 4), (0.7, 6), (0.9, 8)]:
            compressed = compress_ansatz(program, problem.hamiltonian, ratio)
            assert compressed.num_parameters == expected

    def test_full_ratio_keeps_everything(self, lih):
        problem, program = lih
        compressed = compress_ansatz(program, problem.hamiltonian, 1.0)
        assert compressed.num_parameters == program.num_parameters

    def test_invalid_ratio(self, lih):
        problem, program = lih
        with pytest.raises(ValueError):
            compress_ansatz(program, problem.hamiltonian, 0.0)
        with pytest.raises(ValueError):
            compress_ansatz(program, problem.hamiltonian, 1.5)

    def test_importance_ordering(self, lih):
        """Kept parameters appear in decreasing-importance order."""
        problem, program = lih
        compressed = compress_ansatz(program, problem.hamiltonian, 0.9)
        kept_importance = compressed.importance[compressed.kept_parameters]
        assert np.all(np.diff(kept_importance) <= 1e-12)

    def test_program_order_follows_kept_order(self, lih):
        problem, program = lih
        compressed = compress_ansatz(program, problem.hamiltonian, 0.5)
        seen_parameters = []
        for term in compressed.program:
            if term.parameter_index not in seen_parameters:
                seen_parameters.append(term.parameter_index)
        assert seen_parameters == sorted(seen_parameters)

    def test_compression_beats_random_on_lih(self, lih):
        """The paper's effectiveness claim: importance-selected 50% is at
        least as accurate as random 50% (averaged over seeds)."""
        from repro.sim import ground_state_energy
        from repro.vqe import VQE

        problem, program = lih
        exact = ground_state_energy(problem.hamiltonian)
        compressed = compress_ansatz(program, problem.hamiltonian, 0.5)
        smart = VQE(compressed.program, problem.hamiltonian).run()
        random_errors = []
        for seed in range(4):
            randomized = random_ansatz(program, 0.5, seed=seed)
            outcome = VQE(randomized.program, problem.hamiltonian).run()
            random_errors.append(abs(outcome.energy - exact))
        assert abs(smart.energy - exact) <= np.mean(random_errors) + 1e-10

    def test_random_ansatz_is_reproducible(self, lih):
        _, program = lih
        a = random_ansatz(program, 0.5, seed=3)
        b = random_ansatz(program, 0.5, seed=3)
        assert a.kept_parameters == b.kept_parameters
