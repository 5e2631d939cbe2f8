"""Second quantization and Jordan-Wigner encoding tests."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.ansatz.excitations import generate_excitations
from repro.chem import build_molecule_hamiltonian
from repro.chem.fermion import FermionOperator
from repro.chem.hamiltonian import fermionic_hamiltonian
from repro.chem.jordan_wigner import jordan_wigner, jordan_wigner_batch, ladder_operator
from repro.chem.molecules import BENCHMARK_MOLECULES
from repro.pauli import PauliSum


def scalar_jordan_wigner(operator: FermionOperator, num_qubits: int | None = None) -> PauliSum:
    """Oracle: the per-term compose loop the batched kernel replaced."""
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


def assert_same_bits(batched: PauliSum, scalar: PauliSum) -> None:
    """Equal key sets and equal coefficient bit patterns, signed zeros included."""
    assert batched.num_qubits == scalar.num_qubits
    got, want = dict(batched.items()), dict(scalar.items())
    assert got.keys() == want.keys()
    for key, value in want.items():
        assert np.complex128(got[key]).tobytes() == np.complex128(value).tobytes(), key


class TestFermionOperator:
    def test_identity(self):
        op = FermionOperator.identity(2.5)
        assert op.coefficient(()) == 2.5

    def test_addition_merges(self):
        a = FermionOperator.creation(0)
        total = a + a
        assert total.coefficient(((0, True),)) == 2.0

    def test_multiplication_concatenates(self):
        product = FermionOperator.creation(1) * FermionOperator.annihilation(0)
        assert product.coefficient(((1, True), (0, False))) == 1.0

    def test_dagger_reverses(self):
        op = FermionOperator.from_term([(1, True), (0, False)], 2.0 + 1.0j)
        dagger = op.dagger()
        assert dagger.coefficient(((0, True), (1, False))) == 2.0 - 1.0j

    def test_generator_is_anti_hermitian(self):
        t = FermionOperator.from_term([(2, True), (0, False)])
        generator = t - t.dagger()
        assert generator.is_anti_hermitian()

    def test_max_orbital(self):
        op = FermionOperator.from_term([(5, True), (2, False)])
        assert op.max_orbital() == 5
        assert FermionOperator.identity().max_orbital() == -1

    def test_number_operator(self):
        op = FermionOperator.number(1)
        assert op.coefficient(((1, True), (1, False))) == 1.0


class TestJordanWigner:
    def test_ladder_operator_matrices(self):
        # a_0 on one qubit = [[0, 1], [0, 0]].
        a0 = ladder_operator(1, 0, creation=False).to_matrix()
        np.testing.assert_allclose(a0, [[0, 1], [0, 0]], atol=1e-12)
        adag0 = ladder_operator(1, 0, creation=True).to_matrix()
        np.testing.assert_allclose(adag0, [[0, 0], [1, 0]], atol=1e-12)

    def test_z_string_on_higher_orbital(self):
        # a_1 = (X1 + iY1)/2 * Z0: acting on |01> (q0=1) gives -|... sign.
        a1 = ladder_operator(2, 1, creation=False).to_matrix()
        state = np.zeros(4)
        state[3] = 1.0  # |q1=1, q0=1>
        result = a1 @ state
        # a_1 |11> = -|01> with the Z-chain sign convention.
        assert result[1] == pytest.approx(-1.0)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 3), st.integers(0, 3))
    def test_canonical_anticommutation(self, p, q):
        n = 4
        a_p = ladder_operator(n, p, creation=False)
        adag_q = ladder_operator(n, q, creation=True)
        anticommutator = (a_p @ adag_q) + (adag_q @ a_p)
        expected = PauliSum.identity(n, 1.0 if p == q else 0.0)
        assert anticommutator.chop() == expected.chop()

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 3), st.integers(0, 3))
    def test_annihilators_anticommute(self, p, q):
        n = 4
        a_p = ladder_operator(n, p, creation=False)
        a_q = ladder_operator(n, q, creation=False)
        assert len(((a_p @ a_q) + (a_q @ a_p)).chop()) == 0

    def test_number_operator_spectrum(self):
        n_op = jordan_wigner(FermionOperator.number(0), 1)
        np.testing.assert_allclose(n_op.to_matrix(), [[0, 0], [0, 1]], atol=1e-12)

    def test_single_excitation_string_count(self):
        # a_2+ a_0 - h.c. -> 2 Pauli strings.
        t = FermionOperator.from_term([(2, True), (0, False)])
        generator = jordan_wigner(t - t.dagger(), 3)
        assert len(generator) == 2

    def test_double_excitation_string_count(self):
        t = FermionOperator.from_term([(2, True), (3, True), (1, False), (0, False)])
        generator = jordan_wigner(t - t.dagger(), 4)
        assert len(generator) == 8

    def test_scalar_operator_needs_explicit_size(self):
        with pytest.raises(ValueError):
            jordan_wigner(FermionOperator.identity(1.0))

    def test_hermitian_operator_maps_to_hermitian_sum(self):
        t = FermionOperator.from_term([(1, True), (0, False)], 0.7)
        hermitian = t + t.dagger()
        qubit_op = jordan_wigner(hermitian, 2)
        assert qubit_op.is_hermitian()


class TestHubbard:
    def test_two_site_dimensions(self):
        from repro.chem.hubbard import hubbard_hamiltonian

        h = hubbard_hamiltonian(2, tunneling=1.0, interaction=4.0)
        assert h.num_qubits == 4
        assert h.is_hermitian()

    @staticmethod
    def _half_filled_ground_energy(h):
        """Lowest eigenvalue within the 2-electron sector."""
        matrix = h.to_matrix()
        values, vectors = np.linalg.eigh(matrix)
        dim = matrix.shape[0]
        particle_number = np.array([bin(i).count("1") for i in range(dim)])
        for value, vector in zip(values, vectors.T):
            weights = np.abs(vector) ** 2
            if abs(np.dot(weights, particle_number) - 2.0) < 1e-8:
                return value
        raise AssertionError("no 2-electron eigenstate found")

    def test_two_site_ground_state_energy(self):
        # Half-filled 2-site Hubbard: E0 = U/2 - sqrt((U/2)^2 + 4 t^2).
        from repro.chem.hubbard import hubbard_hamiltonian

        t, u = 1.0, 4.0
        h = hubbard_hamiltonian(2, tunneling=t, interaction=u)
        expected = u / 2.0 - np.sqrt((u / 2.0) ** 2 + 4.0 * t**2)
        assert self._half_filled_ground_energy(h) == pytest.approx(expected, abs=1e-8)

    def test_interaction_free_limit(self):
        from repro.chem.hubbard import hubbard_hamiltonian
        from repro.sim.exact import spectrum

        h = hubbard_hamiltonian(2, tunneling=1.0, interaction=0.0)
        # Free fermions on 2 sites: single-particle energies -t, +t;
        # the global many-body ground state fills both spins of -t.
        assert spectrum(h, k=4)[0] == pytest.approx(-2.0, abs=1e-8)

    def test_invalid_size_rejected(self):
        from repro.chem.hubbard import hubbard_hamiltonian

        with pytest.raises(ValueError):
            hubbard_hamiltonian(1)


def _ladders(num_qubits: int):
    # Orbitals from a small pool most of the time, so repeats are common.
    pool = st.sampled_from(sorted({0, min(1, num_qubits - 1), num_qubits // 2, num_qubits - 1}))
    orbital = st.one_of(pool, st.integers(0, num_qubits - 1))
    return st.lists(st.tuples(orbital, st.booleans()), max_size=6).map(tuple)


_coefficients = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False),
    st.complex_numbers(allow_nan=False, allow_infinity=False),
)


@st.composite
def _operator_batches(draw):
    """``(num_qubits, [{ladder: coefficient}, ...])`` for one to three operators."""
    num_qubits = draw(st.integers(1, 130))
    term_dicts = st.dictionaries(_ladders(num_qubits), _coefficients, max_size=5)
    return num_qubits, draw(st.lists(term_dicts, min_size=1, max_size=3))


class TestBatchedJordanWignerOracle:
    """The batched kernel against the compose loop, bit for bit."""

    @pytest.mark.parametrize("name", BENCHMARK_MOLECULES)
    def test_molecular_hamiltonian(self, name):
        problem = build_molecule_hamiltonian(name)
        operator = fermionic_hamiltonian(problem.active_integrals)
        expected = scalar_jordan_wigner(operator, problem.num_qubits)
        assert_same_bits(jordan_wigner(operator, problem.num_qubits), expected)
        assert_same_bits(problem.hamiltonian, expected)

    @pytest.mark.parametrize("name", BENCHMARK_MOLECULES)
    def test_uccsd_generators_in_one_call(self, name):
        problem = build_molecule_hamiltonian(name)
        generators = [
            excitation.generator()
            for excitation in generate_excitations(
                problem.num_spatial_orbitals, problem.num_alpha, problem.num_beta
            )
        ]
        batched = jordan_wigner_batch(generators, problem.num_qubits)
        assert len(batched) == len(generators)
        for generator, qubit_generator in zip(generators, batched):
            assert_same_bits(qubit_generator, scalar_jordan_wigner(generator, problem.num_qubits))

    def test_hubbard_problem(self, monkeypatch):
        from repro.chem import hubbard
        from repro.problems import get_problem

        batched = get_problem("hubbard:4").hamiltonian
        monkeypatch.setattr(hubbard, "jordan_wigner", scalar_jordan_wigner)
        assert_same_bits(batched, get_problem("hubbard:4").hamiltonian)

    @settings(max_examples=150, deadline=None)
    @given(_operator_batches())
    @example((4, [{((1, True), (1, False)): 1.0}]))  # a_p+ a_p
    @example((4, [{((2, True), (2, True)): 0.7 - 0.2j}]))  # a_p+ a_p+ = 0
    @example((3, [{(): 2.5}]))  # identity only
    @example((1, [{(): 1.2711610061536462e308 + 1.2711610061536464e308j}]))  # abs() overflows
    @example((64, [{((63, True), (0, False)): 1.0, ((63, False),): -0.5j}]))
    @example((65, [{((64, True), (63, False), (0, True), (64, False)): 0.3}]))
    # An orbital three times: the kernel must merge where the loop merges.
    @example(
        (3, [{((0, False), (2, True), (0, True), (1, False), (0, False), (1, True)): 0.7}])
    )
    def test_random_operators(self, case):
        num_qubits, term_dicts = case
        operators = [FermionOperator(terms) for terms in term_dicts]
        expected = []
        for operator in operators:
            try:
                expected.append(scalar_jordan_wigner(operator, num_qubits))
            except OverflowError:
                # chop()'s abs() of a coefficient near the float maximum:
                # the batched path must raise the same way.
                with pytest.raises(OverflowError):
                    jordan_wigner_batch(operators, num_qubits)
                return
        batched = jordan_wigner_batch(operators, num_qubits)
        for operator, qubit_operator, want in zip(operators, batched, expected):
            assert_same_bits(qubit_operator, want)
            assert_same_bits(jordan_wigner(operator, num_qubits), want)

    def test_inferred_qubit_count_per_operator(self):
        operators = [FermionOperator.number(1), FermionOperator.from_term([(4, True), (0, False)])]
        batched = jordan_wigner_batch(operators)
        assert [op.num_qubits for op in batched] == [2, 5]
        for operator, qubit_operator in zip(operators, batched):
            assert_same_bits(qubit_operator, scalar_jordan_wigner(operator))

    def test_empty_inputs(self):
        assert jordan_wigner_batch([], 3) == []
        assert len(jordan_wigner(FermionOperator.zero(), 3)) == 0


class TestJordanWignerErrors:
    @pytest.mark.parametrize("orbital", [4, 7, -1])
    def test_orbital_out_of_range_is_located(self, orbital):
        bad = FermionOperator.from_term([(orbital, True), (0, False)])
        message = f"orbital {orbital} out of range for 4 qubits"
        with pytest.raises(ValueError, match=message):
            jordan_wigner(bad, 4)
        with pytest.raises(ValueError, match=message):
            jordan_wigner_batch([FermionOperator.number(1), bad], 4)
        with pytest.raises(ValueError, match=message):
            scalar_jordan_wigner(bad, 4)

    def test_scalar_operator_cannot_infer_size_in_a_batch(self):
        with pytest.raises(ValueError, match="cannot infer qubit count"):
            jordan_wigner_batch([FermionOperator.number(1), FermionOperator.identity(2.0)])
