"""Tests for molecule geometries, active spaces and qubit Hamiltonians."""

import hashlib

import numpy as np
import pytest

from repro.ansatz.uccsd import build_uccsd_program
from repro.chem import build_molecule_hamiltonian, molecule_by_name
from repro.chem.molecules import BENCHMARK_MOLECULES
from repro.core.importance import parameter_importance
from repro.sim import ground_state_energy

#: Per molecule at equilibrium: (qubit-Hamiltonian digest, Alg. 1
#: importance-order digest), both sha256 prefixes.  Recorded from the
#: scalar per-primitive ERI loop and the per-term Jordan-Wigner compose
#: loop; any change to the chemistry substrate's floating-point results
#: shows up here.
PINNED_DIGESTS = {
    "H2": ("a429296290c6e5c7", "cea67d8b58d72bb9"),
    "LiH": ("18e9344cd3b6ebbe", "7257253b393ef4f5"),
    "NaH": ("bb9f79ca9b4c7afa", "a602643d49fdd000"),
    "HF": ("47a8de5641e917c0", "d266b290d9164d23"),
    "BeH2": ("46f8d47e852e4b88", "1b020cb90ae6f41a"),
    "H2O": ("c22694cf1dcd3621", "908b01faddc1e08f"),
    "BH3": ("df6740c391c82b9f", "8a7aa8d92539f942"),
    "NH3": ("1f190cfd4c45ca53", "95f60aabea367957"),
    "CH4": ("90438fe6f869c12f", "df90decb1ee5eeb0"),
}


class TestGeometries:
    def test_benchmark_list_matches_table1(self):
        assert BENCHMARK_MOLECULES == [
            "H2", "LiH", "NaH", "HF", "BeH2", "H2O", "BH3", "NH3", "CH4",
        ]

    def test_unknown_molecule_rejected(self):
        with pytest.raises(ValueError):
            molecule_by_name("XeF6")

    def test_nonpositive_bond_length_rejected(self):
        with pytest.raises(ValueError):
            molecule_by_name("H2", -0.5)

    @pytest.mark.parametrize("bond_length", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_bond_length_rejected(self, bond_length):
        with pytest.raises(ValueError, match="bond_length"):
            molecule_by_name("H2", bond_length)
        with pytest.raises(ValueError, match="bond_length"):
            build_molecule_hamiltonian("H2", bond_length)

    def test_equilibrium_default(self):
        molecule = molecule_by_name("H2O")
        assert molecule.bond_length == pytest.approx(0.958)

    @pytest.mark.parametrize("name", BENCHMARK_MOLECULES)
    def test_bond_lengths_realized(self, name):
        molecule = molecule_by_name(name, 1.1)
        heavy = molecule.coordinates_angstrom[0]
        for hydrogen in molecule.coordinates_angstrom[1:]:
            if molecule.symbols[0] == "H" and name == "H2":
                continue
            distance = np.linalg.norm(hydrogen - heavy)
            assert distance == pytest.approx(1.1, abs=1e-8)

    def test_ch4_is_tetrahedral(self):
        molecule = molecule_by_name("CH4", 1.09)
        coords = molecule.coordinates_angstrom
        hh = [
            np.linalg.norm(coords[i] - coords[j])
            for i in range(1, 5)
            for j in range(i + 1, 5)
        ]
        np.testing.assert_allclose(hh, hh[0], rtol=1e-10)

    def test_h2o_angle(self):
        molecule = molecule_by_name("H2O", 1.0)
        coords = molecule.coordinates_angstrom
        v1 = coords[1] - coords[0]
        v2 = coords[2] - coords[0]
        angle = np.degrees(
            np.arccos(np.dot(v1, v2) / (np.linalg.norm(v1) * np.linalg.norm(v2)))
        )
        assert angle == pytest.approx(104.45, abs=0.01)

    def test_frozen_orbital_counts(self):
        assert molecule_by_name("H2").num_frozen_orbitals == 0
        assert molecule_by_name("LiH").num_frozen_orbitals == 1
        assert molecule_by_name("NaH").num_frozen_orbitals == 5


class TestQubitHamiltonians:
    def test_h2_qubit_count_and_hermiticity(self):
        problem = build_molecule_hamiltonian("H2")
        assert problem.num_qubits == 4
        assert problem.hamiltonian.is_hermitian()

    def test_h2_fci_energy(self):
        problem = build_molecule_hamiltonian("H2", 0.735)
        assert ground_state_energy(problem.hamiltonian) == pytest.approx(
            -1.1373, abs=2e-3
        )

    def test_hf_state_energy_matches_scf(self):
        """<HF| H_qubit |HF> must equal the RHF total energy (frozen core
        folded in correctly)."""
        from repro.sim import basis_state, expectation

        for name in ("H2", "LiH", "BeH2"):
            problem = build_molecule_hamiltonian(name)
            state = basis_state(problem.num_qubits, problem.hartree_fock_state_index())
            energy = expectation(problem.hamiltonian, state)
            assert energy == pytest.approx(problem.hf_energy, abs=1e-8), name

    def test_ground_state_below_hf(self):
        problem = build_molecule_hamiltonian("LiH")
        assert ground_state_energy(problem.hamiltonian) < problem.hf_energy

    def test_caching_returns_same_object(self):
        a = build_molecule_hamiltonian("H2", 0.7)
        b = build_molecule_hamiltonian("H2", 0.7)
        assert a is b

    def test_occupations_blocked_ordering(self):
        problem = build_molecule_hamiltonian("LiH")
        # 2 active electrons in 3 spatial orbitals: alpha qubit 0, beta qubit 3.
        assert problem.hartree_fock_occupations() == [0, 3]

    def test_dissociation_curve_shape(self):
        """Energy must rise on both sides of equilibrium (Figure 3 shape)."""
        energies = {
            d: ground_state_energy(build_molecule_hamiltonian("H2", d).hamiltonian)
            for d in (0.5, 0.735, 1.6)
        }
        assert energies[0.735] < energies[0.5]
        assert energies[0.735] < energies[1.6]


class TestPinnedDigests:
    """Hamiltonian terms and the importance order, pinned per molecule.

    The Hamiltonian digest hashes the term keys in sorted (x, z) order,
    as ``PauliSum.items()`` yields them, with coefficients at 12
    significant digits.  Insertion order is unobservable there, which is
    why the batched Jordan-Wigner kernel may emit terms in sorted order.
    The importance digest hashes the full stable descending order
    Compress keeps a prefix of, so it catches a one-ulp tie flip the
    rounded coefficients cannot show.  Together they guard the integrals
    and the Jordan-Wigner kernel alike.
    """

    @pytest.mark.parametrize("name", BENCHMARK_MOLECULES)
    def test_hamiltonian_and_importance_order(self, name):
        problem = build_molecule_hamiltonian(name)
        terms = hashlib.sha256()
        for (x, z), c in problem.hamiltonian.items():
            terms.update(f"{x},{z}:{c.real:.12g},{c.imag:.12g}\n".encode())
        program = build_uccsd_program(problem).program
        importance = parameter_importance(program, problem.hamiltonian)
        order = np.argsort(-importance, kind="stable")
        ranks = hashlib.sha256(",".join(map(str, order.tolist())).encode())
        assert (terms.hexdigest()[:16], ranks.hexdigest()[:16]) == PINNED_DIGESTS[name]


class TestActiveSpaceErrors:
    def test_bad_active_electrons(self):
        from repro.chem.active_space import reduce_to_active_space

        h = np.zeros((3, 3))
        eri = np.zeros((3, 3, 3, 3))
        with pytest.raises(ValueError):
            reduce_to_active_space(h, eri, 0.0, 4, 3, 2)  # odd frozen count

    def test_window_exceeds_orbitals(self):
        from repro.chem.active_space import reduce_to_active_space

        h = np.zeros((3, 3))
        eri = np.zeros((3, 3, 3, 3))
        with pytest.raises(ValueError):
            reduce_to_active_space(h, eri, 0.0, 4, 2, 5)
