"""Hartree-Fock SCF tests against literature STO-3G energies."""

import numpy as np
import pytest

from repro.chem.hartree_fock import run_rhf
from repro.chem.integrals import build_basis, compute_integrals
from repro.chem.molecules import molecule_by_name


def rhf_for(name: str, bond_length: float | None = None):
    molecule = molecule_by_name(name, bond_length)
    basis = build_basis(molecule.symbols, molecule.coordinates_bohr)
    tables = compute_integrals(basis, molecule.charges, molecule.coordinates_bohr)
    return run_rhf(tables, molecule.num_electrons), tables


class TestEnergies:
    def test_h2_energy_matches_literature(self):
        result, _ = rhf_for("H2", 0.7414)
        assert result.energy == pytest.approx(-1.1167, abs=2e-3)

    def test_lih_energy_matches_literature(self):
        result, _ = rhf_for("LiH", 1.595)
        assert result.energy == pytest.approx(-7.862, abs=5e-3)

    def test_h2o_energy_matches_literature(self):
        result, _ = rhf_for("H2O", 0.958)
        assert result.energy == pytest.approx(-74.963, abs=1e-2)

    def test_nah_energy_matches_literature(self):
        result, _ = rhf_for("NaH", 1.887)
        assert result.energy == pytest.approx(-160.31, abs=5e-2)


class TestSCFProperties:
    def test_converged_flag_and_iterations(self):
        result, _ = rhf_for("H2")
        assert result.converged
        assert result.iterations >= 1

    def test_density_trace_counts_electrons(self):
        result, tables = rhf_for("LiH")
        # Tr(D S) = number of electrons.
        trace = np.trace(result.density @ tables.overlap)
        assert trace == pytest.approx(4.0, abs=1e-8)

    def test_orbital_energies_sorted(self):
        result, _ = rhf_for("H2O")
        assert np.all(np.diff(result.mo_energies) >= -1e-10)

    def test_aufbau_gap(self):
        result, _ = rhf_for("H2")
        homo = result.mo_energies[result.num_occupied - 1]
        lumo = result.mo_energies[result.num_occupied]
        assert lumo > homo

    def test_mo_orthonormality(self):
        result, tables = rhf_for("LiH")
        c = result.mo_coefficients
        identity = c.T @ tables.overlap @ c
        np.testing.assert_allclose(identity, np.eye(c.shape[1]), atol=1e-8)

    def test_odd_electron_count_rejected(self):
        molecule = molecule_by_name("H2")
        basis = build_basis(molecule.symbols, molecule.coordinates_bohr)
        tables = compute_integrals(basis, molecule.charges, molecule.coordinates_bohr)
        with pytest.raises(ValueError):
            run_rhf(tables, 3)

    def test_energy_below_hcore_guess(self):
        # The converged energy must not exceed the first-iteration energy.
        result, _ = rhf_for("H2O")
        assert result.energy < 0.0

    def test_stretched_bond_still_converges(self):
        result, _ = rhf_for("H2", 2.0)
        assert result.converged
