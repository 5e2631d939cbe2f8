"""Tests for the Gaussian integral engine against analytic references.

The batched nuclear-attraction and ERI kernels are also checked bit for
bit against :func:`scalar_nuclear_matrix` and :func:`scalar_eri_tensor`,
the per-primitive McMurchie-Davidson loops they replaced.
"""

import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gamma, gammainc

from repro.chem.basis_data import shells_for_element, num_basis_functions
from repro.chem.integrals import (
    BasisFunction,
    boys,
    build_basis,
    compute_integrals,
    nuclear_repulsion,
    _hermite_coefficients,
    _overlap_contracted,
    _primitive_kinetic,
)
from repro.chem.molecules import BENCHMARK_MOLECULES, molecule_by_name


# ----------------------------------------------------------------------
# Scalar references: one primitive pair or quartet at a time.
# ----------------------------------------------------------------------
@functools.lru_cache(maxsize=None)
def _scalar_hermite(l1, l2, pa, pb, p):
    """E[t] for one primitive pair (the upward recursions in i, then j).

    Memoized: every quartet sharing a primitive pair asks for the same E.
    """
    one_over_2p = 0.5 / p
    table = [[[0.0] * (l1 + l2 + 2) for _ in range(l2 + 1)] for _ in range(l1 + 1)]
    table[0][0][0] = 1.0
    for i in range(1, l1 + 1):
        for t in range(i + 1):
            table[i][0][t] = (
                (table[i - 1][0][t - 1] * one_over_2p if t > 0 else 0.0)
                + pa * table[i - 1][0][t]
                + (t + 1) * table[i - 1][0][t + 1]
            )
    for j in range(1, l2 + 1):
        for i in range(l1 + 1):
            for t in range(i + j + 1):
                table[i][j][t] = (
                    (table[i][j - 1][t - 1] * one_over_2p if t > 0 else 0.0)
                    + pb * table[i][j - 1][t]
                    + (t + 1) * table[i][j - 1][t + 1]
                )
    return tuple(table[l1][l2][: l1 + l2 + 1])


def _scalar_boys(n, x):
    if x < 1e-12:
        return 1.0 / (2 * n + 1)
    half = n + 0.5
    return 0.5 * gamma(half) * gammainc(half, x) / (x**half)


def _hermite_coulomb(t, u, v, n, p, pc):
    """R^n_{tuv} by the plain recursion."""
    x, y, z = pc
    if t == u == v == 0:
        r2 = x * x + y * y + z * z
        return (-2.0 * p) ** n * _scalar_boys(n, p * r2)
    if t < 0 or u < 0 or v < 0:
        return 0.0
    if t > 0:
        value = (t - 1) * _hermite_coulomb(t - 2, u, v, n + 1, p, pc) if t > 1 else 0.0
        return value + x * _hermite_coulomb(t - 1, u, v, n + 1, p, pc)
    if u > 0:
        value = (u - 1) * _hermite_coulomb(t, u - 2, v, n + 1, p, pc) if u > 1 else 0.0
        return value + y * _hermite_coulomb(t, u - 1, v, n + 1, p, pc)
    value = (v - 1) * _hermite_coulomb(t, u, v - 2, n + 1, p, pc) if v > 1 else 0.0
    return value + z * _hermite_coulomb(t, u, v - 1, n + 1, p, pc)


def _primitive_eri(
    alpha, pa_pows, a_center, beta, pb_pows, b_center,
    gamma_, pc_pows, c_center, delta, pd_pows, d_center,
):
    p = alpha + beta
    q = gamma_ + delta
    composite_p = tuple((alpha * a + beta * b) / p for a, b in zip(a_center, b_center))
    composite_q = tuple(
        (gamma_ * c + delta * d) / q for c, d in zip(c_center, d_center)
    )
    omega = p * q / (p + q)
    ab2 = sum((a - b) ** 2 for a, b in zip(a_center, b_center))
    cd2 = sum((c - d) ** 2 for c, d in zip(c_center, d_center))
    prefactor = math.exp(-alpha * beta / p * ab2) * math.exp(-gamma_ * delta / q * cd2)

    e_bra = []
    e_ket = []
    for axis in range(3):
        pa = composite_p[axis] - a_center[axis]
        pb = composite_p[axis] - b_center[axis]
        e_bra.append(_scalar_hermite(pa_pows[axis], pb_pows[axis], pa, pb, p))
        qc = composite_q[axis] - c_center[axis]
        qd = composite_q[axis] - d_center[axis]
        e_ket.append(_scalar_hermite(pc_pows[axis], pd_pows[axis], qc, qd, q))

    pq = tuple(composite_p[axis] - composite_q[axis] for axis in range(3))
    value = 0.0
    for t in range(len(e_bra[0])):
        for u in range(len(e_bra[1])):
            for v in range(len(e_bra[2])):
                bra = e_bra[0][t] * e_bra[1][u] * e_bra[2][v]
                if bra == 0.0:
                    continue
                for tau in range(len(e_ket[0])):
                    for nu in range(len(e_ket[1])):
                        for phi in range(len(e_ket[2])):
                            ket = e_ket[0][tau] * e_ket[1][nu] * e_ket[2][phi]
                            if ket == 0.0:
                                continue
                            sign = (-1.0) ** (tau + nu + phi)
                            value += bra * ket * sign * _hermite_coulomb(
                                t + tau, u + nu, v + phi, 0, omega, pq
                            )
    return (
        2.0 * math.pi**2.5
        / (p * q * math.sqrt(p + q))
        * prefactor
        * value
    )


def _eri_contracted(a, b, c, d):
    value = 0.0
    for ca, alpha in zip(a.coefficients, a.exponents):
        for cb, beta in zip(b.coefficients, b.exponents):
            for cc, gamma_ in zip(c.coefficients, c.exponents):
                for cd, delta in zip(d.coefficients, d.exponents):
                    value += ca * cb * cc * cd * _primitive_eri(
                        alpha, a.powers, a.center,
                        beta, b.powers, b.center,
                        gamma_, c.powers, c.center,
                        delta, d.powers, d.center,
                    )
    return value


def _primitive_nuclear(alpha, powers_a, center_a, beta, powers_b, center_b, nucleus):
    p = alpha + beta
    composite = tuple(
        (alpha * a + beta * b) / p for a, b in zip(center_a, center_b)
    )
    mu = alpha * beta / p
    ab2 = sum((a - b) ** 2 for a, b in zip(center_a, center_b))
    prefactor = math.exp(-mu * ab2)
    es = []
    for axis in range(3):
        pa = composite[axis] - center_a[axis]
        pb = composite[axis] - center_b[axis]
        es.append(_scalar_hermite(powers_a[axis], powers_b[axis], pa, pb, p))
    pc = tuple(composite[axis] - nucleus[axis] for axis in range(3))
    value = 0.0
    for t in range(len(es[0])):
        for u in range(len(es[1])):
            for v in range(len(es[2])):
                value += es[0][t] * es[1][u] * es[2][v] * _hermite_coulomb(t, u, v, 0, p, pc)
    return 2.0 * math.pi / p * prefactor * value


def scalar_nuclear_matrix(basis, charges, nuclei):
    """V[p, q] from the scalar loop over primitive pairs and nuclei."""
    n = len(basis)
    nuclear = np.zeros((n, n))
    for p in range(n):
        for q in range(p, n):
            a, b = basis[p], basis[q]
            value = 0.0
            for ca, alpha in zip(a.coefficients, a.exponents):
                for cb, beta in zip(b.coefficients, b.exponents):
                    accumulated = 0.0
                    for charge, nucleus in zip(charges, nuclei):
                        accumulated -= charge * _primitive_nuclear(
                            alpha, a.powers, a.center, beta, b.powers, b.center, tuple(nucleus)
                        )
                    value += ca * cb * accumulated
            nuclear[p, q] = nuclear[q, p] = value
    return nuclear


def assert_bit_identical(actual, expected):
    """Equal bit patterns: a stricter np.array_equal that also sees -0.0."""
    assert np.array_equal(actual.view(np.int64), expected.view(np.int64))


def scalar_eri_tensor(basis):
    """(pq|rs) from the scalar loop over the 8-fold-unique quartets."""
    n = len(basis)
    eri = np.zeros((n, n, n, n))
    for p in range(n):
        for q in range(p + 1):
            for r in range(p + 1):
                s_max = q if r == p else r
                for s in range(s_max + 1):
                    value = _eri_contracted(basis[p], basis[q], basis[r], basis[s])
                    for (i, j, k, l) in {
                        (p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r),
                        (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p),
                    }:
                        eri[i, j, k, l] = value
    return eri


def s_function(alpha: float, center=(0.0, 0.0, 0.0)) -> BasisFunction:
    """A single normalized s primitive as a contracted function."""
    norm = (2.0 * alpha / math.pi) ** 0.75
    return BasisFunction(
        center=center,
        powers=(0, 0, 0),
        exponents=(alpha,),
        coefficients=(norm,),
        atom_index=0,
        label="test",
    )


class TestBasisData:
    def test_hydrogen_exponents_match_published(self):
        shell = shells_for_element("H")[0]
        np.testing.assert_allclose(
            shell.exponents, (3.425250914, 0.6239137298, 0.168855404), rtol=1e-4
        )

    def test_carbon_2sp_exponents_match_published(self):
        shells = shells_for_element("C")
        np.testing.assert_allclose(
            shells[1].exponents, (2.9412494, 0.6834831, 0.2222899), rtol=1e-4
        )

    def test_basis_function_counts(self):
        assert num_basis_functions("H") == 1
        assert num_basis_functions("C") == 5
        assert num_basis_functions("Na") == 9

    def test_unknown_element_rejected(self):
        with pytest.raises(ValueError):
            shells_for_element("Xx")


class TestBoys:
    def test_zero_argument(self):
        assert boys(0, 0.0) == pytest.approx(1.0)
        assert boys(2, 0.0) == pytest.approx(1.0 / 5.0)

    def test_f0_closed_form(self):
        # F0(x) = sqrt(pi/(4x)) erf(sqrt(x)).
        from scipy.special import erf

        for x in (0.1, 1.0, 5.0, 20.0):
            expected = 0.5 * math.sqrt(math.pi / x) * erf(math.sqrt(x))
            assert boys(0, x) == pytest.approx(expected, rel=1e-10)

    def test_downward_consistency(self):
        # Recurrence: F_{n+1}(x) = ((2n+1) F_n(x) - exp(-x)) / (2x).
        x = 2.7
        for n in range(4):
            expected = ((2 * n + 1) * boys(n, x) - math.exp(-x)) / (2 * x)
            assert boys(n + 1, x) == pytest.approx(expected, rel=1e-9)


class TestHermiteCoefficients:
    def test_ss_is_one(self):
        e = _hermite_coefficients(0, 0, 0.3, -0.2, 1.7)
        assert e[0] == pytest.approx(1.0)

    def test_total_weight_p(self):
        # E for (l1=1, l2=0): E0 = PA, E1 = 1/(2p).
        pa, p = 0.4, 2.0
        e = _hermite_coefficients(1, 0, pa, 0.0, p)
        assert e[0] == pytest.approx(pa)
        assert e[1] == pytest.approx(1.0 / (2 * p))


class TestPrimitiveIntegrals:
    def test_normalized_s_overlap(self):
        f = s_function(0.8)
        assert _overlap_contracted(f, f) == pytest.approx(1.0)

    def test_s_overlap_distance_decay(self):
        alpha = 1.1
        a = s_function(alpha)
        b = s_function(alpha, center=(0.0, 0.0, 1.0))
        # <a|b> = exp(-alpha/2 * R^2) for equal-exponent normalized s.
        expected = math.exp(-alpha / 2.0)
        assert _overlap_contracted(a, b) == pytest.approx(expected, rel=1e-10)

    def test_kinetic_single_gaussian(self):
        # <T> of a normalized s Gaussian = 3 alpha / 2.
        alpha = 0.9
        norm = (2.0 * alpha / math.pi) ** 0.75
        value = norm**2 * _primitive_kinetic(
            alpha, (0, 0, 0), (0, 0, 0, ), alpha, (0, 0, 0), (0.0, 0.0, 0.0)
        )
        assert value == pytest.approx(1.5 * alpha, rel=1e-10)

    def test_nuclear_attraction_on_center(self):
        # <V> for s Gaussian at the nucleus = -2 sqrt(2 alpha / pi) * Z.
        alpha = 1.3
        tables = compute_integrals([s_function(alpha)], [3], np.zeros((1, 3)))
        expected = -3 * 2.0 * math.sqrt(2.0 * alpha / math.pi)
        assert tables.nuclear[0, 0] == pytest.approx(expected, rel=1e-10)

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.3])
    def test_eri_self_repulsion(self, alpha):
        # Closed form for a normalized s Gaussian: (aa|aa) = 2 sqrt(alpha/pi).
        expected = 2.0 * math.sqrt(alpha / math.pi)
        f = s_function(alpha)
        value = compute_integrals([f], [1], np.zeros((1, 3))).eri[0, 0, 0, 0]
        assert value == pytest.approx(expected, rel=1e-8)
        assert scalar_eri_tensor([f])[0, 0, 0, 0] == value

    def test_eri_symmetry(self):
        a = s_function(0.7)
        b = s_function(1.3, center=(0.0, 0.0, 0.9))
        nuclei = np.array([a.center, b.center])
        value_abab = compute_integrals([a, b], [1, 1], nuclei).eri[0, 1, 0, 1]
        value_baba = compute_integrals([b, a], [1, 1], nuclei[::-1]).eri[0, 1, 0, 1]
        assert value_abab == pytest.approx(value_baba, rel=1e-10)


class TestMoleculeIntegrals:
    def test_nuclear_repulsion_h2(self):
        coords = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.4]])
        assert nuclear_repulsion([1, 1], coords) == pytest.approx(1.0 / 1.4)

    def test_h2_overlap_matrix(self):
        coords = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.4]])
        basis = build_basis(["H", "H"], coords)
        tables = compute_integrals(basis, [1, 1], coords)
        assert tables.overlap[0, 0] == pytest.approx(1.0, abs=1e-8)
        # Textbook STO-3G H2 overlap at R = 1.4 bohr.
        assert tables.overlap[0, 1] == pytest.approx(0.6593, abs=2e-3)

    def test_h2_hcore_values(self):
        # Szabo & Ostlund Table 3.5 values (R = 1.4 bohr).
        coords = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.4]])
        basis = build_basis(["H", "H"], coords)
        tables = compute_integrals(basis, [1, 1], coords)
        assert tables.kinetic[0, 0] == pytest.approx(0.7600, abs=2e-3)
        assert tables.kinetic[0, 1] == pytest.approx(0.2365, abs=2e-3)
        hcore = tables.kinetic + tables.nuclear
        assert hcore[0, 0] == pytest.approx(-1.1204, abs=3e-3)

    def test_eri_eightfold_symmetry(self):
        coords = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, 1.5]])
        basis = build_basis(["H", "H"], coords)
        tables = compute_integrals(basis, [1, 1], coords)
        eri = tables.eri
        assert eri[0, 1, 0, 1] == pytest.approx(eri[1, 0, 1, 0], rel=1e-10)
        assert eri[0, 1, 0, 0] == pytest.approx(eri[0, 0, 0, 1], rel=1e-10)


class TestBatchedKernelsMatchScalarLoops:
    """The batched kernels replay the scalar loops' floating-point order."""

    @pytest.mark.parametrize("offset", [0.0, -0.02, 0.02])
    @pytest.mark.parametrize("name", BENCHMARK_MOLECULES)
    def test_table2_molecules(self, name, offset):
        molecule = molecule_by_name(name, molecule_by_name(name).bond_length + offset)
        basis = build_basis(molecule.symbols, molecule.coordinates_bohr)
        tables = compute_integrals(basis, molecule.charges, molecule.coordinates_bohr)
        assert_bit_identical(tables.eri, scalar_eri_tensor(basis))
        assert_bit_identical(
            tables.nuclear,
            scalar_nuclear_matrix(basis, molecule.charges, molecule.coordinates_bohr),
        )

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(
            st.tuples(
                st.tuples(*[st.floats(-1.5, 1.5, allow_subnormal=False)] * 3),
                st.sampled_from(
                    [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1),
                     (2, 0, 0), (0, 2, 0), (0, 0, 2), (1, 1, 0), (1, 0, 1), (0, 1, 1)]
                ),
                st.lists(
                    st.tuples(st.floats(0.1, 8.0), st.floats(-1.0, 1.0)),
                    min_size=1,
                    max_size=2,
                ),
            ),
            min_size=1,
            max_size=3,
        )
    )
    def test_random_basis(self, functions):
        # Functions may share a center or an axis, which makes some E
        # coefficients exactly zero: the scalar loop skips those terms.
        basis = [
            BasisFunction(
                center=center,
                powers=powers,
                exponents=tuple(alpha for alpha, _ in primitives),
                coefficients=tuple(c for _, c in primitives),
                atom_index=index,
                label=f"f{index}",
            )
            for index, (center, powers, primitives) in enumerate(functions)
        ]
        charges, nuclei = [1, 3], np.array([[0.0, 0.0, 0.0], [0.3, -0.2, 1.1]])
        tables = compute_integrals(basis, charges, nuclei)
        assert_bit_identical(tables.eri, scalar_eri_tensor(basis))
        assert_bit_identical(tables.nuclear, scalar_nuclear_matrix(basis, charges, nuclei))
