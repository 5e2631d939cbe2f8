"""Gaussian integral evaluation over contracted Cartesian Gaussians.

Implements the McMurchie-Davidson scheme for the four integral classes a
minimal-basis Hartree-Fock needs: overlap, kinetic, nuclear attraction and
electron repulsion.  Primitives are Cartesian Gaussians

    g(r; alpha, l, m, n, A) = (x-Ax)^l (y-Ay)^m (z-Az)^n exp(-alpha |r-A|^2)

with l+m+n <= 1 (s and p) for STO-3G, though the recursions below are
written generally and tested up to d-type Hermite orders.

Nuclear attraction and electron repulsion run as numpy kernels batched
over primitive pairs and quartets, grouped by angular signature.  They
replay the floating-point order of the textbook per-primitive loops, so
their results are bit-identical to those loops (``tests/test_integrals.py``
keeps them as oracles): Alg. 1 importance ranks by coefficients built from
these integrals, and a one-ulp change can flip its ties.

References: McMurchie & Davidson, J. Comput. Phys. 26, 218 (1978);
Helgaker, Jorgensen & Olsen, "Molecular Electronic-Structure Theory".
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammainc, gamma

from repro.chem.basis_data import Shell, shells_for_element

# Cartesian components (l, m, n) per angular momentum.
_ANGULAR_COMPONENTS = {
    0: [(0, 0, 0)],
    1: [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
}


@dataclass(frozen=True)
class BasisFunction:
    """A contracted Cartesian Gaussian centred on an atom."""

    center: tuple[float, float, float]
    powers: tuple[int, int, int]
    exponents: tuple[float, ...]
    coefficients: tuple[float, ...]  # contraction coefs * primitive norms
    atom_index: int
    label: str


def _primitive_norm(alpha: float, powers: tuple[int, int, int]) -> float:
    """Normalization constant of one Cartesian Gaussian primitive."""
    l, m, n = powers
    prefactor = (2.0 * alpha / math.pi) ** 0.75
    numerator = (4.0 * alpha) ** ((l + m + n) / 2.0)
    denominator = math.sqrt(
        _double_factorial(2 * l - 1)
        * _double_factorial(2 * m - 1)
        * _double_factorial(2 * n - 1)
    )
    return prefactor * numerator / denominator


def _double_factorial(k: int) -> float:
    if k <= 0:
        return 1.0
    result = 1.0
    while k > 1:
        result *= k
        k -= 2
    return result


def build_basis(
    symbols: list[str], coordinates_bohr: np.ndarray
) -> list[BasisFunction]:
    """Construct the STO-3G basis for a molecule (coordinates in Bohr)."""
    functions: list[BasisFunction] = []
    for atom_index, symbol in enumerate(symbols):
        center = tuple(float(c) for c in coordinates_bohr[atom_index])
        shell_counter: dict[int, int] = {}
        for shell in shells_for_element(symbol):
            shell_counter[shell.angular_momentum] = (
                shell_counter.get(shell.angular_momentum, 0) + 1
            )
            for powers in _ANGULAR_COMPONENTS[shell.angular_momentum]:
                functions.append(
                    _contracted_function(symbol, atom_index, center, shell, powers)
                )
    return functions


def _contracted_function(
    symbol: str,
    atom_index: int,
    center: tuple[float, float, float],
    shell: Shell,
    powers: tuple[int, int, int],
) -> BasisFunction:
    coefficients = tuple(
        c * _primitive_norm(alpha, powers)
        for c, alpha in zip(shell.coefficients, shell.exponents)
    )
    function = BasisFunction(
        center=center,
        powers=powers,
        exponents=shell.exponents,
        coefficients=coefficients,
        atom_index=atom_index,
        label=f"{symbol}{atom_index}:{'spdf'[shell.angular_momentum]}{powers}",
    )
    # Renormalize the contraction so <chi|chi> = 1 even when tabulated
    # contraction coefficients are only approximately normalized.
    norm = math.sqrt(_overlap_contracted(function, function))
    return BasisFunction(
        center=center,
        powers=powers,
        exponents=shell.exponents,
        coefficients=tuple(c / norm for c in function.coefficients),
        atom_index=atom_index,
        label=function.label,
    )


# ----------------------------------------------------------------------
# Hermite expansion coefficients E_t^{ij}
# ----------------------------------------------------------------------
def _hermite_coefficients(l1: int, l2: int, pa, pb, p) -> np.ndarray:
    """E[t] for the 1D product of two Gaussians, t = 0 .. l1+l2.

    pa = Px - Ax, pb = Px - Bx, p = combined exponent alpha + beta.
    Built with the standard upward recursions in (i, j), elementwise when
    pa, pb and p are arrays (the result then has shape (l1+l2+1, *p.shape)).
    """
    one_over_2p = 0.5 / p
    # One extra slot in t so the E(i-1, t+1) lookups never go out of range.
    table = np.zeros((l1 + 1, l2 + 1, l1 + l2 + 2) + np.shape(p))
    table[0, 0, 0] = 1.0
    for i in range(1, l1 + 1):
        for t in range(i + 1):
            table[i, 0, t] = (
                (table[i - 1, 0, t - 1] * one_over_2p if t > 0 else 0.0)
                + pa * table[i - 1, 0, t]
                + (t + 1) * table[i - 1, 0, t + 1]
            )
    for j in range(1, l2 + 1):
        for i in range(l1 + 1):
            for t in range(i + j + 1):
                table[i, j, t] = (
                    (table[i, j - 1, t - 1] * one_over_2p if t > 0 else 0.0)
                    + pb * table[i, j - 1, t]
                    + (t + 1) * table[i, j - 1, t + 1]
                )
    return table[l1, l2, : l1 + l2 + 1]


# ----------------------------------------------------------------------
# Boys function and Hermite Coulomb integrals R^n_{tuv}
# ----------------------------------------------------------------------
def _libm(function, x, *args) -> np.ndarray:
    """``function(x, *args)`` elementwise, through Python's ``math`` (libm).

    numpy's SIMD ``exp`` and ``power`` loops can differ from libm in the
    last ulp, and the integrals are pinned bit-for-bit to the results of
    the scalar ``math.exp`` and ``**`` they replace.
    """
    x = np.asarray(x, dtype=float)
    flat = x.ravel().tolist()
    values = map(function, flat, *(itertools.repeat(arg, len(flat)) for arg in args))
    return np.fromiter(values, dtype=float, count=len(flat)).reshape(x.shape)


def boys(n: int, x):
    """The Boys function F_n(x) = int_0^1 t^{2n} exp(-x t^2) dt (elementwise)."""
    x = np.asarray(x, dtype=float)
    half = n + 0.5
    tiny = x < 1e-12
    safe = np.where(tiny, 1.0, x)
    value = 0.5 * gamma(half) * gammainc(half, safe) / _libm(math.pow, safe, half)
    value = np.where(tiny, 1.0 / (2 * n + 1), value)
    return float(value) if value.ndim == 0 else value


def _hermite_coulomb(p, pc):
    """Auxiliary Hermite Coulomb integrals R^n_{tuv}, elementwise over arrays.

    Returns ``r(t, u, v)`` giving R^0_{tuv}.  The recursion reduces t, then
    u, then v, exactly as the textbook scalar recursion does; each
    R^n_{tuv} is evaluated once per call and then looked up.
    """
    x, y, z = pc
    boys_argument = p * (x * x + y * y + z * z)
    two_p = 2.0 * p
    memo: dict[tuple[int, int, int, int], np.ndarray] = {}

    def r(t: int, u: int, v: int, n: int):
        key = (t, u, v, n)
        if key in memo:
            return memo[key]
        if t == u == v == 0:
            # (-2p)^n as CPython's ``float ** int`` computes it: 1 for
            # n = 0, else libm pow of |-2p| with the sign of the parity.
            value = boys(n, boys_argument)
            if n:
                power = _libm(math.pow, two_p, n)
                value = (-power if n % 2 else power) * value
        elif t > 0:
            value = (t - 1) * r(t - 2, u, v, n + 1) if t > 1 else 0.0
            value = value + x * r(t - 1, u, v, n + 1)
        elif u > 0:
            value = (u - 1) * r(t, u - 2, v, n + 1) if u > 1 else 0.0
            value = value + y * r(t, u - 1, v, n + 1)
        else:
            value = (v - 1) * r(t, u, v - 2, n + 1) if v > 1 else 0.0
            value = value + z * r(t, u, v - 1, n + 1)
        memo[key] = value
        return value

    return lambda t, u, v: r(t, u, v, 0)


# ----------------------------------------------------------------------
# Primitive integrals
# ----------------------------------------------------------------------
def _primitive_overlap(alpha, powers_a, center_a, beta, powers_b, center_b) -> float:
    p = alpha + beta
    mu = alpha * beta / p
    ab2 = sum((a - b) ** 2 for a, b in zip(center_a, center_b))
    prefactor = math.exp(-mu * ab2)
    value = prefactor * (math.pi / p) ** 1.5
    for axis in range(3):
        pax = (alpha * center_a[axis] + beta * center_b[axis]) / p - center_a[axis]
        pbx = (alpha * center_a[axis] + beta * center_b[axis]) / p - center_b[axis]
        e = _hermite_coefficients(powers_a[axis], powers_b[axis], pax, pbx, p)
        value *= e[0]
    return value


def _primitive_kinetic(alpha, powers_a, center_a, beta, powers_b, center_b) -> float:
    """Kinetic energy via the Gaussian differentiation identity."""
    l2, m2, n2 = powers_b

    def overlap_shifted(db: tuple[int, int, int]) -> float:
        shifted = (l2 + db[0], m2 + db[1], n2 + db[2])
        if any(component < 0 for component in shifted):
            return 0.0
        return _primitive_overlap(alpha, powers_a, center_a, beta, shifted, center_b)

    term0 = beta * (2 * (l2 + m2 + n2) + 3) * overlap_shifted((0, 0, 0))
    term1 = -2.0 * beta**2 * (
        overlap_shifted((2, 0, 0)) + overlap_shifted((0, 2, 0)) + overlap_shifted((0, 0, 2))
    )
    term2 = -0.5 * (
        l2 * (l2 - 1) * overlap_shifted((-2, 0, 0))
        + m2 * (m2 - 1) * overlap_shifted((0, -2, 0))
        + n2 * (n2 - 1) * overlap_shifted((0, 0, -2))
    )
    return term0 + term1 + term2


# ----------------------------------------------------------------------
# Contracted integrals
# ----------------------------------------------------------------------
def _overlap_contracted(a: BasisFunction, b: BasisFunction) -> float:
    value = 0.0
    for ca, alpha in zip(a.coefficients, a.exponents):
        for cb, beta in zip(b.coefficients, b.exponents):
            value += ca * cb * _primitive_overlap(
                alpha, a.powers, a.center, beta, b.powers, b.center
            )
    return value


def _kinetic_contracted(a: BasisFunction, b: BasisFunction) -> float:
    value = 0.0
    for ca, alpha in zip(a.coefficients, a.exponents):
        for cb, beta in zip(b.coefficients, b.exponents):
            value += ca * cb * _primitive_kinetic(
                alpha, a.powers, a.center, beta, b.powers, b.center
            )
    return value


# ----------------------------------------------------------------------
# Nuclear attraction and electron repulsion, batched over primitives
# ----------------------------------------------------------------------
#: 2 pi^(5/2), the constant of the primitive ERI prefactor.
_ERI_CONSTANT = 2.0 * math.pi**2.5


@dataclass(frozen=True)
class _PrimitivePairs:
    """Gaussian-product data of AO pairs (a, b), one row per pair.

    Columns run over the primitive pairs in a-major order.  ``hermite``
    holds the E_t coefficients per axis with shape (rows, l_a+l_b+1, K).
    """

    exponent: np.ndarray      # p = alpha + beta
    center: np.ndarray        # P, shape (rows, 3, K)
    prefactor: np.ndarray     # exp(-alpha beta / p |AB|^2)
    first: np.ndarray         # c_a
    second: np.ndarray        # c_b
    hermite: tuple[np.ndarray, np.ndarray, np.ndarray]

    def take(self, rows: np.ndarray) -> "_PrimitivePairs":
        return _PrimitivePairs(
            exponent=self.exponent[rows],
            center=self.center[rows],
            prefactor=self.prefactor[rows],
            first=self.first[rows],
            second=self.second[rows],
            hermite=(self.hermite[0][rows], self.hermite[1][rows], self.hermite[2][rows]),
        )


def _primitive_pairs(pairs: list[tuple[BasisFunction, BasisFunction]]) -> _PrimitivePairs:
    """Stack the product data of AO pairs sharing powers and contraction lengths."""
    a0, b0 = pairs[0]
    k_a, k_b = len(a0.exponents), len(b0.exponents)
    alpha = np.array([np.repeat(a.exponents, k_b) for a, _ in pairs])
    beta = np.array([np.tile(b.exponents, k_a) for _, b in pairs])
    first = np.array([np.repeat(a.coefficients, k_b) for a, _ in pairs])
    second = np.array([np.tile(b.coefficients, k_a) for _, b in pairs])
    a_center = np.array([a.center for a, _ in pairs])[:, :, None]
    b_center = np.array([b.center for _, b in pairs])[:, :, None]
    p = alpha + beta
    center = (alpha[:, None] * a_center + beta[:, None] * b_center) / p[:, None]
    ab2 = np.array([sum((a - b) ** 2 for a, b in zip(a.center, b.center)) for a, b in pairs])
    prefactor = _libm(math.exp, -alpha * beta / p * ab2[:, None])
    hermite = tuple(
        np.moveaxis(
            _hermite_coefficients(
                a0.powers[axis], b0.powers[axis],
                center[:, axis] - a_center[:, axis], center[:, axis] - b_center[:, axis], p,
            ),
            0, 1,
        )
        for axis in range(3)
    )
    return _PrimitivePairs(p, center, prefactor, first, second, hermite)


def _pair_tables(
    basis: list[BasisFunction], pairs: list[tuple[int, int]]
) -> dict[tuple, tuple[list[tuple[int, int]], _PrimitivePairs]]:
    """Group ordered AO pairs by signature and tabulate each group."""
    groups: dict[tuple, list[tuple[int, int]]] = {}
    for i, j in pairs:
        a, b = basis[i], basis[j]
        key = (a.powers, b.powers, len(a.exponents), len(b.exponents))
        groups.setdefault(key, []).append((i, j))
    return {
        key: (members, _primitive_pairs([(basis[i], basis[j]) for i, j in members]))
        for key, members in groups.items()
    }


def _contracted_sum(terms: np.ndarray) -> np.ndarray:
    """Row sums added left to right, as the scalar ``value += term`` loop does.

    ``np.cumsum`` keeps the sequential order (``np.sum`` is pairwise); the
    trailing ``+ 0.0`` matches the loop's 0.0 start on an all-negative-zero row.
    """
    return np.cumsum(terms.reshape(len(terms), -1), axis=1)[:, -1] + 0.0


def _nuclear_attraction(
    pairs: _PrimitivePairs, charges: list[int], nuclei: np.ndarray
) -> np.ndarray:
    """V_ab for AO pairs sharing one signature, one per row.

    Arrays run over (pair, nucleus, primitive pair); the floating-point
    order is that of the scalar loop over primitive pairs and nuclei.
    """
    p = pairs.exponent[:, None, :]
    pc = [pairs.center[:, None, axis, :] - nuclei[None, :, axis, None] for axis in range(3)]
    r = _hermite_coulomb(p, pc)
    e = [h[:, :, None, :] for h in pairs.hermite]
    value = np.zeros(pc[0].shape)
    for t in range(e[0].shape[1]):
        for u in range(e[1].shape[1]):
            for v in range(e[2].shape[1]):
                value = value + e[0][:, t] * e[1][:, u] * e[2][:, v] * r(t, u, v)
    primitive = 2.0 * math.pi / p * pairs.prefactor[:, None, :] * value
    accumulated = np.zeros(pairs.exponent.shape)
    for nucleus, charge in enumerate(charges):
        accumulated = accumulated - charge * primitive[:, nucleus]
    return _contracted_sum(pairs.first * pairs.second * accumulated)


def _contracted_eri(bra: _PrimitivePairs, ket: _PrimitivePairs) -> np.ndarray:
    """(ab|cd) for quartets sharing one angular signature, one per row.

    Arrays run over (quartet, bra primitive pair, ket primitive pair).
    Every step replays the scalar per-primitive loop's floating-point
    order, so the result is bit-identical to it: the Hermite sum adds
    term by term in (t, u, v, tau, nu, phi) order, and the contraction
    sums primitive quartets left to right.  The scalar loop skipped
    exact-zero E products; adding their signed-zero terms instead changes
    nothing, because a sum started at +0.0 is never -0.0.
    """
    p = bra.exponent[:, :, None]
    q = ket.exponent[:, None, :]
    omega = p * q / (p + q)
    pq = [bra.center[:, axis, :, None] - ket.center[:, axis, None, :] for axis in range(3)]
    r = _hermite_coulomb(omega, pq)
    e_bra = [e[:, :, :, None] for e in bra.hermite]
    e_ket = [e[:, :, None, :] for e in ket.hermite]
    kets = [
        (tau, nu, phi, e_ket[0][:, tau] * e_ket[1][:, nu] * e_ket[2][:, phi])
        for tau in range(e_ket[0].shape[1])
        for nu in range(e_ket[1].shape[1])
        for phi in range(e_ket[2].shape[1])
    ]
    value = np.zeros(omega.shape)
    for t in range(e_bra[0].shape[1]):
        for u in range(e_bra[1].shape[1]):
            for v in range(e_bra[2].shape[1]):
                e = e_bra[0][:, t] * e_bra[1][:, u] * e_bra[2][:, v]
                for tau, nu, phi, f in kets:
                    term = e * f
                    if (tau + nu + phi) % 2:
                        term = -term  # exact, like the scalar ``* (-1.0)``
                    value = value + term * r(t + tau, u + nu, v + phi)
    prefactor = bra.prefactor[:, :, None] * ket.prefactor[:, None, :]
    primitive = _ERI_CONSTANT / (p * q * np.sqrt(p + q)) * prefactor * value
    weight = (bra.first * bra.second)[:, :, None] * ket.first[:, None, :] * ket.second[:, None, :]
    return _contracted_sum(weight * primitive)


def _electron_repulsion(basis: list[BasisFunction]) -> np.ndarray:
    """The (pq|rs) tensor, one batched kernel call per angular signature."""
    n = len(basis)
    tables = _pair_tables(basis, [(i, j) for i in range(n) for j in range(i + 1)])
    pair_key: dict[tuple[int, int], tuple[tuple, int]] = {}
    for key, (members, _) in tables.items():
        for row, pair in enumerate(members):
            pair_key[pair] = key, row

    # Unique quartets under the 8-fold symmetry, grouped by signature.
    groups: dict[tuple, list[tuple[int, int, int, int]]] = {}
    for p in range(n):
        for q in range(p + 1):
            for r in range(p + 1):
                s_max = q if r == p else r
                for s in range(s_max + 1):
                    key = (pair_key[p, q][0], pair_key[r, s][0])
                    groups.setdefault(key, []).append((p, q, r, s))

    eri = np.zeros((n, n, n, n))
    for (bra_key, ket_key), quartets in groups.items():
        p, q, r, s = np.array(quartets).T
        bra_rows = [pair_key[i, j][1] for i, j in zip(p, q)]
        ket_rows = [pair_key[i, j][1] for i, j in zip(r, s)]
        values = _contracted_eri(
            tables[bra_key][1].take(bra_rows), tables[ket_key][1].take(ket_rows)
        )
        for i, j, k, l in (
            (p, q, r, s), (q, p, r, s), (p, q, s, r), (q, p, s, r),
            (r, s, p, q), (s, r, p, q), (r, s, q, p), (s, r, q, p),
        ):
            eri[i, j, k, l] = values
    return eri


@dataclass
class IntegralTables:
    """All AO integrals of a molecule (chemist's notation for the ERI)."""

    overlap: np.ndarray         # S[p, q]
    kinetic: np.ndarray         # T[p, q]
    nuclear: np.ndarray         # V[p, q] (attraction, negative)
    eri: np.ndarray             # (pq|rs)
    nuclear_repulsion: float


def nuclear_repulsion(charges: list[int], coordinates_bohr: np.ndarray) -> float:
    energy = 0.0
    for i in range(len(charges)):
        for j in range(i + 1, len(charges)):
            distance = float(np.linalg.norm(coordinates_bohr[i] - coordinates_bohr[j]))
            energy += charges[i] * charges[j] / distance
    return energy


def compute_integrals(
    basis: list[BasisFunction], charges: list[int], coordinates_bohr: np.ndarray
) -> IntegralTables:
    """Evaluate S, T, V and (pq|rs) over the contracted basis.

    The ERIs are evaluated once per quartet that is unique under the
    8-fold permutational symmetry, in batches of one angular signature
    over all primitive quartets (see :func:`_contracted_eri`).
    """
    n = len(basis)
    overlap = np.zeros((n, n))
    kinetic = np.zeros((n, n))
    for p in range(n):
        for q in range(p, n):
            overlap[p, q] = overlap[q, p] = _overlap_contracted(basis[p], basis[q])
            kinetic[p, q] = kinetic[q, p] = _kinetic_contracted(basis[p], basis[q])
    nuclear = np.zeros((n, n))
    nuclei = np.asarray(coordinates_bohr, dtype=float)
    upper = [(p, q) for p in range(n) for q in range(p, n)]
    for members, pairs in _pair_tables(basis, upper).values():
        p, q = np.array(members).T
        nuclear[p, q] = nuclear[q, p] = _nuclear_attraction(pairs, charges, nuclei)

    return IntegralTables(
        overlap=overlap,
        kinetic=kinetic,
        nuclear=nuclear,
        eri=_electron_repulsion(basis),
        nuclear_repulsion=nuclear_repulsion(charges, coordinates_bohr),
    )
