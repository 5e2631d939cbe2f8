"""The nine benchmark molecules of the paper (Table I), parameterized by
bond length.

Geometries keep the experimental bond *angles* fixed and sweep the X-H /
diatomic bond length, matching the paper's simulation flow ("in a typical
simulation task, we will simulate different bond lengths and record ground
state energies").  Coordinates are produced in Angstrom and converted to
Bohr by the integral layer.

Each molecule also carries the active-space specification (electrons,
spatial orbitals) that reproduces the paper's qubit counts under
Jordan-Wigner (2 qubits per spatial orbital):

    H2:4  LiH:6  NaH:8  HF:10  BeH2:12  H2O:12  BH3:14  NH3:14  CH4:16
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.chem.elements import ANGSTROM_TO_BOHR, atomic_number


@dataclass(frozen=True)
class ActiveSpace:
    """(electrons, spatial orbitals) kept in the simulation."""

    num_electrons: int
    num_orbitals: int

    @property
    def num_qubits(self) -> int:
        return 2 * self.num_orbitals


@dataclass
class Molecule:
    """A molecular geometry plus its benchmark configuration."""

    name: str
    symbols: list[str]
    coordinates_angstrom: np.ndarray
    bond_length: float
    active_space: ActiveSpace
    equilibrium_bond_length: float

    @property
    def charges(self) -> list[int]:
        return [atomic_number(symbol) for symbol in self.symbols]

    @property
    def num_electrons(self) -> int:
        return sum(self.charges)

    @property
    def coordinates_bohr(self) -> np.ndarray:
        return self.coordinates_angstrom * ANGSTROM_TO_BOHR

    @property
    def num_frozen_orbitals(self) -> int:
        return (self.num_electrons - self.active_space.num_electrons) // 2


def _diatomic(name, heavy, bond_length, active, equilibrium):
    coordinates = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, bond_length]])
    return Molecule(name, [heavy, "H"], coordinates, bond_length, active, equilibrium)


def _h2(bond_length: float) -> Molecule:
    coordinates = np.array([[0.0, 0.0, 0.0], [0.0, 0.0, bond_length]])
    return Molecule("H2", ["H", "H"], coordinates, bond_length, ActiveSpace(2, 2), 0.735)


def _beh2(bond_length: float) -> Molecule:
    coordinates = np.array(
        [[0.0, 0.0, 0.0], [0.0, 0.0, bond_length], [0.0, 0.0, -bond_length]]
    )
    return Molecule(
        "BeH2", ["Be", "H", "H"], coordinates, bond_length, ActiveSpace(4, 6), 1.326
    )


def _h2o(bond_length: float) -> Molecule:
    angle = math.radians(104.45)
    half = angle / 2.0
    coordinates = np.array(
        [
            [0.0, 0.0, 0.0],
            [bond_length * math.sin(half), 0.0, bond_length * math.cos(half)],
            [-bond_length * math.sin(half), 0.0, bond_length * math.cos(half)],
        ]
    )
    return Molecule(
        "H2O", ["O", "H", "H"], coordinates, bond_length, ActiveSpace(8, 6), 0.958
    )


def _bh3(bond_length: float) -> Molecule:
    coordinates = [[0.0, 0.0, 0.0]]
    for k in range(3):
        angle = 2.0 * math.pi * k / 3.0
        coordinates.append([bond_length * math.cos(angle), bond_length * math.sin(angle), 0.0])
    return Molecule(
        "BH3", ["B", "H", "H", "H"], np.array(coordinates), bond_length,
        ActiveSpace(6, 7), 1.19,
    )


def _nh3(bond_length: float) -> Molecule:
    # Pyramidal geometry with the experimental H-N-H angle of 106.8 deg.
    hnh = math.radians(106.8)
    # Place the three H in a circle of radius r at height -h below N.
    # For bond length d and H-N-H angle t: the H-H distance is
    # 2 d sin(t/2), and for an equilateral triangle r = hh / sqrt(3).
    hh = 2.0 * bond_length * math.sin(hnh / 2.0)
    radius = hh / math.sqrt(3.0)
    height = math.sqrt(max(bond_length**2 - radius**2, 1e-12))
    coordinates = [[0.0, 0.0, 0.0]]
    for k in range(3):
        angle = 2.0 * math.pi * k / 3.0
        coordinates.append([radius * math.cos(angle), radius * math.sin(angle), -height])
    return Molecule(
        "NH3", ["N", "H", "H", "H"], np.array(coordinates), bond_length,
        ActiveSpace(8, 7), 1.012,
    )


def _ch4(bond_length: float) -> Molecule:
    scale = bond_length / math.sqrt(3.0)
    coordinates = np.array(
        [
            [0.0, 0.0, 0.0],
            [scale, scale, scale],
            [scale, -scale, -scale],
            [-scale, scale, -scale],
            [-scale, -scale, scale],
        ]
    )
    return Molecule(
        "CH4", ["C", "H", "H", "H", "H"], coordinates, bond_length,
        ActiveSpace(8, 8), 1.087,
    )


_BUILDERS = {
    "H2": _h2,
    "LiH": lambda d: _diatomic("LiH", "Li", d, ActiveSpace(2, 3), 1.595),
    "NaH": lambda d: _diatomic("NaH", "Na", d, ActiveSpace(2, 4), 1.887),
    "HF": lambda d: _diatomic("HF", "F", d, ActiveSpace(8, 5), 0.917),
    "BeH2": _beh2,
    "H2O": _h2o,
    "BH3": _bh3,
    "NH3": _nh3,
    "CH4": _ch4,
}

#: Table I order.
BENCHMARK_MOLECULES = ["H2", "LiH", "NaH", "HF", "BeH2", "H2O", "BH3", "NH3", "CH4"]


def check_bond_length(bond_length: float) -> None:
    """Reject a bond length (Angstrom) that is not finite and positive."""
    if not math.isfinite(bond_length) or bond_length <= 0:
        raise ValueError(f"bond_length must be finite and positive, got {bond_length!r}")


def molecule_by_name(name: str, bond_length: float | None = None) -> Molecule:
    """Build a benchmark molecule, at its equilibrium length by default."""
    try:
        builder = _BUILDERS[name]
    except KeyError:
        raise ValueError(
            f"unknown molecule {name!r}; choose from {BENCHMARK_MOLECULES}"
        ) from None
    if bond_length is None:
        bond_length = builder(1.0).equilibrium_bond_length
    check_bond_length(bond_length)
    return builder(bond_length)
