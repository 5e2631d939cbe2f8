"""Compiler tests: synthesis, layout, Merge-to-Root, SABRE, verification.

The central property: every compiled circuit must be *semantically
equivalent* to direct Pauli-evolution of the program (up to the tracked
final layout), checked with exact statevector simulation.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ansatz import build_uccsd_program
from repro.chem import build_molecule_hamiltonian
from repro.circuit import Circuit
from repro.compiler import (
    MergeToRootCompiler,
    SabreRouter,
    hierarchical_initial_layout,
    mapping_overhead,
    synthesize_pauli_chain,
    synthesize_program_chain,
    trivial_layout,
)
from repro.compiler.verify import (
    assert_equivalent,
    assert_routed_equivalent,
    compiled_state,
    embed_logical_state,
    logical_reference_state,
    states_match,
)
from repro.core import compress_ansatz
from repro.core.ir import IRTerm, PauliProgram
from repro.hardware import grid17q, xtree
from repro.pauli import PauliString
from repro.sim import apply_pauli_exponential


def random_program(num_qubits: int, num_strings: int, seed: int) -> PauliProgram:
    """A random Pauli program used for property-style compiler tests."""
    rng = np.random.default_rng(seed)
    terms = []
    for k in range(num_strings):
        while True:
            label = "".join(rng.choice(list("IXYZ"), size=num_qubits))
            if label.strip("I"):
                break
        terms.append(IRTerm(PauliString.from_label(label), float(rng.normal()), k))
    occupations = [int(q) for q in rng.choice(num_qubits, 2, replace=False)]
    return PauliProgram(
        num_qubits=num_qubits,
        num_parameters=num_strings,
        terms=terms,
        initial_occupations=occupations,
    )


class TestChainSynthesis:
    @settings(max_examples=60, deadline=None)
    @given(st.text(alphabet="IXYZ", min_size=3, max_size=3), st.floats(-2, 2))
    def test_chain_matches_exponential(self, label, angle):
        pauli = PauliString.from_label(label)
        if pauli.is_identity():
            return
        circuit = synthesize_pauli_chain(pauli, angle)
        state = np.ones(8, dtype=complex) / np.sqrt(8.0)
        via_circuit = compiled_state_from(circuit, state)
        expected = apply_pauli_exponential(pauli, angle, state)
        assert states_match(via_circuit, expected)

    def test_identity_string_produces_nothing(self):
        circuit = synthesize_pauli_chain(PauliString.identity(3), 0.7)
        assert len(circuit) == 0

    def test_gate_count_convention(self):
        # Weight-3 string with 2 XY ops: 4 basis + 4 CNOT + 1 RZ.
        circuit = synthesize_pauli_chain(PauliString.from_label("XIYZ"), 0.3)
        assert circuit.num_gates() == 9
        assert circuit.num_cnots() == 4

    def test_program_chain_semantics(self):
        program = random_program(4, 6, seed=2)
        params = np.random.default_rng(3).normal(size=6)
        circuit = synthesize_program_chain(program, params)
        assert states_match(
            compiled_state(circuit), logical_reference_state(program, params)
        )


def compose_loop_chain(program, parameters, *, include_initial_state=True):
    """Oracle: chain synthesis as one ``Circuit.compose`` per term.

    The quadratic loop the gate-list synthesis replaced, with the chain
    of each term built gate by gate as the original implementation did.
    """
    from repro.circuit.gates import CNOT, RZ, X
    from repro.compiler.synthesis import basis_change_gates

    circuit = Circuit(program.num_qubits)
    if include_initial_state:
        circuit = circuit.compose(
            Circuit(program.num_qubits, [X(q) for q in program.initial_occupations])
        )
    positions = []
    for pauli, angle in program.bound_terms(parameters):
        chain = Circuit(pauli.num_qubits)
        support = pauli.support()
        if support:
            chain.extend(basis_change_gates(pauli))
            for lower, upper in zip(support, support[1:]):
                chain.append(CNOT(lower, upper))
            chain.append(RZ(-2.0 * angle, support[-1]))
            for lower, upper in reversed(list(zip(support, support[1:]))):
                chain.append(CNOT(lower, upper))
            chain.extend(basis_change_gates(pauli, inverse=True))
        if not chain.gates:
            positions.append(None)
            continue
        rz_local = next(i for i, gate in enumerate(chain.gates) if gate.name == "rz")
        positions.append(len(circuit.gates) + rz_local)
        circuit = circuit.compose(chain)
    return circuit, positions


def program_with_identity_terms(seed: int) -> PauliProgram:
    """A random program whose terms include identity strings."""
    program = random_program(5, 8, seed=seed)
    terms = list(program.terms)
    terms.insert(0, IRTerm(PauliString.identity(5), 0.4, 0))
    terms.insert(5, IRTerm(PauliString.identity(5), -1.1, 3))
    terms.append(IRTerm(PauliString.identity(5), 0.2, 7))
    return PauliProgram(5, 8, terms, program.initial_occupations)


class TestChainSynthesisOracle:
    """Gate-list synthesis equals the compose loop, gates and RZ positions."""

    @staticmethod
    def assert_matches_oracle(program, parameters, **kwargs):
        from repro.compiler import synthesize_program_chain_with_positions

        circuit, positions = synthesize_program_chain_with_positions(
            program, parameters, **kwargs
        )
        expected, expected_positions = compose_loop_chain(program, parameters, **kwargs)
        assert circuit.num_qubits == expected.num_qubits
        assert circuit.gates == expected.gates
        assert positions == expected_positions

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("include_initial_state", [True, False])
    def test_random_programs_with_identity_terms(self, seed, include_initial_state):
        program = program_with_identity_terms(seed)
        params = np.random.default_rng(seed).normal(size=program.num_parameters)
        self.assert_matches_oracle(
            program, params, include_initial_state=include_initial_state
        )

    @pytest.mark.parametrize("molecule", ["H2", "LiH", "HF", "H2O"])
    def test_compressed_molecules(self, molecule):
        problem = build_molecule_hamiltonian(molecule)
        program = compress_ansatz(
            build_uccsd_program(problem).program, problem.hamiltonian, 0.3
        ).program
        params = np.random.default_rng(5).normal(size=program.num_parameters)
        self.assert_matches_oracle(program, params)

    def test_full_h2o_ansatz_appends_linearly(self, monkeypatch):
        """At most 2 * G ``Circuit.append`` calls for a G-gate chain."""
        problem = build_molecule_hamiltonian("H2O")
        program = build_uccsd_program(problem).program
        calls = 0
        append = Circuit.append

        def counting_append(self, gate):
            nonlocal calls
            calls += 1
            return append(self, gate)

        monkeypatch.setattr(Circuit, "append", counting_append)
        circuit = synthesize_program_chain(program, [0.1] * program.num_parameters)
        monkeypatch.undo()
        assert len(circuit.gates) > 10_000
        assert calls <= 2 * len(circuit.gates)


def compiled_state_from(circuit: Circuit, state):
    from repro.sim import apply_circuit

    return apply_circuit(circuit, state)


class TestHierarchicalLayout:
    def test_paper_algorithm2_example_shape(self):
        """The busiest qubit lands on the root."""
        problem = build_molecule_hamiltonian("LiH")
        program = build_uccsd_program(problem).program
        device = xtree(17)
        layout = hierarchical_initial_layout(program, device)
        occurrence = program.qubit_cooccurrence().sum(axis=1)
        busiest = int(np.argmax(occurrence))
        assert layout[busiest] == device.center

    def test_injective(self):
        program = random_program(6, 10, seed=4)
        layout = hierarchical_initial_layout(program, xtree(17))
        assert len(set(layout.values())) == len(layout)

    def test_device_too_small(self):
        program = random_program(6, 4, seed=5)
        with pytest.raises(ValueError):
            hierarchical_initial_layout(program, xtree(5))

    def test_trivial_layout(self):
        program = random_program(4, 4, seed=6)
        assert trivial_layout(program, xtree(8)) == {0: 0, 1: 1, 2: 2, 3: 3}


class TestMergeToRoot:
    def test_accepts_connected_non_tree(self):
        # Non-tree devices are handled through a BFS spanning tree.
        compiler = MergeToRootCompiler(grid17q())
        program = random_program(4, 4, seed=7)
        params = np.random.default_rng(7).normal(size=4)
        compiled = compiler.compile(program, params)
        assert_equivalent(program, params, compiled.circuit, compiled.final_layout)

    def test_rejects_disconnected_graph(self):
        from repro.hardware.coupling import CouplingGraph

        with pytest.raises(ValueError):
            MergeToRootCompiler(CouplingGraph(4, [(0, 1), (2, 3)], name="split"))

    @pytest.mark.parametrize("seed", range(8))
    def test_random_programs_equivalent_on_xtree8(self, seed):
        program = random_program(6, 8, seed=seed)
        params = np.random.default_rng(100 + seed).normal(size=8) * 0.7
        compiled = MergeToRootCompiler(xtree(8)).compile(program, params)
        assert_equivalent(program, params, compiled.circuit, compiled.final_layout)

    @pytest.mark.parametrize("seed", range(4))
    def test_random_programs_equivalent_with_trivial_layout(self, seed):
        program = random_program(5, 6, seed=50 + seed)
        params = np.random.default_rng(seed).normal(size=6)
        compiler = MergeToRootCompiler(xtree(8))
        compiled = compiler.compile(
            program, params, initial_layout=trivial_layout(program, xtree(8))
        )
        assert_equivalent(program, params, compiled.circuit, compiled.final_layout)

    def test_lih_uccsd_equivalent(self):
        problem = build_molecule_hamiltonian("LiH")
        program = build_uccsd_program(problem).program
        params = np.random.default_rng(1).normal(size=program.num_parameters) * 0.2
        compiled = MergeToRootCompiler(xtree(8)).compile(program, params)
        assert_equivalent(program, params, compiled.circuit, compiled.final_layout)

    def test_overhead_is_three_per_swap(self):
        program = random_program(6, 10, seed=9)
        compiled = MergeToRootCompiler(xtree(8)).compile(program)
        assert compiled.overhead_cnots == 3 * compiled.num_swaps
        assert (
            compiled.total_cnots
            == compiled.synthesized_cnots + 3 * compiled.num_swaps
        )

    def test_synthesized_cnots_match_chain_count(self):
        """Tree synthesis uses exactly 2(w-1) CNOTs per string, like chain."""
        problem = build_molecule_hamiltonian("H2")
        program = build_uccsd_program(problem).program
        compiled = MergeToRootCompiler(xtree(8)).compile(program)
        assert compiled.synthesized_cnots == program.cnot_count()

    def test_connected_supports_need_no_swaps(self):
        # Strings over {0}, {0,1}: hierarchical layout keeps them adjacent.
        terms = [
            IRTerm(PauliString.from_label("IZZ"), 1.0, 0),
            IRTerm(PauliString.from_label("IXX"), 1.0, 1),
        ]
        program = PauliProgram(3, 2, terms, [0])
        compiled = MergeToRootCompiler(xtree(5)).compile(program)
        assert compiled.num_swaps == 0


class TestSabre:
    @pytest.mark.parametrize("seed", range(4))
    def test_routed_circuit_equivalent(self, seed):
        program = random_program(5, 6, seed=20 + seed)
        params = np.random.default_rng(seed).normal(size=6)
        chain = synthesize_program_chain(program, params)
        result = SabreRouter(xtree(8)).run(chain)
        expected = embed_logical_state(
            logical_reference_state(program, params), result.final_layout, 8
        )
        assert states_match(expected, compiled_state(result.circuit))

    def test_all_cnots_respect_coupling(self):
        program = random_program(6, 8, seed=33)
        chain = synthesize_program_chain(program, [0.1] * 8)
        device = xtree(8)
        result = SabreRouter(device).run(chain)
        for gate in result.circuit.decompose_swaps():
            if gate.is_two_qubit():
                assert device.are_connected(*gate.qubits), gate

    def test_grid_needs_fewer_swaps_than_tree(self):
        """Denser connectivity -> generally lower SABRE overhead (the
        Table II trend between its two SABRE columns)."""
        problem = build_molecule_hamiltonian("NaH")
        program = build_uccsd_program(problem).program
        chain = synthesize_program_chain(program, [0.0] * program.num_parameters)
        tree_swaps = SabreRouter(xtree(17)).run(chain).num_swaps
        grid_swaps = SabreRouter(grid17q()).run(chain).num_swaps
        assert grid_swaps < tree_swaps

    def test_device_too_small(self):
        with pytest.raises(ValueError):
            SabreRouter(xtree(5)).run(Circuit(8))


class TestRoutedVerification:
    """Regression tests: routed results verify directly through their
    final-layout permutation, with no manual un-permutation."""

    @pytest.mark.parametrize("seed", range(3))
    def test_sabre_result_verifies_directly(self, seed):
        program = random_program(5, 6, seed=60 + seed)
        params = np.random.default_rng(seed).normal(size=6)
        chain = synthesize_program_chain(program, params)
        result = SabreRouter(xtree(8)).run(chain)
        assert result.num_swaps >= 0
        assert_routed_equivalent(program, params, result)

    def test_sabre_permuting_case_has_swaps(self):
        """The regression scenario: routing that actually permutes
        qubits (num_swaps > 0) must still verify without help."""
        program = random_program(6, 8, seed=91)
        params = np.random.default_rng(91).normal(size=8)
        chain = synthesize_program_chain(program, params)
        result = SabreRouter(xtree(8)).run(chain)
        assert result.num_swaps > 0
        assert result.final_layout != result.initial_layout
        assert_routed_equivalent(program, params, result)

    def test_mtr_result_verifies_directly(self):
        program = random_program(6, 8, seed=12)
        params = np.random.default_rng(12).normal(size=8) * 0.5
        compiled = MergeToRootCompiler(xtree(8)).compile(program, params)
        assert_routed_equivalent(program, params, compiled)

    def test_wrong_layout_is_caught(self):
        program = random_program(5, 6, seed=13)
        params = np.random.default_rng(13).normal(size=6)
        chain = synthesize_program_chain(program, params)
        result = SabreRouter(xtree(8)).run(chain)
        assert result.num_swaps > 0
        broken = dict(result.final_layout)
        a, b = sorted(broken)[:2]
        broken[a], broken[b] = broken[b], broken[a]
        with pytest.raises(AssertionError):
            assert_equivalent(program, params, result.circuit, broken)

    def test_optimized_circuit_substitution(self):
        """Peephole-optimized rewrites verify against the same layout."""
        from repro.compiler import cancel_gates

        problem = build_molecule_hamiltonian("LiH")
        program = build_uccsd_program(problem).program
        params = np.random.default_rng(5).normal(size=program.num_parameters) * 0.2
        compiled = MergeToRootCompiler(xtree(8)).compile(program, params)
        optimized = cancel_gates(
            compiled.circuit.decompose_swaps(), commute=True
        )
        assert optimized.num_cnots() <= compiled.circuit.num_cnots()
        assert_routed_equivalent(program, params, compiled, circuit=optimized)


class TestOverheadComparison:
    def test_mtr_dominates_sabre_on_xtree(self):
        """The paper's central compiler result, on LiH and NaH."""
        for name in ("LiH", "NaH"):
            problem = build_molecule_hamiltonian(name)
            program = build_uccsd_program(problem).program
            compressed = compress_ansatz(program, problem.hamiltonian, 0.5)
            reports = mapping_overhead(compressed.program, xtree(17), grid17q())
            assert (
                reports["mtr_xtree"].overhead_cnots
                < reports["sabre_xtree"].overhead_cnots
            ), name
            assert reports["mtr_xtree"].overhead_ratio < 0.10, name
