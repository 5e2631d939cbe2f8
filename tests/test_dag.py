"""Tests for the shared circuit DAG IR and its consumers.

Covers construction (wire edges, commutation-aware edges, front layer),
scheduling metrics (depth, latency-weighted critical path), and the
integration points: SABRE's commutation-aware frontier and the DAG
emitted by Merge-to-Root.  The one-pass schedule report and the integer
edge derivation are checked against the DAG walks they replace.
"""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.circuit_checks import _edge_set
from repro.circuit import Circuit, CircuitDAG
from repro.circuit.dag import dependency_edges, gate_axes
from repro.circuit.gates import (
    Barrier,
    CNOT,
    CZ,
    Gate,
    H,
    Measure,
    RZ,
    S,
    SWAP,
    X,
)
from repro.compiler.metrics import ScheduleReport, schedule_report
from repro.hardware.latency import DEFAULT_LATENCY, GateLatencyModel

TABLE2_MOLECULES = ("H2", "LiH", "NaH", "HF", "BeH2", "H2O", "BH3", "NH3", "CH4")

_ONE_QUBIT = ("x", "y", "z", "h", "s", "sdg", "measure")
_ROTATIONS = ("rx", "ry", "rz")
_TWO_QUBIT = ("cx", "cz", "swap")


@st.composite
def circuits(draw, max_qubits: int = 5, max_gates: int = 40):
    """Random circuits over every gate kind, barriers on any qubit subset."""
    num_qubits = draw(st.integers(1, max_qubits))
    qubit = st.integers(0, num_qubits - 1)
    kinds = ["one", "rotation", "barrier"] + (["two"] if num_qubits > 1 else [])
    gates = []
    for _ in range(draw(st.integers(0, max_gates))):
        kind = draw(st.sampled_from(kinds))
        if kind == "one":
            gates.append(Gate(draw(st.sampled_from(_ONE_QUBIT)), (draw(qubit),)))
        elif kind == "rotation":
            angle = draw(st.floats(-4.0, 4.0))
            gates.append(Gate(draw(st.sampled_from(_ROTATIONS)), (draw(qubit),), (angle,)))
        elif kind == "two":
            pair = draw(st.lists(qubit, min_size=2, max_size=2, unique=True))
            gates.append(Gate(draw(st.sampled_from(_TWO_QUBIT)), tuple(pair)))
        else:
            gates.append(Barrier(*draw(st.lists(qubit, unique=True))))
    return Circuit(num_qubits, gates)


_LATENCY_NS = st.floats(0.0, 1e4, allow_nan=False, allow_infinity=False)
latency_models = st.builds(
    GateLatencyModel,
    single_qubit_ns=_LATENCY_NS,
    cx_ns=_LATENCY_NS,
    cz_ns=_LATENCY_NS,
    measure_ns=_LATENCY_NS,
)


def dag_schedule_report(circuit, latency=DEFAULT_LATENCY):
    """Oracle: the schedule report as two wire-dependency DAG walks.

    ``depth`` on the circuit's own DAG, ``scheduled_depth`` and
    ``duration_ns`` on the DAG of its SWAP-decomposed circuit.
    """
    decomposed = CircuitDAG.from_circuit(circuit.decompose_swaps())
    return ScheduleReport(
        depth=CircuitDAG.from_circuit(circuit).depth(),
        scheduled_depth=decomposed.depth(),
        duration_ns=decomposed.duration(latency),
    )


def assert_report_matches_oracle(circuit, latency=DEFAULT_LATENCY):
    expected = dag_schedule_report(circuit, latency)
    actual = schedule_report(circuit, latency)
    assert actual.depth == expected.depth
    assert actual.scheduled_depth == expected.scheduled_depth
    assert struct.pack("d", actual.duration_ns) == struct.pack("d", expected.duration_ns)
    assert circuit.depth() == expected.depth


class TestConstruction:
    def test_wire_edges(self):
        dag = CircuitDAG.from_circuit(Circuit(3, [H(0), CNOT(0, 1), CNOT(1, 2)]))
        assert dag.nodes[0].num_predecessors == 0
        assert dag.nodes[1].num_predecessors == 1
        assert dag.nodes[2].num_predecessors == 1
        assert [s.index for s in dag.nodes[0].successors] == [1]

    def test_front_layer_plain(self):
        dag = CircuitDAG.from_circuit(Circuit(2, [RZ(0.2, 0), CNOT(0, 1)]))
        assert [n.index for n in dag.front_layer()] == [0]

    def test_front_layer_commute(self):
        # RZ on the control commutes with the CNOT: both are frontier.
        dag = CircuitDAG.from_circuit(
            Circuit(2, [RZ(0.2, 0), CNOT(0, 1)]), commute=True
        )
        assert [n.index for n in dag.front_layer()] == [0, 1]

    def test_commute_shared_control_no_edge(self):
        dag = CircuitDAG.from_circuit(
            Circuit(3, [CNOT(0, 1), CNOT(0, 2)]), commute=True
        )
        assert dag.nodes[1].num_predecessors == 0

    def test_commute_target_conflict_keeps_edge(self):
        dag = CircuitDAG.from_circuit(
            Circuit(3, [CNOT(0, 1), CNOT(2, 1)]), commute=True
        )
        # Shared target: X-like on both -> still commutes, no edge.
        assert dag.nodes[1].num_predecessors == 0
        dag = CircuitDAG.from_circuit(
            Circuit(2, [CNOT(0, 1), CNOT(1, 0)]), commute=True
        )
        # Reversed CNOT conflicts on both wires.
        assert dag.nodes[1].num_predecessors == 1

    def test_barrier_blocks_commuting_gates(self):
        dag = CircuitDAG.from_circuit(
            Circuit(1, [RZ(0.1, 0), Barrier(0), RZ(0.2, 0)]), commute=True
        )
        assert dag.nodes[1].num_predecessors == 1
        assert dag.nodes[2].num_predecessors == 1

    def test_append_validates_qubits(self):
        with pytest.raises(ValueError):
            CircuitDAG(2).append(H(5))

    def test_gate_axes_vocabulary(self):
        assert gate_axes(CNOT(0, 1)) == ("Z", "X")
        assert gate_axes(CZ(0, 1)) == ("Z", "Z")
        assert gate_axes(RZ(0.1, 0)) == ("Z",)
        assert gate_axes(S(0)) == ("Z",)
        assert gate_axes(X(0)) == ("X",)
        assert gate_axes(H(0)) == (None,)
        assert gate_axes(SWAP(0, 1)) == (None, None)

    def test_to_circuit_preserves_order(self):
        gates = [H(0), CNOT(0, 1), RZ(0.5, 1), CNOT(0, 1), H(0)]
        for commute in (False, True):
            dag = CircuitDAG.from_circuit(Circuit(2, gates), commute=commute)
            assert dag.to_circuit().gates == gates

    def test_topological_indices_monotone(self):
        rng = np.random.default_rng(7)
        vocab = [H(0), X(1), CNOT(0, 1), CNOT(1, 2), RZ(0.3, 2), SWAP(0, 2)]
        gates = [vocab[i] for i in rng.integers(0, len(vocab), size=40)]
        dag = CircuitDAG.from_circuit(Circuit(3, gates), commute=True)
        for node in dag.nodes:
            for predecessor in node.predecessors:
                assert predecessor.index < node.index


class TestScheduling:
    def test_depth_pinned_five_gate_circuit(self):
        """Hand-computed ASAP levels (guards wire-frontier off-by-ones):

            H(0)       -> level 1 on wire 0
            H(1)       -> level 1 on wire 1
            CNOT(0,1)  -> level 2 (both wires at 1)
            CNOT(1,2)  -> level 3 (wire 1 at 2, wire 2 fresh)
            H(0)       -> level 3 (wire 0 still at 2)
        """
        circuit = Circuit(3, [H(0), H(1), CNOT(0, 1), CNOT(1, 2), H(0)])
        assert circuit.depth() == 3
        assert CircuitDAG.from_circuit(circuit).depth() == 3

    def test_depth_barrier_synchronizes_but_costs_nothing(self):
        circuit = Circuit(2, [H(0), Barrier(0, 1), H(1)])
        # H(1) must wait for the barrier, which waits for H(0).
        assert circuit.depth() == 2
        assert Circuit(2, [H(0), H(1)]).depth() == 1

    def test_measure_costs_nothing(self):
        assert Circuit(1, [H(0), Measure(0)]).depth() == 1

    def test_empty_circuit(self):
        assert Circuit(3).depth() == 0

    def test_duration_critical_path(self):
        model = GateLatencyModel(single_qubit_ns=10.0, cx_ns=100.0)
        circuit = Circuit(3, [H(0), CNOT(0, 1), H(2)])
        dag = CircuitDAG.from_circuit(circuit)
        # Critical path: H(0) -> CNOT = 110 ns; H(2) runs in parallel.
        assert dag.duration(model) == pytest.approx(110.0)

    def test_duration_swap_is_three_cnots(self):
        assert DEFAULT_LATENCY.duration(SWAP(0, 1)) == pytest.approx(
            3 * DEFAULT_LATENCY.cx_ns
        )

    def test_duration_accepts_callable(self):
        dag = CircuitDAG.from_circuit(Circuit(1, [H(0), X(0)]))
        assert dag.duration(lambda gate: 2.0) == pytest.approx(4.0)


class TestScheduleReport:
    def test_swap_decomposition_counts_three_levels(self):
        from repro.compiler import schedule_report

        report = schedule_report(Circuit(2, [SWAP(0, 1)]))
        assert report.depth == 1
        assert report.scheduled_depth == 3
        assert report.duration_ns == pytest.approx(3 * DEFAULT_LATENCY.cx_ns)

    def test_mtr_compiled_program_carries_dag(self):
        from repro.compiler import MergeToRootCompiler
        from repro.core.ir import IRTerm, PauliProgram
        from repro.hardware import xtree
        from repro.pauli import PauliString

        terms = [
            IRTerm(PauliString.from_label("XXI"), 1.0, 0),
            IRTerm(PauliString.from_label("IZZ"), 1.0, 1),
        ]
        program = PauliProgram(3, 2, terms, [0])
        compiled = MergeToRootCompiler(xtree(8)).compile(program)
        assert compiled.dag is not None
        assert compiled.dag.to_circuit().gates == compiled.circuit.gates

    def test_sabre_result_carries_dag(self):
        from repro.compiler import SabreRouter
        from repro.hardware import xtree

        result = SabreRouter(xtree(8)).run(Circuit(8, [CNOT(2, 6), H(3)]))
        assert result.dag is not None
        assert result.dag.to_circuit().gates == result.circuit.gates


class TestCommutingFrontierRouting:
    @pytest.mark.parametrize("seed", range(4))
    def test_commute_routing_equivalent(self, seed):
        """SABRE over the commutation-aware frontier stays correct."""
        from repro.compiler import SabreRouter, assert_routed_equivalent, synthesize_program_chain
        from repro.hardware import xtree
        from test_compiler import random_program

        program = random_program(5, 6, seed=40 + seed)
        params = np.random.default_rng(seed).normal(size=6)
        chain = synthesize_program_chain(program, params)
        result = SabreRouter(xtree(8), commute=True).run(chain)
        assert_routed_equivalent(program, params, result)

    def test_commute_routing_respects_coupling(self):
        from repro.compiler import SabreRouter, synthesize_program_chain
        from repro.hardware import xtree
        from test_compiler import random_program

        program = random_program(6, 8, seed=77)
        chain = synthesize_program_chain(program, [0.1] * 8)
        device = xtree(8)
        result = SabreRouter(device, commute=True).run(chain)
        for gate in result.circuit.decompose_swaps():
            if gate.is_two_qubit():
                assert device.are_connected(*gate.qubits), gate


class TestScheduleReportOracle:
    """The one-pass report equals the DAG walks, duration bits included."""

    @settings(max_examples=200, deadline=None)
    @given(circuits(), latency_models)
    def test_random_circuits_every_gate_kind(self, circuit, latency):
        assert_report_matches_oracle(circuit, latency)

    def test_swap_barrier_measure_pinned(self):
        circuit = Circuit(
            3,
            [H(0), SWAP(0, 1), Barrier(1, 2), Measure(2), CZ(1, 2), Barrier(), SWAP(2, 0)],
        )
        assert_report_matches_oracle(circuit, GateLatencyModel(7.0, 110.0, 90.0, 500.0))
        report = schedule_report(circuit)
        assert (report.depth, report.scheduled_depth) == (4, 8)

    @pytest.mark.parametrize("molecule", TABLE2_MOLECULES)
    def test_table2_molecules_mtr_and_sabre(self, molecule):
        from repro.ansatz import build_uccsd_program
        from repro.chem import build_molecule_hamiltonian
        from repro.compiler import MergeToRootCompiler, SabreRouter, synthesize_program_chain
        from repro.core import compress_ansatz
        from repro.hardware import get_device

        problem = build_molecule_hamiltonian(molecule)
        program = compress_ansatz(
            build_uccsd_program(problem).program, problem.hamiltonian, 0.3
        ).program
        mtr = MergeToRootCompiler(get_device("xtree17")).compile(program)
        chain = synthesize_program_chain(program, [0.0] * program.num_parameters)
        sabre = SabreRouter(get_device("grid17")).run(chain)
        assert_report_matches_oracle(mtr.circuit)
        assert_report_matches_oracle(sabre.circuit)

    def test_routed_corpus_circuits(self):
        from pathlib import Path

        from repro.bench.corpus import corpus_devices, load_corpus
        from repro.compiler import get_compiler
        from repro.hardware import get_device

        corpus = load_corpus(Path(__file__).resolve().parent.parent / "benchmarks" / "corpus")
        assert len(corpus) == 25
        for _, circuit in corpus:
            device = get_device(corpus_devices(circuit.num_qubits)[0])
            for name in ("mtr", "sabre"):
                routed = get_compiler(name).compile_circuit(circuit, device).circuit
                assert_report_matches_oracle(routed)


class TestDependencyEdges:
    """The integer edge derivation equals the builder's edge set."""

    @settings(max_examples=200, deadline=None)
    @given(circuits(max_gates=60), st.booleans())
    def test_matches_builder(self, circuit, commute):
        dag = CircuitDAG.from_circuit(circuit, commute=commute)
        edges = dependency_edges(circuit.gates, circuit.num_qubits, commute=commute)
        assert edges == _edge_set(dag)

    def test_commuting_group_pinned(self):
        # Two CNOTs sharing a control form one Z group on wire 0; the H
        # after them depends on both, the RZ before them on neither.
        gates = [RZ(0.1, 0), H(0), CNOT(0, 1), CNOT(0, 2), H(0)]
        assert dependency_edges(gates, 3, commute=True) == {(0, 1), (1, 2), (1, 3), (2, 4), (3, 4)}
        assert dependency_edges(gates, 3) == {(0, 1), (1, 2), (2, 3), (3, 4)}

    def test_rejects_out_of_range_qubit(self):
        with pytest.raises(ValueError, match="touches qubit 5"):
            dependency_edges([H(0), H(5)], 2)
