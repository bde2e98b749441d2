"""Unit tests for the Circuit container (repro.netlist.circuit)."""

import pytest

from repro.netlist.circuit import Circuit, CircuitError
from repro.netlist.gates import GateType


def small_sequential_circuit() -> Circuit:
    """a, b -> y = (a AND b) XOR q ; q <- a OR q."""
    circuit = Circuit(name="small")
    circuit.add_input("a")
    circuit.add_input("b")
    circuit.add_gate("ab", GateType.AND, ["a", "b"])
    circuit.add_gate("next_q", GateType.OR, ["a", "q"])
    circuit.add_dff("q", "next_q", init=0)
    circuit.add_gate("y", GateType.XOR, ["ab", "q"])
    circuit.add_output("y")
    return circuit


class TestConstruction:
    def test_duplicate_input_rejected(self):
        circuit = Circuit()
        circuit.add_input("a")
        with pytest.raises(CircuitError):
            circuit.add_input("a")

    def test_duplicate_driver_rejected(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate("y", GateType.NOT, ["a"])
        with pytest.raises(CircuitError):
            circuit.add_gate("y", GateType.BUF, ["a"])
        with pytest.raises(CircuitError):
            circuit.add_dff("y", "a")

    def test_key_inputs_tracked(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_input("keyinput0", is_key=True)
        assert circuit.key_inputs == ["keyinput0"]
        assert circuit.functional_inputs == ["a"]

    def test_fresh_net_does_not_collide(self):
        circuit = small_sequential_circuit()
        names = {circuit.fresh_net("n") for _ in range(50)}
        assert len(names) == 50
        assert not any(circuit.drives(n) for n in names)

    def test_replace_dff_input(self):
        circuit = small_sequential_circuit()
        circuit.add_gate("other", GateType.NOT, ["a"])
        circuit.replace_dff_input("q", "other")
        assert circuit.dffs["q"].d == "other"
        with pytest.raises(CircuitError):
            circuit.replace_dff_input("nonexistent", "other")


    def test_input_cannot_redeclare_a_driven_net(self):
        circuit = small_sequential_circuit()
        for net in ("ab", "q"):  # a gate output and a flip-flop Q
            with pytest.raises(CircuitError, match="already driven"):
                circuit.add_input(net)
        assert circuit.inputs == ["a", "b"]

    def test_remove_gate(self):
        circuit = small_sequential_circuit()
        gate = circuit.remove_gate("ab")
        assert gate.gtype is GateType.AND and gate.inputs == ("a", "b")
        assert not circuit.drives("ab")
        with pytest.raises(CircuitError, match="no gate drives 'ab'"):
            circuit.remove_gate("ab")

    def test_replace_dff_input_keeps_reset_value(self):
        circuit = small_sequential_circuit()
        circuit.add_dff("p", "a", init=1)
        circuit.replace_dff_input("p", "next_q")
        assert circuit.dffs["p"].d == "next_q"
        assert circuit.dffs["p"].init == 1

class TestQueries:
    def test_topological_order_respects_dependencies(self):
        circuit = small_sequential_circuit()
        order = circuit.topological_order()
        assert set(order) == set(circuit.gates)
        assert order.index("ab") < order.index("y")

    def test_cycle_detection(self):
        circuit = Circuit()
        circuit.add_input("a")
        circuit.add_gate("x", GateType.AND, ["a", "y"])
        circuit.add_gate("y", GateType.OR, ["x", "a"])
        with pytest.raises(CircuitError):
            circuit.topological_order()

    def test_fanin_cone_stops_at_dffs(self):
        circuit = small_sequential_circuit()
        cone = circuit.fanin_cone("y")
        assert "q" in cone and "ab" in cone and "a" in cone
        assert "next_q" not in cone  # behind the sequential boundary

    def test_fanin_cone_through_dffs(self):
        circuit = small_sequential_circuit()
        cone = circuit.fanin_cone("y", stop_at_dffs=False)
        assert "next_q" in cone

    def test_key_dependent_gates(self):
        circuit = small_sequential_circuit()
        circuit.add_input("keyinput0", is_key=True)
        circuit.add_gate("keyed", GateType.XOR, ["y", "keyinput0"])
        assert "keyed" in circuit.key_dependent_gates()
        assert "ab" not in circuit.key_dependent_gates()

    def test_stats_properties(self):
        circuit = small_sequential_circuit()
        assert circuit.num_gates == 3
        assert circuit.num_dffs == 1
        assert circuit.state_nets == ["q"]
        assert "y" in circuit
        assert "nonexistent" not in circuit


class TestTransforms:
    def test_copy_is_independent(self):
        circuit = small_sequential_circuit()
        clone = circuit.copy()
        clone.add_input("c")
        assert "c" not in circuit.inputs
        assert clone == small_sequential_circuit() or "c" in clone.inputs

    def test_renamed_preserves_structure(self):
        circuit = small_sequential_circuit()
        mapping = {net: f"X_{net}" for net in circuit.all_nets()}
        renamed = circuit.renamed(mapping)
        assert "X_y" in renamed.outputs
        assert renamed.num_gates == circuit.num_gates
        assert renamed.dffs["X_q"].d == "X_next_q"

    def test_equality_is_structural(self):
        circuit = small_sequential_circuit()
        assert circuit.copy(name="other") == circuit  # the name is not structure
        keyed = small_sequential_circuit()
        keyed.key_inputs.append("b")
        assert keyed != circuit
        grown = small_sequential_circuit()
        grown.add_gate("extra", GateType.NOT, ["a"])
        assert grown != circuit
        assert circuit != "small"

    def test_combinational_view_exposes_state(self):
        circuit = small_sequential_circuit()
        view = circuit.combinational_view()
        assert "q" in view.inputs
        assert "q__ns" in view.outputs
        assert not view.dffs
        # The pseudo-output is driven by a BUF of the original D net.
        assert view.gates["q__ns"].inputs == ("next_q",)
