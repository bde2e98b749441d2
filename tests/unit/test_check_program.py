"""Unit tests for the op-list check and word sanitizer (repro.check.program)."""

import dataclasses
import operator

import pytest

from repro.check.program import (
    KernelVerificationError,
    verify_compiled,
    verify_packed_words,
)
from repro.engine import compiler
from repro.engine.compiler import CONST, FOLD, MUX, PackedOp, compile_circuit
from repro.engine.packed import PackedSimulator
from repro.fsm.random_fsm import random_fsm
from repro.fsm.synthesis import synthesize_fsm
from repro.netlist.circuit import Circuit, CircuitError
from repro.netlist.gates import GateType


def small_circuit() -> Circuit:
    circuit = Circuit(name="check_program")
    for net in ("a", "b", "c"):
        circuit.add_input(net)
    circuit.add_gate("n1", GateType.AND, ["a", "b"])
    circuit.add_gate("n2", GateType.XOR, ["n1", "c"])
    circuit.add_gate("y", GateType.NOR, ["n1", "n2"])
    circuit.add_output("y")
    return circuit


def with_ops(ops, sources=(0,)):
    """``small_circuit``'s six-slot program with ``ops`` spliced in."""
    return dataclasses.replace(
        compile_circuit(small_circuit()),
        input_slots=list(sources),
        state_items=[],
        ops=list(ops),
    )


def violations_of(ops, sources=(0,)):
    with pytest.raises(KernelVerificationError) as err:
        verify_compiled(with_ops(ops, sources))
    return "\n".join(err.value.violations)


# --------------------------------------------------------------------- #
# clean fixtures verify silently
# --------------------------------------------------------------------- #
def test_real_compiled_circuit_verifies():
    compiled = compile_circuit(small_circuit())
    assigned = verify_compiled(compiled)
    assert sorted(assigned) == sorted(op.out_slot for op in compiled.ops)


def test_synthesized_fsm_verifies():
    circuit = synthesize_fsm(random_fsm(8, 2, 2, seed=5))
    assert verify_compiled(compile_circuit(circuit))


def test_every_gate_type_verifies():
    circuit = Circuit(name="all_gates")
    for net in ("a", "b", "s"):
        circuit.add_input(net)
    gates = [
        ("g_buf", GateType.BUF, ("a",)),
        ("g_not", GateType.NOT, ("a",)),
        ("g_and", GateType.AND, ("a", "b")),
        ("g_nand", GateType.NAND, ("a", "b")),
        ("g_or", GateType.OR, ("a", "b")),
        ("g_nor", GateType.NOR, ("a", "b")),
        ("g_xor", GateType.XOR, ("a", "b")),
        ("g_xnor", GateType.XNOR, ("a", "b")),
        ("g_mux", GateType.MUX, ("s", "g_and", "g_or")),
        ("g_c0", GateType.CONST0, ()),
        ("g_c1", GateType.CONST1, ()),
    ]
    for output, gtype, inputs in gates:
        circuit.add_gate(output, gtype, inputs)
    circuit.add_gate("y", GateType.OR,
                     ("g_buf", "g_not", "g_nand", "g_nor",
                      "g_xor", "g_xnor", "g_mux", "g_c0", "g_c1"))
    circuit.add_output("y")
    compiled = compile_circuit(circuit)
    verify_compiled(compiled)
    assert {op.kind for op in compiled.ops} == {FOLD, MUX, CONST}


def test_empty_program_verifies():
    circuit = Circuit(name="wires")
    circuit.add_input("a")
    circuit.add_output("a")
    assert verify_compiled(compile_circuit(circuit)) == []


def test_zero_constant_allowed():
    compiled = with_ops([PackedOp(CONST, None, False, 1, ())])
    assert verify_compiled(compiled) == [1]
    values = [1] * compiled.num_slots
    compiled.run(values, 1)
    assert values[1] == 0


# --------------------------------------------------------------------- #
# seeded violations are caught with precise messages
# --------------------------------------------------------------------- #
def test_use_before_def_caught():
    text = violations_of([PackedOp(FOLD, operator.and_, False, 1, (0, 2))])
    assert "reads slot 2 before it is defined" in text


def test_spliced_cycle_caught():
    # A combinational cycle lowered to a straight-line op list reads its
    # own output slot: use-before-def on itself.
    text = violations_of([PackedOp(FOLD, operator.and_, False, 1, (0, 1))])
    assert "reads slot 1 before it is defined" in text


def test_double_assignment_caught():
    text = violations_of([
        PackedOp(FOLD, operator.and_, False, 1, (0,)),
        PackedOp(FOLD, operator.and_, True, 1, (0,)),
    ])
    assert "slot 1 assigned twice" in text
    # Writing a source slot is a double assignment too.
    assert "slot 0 assigned twice" in violations_of(
        [PackedOp(CONST, None, False, 0, ())]
    )


def test_non_bitwise_operator_caught():
    text = violations_of([PackedOp(FOLD, operator.add, False, 1, (0, 0))])
    assert "op #0: fold over 2 input(s)" in text and "add" in text


def test_wrong_signature_caught():
    # Each kind has one arity: a MUX reads three slots, a CONST none, a
    # FOLD at least one; an unknown kind never reaches the interpreter.
    text = violations_of([
        PackedOp(MUX, None, False, 1, (0, 0)),
        PackedOp(CONST, None, True, 2, (0,)),
        PackedOp(FOLD, operator.or_, False, 3, ()),
        PackedOp("shift", None, False, 4, (0,)),
        PackedOp(CONST, None, False, 99, ()),
    ])
    assert "op #0: mux reads 2 slot(s), expected 3" in text
    assert "op #1: const reads 1 slot(s), expected 0" in text
    assert "op #2: fold over 0 input(s)" in text
    assert "op #3: unknown kind 'shift'" in text
    assert "op #4: writes slot 99 out of range" in text


def test_verify_compiled_catches_corrupted_ops():
    compiled = compile_circuit(small_circuit())
    # Splice a cycle at the op level: the last op now reads its own output.
    victim = compiled.ops[-1]
    compiled.ops[-1] = victim._replace(
        in_slots=(victim.out_slot,) + victim.in_slots[1:]
    )
    with pytest.raises(KernelVerificationError) as err:
        verify_compiled(compiled)
    assert f"reads slot {victim.out_slot} before it is defined" in str(err.value)


# --------------------------------------------------------------------- #
# compile-time integration (env flag)
# --------------------------------------------------------------------- #
def test_compile_circuit_env_opt_in(monkeypatch):
    # Corrupt the lowering table so XOR folds with a non-bitwise operator.
    monkeypatch.setitem(
        compiler._LOWERING, GateType.XOR, (FOLD, operator.add, False)
    )
    monkeypatch.setenv("REPRO_CHECK_KERNELS", "0")
    compile_circuit(small_circuit())  # unchecked: compiles
    monkeypatch.setenv("REPRO_CHECK_KERNELS", "1")
    with pytest.raises(KernelVerificationError):
        compile_circuit(small_circuit())
    # And the error is a CircuitError, so existing handlers catch it.
    assert issubclass(KernelVerificationError, CircuitError)


# --------------------------------------------------------------------- #
# runtime word sanitizer
# --------------------------------------------------------------------- #
def test_verify_packed_words_clean():
    verify_packed_words([0, 1, 255], 255)


def test_verify_packed_words_catches_overflow_and_sign():
    with pytest.raises(KernelVerificationError) as err:
        verify_packed_words([0, 256], 255)
    assert "word #1" in str(err.value)
    with pytest.raises(KernelVerificationError):
        verify_packed_words([-1], 255)


def test_packed_simulator_check_words_flag(monkeypatch):
    monkeypatch.setenv("REPRO_CHECK_KERNELS", "1")
    circuit = small_circuit()
    sim = PackedSimulator(circuit)
    assert sim.check_words
    out = sim.output_words({"a": 0b1010, "b": 0b1100, "c": 0b0110}, width=4)
    assert out["y"] == (~((0b1010 & 0b1100) | ((0b1010 & 0b1100) ^ 0b0110))) & 0b1111
