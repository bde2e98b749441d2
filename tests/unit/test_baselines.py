"""Unit tests for the baseline locking schemes.

Every baseline must (a) produce a structurally valid circuit, (b) behave like
the original under its correct key, and (c) corrupt behaviour under a wrong
key — the same contract the Cute-Lock transforms satisfy.
"""

import pytest

from repro.fsm.random_fsm import random_fsm
from repro.fsm.synthesis import synthesize_fsm
from repro.locking.baselines import (
    lock_antisat,
    lock_dklock,
    lock_harpoon,
    lock_rll,
    lock_sarlock,
    lock_ttlock,
)
from repro.netlist.validate import has_errors, validate_circuit
from repro.sim.equivalence import random_equivalence_check, sequential_equivalence_check


@pytest.fixture(scope="module")
def base_circuit():
    fsm = random_fsm(8, 2, 2, seed=5)
    return synthesize_fsm(fsm)


def check_combinational_contract(locked, *, wrong_flip=1):
    """Correct key -> equivalent; flipped key -> not equivalent (comb view)."""
    assert not has_errors(validate_circuit(locked.circuit))
    correct = locked.correct_key_bits(0)
    ok = random_equivalence_check(
        locked.original, locked.circuit, key_assignment=correct, num_vectors=128
    )
    assert ok.equivalent
    wrong = dict(correct)
    flip_net = locked.key_inputs[0]
    wrong[flip_net] = 1 - wrong[flip_net]
    bad = random_equivalence_check(
        locked.original, locked.circuit, key_assignment=wrong, num_vectors=256
    )
    return ok, bad


class TestRll:
    def test_contract(self, base_circuit):
        locked = lock_rll(base_circuit, 5, seed=1)
        ok, bad = check_combinational_contract(locked)
        assert not bad.equivalent

    def test_key_count_clamped(self, base_circuit):
        locked = lock_rll(base_circuit, 10_000, seed=1)
        assert len(locked.key_inputs) <= len(base_circuit.gates)

    def test_schedule_is_static(self, base_circuit):
        locked = lock_rll(base_circuit, 4, seed=2)
        assert locked.schedule.is_static() or locked.schedule.num_keys == 1


class TestSarlock:
    def test_correct_key_equivalent(self, base_circuit):
        locked = lock_sarlock(base_circuit, num_key_bits=4, seed=2)
        ok, _ = check_combinational_contract(locked)
        assert ok.equivalent

    def test_wrong_key_corrupts_exactly_on_matching_pattern(self, base_circuit):
        locked = lock_sarlock(base_circuit, num_key_bits=4, seed=2)
        # SARLock corrupts only when the applied input equals the applied
        # (wrong) key, so random vectors rarely hit it; check the specific
        # corrupting pattern instead.
        from repro.sim.logicsim import CombinationalSimulator

        view = locked.circuit.combinational_view()
        sim = CombinationalSimulator(view)
        compared = locked.metadata["compared_inputs"]
        wrong_value = (locked.schedule.values[0] + 1) % (1 << locked.key_width)
        vector = {net: 0 for net in view.inputs}
        for index, net in enumerate(compared):
            vector[net] = (wrong_value >> (locked.key_width - 1 - index)) & 1
        for index, net in enumerate(locked.key_inputs):
            vector[net] = (wrong_value >> (locked.key_width - 1 - index)) & 1
        locked_out = sim.outputs(vector)
        oracle_view = locked.original.combinational_view()
        oracle_out = CombinationalSimulator(oracle_view).evaluate(
            {net: vector.get(net, 0) for net in oracle_view.inputs}
        )
        target = locked.metadata["target_output"]
        assert locked_out[target] != oracle_out[target]


class TestAntisat:
    def test_correct_key_equivalent(self, base_circuit):
        locked = lock_antisat(base_circuit, block_width=4, seed=3)
        ok, _ = check_combinational_contract(locked)
        assert ok.equivalent

    def test_key_width_is_double_block_width(self, base_circuit):
        locked = lock_antisat(base_circuit, block_width=3, seed=3)
        expected_block = min(3, len(base_circuit.functional_inputs))
        assert len(locked.key_inputs) == 2 * expected_block


class TestTtlock:
    def test_contract(self, base_circuit):
        locked = lock_ttlock(base_circuit, num_key_bits=4, seed=4)
        ok, _ = check_combinational_contract(locked)
        assert ok.equivalent

    def test_restore_unit_recorded(self, base_circuit):
        locked = lock_ttlock(base_circuit, num_key_bits=4, seed=4)
        assert locked.metadata["restore_net"] in locked.circuit.gates


class TestHarpoon:
    def test_correct_key_sequential_equivalent(self, base_circuit):
        locked = lock_harpoon(base_circuit, key_width=3, unlock_cycles=2, seed=5)
        assert not has_errors(validate_circuit(locked.circuit))
        verdict = sequential_equivalence_check(
            locked.original, locked.circuit,
            key_schedule=[locked.schedule.values[0]], key_inputs=locked.key_inputs,
            num_sequences=4, sequence_length=20,
        )
        assert verdict.equivalent

    def test_wrong_key_masks_outputs(self, base_circuit):
        locked = lock_harpoon(base_circuit, key_width=3, unlock_cycles=2, seed=5)
        wrong = locked.schedule.values[0] ^ 0b111
        verdict = sequential_equivalence_check(
            locked.original, locked.circuit,
            key_schedule=[wrong], key_inputs=locked.key_inputs,
            num_sequences=4, sequence_length=20,
        )
        assert not verdict.equivalent


class TestDkLock:
    def test_correct_key_sequential_equivalent(self, base_circuit):
        locked = lock_dklock(base_circuit, key_width=4, activation_cycles=2, seed=6)
        assert not has_errors(validate_circuit(locked.circuit))
        verdict = sequential_equivalence_check(
            locked.original, locked.circuit,
            key_schedule=[locked.schedule.values[0]], key_inputs=locked.key_inputs,
            num_sequences=4, sequence_length=20,
        )
        assert verdict.equivalent

    def test_wrong_functional_key_corrupts(self, base_circuit):
        locked = lock_dklock(base_circuit, key_width=4, activation_cycles=2, seed=6)
        wrong = locked.schedule.values[0] ^ 0b1  # flip one functional key bit
        verdict = sequential_equivalence_check(
            locked.original, locked.circuit,
            key_schedule=[wrong], key_inputs=locked.key_inputs,
            num_sequences=6, sequence_length=24,
        )
        assert not verdict.equivalent

    def test_key_pin_count(self, base_circuit):
        locked = lock_dklock(base_circuit, key_width=5, seed=6)
        assert len(locked.key_inputs) == 10
