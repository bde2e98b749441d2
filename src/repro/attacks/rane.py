"""RANE-style attack (Roshanisefat et al., GLSVLSI 2021).

RANE drives formal verification engines over the *netlist pair* (locked
circuit, functional netlist), modelling the secret — key bits and, for
sequential locking, the initial/unlocking state — as free symbolic variables,
and asks the engine for an assignment that makes the two designs equivalent
over a bounded horizon.

The reproduction realises the same idea as a counterexample-guided inductive
synthesis (CEGIS) loop on top of our SAT layer:

1. *Synthesis step* — find a static key (and, optionally, an initial counter
   state) consistent with every counterexample collected so far.
2. *Verification step* — unroll locked-with-candidate-key against the
   reference netlist and search for an input sequence on which they differ.
   If none exists the candidate is accepted (after a final simulation check);
   otherwise the counterexample's reference response is added to the
   constraint set and the loop repeats.

Both sides of the loop are incremental :class:`~repro.sat.session.\
SolveSession` queries, whose two :class:`~repro.sat.session.SolverTelemetry`
blocks are merged into the result's one ``solver`` block when the attack
ends: the verification unrolling is encoded once, with the candidate key
applied through solver *assumptions* rather than baked-in unit clauses, so
learned clauses survive across candidates; and each verification round
harvests up to ``cex_batch`` distinct counterexamples behind
activation-gated blocking clauses, answering them with one lane-parallel
pass of the batched sequential oracle.

**Adaptive verify depth.**  Verification starts at ``initial_depth`` frames
and only deepens — via :func:`~repro.attacks.unroll.extend_unrolled`, in
place, on the same encoder and solver — when a candidate survives bounded
equivalence at the current horizon.  Early CEGIS rounds (where candidates
are bad and shallow counterexamples abound) therefore never pay for the
full ``depth``-frame unrolling, and each deepening keeps every learned
clause instead of re-unrolling from scratch.

Against Cute-Lock the synthesis step eventually runs out of candidates (no
static key makes the designs equivalent), which is reported as ``CNS`` /
``FAIL`` — the paper's Table IV outcome for RANE.
"""

from __future__ import annotations

import time
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.attacks.results import AttackOutcome, AttackResult
from repro.attacks.sat_attack import _as_locked_pair
from repro.attacks.sequential_core import _extract_input_sequence
from repro.attacks.unroll import encode_unrolled, extend_unrolled
from repro.engine.batch_oracle import BatchedSequentialOracle
from repro.locking.base import LockedCircuit, pack_key_bits
from repro.netlist.circuit import Circuit
from repro.sat.session import SolveSession, SolverTelemetry
from repro.sat.tseitin import TseitinEncoder
from repro.sim.equivalence import sequential_equivalence_check
from repro.trace.writer import trace_event


def _block_input_sequence(
    encoder: TseitinEncoder,
    frame_inputs: Sequence[Dict[str, str]],
    functional_inputs: Sequence[str],
    sequence: Sequence[Dict[str, int]],
    act_name: str,
) -> int:
    """Add an activation-gated clause forbidding ``sequence`` as the input.

    Returns the activation literal: the clause only bites while that literal
    is assumed, so the block is scoped to the harvesting round that created
    it (afterwards an unassumed activation variable keeps the clause
    satisfiable — in particular input-free solves are unaffected).
    """
    act_literal = encoder.literal(act_name, True)
    clause = [-act_literal]
    for frame, vector in enumerate(sequence):
        frame_map = frame_inputs[frame]
        for net in functional_inputs:
            clause.append(encoder.literal(frame_map[net], not bool(vector[net])))
    encoder.cnf.add_clause(clause)
    return act_literal


def rane_attack(
    locked: Union[LockedCircuit, Circuit],
    oracle_circuit: Optional[Circuit] = None,
    *,
    depth: int = 8,
    initial_depth: int = 2,
    max_iterations: int = 64,
    time_limit: float = 180.0,
    conflict_limit: Optional[int] = 200_000,
    verify_sequences: int = 8,
    verify_length: int = 48,
    cex_batch: int = 4,
) -> AttackResult:
    """Run the RANE-style CEGIS unlocking attack.

    ``depth`` bounds the verification horizon; ``initial_depth`` is where the
    adaptive unrolling starts (it doubles, via ``extend_unrolled``, each time
    a candidate key survives the current horizon).
    """
    locked_circuit, reference = _as_locked_pair(locked, oracle_circuit)
    start = time.monotonic()
    deadline = start + time_limit
    if cex_batch < 1:
        raise ValueError("cex_batch must be at least 1")
    if initial_depth < 1:
        raise ValueError("initial_depth must be at least 1")

    if not locked_circuit.key_inputs:
        return AttackResult(attack="rane", outcome=AttackOutcome.FAIL,
                            details={"reason": "circuit has no key inputs"})

    oracle = BatchedSequentialOracle(reference)
    key_nets = list(locked_circuit.key_inputs)
    functional_inputs = [n for n in locked_circuit.inputs if n not in set(key_nets)]
    shared_outputs = [o for o in locked_circuit.outputs if o in set(reference.outputs)]
    if not shared_outputs:
        return AttackResult(attack="rane", outcome=AttackOutcome.FAIL,
                            details={"reason": "locked circuit and reference share no outputs"})

    # --- synthesis side: one constraint copy of the locked circuit per
    # counterexample, all sharing the KA@ key variables.
    synth = SolveSession(conflict_limit=conflict_limit, deadline=deadline)
    synth_encoder = synth.encoder
    counterexamples: List[Tuple[List[Dict[str, int]], List[Dict[str, int]]]] = []

    def add_counterexample(dis: List[Dict[str, int]], responses: List[Dict[str, int]]) -> None:
        tag = len(counterexamples)
        copy = encode_unrolled(
            synth_encoder, locked_circuit, len(dis), prefix=f"ce{tag}#",
            shared_input_prefix=f"ce{tag}X", key_prefix="KA@",
        )
        for frame, (vector, response) in enumerate(zip(dis, responses)):
            for net in functional_inputs:
                synth_encoder.add_value(copy.frame_inputs[frame][net], vector[net])
            for out in shared_outputs:
                synth_encoder.add_value(copy.frame_outputs[frame][out], response[out])
        counterexamples.append((dis, responses))

    # Touch the key variables so a candidate exists even with no constraints.
    for net in key_nets:
        synth_encoder.var(f"KA@{net}")

    # --- verification side, built once at the initial horizon: the candidate
    # key enters through assumptions on the VK@ variables, never through unit
    # clauses, so the same solver (and its learned clauses) serves every
    # candidate — and survives every adaptive deepening.
    verify = SolveSession(conflict_limit=conflict_limit, deadline=deadline)
    verify_encoder = verify.encoder
    current_depth = min(initial_depth, depth)
    locked_copy = encode_unrolled(
        verify_encoder, locked_circuit, current_depth, prefix="L#",
        shared_input_prefix="VX", key_prefix="VK@",
    )
    reference_copy = encode_unrolled(
        verify_encoder, reference, current_depth, prefix="R#",
        shared_input_prefix="VX", key_prefix="VRK@",
    )

    def encode_diff(start_frame: int, end_frame: int) -> str:
        """Inequality net over the output pairs of frames [start, end)."""
        nets_locked: List[str] = []
        nets_reference: List[str] = []
        for frame in range(start_frame, end_frame):
            for out in shared_outputs:
                nets_locked.append(locked_copy.frame_outputs[frame][out])
                nets_reference.append(reference_copy.frame_outputs[frame][out])
        return verify_encoder.encode_inequality(nets_locked, nets_reference)

    diff_net = encode_diff(0, current_depth)
    blocking_clauses = 0
    depth_extensions = 0

    def extract_dis(model: Dict[int, int]) -> List[Dict[str, int]]:
        return _extract_input_sequence(
            verify_encoder, model, locked_copy.frame_inputs, functional_inputs,
            current_depth,
        )

    def block_dis(dis: List[Dict[str, int]]) -> int:
        """Activation-gated clause forbidding ``dis``; scoped to one round."""
        nonlocal blocking_clauses
        blocking_clauses += 1
        return _block_input_sequence(
            verify_encoder, locked_copy.frame_inputs, functional_inputs, dis,
            f"__cex_block_{blocking_clauses}",
        )

    iterations = 0

    def finish(outcome: AttackOutcome, key: Optional[Dict[str, int]] = None, **details) -> AttackResult:
        telemetry = SolverTelemetry()
        telemetry.merge(synth.telemetry)
        telemetry.merge(verify.telemetry)
        return AttackResult(
            attack="rane", outcome=outcome, key=key, iterations=iterations,
            runtime_seconds=time.monotonic() - start,
            details={"oracle_queries": oracle.queries, "depth": depth,
                     "verify_depth": current_depth,
                     "depth_extensions": depth_extensions,
                     "solver": telemetry.to_dict(), **details},
        )

    while iterations < max_iterations:
        if time.monotonic() > deadline:
            return finish(AttackOutcome.TIMEOUT, reason="time limit")
        iterations += 1

        # Synthesis: propose a key consistent with all counterexamples.
        status = synth.solve(phase="synthesis")
        if status is None:
            return finish(AttackOutcome.TIMEOUT, reason="solver limit during synthesis")
        if status is False:
            return finish(AttackOutcome.CNS,
                          reason="no static key makes the designs equivalent")
        model = synth.model()
        candidate = {
            net: model.get(synth_encoder.varmap.get(f"KA@{net}", -1), 0) for net in key_nets
        }

        # Verification: bounded equivalence of locked(candidate) vs reference,
        # harvesting up to cex_batch distinguishing sequences per round; a
        # candidate that survives the current horizon deepens the unrolling
        # in place (extend_unrolled) until the full depth is reached.
        key_assumptions = [
            verify_encoder.literal(f"VK@{net}", bool(candidate[net])) for net in key_nets
        ]
        harvested: List[List[Dict[str, int]]] = []
        equivalent = False
        solver_limited = False
        while True:
            block_assumptions: List[int] = []
            round_equivalent = False
            while len(harvested) < cex_batch:
                status = verify.solve(
                    assumptions=[verify_encoder.literal(diff_net, True)]
                    + key_assumptions + block_assumptions,
                    phase="verify",
                )
                if status is None:
                    solver_limited = True
                    break
                if status is False:
                    # Only an unblocked UNSAT proves bounded equivalence.
                    round_equivalent = not block_assumptions
                    break
                dis = extract_dis(verify.model())
                harvested.append(dis)
                if len(harvested) >= cex_batch or time.monotonic() > deadline:
                    break
                block_assumptions.append(block_dis(dis))
            if round_equivalent and current_depth < depth:
                # The candidate survived this horizon: deepen the existing
                # unrolling (same encoder, same solver, learned clauses kept)
                # and re-verify instead of accepting a too-shallow proof.
                # The comparator grows incrementally too — only the new
                # frames are encoded, OR-ed with the previous diff net.
                previous_depth = current_depth
                current_depth = min(current_depth * 2, depth)
                extend_unrolled(verify_encoder, locked_circuit, locked_copy,
                                current_depth)
                extend_unrolled(verify_encoder, reference, reference_copy,
                                current_depth)
                diff_net = verify_encoder.encode_any(
                    [diff_net, encode_diff(previous_depth, current_depth)]
                )
                depth_extensions += 1
                continue
            equivalent = round_equivalent
            break

        trace_event(
            "attack-round",
            attack="rane",
            round=iterations,
            depth=current_depth,
            harvested=len(harvested),
            equivalent=equivalent,
        )
        if equivalent:
            # Bounded-equivalent at full depth: accept after a final
            # simulation check.
            packed = pack_key_bits(candidate, key_nets)
            verdict = sequential_equivalence_check(
                reference, locked_circuit, key_schedule=[packed], key_inputs=key_nets,
                num_sequences=verify_sequences, sequence_length=verify_length,
            )
            outcome = AttackOutcome.CORRECT if verdict.equivalent else AttackOutcome.WRONG_KEY
            return finish(outcome, key=candidate)
        if solver_limited and not harvested:
            return finish(AttackOutcome.TIMEOUT, reason="solver limit during verification")

        # Counterexamples: one lane-parallel oracle pass answers the whole
        # round; every response refutes the current candidate in synthesis.
        responses_list = oracle.query_batch(harvested)
        for dis, responses in zip(harvested, responses_list):
            responses = [{out: resp[out] for out in shared_outputs} for resp in responses]
            add_counterexample(dis, responses)

    return finish(AttackOutcome.TIMEOUT, reason="iteration limit reached")
