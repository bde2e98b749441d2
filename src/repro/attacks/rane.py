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
ends.  The verification unrolling is encoded once, with the candidate key
applied through solver *assumptions* rather than baked-in unit clauses, so
learned clauses survive across candidates.  Each verification call yields
at most one counterexample, which the oracle answers with one single-lane
:meth:`~repro.engine.batch_oracle.BatchedSequentialOracle.query`.

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

from typing import Dict, List, Optional, Union

from repro.attacks.results import AttackOutcome, AttackResult
from repro.attacks.sat_attack import _AttackFrame
from repro.attacks.sequential_core import _extract_input_sequence
from repro.attacks.unroll import encode_unrolled, extend_unrolled
from repro.locking.base import LockedCircuit
from repro.netlist.circuit import Circuit
from repro.trace.writer import trace_event


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
) -> AttackResult:
    """Run the RANE-style CEGIS unlocking attack.

    ``depth`` bounds the verification horizon; ``initial_depth`` is where the
    adaptive unrolling starts (it doubles, via ``extend_unrolled``, each time
    a candidate key survives the current horizon).
    """
    if initial_depth < 1:
        raise ValueError("initial_depth must be at least 1")
    frame = _AttackFrame(
        "rane", locked, oracle_circuit, scan=False, time_limit=time_limit,
        conflict_limit=conflict_limit,
        key_check={"num_sequences": verify_sequences, "sequence_length": verify_length},
    )
    if frame.refusal is not None:
        return frame.refusal
    locked_circuit, reference = frame.locked, frame.original
    key_nets, shared_outputs = frame.key_nets, frame.shared_outputs

    # --- synthesis side: one constraint copy of the locked circuit per
    # counterexample, all sharing the KA@ key variables.
    synth = frame.session()
    synth_encoder = synth.encoder
    # Touch the key variables so a candidate exists even with no constraints.
    for net in key_nets:
        synth_encoder.var(f"KA@{net}")

    # --- verification side, built once at the initial horizon: the candidate
    # key enters through assumptions on the VK@ variables, never through unit
    # clauses, so the same solver (and its learned clauses) serves every
    # candidate — and survives every adaptive deepening.
    verify = frame.session()
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
        for index in range(start_frame, end_frame):
            for out in shared_outputs:
                nets_locked.append(locked_copy.frame_outputs[index][out])
                nets_reference.append(reference_copy.frame_outputs[index][out])
        return verify_encoder.encode_inequality(nets_locked, nets_reference)

    diff_net = encode_diff(0, current_depth)
    depth_extensions = 0

    def details() -> Dict[str, object]:
        return {"depth": depth, "verify_depth": current_depth,
                "depth_extensions": depth_extensions}

    while frame.iterations < max_iterations:
        if frame.out_of_time():
            return frame.finish(AttackOutcome.TIMEOUT, reason="time limit", **details())
        frame.iterations += 1

        # Synthesis: propose a key consistent with all counterexamples.
        status = synth.solve(phase="synthesis")
        if status is None:
            return frame.finish(AttackOutcome.TIMEOUT, reason="solver limit during synthesis",
                                **details())
        if status is False:
            return frame.finish(AttackOutcome.CNS,
                                reason="no static key makes the designs equivalent", **details())
        model = synth.model()
        candidate = {net: synth_encoder.value(model, f"KA@{net}") for net in key_nets}

        # Verification: bounded equivalence of locked(candidate) vs reference.
        # A candidate that survives the current horizon deepens the unrolling
        # in place (same encoder, same solver, learned clauses kept) and is
        # re-verified, until the full depth is reached; the comparator grows
        # incrementally too — only the new frames are encoded, OR-ed with the
        # previous diff net.
        key_assumptions = [
            verify_encoder.literal(f"VK@{net}", bool(candidate[net])) for net in key_nets
        ]
        while True:
            status = verify.solve(
                assumptions=[verify_encoder.literal(diff_net, True)] + key_assumptions,
                phase="verify",
            )
            if status is not False or current_depth >= depth:
                break
            previous_depth = current_depth
            current_depth = min(current_depth * 2, depth)
            extend_unrolled(verify_encoder, locked_circuit, locked_copy, current_depth)
            extend_unrolled(verify_encoder, reference, reference_copy, current_depth)
            diff_net = verify_encoder.encode_any(
                [diff_net, encode_diff(previous_depth, current_depth)]
            )
            depth_extensions += 1

        trace_event(
            "attack-round",
            attack="rane",
            round=frame.iterations,
            depth=current_depth,
            harvested=int(bool(status)),
            equivalent=status is False,
        )
        if status is False:
            # Bounded-equivalent at full depth: accept after a final
            # simulation check.
            return frame.classify(candidate, **details())
        if status is None:
            return frame.finish(AttackOutcome.TIMEOUT, reason="solver limit during verification",
                                **details())

        # The counterexample and the oracle's response to it refute the
        # candidate: one more constraint copy in synthesis.
        dis = _extract_input_sequence(
            verify_encoder, verify.model(), locked_copy.frame_inputs,
            frame.functional_inputs, current_depth,
        )
        responses = frame.oracle.query(dis)
        tag = frame.iterations
        copy = encode_unrolled(
            synth_encoder, locked_circuit, len(dis), prefix=f"ce{tag}#",
            shared_input_prefix=f"ce{tag}X", key_prefix="KA@", input_values=dis,
        )
        for index, response in enumerate(responses):
            for out in shared_outputs:
                synth_encoder.add_value(copy.frame_outputs[index][out], response[out])

    return frame.finish(AttackOutcome.TIMEOUT, reason="iteration limit reached", **details())
