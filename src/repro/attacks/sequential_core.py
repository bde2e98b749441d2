"""Shared machinery for the sequential oracle-guided attacks.

BMC ("BBO"), INT and KC2 are all refinements of the same skeleton — an
oracle-guided search for a *static* key over bounded time-frame unrollings:

1. unroll two copies of the locked circuit for ``T`` frames with independent
   static keys and a shared input sequence;
2. ask a SAT solver for a Discriminating Input Sequence (DIS) on which the
   two key guesses disagree;
3. query the (reset-and-run, no-scan) oracle with the DIS and constrain both
   key copies to reproduce the observed output sequence;
4. when no DIS remains at depth ``T``, extract a consistent key and verify it
   by simulation; on verification failure the depth is increased.

The three NEOS modes reproduced in Tables III/IV differ in how the solver is
managed (fresh vs incremental) and whether implied key bits are fixed after
every round ("key-condition crunching"); those switches are exposed as
parameters of :func:`sequential_oracle_guided_attack`.

Each refinement iteration is one solver call, one DIS, one oracle query
(the single-lane :meth:`~repro.engine.batch_oracle.BatchedSequentialOracle.\
query` of the packed engine) and one observation constraint.  When the depth
doubles, the existing unrolling is extended in place via
:func:`~repro.attacks.unroll.extend_unrolled` (same encoder, same variables,
observations stay encoded), so the incremental modes keep their learned
clauses across depths.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.attacks.results import AttackOutcome, AttackResult
from repro.attacks.sat_attack import _as_locked_pair
from repro.attacks.unroll import encode_unrolled, extend_unrolled
from repro.engine.batch_oracle import BatchedSequentialOracle
from repro.locking.base import LockedCircuit, pack_key_bits
from repro.netlist.circuit import Circuit
from repro.sat.session import SolveSession
from repro.sat.tseitin import TseitinEncoder
from repro.sim.equivalence import sequential_equivalence_check
from repro.trace.writer import trace_event


def _extract_input_sequence(
    encoder: TseitinEncoder,
    model: Dict[int, int],
    frame_inputs: Sequence[Dict[str, str]],
    functional_inputs: Sequence[str],
    num_frames: int,
) -> List[Dict[str, int]]:
    """Read an unrolled copy's shared input sequence out of a SAT model."""
    sequence: List[Dict[str, int]] = []
    for frame in range(num_frames):
        frame_map = frame_inputs[frame]
        sequence.append({
            net: model.get(encoder.varmap.get(frame_map[net], -1), 0)
            for net in functional_inputs
        })
    return sequence


class _UnrolledMiter:
    """The two-key unrolled miter of one attack and its solve session.

    Copies ``A#`` and ``B#`` of ``locked`` share one input sequence and keep
    private static keys (``KA@`` / ``KB@``); ``diff_net`` asserts that their
    shared outputs differ in some frame.  :meth:`extend` deepens the miter in
    place and :meth:`observe` adds one oracle observation.
    """

    def __init__(
        self,
        session: SolveSession,
        locked: Circuit,
        functional_inputs: Sequence[str],
        shared_outputs: Sequence[str],
        depth: int,
    ) -> None:
        self.session = session
        self.encoder = session.encoder
        self.depth = depth
        self.locked = locked
        self.functional_inputs = list(functional_inputs)
        self.shared_outputs = list(shared_outputs)
        self.copy_a = encode_unrolled(
            self.encoder, locked, depth, prefix="A#",
            shared_input_prefix="X", key_prefix="KA@",
        )
        self.copy_b = encode_unrolled(
            self.encoder, locked, depth, prefix="B#",
            shared_input_prefix="X", key_prefix="KB@",
        )
        self.diff_net = self._encode_diff()
        self.constraint_copies = 0

    def _encode_diff(self) -> str:
        nets_a: List[str] = []
        nets_b: List[str] = []
        for frame in range(self.depth):
            for out in self.shared_outputs:
                nets_a.append(self.copy_a.frame_outputs[frame][out])
                nets_b.append(self.copy_b.frame_outputs[frame][out])
        return self.encoder.encode_inequality(nets_a, nets_b)

    def extend(self, depth: int) -> None:
        """Grow both unrolled copies to ``depth`` frames in place.

        The encoder keeps every variable of the shallower unrolling, so the
        already-synced clauses (and, in incremental mode, the solver's
        learned clauses) stay valid; only the new frames and a fresh
        inequality net over all frames are appended.
        """
        extend_unrolled(self.encoder, self.locked, self.copy_a, depth)
        extend_unrolled(self.encoder, self.locked, self.copy_b, depth)
        self.depth = depth
        self.diff_net = self._encode_diff()

    def search(self) -> Optional[bool]:
        """One DIS query: True (a DIS is in the model), False (none left), None (limited)."""
        return self.session.solve(
            assumptions=[self.encoder.literal(self.diff_net, True)], phase="dis-search",
        )

    def dis(self) -> List[Dict[str, int]]:
        """The DIS of the last satisfiable :meth:`search`."""
        return _extract_input_sequence(
            self.encoder, self.session.model(), self.copy_a.frame_inputs,
            self.functional_inputs, self.depth,
        )

    def key(self, key_nets: Sequence[str]) -> Dict[str, int]:
        """The ``KA@`` key of the last satisfiable solve."""
        model = self.session.model()
        varmap = self.encoder.varmap
        return {net: model.get(varmap.get(f"KA@{net}", -1), 0) for net in key_nets}

    def observe(self, dis: List[Dict[str, int]], responses: List[Dict[str, int]]) -> None:
        """Constrain both key copies to reproduce the oracle's response on ``dis``."""
        self.constraint_copies += 1
        tag = self.constraint_copies
        frames = min(len(dis), len(responses), self.depth)
        for side, key_prefix in (("A", "KA@"), ("B", "KB@")):
            copy = encode_unrolled(
                self.encoder, self.locked, frames,
                prefix=f"o{side}{tag}#", shared_input_prefix=f"o{side}{tag}X",
                key_prefix=key_prefix,
            )
            for frame in range(frames):
                vector, response = dis[frame], responses[frame]
                for net in self.functional_inputs:
                    self.encoder.add_value(copy.frame_inputs[frame][net], vector[net])
                for out in self.shared_outputs:
                    self.encoder.add_value(copy.frame_outputs[frame][out], response[out])


def sequential_oracle_guided_attack(
    locked: Union[LockedCircuit, Circuit],
    oracle_circuit: Optional[Circuit] = None,
    *,
    attack_name: str,
    incremental: bool,
    crunch_keys: bool = False,
    initial_depth: int = 2,
    max_depth: int = 16,
    max_iterations: int = 128,
    time_limit: float = 180.0,
    conflict_limit: Optional[int] = 200_000,
    verify_sequences: int = 8,
    verify_length: int = 48,
    proof_dir: Optional[Union[str, Path]] = None,
) -> AttackResult:
    """Run the shared sequential attack skeleton (see module docstring).

    ``incremental=False`` rebuilds the solver before every DIS query (the
    "BBO" mode); ``crunch_keys`` fixes implied key bits after every
    observation (KC2).  The session's solver telemetry lands in
    ``details["solver"]``.
    ``proof_dir`` arms certified mode: the session writes a DRUP certificate
    pair there for each UNSAT answer (``repro check proof`` replays them),
    and the pair count lands in ``details["certificates"]``.
    """
    locked_circuit, original = _as_locked_pair(locked, oracle_circuit)
    start = time.monotonic()
    deadline = start + time_limit

    if not locked_circuit.key_inputs:
        return AttackResult(attack=attack_name, outcome=AttackOutcome.FAIL,
                            details={"reason": "circuit has no key inputs"})

    oracle = BatchedSequentialOracle(original)
    key_nets = list(locked_circuit.key_inputs)
    functional_inputs = [n for n in locked_circuit.inputs if n not in set(key_nets)]
    shared_outputs = [o for o in locked_circuit.outputs if o in set(oracle.output_nets)]
    if not shared_outputs:
        return AttackResult(attack=attack_name, outcome=AttackOutcome.FAIL,
                            details={"reason": "locked circuit and oracle share no outputs"})

    depth = initial_depth
    session = SolveSession(
        conflict_limit=conflict_limit, deadline=deadline,
        proof_path=proof_dir, proof_label=f"{attack_name}-d{depth:02d}",
    )
    miter = _UnrolledMiter(session, locked_circuit, functional_inputs, shared_outputs, depth)
    iterations = 0
    rounds = 0
    candidate: Optional[Dict[str, int]] = None

    def finish(outcome: AttackOutcome, key: Optional[Dict[str, int]] = None, **details) -> AttackResult:
        payload = {"oracle_queries": oracle.queries,
                   "solver": session.telemetry.to_dict(), **details}
        if proof_dir is not None:
            payload["certificates"] = len(session.certificates)
            payload["proof_dir"] = str(proof_dir)
        return AttackResult(
            attack=attack_name, outcome=outcome, key=key, iterations=iterations,
            runtime_seconds=time.monotonic() - start, details=payload,
        )

    def verify(key: Dict[str, int]) -> bool:
        verdict = sequential_equivalence_check(
            original, locked_circuit,
            key_schedule=[pack_key_bits(key, key_nets)], key_inputs=key_nets,
            num_sequences=verify_sequences, sequence_length=verify_length,
        )
        return verdict.equivalent

    while depth <= max_depth:
        while True:
            if time.monotonic() > deadline:
                return finish(AttackOutcome.TIMEOUT, reason="time limit", depth=depth)
            if iterations >= max_iterations:
                return finish(AttackOutcome.TIMEOUT, reason="iteration limit", depth=depth)
            if not incremental:
                session.reset_solver()
            status = miter.search()
            rounds += 1
            if status:
                iterations += 1
            trace_event(
                "attack-round",
                attack=attack_name,
                round=rounds,
                depth=depth,
                harvested=int(bool(status)),
                iterations=iterations,
            )
            if status is None:
                return finish(AttackOutcome.TIMEOUT, reason="solver limit during DIS search",
                              depth=depth)
            if status is False:
                break
            dis = miter.dis()
            miter.observe(dis, oracle.query(dis))
            if crunch_keys:
                _crunch_key_conditions(miter, key_nets, deadline)

        # No DIS left at this depth: extract a consistent static key.
        status = session.solve(phase="key-extract")
        if status is None:
            return finish(AttackOutcome.TIMEOUT, reason="solver limit during key extraction",
                          depth=depth)
        if status is False:
            return finish(AttackOutcome.CNS,
                          reason="no static key is consistent with the oracle",
                          depth=depth)
        candidate = miter.key(key_nets)
        if verify(candidate):
            return finish(AttackOutcome.CORRECT, key=candidate, depth=depth)

        depth *= 2
        if depth > max_depth:
            break
        miter.extend(depth)

    return finish(AttackOutcome.WRONG_KEY, key=candidate,
                  reason="maximum unroll depth reached without a verified key",
                  depth=max_depth)


def _crunch_key_conditions(
    miter: _UnrolledMiter,
    key_nets: Sequence[str],
    deadline: float,
) -> None:
    """KC2-style simplification: permanently fix key bits implied by the
    observations accumulated so far (both for the A and B key copies)."""
    for prefix in ("KA@", "KB@"):
        for net in key_nets:
            # Each probe is cheap but there are 2x|key| of them: clamp every
            # probe (recomputed per solve, the first may eat the budget) to
            # 0.5s (the session clamps to the attack's remaining wall-clock
            # on top) so crunching cannot overshoot the deadline.
            if time.monotonic() >= deadline:
                return
            literal = miter.encoder.literal(f"{prefix}{net}", True)
            can_be_true = miter.session.solve(
                assumptions=[literal], phase="crunch", time_limit=0.5,
            )
            if time.monotonic() >= deadline:
                return
            can_be_false = miter.session.solve(
                assumptions=[-literal], phase="crunch", time_limit=0.5,
            )
            if can_be_true is False and can_be_false is True:
                miter.encoder.cnf.add_clause([-literal])
            elif can_be_false is False and can_be_true is True:
                miter.encoder.cnf.add_clause([literal])
    miter.session.sync()
