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

The hot loop rides the packed engine (``engine="packed"``, the default):

* **Batched DIS harvesting** — instead of one solver call / one oracle query
  per refinement step, up to ``dis_batch`` distinct DISes are enumerated per
  round with activation-gated blocking clauses, and all of them are answered
  by one lane-parallel :meth:`~repro.engine.batch_oracle.\
BatchedSequentialOracle.query_batch` pass.  For the non-incremental "BBO"
  mode this also amortizes the per-query solver rebuild over the whole round.
* **Incremental depth growth** — when the depth doubles, the existing
  unrolling is extended in place via :func:`~repro.attacks.unroll.\
extend_unrolled` (same encoder, same variables, observations stay encoded)
  instead of rebuilding the CNF and replaying every observation.
* **Packed candidate prefiltering** — at key extraction, up to ``key_batch``
  consistent candidate keys are enumerated and simulated as lanes against
  the reference netlist in one packed pass (:func:`~repro.engine.\
equivalence.packed_candidate_key_filter`), mirroring FALL's combinational
  candidate prefilter; refuted candidates never reach the per-key
  verification.

``engine="scalar"`` preserves the original one-DIS-at-a-time path (scalar
oracle, rebuild-and-replay on every depth increase) as the bit-exact
reference.  Both engines prove the same facts, so the semantic verdicts
(CORRECT / CNS) agree whenever both run to convergence; under a *tight*
``max_iterations`` the batched path may spend part of the budget on
speculatively harvested DISes the scalar path never needed, so budget-bound
outcomes (TIMEOUT) can differ near the cap.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.attacks.oracle import SequentialOracle
from repro.attacks.results import AttackOutcome, AttackResult
from repro.attacks.unroll import encode_unrolled, extend_unrolled
from repro.engine.batch_oracle import BatchedSequentialOracle
from repro.engine.equivalence import packed_candidate_key_filter
from repro.engine.packed import parse_engine
from repro.locking.base import LockedCircuit, pack_key_bits
from repro.netlist.circuit import Circuit
from repro.sat.session import DEFAULT_BACKEND, SolveSession, SolverTelemetry
from repro.sat.tseitin import TseitinEncoder
from repro.sim.equivalence import sequential_equivalence_check
from repro.trace.writer import trace_event


def _as_locked_pair(
    locked: Union[LockedCircuit, Circuit], oracle_circuit: Optional[Circuit]
) -> Tuple[Circuit, Circuit]:
    if isinstance(locked, LockedCircuit):
        return locked.circuit, oracle_circuit or locked.original
    if oracle_circuit is None:
        raise ValueError("an oracle circuit is required when passing a bare Circuit")
    return locked, oracle_circuit


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


class _DepthAttackState:
    """Solve session plus unrolling bookkeeping for one unroll depth."""

    def __init__(
        self,
        locked: Circuit,
        shared_outputs: Sequence[str],
        depth: int,
        *,
        solver_backend: str = DEFAULT_BACKEND,
        conflict_limit: Optional[int] = None,
        deadline: Optional[float] = None,
        telemetry: Optional[SolverTelemetry] = None,
        proof_dir: Optional[Union[str, Path]] = None,
        proof_label: str = "query",
    ) -> None:
        self.session = SolveSession(
            solver_backend, conflict_limit=conflict_limit, deadline=deadline,
            telemetry=telemetry, proof_path=proof_dir, proof_label=proof_label,
        )
        self.encoder = self.session.encoder
        self.depth = depth
        self.locked = locked
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
        self.blocking_clauses = 0

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

    def sync(self) -> None:
        self.session.sync()

    def fresh_solver(self) -> None:
        """Rebuild the solver from scratch (the non-incremental "BBO" mode)."""
        self.session.reset_solver()

    def add_observation(
        self,
        functional_inputs: Sequence[str],
        dis: List[Dict[str, int]],
        responses: List[Dict[str, int]],
    ) -> None:
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
                for net in functional_inputs:
                    self.encoder.add_value(copy.frame_inputs[frame][net], vector[net])
                for out in self.shared_outputs:
                    self.encoder.add_value(copy.frame_outputs[frame][out], response[out])

    def block_sequence(
        self, functional_inputs: Sequence[str], dis: List[Dict[str, int]]
    ) -> int:
        """Forbid ``dis`` as the shared input for the current harvest round.

        Once the round's observation constraints land they subsume the
        block, so its activation literal is simply never assumed again.
        """
        self.blocking_clauses += 1
        return _block_input_sequence(
            self.encoder, self.copy_a.frame_inputs, functional_inputs, dis,
            f"__dis_block_{self.blocking_clauses}",
        )


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
    dis_batch: int = 8,
    key_batch: int = 8,
    engine: str = "packed",
    solver_backend: str = DEFAULT_BACKEND,
    proof_dir: Optional[Union[str, Path]] = None,
) -> AttackResult:
    """Run the shared sequential attack skeleton (see module docstring).

    ``dis_batch`` bounds how many DISes one solver round harvests before a
    single batched oracle query answers them all; ``key_batch`` bounds how
    many candidate keys are enumerated for the packed prefilter at key
    extraction.  ``engine="scalar"`` forces both to 1 and keeps the original
    scalar-oracle, rebuild-per-depth reference path.  ``solver_backend``
    selects the CDCL backend every depth's session is built from; the
    accumulated telemetry lands in ``details["solver"]``.  ``proof_dir``
    arms certified mode: every depth's session writes a DRUP certificate
    pair there for each UNSAT answer (``repro check proof`` replays them),
    and the pair count lands in ``details["certificates"]``.
    """
    batched = parse_engine(engine)
    if dis_batch < 1 or key_batch < 1:
        raise ValueError("dis_batch and key_batch must be at least 1")
    if not batched:
        dis_batch = 1
        key_batch = 1

    locked_circuit, original = _as_locked_pair(locked, oracle_circuit)
    start = time.monotonic()
    deadline = start + time_limit

    if not locked_circuit.key_inputs:
        return AttackResult(attack=attack_name, outcome=AttackOutcome.FAIL,
                            details={"reason": "circuit has no key inputs"})

    oracle = (
        BatchedSequentialOracle(original)
        if batched
        else SequentialOracle(original)
    )
    key_nets = list(locked_circuit.key_inputs)
    functional_inputs = [n for n in locked_circuit.inputs if n not in set(key_nets)]
    shared_outputs = [o for o in locked_circuit.outputs if o in set(oracle.output_nets)]
    if not shared_outputs:
        return AttackResult(attack=attack_name, outcome=AttackOutcome.FAIL,
                            details={"reason": "locked circuit and oracle share no outputs"})

    total_iterations = 0
    harvest_rounds = 0
    last_candidate: Optional[Dict[str, int]] = None
    observations: List[Tuple[List[Dict[str, int]], List[Dict[str, int]]]] = []
    prefiltered_keys = 0
    telemetry = SolverTelemetry(backend=solver_backend)
    sessions: List[SolveSession] = []  # every depth's session, for certificate counting

    def finish(outcome: AttackOutcome, key: Optional[Dict[str, int]] = None, **details) -> AttackResult:
        payload = {"oracle_queries": oracle.queries, "engine": engine,
                   "prefiltered_keys": prefiltered_keys,
                   "solver": telemetry.to_dict(), **details}
        if proof_dir is not None:
            payload["certificates"] = sum(len(s.certificates) for s in sessions)
            payload["proof_dir"] = str(proof_dir)
        return AttackResult(
            attack=attack_name, outcome=outcome, key=key, iterations=total_iterations,
            runtime_seconds=time.monotonic() - start, details=payload,
        )

    def verify(candidate: Dict[str, int]) -> bool:
        packed = pack_key_bits(candidate, key_nets)
        verdict = sequential_equivalence_check(
            original, locked_circuit,
            key_schedule=[packed], key_inputs=key_nets,
            num_sequences=verify_sequences, sequence_length=verify_length,
        )
        return verdict.equivalent

    def extract_dis(state: _DepthAttackState, model: Dict[int, int]) -> List[Dict[str, int]]:
        return _extract_input_sequence(
            state.encoder, model, state.copy_a.frame_inputs, functional_inputs,
            state.depth,
        )

    def new_state(depth: int) -> _DepthAttackState:
        state = _DepthAttackState(
            locked_circuit, shared_outputs, depth,
            solver_backend=solver_backend, conflict_limit=conflict_limit,
            deadline=deadline, telemetry=telemetry,
            proof_dir=proof_dir, proof_label=f"{attack_name}-d{depth:02d}",
        )
        sessions.append(state.session)
        return state

    depth = initial_depth
    state = new_state(depth)
    while depth <= max_depth:
        # Adaptive harvesting: start each depth with single-DIS rounds and
        # double the quota only while rounds keep filling it, so easy
        # instances (a handful of DISes to convergence) never over-harvest
        # sequences the first observation would have ruled out, while hard
        # instances quickly ramp up to full dis_batch-wide rounds.
        round_quota = 1
        while True:
            if time.monotonic() > deadline:
                return finish(AttackOutcome.TIMEOUT, reason="time limit", depth=depth)
            if total_iterations >= max_iterations:
                return finish(AttackOutcome.TIMEOUT, reason="iteration limit", depth=depth)
            if not incremental:
                # Rebuilt once per harvesting round: the rebuild cost is
                # amortized over up to dis_batch DIS queries.
                state.fresh_solver()
            state.sync()

            # --- harvest up to dis_batch distinct DISes in this round.
            harvested: List[List[Dict[str, int]]] = []
            block_assumptions: List[int] = []
            converged = False
            solver_limited = False
            while True:
                status = state.session.solve(
                    assumptions=[state.encoder.literal(state.diff_net, True)]
                    + block_assumptions,
                    phase="dis-search",
                )
                if status is None:
                    solver_limited = True
                    break
                if status is False:
                    # Only an unblocked UNSAT proves there is no DIS left.
                    converged = not block_assumptions
                    break
                total_iterations += 1
                dis = extract_dis(state, state.session.model())
                harvested.append(dis)
                if (len(harvested) >= round_quota
                        or total_iterations >= max_iterations
                        or time.monotonic() > deadline):
                    break
                block_assumptions.append(
                    state.block_sequence(functional_inputs, dis)
                )
                state.sync()

            harvest_rounds += 1
            trace_event(
                "attack-round",
                attack=attack_name,
                round=harvest_rounds,
                depth=depth,
                harvested=len(harvested),
                iterations=total_iterations,
            )
            if len(harvested) >= round_quota:
                round_quota = min(round_quota * 2, dis_batch)
            if harvested:
                if batched:
                    responses_list = oracle.query_batch(harvested)
                else:
                    responses_list = [oracle.query(dis) for dis in harvested]
                for dis, responses in zip(harvested, responses_list):
                    responses = [
                        {out: resp[out] for out in shared_outputs} for resp in responses
                    ]
                    if not batched:
                        # Only the scalar rebuild-per-depth path ever replays
                        # past observations; the batched path keeps them
                        # encoded across extend() and needs no copy.
                        observations.append((dis, responses))
                    state.add_observation(functional_inputs, dis, responses)
                if crunch_keys:
                    _crunch_key_conditions(state, key_nets, deadline)
            elif solver_limited:
                return finish(AttackOutcome.TIMEOUT, reason="solver limit during DIS search",
                              depth=depth)
            if converged:
                break

        # No DIS left at this depth: extract consistent static key candidates.
        status = state.session.solve(phase="key-extract")
        if status is None:
            return finish(AttackOutcome.TIMEOUT, reason="solver limit during key extraction",
                          depth=depth)
        if status is False:
            return finish(AttackOutcome.CNS,
                          reason="no static key is consistent with the oracle",
                          depth=depth)

        def extract_key(model: Dict[int, int]) -> Dict[str, int]:
            return {
                net: model.get(state.encoder.varmap.get(f"KA@{net}", -1), 0)
                for net in key_nets
            }

        candidates = [extract_key(state.session.model())]
        # Enumerate further consistent keys for the packed prefilter, again
        # behind activation literals so the blocks die with this round.
        key_block_assumptions: List[int] = []
        while len(candidates) < key_batch and time.monotonic() < deadline:
            previous = candidates[-1]
            state.blocking_clauses += 1
            act = f"__key_block_{state.blocking_clauses}"
            act_literal = state.encoder.literal(act, True)
            state.encoder.cnf.add_clause(
                [-act_literal]
                + [state.encoder.literal(f"KA@{net}", not bool(previous[net]))
                   for net in key_nets]
            )
            key_block_assumptions.append(act_literal)
            status = state.session.solve(
                assumptions=key_block_assumptions,
                phase="key-extract",
            )
            if status is not True:
                break
            candidate = extract_key(state.session.model())
            if candidate in candidates:
                break
            candidates.append(candidate)

        last_candidate = candidates[0]
        if batched and len(candidates) > 1:
            survivors = packed_candidate_key_filter(
                original, locked_circuit, candidates, key_nets,
                num_sequences=verify_sequences, sequence_length=verify_length,
            )
            prefiltered_keys += sum(1 for alive in survivors if not alive)
            candidates = [c for c, alive in zip(candidates, survivors) if alive]
        winner = next((c for c in candidates if verify(c)), None)
        if winner is not None:
            return finish(AttackOutcome.CORRECT, key=winner, depth=depth)

        depth *= 2
        if depth > max_depth:
            break
        if batched:
            state.extend(depth)
        else:
            # Scalar reference path: rebuild at the new depth and replay
            # the observations gathered at smaller depths.
            state = new_state(depth)
            for dis, responses in observations:
                state.add_observation(functional_inputs, dis[:depth], responses[:depth])

    return finish(AttackOutcome.WRONG_KEY, key=last_candidate,
                  reason="maximum unroll depth reached without a verified key",
                  depth=max_depth)


def _crunch_key_conditions(
    state: _DepthAttackState,
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
            literal = state.encoder.literal(f"{prefix}{net}", True)
            can_be_true = state.session.solve(
                assumptions=[literal], phase="crunch", time_limit=0.5,
            )
            if time.monotonic() >= deadline:
                return
            can_be_false = state.session.solve(
                assumptions=[-literal], phase="crunch", time_limit=0.5,
            )
            if can_be_true is False and can_be_false is True:
                state.encoder.cnf.add_clause([-literal])
            elif can_be_false is False and can_be_true is True:
                state.encoder.cnf.add_clause([literal])
    state.sync()
