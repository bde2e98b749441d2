"""The oracle-guided SAT attack (Subramanyan et al., HOST 2015).

Scan access is assumed, so sequential circuits are attacked through their
combinational view (flip-flop state scanned in / captured out).  The attack
iteratively finds Discriminating Input Patterns (DIPs) with a two-key miter,
queries the oracle on each DIP and constrains both key copies to reproduce
the observed response, until no further DIP exists.  Any key satisfying the
accumulated constraints is then functionally correct — *for schemes whose
correct key is a single static value*.

Against Cute-Lock the static-key assumption is exactly what fails: the
accumulated DIP constraints (which include DIPs at different counter values)
eliminate every static key, and the final key-extraction step reports the
"condition not solvable" outcome the paper's tables show.

The refinement loop rides the packed engine the same way the sequential
attacks do (``engine="packed"``, the default): up to ``dip_batch`` distinct
DIPs are harvested per round behind activation-gated blocking clauses —
scoped to the round, so an unassumed activation variable keeps every later
solve unaffected — and all of them are answered by one lane-parallel
:meth:`~repro.engine.batch_oracle.BatchedCombinationalOracle.query_batch`
pass.  ``engine="scalar"`` keeps the original one-DIP-per-solver-call
reference path.  Both engines prove the same facts, so the semantic verdicts
(CORRECT / WRONG_KEY / CNS) agree whenever both run to convergence; under a
*tight* ``max_iterations`` the batched path may spend part of the budget on
speculatively harvested DIPs the scalar path never needed, so budget-bound
outcomes (TIMEOUT) can differ near the cap.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Tuple, Union

from repro.attacks.results import AttackOutcome, AttackResult
from repro.engine.batch_oracle import BatchedCombinationalOracle
from repro.engine.packed import parse_engine
from repro.locking.base import LockedCircuit
from repro.netlist.circuit import Circuit, CircuitError
from repro.sat.session import DEFAULT_BACKEND, SolveSession
from repro.sat.tseitin import TseitinEncoder
from repro.sim.equivalence import random_equivalence_check
from repro.trace.writer import trace_event


def _as_locked_pair(
    locked: Union[LockedCircuit, Circuit], oracle_circuit: Optional[Circuit]
) -> Tuple[Circuit, Circuit]:
    """Normalise the (locked netlist, oracle netlist) pair."""
    if isinstance(locked, LockedCircuit):
        return locked.circuit, oracle_circuit or locked.original
    if oracle_circuit is None:
        raise ValueError("an oracle circuit is required when passing a bare Circuit")
    return locked, oracle_circuit


class _DipHarvester:
    """Batched DIP harvesting over the two-copy miter (SAT and AppSAT).

    Each :meth:`round` call enumerates up to ``quota`` distinct DIPs behind
    activation-gated blocking clauses (assumed only within the round, so an
    unassumed activation variable keeps every later solve unaffected) and
    records whether the miter **converged** — an UNSAT with no blocks
    assumed, i.e. a proof that no DIP remains — or the solver hit its
    resource limit.  ``iterations`` counts DIPs across all rounds, exactly
    like the scalar one-DIP-per-call loop did.
    """

    def __init__(
        self,
        session: SolveSession,
        diff_literal: int,
        functional_nets: List[str],
        deadline: float,
        max_iterations: int,
    ) -> None:
        self.session = session
        self.diff_literal = diff_literal
        self.functional_nets = list(functional_nets)
        self.deadline = deadline
        self.max_iterations = max_iterations
        self.iterations = 0
        self.blocking_clauses = 0
        self.converged = False
        self.solver_limited = False

    def round(self, quota: int) -> List[Dict[str, int]]:
        """Harvest up to ``quota`` distinct DIPs; see the class docstring."""
        session = self.session
        self.solver_limited = False
        harvested: List[Dict[str, int]] = []
        block_assumptions: List[int] = []
        while True:
            status = session.solve(
                assumptions=[self.diff_literal] + block_assumptions,
                phase="dip-search",
            )
            if status is None:
                self.solver_limited = True
                break
            if status is False:
                # Only an unblocked UNSAT proves there is no DIP left.
                self.converged = not block_assumptions
                break
            self.iterations += 1
            dip = _extract_dip(session.encoder, session.model(), self.functional_nets)
            harvested.append(dip)
            if (len(harvested) >= quota
                    or self.iterations >= self.max_iterations
                    or time.monotonic() > self.deadline):
                break
            self.blocking_clauses += 1
            block_assumptions.append(
                _block_dip(session.encoder, self.functional_nets, dip,
                           f"__dip_block_{self.blocking_clauses}")
            )
        return harvested


def _block_dip(
    encoder: TseitinEncoder,
    functional_nets: List[str],
    dip: Mapping[str, int],
    act_name: str,
) -> int:
    """Add an activation-gated clause forbidding ``dip`` as the shared input.

    Returns the activation literal: the clause only bites while that literal
    is assumed, so the block is scoped to the harvesting round that created
    it (once the round's observation constraints land they subsume it, and
    the activation variable is simply never assumed again).
    """
    act_literal = encoder.literal(act_name, True)
    clause = [-act_literal]
    for net in functional_nets:
        clause.append(encoder.literal(net, not bool(dip[net])))
    encoder.cnf.add_clause(clause)
    return act_literal


def _extract_dip(
    encoder: TseitinEncoder, model: Mapping[int, int], functional_nets: List[str]
) -> Dict[str, int]:
    """Read a DIP out of a miter model, refusing to invent missing bits.

    Every functional input is touched by ``encoder.encode()``; a missing
    variable means the miter is malformed, and quietly defaulting the bit to
    0 would corrupt the DIP constraints built from it.
    """
    dip: Dict[str, int] = {}
    for net in functional_nets:
        var = encoder.varmap.get(net)
        if var is None:
            raise CircuitError(
                f"functional input {net!r} has no CNF variable; "
                "cannot extract a trustworthy DIP from the miter"
            )
        dip[net] = model.get(var, 0)
    return dip


def sat_attack(
    locked: Union[LockedCircuit, Circuit],
    oracle_circuit: Optional[Circuit] = None,
    *,
    max_iterations: int = 256,
    time_limit: float = 120.0,
    conflict_limit: Optional[int] = 200_000,
    verify_vectors: int = 256,
    dip_batch: int = 8,
    engine: str = "packed",
    solver_backend: str = DEFAULT_BACKEND,
    attack_name: str = "sat",
    proof_dir: Optional[Union[str, Path]] = None,
) -> AttackResult:
    """Run the combinational oracle-guided SAT attack.

    Parameters
    ----------
    locked:
        The locked design (a :class:`LockedCircuit`, or a bare circuit with
        ``oracle_circuit`` given explicitly).
    max_iterations:
        Upper bound on DIP iterations before reporting a timeout.
    time_limit:
        Wall-clock budget in seconds.
    conflict_limit:
        Per-solver-call conflict budget (None = unlimited).
    verify_vectors:
        Random vectors used to verify a recovered key against the oracle.
    dip_batch:
        Upper bound on DIPs harvested per round before a single batched
        oracle query answers them all (see the module docstring).
    engine:
        ``"packed"`` (default) enables batched DIP harvesting;
        ``"scalar"`` forces ``dip_batch=1`` and keeps the original
        one-DIP-per-solver-call reference path (see
        :data:`repro.engine.packed.ENGINE_CHOICES`).
    solver_backend:
        Registry name of the session's solver backend (``"cdcl"`` or the
        arena-tuned ``"cdcl-arena"``; see :mod:`repro.sat.session`).
    proof_dir:
        Certified mode: directory where every UNSAT solver answer (blocked
        DIP rounds, the convergence UNSAT, key extraction) is paired with a
        DRUP certificate checkable by ``repro check proof`` (see
        CHECKS.md); ``details["certificates"]`` counts the pairs written.
    """
    batched = parse_engine(engine)
    if dip_batch < 1:
        raise ValueError("dip_batch must be at least 1")
    if not batched:
        dip_batch = 1

    locked_circuit, original = _as_locked_pair(locked, oracle_circuit)
    start = time.monotonic()

    if not locked_circuit.key_inputs:
        return AttackResult(
            attack=attack_name,
            outcome=AttackOutcome.FAIL,
            details={"reason": "circuit has no key inputs"},
        )

    locked_view = locked_circuit.combinational_view() if locked_circuit.dffs else locked_circuit
    # Batched oracle: DIP queries are inherently one-at-a-time, but the final
    # key verification and any sampling ride the packed engine for free.
    oracle = BatchedCombinationalOracle(original)

    key_nets = list(locked_view.key_inputs)
    functional_nets = [n for n in locked_view.inputs if n not in set(key_nets)]
    shared_outputs = [o for o in locked_view.outputs if o in set(oracle.output_nets)]
    if not shared_outputs:
        return AttackResult(
            attack=attack_name,
            outcome=AttackOutcome.FAIL,
            details={"reason": "locked circuit and oracle share no outputs"},
        )

    deadline = start + time_limit
    session = SolveSession(
        solver_backend, conflict_limit=conflict_limit, deadline=deadline,
        proof_path=proof_dir, proof_label=attack_name,
    )
    encoder = session.encoder

    # Two key copies of the locked circuit sharing functional inputs
    # (everything else is privatised by the per-copy prefixes).
    shared_functional = {net: net for net in functional_nets}
    encoder.encode(locked_view, prefix="A@", shared_nets=shared_functional)
    encoder.encode(locked_view, prefix="B@", shared_nets=shared_functional)
    keys_a = [f"A@{net}" for net in key_nets]
    keys_b = [f"B@{net}" for net in key_nets]
    diff_net = encoder.encode_inequality(
        [f"A@{out}" for out in shared_outputs], [f"B@{out}" for out in shared_outputs]
    )
    diff_literal = encoder.literal(diff_net, True)

    dip_rounds = 0
    constraint_tag = 0
    harvester = _DipHarvester(
        session, diff_literal, functional_nets, deadline, max_iterations
    )

    def finish(outcome: AttackOutcome, key: Optional[Dict[str, int]] = None, **details) -> AttackResult:
        payload = {
            "oracle_queries": oracle.queries,
            "engine": engine,
            "dip_rounds": dip_rounds,
            "solver": session.telemetry.to_dict(),
            **details,
        }
        if proof_dir is not None:
            payload["certificates"] = len(session.certificates)
            payload["proof_dir"] = str(proof_dir)
        return AttackResult(
            attack=attack_name,
            outcome=outcome,
            key=key,
            iterations=harvester.iterations,
            runtime_seconds=time.monotonic() - start,
            details=payload,
        )

    def add_dip_constraints(dip: Dict[str, int], response: Dict[str, int]) -> None:
        """Constrain both key copies to reproduce the oracle response on ``dip``."""
        nonlocal constraint_tag
        constraint_tag += 1
        for side, keys in (("A", keys_a), ("B", keys_b)):
            prefix = f"c{side}{constraint_tag}@"
            shared = {net: keys[index] for index, net in enumerate(key_nets)}
            shared.update({net: f"{prefix}{net}" for net in functional_nets})
            encoder.encode(locked_view, prefix=prefix, shared_nets=shared)
            for net in functional_nets:
                encoder.add_value(f"{prefix}{net}", dip[net])
            for out in shared_outputs:
                encoder.add_value(f"{prefix}{out}", response[out])

    # Adaptive harvesting (mirrors sequential_core): start each attack with
    # single-DIP rounds and double the quota only while rounds keep filling
    # it, so easy instances never over-harvest DIPs the first observation
    # would have ruled out, while hard instances ramp up to dip_batch-wide
    # rounds whose oracle answers arrive in one packed pass.
    round_quota = 1
    harvest_rounds = 0
    while harvester.iterations < max_iterations:
        harvested = harvester.round(round_quota)
        harvest_rounds += 1
        trace_event(
            "attack-round",
            attack="sat",
            round=harvest_rounds,
            harvested=len(harvested),
            iterations=harvester.iterations,
        )
        if len(harvested) >= round_quota:
            round_quota = min(round_quota * 2, dip_batch)
        if harvested:
            dip_rounds += 1
            if batched:
                responses = oracle.query_batch(harvested)
            else:
                responses = [oracle.query(dip) for dip in harvested]
            for dip, response in zip(harvested, responses):
                add_dip_constraints(dip, response)
        elif harvester.solver_limited:
            return finish(AttackOutcome.TIMEOUT, reason="solver limit during DIP search")
        if harvester.converged:
            break
        if time.monotonic() > deadline:
            return finish(AttackOutcome.TIMEOUT, reason="time limit after DIP refinement")

    if not harvester.converged and harvester.iterations >= max_iterations:
        return finish(AttackOutcome.TIMEOUT, reason="iteration limit reached")

    # DIP loop converged: extract a key consistent with every observation.
    status = session.solve(phase="key-extract")
    if status is None:
        return finish(AttackOutcome.TIMEOUT, reason="solver limit during key extraction")
    if status is False:
        # No static key is consistent with the oracle: the attack's model of
        # the lock (one key applied at all times) cannot explain the chip.
        return finish(AttackOutcome.CNS, reason="no static key satisfies all DIP constraints")

    model = session.model()
    key = {
        net: model.get(encoder.varmap.get(f"A@{net}", -1), 0) for net in key_nets
    }
    verdict = random_equivalence_check(
        original, locked_circuit, key_assignment=key, num_vectors=verify_vectors
    )
    if verdict.equivalent:
        return finish(AttackOutcome.CORRECT, key=key)
    return finish(
        AttackOutcome.WRONG_KEY,
        key=key,
        counterexample=verdict.counterexample,
    )
