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

Each refinement iteration is one solver call, one DIP, one oracle query and
one constraint: the DIP's observation rules out at least one of the two keys
the miter set apart, so on a lock with one correct ``k``-bit static key the
loop ends within ``2**k - 1`` iterations.  The oracle answers through the packed engine
(:class:`~repro.engine.batch_oracle.BatchedCombinationalOracle`), which also
runs the final key verification as one bit-parallel pass.

The miter (:class:`_DipMiter`, shared with AppSAT and DoubleDIP) encodes
the key-independent logic once.  Only the *key cone* — the gates in a key
input's combinational fanout that reach a compared output — differs between
the two key copies, and only the cone is encoded again per DIP, with its
key-independent fanins folded to constants.  A point-function lock's cone is
a handful of gates, so the miter stays close to one copy of the view.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.attacks.results import AttackOutcome, AttackResult
from repro.engine.batch_oracle import BatchedCombinationalOracle
from repro.engine.packed import PackedSimulator
from repro.locking.base import LockedCircuit
from repro.netlist.circuit import Circuit, CircuitError
from repro.sat.session import SolveSession
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


#: The nets the per-DIP cone copies read a key-independent 0 or 1 from; each
#: is fixed once by a unit clause.
_CONSTANTS = ("const@0", "const@1")


def _key_cone(view: Circuit, outputs: Sequence[str]) -> Tuple[Set[str], Circuit]:
    """The key-dependent nets of ``view`` and its key cone.

    The key-dependent nets are the key inputs and every gate in their
    combinational fanout.  The cone is the sub-circuit of those gates that
    reach a member of ``outputs``: its inputs are the key inputs, then the
    key-independent nets its gates read; its outputs are the members of
    ``outputs`` that depend on a key.
    """
    gates = view.gates
    keyed = set(view.key_inputs) | view.key_dependent_gates()
    cone = Circuit(f"{view.name}_keycone")
    cone.outputs = [net for net in outputs if net in keyed]
    stack = [net for net in cone.outputs if net in gates]
    while stack:
        net = stack.pop()
        if net not in cone.gates:
            cone.gates[net] = gates[net]
            stack.extend(src for src in gates[net].inputs if src in gates and src in keyed)
    boundary = dict.fromkeys(
        src for gate in cone.gates.values() for src in gate.inputs if src not in keyed
    )
    cone.inputs = [*view.key_inputs, *boundary]
    cone.key_inputs = list(view.key_inputs)
    return keyed, cone


class _DipMiter:
    """The two-key DIP miter of the combinational attacks (SAT, AppSAT, DoubleDIP).

    ``A@`` encodes all of ``locked_view`` with every key-independent net
    under its own name, so both key copies share it (the structural sharing
    of AIG miters, Kuehlmann et al., IEEE TCAD 2002); ``B@`` encodes only
    the key cone (:func:`_key_cone`) over those shared nets.
    ``diff_literal`` asserts that the copies differ on a shared output
    inside the cone: outside it both copies read one variable.

    :meth:`observe` evaluates ``locked_view`` on the DIP in one packed pass.
    A key-independent output that disagrees with the oracle refutes every
    key, so it adds a level-0 contradiction.  Otherwise each key side gets
    one copy of the cone, its key-independent fanins bound to the
    :data:`_CONSTANTS` nets (the solver's clause intake folds them away)
    and its outputs fixed to the oracle's response.  The miter admits the
    same keys as one full copy of the view per side and DIP would.
    """

    def __init__(
        self, session: SolveSession, locked_view: Circuit, shared_outputs: Sequence[str]
    ) -> None:
        self.session = session
        self.encoder = session.encoder
        self.simulator = PackedSimulator(locked_view)
        self.key_nets = list(locked_view.key_inputs)
        keyed, self.cone = _key_cone(locked_view, shared_outputs)
        self.functional_nets = [net for net in locked_view.inputs if net not in keyed]
        # Shared outputs outside the cone: the DIP alone sets their values.
        self.fixed_outputs = [out for out in shared_outputs if out not in keyed]
        self.boundary = self.cone.inputs[len(self.key_nets):]
        self.observations = 0
        independent = {net: net for net in self.functional_nets}
        independent.update((out, out) for out in locked_view.gates if out not in keyed)
        self.encoder.encode(locked_view, prefix="A@", shared_nets=independent)
        self.encoder.encode(
            self.cone, prefix="B@", shared_nets={net: net for net in self.boundary}
        )
        diff_net = self.encoder.encode_inequality(
            [f"A@{out}" for out in self.cone.outputs],
            [f"B@{out}" for out in self.cone.outputs],
        )
        self.diff_literal = self.encoder.literal(diff_net, True)
        for value, net in enumerate(_CONSTANTS):
            self.encoder.add_value(net, value)

    def search(self) -> Optional[bool]:
        """One DIP query: True (a DIP is in the model), False (none left), None (limited)."""
        return self.session.solve(assumptions=[self.diff_literal], phase="dip-search")

    def dip(self) -> Dict[str, int]:
        """The DIP of the last satisfiable :meth:`search`."""
        return _extract_dip(self.encoder, self.session.model(), self.functional_nets)

    def observe(self, dip: Mapping[str, int], response: Mapping[str, int]) -> None:
        """Constrain both key copies to reproduce the oracle ``response`` on ``dip``."""
        self.observations += 1
        # Any key will do: only key-independent nets are read from the pass.
        words = {net: dip[net] for net in self.functional_nets}
        words.update(dict.fromkeys(self.key_nets, 0))
        values = self.simulator.eval_words(words, width=1)
        if any(values[out] != response[out] for out in self.fixed_outputs):
            # No key explains this response: contradict the constant 1.
            self.encoder.add_value(_CONSTANTS[1], 0)
            return
        for side in ("A", "B"):
            prefix = f"c{side}{self.observations}@"
            shared = {net: _CONSTANTS[values[net]] for net in self.boundary}
            shared.update((net, f"{side}@{net}") for net in self.key_nets)
            self.encoder.encode(self.cone, prefix=prefix, shared_nets=shared)
            for out in self.cone.outputs:
                self.encoder.add_value(shared.get(out, prefix + out), response[out])

    def key(self) -> Dict[str, int]:
        """The ``A@`` key of the last satisfiable solve."""
        model = self.session.model()
        varmap = self.encoder.varmap
        return {net: model.get(varmap.get(f"A@{net}", -1), 0) for net in self.key_nets}


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
    proof_dir:
        Certified mode: directory where every UNSAT solver answer (the
        convergence UNSAT, key extraction) is paired with a DRUP certificate
        checkable by ``repro check proof`` (see CHECKS.md);
        ``details["certificates"]`` counts the pairs written.
    """
    locked_circuit, original = _as_locked_pair(locked, oracle_circuit)
    start = time.monotonic()

    if not locked_circuit.key_inputs:
        return AttackResult(
            attack=attack_name,
            outcome=AttackOutcome.FAIL,
            details={"reason": "circuit has no key inputs"},
        )

    locked_view = locked_circuit.combinational_view() if locked_circuit.dffs else locked_circuit
    oracle = BatchedCombinationalOracle(original)

    shared_outputs = [o for o in locked_view.outputs if o in set(oracle.output_nets)]
    if not shared_outputs:
        return AttackResult(
            attack=attack_name,
            outcome=AttackOutcome.FAIL,
            details={"reason": "locked circuit and oracle share no outputs"},
        )

    deadline = start + time_limit
    session = SolveSession(
        conflict_limit=conflict_limit, deadline=deadline,
        proof_path=proof_dir, proof_label=attack_name,
    )
    miter = _DipMiter(session, locked_view, shared_outputs)
    iterations = 0

    def finish(outcome: AttackOutcome, key: Optional[Dict[str, int]] = None, **details) -> AttackResult:
        payload = {
            "oracle_queries": oracle.queries,
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
            iterations=iterations,
            runtime_seconds=time.monotonic() - start,
            details=payload,
        )

    rounds = 0
    while iterations < max_iterations:
        status = miter.search()
        rounds += 1
        if status:
            iterations += 1
        trace_event(
            "attack-round",
            attack="sat",
            round=rounds,
            harvested=int(bool(status)),
            iterations=iterations,
        )
        if status is None:
            return finish(AttackOutcome.TIMEOUT, reason="solver limit during DIP search")
        if status is False:
            break
        dip = miter.dip()
        miter.observe(dip, oracle.query(dip))
        if time.monotonic() > deadline:
            return finish(AttackOutcome.TIMEOUT, reason="time limit after DIP refinement")
    else:
        return finish(AttackOutcome.TIMEOUT, reason="iteration limit reached")

    # DIP loop converged: extract a key consistent with every observation.
    status = session.solve(phase="key-extract")
    if status is None:
        return finish(AttackOutcome.TIMEOUT, reason="solver limit during key extraction")
    if status is False:
        # No static key is consistent with the oracle: the attack's model of
        # the lock (one key applied at all times) cannot explain the chip.
        return finish(AttackOutcome.CNS, reason="no static key satisfies all DIP constraints")

    key = miter.key()
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
