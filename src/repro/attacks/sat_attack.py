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
key-independent fanins bound to the encoder's constants, so every gate they
decide folds away.  A point-function lock's cone is a handful of gates, so
the miter stays close to one copy of the view.

The set-up, budget and result path (:class:`_AttackFrame`) is shared by
every oracle-guided attack of :mod:`repro.attacks`, combinational and
sequential; each attack keeps only its own loop.
"""

from __future__ import annotations

import time
from pathlib import Path
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

from repro.attacks.results import AttackOutcome, AttackResult
from repro.engine.batch_oracle import BatchedCombinationalOracle, BatchedSequentialOracle
from repro.engine.packed import PackedSimulator
from repro.locking.base import LockedCircuit, pack_key_bits
from repro.netlist.circuit import Circuit, CircuitError
from repro.sat.session import DEFAULT_BACKEND, SolverTelemetry, SolveSession
from repro.sat.tseitin import TseitinEncoder
from repro.sim.equivalence import (
    check_sizes,
    random_equivalence_check,
    sequential_equivalence_check,
)
from repro.trace.writer import trace_event


class _AttackFrame:
    """The set-up, budget and result path every oracle-guided attack shares.

    One frame runs one attack.  It normalises the (locked, oracle) pair,
    owns the wall-clock deadline and builds the oracle of one of two
    observability models:

    * scan access (``scan=True``: SAT, AppSAT, DoubleDIP) — :attr:`view` is
      the locked circuit's combinational view, the oracle a
      :class:`BatchedCombinationalOracle`, and a key is checked with
      :func:`random_equivalence_check`;
    * reset-and-run (``scan=False``: BBO, INT, KC2, RANE) — :attr:`view` is
      the sequential circuit, the oracle a :class:`BatchedSequentialOracle`,
      and a static key is checked with :func:`sequential_equivalence_check`.

    ``key_check`` holds the keyword arguments of that check (how many
    vectors, or sequences and their length); like a ``time_limit`` that is
    not > 0, a size below 1 raises :class:`ValueError` before anything is
    solved, since a check that examines nothing passes any key.

    :attr:`refusal` is the FAIL result of a pair no attack can run on (no
    key inputs, or no output shared with the oracle), else None.
    :meth:`session` opens a solve session under the attack's budget,
    :meth:`extract_key` is the key-extract step, :meth:`classify` the key
    check, and :meth:`finish` builds the :class:`AttackResult` from the
    oracle and every session the attack opened.  The attack's loop counts
    its refinement iterations in :attr:`iterations`.
    """

    def __init__(
        self,
        name: str,
        locked: Union[LockedCircuit, Circuit],
        oracle_circuit: Optional[Circuit],
        *,
        scan: bool,
        time_limit: float,
        conflict_limit: Optional[int],
        key_check: Mapping[str, int],
        proof_dir: Optional[Union[str, Path]] = None,
    ) -> None:
        if not time_limit > 0:  # also refuses NaN
            raise ValueError(f"time_limit must be > 0 seconds, got {time_limit!r}")
        check_sizes(key_check)
        if isinstance(locked, LockedCircuit):
            locked, oracle_circuit = locked.circuit, oracle_circuit or locked.original
        elif oracle_circuit is None:
            raise ValueError("an oracle circuit is required when passing a bare Circuit")
        self.name = name
        self.locked, self.original = locked, oracle_circuit
        self.start = time.monotonic()
        self.deadline = self.start + time_limit
        self.conflict_limit = conflict_limit
        self.proof_dir = proof_dir
        self.scan = scan
        self.key_check = key_check
        self.sessions: List[SolveSession] = []
        self.iterations = 0
        self.rounds = 0
        self.key_nets = list(locked.key_inputs)
        self.oracle: Union[BatchedCombinationalOracle, BatchedSequentialOracle]
        if scan:
            self.view = locked.combinational_view() if locked.dffs else locked
            self.oracle = BatchedCombinationalOracle(oracle_circuit)
        else:
            self.view = locked
            self.oracle = BatchedSequentialOracle(oracle_circuit)
        observed = set(self.oracle.output_nets)
        self.shared_outputs = [out for out in self.view.outputs if out in observed]
        keys = set(self.key_nets)
        self.functional_inputs = [net for net in self.view.inputs if net not in keys]
        self.refusal: Optional[AttackResult] = None
        if not self.key_nets:
            self.refusal = self.finish(AttackOutcome.FAIL, reason="circuit has no key inputs")
        elif not self.shared_outputs:
            # The miter would compare nothing and "converge" at once on a
            # meaningless key: report the broken set-up instead.
            self.refusal = self.finish(
                AttackOutcome.FAIL, reason="locked circuit and oracle share no outputs"
            )

    def out_of_time(self) -> bool:
        return time.monotonic() > self.deadline

    def session(self, label: Optional[str] = None) -> SolveSession:
        """A solve session under the attack's conflict limit and deadline."""
        session = SolveSession(
            conflict_limit=self.conflict_limit, deadline=self.deadline,
            proof_path=self.proof_dir, proof_label=label or self.name,
        )
        self.sessions.append(session)
        return session

    def round(self, found: Optional[bool], *, iteration: bool = True, **fields: object) -> None:
        """Count one DIP/DIS search and emit its ``attack-round`` trace marker.

        A search that found a DIP/DIS is one refinement iteration, unless the
        attack counts its iterations itself (``iteration=False``: DoubleDIP's
        iterations are its rounds of up to two searches).
        """
        self.rounds += 1
        if found and iteration:
            self.iterations += 1
        trace_event(
            "attack-round", attack=self.name, round=self.rounds,
            harvested=int(bool(found)), iterations=self.iterations, **fields,
        )

    def extract_key(
        self, session: SolveSession, read_key: Callable[[], Dict[str, int]], **details: object
    ) -> Tuple[Optional[Dict[str, int]], Optional[AttackResult]]:
        """The key-extract step: ``(key, None)``, or ``(None, result)`` when it ends the attack.

        A limited call ends the attack TIMEOUT; UNSAT ends it CNS — no
        static key is consistent with the oracle, so the attack's model of
        the lock (one key applied at all times) cannot explain the chip.
        """
        status = session.solve(phase="key-extract")
        if status is None:
            return None, self.finish(
                AttackOutcome.TIMEOUT, reason="solver limit during key extraction", **details
            )
        if status is False:
            return None, self.finish(
                AttackOutcome.CNS, reason="no static key is consistent with the oracle",
                **details,
            )
        return read_key(), None

    def classify(self, key: Dict[str, int], **details: object) -> AttackResult:
        """CORRECT or WRONG_KEY by the observability model's key check."""
        if self.scan:
            verdict = random_equivalence_check(
                self.original, self.locked, key_assignment=key, **self.key_check
            )
        else:
            verdict = sequential_equivalence_check(
                self.original, self.locked, key_schedule=[pack_key_bits(key, self.key_nets)],
                key_inputs=self.key_nets, **self.key_check,
            )
        if verdict.equivalent:
            return self.finish(AttackOutcome.CORRECT, key, **details)
        return self.finish(
            AttackOutcome.WRONG_KEY, key, counterexample=verdict.counterexample, **details
        )

    def finish(
        self, outcome: AttackOutcome, key: Optional[Dict[str, int]] = None, **details: object
    ) -> AttackResult:
        """The attack's result: oracle queries, merged solver block, certificates."""
        solver = SolverTelemetry(backend=DEFAULT_BACKEND)
        for session in self.sessions:
            solver.merge(session.telemetry)
        payload: Dict[str, object] = {
            "oracle_queries": self.oracle.queries, "solver": solver.to_dict(), **details,
        }
        if self.proof_dir is not None:
            payload["certificates"] = sum(len(s.certificates) for s in self.sessions)
            payload["proof_dir"] = str(self.proof_dir)
        return AttackResult(
            attack=self.name, outcome=outcome, key=key, iterations=self.iterations,
            runtime_seconds=time.monotonic() - self.start, details=payload,
        )


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
    one copy of the cone, its key-independent fanins bound to the encoder's
    constants before encoding (so the encoder folds every gate they decide)
    and its outputs fixed to the oracle's response.  The miter admits the
    same keys as one full copy of the view per side and DIP would.  The
    cone stays although the encoder hashes gates: a full copy with the DIP
    bound to its inputs would fold to much the same clauses, but only after
    visiting every gate of the view on every DIP.
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
            # No key explains this response: contradict the constant.
            self.encoder.cnf.add_clause([self.encoder.constant(False)])
            return
        for side in ("A", "B"):
            prefix = f"c{side}{self.observations}@"
            for net in self.boundary:
                self.encoder.add_value(prefix + net, values[net])
            shared = {net: f"{side}@{net}" for net in self.key_nets}
            self.encoder.encode(self.cone, prefix=prefix, shared_nets=shared)
            for out in self.cone.outputs:
                self.encoder.add_value(shared.get(out, prefix + out), response[out])

    def key(self) -> Dict[str, int]:
        """The ``A@`` key of the last satisfiable solve."""
        model = self.session.model()
        return {net: self.encoder.value(model, f"A@{net}") for net in self.key_nets}


def _extract_dip(
    encoder: TseitinEncoder, model: Mapping[int, int], functional_nets: List[str]
) -> Dict[str, int]:
    """Read a DIP out of a miter model, refusing to invent missing bits.

    Every functional input is touched by ``encoder.encode()``; a missing
    literal means the miter is malformed, and quietly defaulting the bit to
    0 would corrupt the DIP constraints built from it.
    """
    dip: Dict[str, int] = {}
    for net in functional_nets:
        if net not in encoder.varmap:
            raise CircuitError(
                f"functional input {net!r} has no CNF literal; "
                "cannot extract a trustworthy DIP from the miter"
            )
        dip[net] = encoder.value(model, net)
    return dip


def sat_attack(
    locked: Union[LockedCircuit, Circuit],
    oracle_circuit: Optional[Circuit] = None,
    *,
    max_iterations: int = 256,
    time_limit: float = 120.0,
    conflict_limit: Optional[int] = 200_000,
    verify_vectors: int = 256,
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
    frame = _AttackFrame(
        "sat", locked, oracle_circuit, scan=True, time_limit=time_limit,
        conflict_limit=conflict_limit, key_check={"num_vectors": verify_vectors},
        proof_dir=proof_dir,
    )
    if frame.refusal is not None:
        return frame.refusal
    session = frame.session()
    miter = _DipMiter(session, frame.view, frame.shared_outputs)
    while frame.iterations < max_iterations:
        status = miter.search()
        frame.round(status)
        if status is None:
            return frame.finish(AttackOutcome.TIMEOUT, reason="solver limit during DIP search")
        if status is False:
            break
        dip = miter.dip()
        miter.observe(dip, frame.oracle.query(dip))
        if frame.out_of_time():
            return frame.finish(AttackOutcome.TIMEOUT, reason="time limit after DIP refinement")
    else:
        return frame.finish(AttackOutcome.TIMEOUT, reason="iteration limit reached")

    # DIP loop converged: extract a key consistent with every observation.
    key, ended = frame.extract_key(session, miter.key)
    return ended or frame.classify(key)
