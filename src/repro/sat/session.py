"""Unified incremental solving sessions with end-to-end solver telemetry.

Every oracle-guided attack in :mod:`repro.attacks` used to hand-roll its own
``TseitinEncoder`` + ``Solver`` pair, which meant solver statistics died
inside each attack and there was no single place to tune or instrument the
CDCL hot loop.  :class:`SolveSession` is that place:

* **one solver** — every session builds a :class:`repro.sat.solver.Solver`
  and attaches the active trace writer and proof logger to its hooks;
* **incremental queries** — the session keeps one encoder and one solver in
  sync (clauses added to the encoder flow into the solver before each
  query) and exposes assumption-scoped :meth:`SolveSession.solve` calls;
* **budget accounting** — a session carries a default per-call conflict
  limit and an absolute wall-clock deadline; every query is automatically
  clamped to the remaining budget;
* **telemetry** — each query folds the solver's counter deltas, the answer
  and the per-phase wall time into the session's :class:`SolverTelemetry`
  (attacks attach it to ``AttackResult.details["solver"]``, merging the
  blocks when they run several sessions) and into every open capture
  frame.  The frames (:func:`capture_solver_telemetry`) are the one
  cross-session accumulator: the campaign executor stores one per job
  attempt on its result record, so a timed-out attempt keeps its partial
  counters.
"""

from __future__ import annotations

import itertools
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence, Tuple, Union

from repro.sat.solver import Solver
from repro.sat.tseitin import TseitinEncoder
from repro.trace.writer import active_tracer

#: Process-wide session ids, so trace events from concurrent sessions in one
#: attack (e.g. RANE's synthesis + verification sides) stay attributable.
_SESSION_IDS = itertools.count(1)

#: Counter fields shared by SolverStats and SolverTelemetry.
_COUNTER_FIELDS = (
    "decisions",
    "propagations",
    "conflicts",
    "learned_clauses",
    "restarts",
    "solve_calls",
)

#: Name of the solver in telemetry blocks and trace ``session`` events.
DEFAULT_BACKEND = "cdcl"


@dataclass
class SolverTelemetry:
    """Serializable, mergeable solver counters for one session (or many).

    ``phase_seconds`` maps a caller-chosen phase label (``"dip-search"``,
    ``"key-extract"``, ``"verify"``, …) to the wall-clock seconds spent in
    solver calls tagged with that phase; ``solve_seconds`` is the total.
    ``sat`` / ``unsat`` / ``limited`` count the per-call answers (``limited``
    = the call hit its conflict or time budget and returned ``None``).
    """

    backend: str = ""
    decisions: int = 0
    propagations: int = 0
    conflicts: int = 0
    learned_clauses: int = 0
    restarts: int = 0
    solve_calls: int = 0
    sat: int = 0
    unsat: int = 0
    limited: int = 0
    solve_seconds: float = 0.0
    phase_seconds: Dict[str, float] = field(default_factory=dict)

    def note_call(
        self,
        deltas: Mapping[str, int],
        *,
        answer: Optional[bool],
        seconds: float,
        phase: str,
    ) -> None:
        """Fold one solver call (counter deltas + outcome) into the totals."""
        for name in _COUNTER_FIELDS:
            setattr(self, name, getattr(self, name) + int(deltas.get(name, 0)))
        if answer is True:
            self.sat += 1
        elif answer is False:
            self.unsat += 1
        else:
            self.limited += 1
        self.solve_seconds += seconds
        self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds

    def merge(self, other: "SolverTelemetry") -> None:
        """Fold another telemetry block into this one (aggregation).

        An empty backend label takes the other block's; a set one is kept.
        """
        if not self.backend:
            self.backend = other.backend
        for name in _COUNTER_FIELDS + ("sat", "unsat", "limited"):
            setattr(self, name, getattr(self, name) + getattr(other, name))
        self.solve_seconds += other.solve_seconds
        for phase, seconds in other.phase_seconds.items():
            self.phase_seconds[phase] = self.phase_seconds.get(phase, 0.0) + seconds

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (stored on attack results and campaign records)."""
        payload: Dict[str, object] = {"backend": self.backend}
        for name in _COUNTER_FIELDS + ("sat", "unsat", "limited"):
            payload[name] = getattr(self, name)
        payload["solve_seconds"] = self.solve_seconds
        payload["phase_seconds"] = dict(self.phase_seconds)
        return payload

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "SolverTelemetry":
        """Rebuild a block from :meth:`to_dict` output.

        Store records are outside input, so only numeric values count: a
        missing or non-numeric counter reads as zero, and a non-numeric
        phase entry is dropped.
        """
        backend = data.get("backend")
        telemetry = cls(backend=backend if isinstance(backend, str) else "")
        for name in _COUNTER_FIELDS + ("sat", "unsat", "limited"):
            value = data.get(name)
            if isinstance(value, (int, float)):
                setattr(telemetry, name, int(value))
        seconds = data.get("solve_seconds")
        if isinstance(seconds, (int, float)):
            telemetry.solve_seconds = float(seconds)
        phases = data.get("phase_seconds")
        if isinstance(phases, Mapping):
            telemetry.phase_seconds = {
                str(phase): float(value) for phase, value in phases.items()
                if isinstance(value, (int, float))
            }
        return telemetry


# --------------------------------------------------------------------------- #
# process-wide capture (the campaign executor's per-attempt snapshot)
# --------------------------------------------------------------------------- #
_CAPTURE_FRAMES: List[SolverTelemetry] = []


@contextmanager
def capture_solver_telemetry() -> Iterator[SolverTelemetry]:
    """Aggregate every session's solver activity inside the ``with`` block.

    The campaign executor wraps each job attempt in this, so every result
    record carries the attempt's end-to-end solver telemetry no matter how
    many sessions (attack + verification + …) the job created, and even
    when the attempt is interrupted before an attack could report its own
    block.  Frames nest: each active frame sees every call.
    """
    frame = SolverTelemetry()
    _CAPTURE_FRAMES.append(frame)
    try:
        yield frame
    finally:
        # Remove by identity, not ==: two idle frames compare equal (dataclass
        # equality) and list.remove would pop the wrong one.
        for index in range(len(_CAPTURE_FRAMES) - 1, -1, -1):
            if _CAPTURE_FRAMES[index] is frame:
                del _CAPTURE_FRAMES[index]
                break


# --------------------------------------------------------------------------- #
# the session
# --------------------------------------------------------------------------- #
class SolveSession:
    """One encoder + one solver + budgets + telemetry.

    :attr:`telemetry` holds this session's calls only; an attack running
    several sessions (e.g. RANE's synthesis + verification sides) ``merge``-s
    their blocks into its attack-wide one.

    Parameters
    ----------
    encoder:
        Optional shared :class:`TseitinEncoder` (a fresh one by default).
    conflict_limit:
        Default per-call conflict budget (None = unlimited).
    deadline:
        Absolute ``time.monotonic()`` deadline every call is clamped to.
    proof_path:
        Directory to write UNSAT certificates into (created if missing).
        When set, the solver logs DRUP steps into a
        :class:`repro.check.certify.proof.ProofLogger` and every UNSAT
        answer is paired with a ``<label>-sNNN-qNNNN.cnf`` /
        ``<label>-sNNN-qNNNN.drup`` certificate checkable by
        ``repro check proof``, and so is every :meth:`congruence` pass
        that derives lemmas (``<label>-sNNN-cNNNN``); the pairs accumulate
        in :attr:`certificates`.  Disarmed (the default) this costs the
        solver one ``is not None`` test per *conflict* — the same
        zero-cost pattern as the trace hooks.
    proof_label:
        Filename stem for certificates written by this session.
    """

    def __init__(
        self,
        *,
        encoder: Optional[TseitinEncoder] = None,
        conflict_limit: Optional[int] = None,
        deadline: Optional[float] = None,
        proof_path: Optional[Union[str, Path]] = None,
        proof_label: str = "query",
    ) -> None:
        self.encoder = encoder if encoder is not None else TseitinEncoder()
        self.solver = Solver()
        self.conflict_limit = conflict_limit
        self.deadline = deadline
        self.telemetry = SolverTelemetry(backend=DEFAULT_BACKEND)
        self._synced = 0
        self._lemmas_synced = 0
        self._passes = 0
        # Event tracing (repro.trace): bind to the writer active at session
        # construction.  With no writer active, every later check is a single
        # ``is not None`` test.
        self.tracer = active_tracer()
        self._session_id = next(_SESSION_IDS)
        self._calls = 0
        # DRUP certification (repro.check.certify): lazily imported so the
        # plain solving path never loads the check package.
        self.proof_dir: Optional[Path] = None
        self.proof_label = proof_label
        self.certificates: List[Tuple[str, str]] = []
        self._proof = None
        if proof_path is not None:
            from repro.check.certify.proof import ProofLogger

            self.proof_dir = Path(proof_path)
            self.proof_dir.mkdir(parents=True, exist_ok=True)
            self._proof = ProofLogger()
        if self.tracer is not None:
            self.tracer.emit(
                "session", backend=DEFAULT_BACKEND, session=self._session_id
            )
        self._attach_hooks()

    def _attach_hooks(self) -> None:
        """Attach the session's trace writer and proof logger to the solver."""
        if self.tracer is not None:
            self.solver.trace = self.tracer
            self.solver.trace_stride = self.tracer.stride
        self.solver.proof = self._proof

    # ------------------------------------------------------------- budgets
    def remaining(self) -> Optional[float]:
        """Seconds left until the deadline (None when unbounded)."""
        if self.deadline is None:
            return None
        return max(0.0, self.deadline - time.monotonic())

    # -------------------------------------------------------------- clauses
    def sync(self) -> None:
        """Flow clauses added to the encoder since the last query into the solver.

        The encoder's CNF goes first, then its congruence lemmas
        (:attr:`TseitinEncoder.lemmas`), which the proof log records as
        DRUP additions: a certificate replays them, its CNF never holds them.
        """
        encoder = self.encoder
        clauses = encoder.cnf.clauses
        if self._synced < len(clauses):
            self.solver.add_clauses(clauses[self._synced:])
            self._synced = len(clauses)
        lemmas = encoder.lemmas
        if self._lemmas_synced < len(lemmas):
            added = lemmas[self._lemmas_synced:]
            if self._proof is not None:
                for lemma in added:
                    self._proof.learned(lemma)
            self.solver.add_clauses(added)
            self._lemmas_synced = len(lemmas)

    def level0_values(self) -> Optional[Mapping[int, int]]:
        """A fresh map of every variable fixed at decision level 0 to its 0/1 value.

        Syncs first, so the values are what unit propagation derives from
        the encoder's clauses, its lemmas and the solver's learned clauses
        (all of them in the proof log, when one is armed).  ``None`` once
        the clauses are unsatisfiable at level 0.
        """
        self.sync()
        literals = self.solver.fixed_literals()
        if literals is None:
            return None
        return {abs(lit): int(lit > 0) for lit in literals}

    def congruence(self, values: Mapping[int, int]) -> int:
        """Run the encoder's congruence pass over ``values`` (:meth:`level0_values`).

        Returns how many literals the pass merged.  In certified mode the
        lemmas it derived get a certificate pair of their own
        (``<label>-sNNN-cNNNN``): its CNF is every encoder clause the pass
        read plus clauses claiming that some lemma is false, and its proof
        is every step logged so far, the lemmas in derivation order, and
        the refutation of that claim.  ``repro check proof`` thus replays
        each lemma by RUP over the clauses it was derived from.  The DIS
        certificates that follow log the lemmas too, but their CNF is
        encoded over the merged literals, so once the copies are one it is
        contradictory by itself (CHECKS.md, "Certificates").
        """
        encoder = self.encoder
        first = len(encoder.lemmas)
        merged = encoder.congruence(values)
        if self._proof is not None and len(encoder.lemmas) > first:
            self._passes += 1
            self._write_lemma_certificate(encoder.lemmas[first:])
        return merged

    def reset_solver(self) -> None:
        """Rebuild the solver from scratch (non-incremental modes).

        The encoder — and the accumulated telemetry — survive; the next
        :meth:`solve` re-syncs the full CNF into the fresh solver, and
        re-logs the encoder's lemmas into the fresh proof.
        """
        self.solver = Solver()
        self._synced = 0
        self._lemmas_synced = 0
        if self._proof is not None:
            # The fresh solver has no learned clauses, so the replay starts
            # over from the original formula.
            self._proof.reset()
        self._attach_hooks()

    # -------------------------------------------------------------- queries
    def solve(
        self,
        assumptions: Optional[Sequence[int]] = None,
        *,
        phase: str = "solve",
        conflict_limit: Optional[int] = None,
    ) -> Optional[bool]:
        """Sync and run one assumption-scoped query under the session budgets.

        ``conflict_limit`` overrides the session default for this call only.
        The call's time is what is left until the session deadline, with a
        small floor so an expired deadline still yields a well-defined
        ``None`` instead of a zero-length limit.  The call's counter deltas
        and wall time are folded into the session telemetry under
        ``phase``, and into every active capture frame.
        """
        self.sync()
        if conflict_limit is None:
            conflict_limit = self.conflict_limit
        remaining = self.remaining()
        time_limit = None if remaining is None else max(remaining, 0.001)

        stats = self.solver.stats
        before = {name: getattr(stats, name) for name in _COUNTER_FIELDS}
        tracer = self.tracer
        self._calls += 1
        if tracer is not None:
            tracer.emit(
                "solve-begin",
                session=self._session_id,
                call=self._calls,
                phase=phase,
                assumptions=len(assumptions or ()),
            )
        started = time.perf_counter()
        answer = self.solver.solve(
            assumptions=assumptions,
            conflict_limit=conflict_limit,
            time_limit=time_limit,
        )
        seconds = time.perf_counter() - started
        deltas = {
            name: getattr(stats, name) - before[name] for name in _COUNTER_FIELDS
        }
        if tracer is not None:
            tracer.emit(
                "solve-end",
                session=self._session_id,
                call=self._calls,
                phase=phase,
                answer=(
                    "sat" if answer is True
                    else "unsat" if answer is False
                    else "limited"
                ),
                seconds=round(seconds, 6),
                conflicts=deltas["conflicts"],
                decisions=deltas["decisions"],
                propagations=deltas["propagations"],
                learned=deltas["learned_clauses"],
                restarts=deltas["restarts"],
            )
        if answer is False and self._proof is not None:
            self._write_certificate(list(assumptions or ()))
        self.telemetry.note_call(deltas, answer=answer, seconds=seconds, phase=phase)
        for frame in _CAPTURE_FRAMES:
            if not frame.backend:
                frame.backend = DEFAULT_BACKEND
            frame.note_call(deltas, answer=answer, seconds=seconds, phase=phase)
        return answer

    # --------------------------------------------------------- certification
    def _write_certificate(self, assumptions: List[int]) -> None:
        """Pair the UNSAT answer just returned with an on-disk certificate.

        The certificate CNF is the clause set the solver has actually seen
        (everything synced so far) with this query's assumptions appended
        as unit clauses; the DRUP file is every step the solver logged
        since its last reset.  Both are exactly what
        ``repro check proof CNF PROOF`` replays.
        """
        assert self._proof is not None
        self._write_pair(
            f"q{self._calls:04d}",
            self.encoder.cnf.clauses[: self._synced],
            self.encoder.cnf.num_vars,
            assumptions=assumptions,
            steps=self._proof.steps,
        )

    def _write_lemma_certificate(self, lemmas: Sequence[Tuple[int, ...]]) -> None:
        """Certify one congruence pass: the encoder's clauses entail its ``lemmas``.

        The certificate formula is the encoder's CNF as the pass read it
        and the claim that some lemma is false: a fresh selector ``s_i``
        per lemma ``L_i``, the binary clauses ``(-s_i, -l)`` for each
        literal ``l`` of ``L_i``, and the clause ``(s_1 ... s_k)``.  The
        proof replays every step logged so far, adds each lemma in
        derivation order, then each ``-s_i`` (RUP once ``L_i`` is in), and
        ends with the empty clause.  While ``L_j`` is checked its negation
        is assumed, so no selector but ``s_j`` can be forced true: the
        claim helps no lemma's RUP check.
        """
        assert self._proof is not None
        cnf = self.encoder.cnf
        clauses: List[Sequence[int]] = list(cnf.clauses)
        selectors = range(cnf.num_vars + 1, cnf.num_vars + 1 + len(lemmas))
        for selector, lemma in zip(selectors, lemmas):
            clauses.extend((-selector, -lit) for lit in lemma)
        clauses.append(tuple(selectors))
        steps = list(self._proof.steps)
        steps.extend(("", lemma) for lemma in lemmas)
        steps.extend(("", (-selector,)) for selector in selectors)
        self._write_pair(
            f"c{self._passes:04d}", clauses, selectors[-1], assumptions=(), steps=steps,
        )

    def _write_pair(
        self,
        name: str,
        clauses: Sequence[Sequence[int]],
        num_vars: int,
        *,
        assumptions: Sequence[int],
        steps: Sequence[Tuple[str, Sequence[int]]],
    ) -> None:
        """Write one certificate pair ``<label>-sNNN-<name>`` and record it."""
        from repro.check.certify.proof import write_certificate

        stem = f"{self.proof_label}-s{self._session_id:03d}-{name}"
        assert self.proof_dir is not None
        cnf_path = self.proof_dir / f"{stem}.cnf"
        proof_path = self.proof_dir / f"{stem}.drup"
        write_certificate(
            cnf_path, proof_path, clauses, num_vars, assumptions=assumptions, steps=steps,
        )
        self.certificates.append((str(cnf_path), str(proof_path)))
        if self.tracer is not None:
            self.tracer.emit(
                "certificate",
                session=self._session_id,
                call=self._calls,
                cnf=str(cnf_path),
                proof=str(proof_path),
                steps=len(steps),
            )

    # --------------------------------------------------------------- models
    def model(self) -> Dict[int, int]:
        """The satisfying assignment of the most recent SAT answer."""
        return self.solver.model()

    # ---------------------------------------------------------- conveniences
    def literal(self, net: str, value: bool) -> int:
        return self.encoder.literal(net, value)
