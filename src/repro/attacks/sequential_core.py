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

from pathlib import Path
from typing import Dict, List, Optional, Sequence, Union

from repro.attacks.results import AttackOutcome, AttackResult
from repro.attacks.sat_attack import _AttackFrame
from repro.attacks.unroll import encode_unrolled, extend_unrolled
from repro.locking.base import LockedCircuit
from repro.netlist.circuit import Circuit
from repro.sat.session import SolveSession
from repro.sat.tseitin import TseitinEncoder


def _extract_input_sequence(
    encoder: TseitinEncoder,
    model: Dict[int, int],
    frame_inputs: Sequence[Dict[str, str]],
    functional_inputs: Sequence[str],
    num_frames: int,
) -> List[Dict[str, int]]:
    """Read an unrolled copy's shared input sequence out of a SAT model."""
    return [
        {net: encoder.value(model, frame_inputs[frame][net]) for net in functional_inputs}
        for frame in range(num_frames)
    ]


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
        self.key_nets = list(locked.key_inputs)
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

    def key(self) -> Dict[str, int]:
        """The ``KA@`` key of the last satisfiable solve."""
        model = self.session.model()
        return {net: self.encoder.value(model, f"KA@{net}") for net in self.key_nets}

    def observe(self, dis: List[Dict[str, int]], responses: List[Dict[str, int]]) -> None:
        """Constrain both key copies to reproduce the oracle's response on ``dis``.

        Each side gets one unrolled copy over its static key, with the DIS
        bound to its inputs and the reset state to frame 0 before encoding,
        so the copy folds to the logic the key still controls; its shared
        outputs are then fixed to the oracle's response.
        """
        self.constraint_copies += 1
        tag = self.constraint_copies
        frames = min(len(dis), len(responses), self.depth)
        for side, key_prefix in (("A", "KA@"), ("B", "KB@")):
            copy = encode_unrolled(
                self.encoder, self.locked, frames,
                prefix=f"o{side}{tag}#", shared_input_prefix=f"o{side}{tag}X",
                key_prefix=key_prefix, input_values=dis[:frames],
            )
            for frame in range(frames):
                response = responses[frame]
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
    An ``initial_depth`` below 1 raises :class:`ValueError` before anything
    is solved: an unrolling of no frames has no distinguishing sequence.
    """
    if initial_depth < 1:
        raise ValueError(f"initial_depth must be >= 1, got {initial_depth!r}")
    frame = _AttackFrame(
        attack_name, locked, oracle_circuit, scan=False, time_limit=time_limit,
        conflict_limit=conflict_limit, proof_dir=proof_dir,
        key_check={"num_sequences": verify_sequences, "sequence_length": verify_length},
    )
    if frame.refusal is not None:
        return frame.refusal
    depth = initial_depth
    session = frame.session(f"{attack_name}-d{depth:02d}")
    miter = _UnrolledMiter(
        session, frame.view, frame.functional_inputs, frame.shared_outputs, depth
    )
    while True:
        while True:
            if frame.out_of_time():
                return frame.finish(AttackOutcome.TIMEOUT, reason="time limit", depth=depth)
            if frame.iterations >= max_iterations:
                return frame.finish(AttackOutcome.TIMEOUT, reason="iteration limit", depth=depth)
            if not incremental:
                session.reset_solver()
            status = miter.search()
            frame.round(status, depth=depth)
            if status is None:
                return frame.finish(AttackOutcome.TIMEOUT, reason="solver limit during DIS search",
                                    depth=depth)
            if status is False:
                break
            dis = miter.dis()
            miter.observe(dis, frame.oracle.query(dis))
            if crunch_keys:
                _crunch_key_conditions(miter, frame)

        # No DIS left at this depth: extract a consistent static key.  One
        # that fails the key check sends the search twice as deep.
        key, ended = frame.extract_key(session, miter.key, depth=depth)
        result = ended or frame.classify(key, depth=depth)
        depth *= 2
        if result.outcome is not AttackOutcome.WRONG_KEY or depth > max_depth:
            return result
        miter.extend(depth)


def _crunch_key_conditions(miter: _UnrolledMiter, frame: _AttackFrame) -> None:
    """KC2-style simplification: permanently fix key bits implied by the
    observations accumulated so far (both for the A and B key copies)."""
    for prefix in ("KA@", "KB@"):
        for net in miter.key_nets:
            # Each probe is cheap but there are 2x|key| of them: clamp every
            # probe (recomputed per solve, the first may eat the budget) to
            # 0.5s (the session clamps to the attack's remaining wall-clock
            # on top) so crunching cannot overshoot the deadline.
            if frame.out_of_time():
                return
            literal = miter.encoder.literal(f"{prefix}{net}", True)
            can_be_true = miter.session.solve(
                assumptions=[literal], phase="crunch", time_limit=0.5,
            )
            if frame.out_of_time():
                return
            can_be_false = miter.session.solve(
                assumptions=[-literal], phase="crunch", time_limit=0.5,
            )
            if can_be_true is False and can_be_false is True:
                miter.encoder.cnf.add_clause([-literal])
            elif can_be_false is False and can_be_true is True:
                miter.encoder.cnf.add_clause([literal])
    miter.session.sync()
