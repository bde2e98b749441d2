"""AppSAT: the approximate SAT attack (Shamsi et al., HOST 2017).

AppSAT interleaves DIP refinement with random-query sampling.  Whenever the
current best key explains a large fraction of random oracle queries, the
attack stops early and returns that *approximate* key.  Against low-
corruptibility schemes (Anti-SAT) this recovers an almost-correct key quickly;
against Cute-Lock the returned static key is simply wrong, which is the deep
red "x..x" outcome in the paper's tables.

The DIP loop is the exact attack's (:func:`~repro.attacks.sat_attack.\
sat_attack`): one solver call, one DIP, one oracle query, one constraint per
iteration.  Every ``settle_rounds`` iterations the candidate key is checked
against the oracle on ``samples_per_round`` random patterns, all of them
lanes of one packed pass, drawn in bulk as lane words
(:func:`~repro.engine.packed.random_bits`).
"""

from __future__ import annotations

import random
from typing import Dict, Optional, Union

from repro.attacks.results import AttackOutcome, AttackResult
from repro.attacks.sat_attack import _AttackFrame, _DipMiter
from repro.engine.packed import random_bits, stimulus_words
from repro.locking.base import LockedCircuit
from repro.netlist.circuit import Circuit


def appsat_attack(
    locked: Union[LockedCircuit, Circuit],
    oracle_circuit: Optional[Circuit] = None,
    *,
    max_iterations: int = 128,
    settle_rounds: int = 4,
    samples_per_round: int = 32,
    error_threshold: float = 0.05,
    time_limit: float = 120.0,
    conflict_limit: Optional[int] = 200_000,
    verify_vectors: int = 256,
    seed: int = 0,
) -> AttackResult:
    """Run the AppSAT approximate attack.

    Every ``settle_rounds`` DIP iterations the candidate key is evaluated on
    ``samples_per_round`` random patterns; if the observed error rate is at
    most ``error_threshold`` the candidate is returned as the approximate
    key.  The result is classified against the oracle exactly like the exact
    attack (an approximate key that fails full verification is reported as
    ``WRONG_KEY``).
    """
    frame = _AttackFrame(
        "appsat", locked, oracle_circuit, scan=True, time_limit=time_limit,
        conflict_limit=conflict_limit, key_check={"num_vectors": verify_vectors},
    )
    if frame.refusal is not None:
        return frame.refusal
    rng = random.Random(seed)
    session = frame.session()
    miter = _DipMiter(session, frame.view, frame.shared_outputs)

    def sample_error(candidate: Dict[str, int]) -> float:
        # One packed pass per side: all samples of the round are lanes,
        # drawn sample by sample, each functional net in order.
        width = samples_per_round
        mask = (1 << width) - 1
        nets = miter.functional_nets
        words = stimulus_words(random_bits(rng, width * len(nets)), nets)
        oracle_words = frame.oracle.query_words(words, width)
        words.update((net, mask if bit & 1 else 0) for net, bit in candidate.items())
        locked_words = miter.simulator.output_words(words, width=width)
        wrong_lanes = 0
        for out in frame.shared_outputs:
            wrong_lanes |= locked_words[out] ^ oracle_words[out]
        return bin(wrong_lanes).count("1") / max(width, 1)

    next_settle = settle_rounds
    while frame.iterations < max_iterations:
        if frame.out_of_time():
            return frame.finish(AttackOutcome.TIMEOUT, reason="time limit")
        status = miter.search()
        frame.round(status)
        if status is None:
            return frame.finish(AttackOutcome.TIMEOUT, reason="solver limit during DIP search")
        if status is False:
            candidate, ended = frame.extract_key(session, miter.key)
            return ended or frame.classify(candidate, approximate=False)
        dip = miter.dip()
        miter.observe(dip, frame.oracle.query(dip))

        if frame.iterations >= next_settle:
            next_settle += settle_rounds
            candidate, ended = frame.extract_key(session, miter.key)
            if ended is not None:
                return ended
            if sample_error(candidate) <= error_threshold:
                return frame.classify(candidate, approximate=True)

    return frame.finish(AttackOutcome.TIMEOUT, reason="iteration limit reached")
