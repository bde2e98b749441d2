"""Cute-Lock-Str: structural (netlist-level) multi-key time-based locking.

Section III-C of the paper.  Given a sequential gate-level netlist the
transform:

1. adds ``ki`` key input pins (``keyinput0 … keyinput{ki-1}``);
2. inserts a modulo-``k`` counter (``k`` = number of keys);
3. for each selected flip-flop, re-routes its D pin through a MUX tree
   (:mod:`repro.locking.muxtree`) that only passes the original next-state
   function when the key presented at the current counter time equals the
   scheduled key value — otherwise the flip-flop captures the next-state
   function of a *donor* flip-flop (existing "wrongful hardware"), silently
   walking the machine into a wrong state.

Locking a single flip-flop already defeats the static-key oracle-guided
attacks; locking more flip-flops additionally disturbs the register dataflow
that DANA clusters and removes any comparator-plus-restore structure FALL
could latch onto (Section IV-C).
"""

from __future__ import annotations

import random
from typing import Dict, List, Optional, Sequence

from repro.locking.base import KeySchedule, LockedCircuit, LockingError
from repro.locking.counter import insert_counter
from repro.locking.muxtree import build_mux_tree
from repro.netlist.circuit import Circuit

#: Key-input pins follow the literature's naming convention so locked
#: ``.bench`` files are directly recognisable by the attacks.
KEY_INPUT_PREFIX = "keyinput"


class CuteLockStr:
    """The Cute-Lock-Str locking transform.

    Parameters
    ----------
    num_keys:
        k — number of key values (and the counter period).
    key_width:
        ki — bits per key value (number of key input pins).
    num_locked_ffs:
        How many flip-flops to lock (clamped to the number available).
        Locked flip-flops are chosen deterministically from ``seed``.
    donors_per_ff:
        How many donor (wrongful-hardware) nets each locked flip-flop's
        layer-1 block can select among.
    saturate_counter:
        Counter holds at ``k-1`` instead of wrapping (ablation knob).
    seed:
        Seeds key-schedule generation and FF/donor selection.
    """

    def __init__(
        self,
        num_keys: int = 4,
        key_width: int = 2,
        *,
        num_locked_ffs: int = 1,
        donors_per_ff: int = 1,
        saturate_counter: bool = False,
        seed: int = 0,
    ) -> None:
        if num_keys < 1:
            raise LockingError("num_keys must be at least 1")
        if key_width < 1:
            raise LockingError("key_width must be at least 1")
        if num_locked_ffs < 1:
            raise LockingError("num_locked_ffs must be at least 1")
        if donors_per_ff < 1:
            raise LockingError("donors_per_ff must be at least 1")
        self.num_keys = num_keys
        self.key_width = key_width
        self.num_locked_ffs = num_locked_ffs
        self.donors_per_ff = donors_per_ff
        self.saturate_counter = saturate_counter
        self.seed = seed

    # ------------------------------------------------------------------ #
    def lock(
        self,
        circuit: Circuit,
        *,
        schedule: Optional[KeySchedule] = None,
        locked_ffs: Optional[Sequence[str]] = None,
    ) -> LockedCircuit:
        """Lock ``circuit`` and return the :class:`LockedCircuit`.

        ``schedule`` and ``locked_ffs`` may be given explicitly (e.g. the
        paper's s27 validation uses the schedule 1, 3, 2, 0); otherwise a
        seeded random schedule and FF selection are used.
        """
        if not circuit.dffs:
            raise LockingError(
                f"{circuit.name}: Cute-Lock-Str requires a sequential circuit "
                "(no flip-flops found)"
            )
        rng = random.Random(self.seed)
        schedule = schedule or KeySchedule.random(
            self.num_keys, self.key_width, seed=self.seed
        )
        if schedule.width != self.key_width or schedule.num_keys != self.num_keys:
            raise LockingError("explicit schedule does not match transform parameters")

        original = circuit.copy()
        locked = circuit.copy(name=f"{circuit.name}_cutelock_str")

        # Select flip-flops to lock.
        available = list(locked.dffs.keys())
        if locked_ffs is None:
            count = min(self.num_locked_ffs, len(available))
            locked_ffs = rng.sample(available, count)
        else:
            locked_ffs = list(locked_ffs)
            unknown = [q for q in locked_ffs if q not in locked.dffs]
            if unknown:
                raise LockingError(f"cannot lock unknown flip-flops: {unknown}")

        # Key input pins (MSB first).
        key_inputs = [f"{KEY_INPUT_PREFIX}{i}" for i in range(self.key_width)]
        for net in key_inputs:
            if locked.drives(net):
                raise LockingError(f"key input net {net!r} collides with an existing net")
            locked.add_input(net, is_key=True)

        counter = insert_counter(
            locked, self.num_keys, prefix="clcnt", saturate=self.saturate_counter
        )

        donor_map: Dict[str, List[str]] = {}
        tree_info: Dict[str, object] = {}
        original_d = {q: ff.d for q, ff in locked.dffs.items()}
        for q_net in locked_ffs:
            correct_net = original_d[q_net]
            donors = self._choose_donors(original_d, q_net, rng)
            donor_map[q_net] = donors
            info = build_mux_tree(
                locked,
                correct_net=correct_net,
                wrongful_nets=donors,
                key_inputs=key_inputs,
                schedule=schedule,
                decode_nets=counter.decode_nets,
                prefix=f"cl_{q_net}",
            )
            locked.replace_dff_input(q_net, info.root_net)
            tree_info[q_net] = {
                "layers": info.num_layers,
                "comparators": info.comparator_nets,
            }

        return LockedCircuit(
            circuit=locked,
            original=original,
            schedule=schedule,
            key_inputs=key_inputs,
            scheme="cute-lock-str",
            counter_nets=list(counter.state_nets),
            locked_ffs=list(locked_ffs),
            metadata={
                "donor_map": donor_map,
                "mux_trees": tree_info,
                "counter_decodes": list(counter.decode_nets),
                "saturate_counter": self.saturate_counter,
            },
        )

    # ------------------------------------------------------------------ #
    def _choose_donors(
        self, original_d: Dict[str, str], locked_q: str, rng: random.Random
    ) -> List[str]:
        """Pick donor next-state nets (wrongful hardware) for one locked FF.

        Donors are D nets of *other* flip-flops, as in Fig. 2/3 where the
        hardware of ``NS Q1+`` is repurposed for the wrongful transition of
        ``Q0``.  When the design has a single flip-flop, the inverted view of
        its own next-state net is used instead so a wrong key still corrupts
        the state.
        """
        candidates = [d for q, d in original_d.items() if q != locked_q and d != original_d[locked_q]]
        if not candidates:
            return [locked_q]  # degenerate single-FF design: feed back the present state
        rng.shuffle(candidates)
        count = min(self.donors_per_ff, len(candidates))
        return candidates[:count]
