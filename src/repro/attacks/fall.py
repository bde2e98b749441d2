"""FALL: Functional Analysis attacks on Logic Locking (Sirone & Subramanyan,
DATE 2019).

FALL is an *oracle-less* attack against "strip-and-restore" locking (TTLock /
SFLL-HD0): it locates the restore unit (a comparator between key inputs and
functional signals), derives candidate protected patterns from the
functionality-stripping logic, and confirms candidates with SAT-based
functional checks.  Its published success rate is 65/80 locked circuits
(81%); against Cute-Lock-Str the paper reports zero candidates and zero keys
(Table V), because Cute-Lock's key logic compares keys against *constants
scheduled in time* rather than against functional signals, so no restore-unit
structure exists.

The reproduction implements the two stages that drive those numbers:

1. **Candidate identification** — structural scan for restore units
   (AND/NOR of XNOR/XOR(key, signal) pairs) and for hard-wired pattern
   comparators over the same signals; each pairing yields a candidate key.
2. **Key confirmation** — an oracle-less SAT check that, under the candidate
   key, the corruption logic can never fire (the locked circuit is
   functionally identical to the stripped-plus-restored original).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple, Union

import random

from repro.attacks.results import AttackOutcome, AttackResult
from repro.engine.packed import PackedSimulator
from repro.locking.base import LockedCircuit
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.sat.session import DEFAULT_BACKEND, SolveSession, SolverTelemetry
from repro.sim.equivalence import random_equivalence_check


@dataclass
class FallReport:
    """Outcome of a FALL run, mirroring the columns of the paper's Table V."""

    circuit_name: str
    candidates: List[Dict[str, int]] = field(default_factory=list)
    confirmed_keys: List[Dict[str, int]] = field(default_factory=list)
    cpu_time: float = 0.0
    details: Dict[str, object] = field(default_factory=dict)

    @property
    def num_candidates(self) -> int:
        return len(self.candidates)

    @property
    def num_keys(self) -> int:
        return len(self.confirmed_keys)

    def to_dict(self) -> Dict[str, object]:
        """JSON-serialisable form (campaign workers ship reports as JSON)."""
        from repro.jsonutil import jsonable

        return {
            "circuit_name": self.circuit_name,
            "candidates": [dict(candidate) for candidate in self.candidates],
            "confirmed_keys": [dict(key) for key in self.confirmed_keys],
            "cpu_time": self.cpu_time,
            "details": jsonable(self.details),
        }

    @classmethod
    def from_dict(cls, data: Mapping[str, object]) -> "FallReport":
        return cls(
            circuit_name=str(data["circuit_name"]),
            candidates=[
                {str(net): int(bit) for net, bit in candidate.items()}
                for candidate in data.get("candidates", [])  # type: ignore[union-attr]
            ],
            confirmed_keys=[
                {str(net): int(bit) for net, bit in key.items()}
                for key in data.get("confirmed_keys", [])  # type: ignore[union-attr]
            ],
            cpu_time=float(data.get("cpu_time", 0.0)),  # type: ignore[arg-type]
            details=dict(data.get("details", {})),  # type: ignore[arg-type]
        )

    def to_attack_result(self) -> AttackResult:
        """Render as an :class:`AttackResult` (CORRECT iff a key was confirmed)."""
        if self.confirmed_keys:
            outcome = AttackOutcome.CORRECT
            key = self.confirmed_keys[0]
        elif self.candidates:
            outcome = AttackOutcome.WRONG_KEY
            key = self.candidates[0]
        else:
            outcome = AttackOutcome.FAIL
            key = None
        return AttackResult(
            attack="fall",
            outcome=outcome,
            key=key,
            iterations=self.num_candidates,
            runtime_seconds=self.cpu_time,
            details=dict(self.details),
        )


def _is_key_signal_pair(circuit: Circuit, net: str, key_set: Set[str]) -> Optional[Tuple[str, str, bool]]:
    """If ``net`` is XNOR/XOR of one key input and one non-key signal, return
    ``(key_net, signal_net, positive)`` where ``positive`` is True for XNOR."""
    gate = circuit.gates.get(net)
    if gate is None or gate.gtype not in (GateType.XNOR, GateType.XOR) or len(gate.inputs) != 2:
        return None
    a, b = gate.inputs
    if a in key_set and b not in key_set:
        return a, b, gate.gtype == GateType.XNOR
    if b in key_set and a not in key_set:
        return b, a, gate.gtype == GateType.XNOR
    return None


def _find_restore_units(circuit: Circuit) -> List[Dict[str, object]]:
    """Locate restore-unit comparators: AND/NOR gates over key-signal pairs."""
    key_set = set(circuit.key_inputs)
    units = []
    for out, gate in circuit.gates.items():
        if gate.gtype not in (GateType.AND, GateType.NOR) or len(gate.inputs) < 2:
            continue
        pairs = []
        for fanin in gate.inputs:
            pair = _is_key_signal_pair(circuit, fanin, key_set)
            if pair is None:
                break
            pairs.append(pair)
        else:
            keys = [p[0] for p in pairs]
            if len(set(keys)) != len(keys):
                continue
            units.append({"net": out, "pairs": pairs})
    return units


def _find_pattern_comparators(
    circuit: Circuit, signals: Sequence[str]
) -> List[Dict[str, object]]:
    """Locate hard-wired comparators (AND of literals) over ``signals``."""
    signal_set = set(signals)
    comparators = []
    for out, gate in circuit.gates.items():
        if gate.gtype != GateType.AND or len(gate.inputs) < 2:
            continue
        literal_map: Dict[str, int] = {}
        for fanin in gate.inputs:
            if fanin in signal_set:
                literal_map[fanin] = 1
                continue
            fanin_gate = circuit.gates.get(fanin)
            if (
                fanin_gate is not None
                and fanin_gate.gtype == GateType.NOT
                and fanin_gate.inputs[0] in signal_set
            ):
                literal_map[fanin_gate.inputs[0]] = 0
                continue
            break
        else:
            if literal_map and set(literal_map) <= signal_set:
                comparators.append({"net": out, "pattern": literal_map})
    return comparators


class _PackedPrefilter:
    """Cheap sound refutation before the SAT confirmation call.

    Confirmation requires ``restore_net == strip_net`` for *every* input
    under the candidate key; one packed pass over random vectors refutes a
    wrong candidate with a concrete witness and skips its SAT call.  A
    ``False`` return from :meth:`refutes` proves nothing (confirmation stays
    with the SAT check).

    The random stimulus words are drawn once per view; each candidate only
    overlays its key nets as constant all-0/all-1 words.
    """

    def __init__(self, view: Circuit, *, num_vectors: int = 64, seed: int = 0) -> None:
        self._sim = PackedSimulator(view)
        self._width = num_vectors
        self._mask = (1 << num_vectors) - 1
        rng = random.Random(seed)
        self._base_words = {net: rng.getrandbits(num_vectors) for net in view.inputs}

    def refutes(self, restore_net: str, strip_net: str, candidate: Dict[str, int]) -> bool:
        words = dict(self._base_words)
        for net, value in candidate.items():
            words[net] = self._mask if value & 1 else 0
        out = self._sim.eval_words(words, width=self._width)
        return out[restore_net] != out[strip_net]


def _confirm_candidate(
    locked_view: Circuit,
    restore_net: str,
    strip_net: str,
    candidate: Dict[str, int],
    telemetry: SolverTelemetry,
    *,
    conflict_limit: Optional[int],
) -> bool:
    """Oracle-less SAT confirmation: under ``candidate`` the restore comparator
    and the stripping comparator must agree for every input (the corruption
    XOR can never fire).  The session's solver block is merged into
    ``telemetry``."""
    session = SolveSession(conflict_limit=conflict_limit)
    session.encoder.encode(locked_view)
    diff_net = session.encoder.encode_inequality([restore_net], [strip_net])
    assumptions = [session.literal(diff_net, True)]
    for net, value in candidate.items():
        assumptions.append(session.literal(net, bool(value)))
    status = session.solve(assumptions=assumptions, phase="confirm")
    telemetry.merge(session.telemetry)
    return status is False


def fall_attack(
    locked: Union[LockedCircuit, Circuit],
    *,
    conflict_limit: Optional[int] = 100_000,
    oracle_circuit: Optional[Circuit] = None,
    verify_with_oracle: bool = False,
) -> FallReport:
    """Run the FALL attack and return a :class:`FallReport`.

    ``verify_with_oracle`` additionally checks confirmed keys against the
    original circuit (not part of the published oracle-less attack; useful in
    tests).  A circuit with no key inputs, or an oracle that shares no
    output with it when ``verify_with_oracle`` is set, ends the run at
    set-up with ``report.details["reason"]``.  The confirmation sessions'
    aggregated solver telemetry lands in ``report.details["solver"]``.
    """
    if isinstance(locked, LockedCircuit):
        circuit = locked.circuit
        oracle_circuit = oracle_circuit or locked.original
    else:
        circuit = locked
    start = time.monotonic()
    view = circuit.combinational_view() if circuit.dffs else circuit

    report = FallReport(circuit_name=circuit.name)
    telemetry = SolverTelemetry(backend=DEFAULT_BACKEND)
    report.details["solver"] = telemetry.to_dict()
    key_set = set(view.key_inputs)
    reason = "" if key_set else "no key inputs"
    if not reason and verify_with_oracle and oracle_circuit is not None:
        # The key check compares the scan views' shared outputs; with none it
        # could not judge a key.
        oracle_view = (
            oracle_circuit.combinational_view() if oracle_circuit.dffs else oracle_circuit
        )
        if not set(oracle_view.outputs) & set(view.outputs):
            reason = "locked circuit and oracle share no outputs"
    if reason:
        report.cpu_time = time.monotonic() - start
        report.details["reason"] = reason
        return report

    restore_units = _find_restore_units(view)
    report.details["restore_units"] = [u["net"] for u in restore_units]

    prefilter: Optional[_PackedPrefilter] = None
    prefiltered = 0
    for unit in restore_units:
        pairs = unit["pairs"]
        signals = [signal for _, signal, _ in pairs]
        comparators = _find_pattern_comparators(view, signals)
        for comparator in comparators:
            pattern: Dict[str, int] = comparator["pattern"]
            if set(pattern) != set(signals):
                continue
            candidate: Dict[str, int] = {}
            for key_net, signal, positive in pairs:
                bit = pattern[signal]
                candidate[key_net] = bit if positive else 1 - bit
            # Key bits not covered by the restore unit default to 0.
            for key_net in view.key_inputs:
                candidate.setdefault(key_net, 0)
            if candidate in report.candidates:
                continue
            report.candidates.append(candidate)
            if prefilter is None:
                prefilter = _PackedPrefilter(view)
            if prefilter.refutes(unit["net"], comparator["net"], candidate):
                prefiltered += 1
                continue
            confirmed = _confirm_candidate(
                view, unit["net"], comparator["net"], candidate, telemetry,
                conflict_limit=conflict_limit,
            )
            if confirmed and verify_with_oracle and oracle_circuit is not None:
                verdict = random_equivalence_check(
                    oracle_circuit, circuit, key_assignment=candidate, num_vectors=128
                )
                confirmed = verdict.equivalent
            if confirmed:
                report.confirmed_keys.append(candidate)

    report.details["prefiltered_candidates"] = prefiltered
    report.details["solver"] = telemetry.to_dict()
    report.cpu_time = time.monotonic() - start
    return report
