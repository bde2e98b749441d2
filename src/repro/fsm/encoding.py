"""State encodings used when synthesising an STG into a netlist."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.fsm.stg import FSM, FSMError


@dataclass(frozen=True)
class StateEncoding:
    """Assignment of binary codes to FSM states.

    Attributes
    ----------
    width:
        Number of state bits.
    codes:
        Mapping from state name to its integer code.
    """

    width: int
    codes: Dict[str, int] = field(default_factory=dict)

    def code_of(self, state: str) -> int:
        try:
            return self.codes[state]
        except KeyError as exc:
            raise FSMError(f"state {state!r} has no code") from exc

    def unused_codes(self) -> List[int]:
        used = set(self.codes.values())
        return [c for c in range(1 << self.width) if c not in used]


def binary_encoding(fsm: FSM) -> StateEncoding:
    """Dense binary encoding in state-declaration order (reset state = 0)."""
    ordered = [fsm.reset_state] + [s for s in fsm.states if s != fsm.reset_state]
    width = max(1, (len(ordered) - 1).bit_length())
    return StateEncoding(width=width, codes={s: i for i, s in enumerate(ordered)})


def gray_encoding(fsm: FSM) -> StateEncoding:
    """Gray-code encoding (adjacent declaration order differs in one bit)."""
    ordered = [fsm.reset_state] + [s for s in fsm.states if s != fsm.reset_state]
    width = max(1, (len(ordered) - 1).bit_length())
    return StateEncoding(
        width=width, codes={s: (i ^ (i >> 1)) for i, s in enumerate(ordered)}
    )


def one_hot_encoding(fsm: FSM) -> StateEncoding:
    """One-hot encoding (one flip-flop per state)."""
    ordered = [fsm.reset_state] + [s for s in fsm.states if s != fsm.reset_state]
    width = len(ordered)
    return StateEncoding(width=width, codes={s: 1 << i for i, s in enumerate(ordered)})
