"""Time-frame unrolling of sequential circuits into CNF.

The sequential oracle-guided attacks (BMC/"BBO", INT, KC2, RANE) all reason
about a locked circuit's behaviour over a bounded number of clock cycles.
:func:`encode_unrolled` places ``num_frames`` copies of a circuit's
combinational logic into a shared :class:`~repro.sat.tseitin.TseitinEncoder`,
wiring each frame's captured next state to the following frame's present
state, binding frame 0 to the reset state, and — crucially for the attacks'
threat model — tying every frame's key inputs to a single set of *static* key
variables.

Known values are *bound* before a frame is encoded
(:meth:`~repro.sat.tseitin.TseitinEncoder.add_value` on a net with no
literal yet): frame 0's present state takes the reset values, and an
unrolling built to replay one input sequence (an attack's observation copy)
takes the sequence's values.  The encoder then folds every gate they decide,
so such a copy shrinks to the logic the key still controls.

Unrollings are *extensible*: :func:`extend_unrolled` appends frames to an
existing :class:`UnrolledCircuit` in place, reusing the same encoder (and
therefore the same CNF variables for every already-encoded frame).  The
sequential attacks use this as an unroll cache when the search depth doubles,
instead of re-encoding the whole unrolling — and, with an incremental solver,
every learned clause from the shallower depth stays valid.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Sequence

from repro.netlist.circuit import Circuit
from repro.sat.tseitin import TseitinEncoder


@dataclass
class UnrolledCircuit:
    """Net-name bookkeeping for one unrolled copy of a circuit.

    All names refer to entries of the shared encoder's literal map.
    ``frame_inputs[t]`` maps the original input net to its frame-``t`` name,
    and similarly for outputs and state.  ``next_state_names`` maps each
    flip-flop Q to the net holding its captured next state after the last
    encoded frame — the seam :func:`extend_unrolled` stitches new frames to.
    """

    prefix: str
    num_frames: int
    shared_input_prefix: Optional[str] = None
    key_nets: Dict[str, str] = field(default_factory=dict)
    frame_inputs: List[Dict[str, str]] = field(default_factory=list)
    frame_outputs: List[Dict[str, str]] = field(default_factory=list)
    frame_states: List[Dict[str, str]] = field(default_factory=list)
    next_state_names: Dict[str, str] = field(default_factory=dict)


def _encode_frame(
    encoder: TseitinEncoder,
    circuit: Circuit,
    result: UnrolledCircuit,
    frame: int,
    *,
    fix_initial_state: bool,
    input_values: Optional[Mapping[str, int]] = None,
) -> None:
    """Encode one time frame and append its name maps to ``result``.

    ``input_values`` (functional input -> 0/1) binds the frame's functional
    inputs before the frame is encoded.
    """
    key_set = set(circuit.key_inputs)
    frame_tag = f"{result.prefix}t{frame}@"
    shared: Dict[str, str] = {}
    inputs_map: Dict[str, str] = {}
    for net in circuit.inputs:
        if net in key_set:
            shared[net] = result.key_nets[net]
            inputs_map[net] = result.key_nets[net]
        elif result.shared_input_prefix is not None:
            shared_name = f"{result.shared_input_prefix}{frame}@{net}"
            shared[net] = shared_name
            inputs_map[net] = shared_name
        else:
            inputs_map[net] = f"{frame_tag}{net}"
    # Present state of this frame is the captured next state of the
    # previous frame (shared variable), or a frame-0 net bound to the reset
    # value (a fresh variable when the initial state is left free).
    states_map: Dict[str, str] = {}
    for q, ff in circuit.dffs.items():
        if frame == 0:
            states_map[q] = f"{frame_tag}{q}"
            if fix_initial_state:
                encoder.add_value(states_map[q], ff.init)
        else:
            states_map[q] = result.next_state_names[q]
            shared[q] = result.next_state_names[q]
    if input_values is not None:
        for net in circuit.inputs:
            if net not in key_set:
                encoder.add_value(inputs_map[net], input_values[net])

    encoder.encode(circuit, prefix=frame_tag, shared_nets=shared)

    outputs_map = {net: shared.get(net, f"{frame_tag}{net}") for net in circuit.outputs}
    result.frame_inputs.append(inputs_map)
    result.frame_outputs.append(outputs_map)
    result.frame_states.append(states_map)
    result.next_state_names = {
        q: shared.get(ff.d, f"{frame_tag}{ff.d}") for q, ff in circuit.dffs.items()
    }


def encode_unrolled(
    encoder: TseitinEncoder,
    circuit: Circuit,
    num_frames: int,
    *,
    prefix: str,
    shared_input_prefix: Optional[str] = None,
    key_prefix: Optional[str] = None,
    fix_initial_state: bool = True,
    input_values: Optional[Sequence[Mapping[str, int]]] = None,
) -> UnrolledCircuit:
    """Encode ``num_frames`` time frames of ``circuit``.

    Parameters
    ----------
    prefix:
        Distinguishes this unrolled copy from others in the same CNF.
    shared_input_prefix:
        If given, functional (non-key) primary inputs of frame ``t`` are
        named ``f"{shared_input_prefix}{t}@{net}"`` *without* the copy
        prefix, so two copies (the two key guesses of a miter) see the same
        input sequence.
    key_prefix:
        If given, key inputs of every frame share the single net
        ``f"{key_prefix}{net}"`` (the static-key assumption).  Otherwise keys
        are per-copy but still shared across frames.
    fix_initial_state:
        Bind frame 0's present state to each flip-flop's reset value before
        the frame is encoded, so the encoder folds the logic it decides.
    input_values:
        If given, one vector per frame (functional input -> 0/1) bound to
        that frame's functional inputs before the frame is encoded: the
        unrolling replays that input sequence, and folds to the logic the
        key inputs still control.
    """
    key_prefix = key_prefix if key_prefix is not None else f"{prefix}KEY@"
    result = UnrolledCircuit(
        prefix=prefix, num_frames=num_frames, shared_input_prefix=shared_input_prefix
    )
    result.key_nets = {net: f"{key_prefix}{net}" for net in circuit.key_inputs}

    for frame in range(num_frames):
        _encode_frame(
            encoder, circuit, result, frame, fix_initial_state=fix_initial_state,
            input_values=None if input_values is None else input_values[frame],
        )
    return result


def extend_unrolled(
    encoder: TseitinEncoder,
    circuit: Circuit,
    unrolled: UnrolledCircuit,
    num_frames: int,
) -> UnrolledCircuit:
    """Grow an existing unrolling to ``num_frames`` frames in place.

    Frames ``unrolled.num_frames .. num_frames-1`` are appended to the same
    encoder, chained onto the recorded ``next_state_names`` seam; the frames
    already encoded (and every CNF variable referring to them) are untouched,
    so the extension produces exactly the nets a fresh
    :func:`encode_unrolled` at ``num_frames`` would.  ``encoder`` and
    ``circuit`` must be the ones the unrolling was first encoded with.
    """
    if num_frames < unrolled.num_frames:
        raise ValueError(
            f"cannot shrink an unrolling ({unrolled.num_frames} -> {num_frames} frames)"
        )
    for frame in range(unrolled.num_frames, num_frames):
        _encode_frame(encoder, circuit, unrolled, frame, fix_initial_state=False)
    unrolled.num_frames = num_frames
    return unrolled
