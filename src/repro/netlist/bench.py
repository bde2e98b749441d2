"""ISCAS-style ``.bench`` reader and writer.

The ``.bench`` format is the lingua franca of the logic-locking literature —
the paper locks/attacks circuits exclusively in this format (converted via
Yosys/ABC).  The dialect supported here covers everything the reproduction
needs::

    # comment
    INPUT(G0)
    OUTPUT(G17)
    G7 = DFF(G13)
    G8 = AND(G14, G6)
    G14 = NOT(G0)
    G17 = BUF(G11)

Key inputs are conventionally named ``keyinput<N>`` (as the locking tools in
the literature do); :func:`parse_bench` recognises that prefix and records
them in :attr:`Circuit.key_inputs`.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import List, Optional, Union

from repro.netlist.circuit import Circuit, CircuitError
from repro.netlist.gates import GateType

#: Prefix used for key-input nets in locked ``.bench`` files.
KEY_INPUT_PREFIX = "keyinput"

_LINE_RE = re.compile(
    r"^\s*(?P<out>[^\s=]+)\s*=\s*(?P<op>[A-Za-z01]+)\s*\(\s*(?P<args>[^)]*)\)\s*$"
)
_IO_RE = re.compile(r"^\s*(?P<kind>INPUT|OUTPUT)\s*\(\s*(?P<net>[^)\s]+)\s*\)\s*$", re.I)

_OP_ALIASES = {
    "BUF": GateType.BUF,
    "BUFF": GateType.BUF,
    "NOT": GateType.NOT,
    "INV": GateType.NOT,
    "AND": GateType.AND,
    "NAND": GateType.NAND,
    "OR": GateType.OR,
    "NOR": GateType.NOR,
    "XOR": GateType.XOR,
    "XNOR": GateType.XNOR,
    "MUX": GateType.MUX,
    "CONST0": GateType.CONST0,
    "CONST1": GateType.CONST1,
    "GND": GateType.CONST0,
    "VDD": GateType.CONST1,
}


class BenchParseError(CircuitError):
    """Raised when a ``.bench`` file cannot be parsed."""


def parse_bench(text: str, *, name: str = "bench") -> Circuit:
    """Parse the contents of a ``.bench`` file into a :class:`Circuit`.

    Parameters
    ----------
    text:
        The full ``.bench`` source.
    name:
        Name to assign to the resulting circuit.
    """
    circuit = Circuit(name=name)
    pending_outputs: List[str] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        io_match = _IO_RE.match(line)
        if io_match:
            kind = io_match.group("kind").upper()
            net = io_match.group("net")
            if kind == "INPUT":
                circuit.add_input(net, is_key=net.startswith(KEY_INPUT_PREFIX))
            else:
                pending_outputs.append(net)
            continue
        assign = _LINE_RE.match(line)
        if not assign:
            raise BenchParseError(f"line {lineno}: cannot parse {raw!r}")
        out = assign.group("out")
        op = assign.group("op").upper()
        args = [a.strip() for a in assign.group("args").split(",") if a.strip()]
        if op == "DFF":
            if len(args) != 1:
                raise BenchParseError(f"line {lineno}: DFF takes one input, got {args}")
            circuit.add_dff(out, args[0])
            continue
        gtype = _OP_ALIASES.get(op)
        if gtype is None:
            raise BenchParseError(f"line {lineno}: unknown gate type {op!r}")
        circuit.add_gate(out, gtype, args)

    # Declare outputs only after all drivers are known, keeping declaration order.
    for net in pending_outputs:
        circuit.add_output(net)
    return circuit


def write_bench(circuit: Circuit, *, header: Optional[str] = None) -> str:
    """Serialise a :class:`Circuit` to ``.bench`` text.

    Gates are emitted in topological order so the output is stable and easy
    to diff across locking runs.
    """
    lines: List[str] = []
    lines.append(f"# {circuit.name}")
    if header:
        for extra in header.splitlines():
            lines.append(f"# {extra}")
    lines.append(
        f"# {len(circuit.inputs)} inputs ({len(circuit.key_inputs)} key), "
        f"{len(circuit.outputs)} outputs, {len(circuit.dffs)} DFFs, "
        f"{len(circuit.gates)} gates"
    )
    for net in circuit.inputs:
        lines.append(f"INPUT({net})")
    for net in circuit.outputs:
        lines.append(f"OUTPUT({net})")
    for q, ff in circuit.dffs.items():
        lines.append(f"{q} = DFF({ff.d})")
    for out in circuit.topological_order():
        gate = circuit.gates[out]
        if gate.gtype in (GateType.CONST0, GateType.CONST1):
            lines.append(f"{out} = {gate.gtype.value}()")
        else:
            lines.append(f"{out} = {gate.gtype.value}({', '.join(gate.inputs)})")
    return "\n".join(lines) + "\n"


def load_bench(path: Union[str, Path]) -> Circuit:
    """Read a ``.bench`` file from ``path``."""
    path = Path(path)
    return parse_bench(path.read_text(), name=path.stem)


def save_bench(circuit: Circuit, path: Union[str, Path], *, header: Optional[str] = None) -> Path:
    """Write ``circuit`` to ``path`` in ``.bench`` format; returns the path."""
    path = Path(path)
    path.write_text(write_bench(circuit, header=header))
    return path
