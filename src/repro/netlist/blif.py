"""Minimal BLIF reader/writer.

The paper's behavioural flow converts Verilog → BLIF (Yosys) → BENCH (ABC).
This module provides enough of BLIF to mirror that flow inside the
reproduction: ``.names`` single-output cover tables (restricted to the covers
our synthesis emits), ``.latch`` elements, and the model/input/output
declarations.  Arbitrary third-party BLIF with multi-cube don't-care covers is
supported for reading as long as each cover is a plain SOP.
"""

from __future__ import annotations

from pathlib import Path
from typing import List, Sequence, Tuple, Union

from repro.netlist.circuit import Circuit, CircuitError
from repro.netlist.gates import GateType


class BlifParseError(CircuitError):
    """Raised when a BLIF file cannot be parsed."""


def _cover_to_gates(circuit: Circuit, output: str, inputs: Sequence[str],
                    cubes: List[Tuple[str, str]]) -> None:
    """Convert a single-output SOP cover into AND/OR/NOT gates.

    ``cubes`` is a list of ``(input_pattern, output_value)`` pairs as they
    appear in a ``.names`` block.  Only on-set covers (output value ``1``)
    are supported, which matches what our own writer and synthesis produce.
    """
    if not inputs:
        # Constant: a lone "1" line means const-1, empty cover means const-0.
        if cubes and cubes[0][1] == "1":
            circuit.add_gate(output, GateType.CONST1, [])
        else:
            circuit.add_gate(output, GateType.CONST0, [])
        return

    if any(val != "1" for _, val in cubes):
        raise BlifParseError(f".names {output}: only on-set covers are supported")

    term_nets: List[str] = []
    for pattern, _ in cubes:
        if len(pattern) != len(inputs):
            raise BlifParseError(
                f".names {output}: cube {pattern!r} does not match {len(inputs)} inputs"
            )
        literals: List[str] = []
        for bit, net in zip(pattern, inputs):
            if bit == "-":
                continue
            if bit == "1":
                literals.append(net)
            elif bit == "0":
                inv = circuit.fresh_net(f"{output}_inv")
                circuit.add_gate(inv, GateType.NOT, [net])
                literals.append(inv)
            else:
                raise BlifParseError(f".names {output}: bad cube character {bit!r}")
        if not literals:
            # A cube of all don't-cares means the function is constant 1.
            term = circuit.fresh_net(f"{output}_one")
            circuit.add_gate(term, GateType.CONST1, [])
            literals = [term]
        if len(literals) == 1:
            term_nets.append(literals[0])
        else:
            term = circuit.fresh_net(f"{output}_and")
            circuit.add_gate(term, GateType.AND, literals)
            term_nets.append(term)

    if not term_nets:
        circuit.add_gate(output, GateType.CONST0, [])
    elif len(term_nets) == 1:
        circuit.add_gate(output, GateType.BUF, [term_nets[0]])
    else:
        circuit.add_gate(output, GateType.OR, term_nets)


def parse_blif(text: str, *, name: str = "blif") -> Circuit:
    """Parse BLIF ``text`` into a :class:`Circuit`."""
    # Join continuation lines first.
    logical_lines: List[str] = []
    buffer = ""
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].rstrip()
        if not line.strip():
            continue
        if line.endswith("\\"):
            buffer += line[:-1] + " "
            continue
        logical_lines.append(buffer + line)
        buffer = ""
    if buffer:
        logical_lines.append(buffer)

    circuit = Circuit(name=name)
    pending_outputs: List[str] = []
    i = 0
    while i < len(logical_lines):
        line = logical_lines[i]
        tokens = line.split()
        directive = tokens[0]
        if directive == ".model":
            circuit.name = tokens[1] if len(tokens) > 1 else name
            i += 1
        elif directive == ".inputs":
            for net in tokens[1:]:
                circuit.add_input(net, is_key=net.startswith("keyinput"))
            i += 1
        elif directive == ".outputs":
            pending_outputs.extend(tokens[1:])
            i += 1
        elif directive == ".latch":
            if len(tokens) < 3:
                raise BlifParseError(f"malformed .latch line: {line!r}")
            d, q = tokens[1], tokens[2]
            init = 0
            if tokens[-1] in ("0", "1", "2", "3"):
                init = 0 if tokens[-1] in ("0", "2", "3") else 1
            circuit.add_dff(q, d, init=init)
            i += 1
        elif directive == ".names":
            nets = tokens[1:]
            if not nets:
                raise BlifParseError(".names with no signals")
            output, inputs = nets[-1], nets[:-1]
            cubes: List[Tuple[str, str]] = []
            i += 1
            while i < len(logical_lines) and not logical_lines[i].startswith("."):
                parts = logical_lines[i].split()
                if inputs:
                    if len(parts) != 2:
                        raise BlifParseError(f"bad cube line: {logical_lines[i]!r}")
                    cubes.append((parts[0], parts[1]))
                else:
                    cubes.append(("", parts[0]))
                i += 1
            _cover_to_gates(circuit, output, inputs, cubes)
        elif directive == ".end":
            i += 1
        else:
            # Unknown directives (.clock, .area, ...) are skipped.
            i += 1

    for net in pending_outputs:
        circuit.add_output(net)
    return circuit


_GATE_TO_COVER = {
    GateType.BUF: lambda n: [("1", "1")],
    GateType.NOT: lambda n: [("0", "1")],
    GateType.AND: lambda n: [("1" * n, "1")],
    GateType.NAND: lambda n: [("0" + "-" * (n - 1 - i) if False else "-" * i + "0" + "-" * (n - 1 - i), "1") for i in range(n)],
    GateType.OR: lambda n: [("-" * i + "1" + "-" * (n - 1 - i), "1") for i in range(n)],
    GateType.NOR: lambda n: [("0" * n, "1")],
}


def _xor_cubes(n: int, parity: int) -> List[Tuple[str, str]]:
    """All minterms of n variables whose popcount has the given parity."""
    cubes = []
    for value in range(1 << n):
        bits = format(value, f"0{n}b")
        if bits.count("1") % 2 == parity:
            cubes.append((bits, "1"))
    return cubes


def write_blif(circuit: Circuit) -> str:
    """Serialise ``circuit`` to BLIF text."""
    lines: List[str] = [f".model {circuit.name}"]
    if circuit.inputs:
        lines.append(".inputs " + " ".join(circuit.inputs))
    if circuit.outputs:
        lines.append(".outputs " + " ".join(circuit.outputs))
    for q, ff in circuit.dffs.items():
        lines.append(f".latch {ff.d} {q} re clk {ff.init}")
    for out in circuit.topological_order():
        gate = circuit.gates[out]
        n = len(gate.inputs)
        if gate.gtype == GateType.CONST0:
            lines.append(f".names {out}")
        elif gate.gtype == GateType.CONST1:
            lines.append(f".names {out}")
            lines.append("1")
        elif gate.gtype == GateType.MUX:
            sel, d0, d1 = gate.inputs
            lines.append(f".names {sel} {d0} {d1} {out}")
            lines.append("01- 1")
            lines.append("1-1 1")
        elif gate.gtype in (GateType.XOR, GateType.XNOR):
            parity = 1 if gate.gtype == GateType.XOR else 0
            lines.append(f".names {' '.join(gate.inputs)} {out}")
            for pattern, val in _xor_cubes(n, parity):
                lines.append(f"{pattern} {val}")
        else:
            lines.append(f".names {' '.join(gate.inputs)} {out}")
            for pattern, val in _GATE_TO_COVER[gate.gtype](n):
                lines.append(f"{pattern} {val}")
    lines.append(".end")
    return "\n".join(lines) + "\n"


def load_blif(path: Union[str, Path]) -> Circuit:
    """Read a BLIF file from ``path``."""
    path = Path(path)
    return parse_blif(path.read_text(), name=path.stem)


def save_blif(circuit: Circuit, path: Union[str, Path]) -> Path:
    """Write ``circuit`` to ``path`` in BLIF format; returns the path."""
    path = Path(path)
    path.write_text(write_blif(circuit))
    return path
