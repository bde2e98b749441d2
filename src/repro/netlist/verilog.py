"""Structural Verilog writer.

The overhead-analysis flow in the paper converts ``.bench`` files to Verilog
(via ABC) before synthesising them with Cadence Genus.  Our stand-in flow
only needs to *emit* gate-level Verilog (for inspection and for parity with
the paper's artefacts); the overhead model itself works directly on the
:class:`~repro.netlist.circuit.Circuit`.
"""

from __future__ import annotations

import re
from pathlib import Path
from typing import List, Union

from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType

_IDENT_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_$]*$")


def _sanitize(net: str) -> str:
    """Make a net name a legal Verilog identifier (escape if needed)."""
    if _IDENT_RE.match(net):
        return net
    return "\\" + net + " "


_BINOP = {
    GateType.AND: "&",
    GateType.OR: "|",
    GateType.XOR: "^",
}


def _gate_expression(gtype: GateType, operands: List[str]) -> str:
    """Render a gate as a continuous-assignment RHS expression."""
    if gtype == GateType.BUF:
        return operands[0]
    if gtype == GateType.NOT:
        return f"~{operands[0]}"
    if gtype == GateType.CONST0:
        return "1'b0"
    if gtype == GateType.CONST1:
        return "1'b1"
    if gtype == GateType.MUX:
        sel, d0, d1 = operands
        return f"{sel} ? {d1} : {d0}"
    if gtype in _BINOP:
        return f" {_BINOP[gtype]} ".join(operands)
    if gtype == GateType.NAND:
        return "~(" + " & ".join(operands) + ")"
    if gtype == GateType.NOR:
        return "~(" + " | ".join(operands) + ")"
    if gtype == GateType.XNOR:
        return "~(" + " ^ ".join(operands) + ")"
    raise ValueError(f"unsupported gate type {gtype}")


def write_verilog(circuit: Circuit, *, module_name: str | None = None) -> str:
    """Serialise ``circuit`` as a synthesizable structural Verilog module.

    Flip-flops become a single always-block sensitive to ``clk`` with an
    asynchronous active-high ``rst`` applying each DFF's init value, matching
    how the paper's benchmarks are prepared for Genus.
    """
    module = module_name or re.sub(r"[^A-Za-z0-9_]", "_", circuit.name)
    has_seq = bool(circuit.dffs)

    ports: List[str] = []
    if has_seq:
        ports.extend(["clk", "rst"])
    ports.extend(_sanitize(n) for n in circuit.inputs)
    ports.extend(_sanitize(n) for n in circuit.outputs)

    lines: List[str] = []
    lines.append(f"// Generated from circuit {circuit.name!r}")
    lines.append(f"module {module} (")
    lines.append("    " + ",\n    ".join(ports))
    lines.append(");")
    if has_seq:
        lines.append("  input clk;")
        lines.append("  input rst;")
    for net in circuit.inputs:
        lines.append(f"  input {_sanitize(net)};")
    for net in circuit.outputs:
        lines.append(f"  output {_sanitize(net)};")

    internal = set(circuit.gates) | set(circuit.dffs)
    internal -= set(circuit.inputs)
    wires = sorted(n for n in internal if n not in circuit.outputs)
    for net in wires:
        keyword = "reg" if net in circuit.dffs else "wire"
        lines.append(f"  {keyword} {_sanitize(net)};")
    for net in circuit.outputs:
        if net in circuit.dffs:
            lines.append(f"  reg {_sanitize(net)}_r; // registered output")

    for out in circuit.topological_order():
        gate = circuit.gates[out]
        rhs = _gate_expression(gate.gtype, [_sanitize(i) for i in gate.inputs])
        lines.append(f"  assign {_sanitize(out)} = {rhs};")

    if has_seq:
        lines.append("  always @(posedge clk or posedge rst) begin")
        lines.append("    if (rst) begin")
        for q, ff in circuit.dffs.items():
            lines.append(f"      {_sanitize(q)} <= 1'b{ff.init};")
        lines.append("    end else begin")
        for q, ff in circuit.dffs.items():
            lines.append(f"      {_sanitize(q)} <= {_sanitize(ff.d)};")
        lines.append("    end")
        lines.append("  end")

    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def save_verilog(circuit: Circuit, path: Union[str, Path], *, module_name: str | None = None) -> Path:
    """Write ``circuit`` to ``path`` as Verilog; returns the path."""
    path = Path(path)
    path.write_text(write_verilog(circuit, module_name=module_name))
    return path
