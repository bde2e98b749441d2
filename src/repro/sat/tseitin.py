"""Tseitin encoding of circuits into CNF.

Every net of a (combinational view of a) circuit gets a SAT variable; each
gate contributes the standard Tseitin clauses relating its output variable to
its input variables.  The encoder also supports *instantiating* the same
circuit multiple times under different net-name prefixes, which is how the
attacks build miters and time-frame unrollings without copying circuits.

CNF identity
------------
The CNF is part of the solver's search contract: the default ``cdcl``
solver's decisions follow the variable numbering and the clause and literal
order, so the attack outcomes and the benchmark's work digest are computed
from them (pinned by ``tests/property/test_tseitin_golden.py``).

* Variables: :meth:`TseitinEncoder.encode` allocates them per gate in
  topological order — the output first, then the inputs in order, then the
  gate's XOR-chain auxiliaries — and afterwards "touches" the primary
  inputs, the primary outputs and each flip-flop's Q and D, in that order,
  so every IO net has a variable even when no gate reads it.
* Clauses: gate by gate in the same order, each gate's clauses and the
  literals inside them in the order of its pattern below.  A repeated gate
  input stays a duplicate literal (or a tautology) in the CNF.

Encoder clauses are appended to ``cnf.clauses`` as tuples, without
:meth:`CNF.add_clause`'s checks: every literal comes from a variable the
encoder allocated on ``cnf.num_vars``, so it is a non-zero ``int`` no larger
than ``num_vars``.  Clauses built anywhere else (blocking clauses, DIMACS
input) go through ``CNF.add_clause``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

from repro.netlist.circuit import Circuit, CircuitError
from repro.netlist.gates import GateType
from repro.sat.cnf import CNF


class _NetVars(dict):
    """Local net -> variable for one :meth:`TseitinEncoder.encode` call.

    A missing net is resolved once: its ``shared_nets`` name as given, else
    prefix + net, looked up in the encoder's variable map or allocated.
    """

    def __init__(self, encoder: "TseitinEncoder", prefix: str,
                 shared: Mapping[str, str]) -> None:
        super().__init__()
        self.varmap = encoder.varmap
        self.cnf = encoder.cnf
        self.prefix = prefix
        self.shared = shared

    def __missing__(self, net: str) -> int:
        name = self.shared.get(net)
        if name is None:
            name = self.prefix + net
        variable = self.varmap.get(name)
        if variable is None:
            variable = self.cnf.new_var()
            self.varmap[name] = variable
        self[net] = variable
        return variable


class TseitinEncoder:
    """Maps circuit nets to SAT variables and emits gate clauses.

    A single encoder instance can encode several circuits / circuit copies
    into the same variable space, sharing variables whenever net names are
    shared (e.g. key inputs common to all time frames of an unrolling).
    """

    def __init__(self, cnf: Optional[CNF] = None) -> None:
        self.cnf = cnf if cnf is not None else CNF()
        self.varmap: Dict[str, int] = {}

    # ------------------------------------------------------------------ #
    # variables and literals
    # ------------------------------------------------------------------ #
    def var(self, net: str) -> int:
        """Variable for ``net``, allocating it on first use."""
        existing = self.varmap.get(net)
        if existing is not None:
            return existing
        variable = self.cnf.new_var()
        self.varmap[net] = variable
        return variable

    def literal(self, net: str, value: bool) -> int:
        """Literal asserting that ``net`` equals ``value``."""
        variable = self.var(net)
        return variable if value else -variable

    def has(self, net: str) -> bool:
        """True if ``net`` already has a variable."""
        return net in self.varmap

    # ------------------------------------------------------------------ #
    # gate clauses (variables in, clause tuples appended to the CNF)
    # ------------------------------------------------------------------ #
    def _encode_and(self, out: int, ins: Sequence[int], *, negate: bool = False) -> None:
        out_lit = -out if negate else out
        append = self.cnf.clauses.append
        for lit in ins:
            append((-out_lit, lit))
        append((out_lit, *[-lit for lit in ins]))

    def _encode_or(self, out: int, ins: Sequence[int], *, negate: bool = False) -> None:
        out_lit = -out if negate else out
        append = self.cnf.clauses.append
        for lit in ins:
            append((out_lit, -lit))
        append((-out_lit, *ins))

    def _encode_xor2(self, out: int, a: int, b: int, *, negate: bool = False) -> None:
        out_lit = -out if negate else out
        clauses = self.cnf.clauses
        clauses.append((-out_lit, a, b))
        clauses.append((-out_lit, -a, -b))
        clauses.append((out_lit, -a, b))
        clauses.append((out_lit, a, -b))

    def _encode_xor(self, out: int, ins: Sequence[int], *, negate: bool = False) -> None:
        if len(ins) == 2:
            self._encode_xor2(out, ins[0], ins[1], negate=negate)
            return
        # Chain: t1 = a xor b ; t2 = t1 xor c ; ...
        prev = ins[0]
        for index, lit in enumerate(ins[1:], start=1):
            last = index == len(ins) - 1
            target = out if last else self.cnf.new_var()
            self._encode_xor2(target, prev, lit, negate=negate and last)
            prev = target

    def _encode_gate(self, gtype: GateType, out: int, ins: List[int]) -> None:
        """Append the clauses of one gate over already-allocated variables."""
        clauses = self.cnf.clauses
        if gtype == GateType.BUF:
            clauses.append((-out, ins[0]))
            clauses.append((out, -ins[0]))
        elif gtype == GateType.NOT:
            clauses.append((-out, -ins[0]))
            clauses.append((out, ins[0]))
        elif gtype == GateType.AND:
            self._encode_and(out, ins)
        elif gtype == GateType.NAND:
            self._encode_and(out, ins, negate=True)
        elif gtype == GateType.OR:
            self._encode_or(out, ins)
        elif gtype == GateType.NOR:
            self._encode_or(out, ins, negate=True)
        elif gtype == GateType.XOR:
            self._encode_xor(out, ins)
        elif gtype == GateType.XNOR:
            self._encode_xor(out, ins, negate=True)
        elif gtype == GateType.MUX:
            sel, d0, d1 = ins
            # out = sel ? d1 : d0
            clauses.append((-out, sel, d0))
            clauses.append((-out, -sel, d1))
            clauses.append((out, sel, -d0))
            clauses.append((out, -sel, -d1))
        elif gtype == GateType.CONST0:
            clauses.append((-out,))
        elif gtype == GateType.CONST1:
            clauses.append((out,))
        else:  # pragma: no cover - exhaustive above
            raise CircuitError(f"cannot encode gate type {gtype}")

    # ------------------------------------------------------------------ #
    # circuit-level encoding
    # ------------------------------------------------------------------ #
    def encode(self, circuit: Circuit, *, prefix: str = "",
               shared_nets: Optional[Mapping[str, str]] = None) -> CNF:
        """Encode the combinational gates of ``circuit``.

        Parameters
        ----------
        prefix:
            Prepended to every net name not in ``shared_nets``; use distinct
            prefixes to place independent copies of the same circuit in one
            CNF.
        shared_nets:
            Optional mapping ``local net -> global net``.  A mapped net takes
            its global name as given, *without* the prefix; nets mapped to
            the same global name share a variable (used to tie key inputs
            across copies / time frames).

        Flip-flops are **not** encoded; callers decide how to connect the
        sequential boundary (pseudo-inputs for the combinational attack,
        frame-to-frame wiring for the unrolling attacks).  Variables and
        clauses come in the order the module docstring ("CNF identity")
        fixes.
        """
        nets = _NetVars(self, prefix, shared_nets or {})
        variable = nets.__getitem__
        gates = circuit.gates
        encode_gate = self._encode_gate
        for out in circuit.topological_order():
            gate = gates[out]
            encode_gate(gate.gtype, variable(gate.output), list(map(variable, gate.inputs)))
        # Touch IO nets so they always have variables even if undriven/unused.
        for net in circuit.inputs:
            variable(net)
        for net in circuit.outputs:
            variable(net)
        for q, ff in circuit.dffs.items():
            variable(q)
            variable(ff.d)
        return self.cnf

    # ------------------------------------------------------------------ #
    # constraint helpers used by the attacks
    # ------------------------------------------------------------------ #
    def add_equality(self, net_a: str, net_b: str) -> None:
        """Constrain two nets to be equal."""
        a, b = self.var(net_a), self.var(net_b)
        self.cnf.clauses.append((-a, b))
        self.cnf.clauses.append((a, -b))

    def add_value(self, net: str, value: int) -> None:
        """Constrain a net to a constant value."""
        self.cnf.clauses.append((self.literal(net, bool(value)),))

    def add_assignment(self, values: Mapping[str, int], *, prefix: str = "") -> None:
        """Constrain many nets to constant values."""
        for net, value in values.items():
            self.add_value(prefix + net, value)

    def encode_any(self, nets: Sequence[str]) -> str:
        """Add logic asserting a fresh net true iff any of ``nets`` is true.

        Used to extend comparison networks incrementally: OR a new frame
        range's difference net with the previous one instead of re-encoding
        the whole comparator.
        """
        if not nets:
            raise ValueError("encode_any needs at least one net")
        any_name = f"__any_{len(self.varmap)}"
        any_var = self.var(any_name)
        self._encode_or(any_var, [self.var(net) for net in nets])
        return any_name

    def encode_inequality(self, nets_a: Sequence[str], nets_b: Sequence[str]) -> str:
        """Add logic asserting that two equal-length net vectors differ.

        Returns the name of a fresh net that is true iff the vectors differ
        in at least one position (the caller typically assumes it true).
        """
        if len(nets_a) != len(nets_b):
            raise ValueError("vectors must have equal length")
        diff_vars: List[int] = []
        for a_net, b_net in zip(nets_a, nets_b):
            diff = self.cnf.new_var()
            self._encode_xor2(diff, self.var(a_net), self.var(b_net))
            diff_vars.append(diff)
        any_name = f"__diff_{len(self.varmap)}"
        any_var = self.var(any_name)
        self._encode_or(any_var, diff_vars)
        return any_name
