"""Tseitin encoding of circuits into CNF, with structural hashing.

Every net of a (combinational view of a) circuit gets a SAT literal; each
gate contributes the standard Tseitin clauses relating its output literal to
its input literals.  The encoder also supports *instantiating* the same
circuit multiple times under different net-name prefixes, which is how the
attacks build miters and time-frame unrollings without copying circuits.

The encoder hashes gates as an AIG package does (Kuehlmann et al., IEEE
TCAD 2002): each gate is rewritten into a normal form, constants fold, and a
normal form the encoder has already encoded is not encoded again.  So a
second copy of a circuit over shared inputs costs nothing outside the logic
that really differs (the key cone of a two-key miter), an unrolling's frame
0 shrinks to what its reset state leaves open, and a copy whose inputs are
all known folds to constants.  :attr:`TseitinEncoder.varmap` therefore maps
a net to its *literal*, which may be a complemented one or the constant's;
read a net's value out of a solver model with :meth:`TseitinEncoder.value`,
never by indexing the model with the map.

Normal forms
------------
* AND, NAND, OR and NOR become one AND node over their fanin literals,
  with the complemented output De Morgan calls for: ``NAND = ¬AND``,
  ``OR(x…) = ¬AND(¬x…)``, ``NOR(x…) = AND(¬x…)``.  A true fanin drops out,
  a false one or a pair ``x, ¬x`` folds the AND to 0, repeated fanins
  collapse, no fanin left folds it to 1 and one left is that literal.  The
  node's key is the remaining literals sorted by variable.
* XOR and XNOR become an XOR node over variables plus a parity bit: a
  complemented fanin, the XNOR and a true constant fanin each flip the
  parity, and a variable that occurs twice cancels.  No variable left folds
  to the parity's constant and one left is that variable; otherwise the
  node's key is the sorted variables, and an odd parity complements it.
* A MUX gets a positive select (a complemented select swaps the data
  inputs).  A constant select folds to the chosen data input and two equal
  data inputs fold to that input.  A data input that is a constant or the
  select (either polarity) leaves the AND normal form of what remains, e.g.
  ``MUX(s, 0, d1) = AND(s, d1)`` and ``MUX(s, d0, s) = ¬AND(¬s, ¬d0)``;
  otherwise the key is ``(sel, d0, d1)``.
* BUF is its fanin's literal and NOT its complement; CONST0 and CONST1 are
  the constant's literals.

A gate whose normal form folds, or whose node the encoder's table already
holds, takes that literal for its output: no variable and no clause.

CNF identity
------------
The CNF is part of the solver's search contract: the default ``cdcl``
solver's decisions follow the variable numbering and the clause and literal
order, so the attack outcomes and the benchmark's work digest are computed
from them (pinned by ``tests/property/test_tseitin_golden.py``).

* Variables: :meth:`TseitinEncoder.encode` walks the gates in topological
  order.  For each gate it resolves the fanins in order (a net not yet
  seen gets a fresh variable), then allocates a node variable only for a
  new node, then a new XOR node's chain auxiliaries.  Afterwards it
  "touches" the primary inputs, the primary outputs and each flip-flop's Q
  and D, in that order, so every IO net has a literal even when no gate
  reads it.
* The constant: one variable per encoder, allocated the first time a
  constant is needed (a constant gate or fold, or a net bound by
  :meth:`TseitinEncoder.add_value` before it has a literal), and fixed true
  by a unit clause appended right then.
* Clauses: node by node in the same order.  An AND node ``n`` over
  ``l1…lk`` emits ``(¬n, li)`` for each ``i``, then ``(n, ¬l1, …, ¬lk)``;
  an XOR node the four clauses of each two-input XOR of its chain
  ``t1 = v1 ⊕ v2, t2 = t1 ⊕ v3, …``; a MUX node ``n = s ? d1 : d0`` emits
  ``(¬n, s, d0), (¬n, ¬s, d1), (n, s, ¬d0), (n, ¬s, ¬d1)``.  Only a gate
  output whose global name already has a literal ``e`` (a ``shared_nets``
  name encoded earlier) emits the two equivalence clauses ``(¬e, l), (e,
  ¬l)`` between it and the gate's literal ``l``, unless the two are the same.

Encoder clauses are appended to ``cnf.clauses`` as tuples, without
:meth:`CNF.add_clause`'s checks: every literal comes from a variable the
encoder allocated on ``cnf.num_vars``, so it is a non-zero ``int`` whose
variable is no larger than ``num_vars``.  Clauses built anywhere else
(blocking clauses, DIMACS input) go through ``CNF.add_clause``.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence, Set, Tuple

from repro.netlist.circuit import Circuit, CircuitError
from repro.netlist.gates import GateType
from repro.sat.cnf import CNF


class _NetLiterals(dict):
    """Local net -> literal for one :meth:`TseitinEncoder.encode` call.

    A missing net is resolved once: its global name (:meth:`name`) looked
    up in the encoder's literal map, or given a fresh variable.
    """

    def __init__(self, encoder: "TseitinEncoder", prefix: str,
                 shared: Mapping[str, str]) -> None:
        super().__init__()
        self.varmap = encoder.varmap
        self.cnf = encoder.cnf
        self.prefix = prefix
        self.shared = shared

    def name(self, net: str) -> str:
        """The global name of ``net``: its ``shared_nets`` name, else prefix + net."""
        name = self.shared.get(net)
        return self.prefix + net if name is None else name

    def __missing__(self, net: str) -> int:
        name = self.name(net)
        literal = self.varmap.get(name)
        if literal is None:
            literal = self.cnf.new_var()
            self.varmap[name] = literal
        self[net] = literal
        return literal


class TseitinEncoder:
    """Maps circuit nets to SAT literals and emits gate clauses.

    A single encoder instance can encode several circuits / circuit copies
    into the same variable space, sharing literals whenever net names are
    shared (e.g. key inputs common to all time frames of an unrolling) and
    whenever two gates have one normal form (see the module docstring).
    :attr:`varmap` maps each net name to its literal, which may be negative
    or the constant's.
    """

    def __init__(self, cnf: Optional[CNF] = None) -> None:
        self.cnf = cnf if cnf is not None else CNF()
        self.varmap: Dict[str, int] = {}
        #: Normal form -> literal of every node encoded so far.
        self._nodes: Dict[Tuple, int] = {}
        #: The constant variable (fixed true), 0 until first needed.
        self._true = 0

    # ------------------------------------------------------------------ #
    # literals and model reads
    # ------------------------------------------------------------------ #
    def var(self, net: str) -> int:
        """The literal of ``net``, allocating a fresh variable on first use.

        It is a positive variable for every net the encoder allocated, and
        whatever literal the net's gate resolved to otherwise: its fanin's
        (complemented through a NOT), an earlier node's, or the constant's.
        """
        existing = self.varmap.get(net)
        if existing is not None:
            return existing
        variable = self.cnf.new_var()
        self.varmap[net] = variable
        return variable

    def literal(self, net: str, value: bool) -> int:
        """Literal asserting that ``net`` equals ``value``."""
        literal = self.var(net)
        return literal if value else -literal

    def constant(self, value: bool) -> int:
        """The literal that is always ``value``.

        The first call allocates the encoder's constant variable and fixes
        it true with a unit clause.
        """
        true = self._true
        if not true:
            true = self._true = self.cnf.new_var()
            self.cnf.clauses.append((true,))
        return true if value else -true

    def value(self, model: Mapping[int, int], net: str, default: int = 0) -> int:
        """Value (0/1) of ``net`` under a solver model (variable -> 0/1).

        This is the one way to read a net out of a model, since the net's
        literal may be a complemented one.  A net with no literal, or whose
        variable the model does not assign, reads as ``default``.
        """
        literal = self.varmap.get(net)
        if literal is None:
            return default
        value = model.get(abs(literal))
        if value is None:
            return default
        return value if literal > 0 else 1 - value

    # ------------------------------------------------------------------ #
    # normal forms (literals in, the node's literal out)
    # ------------------------------------------------------------------ #
    def _and(self, ins: Sequence[int]) -> int:
        """The literal of the AND of ``ins``: folded, looked up, or a new node."""
        true = self._true
        fanin: Set[int] = set()
        for lit in ins:
            if lit == true:
                continue
            if lit == -true or -lit in fanin:
                return self.constant(False)
            fanin.add(lit)
        if len(fanin) < 2:
            return fanin.pop() if fanin else self.constant(True)
        lits = tuple(sorted(fanin, key=abs))
        key = ("and", lits)
        node = self._nodes.get(key)
        if node is None:
            node = self._nodes[key] = self.cnf.new_var()
            append = self.cnf.clauses.append
            for lit in lits:
                append((-node, lit))
            append((node, *[-lit for lit in lits]))
        return node

    def _xor(self, ins: Sequence[int], parity: int) -> int:
        """The literal of the XOR of ``ins`` and ``parity`` (0 or 1)."""
        true = self._true
        odd: Set[int] = set()
        for lit in ins:
            var = lit
            if lit < 0:
                var = -lit
                parity ^= 1
            if var == true:
                parity ^= 1
            elif var in odd:
                odd.remove(var)
            else:
                odd.add(var)
        if len(odd) < 2:
            if not odd:
                return self.constant(bool(parity))
            var = odd.pop()
            return -var if parity else var
        variables = tuple(sorted(odd))
        key = ("xor", variables)
        node = self._nodes.get(key)
        if node is None:
            node = self._nodes[key] = self.cnf.new_var()
            self._encode_xor(node, variables)
        return -node if parity else node

    def _mux(self, sel: int, d0: int, d1: int) -> int:
        """The literal of ``sel ? d1 : d0``."""
        if sel < 0:
            sel, d0, d1 = -sel, d1, d0
        true = self._true
        if sel == true:
            return d1
        if d0 == d1:
            return d0
        # A data input that is a constant or the select itself leaves an AND.
        if d0 == sel or d0 == -true:
            return self._and([sel, d1])
        if d0 == -sel or d0 == true:
            return -self._and([sel, -d1])
        if d1 == -sel or d1 == -true:
            return self._and([-sel, d0])
        if d1 == sel or d1 == true:
            return -self._and([-sel, -d0])
        key = ("mux", sel, d0, d1)
        node = self._nodes.get(key)
        if node is None:
            node = self._nodes[key] = self.cnf.new_var()
            clauses = self.cnf.clauses
            clauses.append((-node, sel, d0))
            clauses.append((-node, -sel, d1))
            clauses.append((node, sel, -d0))
            clauses.append((node, -sel, -d1))
        return node

    def _gate(self, gtype: GateType, ins: List[int]) -> int:
        """The literal of one gate over already-resolved fanin literals."""
        if gtype == GateType.AND:
            return self._and(ins)
        if gtype == GateType.NAND:
            return -self._and(ins)
        if gtype == GateType.OR:
            return -self._and([-lit for lit in ins])
        if gtype == GateType.NOR:
            return self._and([-lit for lit in ins])
        if gtype == GateType.NOT:
            return -ins[0]
        if gtype == GateType.BUF:
            return ins[0]
        if gtype == GateType.XOR:
            return self._xor(ins, 0)
        if gtype == GateType.XNOR:
            return self._xor(ins, 1)
        if gtype == GateType.MUX:
            return self._mux(*ins)
        if gtype == GateType.CONST0:
            return self.constant(False)
        if gtype == GateType.CONST1:
            return self.constant(True)
        raise CircuitError(f"cannot encode gate type {gtype}")  # pragma: no cover

    # ------------------------------------------------------------------ #
    # clause patterns
    # ------------------------------------------------------------------ #
    def _encode_or(self, out: int, ins: Sequence[int]) -> None:
        append = self.cnf.clauses.append
        for lit in ins:
            append((out, -lit))
        append((-out, *ins))

    def _encode_xor2(self, out: int, a: int, b: int) -> None:
        clauses = self.cnf.clauses
        clauses.append((-out, a, b))
        clauses.append((-out, -a, -b))
        clauses.append((out, -a, b))
        clauses.append((out, a, -b))

    def _encode_xor(self, out: int, ins: Sequence[int]) -> None:
        if len(ins) == 2:
            self._encode_xor2(out, ins[0], ins[1])
            return
        # Chain: t1 = a xor b ; t2 = t1 xor c ; ...
        prev = ins[0]
        for index, lit in enumerate(ins[1:], start=1):
            target = out if index == len(ins) - 1 else self.cnf.new_var()
            self._encode_xor2(target, prev, lit)
            prev = target

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
            the same global name share a literal (used to tie key inputs
            across copies / time frames).

        A net whose global name already has a literal reads that literal,
        so a net bound to a constant beforehand (:meth:`add_value`) folds
        every gate over it.  Flip-flops are **not** encoded; callers decide
        how to connect the sequential boundary (pseudo-inputs for the
        combinational attack, frame-to-frame wiring for the unrolling
        attacks).  Variables and clauses come in the order the module
        docstring ("CNF identity") fixes.
        """
        nets = _NetLiterals(self, prefix, shared_nets or {})
        literal = nets.__getitem__
        varmap = self.varmap
        clauses = self.cnf.clauses
        gates = circuit.gates
        gate_literal = self._gate
        for out in circuit.topological_order():
            gate = gates[out]
            lit = gate_literal(gate.gtype, list(map(literal, gate.inputs)))
            name = nets.name(out)
            existing = varmap.get(name)
            if existing is None:
                nets[out] = varmap[name] = lit
                continue
            nets[out] = existing
            if existing != lit:
                clauses.append((-existing, lit))
                clauses.append((existing, -lit))
        # Touch IO nets so they always have literals even if undriven/unused.
        for net in circuit.inputs:
            literal(net)
        for net in circuit.outputs:
            literal(net)
        for q, ff in circuit.dffs.items():
            literal(q)
            literal(ff.d)
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
        """Constrain a net to a constant value.

        A net with no literal yet is *bound*: it takes the constant's
        literal, costing no variable and no clause, and every gate encoded
        over it later folds.  A net that has a literal gets a unit clause.
        """
        literal = self.varmap.get(net)
        if literal is None:
            self.varmap[net] = self.constant(bool(value))
        else:
            self.cnf.clauses.append((literal if value else -literal,))

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
        in at least one position (the caller typically assumes it true).  A
        pair whose two nets have one literal can never differ and adds
        nothing; when every pair is such, the net is false.
        """
        if len(nets_a) != len(nets_b):
            raise ValueError("vectors must have equal length")
        diff_vars: List[int] = []
        for a_net, b_net in zip(nets_a, nets_b):
            a, b = self.var(a_net), self.var(b_net)
            if a == b:
                continue
            diff = self.cnf.new_var()
            self._encode_xor2(diff, a, b)
            diff_vars.append(diff)
        any_name = f"__diff_{len(self.varmap)}"
        any_var = self.var(any_name)
        self._encode_or(any_var, diff_vars)
        return any_name
