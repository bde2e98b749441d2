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
:meth:`TseitinEncoder._gate` (encoding) and :meth:`TseitinEncoder.congruence`
(re-hashing) compute the normal forms with the same ``_fold_*`` functions;
only encoding allocates nodes (``_new_node``).

Congruence closure
------------------
Structural hashing only merges what is equal by construction.
:meth:`TseitinEncoder.congruence` also merges what the solver's level-0
values make equal (Biere, Fazekas, Fleury and Froleyks, "Clausal Congruence
Closure", SAT 2024).  It keeps a union-find over literals whose
representative is the constant when a class holds it, else the class's
earliest variable.  Each fixed variable joins the constant's class; then
every node is re-hashed in creation order, its fanins mapped to their
representatives, through the normal forms above.  A node that folds joins
its fold's class, and one whose normal form an earlier node holds joins
that node's class; sweeps repeat until none merges a class an earlier node
read.  Finally :attr:`TseitinEncoder.varmap` and the node table are
rewritten to representatives, so every later :meth:`~TseitinEncoder.var`
and every gate encoded later reads representatives, and a copy encoded
over merged literals hashes onto the existing nodes.

Each merge appends clauses to :attr:`TseitinEncoder.lemmas`, not to the
CNF: a unit when the merge joins the constant's class, else the two binary
clauses of the equivalence.  Each is RUP, in order, over the encoder's
clauses, the level-0 values (which unit propagation derives from them) and
the lemmas before it, so a DRUP checker replays them:

* an AND node needs nothing more: a true output propagates to every fanin,
  the binary lemmas carry each fanin to its class, and all fanins true
  propagate to the other node's output;
* a MUX node needs one case split on its select, and an XOR node one on
  each free input but one (one input that occurs once in its chain is
  recovered from the output).  A split on ``v`` adds the lemma ``C ∨ v``
  before ``C``, with the lemmas of both branches' deeper splits around it
  (``2**n - 1`` intermediate lemmas for ``n`` splits); a merge that would
  need more than ``_MAX_SPLITS`` splits is skipped.

:class:`~repro.sat.session.SolveSession` adds the lemmas to the solver after
the CNF and logs them as proof additions, so a certificate's CNF never holds
them; in certified mode :meth:`~repro.sat.session.SolveSession.congruence`
also writes each pass a certificate that replays its lemmas.

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

A congruence pass appends no CNF clause except the constant's unit when
the constant is not yet allocated.  After it, fanins resolve to
representatives, so a later gate's variables, clauses and literals follow
the rewritten :attr:`~TseitinEncoder.varmap` and node table.

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

#: Most case splits :meth:`TseitinEncoder.congruence` spends on one merge's
#: proof (``2**n - 1`` intermediate lemmas per clause); a merge that needs
#: more is skipped.  No merge on the quick or full Table III/IV grids
#: (BBO, INT, KC2) needs more than 4.
_MAX_SPLITS = 6


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
    shared (e.g. key inputs common to all time frames of an unrolling),
    whenever two gates have one normal form, and, after a
    :meth:`congruence` pass, whenever level-0 values make two nodes equal
    (see the module docstring).  :attr:`varmap` maps each net name to its
    literal, which may be negative or the constant's.
    """

    def __init__(self, cnf: Optional[CNF] = None) -> None:
        self.cnf = cnf if cnf is not None else CNF()
        self.varmap: Dict[str, int] = {}
        #: Normal form -> literal of every node encoded so far (over the
        #: representatives of the last congruence pass).
        self._nodes: Dict[Tuple, int] = {}
        #: Node variable -> the normal form its clauses define, in creation order.
        self._defs: Dict[int, Tuple] = {}
        #: The constant variable (fixed true), 0 until first needed.
        self._true = 0
        #: Union-find over literals: a merged variable -> a literal it equals,
        #: one step closer to its class's representative.
        self._parent: Dict[int, int] = {}
        #: The clauses :meth:`congruence` derived, in derivation order: DRUP
        #: lemmas, kept out of :attr:`cnf` (see the module docstring).
        self.lemmas: List[Tuple[int, ...]] = []

    # ------------------------------------------------------------------ #
    # literals and model reads
    # ------------------------------------------------------------------ #
    def var(self, net: str) -> int:
        """The literal of ``net``, allocating a fresh variable on first use.

        It is a positive variable for every net the encoder allocated, and
        whatever literal the net's gate resolved to otherwise: its fanin's
        (complemented through a NOT), an earlier node's, or the constant's.
        After a :meth:`congruence` pass it is the representative of the
        net's class: possibly another net's literal, or the constant's.
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

    def is_constant(self, literal: int) -> bool:
        """Whether ``literal`` is one of the constant's two literals."""
        return self._true != 0 and abs(literal) == self._true

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
    # normal forms (literals in; a fold's literal, or a node key and sign)
    # ------------------------------------------------------------------ #
    # Each ``_fold_*`` returns ``(None, literal)`` when the gate folds, and
    # otherwise ``(key, sign)``: the gate's literal is ``sign`` times the
    # literal of the node ``key``.  :meth:`_gate` (encoding) and
    # :meth:`congruence` (re-hashing over representatives) share them.
    def _fold_and(self, ins: Sequence[int]) -> Tuple[Optional[Tuple], int]:
        """The normal form of the AND of ``ins``."""
        true = self._true
        fanin: Set[int] = set()
        for lit in ins:
            if lit == true:
                continue
            if lit == -true or -lit in fanin:
                return None, self.constant(False)
            fanin.add(lit)
        if len(fanin) < 2:
            return None, fanin.pop() if fanin else self.constant(True)
        return ("and", tuple(sorted(fanin, key=abs))), 1

    def _fold_xor(self, ins: Sequence[int], parity: int) -> Tuple[Optional[Tuple], int]:
        """The normal form of the XOR of ``ins`` and ``parity`` (0 or 1)."""
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
                return None, self.constant(bool(parity))
            var = odd.pop()
            return None, -var if parity else var
        return ("xor", tuple(sorted(odd))), -1 if parity else 1

    def _fold_mux(self, sel: int, d0: int, d1: int) -> Tuple[Optional[Tuple], int]:
        """The normal form of ``sel ? d1 : d0``."""
        if sel < 0:
            sel, d0, d1 = -sel, d1, d0
        true = self._true
        if sel == true:
            return None, d1
        if d0 == d1:
            return None, d0
        # A data input that is a constant or the select itself leaves an AND.
        if d0 == sel or d0 == -true:
            return self._fold_and([sel, d1])
        if d0 == -sel or d0 == true:
            key, lit = self._fold_and([sel, -d1])
            return key, -lit
        if d1 == -sel or d1 == -true:
            return self._fold_and([-sel, d0])
        if d1 == sel or d1 == true:
            key, lit = self._fold_and([-sel, -d0])
            return key, -lit
        return ("mux", sel, d0, d1), 1

    def _fold(self, key: Tuple, find) -> Tuple[Optional[Tuple], int]:
        """The normal form of node ``key`` with every fanin mapped by ``find``."""
        kind = key[0]
        if kind == "and":
            return self._fold_and([find(lit) for lit in key[1]])
        if kind == "xor":
            return self._fold_xor([find(var) for var in key[1]], 0)
        return self._fold_mux(find(key[1]), find(key[2]), find(key[3]))

    def _new_node(self, key: Tuple) -> int:
        """Allocate node ``key``: its variable, its table entry and its clauses."""
        node = self._nodes[key] = self.cnf.new_var()
        self._defs[node] = key
        kind = key[0]
        clauses = self.cnf.clauses
        if kind == "and":
            lits = key[1]
            for lit in lits:
                clauses.append((-node, lit))
            clauses.append((node, *[-lit for lit in lits]))
        elif kind == "xor":
            self._encode_xor(node, key[1])
        else:
            _, sel, d0, d1 = key
            clauses.append((-node, sel, d0))
            clauses.append((-node, -sel, d1))
            clauses.append((node, sel, -d0))
            clauses.append((node, -sel, -d1))
        return node

    def _gate(self, gtype: GateType, ins: List[int]) -> int:
        """The literal of one gate over already-resolved fanin literals."""
        if gtype == GateType.AND:
            key, lit = self._fold_and(ins)
        elif gtype == GateType.NAND:
            key, lit = self._fold_and(ins)
            lit = -lit
        elif gtype == GateType.OR:
            key, lit = self._fold_and([-lit for lit in ins])
            lit = -lit
        elif gtype == GateType.NOR:
            key, lit = self._fold_and([-lit for lit in ins])
        elif gtype == GateType.NOT:
            return -ins[0]
        elif gtype == GateType.BUF:
            return ins[0]
        elif gtype == GateType.XOR:
            key, lit = self._fold_xor(ins, 0)
        elif gtype == GateType.XNOR:
            key, lit = self._fold_xor(ins, 1)
        elif gtype == GateType.MUX:
            key, lit = self._fold_mux(*ins)
        elif gtype == GateType.CONST0:
            return self.constant(False)
        elif gtype == GateType.CONST1:
            return self.constant(True)
        else:  # pragma: no cover
            raise CircuitError(f"cannot encode gate type {gtype}")
        if key is None:
            return lit
        node = self._nodes.get(key)
        if node is None:
            node = self._new_node(key)
        return node if lit == 1 else -node

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
    # congruence closure over level-0 values
    # ------------------------------------------------------------------ #
    def _find(self, lit: int) -> int:
        """The representative of ``lit``'s class (with ``lit``'s polarity)."""
        parent = self._parent
        var = lit if lit > 0 else -lit
        link = parent.get(var)
        if link is None:
            return lit
        chain = []
        while link is not None:
            chain.append((var, link))
            var = link if link > 0 else -link
            link = parent.get(var)
        # Compress the path: each member links straight to the representative.
        resolved = var
        for member, link in reversed(chain):
            resolved = resolved if link > 0 else -resolved
            parent[member] = resolved
        return resolved if lit > 0 else -resolved

    def congruence(self, fixed: Mapping[int, int]) -> int:
        """Merge every pair of literals that ``fixed`` makes congruent.

        ``fixed`` maps variables to the 0/1 values unit propagation fixed at
        decision level 0.  Each joins the constant's class; then every node
        is re-hashed in creation order, its fanins mapped to their classes'
        representatives through the normal forms :meth:`encode` uses, until
        a sweep merges nothing that an earlier node read.  A node that folds
        joins its fold's class, and one whose normal form an earlier node
        already holds joins that node's class.  Each merge appends to
        :attr:`lemmas` the clauses that prove it (module docstring,
        "Congruence closure"): a unit when it joins the constant's class,
        else the two binary clauses of the equivalence.  At the end
        :attr:`varmap` and the node table are rewritten to representatives,
        so gates encoded later hash onto the merged nodes.  Returns how many
        literals were merged.
        """
        true = self.constant(True)
        find, parent = self._find, self._parent
        for var, value in fixed.items():
            root = find(var if value else -var)
            if abs(root) != true:
                # Unit propagation derives these, so they need no lemma.
                parent[abs(root)] = true if root > 0 else -true
        merged = 0
        stale = True
        while stale:
            stale = False
            table: Dict[Tuple, int] = {}
            for node, key in self._defs.items():
                normal, lit = self._fold(key, find)
                if normal is None:
                    target, target_key = lit, None
                else:
                    entry = table.get(normal)
                    if entry is None:
                        table[normal] = lit * node
                        continue
                    target, target_key = lit * entry, self._defs[abs(entry)]
                a, b = find(node), find(target)
                if a == b or a == -b or not self._prove(node, key, target, target_key, a, b):
                    continue
                # The constant is the preferred representative, then the
                # earliest variable.
                if abs(b) == true or (abs(a) != true and abs(b) < abs(a)):
                    loser, root = a, b
                else:
                    loser, root = b, a
                parent[abs(loser)] = root if loser > 0 else -root
                merged += 1
                # A class whose representative was not this node may hold
                # literals an earlier node read: sweep again.
                stale = stale or abs(loser) != node
        varmap = self.varmap
        for net, lit in varmap.items():
            varmap[net] = find(lit)
        self._nodes = {normal: find(lit) for normal, lit in table.items()}
        return merged

    def _prove(self, node: int, key: Tuple, target: int, target_key: Optional[Tuple],
               a: int, b: int) -> bool:
        """Append the lemmas proving ``node`` equal to ``target``.

        ``a`` and ``b`` are their representatives and ``target_key`` the
        normal form defining ``target`` when it is a node the table matched
        (None for a fold).  The lemmas are RUP in order over the encoder's
        clauses, the level-0 values and the earlier lemmas (module
        docstring, "Congruence closure").  Returns False, appending
        nothing, when the proof would need more than :data:`_MAX_SPLITS`
        case splits; the two literals then stay apart.
        """
        true = self._true
        find = self._find
        if abs(b) == true:
            clauses = [(node if b == true else -node,)]
        elif abs(a) == true:
            clauses = [(target if a == true else -target,)]
        else:
            clauses = [(-node, target), (node, -target)]
        settled = {true, abs(a), abs(b)}
        splits: List[int] = []
        for normal in (key, target_key):
            if normal is None or normal[0] == "and":
                continue
            for lit in (normal[1],) if normal[0] == "mux" else normal[1]:
                var = abs(find(lit))
                if var not in settled:
                    settled.add(var)
                    splits.append(var)
        if key[0] == "xor" and target_key is not None:
            # Propagation recovers one input that occurs once in the node's
            # chain from the node's value; the target's chain then checks it.
            roots = [abs(find(var)) for var in key[1]]
            for var in reversed(splits):
                if roots.count(var) == 1:
                    splits.remove(var)
                    break
        if len(splits) > _MAX_SPLITS:
            return False
        lemmas = self.lemmas

        def split(clause: Tuple[int, ...], negated: Tuple[int, ...], rest: List[int]) -> None:
            # The lemmas that make ``clause + negated`` RUP: for the next
            # variable, its false branch as a lemma, with the lemmas of both
            # branches' subtrees before and after it.
            if rest:
                var, rest = rest[0], rest[1:]
                split(clause, negated + (var,), rest)
                lemmas.append(clause + negated + (var,))
                split(clause, negated + (-var,), rest)

        for clause in clauses:
            split(clause, (), splits)
            lemmas.append(clause)
        return True

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
