"""The :class:`Circuit` netlist container.

A ``Circuit`` is a (possibly sequential) gate-level netlist:

* ``inputs``   — ordered primary inputs (a subset may be *key inputs*);
* ``outputs``  — ordered primary outputs;
* ``gates``    — combinational gates, keyed by the net they drive;
* ``dffs``     — D flip-flops, keyed by their Q net.

The class is deliberately a plain container with explicit mutation methods;
locking transforms build new nets with :meth:`fresh_net`, attacks read the
structure through :meth:`topological_order`, :meth:`fanin_cone` and friends.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set

from repro.netlist.gates import DFF, Gate, GateType


class CircuitError(Exception):
    """Raised for structurally invalid circuit mutations or queries."""


class Circuit:
    """A sequential gate-level netlist.

    Parameters
    ----------
    name:
        Human-readable circuit name (benchmark name, e.g. ``"s27"``).

    Notes
    -----
    * Every net is driven by exactly one of: a primary input, a gate, or a
      DFF Q pin.
    * ``key_inputs`` is an ordered subset of ``inputs`` used by the locking
      transforms and the attacks to distinguish key pins from functional
      primary inputs.
    """

    def __init__(self, name: str = "circuit") -> None:
        self.name = name
        self.inputs: List[str] = []
        self.outputs: List[str] = []
        self.gates: Dict[str, Gate] = {}
        self.dffs: Dict[str, DFF] = {}
        self.key_inputs: List[str] = []
        self._fresh_counter = 0

    # ------------------------------------------------------------------ #
    # construction
    # ------------------------------------------------------------------ #
    def add_input(self, net: str, *, is_key: bool = False) -> str:
        """Declare ``net`` as a primary input.  Returns the net name."""
        if net in self.inputs:
            raise CircuitError(f"duplicate primary input {net!r}")
        if self.drives(net):
            raise CircuitError(f"net {net!r} is already driven, cannot be an input")
        self.inputs.append(net)
        if is_key:
            self.key_inputs.append(net)
        return net

    def add_output(self, net: str) -> str:
        """Declare ``net`` as a primary output.  Returns the net name."""
        if net in self.outputs:
            raise CircuitError(f"duplicate primary output {net!r}")
        self.outputs.append(net)
        return net

    def add_gate(self, output: str, gtype: GateType, inputs: Sequence[str]) -> Gate:
        """Add a combinational gate driving ``output``."""
        if self.drives(output):
            raise CircuitError(f"net {output!r} already driven")
        gate = Gate(output=output, gtype=gtype, inputs=tuple(inputs))
        self.gates[output] = gate
        return gate

    def add_dff(self, q: str, d: str, init: int = 0) -> DFF:
        """Add a D flip-flop with output net ``q`` and input net ``d``."""
        if self.drives(q):
            raise CircuitError(f"net {q!r} already driven")
        ff = DFF(q=q, d=d, init=init)
        self.dffs[q] = ff
        return ff

    def remove_gate(self, output: str) -> Gate:
        """Remove and return the gate driving ``output``."""
        try:
            return self.gates.pop(output)
        except KeyError as exc:
            raise CircuitError(f"no gate drives {output!r}") from exc

    def replace_dff_input(self, q: str, new_d: str) -> DFF:
        """Re-wire the D pin of the DFF driving ``q`` to ``new_d``.

        This is the primitive used by Cute-Lock-Str: the original next-state
        net is left in place (it becomes an internal node of the MUX tree)
        and the flip-flop is re-pointed at the tree's root.
        """
        if q not in self.dffs:
            raise CircuitError(f"no DFF drives {q!r}")
        old = self.dffs[q]
        self.dffs[q] = DFF(q=q, d=new_d, init=old.init)
        return self.dffs[q]

    def fresh_net(self, prefix: str = "n") -> str:
        """Return a net name not yet used anywhere in the circuit."""
        while True:
            candidate = f"{prefix}_{self._fresh_counter}"
            self._fresh_counter += 1
            if not self.drives(candidate) and candidate not in self.inputs:
                return candidate

    # ------------------------------------------------------------------ #
    # queries
    # ------------------------------------------------------------------ #
    def drives(self, net: str) -> bool:
        """True if ``net`` already has a driver (input, gate or DFF Q)."""
        return net in self.gates or net in self.dffs or net in self.inputs

    @property
    def functional_inputs(self) -> List[str]:
        """Primary inputs that are not key inputs."""
        keys = set(self.key_inputs)
        return [i for i in self.inputs if i not in keys]

    @property
    def state_nets(self) -> List[str]:
        """The Q nets of all flip-flops, in insertion order."""
        return list(self.dffs.keys())

    @property
    def num_gates(self) -> int:
        return len(self.gates)

    @property
    def num_dffs(self) -> int:
        return len(self.dffs)

    def all_nets(self) -> Set[str]:
        """Every net name referenced anywhere in the circuit."""
        nets: Set[str] = set(self.inputs) | set(self.outputs)
        for gate in self.gates.values():
            nets.add(gate.output)
            nets.update(gate.inputs)
        for ff in self.dffs.values():
            nets.add(ff.q)
            nets.add(ff.d)
        return nets

    def topological_order(self) -> List[str]:
        """Topologically sorted combinational gate output nets.

        Primary inputs and DFF Q nets are the sources of the combinational
        DAG; only gate outputs appear in the returned list.  Raises
        :class:`CircuitError` if there is a combinational cycle.
        """
        indeg: Dict[str, int] = {}
        dependents: Dict[str, List[str]] = {}
        sources = set(self.inputs) | set(self.dffs.keys())
        for out, gate in self.gates.items():
            count = 0
            for src in gate.inputs:
                if src in self.gates:
                    count += 1
                    dependents.setdefault(src, []).append(out)
                elif src not in sources and src not in self.gates:
                    # Undriven nets are caught by validate_circuit(); here we
                    # treat them as sources so ordering still succeeds.
                    pass
            indeg[out] = count

        ready = [out for out, deg in indeg.items() if deg == 0]
        order: List[str] = []
        while ready:
            net = ready.pop()
            order.append(net)
            for succ in dependents.get(net, ()):  # gates fed by `net`
                indeg[succ] -= 1
                if indeg[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self.gates):
            raise CircuitError(
                f"combinational cycle detected: ordered {len(order)} of "
                f"{len(self.gates)} gates"
            )
        return order

    def fanin_cone(self, net: str, *, stop_at_dffs: bool = True) -> Set[str]:
        """All nets in the transitive fan-in of ``net``.

        With ``stop_at_dffs=True`` (the default) the cone stops at flip-flop
        Q pins and primary inputs, i.e. it is the purely combinational cone
        used by the SAT/structural attacks.
        """
        seen: Set[str] = set()
        stack = [net]
        while stack:
            current = stack.pop()
            if current in seen:
                continue
            seen.add(current)
            if current in self.inputs:
                continue
            if current in self.dffs:
                if stop_at_dffs:
                    continue
                stack.append(self.dffs[current].d)
                continue
            gate = self.gates.get(current)
            if gate is not None:
                stack.extend(gate.inputs)
        return seen

    def key_dependent_gates(self) -> Set[str]:
        """Gate outputs whose combinational fan-in includes a key input.

        One pass in topological order: a gate depends on a key when one of
        its inputs is a key input or a key-dependent gate.  A combinational
        cycle raises :class:`CircuitError`, as in :meth:`topological_order`.
        """
        keyed = set(self.key_inputs)
        result: Set[str] = set()
        for out in self.topological_order():
            if not keyed.isdisjoint(self.gates[out].inputs):
                keyed.add(out)
                result.add(out)
        return result

    # ------------------------------------------------------------------ #
    # transformation helpers
    # ------------------------------------------------------------------ #
    def copy(self, *, name: Optional[str] = None) -> "Circuit":
        """Deep copy of the circuit (gates/DFFs are immutable so shallow-ish)."""
        clone = Circuit(name=name or self.name)
        clone.inputs = list(self.inputs)
        clone.outputs = list(self.outputs)
        clone.gates = dict(self.gates)
        clone.dffs = dict(self.dffs)
        clone.key_inputs = list(self.key_inputs)
        clone._fresh_counter = self._fresh_counter
        return clone

    def renamed(self, mapping: Dict[str, str], *, name: Optional[str] = None) -> "Circuit":
        """Return a copy with every net renamed through ``mapping``.

        Nets absent from ``mapping`` keep their names.  Useful for building
        miters / unrollings where two copies of a circuit must not collide.
        """
        clone = Circuit(name=name or self.name)
        clone.inputs = [mapping.get(n, n) for n in self.inputs]
        clone.outputs = [mapping.get(n, n) for n in self.outputs]
        clone.key_inputs = [mapping.get(n, n) for n in self.key_inputs]
        clone.gates = {
            mapping.get(out, out): gate.remapped(mapping)
            for out, gate in self.gates.items()
        }
        clone.dffs = {
            mapping.get(q, q): ff.remapped(mapping) for q, ff in self.dffs.items()
        }
        clone._fresh_counter = self._fresh_counter
        return clone

    def combinational_view(self, *, next_state_suffix: str = "__ns") -> "Circuit":
        """Return the scan-access combinational view of this circuit.

        Every flip-flop Q becomes a pseudo primary input and its next-state
        function becomes a pseudo primary output named ``<q><suffix>``
        (driven by a BUF of the D net).  Naming pseudo-outputs after the
        flip-flop — rather than after the D net — keeps the sequential
        boundary aligned between an original circuit and its locked version,
        which is what the scan-access oracle-guided attacks rely on.
        """
        view = Circuit(name=f"{self.name}_comb")
        view.inputs = list(self.inputs)
        view.key_inputs = list(self.key_inputs)
        view.outputs = list(self.outputs)
        view.gates = dict(self.gates)
        view._fresh_counter = self._fresh_counter
        for q, ff in self.dffs.items():
            view.inputs.append(q)
            pseudo = f"{q}{next_state_suffix}"
            view.gates[pseudo] = Gate(output=pseudo, gtype=GateType.BUF, inputs=(ff.d,))
            view.outputs.append(pseudo)
        return view

    # ------------------------------------------------------------------ #
    # dunder / misc
    # ------------------------------------------------------------------ #
    def __contains__(self, net: str) -> bool:
        return net in self.all_nets()

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Circuit):
            return NotImplemented
        return (
            self.inputs == other.inputs
            and self.outputs == other.outputs
            and self.gates == other.gates
            and self.dffs == other.dffs
            and self.key_inputs == other.key_inputs
        )

    def __repr__(self) -> str:
        return (
            f"Circuit(name={self.name!r}, inputs={len(self.inputs)}, "
            f"outputs={len(self.outputs)}, gates={len(self.gates)}, "
            f"dffs={len(self.dffs)}, keys={len(self.key_inputs)})"
        )
