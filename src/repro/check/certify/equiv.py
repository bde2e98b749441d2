"""SAT-based translation validation of the engine compiler.

:mod:`repro.check.program` proves a compiled op list is *structurally*
well-formed (levelized, single-assignment, right arity per kind) but says
nothing about whether it computes the circuit.  This module proves that,
per bit:

1. the netlist semantics are Tseitin-encoded into a reference CNF (the same
   :class:`~repro.sat.tseitin.TseitinEncoder` every attack trusts);
2. the op list :meth:`~repro.engine.compiler.CompiledCircuit.run`
   interprets is encoded into the *same* variable space under 1-bit
   Boolean lane semantics, each op from its kind, fold operator and invert
   bit (the mask is the true constant, an inverted op is the complement,
   ``and_``/``or_``/``xor`` get fresh gate variables), sharing only the
   source variables (primary inputs and flip-flop Q pins);
3. for every primary output and every next-state (DFF D) bit, a miter
   asserting the two encodings differ is proven UNSAT.

A SAT miter is a real lowering bug and comes with a counterexample input
assignment.  The UNSAT answers are themselves DRUP-certified and replayed
through the independent checker (:mod:`repro.check.certify.drup`) by
default, so the validator is self-certifying end to end.

Scope note: the 1-bit Boolean model treats inversion as complement-within-
mask, which is exactly the engine's contract for mask-confined words.  Word
*confinement* itself (no op leaking bits past the lane width) is the job of
:func:`repro.check.program.verify_packed_words`, which stays armed under
``REPRO_CHECK_KERNELS=1``.
"""

from __future__ import annotations

import operator
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple, Union

from repro.check.certify.drup import check_certificate
from repro.check.program import verify_compiled
from repro.engine.compiler import (
    FOLD,
    MUX,
    CompiledCircuit,
    PackedOp,
    compile_circuit,
)
from repro.netlist.circuit import Circuit
from repro.sat.session import SolveSession

__all__ = [
    "BitMismatch",
    "EquivalenceReport",
    "validate_compiled",
    "validate_circuit",
    "fixture_names",
    "load_fixture",
]


@dataclass
class BitMismatch:
    """One output/next-state bit where the op list and netlist disagree."""

    kind: str  # "output" or "next-state"
    name: str  # output net, or the DFF Q net whose D bit diverged
    counterexample: Dict[str, int]  # input + current-state assignment

    def render(self) -> str:
        witness = " ".join(
            f"{net}={value}" for net, value in sorted(self.counterexample.items())
        )
        return f"{self.kind} {self.name!r} diverges under {{{witness}}}"


@dataclass
class EquivalenceReport:
    """Result of validating one compiled circuit."""

    circuit: str
    bits_total: int = 0
    mismatches: List[BitMismatch] = field(default_factory=list)
    certificates: int = 0
    proofs_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.mismatches

    def render(self) -> str:
        if self.ok:
            checked = (
                f", {self.proofs_checked} miter proof(s) re-checked"
                if self.proofs_checked
                else ""
            )
            return (
                f"{self.circuit}: kernel == netlist on all {self.bits_total} "
                f"bit(s){checked}"
            )
        lines = [
            f"{self.circuit}: {len(self.mismatches)} of {self.bits_total} "
            f"bit(s) DIVERGE"
        ]
        lines.extend("  " + mismatch.render() for mismatch in self.mismatches)
        return "\n".join(lines)


# --------------------------------------------------------------------------- #
# op list -> CNF under 1-bit lane semantics
# --------------------------------------------------------------------------- #
def _encode_fold(cnf, fold, a: int, b: int) -> int:
    """Encode ``fold(a, b)`` for one of the engine's fold operators."""
    out = cnf.new_var()
    if fold is operator.and_:
        cnf.add_clause([-out, a])
        cnf.add_clause([-out, b])
        cnf.add_clause([out, -a, -b])
    elif fold is operator.or_:
        cnf.add_clause([out, -a])
        cnf.add_clause([out, -b])
        cnf.add_clause([-out, a, b])
    elif fold is operator.xor:
        cnf.add_clause([-out, a, b])
        cnf.add_clause([-out, -a, -b])
        cnf.add_clause([out, -a, b])
        cnf.add_clause([out, a, -b])
    else:  # pragma: no cover - excluded by verify_compiled
        raise ValueError(f"fold {fold!r} is not a bitwise operator")
    return out


def _encode_op(cnf, true_lit: int, slot_lit: Dict[int, int], op: PackedOp) -> int:
    """Encode one op exactly as :meth:`CompiledCircuit.run` evaluates it."""
    ins = [slot_lit[slot] for slot in op.in_slots]
    if op.kind == FOLD:
        lit = ins[0]
        for other in ins[1:]:
            lit = _encode_fold(cnf, op.fold, lit, other)
    elif op.kind == MUX:  # (d0 & ~sel) | (d1 & sel)
        sel, d0, d1 = ins
        lit = _encode_fold(
            cnf,
            operator.or_,
            _encode_fold(cnf, operator.and_, d0, -sel),
            _encode_fold(cnf, operator.and_, d1, sel),
        )
    else:
        lit = -true_lit
    return -lit if op.invert else lit


# --------------------------------------------------------------------------- #
# the validator
# --------------------------------------------------------------------------- #
def validate_compiled(
    compiled: CompiledCircuit,
    *,
    proof_dir: Optional[Union[str, Path]] = None,
    check_proofs: bool = True,
    label: Optional[str] = None,
) -> EquivalenceReport:
    """Prove a compiled circuit's op list equivalent to its netlist.

    Runs :func:`repro.check.program.verify_compiled` first (the structural
    check is what makes the op encoding total), then proves each output
    and next-state bit with an assumption-scoped miter.  With
    ``check_proofs`` (the default) every miter UNSAT is DRUP-certified and
    replayed through the independent checker; pass ``proof_dir`` to keep
    the certificate pairs, otherwise they live in a temporary directory.
    """
    name = label or compiled.circuit.name
    verify_compiled(compiled)
    report = EquivalenceReport(circuit=name)
    with tempfile.TemporaryDirectory(prefix="repro-equiv-") as tmp:
        certify = check_proofs or proof_dir is not None
        session = SolveSession(
            proof_path=(proof_dir if proof_dir is not None else tmp) if certify else None,
            proof_label=f"equiv-{name}",
        )
        encoder = session.encoder
        encoder.encode(compiled.circuit)
        cnf = encoder.cnf

        true_lit = cnf.new_var()
        cnf.add_clause([true_lit])
        slot_lit: Dict[int, int] = {}
        for slot in compiled.input_slots:
            slot_lit[slot] = encoder.var(compiled.net_names[slot])
        for q_net, slot, _init in compiled.state_items:
            slot_lit[slot] = encoder.var(q_net)
        for op in compiled.ops:
            slot_lit[op.out_slot] = _encode_op(cnf, true_lit, slot_lit, op)

        witness_nets = list(compiled.circuit.inputs) + [
            q for q, _slot, _init in compiled.state_items
        ]
        targets: List[Tuple[str, str, int, int]] = []
        for slot in compiled.output_slots:
            net = compiled.net_names[slot]
            targets.append(("output", net, encoder.var(net), slot_lit[slot]))
        for q_net, d_slot in compiled.dff_d_slots:
            d_net = compiled.circuit.dffs[q_net].d
            targets.append(("next-state", q_net, encoder.var(d_net), slot_lit[d_slot]))

        for kind, bit_name, ref_lit, op_lit in targets:
            report.bits_total += 1
            diff = cnf.new_var()
            cnf.add_clause([-diff, ref_lit, op_lit])
            cnf.add_clause([-diff, -ref_lit, -op_lit])
            cnf.add_clause([diff, -ref_lit, op_lit])
            cnf.add_clause([diff, ref_lit, -op_lit])
            answer = session.solve([diff], phase="equiv")
            if answer is True:
                model = session.model()
                counterexample = {net: encoder.value(model, net) for net in witness_nets}
                report.mismatches.append(BitMismatch(kind, bit_name, counterexample))
            elif answer is None:  # pragma: no cover - no budgets are set
                raise RuntimeError(
                    f"equivalence miter for {kind} {bit_name!r} hit a solver budget"
                )

        report.certificates = len(session.certificates)
        if check_proofs:
            for cnf_path, proof_path in session.certificates:
                # A ProofError here is fatal on purpose: the solver said
                # UNSAT but its own proof does not replay.
                check_certificate(cnf_path, proof_path)
                report.proofs_checked += 1
    return report


def validate_circuit(circuit: Circuit, **kwargs) -> EquivalenceReport:
    """Compile and validate a circuit; see :func:`validate_compiled`."""
    compiled = compile_circuit(circuit)
    return validate_compiled(compiled, **kwargs)


# --------------------------------------------------------------------------- #
# bundled fixtures (the `repro check equiv --all-fixtures` set)
# --------------------------------------------------------------------------- #
def fixture_names() -> List[str]:
    """Names of every bundled circuit fixture (ISCAS'89 + ITC'99 profiles)."""
    from repro.benchmarks_data.iscas89 import iscas89_names
    from repro.benchmarks_data.itc99 import itc99_names

    return list(iscas89_names()) + list(itc99_names())


def load_fixture(name: str) -> Circuit:
    """Load a bundled fixture by name (raises KeyError for unknown names)."""
    from repro.benchmarks_data.iscas89 import ISCAS89_PROFILES, load_iscas89
    from repro.benchmarks_data.itc99 import ITC99_PROFILES, load_itc99

    if name in ISCAS89_PROFILES:
        loaded = load_iscas89(name)
    elif name in ITC99_PROFILES:
        loaded = load_itc99(name)
    else:
        raise KeyError(
            f"unknown fixture {name!r}; known fixtures: {', '.join(fixture_names())}"
        )
    return getattr(loaded, "circuit", loaded)
