"""Golden CNF-identity test for :class:`repro.sat.tseitin.TseitinEncoder`.

The encoder's output is part of the search contract (see the
``repro.sat.tseitin`` module docstring): the solver's decisions follow the
variable numbering, the clause order and the literal order, so the attack
outcomes and the benchmark's work digest do too.  This test replays a
seeded corpus of encoder calls and pins, after every step, a digest of
``(cnf.num_vars, cnf.clauses, sorted(encoder.varmap.items()))``.  A change
to the encoder that renumbers a variable, reorders a clause or a literal,
or drops a duplicate literal changes a digest.

The corpus:

* ``gates`` — every gate type, XOR/XNOR with 3 and 5 inputs, AND/OR/XOR
  with a repeated input, MUX, both constants, and nets only the IO/DFF
  "touch" pass allocates (unread inputs, an undriven output, an idle
  flip-flop);
* ``random`` — a seeded random netlist, encoded twice under two prefixes;
* ``shared`` — ``shared_nets`` mapping two local nets to one global name;
* ``miter`` — the SAT-attack miter: ``A@``/``B@`` copies sharing the
  functional inputs, ``encode_inequality`` over the outputs, a blocking
  clause and two DIP constraint copies fixed with ``add_value``;
* ``unrolled`` — ``encode_unrolled`` with ``key_prefix`` and
  ``shared_input_prefix`` for two copies, then ``extend_unrolled``;
* ``any-equality`` — ``encode_any``, ``add_equality`` and
  ``add_assignment``.

Encoder clauses do not pass through the checked ``CNF.add_clause``, so the
test also runs :func:`repro.check.solver.check_cnf` on every CNF: only the
``duplicate-literal`` and ``tautology`` kinds may appear (gates with a
repeated input produce them legitimately); an empty clause, a 0 or an
out-of-range variable fails.

To re-record after a deliberate encoding change::

    PYTHONPATH=src python tests/property/test_tseitin_golden.py
"""

import functools
import hashlib
import random
from typing import Callable, Dict, Iterator, List, Tuple

import pytest

from repro.attacks.unroll import encode_unrolled, extend_unrolled
from repro.check.solver import check_cnf
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.sat.tseitin import TseitinEncoder

#: Violation kinds a correct encoding may produce (repeated gate inputs).
ALLOWED_KINDS = {"duplicate-literal", "tautology"}

#: Gate types of the random netlists, with their (min, max) fan-in.
_RANDOM_TYPES = (
    (GateType.AND, 2, 4), (GateType.NAND, 2, 3), (GateType.OR, 2, 4),
    (GateType.NOR, 2, 3), (GateType.XOR, 2, 5), (GateType.XNOR, 2, 3),
    (GateType.NOT, 1, 1), (GateType.BUF, 1, 1), (GateType.MUX, 3, 3),
)


def _random_circuit(seed: int, *, inputs: int, keys: int, gates: int,
                    outputs: int, dffs: int = 0) -> Circuit:
    """A seeded random netlist; fan-ins repeat nets now and then."""
    rng = random.Random(seed)
    circuit = Circuit(f"random{seed}")
    nets: List[str] = []
    for index in range(inputs):
        nets.append(circuit.add_input(f"i{index}"))
    for index in range(keys):
        nets.append(circuit.add_input(f"k{index}", is_key=True))
    nets.extend(f"q{index}" for index in range(dffs))
    for index in range(gates):
        gtype, low, high = rng.choice(_RANDOM_TYPES)
        fanin = [rng.choice(nets[-12:] if rng.random() < 0.6 else nets)
                 for _ in range(rng.randint(low, high))]
        nets.append(circuit.add_gate(f"g{index}", gtype, fanin).output)
    for index in range(outputs):
        circuit.add_output(f"g{gates - 1 - index}")
    for index in range(dffs):
        circuit.add_dff(f"q{index}", f"g{gates - 1 - outputs - index}",
                        init=index % 2)
    return circuit


def _gates() -> Iterator[Tuple[TseitinEncoder, object]]:
    circuit = Circuit("every-gate")
    for net in ("a", "b", "c", "d", "e", "unused", "spare"):
        circuit.add_input(net)
    five = ["a", "b", "c", "d", "e"]
    specs = [
        ("buf", GateType.BUF, ["a"]), ("not", GateType.NOT, ["b"]),
        ("and2", GateType.AND, ["a", "b"]), ("and3", GateType.AND, ["a", "b", "c"]),
        ("and_rep", GateType.AND, ["a", "a", "b"]),
        ("nand3", GateType.NAND, ["c", "d", "e"]),
        ("or2", GateType.OR, ["c", "d"]), ("or_rep", GateType.OR, ["d", "c", "d"]),
        ("nor2", GateType.NOR, ["a", "e"]),
        ("xor2", GateType.XOR, ["a", "b"]), ("xor3", GateType.XOR, ["a", "b", "c"]),
        ("xor5", GateType.XOR, five), ("xor_rep", GateType.XOR, ["a", "a"]),
        ("xnor2", GateType.XNOR, ["d", "e"]), ("xnor3", GateType.XNOR, ["c", "d", "e"]),
        ("xnor5", GateType.XNOR, five[::-1]),
        ("mux", GateType.MUX, ["a", "xor3", "and_rep"]),
        ("zero", GateType.CONST0, []), ("one", GateType.CONST1, []),
        ("top", GateType.OR, ["mux", "zero", "one", "xnor5", "state"]),
    ]
    for output, gtype, fanin in specs:
        circuit.add_gate(output, gtype, fanin)
    circuit.add_dff("state", "nor2", init=1)
    # Nets only the touch pass reaches: unread inputs, an undriven output,
    # a flip-flop whose Q nothing reads and whose D nothing drives.
    circuit.add_dff("idle", "dangling")
    for net in ("top", "buf", "not", "nand3", "or_rep", "xor5", "xnor2", "a", "floating"):
        circuit.add_output(net)
    encoder = TseitinEncoder()
    encoder.encode(circuit)
    yield encoder, "plain"
    encoder.encode(circuit, prefix="P@")
    yield encoder, "prefixed"


def _random() -> Iterator[Tuple[TseitinEncoder, object]]:
    circuit = _random_circuit(11, inputs=6, keys=2, gates=60, outputs=4, dffs=3)
    encoder = TseitinEncoder()
    encoder.encode(circuit, prefix="X@")
    yield encoder, "first"
    encoder.encode(circuit, prefix="Y@", shared_nets={"i0": "X@i0", "k1": "key1"})
    yield encoder, "second"


def _shared() -> Iterator[Tuple[TseitinEncoder, object]]:
    circuit = _random_circuit(5, inputs=4, keys=0, gates=20, outputs=2)
    encoder = TseitinEncoder()
    # Two local nets, one global name, plus a global name that collides
    # with another net's prefixed name.
    shared = {"i0": "bus", "i2": "bus", "g3": "L@i1"}
    encoder.encode(circuit, prefix="L@", shared_nets=shared)
    yield encoder, "left"
    encoder.encode(circuit, prefix="R@", shared_nets=shared)
    yield encoder, "right"


def _miter() -> Iterator[Tuple[TseitinEncoder, object]]:
    locked = _random_circuit(23, inputs=6, keys=4, gates=50, outputs=3)
    functional = [net for net in locked.inputs if net not in locked.key_inputs]
    encoder = TseitinEncoder()
    tie = {net: net for net in functional}
    encoder.encode(locked, prefix="A@", shared_nets=tie)
    yield encoder, "A"
    encoder.encode(locked, prefix="B@", shared_nets=tie)
    yield encoder, "B"
    diff = encoder.encode_inequality([f"A@{o}" for o in locked.outputs],
                                     [f"B@{o}" for o in locked.outputs])
    yield encoder, encoder.literal(diff, True)
    rng = random.Random(2)
    block = encoder.literal("__dip_block_1", True)
    encoder.cnf.add_clause([-block] + [encoder.literal(net, rng.random() < 0.5)
                                       for net in functional])
    yield encoder, "block"
    for tag in (1, 2):
        dip = {net: rng.randint(0, 1) for net in functional}
        response = {out: rng.randint(0, 1) for out in locked.outputs}
        for side in ("A", "B"):
            prefix = f"c{side}{tag}@"
            shared = {net: f"{side}@{net}" for net in locked.key_inputs}
            shared.update({net: f"{prefix}{net}" for net in functional})
            encoder.encode(locked, prefix=prefix, shared_nets=shared)
            for net in functional:
                encoder.add_value(f"{prefix}{net}", dip[net])
            for out in locked.outputs:
                encoder.add_value(f"{prefix}{out}", response[out])
            yield encoder, f"dip{tag}{side}"


def _unrolled() -> Iterator[Tuple[TseitinEncoder, object]]:
    circuit = _random_circuit(31, inputs=3, keys=2, gates=40, outputs=2, dffs=3)
    encoder = TseitinEncoder()
    copies = {}
    for side in ("A", "B"):
        copies[side] = encode_unrolled(encoder, circuit, 2, prefix=f"{side}@",
                                       shared_input_prefix="IN",
                                       key_prefix=f"K{side}@")
        yield encoder, sorted(copies[side].next_state_names.items())
    for side in ("A", "B"):
        extend_unrolled(encoder, circuit, copies[side], 4)
        yield encoder, [sorted(frame.items()) for frame in copies[side].frame_outputs]


def _any_equality() -> Iterator[Tuple[TseitinEncoder, object]]:
    encoder = TseitinEncoder()
    first = encoder.encode_any(["x0", "x1", "x0"])
    yield encoder, first
    encoder.add_equality("x1", "y")
    encoder.add_equality("fresh_a", "fresh_b")
    yield encoder, "equality"
    second = encoder.encode_any([first, "y", "z"])
    yield encoder, second
    encoder.add_assignment({"x0": 1, "z": 0, "w": 1}, prefix="")
    encoder.add_assignment({"w": 0}, prefix="P@")
    yield encoder, "assignment"


CASES: Dict[str, Callable[[], Iterator[Tuple[TseitinEncoder, object]]]] = {
    "gates": _gates,
    "random": _random,
    "shared": _shared,
    "miter": _miter,
    "unrolled": _unrolled,
    "any-equality": _any_equality,
}


@functools.lru_cache(maxsize=None)
def replay(name: str) -> Tuple[Tuple[str, ...], Tuple[Tuple[str, ...], ...]]:
    """Per step: the digest, and the kinds of ``check_cnf`` violations."""
    digests: List[str] = []
    kinds: List[Tuple[str, ...]] = []
    for encoder, note in CASES[name]():
        cnf = encoder.cnf
        state = (cnf.num_vars, cnf.clauses, sorted(encoder.varmap.items()), note)
        digests.append(hashlib.sha256(repr(state).encode()).hexdigest()[:16])
        kinds.append(tuple(sorted({v.kind for v in check_cnf(cnf)})))
    return tuple(digests), tuple(kinds)


# Recorded from the encoder that built a Gate per gate and checked every
# clause through CNF.add_clause.
EXPECTED: Dict[str, List[str]] = {
    'any-equality': [
        '1161d4f27decb034',
        'f998e6f69207457b',
        '6e90e3295cce0c6d',
        'd3871b1ce4255f01',
    ],
    'gates': [
        'a8073156e79fe391',
        '413e2e9958fdc5f1',
    ],
    'miter': [
        '9ea7cb19efb83b3c',
        '7be17f3fc6eabfd9',
        'eab212b877f9c584',
        'dbbc0e109dc10b13',
        '9578a48527a8b5af',
        '7b6df40860892374',
        'cbb61960757d3ba5',
        'b38a79d46a0e688a',
    ],
    'random': [
        'f2b5134f1b940565',
        '6b262e41e9190d94',
    ],
    'shared': [
        '84b6ae246591fa06',
        '6b2b3a4d15af85f1',
    ],
    'unrolled': [
        'a4a831504e0f0bf3',
        '934f974f22b92d56',
        '775343a966108c81',
        '1c5c696d791e3fe1',
    ],
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_cnf_is_pinned(name):
    digests, _ = replay(name)
    expected = EXPECTED[name]
    assert len(digests) == len(expected)
    for index, (got, want) in enumerate(zip(digests, expected)):
        assert got == want, f"{name} step #{index}: got {got}, expected {want}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_cnf_is_well_formed(name):
    _, kinds = replay(name)
    for index, step in enumerate(kinds):
        assert set(step) <= ALLOWED_KINDS, f"{name} step #{index}: {step}"


def test_corpus_covers_what_it_claims():
    """Repeated inputs really produce duplicate literals and tautologies."""
    _, kinds = replay("gates")
    assert set(kinds[0]) == ALLOWED_KINDS
    encoder = next(CASES["gates"]())[0]
    types = {len(clause) for clause in encoder.cnf.clauses}
    assert {1, 2, 3, 4, 6} <= types


if __name__ == "__main__":
    print("EXPECTED: Dict[str, List[str]] = {")
    for case in sorted(CASES):
        print(f"    {case!r}: [")
        for digest in replay(case)[0]:
            print(f"        {digest!r},")
        print("    ],")
    print("}")
