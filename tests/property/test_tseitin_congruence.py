"""The encoder's congruence pass emits only entailed, RUP-replayable lemmas.

:meth:`repro.sat.tseitin.TseitinEncoder.congruence` takes the values unit
propagation fixed at decision level 0, merges every pair of literals the
normal forms then make equal, and appends the clauses that prove each merge
to :attr:`~repro.sat.tseitin.TseitinEncoder.lemmas`.  The solver and the
proof log take those clauses as lemmas, never as input, so each must be

* entailed by the encoder's clauses, which a brute-force enumeration of the
  miter's free inputs (the shared input sequence and both key copies)
  checks: every node is evaluated from its definition and every clause over
  the evaluated variables must hold;
* RUP in derivation order over the encoder's clauses and the lemmas before
  it, which :class:`~repro.check.certify.drup.RupChecker` (the independent
  proof checker) replays.

The circuits are small random FSMs locked with Cute-Lock-Str (MUX key
gates, so MUX merges need one case split) or RLL (XOR/XNOR key gates, so
XOR merges do too), and two hand-built ones: one whose merges need case
splits, and one whose XOR merge needs more than the pass spends on one
merge, so the pass skips it.  Each is attacked through the sequential
attacks' two-key unrolled miter: each pass runs on the level-0 values a
real oracle observation leaves, on a freshly rebuilt solver as BBO runs it.
"""

import itertools
from typing import Dict, Iterator, List, Tuple

import pytest

from repro.attacks.sequential_core import _UnrolledMiter
from repro.check.certify.drup import RupChecker
from repro.engine.batch_oracle import BatchedSequentialOracle
from repro.fsm.random_fsm import random_fsm
from repro.fsm.synthesis import synthesize_fsm
from repro.locking.baselines import lock_rll
from repro.locking.cutelock_str import CuteLockStr
from repro.netlist.circuit import Circuit
from repro.netlist.gates import GateType
from repro.sat.session import SolveSession
from repro.sat.tseitin import _MAX_SPLITS, TseitinEncoder

SEEDS = range(8)

#: Unroll depth per corpus scheme: the wide circuit has so many inputs per
#: frame that one frame is all brute force can enumerate.
DEPTHS = {"wide": 1}


def _split_pair() -> Tuple[Circuit, Circuit]:
    """A locked circuit whose key copies merge only through case splits, and its original.

    Once the key bit is fixed to 1, ``a = AND(k, y)`` is ``y`` in both
    copies, so their XORs (a two-input one and a three-input chain) and
    their MUX (its select free from frame 1 on) share a normal form with
    inputs no constant decides.
    """
    pair = []
    for keyed in (True, False):
        circuit = Circuit("splits" if keyed else "splits_original")
        for net in ("x", "y", "z"):
            circuit.add_input(net)
        if keyed:
            circuit.add_input("k", is_key=True)
            circuit.add_gate("a", GateType.AND, ["k", "y"])
        else:
            circuit.add_gate("a", GateType.BUF, ["y"])
        circuit.add_gate("t", GateType.XOR, ["x", "a"])
        circuit.add_gate("t3", GateType.XOR, ["z", "a", "q"])
        circuit.add_gate("m", GateType.MUX, ["q", "a", "z"])
        circuit.add_gate("d", GateType.XOR, ["t", "m"])
        circuit.add_dff("q", "d", init=0)
        for out in ("t", "t3", "m"):
            circuit.add_output(out)
        pair.append(circuit)
    return pair[0], pair[1]


def _wide_pair() -> Tuple[Circuit, Circuit]:
    """A locked circuit whose key copies' XORs merge only past the split bound, and its original.

    Once the key bit is fixed to 1, ``a = AND(k, y)`` is ``y`` in both
    copies, so their outputs ``w``, the XOR of ``a`` and ``_MAX_SPLITS + 1``
    more inputs, share a normal form whose proof needs ``_MAX_SPLITS + 1``
    case splits.  Output ``a`` lets the first observation fix the key.
    """
    wide = [f"u{index}" for index in range(_MAX_SPLITS + 1)]
    pair = []
    for keyed in (True, False):
        circuit = Circuit("wide" if keyed else "wide_original")
        for net in ["y", *wide]:
            circuit.add_input(net)
        if keyed:
            circuit.add_input("k", is_key=True)
            circuit.add_gate("a", GateType.AND, ["k", "y"])
        else:
            circuit.add_gate("a", GateType.BUF, ["y"])
        circuit.add_gate("w", GateType.XOR, [*wide, "a"])
        for out in ("a", "w"):
            circuit.add_output(out)
        pair.append(circuit)
    return pair[0], pair[1]


def _locked(scheme: str, seed: int) -> Tuple[Circuit, Circuit]:
    """(locked circuit, original) of one corpus entry."""
    if scheme == "splits":
        return _split_pair()
    if scheme == "wide":
        return _wide_pair()
    circuit = synthesize_fsm(random_fsm(4 + seed % 3, 1, 1, seed=seed))
    if scheme == "rll":
        locked = lock_rll(circuit, 2 + seed % 2, seed=seed)
    else:
        locked = CuteLockStr(
            num_keys=2, key_width=1 + seed % 2, num_locked_ffs=1, seed=seed,
        ).lock(circuit)
    return locked.circuit, locked.original


def _run_passes(scheme: str, seed: int) -> Tuple[TseitinEncoder, List[Tuple[int, int, int]]]:
    """Observe up to three DISes, running the pass after each on a fresh solver.

    The miter unrolls ``DEPTHS.get(scheme, 3)`` frames.

    Returns the encoder and, per pass, ``(clauses, lemmas before, lemmas
    after)``: the CNF length the pass saw and the slice of lemmas it added.
    """
    circuit, original = _locked(scheme, seed)
    keys = set(circuit.key_inputs)
    oracle = BatchedSequentialOracle(original)
    observed = set(oracle.output_nets)
    session = SolveSession()
    miter = _UnrolledMiter(
        session, circuit, [net for net in circuit.inputs if net not in keys],
        [out for out in circuit.outputs if out in observed], DEPTHS.get(scheme, 3),
        incremental=False,
    )
    encoder = miter.encoder
    passes: List[Tuple[int, int, int]] = []
    congruence = encoder.congruence

    def recorded(fixed):
        clauses, before = len(encoder.cnf.clauses), len(encoder.lemmas)
        merged = congruence(fixed)
        passes.append((clauses, before, len(encoder.lemmas)))
        return merged

    encoder.congruence = recorded
    for _ in range(3):
        if not miter.search():
            break
        dis = miter.dis()
        miter.observe(dis, oracle.query(dis))
        # The miter runs the pass only once key bits are fixed; run it on
        # every observation here.
        session.reset_solver()
        values = session.level0_values()
        if values is not None:
            encoder.congruence(values)
    return encoder, passes


def _free_variables(encoder: TseitinEncoder) -> List[int]:
    """The variables nodes read that no node defines: the miter's free inputs."""
    read = set()
    for key in encoder._defs.values():
        fanins = key[1] if key[0] != "mux" else key[1:]
        read.update(abs(lit) for lit in fanins)
    return sorted(read - set(encoder._defs) - {encoder.constant(True)})


def _models(encoder: TseitinEncoder, clauses: int) -> Iterator[Dict[int, int]]:
    """Every assignment of the free inputs that satisfies ``cnf.clauses[:clauses]``.

    Nodes take the value of their definition; clauses over variables no
    node defines (XOR-chain and comparator auxiliaries) are definitional
    and skipped.
    """
    free = _free_variables(encoder)
    true = encoder.constant(True)
    cnf = encoder.cnf.clauses[:clauses]
    for bits in itertools.product((0, 1), repeat=len(free)):
        value = dict(zip(free, bits))
        value[true] = 1

        def lit(literal: int) -> int:
            bit = value[abs(literal)]
            return bit if literal > 0 else 1 - bit

        for node, key in encoder._defs.items():
            if key[0] == "and":
                value[node] = int(all(lit(fanin) for fanin in key[1]))
            elif key[0] == "xor":
                value[node] = sum(value[var] for var in key[1]) % 2
            else:
                value[node] = lit(key[3]) if lit(key[1]) else lit(key[2])
        if all(any(lit(l) for l in clause) for clause in cnf
               if all(abs(l) in value for l in clause)):
            yield value


CORPUS = [(scheme, seed) for scheme in ("cute-lock-str", "rll") for seed in SEEDS]
CORPUS.extend([("splits", 0), ("wide", 0)])


@pytest.mark.parametrize("scheme, seed", CORPUS)
def test_lemmas_are_entailed_and_replay_in_order(scheme, seed):
    encoder, passes = _run_passes(scheme, seed)
    for clauses, before, after in passes:
        lemmas = encoder.lemmas[before:after]
        if not lemmas:
            continue
        # Brute force: every lemma holds in every model of the clauses the
        # pass saw (the earlier lemmas are entailed by them too).
        models = 0
        for value in _models(encoder, clauses):
            models += 1
            for lemma in lemmas:
                assert any(value[abs(l)] == (l > 0) for l in lemma), lemma
        assert models, "the observations left no model"
        # RUP: replayed in order over the input clauses and earlier lemmas.
        checker = RupChecker(encoder.cnf.clauses[:clauses], encoder.cnf.num_vars)
        assert not checker.contradiction
        for lemma in encoder.lemmas[:before]:
            checker.add(lemma)
        for lemma in lemmas:
            assert checker.is_rup(lemma), lemma
            checker.add(lemma)


def test_corpus_needs_units_and_case_splits():
    """The corpus is not vacuous: it merges into the constant, merges two
    free literals, and needs case splits for an XOR and a MUX merge."""
    lengths = set()
    for scheme, seed in CORPUS:
        encoder, _ = _run_passes(scheme, seed)
        lengths.update(len(lemma) for lemma in encoder.lemmas)
    assert {1, 2, 3} <= lengths
    encoder, _ = _run_passes("splits", 0)
    split_kinds = set()
    for lemma in encoder.lemmas:
        if len(lemma) == 3:
            split_kinds.update(encoder._defs[abs(lit)][0] for lit in lemma
                               if abs(lit) in encoder._defs)
    assert {"xor", "mux"} <= split_kinds


def test_merged_varmap_reads_representatives():
    """After a pass every net and every node-table entry reads its class
    representative, so gates encoded later hash over representatives."""
    encoder, passes = _run_passes("splits", 0)
    assert passes and encoder.lemmas
    find = encoder._find
    assert all(find(lit) == lit for lit in encoder.varmap.values())
    assert all(find(lit) == lit for lit in encoder._nodes.values())


def test_a_merge_past_the_split_bound_is_skipped():
    """The two copies' ``w`` share a normal form, but proving it would take
    more than ``_MAX_SPLITS`` case splits: the pass leaves them apart (its
    other lemmas are checked with the corpus above)."""
    encoder, passes = _run_passes("wide", 0)
    assert passes and encoder.lemmas
    find = encoder._find
    w_a, w_b = encoder.var("A#t0@w"), encoder.var("B#t0@w")
    assert encoder._fold(encoder._defs[w_a], find) == encoder._fold(encoder._defs[w_b], find)
    assert abs(find(w_a)) != abs(find(w_b))
    # Their fanins did merge: both keys are the constant, both ``a`` are ``y``.
    assert encoder.is_constant(encoder.var("KA@k")) and encoder.is_constant(encoder.var("KB@k"))
    assert encoder.var("A#t0@a") == encoder.var("B#t0@a")
