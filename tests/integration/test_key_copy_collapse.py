"""The sequential attacks collapse their two key copies once the key is fixed.

After the first observation of a Table III/IV cell, unit propagation fixes
every bit of both key copies (``KA@``/``KB@``).  The miter then runs the
encoder's congruence pass, which merges copy ``B#`` into copy ``A#``: the
diff net is false and every later DIS search is refuted at level 0, at the
current depth and at every deeper one (new frames hash onto the merged
nodes).  These tests pin that on the benchmark's cells, together with each
cell's outcome, iteration and query counts and recovered key, which must
not move: the pass only adds entailed clauses.

In certified mode the pass's clauses are DRUP lemmas in the proof, never
input clauses of a certificate.  Each pass gets a certificate of its own
whose proof replays its lemmas over the clauses the pass read, so
tampering with one is caught even once the copies are one and every later
DIS certificate is contradictory by its CNF alone.  KC2's crunch probes
run on a lock whose observations leave key bits free.
"""

from pathlib import Path
from typing import Dict, List, Tuple

import pytest

from repro.attacks import bmc_attack, kc2_attack
from repro.check.certify import RupChecker, load_dimacs
from repro.cli import main as cli_main
from repro.experiments.table3 import run_table3_cell, table3_jobs
from repro.experiments.table4 import run_table4_cell, table4_jobs
from repro.fsm.random_fsm import random_fsm
from repro.fsm.synthesis import synthesize_fsm
from repro.locking.baselines import lock_rll
from repro.locking.cutelock_str import CuteLockStr
from repro.sat.session import SolveSession
from repro.sat.solver import Solver
from repro.sat.tseitin import TseitinEncoder
from repro.trace import read_trace_events
from repro.trace.writer import trace_to

#: The key every bcomp cell extracts (Table III default lock seed 3).
BCOMP_KEY = dict(zip(
    (f"keyinput{bit}" for bit in range(18)),
    (0, 1, 1, 1, 1, 0, 0, 1, 1, 1, 0, 1, 0, 1, 1, 0, 0, 1),
))

#: (table, circuit, attack, key, conflicts of the first, satisfiable, DIS search).
CELLS = [
    (3, "bcomp", "BBO", BCOMP_KEY, 0),
    (3, "bcomp", "INT", BCOMP_KEY, 0),
    (3, "bcomp", "KC2", BCOMP_KEY, 0),
    (4, "s27", "BBO", {"keyinput0": 0, "keyinput1": 1}, 4),
]


def _traced_cell(table: int, circuit: str, attack: str, tmp_path) -> Tuple[Dict, List]:
    """Run one cell under a stride-1 trace: its result and its DIS searches.

    Each search is ``(depth, answer, conflicts)``.
    """
    if table == 3:
        job = table3_jobs(benchmarks=[circuit], attacks=[attack], time_limit=600.0)[0]
        run_cell = run_table3_cell
    else:
        job = table4_jobs(benchmarks=[circuit], attacks=[attack], time_limit=600.0)[0]
        run_cell = run_table4_cell
    path = tmp_path / "cell.trace.jsonl"
    with trace_to(path, stride=1):
        payload = run_cell(job.params)
    events = read_trace_events(path)
    depths = [event["depth"] for event in events if event["kind"] == "attack-round"]
    answers = [
        (event["answer"], event["conflicts"]) for event in events
        if event["kind"] == "solve-end" and event["phase"] == "dis-search"
    ]
    assert len(depths) == len(answers)
    return payload["result"], [(depth, *answer) for depth, answer in zip(depths, answers)]


@pytest.mark.parametrize("table, circuit, attack, key, first_conflicts", CELLS)
def test_every_search_after_the_first_observation_is_refuted_at_level_0(
    table, circuit, attack, key, first_conflicts, tmp_path
):
    result, searches = _traced_cell(table, circuit, attack, tmp_path)
    assert searches == [
        (2, "sat", first_conflicts),
        (2, "unsat", 0),
        (4, "unsat", 0),
        (8, "unsat", 0),
    ]
    # Outcome, iterations, queries and key as before the pass existed.
    assert result["outcome"] == "wrong-key"
    assert result["iterations"] == 1
    assert result["details"]["oracle_queries"] == 1
    assert result["key"] == key
    assert result["details"]["key_fixed"] == {"depth": 2, "observations": 1}
    assert result["details"]["merged_literals"] > 0


def test_kc2_skips_the_key_bits_the_pass_made_constant(tmp_path):
    """Every key bit is constant before the crunch runs, so KC2 probes none."""
    path = tmp_path / "kc2.trace.jsonl"
    job = table3_jobs(benchmarks=["bcomp"], attacks=["KC2"], time_limit=600.0)[0]
    with trace_to(path, stride=1):
        run_table3_cell(job.params)
    phases = [event["phase"] for event in read_trace_events(path)
              if event["kind"] == "solve-end"]
    assert "crunch" not in phases


def _loads_contradictory(cnf: Path) -> bool:
    """Whether unit propagation refutes the certificate's CNF as it loads."""
    dimacs = load_dimacs(str(cnf))
    return RupChecker(dimacs.clauses, dimacs.num_vars).contradiction


def _certified_bmc(locked, proof_dir: Path, monkeypatch) -> Tuple[Dict, TseitinEncoder, int]:
    """BBO in certified mode: the result's details, the miter's encoder, and
    how many CNF clauses the encoder held when its first pass ran."""
    encoders: List[Tuple[TseitinEncoder, int]] = []
    congruence = TseitinEncoder.congruence

    def spy(self, fixed):
        encoders.append((self, len(self.cnf.clauses)))
        return congruence(self, fixed)

    monkeypatch.setattr(TseitinEncoder, "congruence", spy)
    result = bmc_attack(locked, time_limit=60.0, proof_dir=proof_dir)
    assert len({id(encoder) for encoder, _ in encoders}) == 1
    return result.details, *encoders[0]


def _no_lemma_is_an_input_clause(proof_dir: Path, encoder: TseitinEncoder, read: int) -> None:
    """No certificate's CNF holds a lemma, except as a clause encoded before
    the first pass (a lemma may repeat a gate's own clause)."""
    lemmas = {frozenset(lemma) for lemma in encoder.lemmas}
    before = {frozenset(clause) for clause in encoder.cnf.clauses[:read]}
    for cnf in proof_dir.glob("*.cnf"):
        clauses = {frozenset(clause) for clause in load_dimacs(str(cnf)).clauses}
        assert lemmas & clauses <= before, cnf.name


def _cute_lock_cell():
    """A Cute-Lock-Str lock whose first observation fixes both key copies."""
    circuit = synthesize_fsm(random_fsm(8, 2, 2, seed=5))
    return CuteLockStr(num_keys=4, key_width=2, num_locked_ffs=2, seed=3).lock(circuit)


def _check_proof(drup: Path, capsys) -> Tuple[int, str]:
    """``repro check proof`` on one pair: its exit code and stderr."""
    capsys.readouterr()
    code = cli_main(["check", "proof", str(drup.with_suffix(".cnf")), str(drup)])
    return code, capsys.readouterr().err


def test_the_pass_certificate_replays_its_lemmas_after_a_full_merge(tmp_path, monkeypatch, capsys):
    """On a Cute-Lock-Str cell the first observation fixes both keys and the
    copies merge.  Every later DIS certificate is then contradictory by its
    CNF alone; the pass's own certificate is not, and replays the lemmas."""
    proof_dir = tmp_path / "proofs"
    details, encoder, read = _certified_bmc(_cute_lock_cell(), proof_dir, monkeypatch)
    assert details["key_fixed"] == {"depth": 2, "observations": 1}
    passes = sorted(proof_dir.glob("*-c*.drup"))
    searches = sorted(proof_dir.glob("*-q*.drup"))
    assert len(passes) == 1 and len(searches) == 4
    assert details["certificates"] == len(passes) + len(searches)
    assert all(_loads_contradictory(drup.with_suffix(".cnf")) for drup in searches)
    _no_lemma_is_an_input_clause(proof_dir, encoder, read)
    (drup,) = passes
    assert not _loads_contradictory(drup.with_suffix(".cnf"))
    assert all(_check_proof(pair, capsys)[0] == 0 for pair in passes + searches)
    steps = [tuple(int(token) for token in line.split()[:-1])
             for line in drup.read_text().splitlines()]
    assert steps[: len(encoder.lemmas)] == encoder.lemmas


def test_a_wrong_lemma_is_rejected_after_a_full_merge(tmp_path, monkeypatch, capsys):
    """Make the pass emit a lemma its clauses do not entail (one literal
    flipped): the pass's certificate is rejected at that lemma's line."""
    locked = _cute_lock_cell()
    _, encoder, _ = _certified_bmc(locked, tmp_path / "proofs", monkeypatch)
    (drup,) = (tmp_path / "proofs").glob("*-c*.drup")
    clauses = load_dimacs(str(drup.with_suffix(".cnf"))).clauses
    selectors = {abs(lit) for lit in clauses[-1]}
    model = Solver()
    model.add_clauses(clause for clause in clauses if not selectors & {abs(lit) for lit in clause})
    wrong = [index for index, (head, *tail) in enumerate(encoder.lemmas)
             if model.solve(assumptions=[head, *(-lit for lit in tail)]) is True]
    assert len(wrong) > len(encoder.lemmas) // 2
    congruence = TseitinEncoder.congruence
    for index in wrong[:: max(1, len(wrong) // 4)]:
        def tampered(self, fixed, index=index):
            first = len(self.lemmas)
            merged = congruence(self, fixed)
            if first <= index < len(self.lemmas):
                head, *tail = self.lemmas[index]
                self.lemmas[index] = (-head, *tail)
            return merged

        monkeypatch.setattr(TseitinEncoder, "congruence", tampered)
        proof_dir = tmp_path / f"wrong-{index}"
        bmc_attack(locked, time_limit=60.0, proof_dir=proof_dir)
        (drup,) = proof_dir.glob("*-c0001.drup")
        head, *tail = encoder.lemmas[index]
        line = drup.read_text().splitlines().index(" ".join(map(str, (-head, *tail, 0))))
        code, err = _check_proof(drup, capsys)
        assert code == 1
        assert f"{drup}:{line + 1}: clause" in err


def test_a_tampered_lemma_is_rejected_in_a_search_certificate(tmp_path, monkeypatch, capsys):
    """On this RLL lock the first observation fixes the keys only partly, so
    the refutation that follows needs search and its certificate's CNF is
    not contradictory by itself: its proof replays the lemmas as RUP steps,
    and flipping one in the file gets it rejected at that line."""
    circuit = synthesize_fsm(random_fsm(4, 1, 1, seed=12))
    proof_dir = tmp_path / "proofs"
    details, encoder, read = _certified_bmc(lock_rll(circuit, 2, seed=12), proof_dir,
                                            monkeypatch)
    assert details["key_fixed"] is None
    (search,) = proof_dir.glob("*-q*.drup")
    assert details["certificates"] == 2
    _no_lemma_is_an_input_clause(proof_dir, encoder, read)
    assert not _loads_contradictory(search.with_suffix(".cnf"))
    assert _check_proof(search, capsys)[0] == 0
    lines = search.read_text().splitlines()
    rejected = 0
    for index, line in enumerate(lines):
        literals = [int(token) for token in line.split()[:-1]]
        if tuple(literals) not in encoder.lemmas:
            continue
        literals[0] = -literals[0]
        search.write_text("\n".join(lines[:index] + [" ".join(map(str, literals)) + " 0"]
                                    + lines[index + 1:]) + "\n")
        code, err = _check_proof(search, capsys)
        assert code in (0, 1)
        if code == 1:
            rejected += 1
            assert f"{search}:{index + 1}: clause" in err
    assert rejected


def test_kc2_crunch_fixes_key_bits_and_its_certificates_replay(tmp_path, monkeypatch):
    """On this RLL lock the observations leave key bits free, so KC2 probes
    them.  A probe that answers UNSAT crunches its bit: the unit enters the
    CNF (its certificate is the probe's), the pass after the crunch makes
    the bit's literal constant, and every certificate replays."""
    probes: List[Tuple[SolveSession, int, bool]] = []
    solve = SolveSession.solve

    def spy(self, assumptions=None, **kwargs):
        answer = solve(self, assumptions, **kwargs)
        if kwargs.get("phase") == "crunch":
            probes.append((self, assumptions[0], answer))
        return answer

    monkeypatch.setattr(SolveSession, "solve", spy)
    path = tmp_path / "kc2.trace.jsonl"
    proof_dir = tmp_path / "proofs"
    circuit = synthesize_fsm(random_fsm(3, 1, 1, seed=20))
    with trace_to(path, stride=1):
        result = kc2_attack(lock_rll(circuit, 4, seed=20), time_limit=60.0, proof_dir=proof_dir)
    assert result.outcome.value == "correct"
    crunch = [event["answer"] for event in read_trace_events(path)
              if event["kind"] == "solve-end" and event["phase"] == "crunch"]
    assert crunch.count("unsat") == len([p for p in probes if p[2] is False]) >= 2
    units = set()
    for session, literal, answer in probes:
        if answer is False:
            encoder = session.encoder
            assert encoder.is_constant(encoder._find(literal))
            assert (-literal,) in encoder.cnf.clauses
            units.add(-literal)
    pairs = sorted(proof_dir.glob("*.drup"))
    assert len(pairs) == result.details["certificates"]
    assert any(pair.name.split("-")[-1].startswith("c") for pair in pairs)
    for pair in pairs:
        assert cli_main(["check", "proof", str(pair.with_suffix(".cnf")), str(pair)]) == 0
    # The crunched units are input clauses of the last DIS certificate.
    last = max(proof_dir.glob("*-q*.cnf"))
    assert units <= {clause[0] for clause in load_dimacs(str(last)).clauses if len(clause) == 1}
