"""Command-line interface.

``python -m repro <command>`` exposes the main workflows without writing any
Python:

* ``lock``      — lock a ``.bench`` netlist with Cute-Lock-Str (or a baseline)
  and write the locked ``.bench`` plus the key schedule;
* ``attack``    — run one of the attacks against a locked ``.bench`` netlist
  given the oracle netlist (exit 0: defense held, 1: key recovered,
  2: attack error);
* ``overhead``  — report the 45 nm-model overhead of a locked netlist;
* ``benchmarks`` — list the bundled benchmark suites and their parameters;
* ``reproduce`` — regenerate the paper's evaluation (same as
  ``examples/reproduce_paper.py``);
* ``campaign``  — run / resume / inspect a parallel experiment campaign
  (``campaign run|status|resume|report``, see :mod:`repro.campaign`);
  ``campaign report --latex`` emits the paper's tables from its store.
* ``trace``     — analyse structured event traces recorded with ``attack
  --trace`` / ``campaign run --trace`` (``trace summary|timeline|diff``,
  see :mod:`repro.trace` and ``TRACE_FORMAT.md``).
* ``check``     — static checks and certificates over the repo's unchecked
  invariants (``check lint|cnf|proof|equiv``, see :mod:`repro.check` and
  ``CHECKS.md``): the repo-specific AST linter, the CNF well-formedness
  checker, the independent DRUP proof checker (replaying ``attack
  --certify`` certificates) and SAT-based translation validation of the
  engine compiler.  Exit 0 clean, 1 findings, 2 error.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from pathlib import Path
from typing import Callable, Dict, List, Optional

from repro.attacks import (
    appsat_attack,
    bmc_attack,
    double_dip_attack,
    int_attack,
    kc2_attack,
    rane_attack,
    sat_attack,
)
from repro.attacks.results import GRID_TIME_LIMIT
from repro.benchmarks_data import (
    ISCAS89_PROFILES,
    ITC99_PROFILES,
    SYNTHEZZA_PROFILES,
)
from repro.locking.base import LockingError
from repro.locking.baselines import lock_dklock, lock_harpoon, lock_rll, lock_sarlock, lock_ttlock
from repro.locking.cutelock_str import CuteLockStr
from repro.netlist.bench import load_bench, save_bench
from repro.netlist.circuit import CircuitError
from repro.synthesis.overhead import analyze_circuit

_ATTACKS: Dict[str, Callable] = {
    "sat": sat_attack,
    "appsat": appsat_attack,
    "double-dip": double_dip_attack,
    "bmc": bmc_attack,
    "int": int_attack,
    "kc2": kc2_attack,
    "rane": rane_attack,
}

#: Grid names for ``campaign run --grid``.  Mirrors
#: ``repro.experiments.campaigns.GRIDS`` (asserted equal by the tests) so
#: building the parser never imports the experiments stack.
_CAMPAIGN_GRIDS = ("full", "table1", "table2", "table3", "table4", "table5",
                   "figure4", "smoke")


#: What a missing or malformed netlist or an impossible lock parameter
#: raises; ``lock`` and ``overhead`` report it as one line and exit 2.
_INPUT_ERRORS = (OSError, CircuitError, LockingError)


def _lock(circuit, args: argparse.Namespace):
    """Lock ``circuit`` with the scheme and parameters named on the command line."""
    if args.scheme == "cute-lock-str":
        transform = CuteLockStr(
            num_keys=args.keys, key_width=args.key_width,
            num_locked_ffs=args.locked_ffs, seed=args.seed,
        )
        return transform.lock(circuit)
    if args.scheme == "rll":
        return lock_rll(circuit, args.key_width, seed=args.seed)
    if args.scheme == "sarlock":
        return lock_sarlock(circuit, num_key_bits=args.key_width, seed=args.seed)
    if args.scheme == "ttlock":
        return lock_ttlock(circuit, num_key_bits=args.key_width, seed=args.seed)
    if args.scheme == "harpoon":
        return lock_harpoon(circuit, key_width=args.key_width, seed=args.seed)
    if args.scheme == "dk-lock":
        return lock_dklock(circuit, key_width=args.key_width, seed=args.seed)
    raise ValueError(f"unknown scheme {args.scheme}")  # pragma: no cover - argparse choices


def _cmd_lock(args: argparse.Namespace) -> int:
    output = Path(args.output or f"{Path(args.netlist).stem}_{args.scheme}.bench")
    secret_path = output.with_suffix(".key.json")
    try:
        locked = _lock(load_bench(args.netlist), args)
        save_bench(locked.circuit, output, header=f"locked with {locked.scheme}")
        secret = {
            "scheme": locked.scheme,
            "key_inputs": locked.key_inputs,
            "key_width": locked.key_width,
            "schedule": list(locked.schedule.values),
            "locked_ffs": locked.locked_ffs,
        }
        secret_path.write_text(json.dumps(secret, indent=2))
    except _INPUT_ERRORS as exc:
        print(f"lock error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(f"locked netlist : {output}")
    print(f"key schedule   : {secret_path}")
    print(f"summary        : {locked.describe()}")
    return 0


def _emit_json(payload: Dict[str, object], destination: Optional[str]) -> None:
    """Write ``payload`` to ``destination`` (``"-"`` = stdout)."""
    text = json.dumps(payload, indent=2)
    if destination == "-":
        print(text)
    else:
        Path(destination).write_text(text)  # type: ignore[arg-type]
        print(f"result written to {destination}")


def _cmd_attack(args: argparse.Namespace) -> int:
    """Run one attack.  Exit codes: 0 defense held, 1 key recovered, 2 error.

    The machine-readable surface (``--json``, the exit codes) is shared with
    campaign workers and scripts: a crash inside the attack is reported as
    structured output and exit code 2 instead of a traceback.
    """
    attack = _ATTACKS[args.attack]
    kwargs: Dict[str, object] = {"time_limit": args.time_limit}
    parameters = inspect.signature(attack).parameters
    certify_dir: Optional[Path] = None
    if args.certify:
        if "proof_dir" in parameters:
            certify_dir = Path(args.certify)
            kwargs["proof_dir"] = certify_dir
        else:
            print(f"note: {args.attack} has no certified mode; --certify ignored",
                  file=sys.stderr)
    trace_path: Optional[Path] = None
    if args.trace:
        trace_path = Path(args.trace) / f"{args.attack}.trace.jsonl"
    try:
        locked = load_bench(args.locked)
        oracle = load_bench(args.oracle)
        if not args.no_validate:
            # Strict structural validation at the ingestion boundary: a
            # malformed locked/oracle netlist (transform bug, truncated
            # file) fails fast here as exit 2 instead of mid-attack.
            from repro.netlist.validate import validate_circuit

            validate_circuit(locked, strict=True)
            validate_circuit(oracle, strict=True)
        if trace_path is not None:
            from repro.trace import trace_to

            with trace_to(trace_path, metadata={
                "attack": args.attack,
                "locked": str(args.locked),
            }):
                result = attack(locked, oracle, **kwargs)
        else:
            result = attack(locked, oracle, **kwargs)
    except Exception as exc:
        print(f"attack error: {type(exc).__name__}: {exc}", file=sys.stderr)
        if args.json:
            _emit_json({
                "attack": args.attack,
                "error": f"{type(exc).__name__}: {exc}",
            }, args.json)
        return 2
    print(result.summary())
    if trace_path is not None:
        print(f"trace written to {trace_path}")
    if certify_dir is not None:
        count = result.details.get("certificates", 0)
        print(f"{count} UNSAT certificate pair(s) in {certify_dir} "
              f"(verify with `repro check proof CNF PROOF`)")
    if args.json:
        payload = result.to_dict()
        if trace_path is not None:
            payload["trace"] = str(trace_path)
        _emit_json(payload, args.json)
    return 0 if not result.broke_defense else 1


def _cmd_overhead(args: argparse.Namespace) -> int:
    if args.vectors < 2:
        # Toggles are counted between consecutive vectors: fewer than two
        # would report zero dynamic power.
        print(f"overhead error: --vectors must be >= 2, got {args.vectors}",
              file=sys.stderr)
        return 2
    try:
        circuit = load_bench(args.netlist)
        cost = analyze_circuit(circuit, activity_vectors=args.vectors)
    except _INPUT_ERRORS as exc:
        print(f"overhead error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    print(f"circuit    : {circuit.name}")
    print(f"power (uW) : {cost.power_uw:.2f}")
    print(f"area (um2) : {cost.area_um2:.2f}")
    print(f"cells      : {cost.cell_count}")
    print(f"IOs        : {cost.io_count}")
    print(f"flip-flops : {cost.num_dffs}")
    return 0


def _cmd_benchmarks(args: argparse.Namespace) -> int:
    if args.suite in ("synthezza", "all"):
        print("# Synthezza-style FSM benchmarks (Table III)")
        for name, profile in SYNTHEZZA_PROFILES.items():
            print(f"  {name:10s} group={profile.group:6s} states={profile.num_states:3d} "
                  f"k={profile.num_keys:2d} ki={profile.key_width:2d}")
    if args.suite in ("iscas89", "all"):
        print("# ISCAS'89-style benchmarks (Table IV)")
        for name, profile in ISCAS89_PROFILES.items():
            print(f"  {name:8s} inputs={profile.num_inputs:3d} dffs={profile.num_dffs:3d} "
                  f"k={profile.num_keys:2d} ki={profile.key_width:2d}")
    if args.suite in ("itc99", "all"):
        print("# ITC'99-style benchmarks (Tables IV/V, Figure 4)")
        for name, profile in ITC99_PROFILES.items():
            print(f"  {name:4s} inputs={profile.num_inputs:3d} dffs={profile.num_dffs:3d} "
                  f"k={profile.num_keys:2d} ki={profile.key_width:2d}")
    return 0


def _cmd_reproduce(args: argparse.Namespace) -> int:
    from repro.experiments import run_all

    run_all(quick=not args.full, attack_time_limit=args.time_limit,
            output_path=args.output, latex_path=args.latex,
            workers=args.workers, store_path=args.store,
            job_timeout=args.job_timeout)
    return 0


def _worker_count(text: str) -> int:
    """Parse ``--workers`` (0 = serial in-process, N = a pool of N)."""
    try:
        workers = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}")
    if workers < 0:
        raise argparse.ArgumentTypeError(f"must be >= 0, got {workers}")
    return workers


def _positive_seconds(text: str) -> float:
    """Parse a positive number of seconds (``--time-limit``, ``--job-timeout``)."""
    try:
        seconds = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}")
    if not seconds > 0:
        raise argparse.ArgumentTypeError(f"must be > 0 seconds, got {text}")
    return seconds


def _campaign_spec(args: argparse.Namespace, store) -> "object":
    """Resolve the campaign spec for one ``campaign`` subcommand.

    ``run`` always builds the grid from its flags (``--grid``/``--full``/
    ``--time-limit``) and persists it as the store's
    manifest — so changed flags take effect instead of being silently
    shadowed by an older manifest; cells unchanged by the flags keep their content-hashed
    keys and are still skipped.  ``resume``/``status``/``report`` always use
    the stored manifest.
    """
    if args.command_campaign == "run":
        from repro.experiments.campaigns import build_campaign

        return build_campaign(
            args.grid or "full",
            quick=not args.full,
            attack_time_limit=args.time_limit,
        )
    if store.has_manifest():
        return store.read_manifest()
    raise SystemExit(
        f"no campaign manifest in {args.store}; start one with "
        "`python -m repro campaign run --store ...`"
    )


def _cmd_campaign(args: argparse.Namespace) -> int:
    from repro.campaign import (
        ResultStore,
        campaign_status,
        progress_printer,
        render_status,
        run_campaign,
    )
    from repro.experiments.campaigns import aggregate_campaign, campaign_latex
    from repro.experiments.runner import write_report

    store = ResultStore(args.store)
    spec = _campaign_spec(args, store)

    if args.command_campaign in ("run", "resume"):
        quiet = getattr(args, "quiet", False)
        if not quiet:
            mode = f"{args.workers} workers" if args.workers else "serial"
            print(f"campaign {spec.name}: {len(spec.jobs)} jobs ({mode})",
                  flush=True)
        summary = run_campaign(
            spec, store,
            workers=args.workers,
            job_timeout=args.job_timeout,
            retry_failed=args.retry_failed,
            progress=None if quiet else progress_printer(),
            trace_dir=getattr(args, "trace", None),
        )
        status = campaign_status(spec, store)
        print(render_status(status))
        if args.report:
            tables = aggregate_campaign(spec, store)
            write_report(tables, args.report, elapsed=summary.wall_seconds)
            print(f"report written to {args.report}")
        # Non-zero when the sweep is not clean, so CI and scripts can gate
        # on a fully-completed campaign without parsing the status text.
        return 0 if status.finished and not (status.errors or status.timeouts) else 1

    if args.command_campaign == "status":
        print(render_status(campaign_status(spec, store)))
        return 0

    if args.command_campaign == "report":
        if args.latex:
            text = campaign_latex(
                spec, store, redact_runtimes=args.redact_runtimes
            )
            if args.output:
                Path(args.output).write_text(text)
                print(f"LaTeX tables written to {args.output}")
            else:
                print(text)
            return 0
        tables = aggregate_campaign(
            spec, store, redact_runtimes=args.redact_runtimes
        )
        if args.output:
            write_report(tables, args.output)
            print(f"report written to {args.output}")
        else:
            for table in tables.values():
                print(table.to_text())
                print()
        return 0

    raise SystemExit(f"unknown campaign command {args.command_campaign!r}")


def _cmd_trace(args: argparse.Namespace) -> int:
    """Analyse event-trace files (see repro.trace / TRACE_FORMAT.md)."""
    from repro.trace import (
        diff_traces,
        render_diff,
        render_summary,
        render_timeline,
        summarize_trace,
    )

    command = args.command_trace
    payload = None
    # A missing file, a directory, a newer trace schema or a bad bucket
    # count is one error line and exit 2, not a traceback.
    try:
        if command == "summary":
            payload = summarize_trace(args.trace)
            text = render_summary(payload)
        elif command == "timeline":
            text = render_timeline(args.trace, buckets=args.buckets)
        elif command == "diff":
            payload = diff_traces(args.a, args.b)
            text = render_diff(payload)
        else:
            raise SystemExit(f"unknown trace command {command!r}")
    except (OSError, ValueError) as exc:
        print(f"trace {command}: {exc}", file=sys.stderr)
        return 2
    print(text)
    if payload is not None and args.json:
        _emit_json(payload, args.json)
    return 0


def _cmd_check(args: argparse.Namespace) -> int:
    """Static checks (see repro.check / CHECKS.md).

    Exit codes: 0 = clean, 1 = findings/violations, 2 = analysis error.
    """
    if args.command_check == "lint":
        from repro.check.lint import lint_paths, render_findings

        paths = args.paths or ["src"]
        missing = [path for path in paths if not Path(path).exists()]
        if missing:
            print(f"check lint: no such path: {', '.join(missing)}",
                  file=sys.stderr)
            return 2
        findings = lint_paths(paths)
        if args.json:
            _emit_json({
                "findings": [finding.to_dict() for finding in findings],
                "count": len(findings),
            }, args.json)
        else:
            print(render_findings(findings))
        return 1 if findings else 0

    if args.command_check == "cnf":
        from repro.check.certify.dimacs import DimacsError, load_dimacs
        from repro.check.solver import check_cnf

        # Standard multi-line DIMACS parse (clauses are 0-terminated token
        # streams), so external instances read the same way drat-trim and
        # the competition solvers read them; malformed *clauses* survive
        # parsing and the checker names each violation.
        try:
            dimacs = load_dimacs(args.cnf)
        except OSError as exc:
            print(f"check cnf: {exc}", file=sys.stderr)
            return 2
        except DimacsError as exc:
            print(f"check cnf: {exc}", file=sys.stderr)
            return 2
        violations = check_cnf(dimacs.clauses, num_vars=dimacs.header_vars)
        if violations:
            for violation in violations:
                print(violation.render())
            print(f"{len(violations)} violation(s) in {args.cnf}")
            return 1
        print(f"check cnf: {args.cnf}: {len(dimacs.clauses)} clauses ok")
        return 0

    if args.command_check == "proof":
        from repro.check.certify.dimacs import DimacsError
        from repro.check.certify.drup import ProofError, check_certificate

        try:
            stats = check_certificate(args.cnf, args.proof)
        except (OSError, DimacsError) as exc:
            print(f"check proof: {exc}", file=sys.stderr)
            return 2
        except ProofError as exc:
            print(f"check proof: {exc}", file=sys.stderr)
            return 1
        print(f"check proof: {args.proof}: UNSAT verified ({stats.render()})")
        return 0

    if args.command_check == "equiv":
        from repro.check.certify.equiv import (
            fixture_names,
            load_fixture,
            validate_circuit,
        )
        from repro.check.program import KernelVerificationError
        from repro.netlist.circuit import CircuitError

        if args.all_fixtures:
            names = fixture_names()
        elif args.circuit:
            names = [args.circuit]
        else:
            print("check equiv: pass --circuit NAME|PATH or --all-fixtures",
                  file=sys.stderr)
            return 2
        diverged = 0
        for name in names:
            try:
                if not args.all_fixtures and Path(name).exists():
                    circuit = load_bench(name)
                else:
                    circuit = load_fixture(name)
                report = validate_circuit(
                    circuit,
                    proof_dir=args.proof_dir,
                    check_proofs=not args.skip_proofs,
                )
            except KeyError as exc:
                print(f"check equiv: {exc.args[0]}", file=sys.stderr)
                return 2
            except KernelVerificationError as exc:
                # The op list is not even structurally valid: that is a
                # finding about the compiled program, not an analysis error.
                print(f"check equiv: {exc}", file=sys.stderr)
                return 1
            except (OSError, CircuitError) as exc:
                print(f"check equiv: {type(exc).__name__}: {exc}", file=sys.stderr)
                return 2
            print(report.render(), flush=True)
            if not report.ok:
                diverged += 1
        return 1 if diverged else 0

    raise SystemExit(f"unknown check command {args.command_check!r}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    lock = sub.add_parser("lock", help="lock a .bench netlist")
    lock.add_argument("netlist")
    lock.add_argument("--scheme", default="cute-lock-str",
                      choices=["cute-lock-str", "rll", "sarlock", "ttlock",
                               "harpoon", "dk-lock"])
    lock.add_argument("--keys", type=int, default=4, help="number of key values (k)")
    lock.add_argument("--key-width", type=int, default=2, help="bits per key value (ki)")
    lock.add_argument("--locked-ffs", type=int, default=1)
    lock.add_argument("--seed", type=int, default=0)
    lock.add_argument("--output")
    lock.set_defaults(func=_cmd_lock)

    attack = sub.add_parser(
        "attack", help="attack a locked .bench netlist",
        description="Exit codes: 0 = defense held, 1 = working key recovered, "
                    "2 = attack error.")
    attack.add_argument("locked")
    attack.add_argument("oracle")
    attack.add_argument("--attack", default="sat", choices=sorted(_ATTACKS))
    attack.add_argument("--time-limit", type=_positive_seconds, default=60.0)
    attack.add_argument("--json", nargs="?", const="-", default=None,
                        metavar="PATH",
                        help="emit the full result as JSON (to PATH, or to "
                             "stdout when no path is given)")
    attack.add_argument("--trace", default=None, metavar="DIR",
                        help="record a structured event trace to "
                             "DIR/<attack>.trace.jsonl (analyse "
                             "with 'repro trace', see TRACE_FORMAT.md)")
    attack.add_argument("--no-validate", action="store_true",
                        help="skip the strict structural validation of the "
                             "locked and oracle netlists (escape hatch for "
                             "deliberately malformed inputs)")
    attack.add_argument("--certify", default=None, metavar="DIR",
                        help="certified mode: log DRUP proofs and write a "
                             "CNF+proof certificate pair into DIR for every "
                             "UNSAT solver answer (verify each with "
                             "'repro check proof', see CHECKS.md)")
    attack.set_defaults(func=_cmd_attack)

    overhead = sub.add_parser("overhead", help="report 45nm-model cost of a netlist")
    overhead.add_argument("netlist")
    overhead.add_argument("--vectors", type=int, default=64)
    overhead.set_defaults(func=_cmd_overhead)

    benches = sub.add_parser("benchmarks", help="list bundled benchmark suites")
    benches.add_argument("--suite", default="all",
                         choices=["all", "synthezza", "iscas89", "itc99"])
    benches.set_defaults(func=_cmd_benchmarks)

    reproduce = sub.add_parser("reproduce", help="regenerate the paper's evaluation")
    reproduce.add_argument("--full", action="store_true")
    reproduce.add_argument("--time-limit", type=_positive_seconds,
                           default=GRID_TIME_LIMIT)
    reproduce.add_argument("--output", default="experiments_report.md")
    reproduce.add_argument("--latex", default=None, metavar="PATH",
                           help="also write the tables as a LaTeX fragment")
    reproduce.add_argument("--workers", type=_worker_count, default=0,
                           help="worker processes (0 = serial in-process)")
    reproduce.add_argument("--store", default=None,
                           help="campaign store directory (enables resume)")
    reproduce.add_argument("--job-timeout", type=_positive_seconds, default=None,
                           help="per-cell wall-clock budget in seconds")
    reproduce.set_defaults(func=_cmd_reproduce)

    campaign = sub.add_parser(
        "campaign",
        help="run/resume/inspect a parallel experiment campaign",
        description="Parallel, resumable experiment sweeps backed by an "
                    "append-only JSONL store (see repro.campaign).  Run a "
                    "grid over --workers processes, then render it with "
                    "'report' (add --latex for the paper's tables).")
    campaign_sub = campaign.add_subparsers(dest="command_campaign", required=True)

    def _store_arg(p: argparse.ArgumentParser) -> None:
        p.add_argument("--store", required=True,
                       help="campaign store directory (manifest + results.jsonl)")

    def _exec_args(p: argparse.ArgumentParser) -> None:
        p.add_argument("--workers", type=_worker_count, default=0,
                       help="worker processes (0 = serial in-process)")
        p.add_argument("--job-timeout", type=_positive_seconds, default=None,
                       help="per-job wall-clock budget in seconds")
        p.add_argument("--retry-failed", action="store_true",
                       help="re-run jobs whose latest row is error/timeout")
        p.add_argument("--report", default=None,
                       help="write the aggregated Markdown report here afterwards")
        p.add_argument("--quiet", action="store_true",
                       help="suppress per-job progress lines")
        p.add_argument("--trace", default=None, metavar="DIR",
                       help="record a per-job event trace to "
                            "DIR/<jobkey>.trace.jsonl (the path lands on "
                            "each result record under 'trace')")

    campaign_run = campaign_sub.add_parser(
        "run", help="start (or continue) a campaign",
        description="Builds the grid from the flags below, (re)writes the "
                    "store's manifest, and runs it; cells whose content-"
                    "hashed key already has a completed row are skipped.  "
                    "Exit 0 only when every job completed cleanly.  Use "
                    "'resume' to continue the stored grid as-is.")
    _store_arg(campaign_run)
    campaign_run.add_argument("--grid", default=None, choices=list(_CAMPAIGN_GRIDS),
                              help="which grid to run (default: full)")
    campaign_run.add_argument("--full", action="store_true",
                              help="paper-sized benchmark lists instead of the "
                                   "quick subsets")
    campaign_run.add_argument("--time-limit", type=_positive_seconds,
                              default=GRID_TIME_LIMIT,
                              help="per-attack time budget in seconds")
    _exec_args(campaign_run)
    campaign_run.set_defaults(func=_cmd_campaign)

    campaign_resume = campaign_sub.add_parser(
        "resume", help="finish the missing cells of a stored campaign",
        description="Re-reads the store's manifest and runs only jobs without "
                    "a completed row (add --retry-failed to also re-run "
                    "error/timeout rows).")
    _store_arg(campaign_resume)
    _exec_args(campaign_resume)
    campaign_resume.set_defaults(func=_cmd_campaign)

    campaign_status_p = campaign_sub.add_parser(
        "status", help="show completed/timeout/error/remaining counts")
    _store_arg(campaign_status_p)
    campaign_status_p.set_defaults(func=_cmd_campaign)

    campaign_report = campaign_sub.add_parser(
        "report", help="aggregate stored results into the Markdown report")
    _store_arg(campaign_report)
    campaign_report.add_argument("--output", default=None,
                                 help="report path (default: print to stdout)")
    campaign_report.add_argument("--redact-runtimes", action="store_true",
                                 help="blank the wall-clock columns (stable "
                                      "output for diffs)")
    campaign_report.add_argument("--latex", action="store_true",
                                 help="emit the paper's LaTeX tables instead "
                                      "of the Markdown report")
    campaign_report.set_defaults(func=_cmd_campaign)

    trace = sub.add_parser(
        "trace", help="analyse structured event traces",
        description="Analyse .trace.jsonl files recorded with "
                    "'repro attack --trace' or 'campaign run --trace' "
                    "(format: TRACE_FORMAT.md).")
    trace_sub = trace.add_subparsers(dest="command_trace", required=True)

    trace_summary = trace_sub.add_parser(
        "summary", help="per-phase time breakdown of one trace")
    trace_summary.add_argument("trace", help=".trace.jsonl file")
    trace_summary.add_argument("--json", nargs="?", const="-", default=None,
                               metavar="PATH",
                               help="also emit the summary as JSON")
    trace_summary.set_defaults(func=_cmd_trace)

    trace_timeline = trace_sub.add_parser(
        "timeline", help="conflict-rate / learned-clause-rate buckets")
    trace_timeline.add_argument("trace", help=".trace.jsonl file")
    trace_timeline.add_argument("--buckets", type=int, default=20,
                                help="number of time slices (default 20)")
    trace_timeline.set_defaults(func=_cmd_trace)

    trace_diff = trace_sub.add_parser(
        "diff", help="A/B per-phase comparison of two traces of one job",
        description="Compare two traces of the same job (e.g. two runs of "
                    "one attack, or before/after a solver change): "
                    "per-phase seconds and conflicts, total counters, and "
                    "the maximum relative drift (0% for identical "
                    "traces).")
    trace_diff.add_argument("a", help="baseline .trace.jsonl")
    trace_diff.add_argument("b", help="comparison .trace.jsonl")
    trace_diff.add_argument("--json", nargs="?", const="-", default=None,
                            metavar="PATH",
                            help="also emit the comparison as JSON")
    trace_diff.set_defaults(func=_cmd_trace)

    check = sub.add_parser(
        "check", help="static checks: lint, CNF/proof audit, translation validation",
        description="Static analysis and certificates over the repo's "
                    "unchecked invariants (rule catalogue: CHECKS.md).  "
                    "Exit 0 = clean, 1 = findings, 2 = analysis error.")
    check_sub = check.add_subparsers(dest="command_check", required=True)

    check_lint = check_sub.add_parser(
        "lint", help="run the repo-specific AST linter",
        description="AST lint with repo-specific rules (R001-R007: "
                    "wall-clock/unseeded-random in byte-identity-critical "
                    "modules, raw JSONL loops, # hot-loop call discipline, "
                    "to_dict/from_dict completeness, silent exception "
                    "swallowing, unused imports).  Suppress per line with "
                    "'# repro-lint: disable=RULE'.")
    check_lint.add_argument("paths", nargs="*",
                            help="files or directories (default: src)")
    check_lint.add_argument("--json", nargs="?", const="-", default=None,
                            metavar="PATH",
                            help="emit findings as JSON (file, line, rule, "
                                 "message) to PATH or stdout")
    check_lint.set_defaults(func=_cmd_check)

    check_cnf_p = check_sub.add_parser(
        "cnf", help="audit a DIMACS CNF file for well-formedness",
        description="Reads standard DIMACS (clauses may span lines) and "
                    "reports out-of-range variables, duplicate literals, "
                    "tautologies and empty clauses.")
    check_cnf_p.add_argument("cnf", help="DIMACS .cnf file")
    check_cnf_p.set_defaults(func=_cmd_check)

    check_proof_p = check_sub.add_parser(
        "proof", help="replay a DRUP proof with the independent checker",
        description="Replays a DRUP proof against the original CNF with an "
                    "independent watched-literal unit propagator (no code "
                    "shared with the solvers): every clause addition must "
                    "be derivable by reverse unit propagation and the proof "
                    "must end in the empty clause.  Certificate pairs come "
                    "from 'repro attack --certify DIR' or any "
                    "SolveSession(proof_path=...).  Exit 0 = verified, "
                    "1 = proof rejected (line-numbered reason), 2 = "
                    "unreadable input.")
    check_proof_p.add_argument("cnf", help="DIMACS .cnf file the proof refutes")
    check_proof_p.add_argument("proof", help="DRUP proof file (.drup)")
    check_proof_p.set_defaults(func=_cmd_check)

    check_equiv_p = check_sub.add_parser(
        "equiv", help="translation validation: compiled op list vs netlist",
        description="Proves the op list the engine interprets equivalent "
                    "to the netlist semantics: both are encoded "
                    "to CNF and every output / next-state bit's miter is "
                    "proven UNSAT (a SAT miter prints a counterexample "
                    "assignment).  Miter proofs are themselves DRUP-checked "
                    "unless --skip-proofs.  Exit 0 = equivalent, 1 = any "
                    "bit diverges, 2 = error.")
    check_equiv_p.add_argument("--circuit", default=None, metavar="NAME|PATH",
                               help="a bundled fixture name (see 'repro "
                                    "benchmarks') or a .bench file path")
    check_equiv_p.add_argument("--all-fixtures", action="store_true",
                               help="validate every bundled ISCAS'89 + "
                                    "ITC'99 fixture")
    check_equiv_p.add_argument("--proof-dir", default=None, metavar="DIR",
                               help="keep the miter certificate pairs here "
                                    "(default: a temporary directory)")
    check_equiv_p.add_argument("--skip-proofs", action="store_true",
                               help="skip re-checking the miter UNSAT "
                                    "proofs with the independent checker")
    check_equiv_p.set_defaults(func=_cmd_check)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - module entry point
    sys.exit(main())
