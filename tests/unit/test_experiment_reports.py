"""Unit tests for the experiment report containers and the runner module."""

from pathlib import Path


from repro.attacks.results import AttackOutcome, AttackResult
from repro.experiments.report import (
    ExperimentTable,
    format_table,
    latex_escape,
    render_latex_tables,
)
from repro.experiments.runner import write_latex_report, write_report
from repro.experiments.table3 import aggregate_table3, table3_jobs
from repro.experiments.table4 import aggregate_table4, table4_jobs


class TestFormatTable:
    def test_empty(self):
        assert format_table([]) == "(no rows)"

    def test_column_subset_and_order(self):
        rows = [{"a": 1, "b": 2, "c": 3}]
        text = format_table(rows, columns=["c", "a"])
        header = text.splitlines()[0]
        assert header.index("c") < header.index("a")
        assert "b" not in header

    def test_float_formatting(self):
        text = format_table([{"x": 1.23456}])
        assert "1.235" in text

    def test_missing_cells_render_empty(self):
        text = format_table([{"a": 1}, {"a": 2, "b": 5}], columns=["a", "b"])
        assert text.count("|") >= 2


class TestExperimentTable:
    def test_add_row_and_column(self):
        table = ExperimentTable(name="T", title="demo", columns=["x", "y"])
        table.add_row(x=1, y=2)
        table.add_row(x=3, y=4)
        assert table.column("x") == [1, 3]

    def test_to_text_includes_notes(self):
        table = ExperimentTable(name="T", title="demo", columns=["x"])
        table.add_row(x=1)
        table.notes.append("important caveat")
        text = table.to_text()
        assert text.startswith("## T: demo")
        assert "important caveat" in text

    def test_write(self, tmp_path):
        table = ExperimentTable(name="T", title="demo", columns=["x"])
        table.add_row(x=42)
        path = table.write(tmp_path / "out.md")
        assert "42" in Path(path).read_text()


class TestLatexRendering:
    def test_escape_covers_table_text(self):
        assert latex_escape("# Keys (k)") == r"\# Keys (k)"
        assert latex_escape("a_b & 10%") == r"a\_b \& 10\%"
        assert latex_escape(1.23456) == "1.235"

    def test_to_latex_structure(self):
        table = ExperimentTable(name="Table III", title="100% secure_designs",
                                columns=["# Keys (k)", "outcome"])
        table.add_row(**{"# Keys (k)": 6, "outcome": "wrong-key"})
        table.notes.append("no attack recovered a working key")
        tex = table.to_latex()
        assert tex.startswith(r"\begin{table}")
        assert r"\begin{tabular}{ll}" in tex
        assert r"\caption{Table III: 100\% secure\_designs}" in tex
        assert r"\label{tab:table-iii}" in tex
        assert r"\# Keys (k) & outcome \\" in tex
        assert r"6 & wrong-key \\" in tex
        assert r"\footnotesize no attack recovered a working key" in tex
        assert tex.endswith(r"\end{table}")

    def test_missing_cells_render_empty(self):
        table = ExperimentTable(name="T", title="t", columns=["a", "b"])
        table.add_row(a=1)
        assert r"1 &  \\" in table.to_latex()

    def test_render_latex_tables_joins_blocks(self):
        first = ExperimentTable(name="Table IV", title="x", columns=["a"])
        second = ExperimentTable(name="Table V", title="y", columns=["a"])
        tex = render_latex_tables([first, second])
        assert tex.count(r"\begin{table}") == 2
        assert tex.index("tab:table-iv") < tex.index("tab:table-v")
        assert tex.startswith("%")

    def test_write_latex_report(self, tmp_path):
        table = ExperimentTable(name="Table V", title="demo", columns=["x"])
        table.add_row(x=42)
        path = write_latex_report({"t": table}, str(tmp_path / "tables.tex"))
        content = Path(path).read_text()
        assert r"\begin{tabular}" in content and "42" in content


class TestWriteReport:
    def test_combined_report(self, tmp_path):
        table_a = ExperimentTable(name="Table I", title="first", columns=["x"])
        table_a.add_row(x=1)
        table_b = ExperimentTable(name="Table II", title="second", columns=["y"])
        table_b.add_row(y=2)
        path = write_report({"a": table_a, "b": table_b}, str(tmp_path / "report.md"),
                            elapsed=1.5)
        content = Path(path).read_text()
        assert "Table I" in content and "Table II" in content
        assert "Total runtime" in content


def _completed(attack, outcome, runtime):
    result = AttackResult(attack=attack, outcome=outcome, runtime_seconds=runtime)
    return {"status": "completed", "runtime_seconds": runtime,
            "payload": {"attack": attack, "result": result.to_dict()}}


def _cell_records(jobs, correct_at=None):
    """Hand-made records cycling through every way a cell can end: a stored
    result, a job timeout, another stored result, a job error, no record."""
    records = {}
    for index, job in enumerate(jobs):
        attack = job.params["attack"]
        if index == correct_at:
            records[job.key] = _completed(attack, AttackOutcome.CORRECT, 1.5)
        elif index % 5 == 0:
            records[job.key] = _completed(attack, AttackOutcome.WRONG_KEY, 12.25)
        elif index % 5 == 1:
            records[job.key] = {"status": "timeout", "runtime_seconds": 30.0,
                                "error": "job exceeded its 30.000s wall-clock budget"}
        elif index % 5 == 2:
            records[job.key] = _completed(attack, AttackOutcome.CNS, 0.5)
        elif index % 5 == 3:
            records[job.key] = {"status": "error", "error": "ValueError: boom"}
    return records


TABLE3_TEXT = """\
## Table III: Cute-Lock-Beh security against logic attacks (NEOS BBO/INT/KC2 stand-ins)

Circuit | Group  | # Keys (k) | Key Size (ki) | BBO outcome | INT outcome | KC2 outcome | BBO time | INT time | KC2 time
--------+--------+------------+---------------+-------------+-------------+-------------+----------+----------+---------
bcomp   | small  | 6          | 18            | wrong-key   | timeout     | cns         | -        | -        | -
acdl    | medium | 5          | 16            | fail        | fail        | wrong-key   | -        | -        | -

* no attack recovered a working key"""

TABLE4_TEXT = """\
## Table IV: Cute-Lock-Str security against logic attacks (NEOS + RANE stand-ins)

Circuit | Suite    | # Keys (k) | Key Size (ki) | BBO outcome | INT outcome | KC2 outcome | RANE outcome | BBO time | INT time | KC2 time | RANE time
--------+----------+------------+---------------+-------------+-------------+-------------+--------------+----------+----------+----------+----------
s27     | ISCAS'89 | 4          | 2             | wrong-key   | timeout     | cns         | fail         | -        | -        | -        | -
s349    | ISCAS'89 | 4          | 8             | fail        | correct     | timeout     | cns          | -        | -        | -        | -
b04     | ITC'99   | 4          | 8             | fail        | fail        | wrong-key   | timeout      | -        | -        | -        | -

* BROKEN: [('s349', 'INT')]
* key widths capped at 8 bits for the pure-Python SAT back-end"""

TABLES_LATEX = r"""% Auto-generated by `python -m repro campaign report --latex`.
% Each block is a self-contained table environment (plain LaTeX).

\begin{table}[ht]
  \centering
  \caption{Table III: Cute-Lock-Beh security against logic attacks (NEOS BBO/INT/KC2 stand-ins)}
  \label{tab:table-iii}
  \begin{tabular}{llllllllll}
    \hline
    Circuit & Group & \# Keys (k) & Key Size (ki) & BBO outcome & INT outcome & KC2 outcome & BBO time & INT time & KC2 time \\
    \hline
    bcomp & small & 6 & 18 & wrong-key & timeout & cns & - & - & - \\
    acdl & medium & 5 & 16 & fail & fail & wrong-key & - & - & - \\
    \hline
  \end{tabular}
  \par\footnotesize no attack recovered a working key
\end{table}

\begin{table}[ht]
  \centering
  \caption{Table IV: Cute-Lock-Str security against logic attacks (NEOS + RANE stand-ins)}
  \label{tab:table-iv}
  \begin{tabular}{llllllllllll}
    \hline
    Circuit & Suite & \# Keys (k) & Key Size (ki) & BBO outcome & INT outcome & KC2 outcome & RANE outcome & BBO time & INT time & KC2 time & RANE time \\
    \hline
    s27 & ISCAS'89 & 4 & 2 & wrong-key & timeout & cns & fail & - & - & - & - \\
    s349 & ISCAS'89 & 4 & 8 & fail & correct & timeout & cns & - & - & - & - \\
    b04 & ITC'99 & 4 & 8 & fail & fail & wrong-key & timeout & - & - & - & - \\
    \hline
  \end{tabular}
  \par\footnotesize BROKEN: [('s349', 'INT')]
  \par\footnotesize key widths capped at 8 bits for the pure-Python SAT back-end
\end{table}
"""


class TestAttackTableFold:
    """Tables III and IV folded from hand-made records, rendered as text and
    LaTeX with runtimes redacted (the quick Table IV grid caps ki at 8)."""

    def _tables(self):
        jobs3 = table3_jobs(benchmarks=["bcomp", "acdl"])
        jobs4 = table4_jobs(benchmarks=["s27", "s349", "b04"])
        table3, raw3 = aggregate_table3(jobs3, _cell_records(jobs3), redact_runtimes=True)
        table4, raw4 = aggregate_table4(
            jobs4, _cell_records(jobs4, correct_at=5), redact_runtimes=True
        )
        return table3, raw3, table4, raw4

    def test_text(self):
        table3, _, table4, _ = self._tables()
        # The ASCII renderer pads the last column; the golden text does not.
        for table, expected in ((table3, TABLE3_TEXT), (table4, TABLE4_TEXT)):
            assert [line.rstrip() for line in table.to_text().split("\n")] == \
                expected.split("\n")

    def test_latex(self):
        table3, _, table4, _ = self._tables()
        assert render_latex_tables([table3, table4]) == TABLES_LATEX

    def test_cells_without_a_result_keep_their_campaign_status(self):
        _, raw3, _, raw4 = self._tables()
        assert [result.details for result in raw3["bcomp"]] == [
            {},
            {"campaign_status": "timeout",
             "error": "job exceeded its 30.000s wall-clock budget"},
            {},
        ]
        assert [result.details.get("campaign_status") for result in raw4["b04"]] == \
            ["error", "missing", None, "timeout"]
        assert [result.runtime_seconds for result in raw4["s27"]] == [12.25, 30.0, 0.5, 0.0]
