"""Integration tests for the experiment drivers (tables and figure)."""


from repro.campaign import CampaignSpec, ResultStore, run_campaign
from repro.experiments import (
    run_figure4,
    run_table1,
    run_table2,
    run_table3,
    run_table4,
    run_table5,
)
from repro.experiments.figure4 import run_figure4_cell
from repro.experiments.report import ExperimentTable, format_table
from repro.experiments.table3 import table3_jobs


class TestValidationTables:
    def test_table1_correct_key_matches_and_wrong_key_diverges(self):
        table, artefacts = run_table1(num_cycles=12)
        assert artefacts["matches_correct"]
        assert artefacts["diverges_wrong"]
        assert len(table.rows) == 12
        assert set(table.columns) >= {"Time (ns)", "x (hex)", "yck (hex)", "ywk (hex)"}

    def test_table2_reproduces_paper_shape(self):
        table, artefacts = run_table2(num_cycles=15)
        assert artefacts["matches_correct"]
        assert artefacts["diverges_wrong"]
        assert table.columns[-3:] == ["G17", "G17ck", "G17wk"]
        assert len(table.rows) == 15


class TestAttackTables:
    def test_table3_no_attack_breaks_cutelock_beh(self):
        table, raw = run_table3(benchmarks=["bcomp"], attacks=["INT"], time_limit=20)
        assert len(table.rows) == 1
        assert not any(result.broke_defense for results in raw.values() for result in results)

    def test_negative_time_limit_writes_an_error_row(self, tmp_path):
        """A cell whose attack refuses its budget is an error, not a timed-out attack."""
        jobs = table3_jobs(benchmarks=["bcomp"], attacks=["INT"], time_limit=-5.0)
        store = ResultStore(tmp_path / "store")
        summary = run_campaign(CampaignSpec(name="t3", jobs=jobs), store, workers=0)
        assert (summary.errors, summary.completed) == (1, 0)
        record = store.record_for(jobs[0].key)
        assert record["status"] == "error"
        assert "time_limit" in record["error"]

    def test_table4_no_attack_breaks_cutelock_str(self):
        table, raw = run_table4(benchmarks=["s27", "b01"], attacks=["INT", "RANE"],
                                time_limit=20)
        assert len(table.rows) == 2
        assert not any(result.broke_defense for results in raw.values() for result in results)
        assert "INT outcome" in table.columns

    def test_table5_fall_finds_nothing_and_nmi_drops(self):
        table, raw = run_table5(benchmarks=["b01", "b08"])
        assert all(row["FALL keys"] == 0 for row in table.rows)
        average_unlocked = sum(row["NMI (unlocked)"] for row in table.rows) / len(table.rows)
        average_locked = sum(row["NMI (locked)"] for row in table.rows) / len(table.rows)
        assert average_locked < average_unlocked


class TestFigure4:
    def test_overhead_tables_have_all_metrics(self):
        tables, raw = run_figure4(benchmarks=["b01", "b06"], activity_vectors=16)
        assert set(tables) == {"power_uw", "area_um2", "cell_count", "io_count"}
        for table in tables.values():
            assert len(table.rows) == 2
            for row in table.rows:
                assert row["Test Run 1"] >= row["Original"]

    def test_cutelock_beats_dklock_on_small_circuits(self):
        tables, _ = run_figure4(benchmarks=["b01"], activity_vectors=16)
        row = tables["cell_count"].rows[0]
        assert row["Test Run 1"] <= row["DK-Lock avg"]

    def test_area_is_the_same_on_every_python_version(self):
        """Cell areas add up correctly rounded: the built-in sum() read
        50.273999999999994 here before Python 3.12 and 50.274 from 3.12 on."""
        cell = run_figure4_cell(
            {"benchmark": "b01", "label": "Original", "activity_vectors": 32, "seed": 6}
        )
        assert cell["cost"]["area_um2"] == 50.274


class TestReportHelpers:
    def test_format_table_alignment(self):
        text = format_table([{"a": 1, "b": "xy"}, {"a": 22, "b": "z"}])
        assert "a" in text.splitlines()[0]
        assert len(text.splitlines()) == 4

    def test_experiment_table_write(self, tmp_path):
        table = ExperimentTable(name="T", title="demo", columns=["x"])
        table.add_row(x=1)
        path = table.write(tmp_path / "t.md")
        assert path.read_text().startswith("## T: demo")
