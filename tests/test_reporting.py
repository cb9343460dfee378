"""Unit tests for repro.reporting (table/figure builders)."""

from __future__ import annotations

import pytest

from repro.analysis.csvio import read_csv
from repro.reporting import (
    fig1_report,
    fig2_report,
    fig3_report,
    fig3_series_rows,
    fig4_report,
    fig5_report,
    fig6_report,
    fig6_series_rows,
    table1_report,
    table2_report,
)


class TestTable1:
    def test_contains_all_theorems(self):
        out = table1_report()
        for marker in ("Th. 1", "Th. 2", "Th. 3", "Th. 4", "Graham"):
            assert marker in out

    def test_evaluated_at_paper_params(self):
        out = table1_report()
        assert "m = 210" in out
        for alpha in ("1.1", "1.5", "2"):
            assert alpha in out

    def test_custom_params(self):
        out = table1_report(alphas=(1.25,), m=12, ks=(2,))
        assert "m = 12" in out
        assert "LS-Group k=2" in out


class TestTable2:
    def test_contains_guarantee_forms(self):
        out = table2_report()
        assert "SABO_D" in out and "ABO_D" in out
        for marker in ("Th. 5", "Th. 6", "Th. 7", "Th. 8"):
            assert marker in out

    def test_paper_parameterizations(self):
        out = table2_report()
        assert "m = 5" in out


class TestFig1:
    def test_contains_gantt_and_ratio(self):
        out = fig1_report()
        assert "M0" in out  # gantt rows
        assert "measured ratio" in out
        assert "lambda=3, m=6" in out

    def test_measured_below_asymptotic_bound(self):
        out = fig1_report()
        ratio = float(
            [l for l in out.splitlines() if "measured ratio" in l][0].split("=")[1]
        )
        bound = float(
            [l for l in out.splitlines() if "Theorem-1 bound" in l][0].split("=")[1]
        )
        assert 1.0 <= ratio <= bound + 1e-9


class TestFig2:
    def test_structure(self):
        out = fig2_report()
        assert "group G1" in out and "group G2" in out
        assert "Phase 1" in out and "Phase 2" in out
        assert "|M_j| = 3" in out


class TestFig3:
    def test_three_panels(self):
        out = fig3_report()
        assert out.count("Figure 3 —") == 3

    def test_csv_written(self):
        fig3_report()
        from repro.analysis.csvio import results_dir

        rows = read_csv(results_dir() / "fig3_ratio_replication.csv")
        strategies = {r["strategy"] for r in rows}
        assert strategies == {
            "lower_bound",
            "lpt_no_choice",
            "lpt_no_restriction",
            "ls_group",
        }

    def test_series_rows_complete(self):
        rows = fig3_series_rows(1.5, 210)
        group_rows = [r for r in rows if r["strategy"] == "ls_group"]
        assert len(group_rows) == 16  # divisors of 210

    def test_findings_printed(self):
        out = fig3_report()
        assert "min replicas for LS-Group to beat No Choice" in out


class TestFig4AndFig5:
    def test_fig4_shows_split(self):
        out = fig4_report()
        assert "S1" in out and "S2" in out
        assert "guarantees" in out

    def test_fig5_shows_replication(self):
        out = fig5_report()
        assert "replicated everywhere" in out
        assert "Mem_max" in out

    def test_abo_memory_at_least_sabo(self):
        mem4 = float(
            [l for l in fig4_report().splitlines() if l.startswith("Mem_max")][0]
            .split("=")[1]
            .split("(")[0]
        )
        mem5 = float(
            [l for l in fig5_report().splitlines() if l.startswith("Mem_max")][0]
            .split("=")[1]
            .split("(")[0]
        )
        assert mem5 >= mem4


class TestFig6:
    def test_three_panels(self):
        out = fig6_report()
        assert out.count("Figure 6 —") == 3

    def test_csv_series(self):
        rows = fig6_series_rows()
        panels = {r["panel"] for r in rows}
        assert len(panels) == 3
        algos = {r["algorithm"] for r in rows}
        assert algos == {"sabo", "abo"}

    def test_crossover_annotation(self):
        out = fig6_report()
        assert "better makespan guarantee" in out


class TestCheckoutIndependence:
    @pytest.mark.parametrize("report", [fig3_report, fig6_report], ids=lambda f: f.__name__)
    def test_same_bytes_at_two_roots(self, report, tmp_path, monkeypatch):
        """The figure texts name their CSV relative to results/, so two
        checkouts render the same bytes (REPORT.md embeds these texts)."""
        import repro.reporting as reporting

        texts = []
        for root in ("checkout-a", "elsewhere/checkout-b"):
            out = tmp_path / root / "results"
            out.mkdir(parents=True)
            monkeypatch.setattr(reporting, "results_dir", lambda out=out: out)
            texts.append(report().encode())
        assert texts[0] == texts[1]
        assert str(tmp_path).encode() not in texts[0]

    def test_committed_results_name_no_checkout(self):
        from repro.analysis.csvio import results_dir

        for name in ("fig3_ratio_replication.txt", "fig6_memory_makespan.txt", "REPORT.md"):
            text = (results_dir() / name).read_text()
            assert "[data: /" not in text, name
