"""Unit tests for the CLI (repro.cli)."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_all_commands_parse(self):
        parser = build_parser()
        for cmd in ("table1", "table2", "fig1", "fig2", "fig4", "fig5"):
            assert parser.parse_args([cmd]).command == cmd

    def test_fig3_options(self):
        args = build_parser().parse_args(["fig3", "--m", "30", "--alpha", "1.2", "1.6"])
        assert args.m == 30
        assert args.alpha == [1.2, 1.6]

    def test_run_options(self):
        args = build_parser().parse_args(
            ["run", "ls_group[k=2]", "--n", "20", "--m", "4", "--gantt"]
        )
        assert args.strategy == "ls_group[k=2]"
        assert args.gantt


class TestMain:
    @pytest.mark.parametrize("cmd", ["table1", "table2", "fig1", "fig2", "fig4", "fig5"])
    def test_report_commands_succeed(self, cmd, capsys):
        assert main([cmd]) == 0
        assert capsys.readouterr().out.strip()

    def test_fig3_small(self, capsys, tmp_path, monkeypatch):
        # Non-canonical m: redirect artifact writes so the run does not
        # clobber the shipped m=210 results/fig3_ratio_replication.csv.
        import repro.reporting as reporting

        monkeypatch.setattr(reporting, "results_dir", lambda: tmp_path)
        assert main(["fig3", "--m", "12", "--alpha", "1.5"]) == 0
        assert "Figure 3" in capsys.readouterr().out

    def test_fig6(self, capsys):
        assert main(["fig6"]) == 0
        assert "Figure 6" in capsys.readouterr().out

    def test_run_command(self, capsys):
        rc = main(
            ["run", "lpt_no_restriction", "--n", "12", "--m", "3", "--seed", "1", "--gantt"]
        )
        assert rc == 0
        out = capsys.readouterr().out
        assert "ratio" in out
        assert "M0" in out  # gantt requested

    def test_run_with_guarantee_check(self, capsys):
        main(["run", "lpt_no_choice", "--n", "10", "--m", "2"])
        out = capsys.readouterr().out
        assert "within: True" in out

    def test_sweep_command(self, capsys):
        rc = main(["sweep", "--n", "8", "--m", "2", "--seeds", "2"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "lpt_no_choice" in out
        assert "ls_group[k=2]" in out

    def test_bad_strategy_raises(self):
        with pytest.raises(ValueError):
            main(["run", "bogus"])

    def test_proofs_command(self, capsys):
        rc = main(["proofs", "--n", "10", "--m", "3"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "0 failures" in out
        assert "Theorem 2" in out

    def test_regimes_command(self, capsys):
        rc = main(["regimes", "--m", "12", "--alpha", "1.1", "2.0"])
        assert rc == 0
        out = capsys.readouterr().out
        assert "value of estimates" in out


class TestReportAndCacheCommands:
    """CLI surface for the artifact-store pipeline (repro report / cache)."""

    @pytest.fixture
    def redirected(self, tmp_path, monkeypatch):
        # Point the default results dir at a scratch tree so the CLI never
        # touches the shipped results/.
        import repro.analysis.report as report_mod
        import repro.store.publish as publish_mod

        results = tmp_path / "results"
        results.mkdir()
        (results / "e1_empirical_ratios.txt").write_text("E1 TABLE\n")
        for mod in (report_mod, publish_mod):
            monkeypatch.setattr(mod, "results_dir", lambda base=None, _r=results: _r)
        return results

    def test_report_flags_parse(self):
        args = build_parser().parse_args(
            ["report", "--check", "--adopt", "--store", "/tmp/x"]
        )
        assert args.check and args.adopt and args.store == "/tmp/x"

    def test_cache_flags_parse(self):
        args = build_parser().parse_args(
            ["cache", "gc", "--max-age-days", "7", "--dry-run"]
        )
        assert args.cache_command == "gc"
        assert args.max_age_days == 7 and args.dry_run
        assert build_parser().parse_args(["cache", "stats"]).cache_command == "stats"

    def test_report_adopt_then_check_round_trip(self, redirected, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["report", "--adopt", "--store", store]) == 0
        assert "report written to" in capsys.readouterr().out
        assert main(["report", "--check", "--store", store]) == 0
        assert "byte-for-byte" in capsys.readouterr().out

    def test_report_check_fails_on_hand_edit(self, redirected, tmp_path, capsys):
        store = str(tmp_path / "store")
        assert main(["report", "--adopt", "--store", store]) == 0
        (redirected / "e1_empirical_ratios.txt").write_text("TAMPERED\n")
        assert main(["report", "--check", "--store", store]) == 1
        assert "e1_empirical_ratios" in capsys.readouterr().err

    def test_report_refuses_empty_store(self, redirected, tmp_path, capsys):
        assert main(["report", "--store", str(tmp_path / "empty-store")]) == 1
        assert "error:" in capsys.readouterr().err

    def test_cache_gc_and_stats(self, tmp_path, capsys):
        from repro.store import ArtifactStore, Stage

        store_dir = tmp_path / "store"
        store = ArtifactStore(store_dir)
        store.put(Stage.RAW, "a" * 64, kind="cell", payload={"x": 1})
        (store_dir / "junk.corrupt").write_bytes(b"bad")
        assert main(["cache", "stats", "--store", str(store_dir)]) == 0
        out = capsys.readouterr().out
        assert "raw: 1 artifacts" in out
        assert main(["cache", "gc", "--dry-run", "--store", str(store_dir)]) == 0
        assert "would reclaim" in capsys.readouterr().out
        assert (store_dir / "junk.corrupt").exists()
        assert main(["cache", "gc", "--store", str(store_dir)]) == 0
        assert "reclaimed" in capsys.readouterr().out
        assert not (store_dir / "junk.corrupt").exists()
