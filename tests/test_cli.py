"""Unit tests for the CLI (repro.cli)."""

from __future__ import annotations

import os
import socket
import subprocess
import sys

import pytest

from repro.cli import build_parser, main
from tests.conftest import _checkout_env, run_cli, run_python

#: Values from outside that each command must refuse with a usage error.
BAD_INPUTS = [
    *(
        [command, *extra, "--seed", "-1"]
        for command, *extra in (
            ["run", "lpt_no_choice"],
            ["sweep"],
            ["proofs"],
            ["obs"],
            ["soak"],
            ["loadgen", "--port", "1"],
            ["serve", "--port", "0"],
        )
    ),
    ["run", "bogus"],
    ["run", "lpt_no_choice", "--model", "bogus"],
    ["sweep", "--model", "bogus"],
    ["sweep", "--cell-timeout", "nan"],
    ["sweep", "--cell-timeout", "inf"],
    ["serve", "--port", "0", "--strategy", "bogus"],
    ["serve", "--port", "0", "--model", "bogus"],
    ["serve", "--port", "0", "--pace", "-1"],
    ["serve", "--port", "0", "--pace", "nan"],
    ["soak", "--strategy", "bogus"],
    # Specs that parse but whose Phase 1 cannot place the instance.
    ["run", "ls_group[k=3]", "--m", "4"],
    ["run", "overlap_windows[k=3,w=2]", "--m", "4"],
    ["run", "budgeted[B=1]", "--n", "10", "--m", "3"],
    ["obs", "--strategy", "ls_group[k=3]", "--m", "4"],
]


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

    @pytest.mark.parametrize(
        "argv",
        [
            ["sweep", "--seeds", "0"],
            ["sweep", "--seeds", "-3"],
            ["sweep", "--workers", "0"],
            ["sweep", "--retries", "0"],
            ["sweep", "--profile-top", "0"],
            ["sweep", "--n", "0"],
            ["sweep", "--m", "0"],
            ["run", "lpt_no_choice", "--n", "0"],
            ["run", "lpt_no_choice", "--m", "0"],
            ["obs", "--n", "0"],
            ["proofs", "--m", "0"],
            ["fig3", "--m", "0"],
            ["regimes", "--m", "x"],
            ["strategies", "--m", "0"],
            ["loadgen", "--tenants", "0", "--socket", "x"],
            ["loadgen", "--tasks", "-1", "--socket", "x"],
            ["loadgen", "--concurrency", "0", "--socket", "x"],
            ["obs", "analyze", "trace.jsonl", "--top", "-3"],
        ],
        ids=" ".join,
    )
    def test_counts_must_be_positive(self, argv, capsys):
        """A zero, negative or non-integer count is a usage error (exit 2),
        not a traceback from deep inside the command."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "expected a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(argv, message, id=" ".join(argv))
            for argv, message in [
                (["run", "lpt_no_choice", "--alpha", "0.5"], "expected a finite alpha >= 1"),
                (["sweep", "--alpha", "nan"], "expected a finite alpha >= 1"),
                (["regimes", "--alpha", "1.5", "0.9"], "expected a finite alpha >= 1"),
                (["sweep", "--family", "bogus"], "invalid choice: 'bogus'"),
                (["soak", "--zones", "0"], "expected a positive integer"),
                (["soak", "--racks-per-zone", "-1"], "expected a positive integer"),
                (["soak", "--machines-per-rack", "0"], "expected a positive integer"),
            ]
        ],
    )
    def test_values_the_library_rejects(self, argv, message, capsys):
        """Values the library would reject with a ValueError are a usage
        error at the parser (exit 2), not a traceback."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert message in capsys.readouterr().err

    def test_family_choices_are_the_generators(self):
        from repro.cli import FAMILIES
        from repro.workloads import WORKLOAD_FAMILIES

        assert set(FAMILIES) == {*WORKLOAD_FAMILIES, "identical", "staircase"}
        assert len(FAMILIES) == len(set(FAMILIES))

    @pytest.mark.parametrize("argv", BAD_INPUTS, ids=" ".join)
    def test_bad_input_is_a_usage_error(self, argv):
        """A negative seed, an unknown model or strategy spec, a spec that
        does not fit the instance, a non-finite cell timeout or pace: one
        usage error (exit 2), no traceback.  Run
        in a fresh process, so a daemon that wrongly starts cannot hang
        the suite."""
        proc = run_cli(argv, stdout=subprocess.DEVNULL)
        assert proc.returncode == 2, proc.stderr
        assert "Traceback" not in proc.stderr
        assert proc.stderr.strip()

    def test_unknown_flag_is_a_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["sweep", "--bogus"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --bogus" in capsys.readouterr().err


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

    def test_bench_passes_its_arguments_through(self, monkeypatch):
        """``repro bench ARGS`` reaches perfbench's own parser unchanged."""
        import repro.tools.perfbench as perfbench

        seen = []
        monkeypatch.setattr(perfbench, "main", lambda argv: seen.append(argv) or 0)
        argv = ["--out", "x.json", "--check", "--baseline", "b.json", "-h"]
        assert main(["bench", *argv]) == 0
        assert seen == [argv]

    def test_strategies_filter_matching_nothing(self, capsys):
        argv = ["strategies", "--capability", "supports_hetero", "--capability", "memory_aware"]
        assert main(argv) == 0
        assert "no registered strategy plugin has all of" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "spec, first",
        [
            ("ls_group[k=2]", "spec         : ls_group[k=2]"),
            ("ls_group", "name         : ls_group"),
        ],
    )
    def test_strategies_describes_one_spec(self, spec, first, capsys):
        """A full spec and a bare family name both print one block."""
        assert main(["strategies", spec]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == first
        assert sum(line.startswith("class ") for line in lines) == 1
        assert "class        : repro.core.strategies.ls_group.LSGroup" in lines

    def test_sweep_with_every_cell_quarantined(self, monkeypatch, capsys):
        """With no record left, the sweep prints its resilience lines and
        exits nonzero instead of failing to format an empty table."""
        monkeypatch.setenv("REPRO_INJECT_CELL_FAULTS", "every=1,fails=-1")
        argv = ["sweep", "--n", "6", "--m", "2", "--seeds", "1", "--retries", "1"]
        assert main([*argv, "--no-cache"]) == 1
        captured = capsys.readouterr()
        assert "cells quarantined" in captured.out
        assert "  quarantined: " in captured.out
        assert "no cell produced a record" in captured.err

    @pytest.mark.parametrize(
        "argv", [["proofs"], ["fig6"], ["run", "lpt_no_choice", "--gantt"]], ids=" ".join
    )
    def test_closed_stdout_ends_quietly(self, argv):
        """A reader that closes the pipe before the command writes
        (``repro proofs | head -c 10``) gets no ``BrokenPipeError``
        traceback."""
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            proc = run_cli(argv, stdout=write_end)
        finally:
            os.close(write_end)
        assert "Traceback" not in proc.stderr, proc.stderr
        assert proc.returncode == 1

    def test_another_broken_pipe_is_reported(self):
        """A ``BrokenPipeError`` that is not stdout's (a daemon socket that
        dropped) ends with one line on stderr naming the command."""
        code = (
            "import sys\n"
            "from repro import cli\n"
            "def dropped(args):\n"
            "    raise BrokenPipeError(32, 'the daemon dropped the socket')\n"
            "cli._cmd_proofs = dropped\n"
            "sys.exit(cli.main(['proofs']))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", code],
            env=_checkout_env(),
            capture_output=True,
            text=True,
            timeout=60,
        )
        assert proc.returncode == 1
        assert proc.stderr == "repro proofs: [Errno 32] the daemon dropped the socket\n"

    def test_loadgen_with_no_daemon_at_the_socket_is_one_line(self, tmp_path, capsys):
        """A socket path where no daemon listens ends with one line on
        stderr naming the command and the path, not a traceback."""
        path = tmp_path / "absent.sock"
        assert main(["loadgen", "--tenants", "3", "--socket", str(path)]) == 1
        err = capsys.readouterr().err
        assert err == (
            f"repro loadgen: cannot reach the daemon at {path}: "
            "[Errno 2] No such file or directory\n"
        )

    def test_loadgen_refused_at_the_port_is_one_line(self, capsys):
        """A loopback port that was bound and then closed refuses the
        connection: one line on stderr naming the command and the address."""
        with socket.socket() as sock:
            sock.bind(("127.0.0.1", 0))
            port = sock.getsockname()[1]
        assert main(["loadgen", "--tenants", "3", "--port", str(port)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"repro loadgen: cannot reach the daemon at 127.0.0.1:{port}: ")
        assert err.count("\n") == 1 and "Traceback" not in err

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


class TestImports:
    def test_commands_import_only_what_they_run(self, tmp_path):
        """``import repro.cli`` loads neither scipy nor numpy nor the
        service or chaos packages, and a sweep loads none of scipy, the
        service, the chaos harness or the figure code."""
        out = run_python(
            "import sys\n"
            "import repro.cli\n"
            "print([m for m in ('scipy', 'numpy', 'repro.service', 'repro.chaos')"
            " if m in sys.modules])\n"
            "repro.cli.main(['sweep', '--n', '8', '--m', '2', '--seeds', '1', '--no-cache'])\n"
            "print([m for m in ('scipy', 'repro.service', 'repro.chaos', 'repro.reporting')"
            " if m in sys.modules])\n",
            cwd=tmp_path,
        )
        lines = out.splitlines()
        assert lines[0] == "[]"
        assert lines[-1] == "[]"

    def test_tracer_import_leaves_obs_analytics_unloaded(self):
        """Every grid process imports the tracer; the trace analytics,
        export and SLO modules load only when a command uses them."""
        out = run_python(
            "import sys\n"
            "import repro.obs.tracer\n"
            "print([m for m in ('repro.obs.analyze', 'repro.obs.export', 'repro.obs.slo')"
            " if m in sys.modules])\n"
        )
        assert out.strip() == "[]"

    def test_every_export_resolves(self):
        """The lazy export tables name real objects, and an unknown name
        is an AttributeError, not an import error."""
        import repro
        import repro.analysis
        import repro.obs

        for package in (repro, repro.analysis, repro.obs):
            for name in package.__all__:
                assert getattr(package, name) is not None, name
            assert not hasattr(package, "no_such_name")
        assert repro.obs.read_jsonl is not None
