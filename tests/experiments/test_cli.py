"""Tests for the artifact-style CLI."""

import pytest

from repro.cli import build_parser, main


class TestCli:
    def test_jobs_listing(self, capsys):
        assert main(["jobs", "--seed", "5", "--jobs", "4"]) == 0
        out = capsys.readouterr().out
        assert "job-00" in out and "job-03" in out
        assert "seed=5" in out

    def test_simulate(self, capsys):
        assert main(["simulate", "--trials", "3"]) == 0
        out = capsys.readouterr().out
        for policy in ("elastic", "moldable", "min_replicas", "max_replicas"):
            assert policy in out

    def test_run_single_policy(self, capsys):
        assert main(["run", "moldable", "--jobs", "4", "--gap", "30"]) == 0
        out = capsys.readouterr().out
        assert "pod_utilization_moldable" in out
        assert "util=" in out

    def test_fig4(self, capsys):
        assert main(["fig4"]) == 0
        assert "Figure 4a" in capsys.readouterr().out

    def test_fig5(self, capsys):
        assert main(["fig5"]) == 0
        assert "Figure 5a" in capsys.readouterr().out

    def test_fig7_with_trials(self, capsys):
        assert main(["fig7", "--trials", "2"]) == 0
        assert "Figure 7a" in capsys.readouterr().out

    def test_unknown_policy_rejected(self):
        with pytest.raises(SystemExit):
            main(["run", "fcfs"])

    def test_parser_has_all_artifact_commands(self):
        parser = build_parser()
        text = parser.format_help()
        for cmd in ("jobs", "run", "simulate", "table1", "bench", "policies"):
            assert cmd in text


class TestPoliciesCli:
    def test_policies_list_shows_registry(self, capsys):
        assert main(["policies", "list"]) == 0
        out = capsys.readouterr().out
        for name in ("elastic", "moldable", "min_replicas", "max_replicas",
                     "ewt", "prb", "easy-backfill", "power-capped"):
            assert name in out
        assert "paper" in out

    def test_policies_show(self, capsys):
        assert main(["policies", "show", "easy-backfill"]) == 0
        out = capsys.readouterr().out
        assert "easy-backfill" in out
        assert "backfill" in out

    def test_policies_show_requires_name(self, capsys):
        assert main(["policies", "show"]) == 2

    def test_policies_show_unknown_is_user_error(self, capsys):
        assert main(["policies", "show", "fcfs"]) == 2
        assert "unknown policy" in capsys.readouterr().err

    def test_registered_policy_runs_end_to_end(self, capsys):
        """The acceptance path: a non-paper registry policy through the
        simulator CLI with real metrics out."""
        assert main([
            "workloads", "run", "--source", "paper", "--jobs", "6",
            "--policy", "easy-backfill",
        ]) == 0
        out = capsys.readouterr().out
        assert "easy-backfill" in out and "util=" in out

    def test_simulate_accepts_registry_policies(self, capsys):
        assert main([
            "simulate", "--trials", "2", "--policies", "elastic,ewt",
        ]) == 0
        out = capsys.readouterr().out
        assert "elastic" in out and "ewt" in out


class TestBenchCli:
    def test_bench_writes_results(self, capsys, tmp_path):
        out_path = tmp_path / "BENCH_policy_engine.json"
        assert main([
            "bench", "--sizes", "200", "--reference-max", "200",
            "--output", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "engine_200" in out and "reference_200" in out
        assert "simulator_200" in out
        import json

        document = json.loads(out_path.read_text())
        assert document["benchmark"] == "policy_engine"
        assert "engine_200" in document["results"]
        assert "200" in document["speedup_vs_reference"]

    def test_bench_policy_engine_suite_alias(self, capsys, tmp_path):
        out_path = tmp_path / "bench.json"
        assert main([
            "bench", "--suite", "policy_engine", "--sizes", "200",
            "--reference-max", "0", "--output", str(out_path),
        ]) == 0
        out = capsys.readouterr().out
        assert "engine_200" in out
        assert "simulator_easy_200" in out  # the registry-resolved row

    def test_bench_regression_gate_passes_against_self(
        self, capsys, tmp_path, monkeypatch
    ):
        """A run gated against its own output passes.

        The measured document is fixed and replayed as the second run,
        so the pass path is checked exactly, not across two wall-clock
        runs whose gap is host noise.
        """
        from repro import bench

        document = bench.run_bench(sizes=(200,), reference_max=0)
        monkeypatch.setattr(bench, "run_bench", lambda **_: document)
        out_path = tmp_path / "bench.json"
        assert main(["bench", "--sizes", "200", "--reference-max", "0",
                     "--output", str(out_path)]) == 0
        capsys.readouterr()
        assert main(["bench", "--sizes", "200", "--reference-max", "0",
                     "--output", "", "--baseline", str(out_path)]) == 0
        assert "regression gate passed" in capsys.readouterr().out

    def test_bench_regression_gate_fails_on_impossible_baseline(
        self, capsys, tmp_path
    ):
        import json

        from repro.bench import run_bench

        document = run_bench(sizes=(200,), reference_max=0)
        for row in document["results"].values():
            row["normalized"] *= 1e6  # a baseline no machine can meet
        baseline = tmp_path / "impossible.json"
        baseline.write_text(json.dumps(document))
        assert main(["bench", "--sizes", "200", "--reference-max", "0",
                     "--output", "", "--baseline", str(baseline)]) == 1

    def test_bench_speedup_gate_unmeasurable_fails(self, capsys):
        # --min-speedup needs a reference measurement at --speedup-jobs.
        assert main(["bench", "--sizes", "200", "--reference-max", "0",
                     "--output", "", "--min-speedup", "5"]) == 1
