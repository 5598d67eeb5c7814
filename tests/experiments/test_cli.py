"""Command-line interface."""

import pytest

from repro.cli import main


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "swiftnet-a" in out and "fig10" in out

    def test_schedule_cell(self, capsys):
        assert main(["schedule", "--cell", "swiftnet-c"]) == 0
        out = capsys.readouterr().out
        assert "SERENITY peak" in out and "reduction" in out

    def test_schedule_no_rewrite(self, capsys):
        assert main(["schedule", "--cell", "swiftnet-c", "--no-rewrite"]) == 0
        assert "rewrites applied        : 0" in capsys.readouterr().out

    def test_schedule_show_schedule(self, capsys):
        assert (
            main(["schedule", "--cell", "swiftnet-c", "--show-schedule"]) == 0
        )
        assert "schedule:" in capsys.readouterr().out

    def test_schedule_saved_graph(self, tmp_path, capsys, diamond_graph):
        from repro.graph.serialization import save_graph

        path = tmp_path / "g.json"
        save_graph(diamond_graph, path)
        assert main(["schedule", "--graph", str(path)]) == 0
        assert "diamond" in capsys.readouterr().out

    def test_schedule_requires_source(self, capsys):
        assert main(["schedule"]) == 2

    def test_compile_batch_cells(self, tmp_path, capsys):
        assert (
            main(
                [
                    "compile-batch",
                    "--cell", "swiftnet-c",
                    "--cell", "swiftnet-b",
                    "--cache-dir", str(tmp_path),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "portfolio compilation report" in out
        assert "swiftnet-c" in out and "swiftnet-b" in out
        assert "cache hits 0/12" in out

        # warm rerun through the same cache dir: every lookup hits
        assert (
            main(
                [
                    "compile-batch",
                    "--cell", "swiftnet-c",
                    "--cell", "swiftnet-b",
                    "--cache-dir", str(tmp_path),
                ]
            )
            == 0
        )
        assert "cache hits 12/12 (100.0%)" in capsys.readouterr().out

    def test_compile_batch_device_and_no_cache(self, capsys):
        assert (
            main(
                [
                    "compile-batch",
                    "--cell", "swiftnet-c",
                    "--device", "SparkFun Edge",
                    "--no-cache",
                    "--strategies", "kahn,greedy,serenity",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "deployable on SparkFun Edge: 1/1" in out
        assert "serenity" in out  # cancelled by the budget race

    def test_compile_batch_saved_graph(self, tmp_path, capsys, diamond_graph):
        from repro.graph.serialization import save_graph

        path = tmp_path / "g.json"
        save_graph(diamond_graph, path)
        assert (
            main(["compile-batch", "--graph", str(path), "--no-cache"]) == 0
        )
        assert "diamond" in capsys.readouterr().out

    def test_list_includes_strategies(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "scheduling strategies" in out and "serenity-fast" in out

    def test_experiment_fig2(self, capsys):
        assert main(["experiment", "fig2"]) == 0
        assert "Pareto" in capsys.readouterr().out

    def test_unknown_command_exits(self):
        with pytest.raises(SystemExit):
            main(["bogus"])


class TestServe:
    def test_serve_compiles_cell_through_cache(self, tmp_path, capsys):
        """Cache-served serving startup: `serve --cell` is one command,
        compile-on-miss the first time, cache-served the second."""
        args = [
            "serve", "--cell", "swiftnet-c",
            "--strategy", "greedy",
            "--cache-dir", str(tmp_path / "cache"),
            "--requests", "8", "--clients", "2", "--workers", "2",
        ]
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "compiled swiftnet-c" in out
        assert "cached schedule" not in out
        assert main(args) == 0
        out = capsys.readouterr().out
        assert "cached schedule" in out
        assert "throughput" in out

    def test_serve_preload_and_verify(self, tmp_path, capsys):
        assert (
            main(
                [
                    "serve", "--cell", "swiftnet-c",
                    "--strategy", "greedy", "--no-cache",
                    "--requests", "8", "--clients", "2", "--workers", "2",
                    "--preload", "--verify",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "preloaded" in out
        assert "bitwise-equal to reference executor" in out

    def test_serve_requires_a_source(self, capsys):
        assert main(["serve"]) == 2
        assert "nothing to serve" in capsys.readouterr().err

    def test_serve_rejects_zero_shards(self, capsys):
        assert (
            main(["serve", "--cell", "swiftnet-c", "--shards", "0"]) == 2
        )
        assert "--shards must be >= 1" in capsys.readouterr().err

    def test_serve_sharded_end_to_end(self, capsys):
        assert (
            main(
                [
                    "serve", "--cell", "swiftnet-c", "--cell", "swiftnet-b",
                    "--strategy", "greedy", "--no-cache",
                    "--requests", "8", "--clients", "2", "--workers", "1",
                    "--shards", "2", "--preload", "--verify",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "2 processes, sticky rendezvous routing" in out
        assert "shard 0" in out and "shard 1" in out
        assert "bitwise-equal to reference executor" in out

    @pytest.mark.parametrize(
        "argv",
        [
            ["bench-serve"],
            ["serve", "--cell", "swiftnet-c", "--no-reuse"],
            ["serve", "--cell", "swiftnet-c", "--spill-policy", "lru"],
            ["serve", "--cell", "swiftnet-c", "--spill", "always"],
            ["run", "model.json", "--spill-policy", "lru"],
            ["run", "model.json", "--spill", "always"],
            ["compile", "--cell", "swiftnet-c", "-o", "m.json",
             "--spill-policy", "fifo"],
        ],
    )
    def test_removed_baseline_options_are_gone(self, argv, capsys):
        """The A/B baselines moved out of the product: argparse itself
        rejects the subcommand, flags and mode that selected them."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "usage:" in capsys.readouterr().err


class TestCompileRun:
    def test_compile_writes_artifact(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert (
            main(
                [
                    "compile", "--cell", "swiftnet-c", "-o", str(out),
                    "--strategy", "greedy", "--no-cache",
                ]
            )
            == 0
        )
        text = capsys.readouterr().out
        assert "artifact written to" in text and "arena peak" in text
        assert out.exists()

    def test_run_executes_artifact(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        main(["compile", "--cell", "swiftnet-c", "-o", str(out),
              "--strategy", "serenity-fast", "--no-cache"])
        capsys.readouterr()
        assert main(["run", str(out), "--verify"]) == 0
        text = capsys.readouterr().out
        assert "measured high-water mark" in text
        assert "bitwise-equal" in text

    def test_compile_over_budget_exit_code(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        # darts-normal needs ~1.3MB arena; no strategy fits 250KB
        assert (
            main(
                [
                    "compile", "--cell", "darts-normal", "-o", str(out),
                    "--strategy", "kahn", "--no-cache",
                    "--device", "SparkFun Edge",
                ]
            )
            == 1
        )
        assert "OVER BUDGET" in capsys.readouterr().out

    def test_compile_requires_source(self, tmp_path, capsys):
        assert main(["compile", "-o", str(tmp_path / "m.json")]) == 2

    def test_compile_missing_graph_file_clean_error(self, tmp_path, capsys):
        assert (
            main(["compile", "--graph", str(tmp_path / "nope.json"),
                  "-o", str(tmp_path / "m.json")])
            == 2
        )
        assert "cannot load graph" in capsys.readouterr().err

    def test_run_rejects_corrupt_artifact(self, tmp_path, capsys):
        import json

        out = tmp_path / "m.json"
        main(["compile", "--cell", "swiftnet-c", "-o", str(out),
              "--strategy", "kahn", "--no-cache"])
        capsys.readouterr()
        doc = json.loads(out.read_text())
        doc["graph"]["nodes"][1]["op"] = "relu"  # tamper
        out.write_text(json.dumps(doc))
        assert main(["run", str(out)]) == 2
        assert "cannot load artifact" in capsys.readouterr().err

    def test_compile_uses_schedule_cache(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        args = [
            "compile", "--cell", "swiftnet-c", "-o", str(out),
            "--strategy", "greedy", "--cache-dir", str(tmp_path / "cache"),
        ]
        assert main(args) == 0
        capsys.readouterr()
        assert main(args) == 0
        assert "cached schedule" in capsys.readouterr().out

    def test_compile_run_across_processes(self, tmp_path):
        """The acceptance criterion: compile in one process, run in a
        genuinely fresh one."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro

        out = tmp_path / "m.json"
        env = dict(os.environ)
        repo_src = str(Path(repro.__file__).resolve().parents[1])
        env["PYTHONPATH"] = repo_src + os.pathsep + env.get("PYTHONPATH", "")
        compile_proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "compile",
             "--cell", "swiftnet-c", "-o", str(out),
             "--strategy", "greedy", "--no-cache"],
            capture_output=True, text=True, env=env,
        )
        assert compile_proc.returncode == 0, compile_proc.stderr
        run_proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "run", str(out), "--verify"],
            capture_output=True, text=True, env=env,
        )
        assert run_proc.returncode == 0, run_proc.stderr
        assert "bitwise-equal" in run_proc.stdout
        assert "measured high-water mark" in run_proc.stdout


class TestSpillCLI:
    """--capacity/--spill on compile/run, --spill on serve, --policy on
    the experiment path (ISSUE 5)."""

    @pytest.fixture()
    def artifact(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert (
            main(
                [
                    "compile", "--cell", "randwire-c10-b", "-o", str(out),
                    "--strategy", "greedy", "--no-cache",
                ]
            )
            == 0
        )
        capsys.readouterr()
        return out

    @staticmethod
    def _bounds(artifact):
        from repro.compiler import CompiledModel

        model = CompiledModel.load(artifact)
        return model.spill_floor_bytes, model.arena_bytes

    def test_compile_embeds_spill_plan(self, tmp_path, artifact, capsys):
        floor, arena = self._bounds(artifact)
        cap_kib = (floor + arena) / 2 / 1024
        out = tmp_path / "sp.json"
        assert (
            main(
                [
                    "compile", "--cell", "randwire-c10-b", "-o", str(out),
                    "--strategy", "greedy", "--no-cache",
                    "--capacity", f"{cap_kib}",
                ]
            )
            == 0
        )
        assert "spill plan" in capsys.readouterr().out
        from repro.compiler import CompiledModel

        model = CompiledModel.load(out)
        assert len(model.spill_plans) == 1
        assert model.spill_plans[0].capacity_bytes == int(cap_kib * 1024)
        assert not model.spill_plans[0].is_trivial

    def test_compile_below_floor_exits_1(self, tmp_path, artifact, capsys):
        floor, _ = self._bounds(artifact)
        assert (
            main(
                [
                    "compile", "--cell", "randwire-c10-b",
                    "-o", str(tmp_path / "x.json"),
                    "--strategy", "greedy", "--no-cache",
                    "--capacity", f"{(floor - 4096) / 1024}",
                ]
            )
            == 1
        )
        assert "cannot spill-plan" in capsys.readouterr().err

    def test_run_spills_and_verifies(self, artifact, capsys):
        floor, arena = self._bounds(artifact)
        cap_kib = (floor + arena) / 2 / 1024
        assert (
            main(
                ["run", str(artifact), "--capacity", f"{cap_kib}", "--verify"]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "off-chip traffic" in out
        assert "bitwise-equal" in out

    def test_run_capacity_zero_rejected(self, artifact, capsys):
        assert main(["run", str(artifact), "--capacity", "0"]) == 2
        assert "positive" in capsys.readouterr().err

    def test_run_spill_never_exits_1(self, artifact, capsys):
        floor, arena = self._bounds(artifact)
        cap_kib = (floor + arena) / 2 / 1024
        assert (
            main(
                [
                    "run", str(artifact),
                    "--capacity", f"{cap_kib}", "--spill", "never",
                ]
            )
            == 1
        )
        err = capsys.readouterr().err
        assert "bytes short" in err and "--spill auto" in err

    def test_serve_spill_auto_over_tight_budget(self, capsys):
        from repro.compiler import CompilationPipeline
        from repro.models.suite import get_cell

        model = CompilationPipeline("greedy").compile(
            get_cell("randwire-c10-b").factory()
        )
        budget_kib = (model.spill_floor_bytes + model.arena_bytes) / 2 / 1024
        assert (
            main(
                [
                    "serve", "--cell", "randwire-c10-b",
                    "--strategy", "greedy", "--no-cache",
                    "--requests", "6", "--clients", "2", "--workers", "1",
                    "--max-batch", "1",
                    "--budget-kb", f"{budget_kib}",
                    "--spill", "auto", "--verify",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "off-chip spill traffic" in out
        assert "bitwise-equal to reference executor" in out

    def test_experiment_policy_passthrough(self, capsys, monkeypatch):
        import repro.experiments.fig11_offchip as fig11

        calls = {}
        monkeypatch.setattr(
            fig11, "main", lambda policy="belady": calls.setdefault(
                "policy", policy
            )
        )
        assert main(["experiment", "fig11", "--policy", "lru"]) == 0
        assert calls["policy"] == "lru"

    def test_experiment_policy_only_for_fig11(self, capsys):
        assert main(["experiment", "fig10", "--policy", "lru"]) == 2
        assert "--policy only applies to fig11" in capsys.readouterr().err


class TestTileCLI:
    """--tile-bytes through compile/run/serve: tile streaming serves
    capacities whole-buffer staging refuses outright."""

    @pytest.fixture()
    def bounds(self):
        from repro.compiler import CompilationPipeline
        from repro.models.suite import get_cell

        model = CompilationPipeline("greedy").compile(
            get_cell("randwire-c10-b").factory()
        )
        floor = model.spill_floor_bytes
        tile_floor = model.spill_floor_for(8192)
        below = max(tile_floor, min(floor - 1, tile_floor * 2))
        assert below < floor, "fixture cell must have tile headroom"
        return below, floor

    def test_compile_run_tiled_below_whole_floor(
        self, tmp_path, bounds, capsys
    ):
        below, _ = bounds
        cap_kib = below / 1024
        out = tmp_path / "tiled.json"
        # whole-buffer staging cannot plan this capacity at all
        assert (
            main(
                [
                    "compile", "--cell", "randwire-c10-b",
                    "-o", str(tmp_path / "x.json"),
                    "--strategy", "greedy", "--no-cache",
                    "--capacity", f"{cap_kib}",
                ]
            )
            == 1
        )
        assert "cannot spill-plan" in capsys.readouterr().err
        # tile streaming plans, embeds, and runs it bitwise
        assert (
            main(
                [
                    "compile", "--cell", "randwire-c10-b", "-o", str(out),
                    "--strategy", "greedy", "--no-cache",
                    "--capacity", f"{cap_kib}", "--tile-bytes", "8192",
                ]
            )
            == 0
        )
        assert "tiles" in capsys.readouterr().out
        from repro.compiler import CompiledModel

        model = CompiledModel.load(out)
        assert len(model.spill_plans) == 1
        assert model.spill_plans[0].tile_bytes == 8192
        assert main(["verify-plan", str(out), "--level", "full"]) == 0
        capsys.readouterr()
        assert (
            main(
                [
                    "run", str(out), "--capacity", f"{cap_kib}",
                    "--tile-bytes", "8192", "--verify",
                ]
            )
            == 0
        )
        run_out = capsys.readouterr().out
        assert "off-chip traffic" in run_out
        assert "bitwise-equal" in run_out

    def test_serve_tiled_below_whole_floor(self, bounds, capsys):
        below, _ = bounds
        assert (
            main(
                [
                    "serve", "--cell", "randwire-c10-b",
                    "--strategy", "greedy", "--no-cache",
                    "--requests", "6", "--clients", "2", "--workers", "1",
                    "--max-batch", "1",
                    "--budget-kb", f"{below / 1024}",
                    "--spill", "auto", "--tile-bytes", "8192", "--verify",
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "off-chip spill traffic" in out
        assert "bitwise-equal to reference executor" in out

    def test_negative_tile_bytes_rejected(self, tmp_path, capsys):
        with pytest.raises(SystemExit):
            main(
                [
                    "compile", "--cell", "randwire-c10-b",
                    "-o", str(tmp_path / "x.json"),
                    "--strategy", "greedy", "--no-cache",
                    "--capacity", "64", "--tile-bytes", "-8",
                ]
            )
        assert "tile size must be >= 0" in capsys.readouterr().err


class TestVerifyPlanCLI:
    """`verify-plan`: the static analyzer as a CI gate."""

    @pytest.fixture()
    def artifact(self, tmp_path, capsys):
        out = tmp_path / "m.json"
        assert (
            main(
                [
                    "compile", "--cell", "swiftnet-c", "-o", str(out),
                    "--strategy", "greedy", "--no-cache",
                ]
            )
            == 0
        )
        capsys.readouterr()
        return out

    @staticmethod
    def _corrupt(artifact, tmp_path):
        import json

        doc = json.loads(artifact.read_text())
        doc["plan"]["arena_bytes"] = int(doc["plan"]["arena_bytes"]) + 4096
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        return bad

    def test_clean_artifact_passes(self, artifact, capsys):
        assert main(["verify-plan", str(artifact)]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "1 passed, 0 failed" in out

    def test_corrupt_artifact_exits_1(self, artifact, tmp_path, capsys):
        bad = self._corrupt(artifact, tmp_path)
        assert main(["verify-plan", str(artifact), str(bad)]) == 1
        out = capsys.readouterr().out
        assert "FAIL" in out and "ARENA_PEAK" in out
        assert "1 passed, 1 failed" in out

    def test_unreadable_artifact_exits_2(self, tmp_path, capsys):
        assert main(["verify-plan", str(tmp_path / "missing.json")]) == 2
        assert "cannot read artifact" in capsys.readouterr().err

    def test_json_reports(self, artifact, tmp_path, capsys):
        import json

        bad = self._corrupt(artifact, tmp_path)
        assert main(["verify-plan", "--json", str(artifact), str(bad)]) == 1
        lines = capsys.readouterr().out.strip().splitlines()
        docs = [json.loads(line) for line in lines]
        assert [d["ok"] for d in docs] == [True, False]
        assert any(
            diag["code"] == "ARENA_PEAK" for diag in docs[1]["diagnostics"]
        )

    def test_batch_widths_change_the_verdict(self, artifact, tmp_path, capsys):
        import json

        doc = json.loads(artifact.read_text())
        doc["plan"]["arena_bytes"] = int(doc["plan"]["arena_bytes"]) - 1
        bad = tmp_path / "rows.json"
        bad.write_text(json.dumps(doc))
        assert main(["verify-plan", str(bad), "--batch", "8"]) == 1
        assert "ARENA_ROW_OVERLAP" in capsys.readouterr().out
