"""CLI tests — builders are monkeypatched to the small session datasets so
the commands run in unit-test time."""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro import cli
from tests.data.sidecar_damage import DAMAGES, damage_sidecar
from tests.engine.store_damage import STORE_DAMAGES, damage_store


@pytest.fixture(autouse=True)
def small_builders(monkeypatch, small_circles_dataset, small_community_dataset):
    def circles_builder(seed=None, **kwargs):
        return small_circles_dataset

    def community_builder(seed=None, **kwargs):
        return small_community_dataset

    monkeypatch.setattr(
        cli,
        "_BUILDERS",
        {
            "google_plus": circles_builder,
            "twitter": circles_builder,
            "livejournal": community_builder,
            "orkut": community_builder,
            "magno": community_builder,
        },
    )


#: (argv, environment, the flag or variable the error must name): one
#: bad value per numeric flag, and per variable a flag falls back to.
_BAD_NUMBERS = [
    (["score", "--jobs", "0"], {}, "--jobs"),
    (["score"], {"REPRO_JOBS": "abc"}, "REPRO_JOBS"),
    (["--seed", "-1", "freeze", "--scale", "100"], {}, "--seed"),
    (["freeze", "--scale", "0"], {}, "--scale"),
    (["freeze", "--scale", "100", "--chunk-edges", "0"], {}, "--chunk-edges"),
    (["serve", "--port", "99999"], {}, "--port"),
    (["serve"], {"REPRO_SERVE_PORT": "http"}, "REPRO_SERVE_PORT"),
    (["serve", "--max-resident", "0"], {}, "--max-resident"),
    (["serve"], {"REPRO_SERVE_MAX_RESIDENT": "-2"}, "REPRO_SERVE_MAX_RESIDENT"),
    (["serve", "--batch-window", "-1"], {}, "--batch-window"),
    (["serve"], {"REPRO_SERVE_WINDOW": "inf"}, "REPRO_SERVE_WINDOW"),
    (["serve", "--max-batch", "0"], {}, "--max-batch"),
    (["serve"], {"REPRO_SERVE_MAX_BATCH": "1.5"}, "REPRO_SERVE_MAX_BATCH"),
]


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            cli.main([])

    def test_unknown_dataset_exits(self):
        with pytest.raises(SystemExit, match="unknown dataset"):
            cli.main(["overlap", "nope"])

    @pytest.mark.parametrize(
        ("argv", "env", "named"),
        _BAD_NUMBERS,
        ids=[named for *_, named in _BAD_NUMBERS],
    )
    def test_bad_numeric_value_is_a_usage_error(
        self, capsys, monkeypatch, tmp_path, argv, env, named
    ):
        """A bad flag value, or a bad value of the variable it falls back
        to, exits 2 naming it before any work starts."""
        import repro.service

        def refuse(config):
            raise AssertionError(f"service started with {config}")

        monkeypatch.setattr(repro.service, "CircleService", refuse)
        for variable in ("REPRO_JOBS", "REPRO_SERVE_PORT", "REPRO_SERVE_WINDOW",
                         "REPRO_SERVE_MAX_RESIDENT", "REPRO_SERVE_MAX_BATCH"):
            monkeypatch.delenv(variable, raising=False)
        for variable, value in env.items():
            monkeypatch.setenv(variable, value)
        if "freeze" in argv:
            argv = [*argv, "-o", str(tmp_path / "store")]
        if "serve" in argv:
            argv = [*argv, str(tmp_path)]
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv)
        assert excinfo.value.code == 2
        assert named in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["lint", "check"])
    def test_dev_tools_are_not_subcommands(self, capsys, command):
        """The linter and the determinism checker run only as
        ``python -m repro.devtools.lint`` and ``... .determinism``."""
        with pytest.raises(SystemExit) as excinfo:
            cli.main([command])
        assert excinfo.value.code == 2
        assert f"invalid choice: '{command}'" in capsys.readouterr().err


class TestCommands:
    def test_characterize_single(self, capsys):
        assert cli.main(["characterize", "google_plus"]) == 0
        out = capsys.readouterr().out
        assert "Dataset characterization" in out
        assert "vertices" in out

    def test_characterize_all_prints_contrast(self, capsys):
        assert cli.main(["characterize"]) == 0
        out = capsys.readouterr().out
        assert "Crawl-method contrast" in out

    def test_overlap(self, capsys):
        assert cli.main(["overlap", "google_plus"]) == 0
        out = capsys.readouterr().out
        assert "overlap_fraction" in out
        assert "Membership multiplicity" in out

    def test_overlap_requires_ego_collection(self):
        with pytest.raises(SystemExit, match="no ego collection"):
            cli.main(["overlap", "livejournal"])

    def test_degree_fit(self, capsys):
        assert cli.main(["degree-fit", "google_plus"]) == 0
        out = capsys.readouterr().out
        assert "model selection" in out
        assert "Likelihood-ratio" in out

    def test_score(self, capsys):
        assert cli.main(["score", "google_plus"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 5" in out
        assert "circles" in out
        assert "Separation summary" in out

    def test_score_with_sampler(self, capsys):
        assert cli.main(["score", "google_plus", "--sampler", "uniform"]) == 0

    def test_compare(self, capsys):
        assert cli.main(["compare"]) == 0
        out = capsys.readouterr().out
        assert "Fig. 6" in out
        assert "Structural signatures" in out

    def test_robustness(self, capsys):
        assert cli.main(["robustness", "google_plus"]) == 0
        out = capsys.readouterr().out
        assert "deviation" in out

    def test_classify(self, capsys):
        assert cli.main(["classify", "google_plus"]) == 0
        out = capsys.readouterr().out
        assert "Circle categorization" in out
        assert "community_count" in out

    def test_classify_threshold_method(self, capsys):
        assert cli.main(["classify", "google_plus", "--method", "threshold"]) == 0

    def test_classify_requires_circles(self):
        with pytest.raises(SystemExit, match="no circles"):
            cli.main(["classify", "livejournal"])

    def test_ego_view(self, capsys):
        assert cli.main(["ego-view", "google_plus"]) == 0
        out = capsys.readouterr().out
        assert "Ego-local vs global" in out
        assert "Confinement gain" in out

    def test_ego_view_requires_ego_collection(self):
        with pytest.raises(SystemExit, match="no ego collection"):
            cli.main(["ego-view", "livejournal"])

    def test_detect(self, capsys):
        assert cli.main(["detect", "livejournal"]) == 0
        out = capsys.readouterr().out
        assert "Louvain" in out
        assert "Jaccard" in out

    def test_export(self, capsys, tmp_path):
        target = tmp_path / "figures"
        assert cli.main(["export", "-o", str(target)]) == 0
        out = capsys.readouterr().out
        assert "fig5_conductance.csv" in out
        assert (target / "fig6_conductance.csv").exists()

    # The linter's one entry point is ``python -m repro.devtools.lint``;
    # these run it as a program, as scripts/check.sh does, so the exit
    # status is the one the shell sees.

    def test_lint_clean_file(self, tmp_path):
        clean = tmp_path / "clean.py"
        clean.write_text('"""Doc."""\n__all__ = []\n')
        assert _run_lint(str(clean)).returncode == 0

    def test_lint_flags_violations(self, tmp_path):
        bad = tmp_path / "bad.py"
        bad.write_text("import random\n\nx = random.random()\n")
        completed = _run_lint(str(bad))
        assert completed.returncode == 1
        assert "REP001" in completed.stdout

    def test_lint_list_rules(self):
        completed = _run_lint("--list-rules")
        assert completed.returncode == 0
        assert "REP001" in completed.stdout and "REP006" in completed.stdout

    def test_lint_missing_path(self, tmp_path):
        completed = _run_lint(str(tmp_path / "nope.py"))
        assert completed.returncode == 2
        assert "no such file" in completed.stderr


def _run_lint(*args: str) -> subprocess.CompletedProcess:
    """Run ``python -m repro.devtools.lint ARGS`` in a fresh interpreter."""
    src = Path(cli.__file__).resolve().parents[1]
    paths = [str(src), os.environ.get("PYTHONPATH", "")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    return subprocess.run(
        [sys.executable, "-m", "repro.devtools.lint", *args],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


class TestTrace:
    @pytest.fixture(autouse=True)
    def obs_off(self):
        from repro import obs

        obs.disable()
        obs.REGISTRY.reset()
        yield
        obs.disable()
        obs.REGISTRY.reset()

    def test_trace_wraps_subcommand_and_writes_artifacts(self, capsys, tmp_path):
        import json

        out_path = tmp_path / "trace.jsonl"
        code = cli.main(
            ["trace", "--trace-out", str(out_path), "score", "google_plus"]
        )
        assert code == 0

        captured = capsys.readouterr()
        assert "Separation summary" in captured.out  # traced stdout intact
        assert "trace written to" in captured.err

        records = [
            json.loads(line)
            for line in out_path.read_text(encoding="utf-8").splitlines()
        ]
        assert records[0]["type"] == "trace"
        assert records[-1]["type"] == "metrics"
        span_names = {r["name"] for r in records if r["type"] == "span"}
        assert "experiment.circles_vs_random" in span_names
        manifest_commands = [
            r["command"] for r in records if r["type"] == "manifest"
        ]
        assert "circles_vs_random" in manifest_commands

        sidecar = out_path.with_suffix(".manifest.json")
        assert sidecar.exists()
        assert json.loads(sidecar.read_text(encoding="utf-8"))

    def test_trace_text_format_prints_tree_to_stderr(self, capsys, tmp_path):
        out_path = tmp_path / "trace.jsonl"
        code = cli.main(
            [
                "trace",
                "--trace-out",
                str(out_path),
                "--format",
                "text",
                "score",
                "--dataset",
                "gplus-synth",
            ]
        )
        assert code == 0
        err = capsys.readouterr().err
        assert "trace: score --dataset gplus-synth" in err
        assert "experiment.circles_vs_random" in err

    def test_trace_disables_observability_afterwards(self, tmp_path):
        from repro import obs

        cli.main(["trace", "--trace-out", str(tmp_path / "t.jsonl"), "overlap"])
        assert not obs.enabled()

    def test_trace_requires_a_command(self):
        with pytest.raises(SystemExit, match="missing command"):
            cli.main(["trace"])

    def test_trace_rejects_nesting(self):
        with pytest.raises(SystemExit, match="cannot nest"):
            cli.main(["trace", "trace", "score"])

    def test_trace_out_flag_on_plain_subcommand(self, capsys, tmp_path):
        out_path = tmp_path / "direct.jsonl"
        assert cli.main(["score", "google_plus", "--trace-out", str(out_path)]) == 0
        assert out_path.exists()
        assert out_path.with_suffix(".manifest.json").exists()
        assert "trace written to" in capsys.readouterr().err

    def test_dataset_aliases_resolve(self, capsys):
        assert cli.main(["score", "--dataset", "gplus-synth"]) == 0
        assert "Separation summary" in capsys.readouterr().out


@pytest.fixture(scope="module")
def scale_store(tmp_path_factory):
    """A small planted-partition store (``freeze --scale 3000``), frozen
    once per module; tests that rewrite it work on a copy."""
    store = tmp_path_factory.mktemp("scale") / "store"
    argv = ["--seed", "3", "freeze", "--scale", "3000", "-o", str(store)]
    assert cli.main(argv) == 0
    return store


def _store_copy(scale_store, tmp_path):
    return shutil.copytree(scale_store, tmp_path / "store")


class TestOutOfCoreCommands:
    def test_freeze_score_delta_round_trip(self, capsys, tmp_path):
        store = tmp_path / "store"
        assert cli.main(["freeze", "google_plus", "-o", str(store)]) == 0
        out = capsys.readouterr().out
        assert "froze" in out
        assert (store / "meta.json").is_file()
        assert (store / "groups.json").is_file()

        assert cli.main(["score", "--mmap-dir", str(store)]) == 0
        out = capsys.readouterr().out
        assert "store" in out

        assert (
            cli.main(["delta", "--mmap-dir", str(store), "--drop-edges", "2"])
            == 0
        )
        out = capsys.readouterr().out
        assert "edges removed" in out

    def test_freeze_scale_builds_benchmark_store(self, capsys, tmp_path):
        store = tmp_path / "bench"
        assert (
            cli.main(["freeze", "--scale", "2000", "-o", str(store)]) == 0
        )
        assert (store / "meta.json").is_file()
        assert cli.main(["score", "--mmap-dir", str(store)]) == 0

    def test_mmap_dir_env_default(self, capsys, tmp_path, monkeypatch):
        store = tmp_path / "store"
        assert cli.main(["freeze", "google_plus", "-o", str(store)]) == 0
        capsys.readouterr()
        monkeypatch.setenv("REPRO_MMAP_DIR", str(store))
        assert cli.main(["score"]) == 0
        assert cli.main(["delta", "--drop-edges", "1"]) == 0

    def test_score_missing_store_exits(self, tmp_path):
        with pytest.raises(SystemExit):
            cli.main(["score", "--mmap-dir", str(tmp_path / "missing")])

    @pytest.mark.parametrize("excess", [-1, 1], ids=["negative", "over"])
    def test_delta_rejects_a_count_the_store_cannot_meet(
        self, capsys, scale_store, excess
    ):
        """A negative count, or one above the store's edge count, exits 2
        naming both numbers, before any edge is drawn."""
        from repro.engine import AnalysisContext

        edges = AnalysisContext.open(scale_store).num_edges
        count = -1 if excess < 0 else edges + excess
        argv = ["delta", "--mmap-dir", str(scale_store)]
        with pytest.raises(SystemExit) as excinfo:
            cli.main(argv + ["--drop-edges", str(count)])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert f"--drop-edges {count}" in err
        assert str(edges) in err

    def test_delta_without_store_exits(self, monkeypatch):
        monkeypatch.delenv("REPRO_MMAP_DIR", raising=False)
        with pytest.raises(SystemExit, match="mmap-dir"):
            cli.main(["delta"])

    def test_score_matches_in_process_scoring_of_a_messy_sidecar(
        self, capsys, tmp_path, scale_store
    ):
        """A label the store lacks, a repeated member and a group that
        restriction empties: the flat sidecar path prints what
        ``score_groups(context, load_groups(sidecar))`` computes, and
        ``--jobs 2`` prints what ``--jobs 1`` does."""
        from repro.analysis.report import render_table
        from repro.data.groups import load_groups
        from repro.engine import AnalysisContext
        from repro.scoring.registry import score_groups

        store = _store_copy(scale_store, tmp_path)
        sidecar = store / "groups.json"
        payload = json.loads(sidecar.read_text(encoding="utf-8"))
        context = AnalysisContext.open(store)
        absent = context.num_vertices + 7
        first, second = payload["groups"][:2]
        first["members"] += [absent, "ghost", first["members"][0]]
        second["members"] = second["members"][::-1] + second["members"][:3]
        payload["groups"].append(
            {"kind": "group", "name": "ghosts", "members": [absent, "nobody"]}
        )
        sidecar.write_text(json.dumps(payload), encoding="utf-8")

        table = score_groups(context, load_groups(sidecar), cache=False)
        assert len(table) == len(payload["groups"]) - 1
        outputs = []
        for jobs in ("1", "2"):
            argv = ["score", "--mmap-dir", str(store), "--no-cache"]
            assert cli.main(argv + ["--jobs", jobs]) == 0
            outputs.append(capsys.readouterr().out)
        assert outputs[0] == outputs[1]
        rows = [
            {"function": name, **values}
            for name, values in table.summary().items()
        ]
        assert render_table(rows, title="Score summary (stored groups)") in (
            outputs[0]
        )
        counts = [
            line for line in outputs[0].splitlines() if "groups scored" in line
        ]
        assert counts == [f"groups scored : {len(table)}"]

    def test_score_recovers_from_an_empty_cache_entry(
        self, capsys, tmp_path, scale_store
    ):
        """A cache entry emptied on disk is evicted: the rerun exits 0,
        prints what the undamaged run printed and rewrites the entry."""
        cache_dir = tmp_path / "cache"
        argv = ["score", "--mmap-dir", str(scale_store)]
        argv += ["--cache-dir", str(cache_dir)]
        assert cli.main(argv) == 0
        cold = capsys.readouterr().out
        (entry,) = list(cache_dir.iterdir())
        data = entry.read_bytes()
        entry.write_bytes(b"")
        assert cli.main(argv) == 0
        assert capsys.readouterr().out == cold
        assert entry.read_bytes() == data

    @pytest.mark.parametrize("damage", sorted(STORE_DAMAGES))
    def test_damaged_store_metadata_exits_with_the_error(
        self, tmp_path, scale_store, damage
    ):
        """A missing array file or a damaged ``meta.json`` ends the run
        with a one-line message naming the file (exit status 1), not a
        traceback."""
        store = _store_copy(scale_store, tmp_path)
        name = damage_store(store, damage)
        for argv in (
            ["score", "--mmap-dir", str(store)],
            ["delta", "--mmap-dir", str(store), "--drop-edges", "1"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                cli.main(argv)
            message = excinfo.value.code
            assert isinstance(message, str)
            assert name in message and "\n" not in message

    @pytest.mark.parametrize("damage", sorted(DAMAGES))
    def test_damaged_sidecar_exits_with_the_error(
        self, tmp_path, scale_store, damage
    ):
        store = _store_copy(scale_store, tmp_path)
        name = damage_sidecar(store / "groups.json", damage)
        for argv in (
            ["score", "--mmap-dir", str(store)],
            ["delta", "--mmap-dir", str(store), "--drop-edges", "1"],
        ):
            with pytest.raises(SystemExit) as excinfo:
                cli.main(argv)
            message = str(excinfo.value.code)
            assert "groups.json" in message
            if name:
                assert repr(name) in message
