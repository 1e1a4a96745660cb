"""BENCH_*.json artifacts: schema, determinism, and the regression gate.

The acceptance criterion from ISSUE 3 lives here: ``--compare`` on an
artifact with an injected throughput regression must exit nonzero,
while identical artifacts pass.  Artifact determinism (byte-identical
files from repeated runs of the same figure) is what makes the plain
tolerance check in CI sound, so it gets a direct test too.
"""

import copy
import json

import pytest

from repro.bench import artifacts
from repro.bench.__main__ import main
from repro.bench.figures import run_figure
from repro.bench.harness import collect_results, run_dfaster_experiment
from repro.bench.report import format_table


@pytest.fixture(scope="module")
def sweep():
    """One tiny two-experiment sweep, collected the way figures are."""
    with collect_results() as results:
        for label in ("cfg-a", "cfg-b"):
            run_dfaster_experiment(
                label, duration=0.15, warmup=0.05, n_workers=2, vcpus=2,
                n_client_machines=1, client_threads=1, batch_size=64,
                checkpoint_interval=0.05)
    return results


@pytest.fixture()
def artifact(sweep):
    return artifacts.build_artifact("figX", 1.0, sweep, commit="abc123")


class TestBuildAndValidate:
    def test_shape(self, artifact):
        artifacts.validate(artifact)
        assert artifact["schema"] == artifacts.SCHEMA
        assert artifact["figure"] == "figX"
        assert artifact["commit"] == "abc123"
        labels = [e["label"] for e in artifact["experiments"]]
        assert labels == ["cfg-a", "cfg-b"]
        for experiment in artifact["experiments"]:
            assert experiment["throughput_mops"] > 0
            assert experiment["operation_latency"]["p99"] >= \
                experiment["operation_latency"]["p50"]
            assert experiment["phases"]  # traced by default

    def test_figure_level_phases_merged(self, artifact):
        # Both experiments recorded net.delivery; the merged view must
        # carry the combined count.
        per_run = [e["phases"]["net.delivery"]["count"]
                   for e in artifact["experiments"]]
        assert artifact["phases"]["net.delivery"]["count"] == sum(per_run)

    def test_git_commit_resolves(self):
        commit = artifacts.git_commit()
        assert len(commit) == 40
        int(commit, 16)  # hex SHA

    @pytest.mark.parametrize("mutate", [
        lambda a: a.pop("schema"),
        lambda a: a.__setitem__("schema", "repro.bench/v0"),
        lambda a: a.pop("phases"),
        lambda a: a["experiments"][0].pop("throughput_mops"),
        lambda a: a["experiments"][0]["commit_latency"].pop("p99"),
        lambda a: a.__setitem__("experiments", "nope"),
    ])
    def test_validate_rejects_malformed(self, artifact, mutate):
        broken = copy.deepcopy(artifact)
        mutate(broken)
        with pytest.raises(ValueError):
            artifacts.validate(broken)


class TestRoundtrip:
    def test_write_then_load(self, artifact, tmp_path):
        path = tmp_path / "sub" / artifacts.artifact_name("figX")
        artifacts.write_artifact(artifact, path)
        assert path.name == "BENCH_figX.json"
        loaded = artifacts.load_artifact(path)
        assert loaded == json.loads(json.dumps(artifact))

    def test_dumps_is_canonical(self, artifact):
        text = artifacts.dumps(artifact)
        assert text.endswith("\n")
        assert json.loads(text) == json.loads(json.dumps(artifact))
        # Key order is sorted, so equal dicts give equal bytes.
        assert artifacts.dumps(copy.deepcopy(artifact)) == text


class TestCompare:
    def test_identical_artifacts_pass(self, artifact):
        assert artifacts.compare(artifact, copy.deepcopy(artifact)) == []

    def test_injected_regression_is_flagged(self, artifact):
        regressed = copy.deepcopy(artifact)
        entry = regressed["experiments"][1]
        entry["throughput_mops"] *= 0.5  # 50% drop >> 15% tolerance
        findings = artifacts.compare(artifact, regressed, tolerance=0.15)
        assert len(findings) == 1
        assert "cfg-b" in findings[0]
        assert "below baseline" in findings[0]

    def test_drop_within_tolerance_passes(self, artifact):
        wobbly = copy.deepcopy(artifact)
        wobbly["experiments"][0]["throughput_mops"] *= 0.9
        assert artifacts.compare(artifact, wobbly, tolerance=0.15) == []
        # Improvements never flag.
        wobbly["experiments"][0]["throughput_mops"] *= 10
        assert artifacts.compare(artifact, wobbly, tolerance=0.15) == []

    @pytest.mark.parametrize("mutate", [
        lambda a: a.__setitem__("figure", "figY"),
        lambda a: a.__setitem__("scale", 2.0),
        lambda a: a["experiments"][0].__setitem__("label", "renamed"),
        lambda a: a["experiments"].pop(),
    ])
    def test_mismatched_artifacts_are_an_error(self, artifact, mutate):
        other = copy.deepcopy(artifact)
        mutate(other)
        with pytest.raises(ValueError, match="cannot compare"):
            artifacts.compare(artifact, other)


def _text_and_artifact(name, scale):
    """What the CLI makes of one ``run_figure`` call."""
    title, rows, results = run_figure(name, scale)
    return (format_table(rows, title=title),
            artifacts.build_artifact(name, scale, results))


class TestGenerateArtifact:
    @pytest.fixture(scope="class")
    def fig18(self):
        return _text_and_artifact("fig18", 0.5)

    def test_text_and_artifact_agree(self, fig18):
        text, artifact = fig18
        assert "Figure 18" in text
        artifacts.validate(artifact)
        assert artifact["figure"] == "fig18"
        assert artifact["scale"] == 0.5
        assert [e["label"] for e in artifact["experiments"]] == \
            ["fig18 redis", "fig18 redis+proxy", "fig18 d-redis"]

    def test_regeneration_is_byte_identical(self, fig18):
        """Same figure, same scale, same commit => same bytes.  This is
        the property that lets CI diff against a checked-in baseline."""
        _, again = _text_and_artifact("fig18", 0.5)
        assert artifacts.dumps(again) == artifacts.dumps(fig18[1])

    def test_rejects_all_and_unknown(self):
        with pytest.raises(KeyError):
            run_figure("all")
        with pytest.raises(KeyError):
            run_figure("fig99")


class TestCliGate:
    def _write(self, artifact, path):
        artifacts.write_artifact(artifact, path)
        return str(path)

    def test_compare_ok_exits_zero(self, artifact, tmp_path, capsys):
        base = self._write(artifact, tmp_path / "base.json")
        code = main(["--compare", base, base])
        assert code == 0
        assert "OK" in capsys.readouterr().out

    def test_compare_regression_exits_nonzero(self, artifact, tmp_path,
                                              capsys):
        regressed = copy.deepcopy(artifact)
        for entry in regressed["experiments"]:
            entry["throughput_mops"] *= 0.5
        base = self._write(artifact, tmp_path / "base.json")
        cur = self._write(regressed, tmp_path / "cur.json")
        code = main(["--compare", base, cur, "--tolerance", "0.15"])
        assert code == 1
        out = capsys.readouterr().out
        assert "REGRESSION" in out and "cfg-a" in out

    def test_compare_respects_tolerance(self, artifact, tmp_path):
        regressed = copy.deepcopy(artifact)
        for entry in regressed["experiments"]:
            entry["throughput_mops"] *= 0.5
        base = self._write(artifact, tmp_path / "base.json")
        cur = self._write(regressed, tmp_path / "cur.json")
        assert main(["--compare", base, cur, "--tolerance", "0.6"]) == 0

    def test_compare_missing_artifact_exits_two(self, artifact, tmp_path,
                                                capsys):
        """Input errors are not regressions: exit 2 and one line, not a
        traceback (which exits 1, the REGRESSION code)."""
        base = self._write(artifact, tmp_path / "base.json")
        assert main(["--compare", base, str(tmp_path / "absent.json")]) == 2
        broken = tmp_path / "broken.json"
        broken.write_text(json.dumps({"schema": "other/v0"}))
        assert main(["--compare", base, str(broken)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 2
        assert all(line.startswith("cannot compare: ") for line in lines)

    def test_compare_mismatched_artifacts_exit_two(self, artifact,
                                                   tmp_path, capsys):
        other = copy.deepcopy(artifact)
        other["figure"] = "figY"
        base = self._write(artifact, tmp_path / "base.json")
        cur = self._write(other, tmp_path / "cur.json")
        assert main(["--compare", base, cur]) == 2
        assert capsys.readouterr().err == (
            "cannot compare: figure differs ('figX' vs 'figY')\n")
        relabelled = copy.deepcopy(artifact)
        relabelled["experiments"][0]["label"] = "renamed"
        cur = self._write(relabelled, tmp_path / "cur.json")
        assert main(["--compare", base, cur]) == 2
        assert capsys.readouterr().err.startswith(
            "cannot compare: experiment sequence differs")

    def test_figure_run_emits_artifact(self, tmp_path, capsys):
        code = main(["fig18", "--scale", "0.5",
                     "--json-dir", str(tmp_path)])
        assert code == 0
        path = tmp_path / "BENCH_fig18.json"
        assert path.exists()
        loaded = artifacts.load_artifact(path)
        assert loaded["figure"] == "fig18"
        assert str(path) in capsys.readouterr().out

    def test_requires_figure_or_compare(self):
        with pytest.raises(SystemExit):
            main([])
