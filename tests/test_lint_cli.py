"""End-to-end tests of the ``lint`` CLI subcommand and the lint runner.

Includes the self-check the PR pins: the repository's own tree must lint
clean — the linter guarding the invariants is only trustworthy if the code
it ships with satisfies them.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.lint import LintConfig, discover_files, load_config, rule_names, run_lint
from repro.lint.runner import format_findings, select_rules

REPO_ROOT = Path(__file__).resolve().parent.parent


def _write(tmp_path: Path, name: str, code: str) -> Path:
    path = tmp_path / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(code)
    return path


_DIRTY = "import random\n\ndef draw():\n    return random.random()\n"
_CLEAN = "def double(x):\n    return 2 * x\n"


# ---------------------------------------------------------------------------
# self-check: the shipped tree satisfies its own linter
# ---------------------------------------------------------------------------


class TestSelfCheck:
    def test_repository_lints_clean(self, capsys):
        paths = [str(REPO_ROOT / d) for d in ("src", "tests", "examples", "benchmarks")]
        code = main(["lint", *paths])
        out = capsys.readouterr().out
        assert code == 0, out
        assert "simlint: clean" in out

    def test_every_rule_runs_against_the_tree(self):
        config = load_config(REPO_ROOT / "src")
        selected = {rule.rule_id for rule in select_rules(config)}
        assert selected == set(rule_names())


# ---------------------------------------------------------------------------
# exit codes and report formats
# ---------------------------------------------------------------------------


class TestCli:
    def test_findings_exit_code_one(self, tmp_path, capsys):
        _write(tmp_path, "dirty.py", _DIRTY)
        code = main(["lint", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 1
        assert "SL001" in out
        assert out.rstrip().endswith("simlint: 1 finding(s)")

    def test_clean_exit_code_zero(self, tmp_path, capsys):
        _write(tmp_path, "clean.py", _CLEAN)
        code = main(["lint", str(tmp_path)])
        out = capsys.readouterr().out
        assert code == 0
        assert "simlint: clean" in out

    def test_json_format_is_machine_readable(self, tmp_path, capsys):
        _write(tmp_path, "dirty.py", _DIRTY)
        code = main(["lint", str(tmp_path), "--format", "json"])
        out = capsys.readouterr().out
        assert code == 1
        report = json.loads(out)
        assert report["count"] == 1
        (finding,) = report["findings"]
        assert finding["rule"] == "SL001"
        assert finding["path"].endswith("dirty.py")
        assert finding["line"] == 4

    def test_select_runs_only_listed_rules(self, tmp_path, capsys):
        _write(tmp_path, "dirty.py", _DIRTY)
        code = main(["lint", str(tmp_path), "--select", "SL003,SL004"])
        assert code == 0
        assert "clean" in capsys.readouterr().out

    def test_ignore_skips_listed_rules(self, tmp_path, capsys):
        _write(tmp_path, "dirty.py", _DIRTY)
        code = main(["lint", str(tmp_path), "--ignore", "SL001"])
        assert code == 0

    def test_unknown_rule_id_exit_code_two(self, tmp_path, capsys):
        _write(tmp_path, "clean.py", _CLEAN)
        code = main(["lint", str(tmp_path), "--select", "SL999"])
        captured = capsys.readouterr()
        assert code == 2
        assert "SL999" in captured.err

    def test_missing_path_exit_code_two(self, tmp_path, capsys):
        code = main(["lint", str(tmp_path / "no-such-dir")])
        captured = capsys.readouterr()
        assert code == 2
        assert "no such file" in captured.err

    def test_list_rules(self, capsys):
        code = main(["lint", "--list-rules"])
        out = capsys.readouterr().out
        assert code == 0
        for rule_id in rule_names():
            assert rule_id in out


# ---------------------------------------------------------------------------
# runner behaviour
# ---------------------------------------------------------------------------


class TestRunner:
    def test_syntax_error_reported_as_sl000(self, tmp_path):
        _write(tmp_path, "broken.py", "def broken(:\n")
        findings = run_lint([tmp_path])
        assert [f.rule for f in findings] == ["SL000"]
        assert "syntax error" in findings[0].message

    def test_suppression_pragma_applied_by_runner(self, tmp_path):
        _write(
            tmp_path,
            "dirty.py",
            "import random\n\n"
            "def draw():\n"
            "    return random.random()  # simlint: ignore[SL001]\n",
        )
        assert run_lint([tmp_path]) == []

    def test_file_pragma_silences_whole_file(self, tmp_path):
        _write(
            tmp_path,
            "dirty.py",
            "# simlint: ignore-file[SL001] - fixture\n" + _DIRTY,
        )
        assert run_lint([tmp_path]) == []

    def test_findings_sorted_by_location(self, tmp_path):
        _write(
            tmp_path,
            "a.py",
            "import random\n\n"
            "def draw():\n"
            "    x = random.random()\n"
            "    return random.random()\n",
        )
        _write(tmp_path, "b.py", _DIRTY)
        findings = run_lint([tmp_path])
        keys = [(f.path, f.line) for f in findings]
        assert keys == sorted(keys)
        assert len(findings) == 3

    def test_discover_deduplicates_and_skips_caches(self, tmp_path):
        target = _write(tmp_path, "pkg/mod.py", _CLEAN)
        _write(tmp_path, "pkg/__pycache__/mod.cpython-311.py", _CLEAN)
        _write(tmp_path, ".repro-cache/entry.py", _CLEAN)
        files = discover_files([tmp_path, target, tmp_path / "pkg"])
        assert files == [target]

    def test_explicit_file_argument(self, tmp_path):
        target = _write(tmp_path, "dirty.py", _DIRTY)
        findings = run_lint([target])
        assert len(findings) == 1

    def test_format_findings_rejects_unknown_format(self):
        with pytest.raises(ValueError, match="unknown report format"):
            format_findings([], "yaml")

    def test_config_select_honoured_unless_cli_overrides(self, tmp_path):
        _write(tmp_path, "dirty.py", _DIRTY)
        config = LintConfig(select=("SL003",))
        assert run_lint([tmp_path], config) == []
        findings = run_lint([tmp_path], config, select=["SL001"])
        assert len(findings) == 1


# ---------------------------------------------------------------------------
# pyproject configuration
# ---------------------------------------------------------------------------


class TestConfigLoading:
    def test_repo_pyproject_discovered(self):
        config = load_config(REPO_ROOT / "src")
        assert config.rng_allowed == ("src/repro/desim/rng.py",)
        assert config.registry_packages == ("src/repro/backends",)

    def test_tool_table_overrides(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.simlint]\n"
            'rng-allowed = ["lib/seeds.py"]\n'
            'ignore = ["SL006"]\n'
        )
        config = load_config(tmp_path / "lib")
        assert config.rng_allowed == ("lib/seeds.py",)
        assert config.ignore == ("SL006",)
        # untouched keys keep their defaults
        assert config.registry_base_class == "SimulationBackend"

    def test_unknown_key_rejected(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.simlint]\nno-such-option = true\n"
        )
        with pytest.raises(ValueError, match="no_such_option"):
            load_config(tmp_path)

    def test_missing_pyproject_falls_back_to_defaults(self, tmp_path):
        config = load_config(tmp_path)
        assert config == LintConfig()

    def test_rng_exemption_from_config(self, tmp_path):
        (tmp_path / "pyproject.toml").write_text(
            "[tool.simlint]\n"
            'rng-allowed = ["entropy.py"]\n'
        )
        _write(
            tmp_path,
            "entropy.py",
            "import numpy as np\n\nROOT = np.random.default_rng()\n",
        )
        assert run_lint([tmp_path / "entropy.py"]) == []
