"""Smoke tests for the ``repro`` console-script entry point.

The entry point is declared in ``pyproject.toml`` and wired to
:func:`repro.experiments.cli.main`; these tests check the declaration,
that ``--help`` works through the module entry (the exact code path the
console script runs), and a tiny end-to-end mine-and-bases run.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from repro.data.io import save_basket_file
from repro.experiments.cli import main

REPO_ROOT = Path(__file__).resolve().parent.parent


class TestEntryPointDeclaration:
    def test_pyproject_declares_repro_script(self):
        pyproject = (REPO_ROOT / "pyproject.toml").read_text(encoding="utf-8")
        assert 'repro = "repro.experiments.cli:main"' in pyproject
        # The historical name keeps working too.
        assert 'repro-mine = "repro.experiments.cli:main"' in pyproject


class TestImports:
    def test_cli_and_serve_import_without_networkx(self):
        # numpy is the only runtime dependency; a daemon boot pays every
        # import of repro.experiments.cli and repro.serve.
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        probe = (
            "import sys, repro.experiments.cli, repro.serve; "
            "print('networkx' in sys.modules)"
        )
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=env,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout.strip() == "False"


class TestHelp:
    def test_help_exits_zero(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["--help"])
        assert excinfo.value.code == 0
        output = capsys.readouterr().out
        assert "repro" in output
        assert "bases" in output

    def test_module_invocation_help(self):
        # The console script calls the same main(); `python -m` exercises
        # the full interpreter-level path without requiring installation.
        env = dict(os.environ)
        src = str(REPO_ROOT / "src")
        env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
        result = subprocess.run(
            [sys.executable, "-m", "repro.experiments.cli", "--help"],
            capture_output=True,
            text=True,
            cwd=REPO_ROOT,
            env=env,
        )
        assert result.returncode == 0
        assert "usage: repro" in result.stdout

    @pytest.mark.skipif(
        shutil.which("repro") is None,
        reason="console script not installed in this environment",
    )
    def test_installed_console_script_help(self):
        result = subprocess.run(
            ["repro", "--help"], capture_output=True, text=True
        )
        assert result.returncode == 0
        assert "usage: repro" in result.stdout


class TestEndToEnd:
    def test_tiny_mine_and_bases_run(self, tmp_path, capsys, toy_db):
        path = tmp_path / "toy.basket"
        save_basket_file(toy_db, path)
        assert main(["mine", "--dataset", str(path), "--minsup", "0.4"]) == 0
        assert (
            main(
                [
                    "bases",
                    "--dataset",
                    str(path),
                    "--minsup",
                    "0.4",
                    "--minconf",
                    "0.5",
                    "--bases",
                    "dg,luxenburger-reduced,generic",
                ]
            )
            == 0
        )
        output = capsys.readouterr().out
        assert "dg [exact]" in output
        assert "generic [exact]" in output

    def test_list_bases_names_all_nine(self, capsys):
        assert main(["list-bases"]) == 0
        output = capsys.readouterr().out
        for name in (
            "all",
            "exact",
            "approximate",
            "dg",
            "luxenburger",
            "luxenburger-reduced",
            "generic",
            "informative",
            "informative-reduced",
        ):
            assert name in output
