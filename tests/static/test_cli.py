"""CLI contracts for both static tools (exit codes, JSON artifacts)."""

import json
import os
import subprocess
import sys
import textwrap

import pytest

REPO_ROOT = os.path.normpath(os.path.join(os.path.dirname(__file__), "..", ".."))
SRC = os.path.join(REPO_ROOT, "src")


def run_cli(*argv, cwd=REPO_ROOT):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return subprocess.run(
        [sys.executable, "-m", *argv],
        cwd=cwd, env=env, capture_output=True, text=True,
    )


# -- the linter --------------------------------------------------------------
def test_lint_clean_tree_exits_zero(tmp_path):
    # The whole tree is linted in-process by test_lint_clean_tree.py and by
    # CI's static job; the exit code needs only one clean file.
    good = tmp_path / "good.py"
    good.write_text("for s in sorted(set(a)):\n    pass\n")
    proc = run_cli("repro.static.lint", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "clean" in proc.stderr


def test_lint_dirty_file_exits_one(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("import time\nt = time.time()\n")
    proc = run_cli("repro.static.lint", str(bad))
    assert proc.returncode == 1
    assert "[wall-clock]" in proc.stdout


def test_lint_json_report(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text("for s in set(a):\n    pass\n")
    out = tmp_path / "report.json"
    proc = run_cli("repro.static.lint", str(bad), "--json", str(out))
    assert proc.returncode == 1
    doc = json.loads(out.read_text())
    assert doc["checked_files"] == 1
    assert doc["counts"]["set-iteration"] == 1
    assert doc["findings"][0]["rule"] == "set-iteration"


def test_lint_usage_errors_exit_two():
    assert run_cli("repro.static.lint", "--rules", "no-such-rule").returncode == 2
    assert run_cli("repro.static.lint", "does/not/exist.py").returncode == 2


def test_lint_list_rules():
    proc = run_cli("repro.static.lint", "--list-rules")
    assert proc.returncode == 0
    for rule in ("unseeded-random", "wall-clock", "set-iteration",
                 "yieldless-process", "ungated-trace"):
        assert rule in proc.stdout


# -- the analyzer ------------------------------------------------------------
def test_drf_corpus_self_check_exits_zero(tmp_path):
    out = tmp_path / "races.json"
    proc = run_cli("repro.static.drf", "--json", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    doc = json.loads(out.read_text())
    assert doc["mismatches"] == []
    by_name = {row["test"]: row for row in doc["corpus"]}
    assert by_name["mp"]["classification"]["synchronized"] is False
    assert len(by_name["iriw"]["classification"]["races"]) == 4
    assert all(row["flag_matches"] for row in doc["corpus"])


def test_drf_program_file_analysis(tmp_path):
    racy = tmp_path / "racy.py"
    racy.write_text(textwrap.dedent("""
        THREADS = (
            (W("x", 1), W("flag", 1)),
            (R("flag", "r0"), R("x", "r1")),
        )
    """))
    proc = run_cli("repro.static.drf", "--program", str(racy))
    assert proc.returncode == 0
    assert "racy" in proc.stdout and "race on" in proc.stdout

    labeled = tmp_path / "labeled.py"
    labeled.write_text(textwrap.dedent("""
        THREADS = (
            (ACQ("L"), W("x", 1), REL("L")),
            (ACQ("L"), R("x", "r0"), REL("L")),
        )
    """))
    proc = run_cli("repro.static.drf", "--program", str(labeled))
    assert proc.returncode == 0
    assert "properly-labeled" in proc.stdout


def test_drf_program_file_without_threads_exits_two(tmp_path):
    empty = tmp_path / "empty.py"
    empty.write_text("x = 1\n")
    proc = run_cli("repro.static.drf", "--program", str(empty))
    assert proc.returncode == 2
    assert "THREADS" in proc.stderr
