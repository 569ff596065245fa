"""Smoke tests of the measuring scripts beside the tests.

``code_lines.py``, ``startup.py`` and ``scale.py`` report and check
nothing, so a rename under ``src/`` could break them unnoticed: here the
line counter runs on small snippets, on the package and on a package
path given to it, the start-up timer runs once, and the scale ladder
runs its smallest sizes.
"""

import json
import subprocess
import sys
from pathlib import Path

import code_lines
import scale

TESTS = Path(__file__).resolve().parent


def test_code_lines_skips_docstrings_comments_and_blanks():
    source = (
        '"""Module docstring,\n'
        'two lines."""\n'
        "\n"
        "# A comment.\n"
        "x = 1  # trailing\n"
        "\n"
        "\n"
        "class C:\n"
        '    """Class docstring."""\n'
        "\n"
        "    def f(self):\n"
        '        """Function\n'
        '        docstring."""\n'
        '        return """a\n'
        "b\n"
        '"""\n'
    )
    # x = 1, class C, def f, and the three lines of the returned string.
    assert code_lines.code_lines(source) == 6
    assert code_lines.code_lines("# only a comment\n\n") == 0


def test_code_lines_rows_add_up(capsys):
    code_lines.main([])
    rows = dict(
        line.rsplit(maxsplit=1) for line in capsys.readouterr().out.splitlines()
    )
    counts = {name: int(n) for name, n in rows.items()}
    modules = {path.name for path in code_lines.PACKAGE.glob("*.py")}
    assert modules and set(counts) - modules == {
        "total", "without oracle.py", "without oracle, sets",
    }
    total = sum(counts[name] for name in modules)
    assert all(counts[name] > 0 for name in modules)
    assert counts["total"] == total
    assert counts["without oracle.py"] == total - counts["oracle.py"]
    assert counts["without oracle, sets"] == (
        total - counts["oracle.py"] - counts["sets.py"]
    )


def test_code_lines_counts_the_package_it_is_given(tmp_path):
    (tmp_path / "oracle.py").write_text("x = 1\ny = 2\n")
    (tmp_path / "sets.py").write_text('"""Doc."""\nz = 3\n')
    (tmp_path / "mod.py").write_text("# none\n\ndef f():\n    return 1\n")
    done = subprocess.run(
        [sys.executable, str(TESTS / "code_lines.py"), str(tmp_path)],
        capture_output=True, text=True, check=True,
    )
    assert done.stdout.splitlines() == [
        f"{name:20} {count:5}" for name, count in [
            ("mod.py", 2), ("oracle.py", 2), ("sets.py", 1), ("total", 5),
            ("without oracle.py", 3), ("without oracle, sets", 2),
        ]
    ]


def test_startup_script_runs_once():
    done = subprocess.run(
        [sys.executable, str(TESTS / "startup.py"), "1"],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert lines[0].split() == ["runs", "1"]
    medians = [line.rsplit(maxsplit=2) for line in lines[1:]]
    assert [label for label, _, _ in medians] == [
        "no bytecode cache", "bytecode cache",
    ]
    assert all(unit == "ms" and float(ms) > 0 for _, ms, unit in medians)


def test_scale_ladder_runs_its_smallest_sizes():
    done = subprocess.run(
        [sys.executable, str(TESTS / "scale.py"), str(scale.PACKAGE),
         "--max-atoms", "8", "--json"],
        capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    rows = json.loads(done.stdout)
    assert [(row["family"], row["atoms"]) for row in rows] == [
        ("ring", 5), ("hcf-blocks", 8), ("non-hcf-blocks", 8), ("free", 8),
    ]
    # Every point of free choice is stable; a block pair's count is the
    # square of one block's.
    assert [row["stable"] for row in rows] == [24, 64, 49, 256]
    assert all(
        row["path"] in ("per_model", "by_loops", "by_fixpoint")
        and row["classical_s"] >= 0 and row["sweep_s"] >= 0
        and row["list_s"] >= 0 and row["stable_s"] >= 0 and row["peak_mib"] > 0
        for row in rows
    )
