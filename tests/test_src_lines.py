"""``tools/src_lines.py`` counts code lines, not blanks, comments or docstrings."""

from __future__ import annotations

import importlib.util
import subprocess
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"
_SPEC = importlib.util.spec_from_file_location("src_lines", _PATH)
src_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_lines)

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment keeps its line

# a comment line


class Box:
    """Class docstring."""

    size = 1


def f(x):
    """Function
    docstring."""
    text = """a string that is
    not a docstring"""
    return (x,
            text)
'''


def test_counts_code_lines_only():
    # import, class, size, def, the two lines of text, the two of return
    assert src_lines.code_lines(SOURCE) == 8
    assert src_lines.docstring_lines(SOURCE) == {1, 2, 10, 16, 17}


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    assert src_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [int(count) for count, _ in rows] == [8, 1, 9]
    assert rows[0][1].endswith("a.py") and rows[1][1].endswith("b.py")
    assert rows[2][1] == "total"


def _git(repo, *args):
    subprocess.run(
        ["git", "-C", str(repo), "-c", "user.name=t", "-c", "user.email=t@example.com", *args],
        check=True, capture_output=True,
    )


def test_base_compares_each_file_with_a_git_revision(tmp_path, capsys):
    # the first commit has a.py and pkg/b.py; the second changes a.py,
    # drops b.py and adds c.py; a file missing on one side counts 0
    _git(tmp_path, "init", "-q")
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "b.py").write_text("x = 1\n\n# done\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "first")
    (tmp_path / "a.py").write_text(SOURCE + "y = 2\n")
    (tmp_path / "pkg" / "b.py").unlink()
    (tmp_path / "c.py").write_text("z = 3\nw = 4\n")
    _git(tmp_path, "add", "-A")
    _git(tmp_path, "commit", "-q", "-m", "second")
    assert src_lines.main(["--base", "HEAD~1", str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [(Path(path).name, old, new, diff) for old, new, diff, path in rows] == [
        ("a.py", "8", "9", "+1"),
        ("c.py", "0", "2", "+2"),
        ("b.py", "1", "0", "-1"),
        ("total", "9", "11", "+2"),
    ]
    # one file, and a revision where it is missing
    assert src_lines.main(["--base", "HEAD~1", str(tmp_path / "c.py")]) == 0
    assert capsys.readouterr().out.split("\n")[0].split()[:3] == ["0", "2", "+2"]
