"""``tools/src_reached.py`` lists the executable lines that a run leaves out."""

from __future__ import annotations

import importlib.util
import sys
import threading
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "src_reached.py"
_SPEC = importlib.util.spec_from_file_location("src_reached", _PATH)
src_reached = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(src_reached)

TOY = '''"""Module docstring."""


def sign(x):
    """Function docstring."""
    if x < 0:
        return -1
    return 1


def unused():
    return 0
'''


def _toy(tmp_path: Path) -> Path:
    path = tmp_path / "toy.py"
    path.write_text(TOY)
    return path


def _import(path: Path):
    spec = importlib.util.spec_from_file_location("toy", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_executable_lines_leave_out_docstrings_of_functions(tmp_path):
    assert src_reached.executable_lines(_toy(tmp_path)) == {1, 4, 6, 7, 8, 11, 12}


def test_reached_lines_follow_the_run_and_its_threads(tmp_path):
    path = _toy(tmp_path)
    before = sys.gettrace()

    def run():
        toy = _import(path)
        worker = threading.Thread(target=toy.sign, args=(-1,))
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()
        return toy.sign(1)

    reached, result = src_reached.reached_lines([path], run)
    assert result == 1
    assert src_reached.executable_lines(path) - reached[str(path)] == {12}
    assert sys.gettrace() is before

    reached, _ = src_reached.reached_lines([path], lambda: _import(path).sign(1))
    assert src_reached.executable_lines(path) - reached[str(path)] == {7, 12}


def test_report_prints_ranges_per_file_and_the_total(tmp_path, capsys):
    path = _toy(tmp_path)
    assert src_reached.ranges([7, 1, 2, 3, 12]) == "1-3, 7, 12"
    assert src_reached.report({str(path): {7, 12}}) == 2
    rows = capsys.readouterr().out.splitlines()
    assert rows[0].endswith("toy.py: 7, 12") and rows[0].split()[0] == "2"
    assert rows[1].split() == ["2", "total"]


def test_a_file_edited_during_the_run_is_judged_by_the_code_that_ran(tmp_path):
    path = _toy(tmp_path)

    def run():
        result = _import(path).sign(1)
        # two lines more above everything that ran
        path.write_text('"""Module docstring,\n\nnow longer."""\n' + TOY.split("\n", 1)[1])
        return result

    missing, result = src_reached.unreached_lines([path], run)
    assert result == 1
    assert missing == {str(path): {7, 12}}
