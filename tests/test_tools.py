"""The repository tools under ``tools/``."""

import importlib.util
from pathlib import Path

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


SYNTHETIC = '''"""Module docstring,
over two lines."""

import math  # a trailing comment keeps its line


# A comment line.
class Box:
    """Class docstring."""

    def size(self):
        """Function docstring."""
        return (math.pi
                + 1.0)
'''


def test_count_lines_counts_code_lines_only(tmp_path, capsys):
    count_lines = _load("count_lines")
    # import, class, def, and the two lines of the return expression.
    assert count_lines.code_lines(SYNTHETIC) == 5
    for tree, source in (("old", SYNTHETIC), ("new", SYNTHETIC + "\nVALUE = Box().size()\n")):
        (tmp_path / tree / "src" / "pkg").mkdir(parents=True)
        (tmp_path / tree / "src" / "pkg" / "mod.py").write_text(source)
    assert count_lines.count_tree(tmp_path / "old") == {"pkg/mod.py": 5}
    assert count_lines.count_tree(tmp_path / "new") == {"pkg/mod.py": 6}
    assert count_lines.main([str(tmp_path / "old"), str(tmp_path / "new")]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["total", "5", "6", "+1"]
