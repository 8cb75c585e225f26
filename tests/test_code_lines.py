"""``tools/code_lines.py`` counts code lines the way ROADMAP aim 2 counts them."""

import importlib.util
from pathlib import Path

MODULE = '''"""A module docstring
over two lines."""

import os  # a trailing comment keeps its line


# a comment alone
def f(x):
    """One line of docstring."""

    text = """a string
# that is not a comment"""
    return x + len(text)
'''


def _load_tool():
    path = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
    spec = importlib.util.spec_from_file_location("code_lines", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_and_skips_docstrings_comments_and_blanks(tmp_path, capsys):
    tool = _load_tool()
    # import, def, the two lines of the string assignment, return
    assert tool.code_lines(MODULE) == 5
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text("x = 1\n\n# done\n")
    assert tool.count_package(tmp_path) == {"a.py": 5, "b.py": 1}
    assert tool.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.split() == ["5", "a.py", "1", "b.py", "6", "total"]
