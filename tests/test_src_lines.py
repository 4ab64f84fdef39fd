"""The code-line counter in ``tools/src_lines.py``."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parents[1] / "tools" / "src_lines.py"
spec = importlib.util.spec_from_file_location("src_lines", TOOL)
src_lines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(src_lines)

SAMPLE = '''"""Module docstring,
over two lines."""

# a comment
import os  # a trailing comment


class A:
    """Class docstring."""

    def f(self, x):
        """Function docstring,

        over three lines.
        """
        y = (x +
             1)
        "not a docstring"
        return """a string
over two lines"""
'''


def test_sample_counts_only_code_lines(tmp_path):
    # import, class, def, the two lines of y, the bare string and the two-line return
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    assert src_lines.code_lines(path) == 8


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "sample.py").write_text(SAMPLE)
    (tmp_path / "empty.py").write_text('"""Only a docstring."""\n')
    assert src_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["0", "8", "8"]
    assert lines[-1].endswith("total")
