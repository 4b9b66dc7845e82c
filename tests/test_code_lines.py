"""tools/code_lines.py, loaded from the repository by path: what counts as
a code line, and what its command prints."""
import importlib.util
import textwrap
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"


@pytest.fixture(scope="module")
def code_lines():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def count(code_lines, source: str) -> int:
    return code_lines.code_lines(textwrap.dedent(source))


def test_docstrings_not_counted(code_lines):
    source = '''\
        """Module docstring,
        over two lines."""


        class A:
            """Class docstring."""

            def f(self):
                """Method docstring,

                over three lines."""
                return 1


        async def g():
            """Coroutine docstring."""
            return 2
        '''
    # class A:, def f, return 1, async def g, return 2
    assert count(code_lines, source) == 5


def test_comments_and_blank_lines_not_counted(code_lines):
    source = """\
        # a comment alone

        x = 1  # a comment after code counts with its line
            # an indented comment

        y = 2
        """
    assert count(code_lines, source) == 2


def test_string_over_several_lines_counts_on_each(code_lines):
    source = '''\
        x = """one
        two
        three"""
        '''
    assert count(code_lines, source) == 3


def test_string_statement_not_a_docstring_counts(code_lines):
    source = '''\
        def f():
            x = 1
            """Not the first statement: no docstring."""
            return x
        "Nor is this, after the function."
        '''
    assert count(code_lines, source) == 5


def test_main_prints_each_file_and_the_total(code_lines, tmp_path, capsys):
    (tmp_path / "pkg").mkdir()
    (tmp_path / "a.py").write_text('"""Doc."""\nx = 1\ny = 2\n', encoding="utf-8")
    (tmp_path / "pkg" / "b.py").write_text("# note\n\nz = 3\n", encoding="utf-8")
    (tmp_path / "notes.txt").write_text("w = 4\n", encoding="utf-8")
    assert code_lines.main([str(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert out.splitlines() == ["     2  a.py", f"     1  {Path('pkg', 'b.py')}", "     3  total"]


def test_main_needs_one_directory(code_lines, capsys):
    assert code_lines.main([]) == 2
    assert capsys.readouterr().err == "usage: code_lines.py DIR\n"
