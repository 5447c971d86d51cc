"""The README's Python examples print what their comments say."""

import ast
import contextlib
import io
import re
from pathlib import Path

README = Path(__file__).parents[1] / "README.md"


def _examples():
    """The README's ```python blocks, in order."""
    return re.findall(r"^```python\n(.*?)^```$", README.read_text(), re.S | re.M)


def _printed_comments(block):
    """Per print statement of the block, in order, the comment that ends its last line."""
    lines = block.splitlines()
    comments = []
    for node in ast.parse(block).body:
        call = node.value if isinstance(node, ast.Expr) else None
        if isinstance(call, ast.Call) and ast.unparse(call.func) == "print":
            code, sep, comment = lines[node.end_lineno - 1].partition("  # ")
            assert sep, f"print without a trailing comment: {code.strip()}"
            comments.append(comment)
    return comments


def test_readme_examples_print_their_trailing_comments():
    # the blocks run in order in one namespace, as a reader runs them; each
    # printed line equals the trailing comment of its print, character for
    # character
    blocks = _examples()
    assert len(blocks) >= 4
    namespace = {}
    for block in blocks:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            exec(compile(block, str(README), "exec"), namespace)
        assert out.getvalue().splitlines() == _printed_comments(block)
