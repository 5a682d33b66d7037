"""The README's library quick start runs and prints what its comments say,
and the README names every public name."""

import ast
import contextlib
import io
import pathlib
import re

import detbal

README = pathlib.Path(__file__).resolve().parents[1] / "README.md"


def _quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def _is_literal(token: str) -> bool:
    try:
        ast.literal_eval(token)
    except (ValueError, SyntaxError):
        return False
    return True


def test_library_quick_start_prints_its_commented_values():
    code = _quick_start()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(code, str(README), "exec"), {})
    printed = out.getvalue().splitlines()
    comments = [
        line.split("#", 1)[1].strip() if "#" in line else ""
        for line in code.splitlines()
        if line.startswith("print(")
    ]
    assert len(printed) == len(comments)
    checked = 0
    for shown, comment in zip(printed, comments):
        if comment and all(_is_literal(tok) for tok in comment.split()):
            assert shown == comment
            checked += 1
    assert checked == 3


def test_every_public_name_is_documented():
    # a name counts when it stands whole in an inline code span, as in
    # `purify` or `theta_eval(rho, a, b)`
    spans = re.findall(r"`([^`\n]+)`", README.read_text(encoding="utf-8"))
    missing = [
        name
        for name in detbal.__all__
        if not any(re.search(rf"(?<![\w.]){name}(?!\w)", span) for span in spans)
    ]
    assert missing == []
