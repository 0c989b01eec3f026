"""README's structural claims, checked against the code they describe."""

import ast
import re
from pathlib import Path

from xmodal import cli, config

ROOT = Path(__file__).resolve().parents[1]
README = (ROOT / "README.md").read_text(encoding="utf-8")
PACKAGE = Path(cli.__file__).parent


def test_documented_key_count_is_the_registry_size():
    counts = re.findall(r"documents all (\d+)\s+keys", README)
    assert counts == [str(len(config.DEFAULTS))]


def test_layout_lists_exactly_the_package_modules():
    layout = README.split("## Layout", 1)[1].split("```")[1]
    listed = re.findall(r"^src/xmodal/(\w+\.py)", layout, flags=re.MULTILINE)
    # the package's __init__ holds only its docstring and version
    modules = sorted(p.name for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert sorted(listed) == modules and len(listed) == len(set(listed))


def own_returns(node):
    """The return statements of a function body, not of the functions it defines."""
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.Return):
            yield child
        elif not isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            yield from own_returns(child)


def returned_codes(functions: dict, name: str) -> set:
    """Every integer that function `name` of cli.py returns, through the functions
    whose result it returns."""
    codes = set()
    for node in own_returns(functions[name]):
        value = node.value
        if isinstance(value, ast.Constant) and type(value.value) is int:
            codes.add(value.value)
        elif isinstance(value, ast.Call) and isinstance(value.func, ast.Name) \
                and value.func.id in functions:
            codes |= returned_codes(functions, value.func.id)
        else:
            raise AssertionError(f"{name} returns {ast.unparse(value)}, not a code or a call")
    return codes


def test_exit_code_list_is_what_main_returns():
    tree = ast.parse(Path(cli.__file__).read_text(encoding="utf-8"))
    functions = {f.name: f for f in tree.body if isinstance(f, ast.FunctionDef)}
    text = " ".join(README.split("Exit codes:", 1)[1].split())
    while re.search(r"\([^()]*\)", text):  # drop every parenthesis, innermost first
        text = re.sub(r"\s*\([^()]*\)", "", text)
    documented = {int(item.split()[0]) for item in text.split(". ", 1)[0].split(", ")}
    assert documented == returned_codes(functions, "main") == {0, 2, 3, 4, 5}
