import ast
import inspect
import re
from pathlib import Path

from reachkin import errors

SRC = Path(__file__).resolve().parents[1] / "src" / "reachkin"

# told apart by exit code (and ParseError by its row), not by an except clause
FAMILIES = {"ReachkinError", "InputError", "NumericalError", "ConfigError",
            "ParseError"}


def caught_names(tree):
    """The names of the classes that the except clauses of ``tree`` catch."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            kinds = node.type.elts if isinstance(node.type, ast.Tuple) \
                else [node.type]
            yield from (k.id for k in kinds if isinstance(k, ast.Name))


def test_every_error_type_is_used_outside_errors_module():
    # an exception class that no module names is dead code, and one that no
    # module catches by name is its family under another name
    sources = [p.read_text() for p in SRC.glob("*.py") if p.name != "errors.py"]
    text = "\n".join(sources)
    caught = {name for source in sources
              for name in caught_names(ast.parse(source))}
    names = [name for name, cls in vars(errors).items()
             if inspect.isclass(cls) and cls.__module__ == errors.__name__]
    assert [name for name in names if not re.search(rf"\b{name}\b", text)] == []
    assert [name for name in names
            if name not in FAMILIES and name not in caught] == []
