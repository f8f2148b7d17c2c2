import inspect
import re
from pathlib import Path

from reachkin import errors

SRC = Path(__file__).resolve().parents[1] / "src" / "reachkin"


def test_every_error_type_is_used_outside_errors_module():
    # an exception class that no module names is dead code
    text = "\n".join(p.read_text() for p in SRC.glob("*.py")
                     if p.name != "errors.py")
    unused = [name for name, cls in vars(errors).items()
              if inspect.isclass(cls) and cls.__module__ == errors.__name__
              and not re.search(rf"\b{name}\b", text)]
    assert unused == []
