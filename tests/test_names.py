"""Every global name the package's modules look up is defined.

A name that is neither bound at a module's top level nor a builtin fails
only when the line that reads it runs, so a path no test reaches can hide
one. `symtable` finds them without running anything.
"""

import builtins
import symtable
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "codedsm"
MODULE_NAMES = {"__name__", "__file__", "__doc__", "__spec__", "__path__",
                "__package__", "__loader__", "__builtins__"}


def _global_lookups(table, where):
    """(scope, name) for each name ``table`` and its children read as a
    global."""
    for sym in table.get_symbols():
        if sym.is_referenced() and sym.is_global():
            yield where, sym.get_name()
    for child in table.get_children():
        yield from _global_lookups(child, f"{where}.{child.get_name()}")


def undefined_globals(path: Path) -> list[str]:
    top = symtable.symtable(path.read_text(), str(path), "exec")
    bound = {s.get_name() for s in top.get_symbols()
             if s.is_assigned() or s.is_imported()}
    known = bound | set(dir(builtins)) | MODULE_NAMES
    return [f"{scope}: {name}"
            for scope, name in _global_lookups(top, path.stem)
            if name not in known]


def test_every_global_lookup_is_defined():
    found = [hit for path in sorted(SRC.glob("*.py"))
             for hit in undefined_globals(path)]
    assert found == []
