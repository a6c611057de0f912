"""Every `Trace.emit` call in the package passes its payload as one dict.

`Trace.emit(at, actor, kind, payload)` takes no keyword arguments, so a
call left on keywords raises TypeError only when its path runs, and some
record kinds are written by no pinned run. A payload key named `at`,
`actor` or `kind` would pass `emit` and then override the record's own
field in `to_jsonl`, so the line would read back as another record. This
test reads the source with `ast` and checks every call site instead:
- four positional arguments and no keyword;
- the payload is a dict display, or a local name bound to one and given
  further keys only by item assignment;
- every key is a string constant other than `at`, `actor` and `kind`.
The one other entry allowed in a display is `**name` spreading the
enclosing function's own `**` parameter (`FaultLedger.arrive`'s detail);
then every call of that function must name its keywords, none of them
reserved.
"""

import ast
import inspect
from pathlib import Path

from tilesim.trace import Trace

SRC = Path(__file__).resolve().parent.parent / "src" / "tilesim"
RESERVED = {"at", "actor", "kind"}


def parse_package() -> dict[str, ast.Module]:
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(SRC.glob("*.py"))}


def emit_calls(tree: ast.Module):
    """Each `.emit(...)` call in `tree`, with its innermost enclosing
    function (None at module level)."""
    def visit(node, fn):
        for child in ast.iter_child_nodes(node):
            inner = child if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) else fn
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and child.func.attr == "emit"):
                yield child, fn
            yield from visit(child, inner)
    yield from visit(tree, None)


def key_errors(display: ast.Dict, fn, spread_by: set) -> list[str]:
    errors = []
    for key, value in zip(display.keys, display.values):
        if key is None:
            kwarg = fn.args.kwarg if fn is not None else None
            if isinstance(value, ast.Name) and kwarg is not None and value.id == kwarg.arg:
                spread_by.add(fn.name)
            else:
                errors.append(f"spreads {ast.unparse(value)}, not its function's ** parameter")
        elif not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
            errors.append(f"key {ast.unparse(key)} is not a string constant")
        elif key.value in RESERVED:
            errors.append(f"key {key.value!r} is a record field")
    return errors


def name_errors(name: str, call: ast.Call, fn) -> list[str]:
    """A payload passed by name: the function binds it only to dict
    displays and adds keys only by item assignment with a string constant."""
    if fn is None:
        return [f"payload {name} is not local to a function"]
    errors, seen = [], {id(call.args[3])}
    for node in ast.walk(fn):
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == name for t in node.targets):
            seen.update(id(t) for t in node.targets)
            if len(node.targets) != 1 or not isinstance(node.value, ast.Dict):
                errors.append(f"payload {name} is bound to {ast.unparse(node.value)}")
            else:
                errors += key_errors(node.value, None, set())
        elif (isinstance(node, ast.Subscript) and isinstance(node.ctx, ast.Store)
                and isinstance(node.value, ast.Name) and node.value.id == name):
            seen.add(id(node.value))
            key = node.slice
            if not (isinstance(key, ast.Constant) and isinstance(key.value, str)):
                errors.append(f"payload {name} gets key {ast.unparse(key)}")
            elif key.value in RESERVED:
                errors.append(f"payload {name} gets key {key.value!r}, a record field")
    if len(seen) == 1:
        errors.append(f"payload {name} is never bound to a dict display")
    errors += [f"payload {name} is used at line {node.lineno} other than by item assignment"
               for node in ast.walk(fn)
               if isinstance(node, ast.Name) and node.id == name and id(node) not in seen]
    return errors


def test_every_emit_site_passes_one_dict_payload():
    trees = parse_package()
    errors, spread_by, sites = [], set(), 0
    for filename, tree in trees.items():
        for call, fn in emit_calls(tree):
            sites += 1
            where = f"{filename}:{call.lineno}"
            if call.keywords or len(call.args) != 4 or any(
                    isinstance(a, ast.Starred) for a in call.args):
                errors.append(f"{where}: emit takes four positional arguments, "
                              f"not {ast.unparse(call)}")
                continue
            payload = call.args[3]
            if isinstance(payload, ast.Dict):
                found = key_errors(payload, fn, spread_by)
            elif isinstance(payload, ast.Name):
                found = name_errors(payload.id, call, fn)
            else:
                found = [f"payload {ast.unparse(payload)} is not a dict display"]
            errors += [f"{where}: {e}" for e in found]
    assert sites > 0
    # a spread parameter's keys are the keyword names at each call site
    for tree in trees.values():
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in spread_by:
                for kw in node.keywords:
                    if kw.arg is None or kw.arg in RESERVED:
                        errors.append(f"line {node.lineno}: {name} called with "
                                      f"{ast.unparse(kw)}, which would reach a payload")
    assert errors == []


def test_emit_takes_no_keyword_payload():
    assert not Trace.emit.__code__.co_flags & inspect.CO_VARKEYWORDS
