import ast
import os

from fusionforge import errors


def test_every_error_is_raised_somewhere():
    """Each ``FusionError`` subclass is raised by some ``raise`` statement
    of the package: an error class that nothing raises is dead code."""
    src = os.path.dirname(os.path.abspath(errors.__file__))
    raised = set()
    for name in os.listdir(src):
        if name.endswith(".py"):
            with open(os.path.join(src, name)) as f:
                tree = ast.parse(f.read())
            for node in ast.walk(tree):
                if isinstance(node, ast.Raise) and node.exc is not None:
                    exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                    if isinstance(exc, ast.Name):
                        raised.add(exc.id)
    classes = {name for name, obj in vars(errors).items()
               if isinstance(obj, type) and issubclass(obj, errors.FusionError)
               and obj is not errors.FusionError}
    assert len(classes) >= 10
    assert classes <= raised, sorted(classes - raised)


def _parsed_modules(top):
    """(tree, parent map) of every Python file under ``top``."""
    for d, _, names in os.walk(top):
        for name in sorted(names):
            if name.endswith(".py"):
                with open(os.path.join(d, name)) as f:
                    tree = ast.parse(f.read())
                yield tree, {c: p for p in ast.walk(tree) for c in ast.iter_child_nodes(p)}


def _enclosing_function(node, parents):
    while node in parents:
        node = parents[node]
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            return node
    return None


def test_every_defaulted_parameter_is_set_somewhere():
    """Each defaulted parameter of a package function is passed, by position
    or keyword, by some call in the package or the benchmark: a default no
    caller overrides is a constant.  A call of a class counts as a call of
    its ``__init__``, and an argument that only forwards the calling
    function's own defaulted parameter sets a parameter only when that one
    is set.  ``cli.main(argv)`` is exempt: the console script calls it with
    no arguments."""
    src = os.path.dirname(os.path.abspath(errors.__file__))
    root = os.path.dirname(os.path.dirname(src))
    params = {}  # (callable name, parameter) -> position after self/cls, None if keyword-only
    for tree, parents in _parsed_modules(src):
        for fn in ast.walk(tree):
            if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            owner = parents[fn]
            method = isinstance(owner, ast.ClassDef) and not any(
                isinstance(d, ast.Name) and d.id == "staticmethod" for d in fn.decorator_list)
            name = owner.name if method and fn.name == "__init__" else fn.name
            positional = fn.args.posonlyargs + fn.args.args
            first = len(positional) - len(fn.args.defaults)
            for i, arg in enumerate(positional[first:], first):
                params[name, arg.arg] = i - method
            for arg, default in zip(fn.args.kwonlyargs, fn.args.kw_defaults):
                if default is not None:
                    params[name, arg.arg] = None

    def passed(call, param, pos):
        """The expression ``call`` passes as ``param``; True when it passes
        one it cannot name, None when it passes none."""
        for kw in call.keywords:
            if kw.arg == param:
                return kw.value
            if kw.arg is None:
                return True
        if pos is None:
            return None
        starred = [i for i, a in enumerate(call.args) if isinstance(a, ast.Starred)]
        if not starred:
            return call.args[pos] if pos < len(call.args) else None
        named = [a for a in call.args if isinstance(a, ast.Name) and a.id == param]
        return named[0] if named else (True if starred[0] <= pos else None)

    is_set, forwards = set(), []  # forwards: (param key, the key it forwards)
    for top in (src, os.path.join(root, "perfbench")):
        for tree, parents in _parsed_modules(top):
            for call in ast.walk(tree):
                if not isinstance(call, ast.Call):
                    continue
                f = call.func
                callee = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                for (name, param), pos in params.items():
                    if name != callee:
                        continue
                    value = passed(call, param, pos)
                    if value is None:
                        continue
                    caller = _enclosing_function(call, parents)
                    if (isinstance(value, ast.Name) and caller is not None
                            and (caller.name, value.id) in params):
                        forwards.append(((name, param), (caller.name, value.id)))
                    else:
                        is_set.add((name, param))
    while True:
        grown = {key for key, source in forwards if source in is_set} - is_set
        if not grown:
            break
        is_set |= grown
    unset = sorted(set(params) - is_set - {("main", "argv")})
    assert not unset, unset
