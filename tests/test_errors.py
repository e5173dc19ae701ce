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
