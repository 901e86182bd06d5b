"""The shared number reader stays the only one.

Every public function of the package reads the counts and reals its
caller passes in with errors._number (or errors._ints, which calls it).
A bare int() or float() on a parameter would truncate 2.5 to 2 and let
True pass as 1, so this walks the syntax tree of every module and fails
on any such call, and on a second definition of _number.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src" / "koutlab"


def _public_functions(tree):
    """(name, node) of each module-level function and method of a
    module-level class whose name has no leading underscore, and of each
    __post_init__, whose dataclass fields are its caller's arguments."""
    for node in tree.body:
        members = node.body if isinstance(node, ast.ClassDef) else [node]
        for fn in members:
            if isinstance(fn, ast.FunctionDef) and (not fn.name.startswith("_")
                                                    or fn.name == "__post_init__"):
                yield (f"{node.name}.{fn.name}" if fn is not node else fn.name), fn


def coercions(source):
    """(function, call) for each int() or float() call in a public function
    of source whose argument is one of the function's parameters, an item
    of one (a comprehension over it), or a field in __post_init__."""
    found = []
    for name, fn in _public_functions(ast.parse(source)):
        a = fn.args
        params = {arg.arg for arg in a.posonlyargs + a.args + a.kwonlyargs} - {"self", "cls"}
        for node in ast.walk(fn):
            if isinstance(node, ast.comprehension) and isinstance(node.iter, ast.Name) \
                    and node.iter.id in params:
                params |= {t.id for t in ast.walk(node.target) if isinstance(t, ast.Name)}

        def read(arg):
            if isinstance(arg, ast.Name):
                return arg.id in params
            return (fn.name == "__post_init__" and isinstance(arg, ast.Attribute)
                    and isinstance(arg.value, ast.Name) and arg.value.id == "self")

        found += [(name, ast.unparse(node)) for node in ast.walk(fn)
                  if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id in ("int", "float") and node.args and read(node.args[0])]
    return found


def test_the_walk_finds_each_kind_of_coercion():
    source = '''
def f(n, sizes, mu=0.5, *, k=2):
    return int(n), [int(s) for s in sizes if s], float(mu), int(k), int(len(sizes))

def _private(n):
    return int(n)

class Params:
    def __post_init__(self):
        self.n = int(self.n)

    def size(self, local=None):
        return int(self.n), float(self.size)
'''
    assert sorted(coercions(source)) == [
        ("Params.__post_init__", "int(self.n)"), ("f", "float(mu)"), ("f", "int(k)"),
        ("f", "int(n)"), ("f", "int(s)")]


def test_public_functions_read_numbers_with_the_shared_reader():
    walked, found = set(), []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        walked |= {name for name, _ in _public_functions(ast.parse(source))}
        found += [(path.name, *hit) for hit in coercions(source)]
    assert found == []
    # the walk reaches the functions whose reads it guards
    assert {"union_bound_sum", "tail_bound", "GraphParams.__post_init__", "is_cut",
            "trial_stream", "resolve_workers", "ExperimentConfig.__post_init__"} <= walked


def test_number_has_one_definition():
    homes = [path.name for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.FunctionDef) and node.name == "_number"]
    assert homes == ["errors.py"]
