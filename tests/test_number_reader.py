"""The shared readers and the one file writer stay the only ones.

Every public function of the package reads the counts and reals its
caller passes in with errors._number (or errors._ints, which calls it).
A bare int() or float() on a parameter would truncate 2.5 to 2 and let
True pass as 1, so this walks the syntax tree of every module and fails
on any such call, and on a second definition of _number.  The same
walks fail on a sign test of a seed or stream coordinate outside
errors.py, whose _seeds is the one home of that rule, and on a file
opened for writing outside experiments._staged, which alone makes sure
that a failed run leaves no partial output file.  A last walk fails on
any call of default_rng, and on a call of SeedSequence outside
experiments.trial_stream: every sampled graph draws from a keyed trial
stream, so a seed becomes a generator in that one place.
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


_SEED_NAMES = {"seed", "master_seed", "point_index"}
_WRITE_MODES = set("wax+")


def _enclosing(tree):
    """(node, name of its innermost enclosing function, or None) for every node."""
    def walk(node, name):
        yield node, name
        for child in ast.iter_child_nodes(node):
            inner = child.name if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)) \
                else name
            yield from walk(child, inner)
    return walk(tree, None)


def seed_sign_tests(source):
    """(function, test) for each comparison of a seed, master_seed or
    point_index (a name or an attribute) with the constant 0."""
    def operand(node):
        return (isinstance(node, ast.Name) and node.id in _SEED_NAMES
                or isinstance(node, ast.Attribute) and node.attr in _SEED_NAMES)

    return [(fn, ast.unparse(node)) for node, fn in _enclosing(ast.parse(source))
            if isinstance(node, ast.Compare)
            and any(map(operand, [node.left, *node.comparators]))
            and any(isinstance(c, ast.Constant) and c.value == 0
                    for c in [node.left, *node.comparators])]


def file_writes(source):
    """(function, call) for each open() call, or .open() method call such
    as os.open, whose mode is not a constant free of w, a, x and +, and
    each .write_text() or .write_bytes() call.  An open of os.devnull is
    skipped: writing there leaves no file."""
    found = []
    for node, fn in _enclosing(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("write_text", "write_bytes") and isinstance(func, ast.Attribute):
            found.append((fn, ast.unparse(node)))
        elif name == "open" and not (node.args and ast.unparse(node.args[0]) == "os.devnull"):
            # open(file, mode) takes the mode second, a path's .open(mode) first
            args = node.args[1:] if isinstance(func, ast.Name) else node.args
            mode = ([kw.value for kw in node.keywords if kw.arg == "mode"] + args[:1]
                    + [ast.Constant("r")])[0]
            if not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                    and not _WRITE_MODES & set(mode.value)):
                found.append((fn, ast.unparse(node)))
    return found


def test_the_walks_find_each_seed_sign_test_and_file_write():
    source = '''
def f(seed, point_index, path, mode):
    if seed < 0 or 0 > point_index or self.seed >= 0 or seed < 1 or n < 0:
        pass
    open(path), open(path, "rb"), open(path, encoding="utf-8"), path.open()
    open(path, "w"), open(path, mode="a"), open(path, "r+"), open(path, mode)
    path.open("x"), path.write_text("t"), path.write_bytes(b"")
    os.open(os.devnull, os.O_WRONLY), os.open(path, os.O_WRONLY)

class C:
    def g(self, master_seed):
        return master_seed >= 0
'''
    assert seed_sign_tests(source) == [
        ("f", "seed < 0"), ("f", "0 > point_index"), ("f", "self.seed >= 0"),
        ("g", "master_seed >= 0")]
    assert file_writes(source) == [
        ("f", "open(path, 'w')"), ("f", "open(path, mode='a')"), ("f", "open(path, 'r+')"),
        ("f", "open(path, mode)"), ("f", "path.open('x')"), ("f", "path.write_text('t')"),
        ("f", "path.write_bytes(b'')"), ("f", "os.open(path, os.O_WRONLY)")]


def test_seeds_are_checked_and_files_written_in_one_place():
    seeds, writes = [], []
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text(encoding="utf-8")
        if path.name != "errors.py":
            seeds += [(path.name, *hit) for hit in seed_sign_tests(source)]
        writes += [(path.name, *hit) for hit in file_writes(source)]
    assert seeds == []
    assert [(name, fn) for name, fn, _ in writes] == [("experiments.py", "_staged")]


_STREAM_BUILDERS = {"default_rng", "SeedSequence"}


def stream_builds(source):
    """(function, call) for each call of default_rng or SeedSequence, by
    name or as an attribute such as np.random.default_rng."""
    found = []
    for node, fn in _enclosing(ast.parse(source)):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in _STREAM_BUILDERS:
                found.append((fn, ast.unparse(node)))
    return found


def test_the_walk_finds_each_stream_build():
    source = '''
import numpy as np
from numpy.random import SeedSequence, default_rng

RNG = np.random.default_rng(0)

def f(seed):
    return np.random.default_rng(seed), default_rng(), SeedSequence(seed)

class C:
    def g(self, key):
        return np.random.SeedSequence((1, 2)).spawn(2), np.random.Generator(np.random.Philox(key))
'''
    assert stream_builds(source) == [
        (None, "np.random.default_rng(0)"), ("f", "np.random.default_rng(seed)"),
        ("f", "default_rng()"), ("f", "SeedSequence(seed)"),
        ("g", "np.random.SeedSequence((1, 2))")]


def test_a_seed_becomes_a_generator_only_in_trial_stream():
    builds = [(path.name, *hit) for path in sorted(SRC.glob("*.py"))
              for hit in stream_builds(path.read_text(encoding="utf-8"))]
    assert [(name, fn, call.split("(")[0]) for name, fn, call in builds] == [
        ("experiments.py", "trial_stream", "np.random.SeedSequence")]
