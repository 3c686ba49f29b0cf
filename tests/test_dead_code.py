"""Every module-level function, class and assigned name (a constant such as
``_ATOMS``) of the package is used: named somewhere in ``src/`` or
``bench/`` outside its own definition.  An export from
``eomkit/__init__.py`` counts as a use, and ``__version__`` is a public
export itself; the tests do not count.  Every top-level import of a module,
``__init__.py``'s exports apart, is used in that module.  Private storage
names are named only inside the modules that own them (``BOUNDARIES``)."""

import ast
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "eomkit"


def _names(tree) -> Counter:
    """Identifiers that ``tree`` refers to: names, attributes, imported
    names, and the dotted parts of string constants that are not docstrings
    (``bench/tracing.py`` names its traced functions in strings)."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
        and node.body
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    out = Counter()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out[node.id] += 1
        elif isinstance(node, ast.Attribute):
            out[node.attr] += 1
        elif isinstance(node, ast.alias):
            out[node.name.rpartition(".")[2]] += 1
        elif (
            isinstance(node, ast.Constant)
            and isinstance(node.value, str)
            and id(node) not in docstrings
        ):
            out.update(node.value.split("."))
    return out


def test_every_module_level_definition_is_used():
    sources = sorted(PACKAGE.glob("*.py")) + sorted((ROOT / "bench").glob("*.py"))
    trees = {path: ast.parse(path.read_text(), str(path)) for path in sources}
    used = sum((_names(tree) for tree in trees.values()), Counter())
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        for node in trees[path].body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [
                    leaf.id
                    for target in targets
                    for leaf in ast.walk(target)
                    if isinstance(leaf, ast.Name) and leaf.id != "__version__"
                ]
            else:
                continue
            # a use inside the definition itself (recursion, the assigned
            # name) does not count
            own = _names(node)
            unused += [
                f"{path.name}:{node.lineno} {name}" for name in names if used[name] - own[name] <= 0
            ]
    assert not unused, unused


def test_every_top_level_import_is_used():
    unused = []
    for path in sorted(PACKAGE.glob("*.py")):
        if path.name == "__init__.py":  # its imports are the package's exports
            continue
        tree = ast.parse(path.read_text(), str(path))
        loaded = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.partition(".")[0]
                    if bound not in loaded:
                        unused.append(f"{path.name}:{node.lineno} {bound}")
    assert not unused, unused


#: private storage names and the only modules that may name them: the count
#: record of a process and the unchecked step core that reads it, and the
#: expansion of an orbit into its reorderings (``ExactTable.orbits`` and
#: ``from_orbits`` are the view the rest reads)
BOUNDARIES = {
    "_counts": {"process.py"},
    "_transition_step": {"process.py"},
    "distinct_permutations": {"combinat.py", "models.py"},
}


def test_storage_names_stay_inside_their_modules():
    outside = []
    for path in sorted(PACKAGE.glob("*.py")):
        names = _names(ast.parse(path.read_text(), str(path)))
        outside += [
            f"{path.name} {name}"
            for name, modules in BOUNDARIES.items()
            if names[name] and path.name not in modules
        ]
    assert not outside, outside
