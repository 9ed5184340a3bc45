"""Every public name of the library has a caller outside the unit tests.

A public top-level function or class of ``src/edgelab``, and every
``__all__`` entry, must be referenced from ``src/``, ``demos/``,
``perfbench/`` or ``tests/test_acceptance.py``.  A reference is an
identifier, an attribute or an imported name, or a string constant equal to
the name (the benchmark tracer looks names up with ``getattr``).  The
name's own definition, ``__all__`` lists and the package's re-exports do not
count.  A name that only unit tests call belongs in ``tests/``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "edgelab"
CALLERS = [*PACKAGE.glob("*.py"), *(ROOT / "demos").glob("*.py"),
           *(ROOT / "perfbench").glob("*.py"), ROOT / "tests" / "test_acceptance.py"]


def _all_entries(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)):
            yield node


def _public_names(path):
    """{name: line} of the module's public top-level functions and classes
    and of its ``__all__`` entries."""
    tree = ast.parse(path.read_text())
    names = {node.name: node.lineno for node in tree.body
             if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("_")}
    for node in _all_entries(tree):
        names.update((elt.value, node.lineno) for elt in node.value.elts)
    return names


def _references(path):
    """Every name the module refers to, outside definitions of that same
    name, ``__all__`` lists and the package's own re-exports."""
    tree = ast.parse(path.read_text())
    skipped = set(_all_entries(tree))
    if path == PACKAGE / "__init__.py":
        skipped.update(node for node in tree.body if isinstance(node, ast.ImportFrom))
    found = set()

    def visit(node, owner):
        if node in skipped:
            return
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            owner = node.name
        if isinstance(node, ast.Name):
            name = node.id
        elif isinstance(node, ast.Attribute):
            name = node.attr
        elif isinstance(node, ast.alias):
            name = node.name
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            name = node.value
        else:
            name = None
        if name is not None and name != owner:
            found.add(name)
        for child in ast.iter_child_nodes(node):
            visit(child, owner)

    visit(tree, None)
    return found


def test_every_public_name_has_a_caller_outside_the_unit_tests():
    referenced = set().union(*map(_references, CALLERS))
    unused = [f"{path.name}:{line} {name}"
              for path in sorted(PACKAGE.glob("*.py"))
              for name, line in sorted(_public_names(path).items(), key=lambda item: item[1])
              if name not in referenced]
    assert not unused, "public names that only unit tests call: " + ", ".join(unused)



def test_the_platform_is_decided_in_one_module():
    # only _platform.py loads libraries, and no other module imports or reads
    # an underscore name of one that does, so substituting _platform's
    # functions switches the whole route
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")}
    loaders = {name for name, text in sources.items()
               if "import ctypes" in text or "numpy.libs" in text}
    found = [f"{name}.py loads libraries" for name in sorted(loaders - {"_platform"})]
    for name, text in sorted(sources.items()):
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.module in loaders:
                found += [f"{name}.py:{node.lineno} imports {node.module}.{alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in loaders and node.attr.startswith("_")):
                found.append(f"{name}.py:{node.lineno} reads {node.value.id}.{node.attr}")
    assert found == []
