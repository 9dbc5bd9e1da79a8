"""API hygiene of the package, read off its syntax trees.

Every module-level function and class of `src/fqcover`, private or not,
and every public method has a caller in the package or in `scripts/`,
apart from a short allowlist: the scalar reference code that the tests
build their oracles from, and two checks that open ROADMAP items put to
use.  A helper that only tests reach is a second path to a result; the
tests call what the package calls instead.  A private helper that nothing
calls is left over from a deletion.  No module imports a name it does
not use, and none loads numpy.random.  No module takes more than
COMPILE_PEAK_BYTES to compile.
"""

import ast
import pathlib
import tracemalloc

ROOT = pathlib.Path(__file__).resolve().parents[1]
# The package modules but `__init__`, whose imports are re-exports.
MODULES = sorted(p for p in (ROOT / "src" / "fqcover").glob("*.py") if p.name != "__init__.py")
SCRIPTS = sorted((ROOT / "scripts").glob("*.py"))

# The scalar reference (coordinates, dot products and field operations one
# element at a time, which `test_point_kernel` compares the kernels with),
# and two checks kept for open ROADMAP items.
UNCALLED_ALLOWLIST = {
    "fourier.dot", "fourier.coords_to_flat", "fourier.flat_to_coords",
    "gf.Field.sub", "gf.Field.neg", "gf.Field.inv", "gf.Field.pow", "gf.Field.trace",
    "gf.Field.chi",
    "covering.positive_proportion_check", "covering.dot_product_set",
}

# Every cold CLI run without a bytecode cache compiles each module from
# source, and the largest compile peak raises the run's peak RSS.  Under
# CPython 3.11 the largest are scalar (1.27 MB) and incidence (1.22 MB);
# harness took 3.56 MB while it held the commands.
COMPILE_PEAK_BYTES = 3 << 19  # 1.5 MB


def _tree(path):
    return ast.parse(path.read_text(), filename=str(path))


def _uses(tree, skip=None):
    """(names, attributes) referred to in tree, outside the subtree skip."""
    inside = {id(n) for n in ast.walk(skip)} if skip is not None else set()
    names, attrs = set(), set()
    for n in ast.walk(tree):
        if id(n) in inside:
            continue
        if isinstance(n, ast.Name):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            attrs.add(n.attr)
    return names, attrs


def _defs(tree):
    """(qualified name, bare name, node, is_method) of the module-level
    functions and classes of tree, but dunders, and of the public methods of
    its public classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)) and not node.name.startswith("__"):
            yield node.name, node.name, node, False
            if isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
                for m in node.body:
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_"):
                        yield f"{node.name}.{m.name}", m.name, m, True


def test_every_public_name_has_a_caller_and_every_import_is_used():
    trees = {p: _tree(p) for p in MODULES + SCRIPTS}
    uses = {p: _uses(trees[p]) for p in trees}

    uncalled = set()
    for path in MODULES:
        for qual, name, node, is_method in _defs(trees[path]):
            # Callers in the defining module count outside the definition.
            seen = [uses[p] for p in trees if p != path] + [_uses(trees[path], node)]
            if not any(name in attrs or (not is_method and name in names)
                       for names, attrs in seen):
                uncalled.add(f"{path.stem}.{qual}")
    assert uncalled == UNCALLED_ALLOWLIST

    unused = []
    for path in trees:
        bound = {}
        for n in ast.walk(trees[path]):
            if isinstance(n, ast.Import):
                bound.update((a.asname or a.name.split(".")[0], n.lineno) for a in n.names)
            elif isinstance(n, ast.ImportFrom) and n.module != "__future__":
                bound.update((a.asname or a.name, n.lineno) for a in n.names)
        unused += [f"{path.name}:{line} {name}" for name, line in bound.items()
                   if name not in uses[path][0]]
    assert unused == []


def test_no_module_loads_numpy_random():
    # `sampling` draws every sampled value, so no module of the package
    # imports numpy.random or refers to np.random.
    found = []
    for path in sorted((ROOT / "src" / "fqcover").glob("*.py")):
        for n in ast.walk(_tree(path)):
            if isinstance(n, ast.Import):
                names = [a.name for a in n.names]
            elif isinstance(n, ast.ImportFrom):
                names = [f"{n.module}.{a.name}" for a in n.names]
            elif isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name):
                names = [f"{n.value.id}.{n.attr}"]
            else:
                continue
            found += [f"{path.name}:{n.lineno} {name}" for name in names
                      if name.split(".")[:2] in (["numpy", "random"], ["np", "random"])]
    assert found == []


def test_no_module_compiles_past_the_peak_limit():
    peaks = {}
    for path in sorted((ROOT / "src" / "fqcover").glob("*.py")):
        source = path.read_text()
        tracemalloc.start()
        try:
            compile(source, str(path), "exec")
            peaks[path.name] = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert {name: peak for name, peak in peaks.items() if peak > COMPILE_PEAK_BYTES} == {}
