"""No public function without a production caller.

An ast scan of src/atrahasis collects every public top-level function or
class and every public method, and what the source refers to.  A
top-level name counts as referenced where it is read as a name, imported,
or read as an attribute of one of the package's modules imported by name
(`specfile.read_spec_file`); a method only where it is read as an
attribute.  So a variable cannot hide a method, nor a method a function
of the same name.  A public name that nothing refers to must be on
the allowlist below, with its reason; a new one fails here until it
gains a caller or a reason.
"""

import ast
from pathlib import Path

import atrahasis

SRC = Path(atrahasis.__file__).parent

# public name -> why it stays without a caller in src
ALLOWED_UNREFERENCED = {
    "rank_of_rows": "bound by name in bench/ (tracer layer, run.py)",
    "central_repair_program": "bound by name in bench/ (tracer layer, certify)",
    "subspace_bandwidth": "bound by name in bench/ (certify)",
    "Planes.shape": "bound by name in bench/",
    "ShortenedCode.node_content": "the README's scalar API",
    "ShortenedCode.download": "the README's scalar API",
    "ShortenedCode.help_message": "the README's scalar API",
    "ShortenedCode.decode": "the README's scalar API",
    "repair_matrix": "bound by name in bench/ (tracer layer, run.py)",
    "download_matrix": "bound by name in bench/ (tracer layer)",
    "FieldSpec.sub": "field arithmetic of the tests' reference eliminations",
}


def _scan():
    """(public qualified name -> bare name, the names referenced as
    top-level names, the names referenced as attributes)."""
    defined, names, attributes = {}, set(), set()
    modules = {path.stem for path in SRC.glob("*.py")}
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            if not node.name.startswith("_"):
                defined[node.name] = node.name
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                        defined[f"{node.name}.{item.name}"] = item.name
        imported = {alias.asname or alias.name for node in ast.walk(tree)
                    if isinstance(node, ast.ImportFrom) and node.level and not node.module
                    for alias in node.names if alias.name in modules}
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                names.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                attributes.add(node.attr)
                if isinstance(node.value, ast.Name) and node.value.id in imported:
                    names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return defined, names, attributes


def test_every_public_name_has_a_caller_or_a_reason():
    defined, names, attributes = _scan()
    unreferenced = {q for q, name in defined.items()
                    if name not in (attributes if "." in q else names)}
    assert unreferenced == set(ALLOWED_UNREFERENCED)


def _scopes(matches):
    """The dotted scope (module, then each enclosing def or class) of
    every node in src that `matches`."""
    scopes = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, f"{scope}.{child.name}")
                continue
            if matches(child):
                scopes.append(scope)
            visit(child, scope)

    for path in sorted(SRC.glob("*.py")):
        visit(ast.parse(path.read_text()), path.stem)
    return scopes


def _calls(name):
    return lambda node: isinstance(node, ast.Call) and name in (
        getattr(node.func, "id", None), getattr(node.func, "attr", None))


def test_one_function_loops_over_batches():
    # cluster's data commands are plans for one streaming pass, the only
    # caller of _batches: a new command adds a plan, not a batch loop
    callers = _scopes(_calls("_batches"))
    assert len(callers) == 1, callers


def test_one_statement_of_the_mds_conditions():
    # verify_axioms and grow_pool walk the conditions spanning_conditions
    # yields: a condition stated anywhere else could drift from it
    names = {"MDSx", "MDSy", "MDSw", "MDSd", "MDSq"}
    stated = _scopes(lambda node: isinstance(node, ast.Constant) and node.value in names)
    assert set(stated) == {"code.spanning_conditions"}, stated
    walkers = {scope for scope in _scopes(_calls("first_deficient_subset"))
               if not scope.startswith("linalg.")}
    assert walkers == {"code.verify_axioms", "search._admitted_rows"}, walkers
