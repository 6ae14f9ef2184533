"""No public function without a production caller.

An ast scan of src/atrahasis collects every public top-level function or
class and every public method, and every identifier the source refers
to: names, attributes and imported names.  A public name that nothing in
the source refers to must be on the allowlist below, with its reason; a
new one fails here until it gains a caller or a reason.
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
}


def _scan():
    """(public qualified name -> bare name, every identifier referenced)."""
    defined, referenced = {}, set()
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
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                referenced.add(node.id)
            elif isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.alias):
                referenced.add(node.name.rpartition(".")[2])
    return defined, referenced


def test_every_public_name_has_a_caller_or_a_reason():
    defined, referenced = _scan()
    unreferenced = {q for q, name in defined.items() if name not in referenced}
    assert unreferenced == set(ALLOWED_UNREFERENCED)

