"""No library code that only tests call.

An AST scan of src/injurylab lists every module-level function and class
and every public method, and looks for a reference to each name (a name,
an attribute or an import) anywhere in the package.  The scan matches
names only, so a name shared with a used definition counts as used.
"""

import ast
import os

SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src", "injurylab")

# Kept for the tests alone: functional.evaluate is the reference that
# FunctionalRun is compared against, and the change orderings are the
# subject of acceptance criterion 9.
ALLOWED = {
    "functional.evaluate",
    "ordinal.collapse_to_omega",
    "ordinal.ChangeOrdering.normal_form",
    "ordinal.ChangeOrdering.omega_variant",
    "ordinal.OmegaScaledOrdering.is_limit",
    "ordinal.OmegaScaledOrdering.successor",
}


def definitions_and_references():
    defs, refs = [], set()
    for fname in sorted(os.listdir(SRC)):
        if not fname.endswith(".py"):
            continue
        with open(os.path.join(SRC, fname)) as fh:
            tree = ast.parse(fh.read())
        module = fname[:-3]
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                defs.append((f"{module}.{node.name}", node.name))
            if isinstance(node, ast.ClassDef):
                defs += [(f"{module}.{node.name}.{item.name}", item.name)
                         for item in node.body
                         if isinstance(item, ast.FunctionDef)
                         and not item.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.add(node.id)
            elif isinstance(node, ast.Attribute):
                refs.add(node.attr)
            elif isinstance(node, ast.alias):
                refs.add(node.asname or node.name)
    return defs, refs


def test_every_library_definition_has_a_caller_in_the_library():
    defs, refs = definitions_and_references()
    assert len(defs) > 100
    unused = sorted(qual for qual, name in defs
                    if name not in refs and qual not in ALLOWED)
    assert unused == []


def test_allowlist_names_only_unreferenced_definitions():
    defs, refs = definitions_and_references()
    allowed = {qual for qual, name in defs
               if qual in ALLOWED and name not in refs}
    assert allowed == ALLOWED
