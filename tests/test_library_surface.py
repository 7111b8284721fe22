"""The library's surface: every definition in src/cactusflower that no library
module, demo or benchmark refers to, and that the package does not export,
is listed here with the reason it stays.  A new such definition fails the
test until it is used, exported, listed or removed.

References are found by name: a definition counts as used when its name
occurs as a name or an attribute anywhere under src/, demos/ or perfbench/
outside its own body.  Attribute names are not resolved to classes, so a
method is used when any attribute of that name is read.
"""
import ast
import os

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), ".."))
PACKAGE = os.path.join(ROOT, "src", "cactusflower")

ALLOWED = {
    # the paper's maps and group laws, kept under their names
    "combinatorics.affine_recompose": "sigma * t_k, the inverse of the exported affine_decompose",
    "combinatorics.semidirect_mul": "the group law of S_n x| Z^n/Z that ext_affine_to_semidirect transports",
    "groups.vs_lattice_image": "vS_n onto S_n x| the pair lattice, which separates the pure generators",
    "projective.g_inv": "the inverse of the deformed group law g_mul",
    "projective.g_mul": "the deformed addition x1 + x2 - eps*x1*x2",
    "projective.g_sigma": "the twisting involution (x, eps) -> (x/(1 + x*eps), -eps)",
    "projective.losev_manin_iso_inverse": "the inverse of the exported losev_manin_iso",
    "projective.q_to_dm_identification": "the inverse of the exported dm_to_q_identification",
    "projective.natural_chart": "the set partition whose chart contains a point",
    "projective.chart_membership": "the tree-chart inequalities on the mu coordinates",
    "realgeometry.tree_of_projective_configuration": "the tree of a configuration up to reversal, a zero on its trunk",
    # the interfaces of the library's types
    "combinatorics.CyclicInterval.is_subinterval_of": "order-preserving containment of cyclic intervals, doctested",
    "forests.PlanarForestWithZeros.decorated_edges": "the edges a zero-forest decorates",
    "forests.PlanarForestWithZeros.undecorated_edges": "the edges a zero-forest leaves free: a little cube's directions",
    "forests.enumerate_zero_forests": "the zero-forests of [n], the cells of hatD's subdivision in one list",
    "groups.HomReport.inconclusive": "the relators a bounded check left open, beside failures",
    "projective.NuTuple.relabel": "the S_n action on nu tuples",
    "projective.ProjPoint.conj": "complex conjugation, the real structure of P^1",
    "realgeometry.StarPoint.relabel": "the S_n action on star points",
    # documented syntaxes and test references
    "forests.zforest_from_newick": "the documented zero-forest syntax, a group followed by ':0' decorated",
    "groups.parse_word": "the documented word syntax, the inverse of format_word",
    "groups.canonical_cyclic": "one relator's canonical form, the reference tests compare relators by",
}


def _sources(folder):
    for dirpath, _, names in os.walk(os.path.join(ROOT, folder)):
        for name in sorted(names):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path) as fh:
                    yield path, ast.parse(fh.read())


def _is_def(node):
    return isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))


def _definitions():
    """(qualified name, bare name) of every module-level definition and every
    method that is not a dunder."""
    for path, tree in _sources(PACKAGE):
        module = os.path.basename(path)[:-3]
        for node in tree.body:
            if not _is_def(node):
                continue
            yield f"{module}.{node.name}", node.name
            if isinstance(node, ast.ClassDef):
                for sub in node.body:
                    if _is_def(sub) and not (sub.name.startswith("__") and sub.name.endswith("__")):
                        yield f"{module}.{node.name}.{sub.name}", sub.name


class _References(ast.NodeVisitor):
    """The names and attributes read, each outside the definitions of that name."""

    def __init__(self):
        self.names, self.inside = set(), []

    def visit_def(self, node):
        self.inside.append(node.name)
        self.generic_visit(node)
        self.inside.pop()

    visit_FunctionDef = visit_AsyncFunctionDef = visit_ClassDef = visit_def

    def visit_Name(self, node):
        if node.id not in self.inside:
            self.names.add(node.id)

    def visit_Attribute(self, node):
        if node.attr not in self.inside:
            self.names.add(node.attr)
        self.generic_visit(node)


def _unreferenced():
    refs = _References()
    exported = set()
    for folder in ("src", "demos", "perfbench"):
        for path, tree in _sources(folder):
            if path == os.path.join(PACKAGE, "__init__.py"):
                exported |= {a.name for n in tree.body if isinstance(n, ast.ImportFrom) for a in n.names}
            else:
                refs.visit(tree)
    return {qual for qual, name in _definitions() if name not in refs.names | exported}


def test_every_definition_only_tests_reach_is_listed_with_a_reason():
    found = _unreferenced()
    assert not found - set(ALLOWED), f"unlisted: {sorted(found - set(ALLOWED))}"
    assert not set(ALLOWED) - found, f"now used or gone, unlist: {sorted(set(ALLOWED) - found)}"
    assert all(reason.strip() for reason in ALLOWED.values())


def test_a_definition_named_only_in_its_own_body_is_unreferenced():
    # a recursive definition does not use itself; a call from elsewhere does
    refs = _References()
    refs.visit(ast.parse(
        "def f(x):\n    return f(x - 1)\n\n"
        "class C:\n    def g(self):\n        return self.g()\n\n"
        "def h():\n    return C().g()\n"
    ))
    assert "f" not in refs.names and "h" not in refs.names
    assert {"C", "g"} <= refs.names
