"""Public API reached only by tests is deleted, not kept, and so is private
code that nothing reaches.

Every public module-level function or class of the package must be named
somewhere in ``src/`` besides its own definition, and every public method or
property of a public class must be read as an attribute there (a parameter
or local variable of the same name does not count), or be listed below with
the reason it stays. Every private module-level function, class or constant
must be read somewhere in ``src/`` outside its own definition, so a
recursive helper that lost its last caller counts as unused.
"""
import ast
import collections
import pathlib

ROOT = pathlib.Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "mcprep"

REASONS = {"oracle", "fixture", "leaves", "tracer"}

# name -> why it stays public; "leaves" means perfbench/tracing.LEAVES pins it,
# "tracer" that perfbench/tracing.py wraps the method or reads the property.
ALLOWED = {
    "simulator.circuit_unitary": "oracle",
    "simulator.subspace_diag": "oracle",
    "configs.generate_cisd_configs": "fixture",
    "circuits.gate": "leaves",
    "circuits.rz_gate": "leaves",
    "circuits.phasedx_gate": "leaves",
    "circuits.zzmax_gate": "leaves",
    "circuits.control_wrap": "leaves",
    "paulis.word_multiply": "leaves",
    "paulis.apply_word": "leaves",
    "ssp.merge_angle": "leaves",
    "paulis.PauliWord.matrix": "oracle",
    "paulis.PauliSum.matrix": "tracer",
    "paulis.PauliSum.n_terms": "tracer",
}


def _trees() -> dict[str, ast.Module]:
    return {path.stem: ast.parse(path.read_text()) for path in sorted(PACKAGE.glob("*.py"))}


def _public(nodes, kinds) -> list:
    return [node for node in nodes if isinstance(node, kinds) and not node.name.startswith("_")]


def _definitions(trees) -> dict[str, ast.AST]:
    """Public module-level functions and classes, keyed module.name, and the
    public methods and properties of those classes, keyed module.Class.name."""
    found = {}
    for module, tree in trees.items():
        for node in _public(tree.body, (ast.FunctionDef, ast.ClassDef)):
            found[f"{module}.{node.name}"] = node
            if isinstance(node, ast.ClassDef):
                for member in _public(node.body, ast.FunctionDef):
                    found[f"{module}.{node.name}.{member.name}"] = member
    return found


def _mentions(trees) -> tuple[set[str], set[str]]:
    """The identifiers the package names as a name, an attribute or an
    imported alias, and those it reads as an attribute."""
    named, attributes = set(), set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                named.add(node.id)
            elif isinstance(node, ast.Attribute):
                named.add(node.attr)
                attributes.add(node.attr)
            elif isinstance(node, ast.alias):
                named.add(node.name)
    return named, attributes


def _leaves() -> set[str]:
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LEAVES" for t in node.targets
        ):
            return set(ast.literal_eval(node.value.args[0]))
    raise AssertionError("perfbench/tracing.py defines no LEAVES")


def _traced_pauli_members() -> set[str]:
    """PauliSum members the tracer wraps (PAULI_METHODS) or reads in the hook
    of PauliSum.apply."""
    tree = ast.parse((ROOT / "perfbench" / "tracing.py").read_text())
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "PAULI_METHODS" for t in node.targets
        ):
            names.update(ast.literal_eval(node.value))
        elif isinstance(node, ast.FunctionDef) and node.name == "_apply":
            names.update(n.attr for n in ast.walk(node) if isinstance(n, ast.Attribute))
    return {f"paulis.PauliSum.{name}" for name in names}


def _unreferenced() -> set[str]:
    """Module-level names never named, and class members never read as an
    attribute (keys module.Class.member have three parts)."""
    trees = _trees()
    named, attributes = _mentions(trees)
    return {
        key for key in _definitions(trees)
        if key.split(".")[-1] not in (attributes if key.count(".") == 2 else named)
    }


def test_every_public_name_is_used_in_src_or_allowed():
    unexplained = sorted(_unreferenced() - ALLOWED.keys())
    assert not unexplained, f"public names that nothing in src/ uses: {unexplained}"


def test_allowlist_is_current_and_each_reason_holds():
    assert set(ALLOWED.values()) <= REASONS
    defined = _definitions(_trees())
    assert ALLOWED.keys() <= defined.keys(), sorted(ALLOWED.keys() - defined.keys())
    stale = sorted(ALLOWED.keys() - _unreferenced())
    assert not stale, f"allowed names that src/ now uses; drop them from ALLOWED: {stale}"
    leaves, traced = _leaves(), _traced_pauli_members()
    for key, reason in ALLOWED.items():
        assert (key in leaves) == (reason == "leaves"), key
        assert (key in traced) == (reason == "tracer"), key


def _private_definitions(tree: ast.Module) -> dict[str, ast.AST]:
    """A module's private, non-dunder module-level functions, classes and
    assigned names, with the statement that defines each."""
    found = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                found[name] = node
    return found


def _reads(nodes) -> collections.Counter:
    """How often the nodes' subtrees read each identifier, as a loaded name,
    an attribute or an imported alias."""
    counts = collections.Counter()
    for top in nodes:
        for node in ast.walk(top):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                counts[node.id] += 1
            elif isinstance(node, ast.Attribute):
                counts[node.attr] += 1
            elif isinstance(node, ast.alias):
                counts[node.name] += 1
    return counts


def test_every_private_name_is_read_outside_its_definition():
    trees = _trees()
    everywhere = _reads(trees.values())
    unread = sorted(
        f"{module}.{name}"
        for module, tree in trees.items()
        for name, node in _private_definitions(tree).items()
        if everywhere[name] - _reads([node])[name] == 0
    )
    assert not unread, f"private names that nothing in src/ reads: {unread}"
