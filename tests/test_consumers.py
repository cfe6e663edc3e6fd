"""Every definition in the package has a consumer in the package, every
module-level import is read by the module that makes it, and every config
key is read somewhere besides the schema and its validation.

Definitions are the top-level functions and classes, the methods and
properties of those classes, dunders excepted, and the fields of its
dataclasses.

A helper that only tests reach feeds no run, report or check; it should
be deleted together with the tests that cover only it.  The package's
``__init__.py`` re-exports names and so does not count as a consumer.
Consumers are read from the code, not the text: a name that only a
docstring or a comment mentions is not consumed.
"""

import ast
from pathlib import Path

import rcdiff

SRC = Path(rcdiff.__file__).resolve().parent

# Closed-form references kept without a package consumer: tests compare
# the package against them, and each is to be reported next to the Monte
# Carlo metric it predicts.
KEPT_REFERENCES = {
    "e1_exact_gaussian": "folded-normal closed form of the Monte Carlo e1",
    "target_covariance": "Sigma_Pa, the input of the shift term tr(Sigma_lambda^-1 Sigma_Pa)",
}

# Dataclass fields kept without a package reader: tests bound a Monte Carlo
# metric with each, and each is to be reported beside that metric.
KEPT_FIELDS = {
    "Decomposition.e1_se": "tests bound e1 with it; to be reported beside e1",
    "Decomposition.e2_se": "tests bound e2 with it; to be reported beside e2",
}


def _references(tree: ast.AST) -> set:
    """Names the code reads: bare names, attribute names and imported names."""
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
        elif isinstance(node, ast.alias):
            refs.add(node.name)
    return refs


def _trees_and_consumed():
    trees = [ast.parse(p.read_text()) for p in sorted(SRC.glob("*.py"))
             if p.name != "__init__.py"]
    # A definition is a statement, not a reference, so it does not consume itself.
    return trees, set().union(*map(_references, trees))


def test_every_definition_has_a_consumer():
    trees, consumed = _trees_and_consumed()
    unused = {node.name for tree in trees for node in tree.body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and node.name not in consumed}
    # Equality also flags an exemption that is stale: the reference gained
    # a consumer or was deleted.
    assert unused == set(KEPT_REFERENCES)


def test_every_method_has_a_consumer():
    trees, consumed = _trees_and_consumed()
    unused = {f"{cls.name}.{node.name}" for tree in trees for cls in tree.body
              if isinstance(cls, ast.ClassDef) for node in cls.body
              if isinstance(node, ast.FunctionDef)
              and not (node.name.startswith("__") and node.name.endswith("__"))
              and node.name not in consumed}
    assert unused == set()


def _is_dataclass(cls: ast.ClassDef) -> bool:
    return any(getattr(d.func if isinstance(d, ast.Call) else d, "id", None) == "dataclass"
               for d in cls.decorator_list)


def test_every_field_is_read():
    trees, _ = _trees_and_consumed()
    # Only attribute loads count: building the dataclass names every field.
    read = {node.attr for tree in trees for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = {f"{cls.name}.{node.target.id}" for tree in trees for cls in tree.body
              if isinstance(cls, ast.ClassDef) and _is_dataclass(cls)
              for node in cls.body if isinstance(node, ast.AnnAssign)
              and node.target.id not in read}
    assert unread == set(KEPT_FIELDS)


def test_every_import_is_used():
    # ``__init__.py`` imports to re-export, so it is exempt here too.
    unused = set()
    for path in sorted(SRC.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and getattr(node, "module", None) != "__future__":
                unused |= {f"{path.stem}: {alias.name}" for alias in node.names
                           if (alias.asname or alias.name).split(".")[0] not in names}
    assert unused == set()


def _key_reads(node) -> set:
    """String constants under ``node``: the places that may read a config key.

    The ``SCHEMA`` literal names every key and ``RunConfig._validate``
    checks every key, so neither counts as a read; nor does a bare string
    statement such as a docstring.
    """
    if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["SCHEMA"]:
        return set()
    if isinstance(node, ast.FunctionDef) and node.name == "_validate":  # RunConfig's
        return set()
    if isinstance(node, ast.Expr) and isinstance(node.value, ast.Constant):
        return set()
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {node.value}
    return set().union(*map(_key_reads, ast.iter_child_nodes(node)))


def test_every_config_key_is_read():
    from rcdiff.config import SCHEMA

    trees, _ = _trees_and_consumed()
    # A key that nothing reads is a knob that changes nothing but the digest.
    assert set(SCHEMA) - set().union(*map(_key_reads, trees)) == set()
