"""Every top-level definition in the package has a consumer in the package.

A helper that only tests reach feeds no run, report or check; it should
be deleted together with the tests that cover only it.  The package's
``__init__.py`` re-exports names and so does not count as a consumer.
"""

import ast
import re
from pathlib import Path

import rcdiff

SRC = Path(rcdiff.__file__).resolve().parent

# Closed-form references kept without a package consumer: tests compare
# the package against them, and each is to be reported next to the Monte
# Carlo metric it predicts.
KEPT_REFERENCES = {
    "e1_exact_gaussian": "folded-normal closed form of the Monte Carlo e1",
    "latent_second_moment": "E||z||^2 that the distro_shift surrogate rescales",
    "coverage_trace_factored": "the theory's shift term tr(Sigma_lambda^-1 Sigma_Pa)",
    "target_covariance": "Sigma_Pa, the input of that shift term",
}


def test_every_definition_has_a_consumer():
    sources = {p.name: p.read_text() for p in sorted(SRC.glob("*.py"))
               if p.name != "__init__.py"}
    unused = set()
    for text in sources.values():
        for node in ast.parse(text).body:
            if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                continue
            word = re.compile(rf"\b{re.escape(node.name)}\b")
            # The definition itself is one occurrence.
            if sum(len(word.findall(t)) for t in sources.values()) == 1:
                unused.add(node.name)
    # Equality also flags an exemption that is stale: the reference gained
    # a consumer or was deleted.
    assert unused == set(KEPT_REFERENCES)
