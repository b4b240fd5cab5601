"""The package root loads every submodule and exports one sorted list of public names."""

import ast
import importlib
import json
import os
import pathlib
import subprocess
import sys

import lrwkit

SUBMODULES = [
    "classical",
    "closed_forms",
    "fermionic",
    "lie",
    "looproot",
    "partitions",
    "schur",
    "tableaux",
    "verify",
]

# Run in a fresh interpreter, since pytest has imported the package already.
PROBE = r"""
import ast, json, sys, types
import lrwkit

loaded = sorted(name.partition(".")[2] for name in sys.modules if name.startswith("lrwkit."))
# each name the import block binds, with the submodule it is imported from
home = {
    alias.name: "lrwkit." + node.module
    for node in ast.parse(open(lrwkit.__file__).read()).body
    if isinstance(node, ast.ImportFrom) and node.level == 1
    for alias in node.names
}
wrong = []
for name in lrwkit.__all__:
    scope = {}
    exec(f"from lrwkit import {name}", scope)
    obj = getattr(lrwkit, name)
    module = sys.modules.get(home.get(name))
    if (
        getattr(module, name, None) is not obj
        or scope[name] is not obj
        or getattr(obj, "__module__", module.__name__) != module.__name__
    ):
        wrong.append(name)
modules = [name for name in lrwkit.__all__ if isinstance(getattr(lrwkit, name), types.ModuleType)]
print(json.dumps({
    "loaded": loaded, "all": lrwkit.__all__, "imported": sorted(home), "wrong": wrong, "modules": modules,
}))
"""


def probe():
    env = dict(os.environ, PYTHONPATH=str(pathlib.Path(lrwkit.__file__).parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE], capture_output=True, text=True, env=env, timeout=60
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_package_root():
    report = probe()
    # perfbench wraps only loaded modules, so `import lrwkit` loads all nine
    assert report["loaded"] == SUBMODULES
    names = report["all"]
    assert names == sorted(names) and len(names) == 63
    assert names == report["imported"]
    assert not [n for n in names if n.startswith("_")] and report["modules"] == []
    # each resolves, by getattr and by `from lrwkit import`, to its submodule's object
    assert report["wrong"] == []


def lru_cached_functions():
    """Every module-level function under an lru_cache decorator, read from the source."""
    found = {}
    for name in SUBMODULES:
        module = importlib.import_module("lrwkit." + name)
        for node in ast.parse(pathlib.Path(module.__file__).read_text()).body:
            if isinstance(node, ast.FunctionDef) and any(
                "lru_cache" in ast.unparse(d) for d in node.decorator_list
            ):
                found[f"{name}.{node.name}"] = getattr(module, node.name)
    return found


def test_clear_caches_empties_every_cache():
    caches = lru_cached_functions()
    assert len(caches) == 13

    def compute():
        mu, nu = lrwkit.Partition([3, 2, 1]), lrwkit.Partition([2, 1])
        spec = lrwkit.LieSpec("D", 5)
        return (
            lrwkit.mult(lrwkit.schur_basis(mu), lrwkit.schur_basis(nu)),
            lrwkit.stable_tensor_expansion(mu, nu, lrwkit.SYMPLECTIC),
            lrwkit.fermionic_decomp(spec, [(2, 2)]),
            lrwkit.family_decomposition(mu, lrwkit.ORTHOGONAL),
            lrwkit.h_monomial_to_schur(lrwkit.jacobi_trudi(mu)),
            lrwkit.fermionic_multiplicity(spec, [(2, 2)], lrwkit.DominantWeight([0] * 5, 5)),
            lrwkit.commute_check(spec),
        )

    def sizes():
        return {name: cache.cache_info().currsize for name, cache in caches.items()}

    before = compute()
    assert all(sizes().values()), sizes()
    lrwkit.clear_caches()
    assert sizes() == dict.fromkeys(caches, 0)
    assert compute() == before
