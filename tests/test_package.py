"""Structural checks on the package's public interface and sources."""

import ast
import inspect
import os
import subprocess
import sys
from pathlib import Path

import lqmfg
from lqmfg import conditions, fbsolver, mftype, riccati

GRID_SOLVERS = [
    fbsolver.solve_equilibrium_shooting, fbsolver.fixed_point_iterate,
    riccati.solve_symmetric, riccati.solve_nonsymmetric_direct,
    riccati.solve_nonsymmetric_radon, riccati.solve_1d_closed_form,
    mftype.solve_mftype_mean, conditions.compute_mainthm_norms,
    conditions.check_shifted, conditions.appendix_feedback_riccati,
    conditions.appendix_feedback_condition, conditions.appendix_adjoint_route,
    conditions.appendix_report,
]


def test_solvers_take_a_required_grid_and_no_steps():
    for fn in GRID_SOLVERS:
        params = inspect.signature(fn).parameters
        assert "steps" not in params, fn.__name__
        assert params["grid"].default is inspect.Parameter.empty, fn.__name__


def test_every_module_level_import_is_used():
    for path in sorted(Path(lqmfg.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":  # re-exports the public names
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = set()
        for node in tree.body:
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name).split(".")[0]
                             for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        used = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name)}
        assert imported <= used, f"{path.name}: {sorted(imported - used)}"


def test_import_loads_no_scipy():
    # numpy is the one runtime dependency; scipy serves only the tests
    probe = ("import sys, lqmfg; print(sorted(m for m in sys.modules "
             "if m.split('.')[0] == 'scipy'))")
    env = {**os.environ, "PYTHONPATH": str(Path(lqmfg.__file__).parents[1])}
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, check=True, env=env)
    assert done.stdout.strip() == "[]"


def test_block_layout_lives_in_one_builder():
    # the 2n x 2n Hamiltonian layout is assembled only by coeffs.hamiltonian
    found = []
    for path in sorted(Path(lqmfg.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        owners = {id(node): f"{path.stem}.{top.name}"
                  for top in tree.body if isinstance(top, ast.FunctionDef)
                  for node in ast.walk(top)}
        found += [owners.get(id(node), path.stem) for node in ast.walk(tree)
                  if isinstance(node, ast.Attribute) and node.attr == "block"
                  and isinstance(node.value, ast.Name)
                  and node.value.id == "np"]
    assert found == ["coeffs.hamiltonian"]
