"""The correlated model is one subclass, ``KroneckerModel``, of the dense ``StatModel``.

Only ``model.py`` knows the subclass, the real form of its ``z`` and the product
through its factors: the other modules ask the model for what they need
(``apply_r``, ``z_operator``, ...).
``dataclasses.replace`` on a correlated model gives a densely validated
``StatModel``.  Estimating and tracking map a mean-removed copy of the
observation, in place, so the caller's observation is never overwritten.
"""

import ast
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import peachsim
from peachsim import estimators as es
from peachsim.adaptive import adaptive_init, adaptive_update, shrinkage_covariance
from peachsim.cli import _shrinkage_point, default_config
from peachsim.errors import NotPositiveSemiDefinite
from peachsim.model import Dims, KroneckerModel, StatModel, _pilot_sandwich, correlated_model

from conftest import complex_vector

SOURCE = Path(peachsim.__file__).resolve().parent
STRUCTURE_NAMES = {"KroneckerModel", "kronecker", "z_real", "z_real_factor", "_z_factors", "_factored_product"}


def _docstrings(tree) -> set:
    # the ids of the string constants that open a module, class or function body
    bodies = [node for node in ast.walk(tree) if isinstance(node, ast.Module | ast.ClassDef | ast.FunctionDef)]
    return {
        id(node.body[0].value)
        for node in bodies
        if node.body and isinstance(node.body[0], ast.Expr) and isinstance(node.body[0].value, ast.Constant)
    }


def structure_references(path: Path) -> list:
    """Every identifier, and every word of a string other than a docstring, that names the correlated structure."""
    tree = ast.parse(path.read_text())
    docstrings = _docstrings(tree)
    words = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            words.append(node.id)
        elif isinstance(node, ast.Attribute):
            words.append(node.attr)
        elif isinstance(node, ast.alias):
            words += [node.name, node.asname or ""]
        elif isinstance(node, ast.arg | ast.keyword):
            words.append(node.arg or "")
        elif isinstance(node, ast.FunctionDef | ast.ClassDef):
            words.append(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str) and id(node) not in docstrings:
            words += node.value.replace(".", " ").split()
    return sorted({word for word in words if word in STRUCTURE_NAMES or word.startswith("_centro_")})


@pytest.mark.parametrize("path", sorted(p.name for p in SOURCE.glob("*.py") if p.name != "model.py"))
def test_only_the_model_module_names_the_correlated_structure(path):
    assert structure_references(SOURCE / path) == []


def test_the_guard_finds_the_structure_where_it_is_named():
    found = set(structure_references(SOURCE / "model.py"))
    assert {"KroneckerModel", "z_real", "z_real_factor", "_z_factors", "_factored_product", "_centro_in"} <= found
    assert "_centro_butterfly" in found


@pytest.mark.parametrize("betas", [(), (0.1, 0.1)], ids=["noise-limited", "contaminated"])
def test_replace_gives_a_densely_validated_model(betas):
    model = correlated_model(Dims(5, 3, 3), 10.0, betas)
    assert type(model) is KroneckerModel
    dense = replace(model)
    assert type(dense) is StatModel
    assert np.array_equal(dense.r_cov, model.r_cov) and np.array_equal(dense.s_cov, model.s_cov)
    with pytest.raises(NotPositiveSemiDefinite):
        replace(model, r_cov=-model.r_cov)


# noise-limited with an odd m, and contaminated; the dense twin of each
OBSERVED = {"odd": (Dims(5, 3, 3), ()), "desk-contaminated": (Dims(20, 4, 4), (0.1, 0.1))}


def layouts(model, seed):
    m = model.dims.m
    rng = np.random.default_rng(seed)
    block = model.y_mean()[:, None] + complex_vector(rng, (m, 6))
    return {"vector": model.y_mean() + complex_vector(rng, m), "c-block": block, "f-block": np.asfortranarray(block)}


@pytest.mark.parametrize("dense", [False, True], ids=["kronecker", "dense-twin"])
@pytest.mark.parametrize("model_name", OBSERVED)
def test_estimating_and_tracking_leave_the_observation_unchanged(model_name, dense):
    dims, betas = OBSERVED[model_name]
    model = correlated_model(dims, 10.0, betas)
    model = replace(model) if dense else model
    alpha_w = es.make_wpeach(model, 2).alpha
    for layout, y in layouts(model, 31).items():
        kept = y.copy(order="A")
        for name in es.NAMES:
            es.prepare(model, name, 3).apply(y)
        state = adaptive_init(model, 2, alpha_w, [y, y + 1.0, y - 1.0] if y.ndim == 1 else y)
        adaptive_update(state, y)
        assert y.tobytes(order="A") == kept.tobytes(order="A"), layout
        assert y.flags.f_contiguous == kept.flags.f_contiguous, layout


@pytest.mark.parametrize("betas", [(), (0.0, 0.0), (0.1, 0.1)], ids=["noise-limited", "zero-power", "contaminated"])
@pytest.mark.parametrize("dims", [Dims(20, 4, 4), Dims(40, 10, 10)], ids=["m80", "m400"])
def test_observation_covariance_is_the_dense_sum(dims, betas):
    # without a positive-power interferer noise_var is added on the sandwich's diagonal: the bytes of adding
    # s_cov = noise_var * I, which is not formed
    model = correlated_model(dims, 5.0, betas)
    r_est = shrinkage_covariance(model.draw_channel(np.random.default_rng(2), 20).T).c_hat
    got = model.observation_covariance(r_est)
    assert ("s_cov" in vars(model)) == (betas == (0.1, 0.1))
    assert got.tobytes() == (_pilot_sandwich(model.pilot, dims.n_r, r_est) + replace(model).s_cov).tobytes()


def test_shrinkage_point_forms_no_disturbance_covariance():
    config = default_config("shrinkage")
    model = correlated_model(Dims(config.n_r, config.n_t, config.b), config.snr_db[0], config.betas)
    _shrinkage_point(config, model, {"shrink_samples": 20}, 20, 0)
    assert "s_cov" not in vars(model)
