"""Every error the package raises is a typed ``PeachSimError``."""

import ast
from pathlib import Path

import numpy as np
import pytest

import peachsim.errors as errors
from peachsim import analysis
from peachsim import estimators as es
from peachsim.cli import run_monte_carlo
from peachsim.errors import InvalidParameter, PeachSimError, UnsupportedEstimator
from peachsim.model import ContaminationSpec, Dims, correlated_model, identity_pilot

from conftest import random_model, random_observation

SRC = Path(__file__).resolve().parents[1] / "src" / "peachsim"


def raised_names(path):
    """(line, class name) of every ``raise`` in a module; None for a bare re-raise."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            yield node.lineno, None if exc is None else ast.unparse(exc)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_raise_names_a_package_error(path):
    for line, name in raised_names(path):
        cls = getattr(errors, name, None) if name else None
        assert isinstance(cls, type) and issubclass(cls, PeachSimError), f"{path.name}:{line} raises {name}"


# scalar parameters outside their range, at each place that checks one
OUT_OF_RANGE = {
    "negative interference ratio": lambda rng: ContaminationSpec((np.eye(2),), (-0.1,)),
    "zero noise variance": lambda rng: ContaminationSpec(noise_var=0.0),
    "zero pilot power": lambda rng: identity_pilot(Dims(2, 2, 2), 0.0),
    "zero coherence time": lambda rng: analysis.FlopModel(dims=Dims(4, 2, 2), tau_s=0.0, tau_c=0.1, t_tot=1.0),
    "negative stationarity ratio": lambda rng: analysis.crossover_m("peach", -1.0, 2),
    "zero trials": lambda rng: run_monte_carlo(random_model(rng), {"mmse": es.mmse_estimate}, 0, 0),
}


@pytest.mark.parametrize("case", OUT_OF_RANGE)
def test_parameter_out_of_range_is_typed(rng, case):
    with pytest.raises(InvalidParameter):
        OUT_OF_RANGE[case](rng)
    assert issubclass(InvalidParameter, ValueError)


NON_FINITE = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}


@pytest.mark.parametrize("value", NON_FINITE.values(), ids=NON_FINITE.keys())
@pytest.mark.parametrize("betas", [(), (0.1, 0.1)], ids=["noise-limited", "contaminated"])
@pytest.mark.parametrize("scalar", ["gamma_db", "beta", "noise_var"])
def test_non_finite_scalar_is_rejected_at_the_boundary(scalar, betas, value):
    # the SNR reaches identity_pilot as a pilot power, beta and noise_var
    # reach ContaminationSpec; a non-finite beta brings interference with it
    args = dict(gamma_db=10.0, betas=betas + (value,) if scalar == "beta" else betas, noise_var=1.0)
    if scalar != "beta":
        args[scalar] = value
    with pytest.raises(InvalidParameter):
        correlated_model(Dims(4, 2, 2), **args)


@pytest.mark.parametrize("value", NON_FINITE.values(), ids=NON_FINITE.keys())
def test_non_finite_pilot_power_and_noise_variance_are_invalid(value):
    with pytest.raises(InvalidParameter):
        identity_pilot(Dims(2, 2, 2), value)
    with pytest.raises(InvalidParameter):
        ContaminationSpec(noise_var=value)
    with pytest.raises(InvalidParameter):
        ContaminationSpec((np.eye(2),), (value,))


def test_polynomial_kind_mismatch_is_typed(rng):
    model = random_model(rng)
    with pytest.raises(UnsupportedEstimator):
        es.wpeach_estimate(model, es.make_peach(model, 2), random_observation(rng, model))
