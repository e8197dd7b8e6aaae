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
from peachsim.model import Dims, correlated_model, identity_pilot, stat_model_from_pilot

from conftest import random_model

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


def build(**contamination):
    """A one-antenna model through the generic builder, with ``interferers`` and ``noise_var`` as given."""
    dims = Dims(2, 1, 1)
    return stat_model_from_pilot(dims, None, np.eye(dims.n), None, identity_pilot(dims, 1.0), **contamination)


# arguments outside their range, at each place that checks one, with the error each raises
OUT_OF_RANGE = {
    "negative interference ratio": (InvalidParameter, lambda rng: build(interferers=((-0.1, np.eye(2)),))),
    "zero noise variance": (InvalidParameter, lambda rng: build(noise_var=0.0)),
    "zero pilot power": (InvalidParameter, lambda rng: identity_pilot(Dims(2, 2, 2), 0.0)),
    "overflowing pilot SNR": (InvalidParameter, lambda rng: correlated_model(Dims(4, 2, 2), 4000.0, (0.1, 0.1))),
    "zero coherence time": (
        InvalidParameter,
        lambda rng: analysis.FlopModel(dims=Dims(4, 2, 2), tau_s=0.0, tau_c=0.1, t_tot=1.0),
    ),
    "NaN coherence time": (
        InvalidParameter,
        lambda rng: analysis.FlopModel(dims=Dims(4, 2, 2), tau_s=np.nan, tau_c=0.1, t_tot=1.0),
    ),
    "NaN channel coherence time": (
        InvalidParameter,
        lambda rng: analysis.FlopModel(dims=Dims(4, 2, 2), tau_s=1.0, tau_c=np.nan, t_tot=1.0),
    ),
    "NaN total time": (
        InvalidParameter,
        lambda rng: analysis.FlopModel(dims=Dims(4, 2, 2), tau_s=1.0, tau_c=0.1, t_tot=np.nan),
    ),
    "negative stationarity ratio": (InvalidParameter, lambda rng: analysis.crossover_m("peach", -1.0, 2)),
    "NaN stationarity ratio": (InvalidParameter, lambda rng: analysis.crossover_m("peach", np.nan, 2)),
    "zero trials": (InvalidParameter, lambda rng: run_monte_carlo(random_model(rng), {"mmse": lambda y: y}, 0, 0)),
    "fractional trials": (
        InvalidParameter,
        lambda rng: run_monte_carlo(random_model(rng), {"mmse": lambda y: y}, 2.5, 0),
    ),
    "boolean trials": (
        InvalidParameter,
        lambda rng: run_monte_carlo(random_model(rng), {"mmse": lambda y: y}, True, 0),
    ),
    "unknown estimator name": (UnsupportedEstimator, lambda rng: es.prepare(random_model(rng), "lmmse", 2)),
}


@pytest.mark.parametrize("case", OUT_OF_RANGE)
def test_parameter_out_of_range_is_typed(rng, case):
    error, call = OUT_OF_RANGE[case]
    with pytest.raises(error):
        call(rng)
    assert issubclass(error, PeachSimError) and issubclass(error, ValueError)


NON_FINITE = {"nan": np.nan, "+inf": np.inf, "-inf": -np.inf}


@pytest.mark.parametrize("value", NON_FINITE.values(), ids=NON_FINITE.keys())
@pytest.mark.parametrize("betas", [(), (0.1, 0.1)], ids=["noise-limited", "contaminated"])
@pytest.mark.parametrize("scalar", ["gamma_db", "beta", "noise_var"])
def test_non_finite_scalar_is_rejected_at_the_boundary(scalar, betas, value):
    # the SNR reaches identity_pilot as a pilot power, beta and noise_var
    # reach the power check; a non-finite beta brings interference with it
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
        build(noise_var=value)
    with pytest.raises(InvalidParameter):
        build(interferers=((value, np.eye(2)),))
