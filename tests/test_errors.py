"""Every error the package raises is a typed ``PeachSimError``."""

import ast
from pathlib import Path

import numpy as np
import pytest

import peachsim.errors as errors
from peachsim import analysis
from peachsim import estimators as es
from peachsim.adaptive import adaptive_init
from peachsim.cli import run_monte_carlo
from peachsim.errors import InvalidDegree, InvalidParameter, InvalidScaling, PeachSimError, UnsupportedEstimator
from peachsim.model import Dims, correlated_model, identity_pilot, stat_model_from_pilot

from conftest import random_model

SRC = Path(__file__).resolve().parents[1] / "src" / "peachsim"


# position of the error class each check of errors.py takes from its caller and raises
CHECK_ERROR_ARGUMENT = {"check_integer": 3, "check_real": 2, "finite_or": 0}


def raised_names(path):
    """(line, class name) of every ``raise`` in a module and of every error class it passes a check.

    None for a bare re-raise.  The checks' own ``raise error(...)`` is resolved at the call sites instead.
    """
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Raise):
            exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
            if not (path.name == "errors.py" and isinstance(exc, ast.Name) and exc.id == "error"):
                yield node.lineno, None if exc is None else ast.unparse(exc)
        elif isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id in CHECK_ERROR_ARGUMENT:
            yield node.lineno, ast.unparse(node.args[CHECK_ERROR_ARGUMENT[node.func.id]])


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda path: path.name)
def test_every_raise_names_a_package_error(path):
    for line, name in raised_names(path):
        cls = getattr(errors, name, None) if name else None
        assert isinstance(cls, type) and issubclass(cls, PeachSimError), f"{path.name}:{line} raises {name}"


def square_flop_model():
    return analysis.FlopModel(dims=Dims(4, 2, 2), tau_s=1.0, tau_c=0.1, t_tot=1.0)


def build(**contamination):
    """A one-antenna model through the generic builder, with ``interferers`` and ``noise_var`` as given."""
    dims = Dims(2, 1, 1)
    return stat_model_from_pilot(dims, None, np.eye(dims.n), None, identity_pilot(dims, 1.0), **contamination)


def desk_model():
    return correlated_model(Dims(4, 2, 2), 5.0, (0.1, 0.1))


def warmup():
    return desk_model().draw(np.random.default_rng(0), 3)[1]


# arguments outside their range or of the wrong type, at each place that checks one, with the error each raises
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
    # flops checks its degree as crossover_m does; -1 gave negative FLOPs, and 2.5, "2" and True were counted
    "negative FLOP-count degree": (InvalidDegree, lambda rng: analysis.flops("peach", square_flop_model(), -1)),
    "fractional FLOP-count degree": (InvalidDegree, lambda rng: analysis.flops("wpeach", square_flop_model(), 2.5)),
    "string FLOP-count degree": (InvalidDegree, lambda rng: analysis.flops("peach", square_flop_model(), "2")),
    "boolean FLOP-count degree": (InvalidDegree, lambda rng: analysis.flops("wpeach", square_flop_model(), True)),
    "estimator kind that is not a string": (UnsupportedEstimator, lambda rng: analysis.flops(3, square_flop_model())),
    # a scalar of the wrong type: the string beta, the boolean noise variance and the string alpha were accepted,
    # the others raised a bare TypeError or ValueError
    "string beta": (InvalidParameter, lambda rng: correlated_model(Dims(4, 2, 2), 5.0, ("0.5",))),
    "boolean noise variance": (InvalidParameter, lambda rng: correlated_model(Dims(4, 2, 2), 5.0, (), noise_var=True)),
    "complex beta": (InvalidParameter, lambda rng: correlated_model(Dims(4, 2, 2), 5.0, (1j,))),
    "string noise variance": (InvalidParameter, lambda rng: correlated_model(Dims(4, 2, 2), 5.0, (), noise_var="1")),
    "string pilot SNR": (InvalidParameter, lambda rng: correlated_model(Dims(4, 2, 2), "5", ())),
    "missing pilot SNR": (InvalidParameter, lambda rng: correlated_model(Dims(4, 2, 2), None, ())),
    "complex beta of a generic model": (InvalidParameter, lambda rng: build(interferers=((1j, np.eye(2)),))),
    "string noise variance of a generic model": (InvalidParameter, lambda rng: build(noise_var="1")),
    "string pilot power": (InvalidParameter, lambda rng: identity_pilot(Dims(2, 2, 2), "1")),
    "complex pilot power": (InvalidParameter, lambda rng: identity_pilot(Dims(2, 2, 2), 1j)),
    "string coherence time": (InvalidParameter, lambda rng: analysis.FlopModel(Dims(4, 2, 2), "1", 1.0, 1.0)),
    "complex coherence time": (InvalidParameter, lambda rng: analysis.FlopModel(Dims(4, 2, 2), 1j, 1.0, 1.0)),
    "string stationarity ratio": (InvalidParameter, lambda rng: analysis.crossover_m("peach", "1", 2)),
    "string alpha": (InvalidScaling, lambda rng: es.PolyEstimator("peach", 2, "1", np.ones(3))),
    "complex alpha": (InvalidScaling, lambda rng: es.PolyEstimator("peach", 2, 1j, np.ones(3))),
    "missing alpha": (InvalidScaling, lambda rng: es.PolyEstimator("peach", 2, None, np.ones(3))),
    "string PEACH scaling": (InvalidScaling, lambda rng: es.make_peach(desk_model(), 2, "0.1")),
    "string W-PEACH scaling": (InvalidScaling, lambda rng: es.make_wpeach(desk_model(), 2, "0.1")),
    "string tracker scaling": (InvalidScaling, lambda rng: adaptive_init(desk_model(), 2, "0.1", warmup())),
    "missing tracker scaling": (InvalidScaling, lambda rng: adaptive_init(desk_model(), 2, None, warmup())),
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



@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: es.mismatched_mse(desk_model(), np.eye(4), 2), r"r_est must be of shape \(8, 8\), got shape \(4, 4\)"),
        (lambda: build(interferers=((0.1, np.eye(3)),)),
         r"interferer covariance must be of shape \(2, 2\), got shape \(3, 3\)"),
        (lambda: stat_model_from_pilot(Dims(2, 1, 1), None, np.eye(3), None, np.eye(1)),
         r"r_cov must be of shape \(2, 2\), got shape \(3, 3\)"),
        (lambda: es.mismatched_mse(desk_model(), np.ones((8, 7)), 2), r"r_est must be of shape \(8, 8\), got shape \(8, 7\)"),
    ],
    ids=["mismatched_mse", "interferer", "stat_model_from_pilot", "mismatched_mse-not-square"],
)
def test_a_covariance_of_the_wrong_shape_is_told_the_shape_it_needs(call, message):
    # a square array of the wrong size is not told to be square
    with pytest.raises(errors.ShapeError, match=message):
        call()
