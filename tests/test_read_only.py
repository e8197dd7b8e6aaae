"""The one read-only rule (:func:`peachsim.errors.read_only`) of every array a model, a spectrum or a filter holds.

Each array attribute and cached array of a dense :class:`StatModel` and of a
noise-limited, a contaminated and a factored :class:`KroneckerModel` is
read-only, so a write raises numpy's ``ValueError`` and nothing derived from a
model can fall out of step with it.  The arrays a caller passes in are copied:
later writes to them change neither the model nor its estimates, and they stay
writable.
"""

import numpy as np
import pytest

from peachsim.estimators import NAMES, EstimatorKind, PolyEstimator, prepare
from peachsim.model import Dims, KroneckerModel, correlated_model, identity_pilot, stat_model_from_pilot
from peachsim.spectrum import Spectrum

DIMS = Dims(4, 2, 2)


def caller_arrays():
    """A caller's own writable ``h_mean``, ``n_mean`` and complex ``pilot``, which numpy would otherwise alias."""
    rng = np.random.default_rng(47)
    h_mean = rng.standard_normal(DIMS.n) + 1j * rng.standard_normal(DIMS.n)
    n_mean = rng.standard_normal(DIMS.m) + 1j * rng.standard_normal(DIMS.m)
    return h_mean, n_mean, identity_pilot(DIMS, 2.0)


def dense_model(h_mean, n_mean, pilot):
    return stat_model_from_pilot(DIMS, h_mean, np.eye(DIMS.n), n_mean, pilot, ((0.5, 0.5 * np.eye(DIMS.n)),))


def held_arrays(model) -> dict:
    """Every array ``model`` stores or hands out, by name, but the private kernel caches."""
    held = {name: getattr(model, name) for name in ("h_mean", "r_cov", "n_mean", "s_cov", "pilot", "z")}
    held.update(z_factor=model.z_factor[0], r_factor=model.r_factor, s_factor=model.s_factor, y_mean=model.y_mean())
    held.update(z_spectrum_lam=model.z_spectrum.lam, z_spectrum_phi=model.z_spectrum.phi)
    if isinstance(model, KroneckerModel):
        # the factor first: a factored model forms it from a fresh real form, which it factors in place
        held.update(z_real_factor=model.z_real_factor, z_real=model.z_real)
        held.update(source_lam=model.source().lam, source_phi=model.source().phi)
        for i, (_, r_t, r_r) in enumerate(model.terms):
            held.update({f"terms[{i}].r_t": r_t, f"terms[{i}].r_r": r_r})
    return held


MODELS = {
    "dense": lambda: dense_model(*caller_arrays()),
    "noise-limited": lambda: correlated_model(DIMS, 5.0, ()),
    "contaminated": lambda: correlated_model(DIMS, 5.0, (0.1,)),
    "factored": lambda: correlated_model(Dims(17, 17, 17), 5.0, ()),
}


@pytest.mark.parametrize("build", MODELS.values(), ids=MODELS.keys())
def test_every_array_a_model_holds_is_read_only(build):
    held = held_arrays(build())
    assert [name for name, array in held.items() if array.flags.writeable] == []
    for array in held.values():
        with pytest.raises(ValueError, match="read-only"):
            array.flat[0] += 1


def test_writes_to_the_callers_arrays_change_neither_the_model_nor_its_estimates():
    h_mean, n_mean, pilot = caller_arrays()
    model = dense_model(h_mean, n_mean, pilot)
    y = model.draw(np.random.default_rng(5), 3)[1]
    fields = [model.h_mean.copy(), model.n_mean.copy(), model.pilot.copy()]
    estimates = {name: prepare(model, name, 2).apply(y) for name in NAMES}  # forms and caches y_mean()
    for array in (h_mean, n_mean, pilot):
        array[:] = 1
    assert all(np.array_equal(now, was) for now, was in zip((model.h_mean, model.n_mean, model.pilot), fields))
    for name in NAMES:
        assert np.array_equal(prepare(model, name, 2).apply(y), estimates[name]), name


def test_a_model_freezes_copies_and_leaves_the_callers_arrays_writable():
    given = caller_arrays()
    model = dense_model(*given)
    for held, array in zip((model.h_mean, model.n_mean, model.pilot), given):
        assert not held.flags.writeable and not np.shares_memory(held, array) and array.flags.writeable


def test_a_spectrum_and_a_filter_freeze_copies_and_leave_the_callers_arrays_writable():
    lam, phi, weights = np.array([1.0, 2.0]), np.array([0.5, 0.25]), np.array([1.0, 0.5, 0.25])
    spectrum = Spectrum(lam, phi, 1.0)
    filt = PolyEstimator(EstimatorKind.WPEACH, 2, 0.5, weights)
    for held, array in ((spectrum.lam, lam), (spectrum.phi, phi), (filt.weights, weights)):
        assert not held.flags.writeable and not np.shares_memory(held, array) and array.flags.writeable
    lam[0] = phi[0] = weights[0] = 7.0
    assert spectrum.lam[0] == 1.0 and spectrum.phi[0] == 0.5 and filt.weights[0] == 1.0
