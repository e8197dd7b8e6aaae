import numpy as np
import pytest
import scipy.linalg

from peachsim.model import Dims, correlated_limit, identity_pilot, stat_model_from_pilot


def random_hermitian_psd(rng, dim, eig_lo=0.3, eig_hi=3.0):
    """Hermitian PSD matrix with eigenvalues drawn uniformly from [eig_lo, eig_hi]."""
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, _ = np.linalg.qr(g)
    return q @ np.diag(rng.uniform(eig_lo, eig_hi, dim)) @ q.conj().T


def complex_vector(rng, size):
    return rng.standard_normal(size) + 1j * rng.standard_normal(size)


def random_model(
    rng,
    n_r=2,
    n_t=2,
    pt_lo=0.5,
    pt_hi=1.5,
    n_interferers=2,
    beta_max=0.5,
    noise_var=1.0,
    eig_lo=0.3,
    eig_hi=3.0,
    zero_means=False,
):
    """Random identity-pilot model with controlled covariance spectra.

    Eigenvalues of all covariance factors stay within [eig_lo, eig_hi] so the
    observation covariance is well conditioned and polynomial expansions
    converge quickly.
    """
    dims = Dims(n_r, n_t, n_t)
    r_cov = random_hermitian_psd(rng, dims.n, eig_lo, eig_hi)
    covs = tuple(random_hermitian_psd(rng, dims.n, eig_lo, eig_hi) for _ in range(n_interferers))
    betas = tuple(rng.uniform(0.0, beta_max) for _ in range(n_interferers))
    h_mean = None if zero_means else complex_vector(rng, dims.n)
    n_mean = None if zero_means else complex_vector(rng, dims.m)
    pilot_power = rng.uniform(pt_lo, pt_hi)
    pilot = identity_pilot(dims, pilot_power)
    return stat_model_from_pilot(dims, h_mean, r_cov, n_mean, pilot, tuple(zip(betas, covs)), noise_var)


def random_pilot_model(rng, n_t, b, n_r=2):
    """Model with a random, generally non-square (n_t, b) pilot, nonzero means and two interferers."""
    dims = Dims(n_r, n_t, b)
    pilot = complex_vector(rng, n_t * b).reshape(n_t, b)
    covs = tuple(random_hermitian_psd(rng, dims.n) for _ in range(2))
    return stat_model_from_pilot(
        dims,
        complex_vector(rng, dims.n),
        random_hermitian_psd(rng, dims.n),
        complex_vector(rng, dims.m),
        pilot,
        tuple(zip((0.3, 0.7), covs)),
        0.8,
    )


def relative_error(actual, expected):
    return np.linalg.norm(actual - expected) / np.linalg.norm(expected)


def random_observation(rng, model):
    return model.y_mean() + complex_vector(rng, model.dims.m)


def count_calls(monkeypatch, namespace, names, counts, min_dim=0):
    """Count the calls made to each of ``names`` in ``namespace`` into ``counts``.

    With ``min_dim``, only calls whose first argument is a matrix of at least
    ``min_dim`` rows are counted, so ``min_dim = m`` leaves out the small
    Kronecker factors of a correlated model, as in :func:`count_eig_calls`.
    """

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            if not min_dim or np.shape(args[0])[0] >= min_dim:
                counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in names:
        counts[name] = 0
        monkeypatch.setattr(namespace, name, counted(name, getattr(namespace, name)))


def count_eig_calls(monkeypatch, counts, min_dim=0):
    """Count eigendecompositions made through ``numpy.linalg`` or ``scipy.linalg`` into ``counts``.

    ``counts["eigh"]`` counts the calls that return eigenvectors and
    ``counts["eigvalsh"]`` those that return eigenvalues only, whichever
    module, function or LAPACK routine made them.  Only matrices of at least
    ``min_dim`` rows are counted, so ``min_dim = m`` leaves out the small
    Kronecker factors of a correlated model.
    """

    def counted(fn, values_only):
        def wrapper(*args, **kwargs):
            # scipy.linalg.eigh(..., eigvals_only=True) returns eigenvalues only
            if np.shape(args[0] if args else kwargs["a"])[0] >= min_dim:
                counts["eigvalsh" if values_only or kwargs.get("eigvals_only") else "eigh"] += 1
            return fn(*args, **kwargs)

        return wrapper

    counts["eigh"] = counts["eigvalsh"] = 0
    for namespace in (np.linalg, scipy.linalg):
        for name, values_only in (("eigh", False), ("eig", False), ("eigvalsh", True), ("eigvals", True)):
            monkeypatch.setattr(namespace, name, counted(getattr(namespace, name), values_only))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture(autouse=True)
def fresh_correlated_limit():
    # correlated_limit keeps its latest spectrum across calls; each test starts
    # without it, so linear-algebra counts do not depend on the test order
    correlated_limit.cache_clear()
    yield
    correlated_limit.cache_clear()
