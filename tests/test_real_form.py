"""A correlated model's z products and MMSE solves run in the real form of its centro-Hermitian z.

``z = K S K^H`` with a real symmetric ``S`` and the sparse unitary
``K = K_t (x) K_r``; the estimators map by ``2 K^H`` on the way in and apply
``r_cov pilot_ext^H K / 2`` on the way out, and a dense model keeps its complex
``z``.  From ``FACTORED_MIN`` entries a model with few terms applies ``S``
through its factors' real forms and never forms it.
"""

import functools
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
import scipy.linalg

import peachsim.model
from peachsim import estimators as es
from peachsim.cli import _sweep_point, default_config, run_monte_carlo
from peachsim.errors import NonFiniteObservation, PeachSimError
from peachsim.model import Dims, correlated_model, deviation

from conftest import complex_vector, relative_error
from oracles import centro_unitary

# noise-limited and contaminated, for an even n, an odd n and three interferers
TWIN_MODELS = {
    "desk": (Dims(20, 4, 4), ()),
    "desk-contaminated": (Dims(20, 4, 4), (0.1, 0.1)),
    "odd": (Dims(5, 3, 3), ()),
    "odd-contaminated": (Dims(5, 3, 3), (0.1, 0.1)),
    "three": (Dims(7, 3, 3), ()),
    "three-contaminated": (Dims(7, 3, 3), (0.1, 0.2, 0.3)),
}
# The W-PEACH weights reach about 1e10 at L = 12, so there two evaluations of one filter differ far above 1e-12,
# and the dense twin's own distance from the dense filter (poly_filter_matrix) measures that scale.  The real
# form's z also differs from the complex one in its last bits, which the weights amplify too: the real-form
# estimate lies 2.3 to 34 times that distance from the twin's in these cases, and up to 71 times over 240
# random observations at 5 and 20 dB; a wrong map or form would be off by O(1).
ROUNDING_SCALE_FACTOR = 1e3
FORMED = ("z", "z_factor", "z_real", "z_real_factor")


def twin_pair(name, gamma_db=10.0):
    dims, betas = TWIN_MODELS[name]
    model = correlated_model(dims, gamma_db, betas)
    return model, replace(model)


def observation(model, shape, seed):
    return model.y_mean()[(...,) + (None,) * (len(shape) - 1)] + complex_vector(np.random.default_rng(seed), shape)


class Counting:
    """Stands in for a function, counts its calls and keeps the arguments after the first two of each: a
    product's accumulate target and scale."""

    def __init__(self, fn):
        self.fn = fn
        self.calls = 0
        self.extras = []

    def __call__(self, *args):
        self.calls += 1
        self.extras.append(args[2:])
        return self.fn(*args)


def assert_accumulating(products, est):
    # each product accumulated a Horner step into a block the apply owns, at -alpha for PEACH and alpha for W-PEACH
    scale = -est.alpha if est.kind is es.EstimatorKind.PEACH else est.alpha
    assert all(len(extra) == 2 and extra[0] is not None and extra[1] == scale for extra in products.extras)


CASES = [("mmse", 0)] + [(name, degree) for name in ("peach", "wpeach") for degree in (0, 1, 4, 12)]


class TestDenseTwin:
    @pytest.mark.parametrize("k", [None, 6], ids=["vector", "block"])
    @pytest.mark.parametrize("name, degree", CASES)
    @pytest.mark.parametrize("model_name", TWIN_MODELS)
    def test_estimate_matches_the_dense_twin(self, model_name, name, degree, k):
        model, dense = twin_pair(model_name)
        shape = (model.dims.m,) if k is None else (model.dims.m, k)
        y = observation(model, shape, seed=degree)
        estimate, expected = es.prepare(model, name, degree).apply(y), es.prepare(dense, name, degree).apply(y)
        tolerance = 1e-12
        if (name, degree) == ("wpeach", 12):
            est = es.make_wpeach(dense, degree)
            g_mat = es.poly_filter_matrix(dense, est)
            d = deviation(dense, y)
            oracle = (dense.h_mean if k is None else dense.h_mean[:, None]) + g_mat @ d
            tolerance = max(tolerance, ROUNDING_SCALE_FACTOR * relative_error(expected, oracle))
        assert relative_error(estimate, expected) <= tolerance
        # the real form ran, and the complex z was never formed
        assert ("z_real_factor" if name == "mmse" else "z_real") in vars(model)
        assert "z" not in vars(model) and "z_factor" not in vars(model)

    @pytest.mark.parametrize("name", ["mmse", "peach"])
    def test_a_long_vector_takes_the_factored_products_and_the_one_triangle_solves(self, name):
        # from FACTORED_MIN entries this model's three terms multiply a vector through the factors' real forms; every
        # vector is solved by dtrsv against the real Cholesky factor
        dims = Dims(50, 10, 10)
        assert dims.m >= peachsim.model.FACTORED_MIN
        model = correlated_model(dims, 5.0, (0.1, 0.1))
        y = observation(model, (dims.m,), seed=3)
        estimate = es.prepare(model, name, 4).apply(y)
        assert relative_error(estimate, es.prepare(replace(model), name, 4).apply(y)) <= 1e-12


class TestFormedOnFirstApply:
    @pytest.mark.parametrize("name", es.NAMES)
    def test_mse_forms_no_operator(self, name):
        model = correlated_model(Dims(20, 4, 4), 10.0, (0.1, 0.1))
        prepared = es.prepare(model, name, 4)
        prepared.mse()
        assert not set(FORMED) & set(vars(model))
        prepared.apply(observation(model, (model.dims.m,), seed=1))
        formed = {"mmse": {"z_real", "z_real_factor"}, "peach": {"z_real"}, "wpeach": {"z_real"}}.get(name, set())
        assert set(FORMED) & set(vars(model)) == formed

    @pytest.mark.parametrize("monte_carlo", [False, True])
    def test_analytic_sweep_point_forms_no_operator(self, monte_carlo):
        # the analytic columns read the limit spectrum; only Monte Carlo applies the estimators
        config = default_config("sweep-snr", betas=(0.1, 0.1), snr_db=(10.0,), trials=8, monte_carlo=monte_carlo)
        model = correlated_model(Dims(config.n_r, config.n_t, config.b), 10.0, config.betas)
        _sweep_point(config, model, {"degrees": config.degree}, 10.0, 0)
        assert set(FORMED) & set(vars(model)) == ({"z_real", "z_real_factor"} if monte_carlo else set())

    def test_real_form_is_half_of_z(self):
        model = correlated_model(Dims(20, 4, 4), 10.0, (0.1, 0.1))
        for matrix in (model.z_real, model.z_real_factor):
            assert matrix.dtype == np.float64 and matrix.shape == (80, 80) and not matrix.flags.writeable
        assert model.z_real.nbytes * 2 == model.z.nbytes

    @pytest.mark.parametrize("model_name", TWIN_MODELS)
    def test_maps_carry_the_real_form_to_z(self, model_name):
        # for the unitary K = K_t (x) K_r with z = K S K^H, into is 2 K^H, head is r_cov pilot_ext^H K / 2, so that
        # head(into(v)) is r_cov pilot_ext^H v, and scale 1/4 undoes into's factor 4 on inner products
        model, dense = twin_pair(model_name)
        m = model.dims.m
        k = np.kron(centro_unitary(model.dims.n_t), centro_unitary(model.dims.n_r))
        _, into, head, scale = model.z_operator()
        assert relative_error(into(np.eye(m, dtype=complex)), 2.0 * k.conj().T) <= 1e-15
        # a single vector is one column, mapped in place as a block is
        v, f = complex_vector(np.random.default_rng(m), (2, m))
        assert relative_error(into(v.copy()), 2.0 * k.conj().T @ v[:, None]) <= 1e-15
        assert relative_error(k @ model.z_real @ k.conj().T, dense.z) <= 1e-14
        assert relative_error(head(into(v.copy())), dense.r_cov @ dense.pilot_ext.conj().T @ v[:, None]) <= 1e-14
        assert scale == 0.25
        inner = np.vdot(into(f.copy()), into(v.copy())).real * scale
        assert abs(inner - np.vdot(f, v).real) <= 1e-15 * np.linalg.norm(f) * np.linalg.norm(v)


class TestProductCount:
    def test_no_complex_z_after_every_estimator(self):
        model = correlated_model(Dims(20, 4, 4), 10.0, (0.1, 0.1))
        for k in (None, 5):
            y = observation(model, (model.dims.m,) if k is None else (model.dims.m, k), seed=2)
            for name in es.NAMES:
                es.prepare(model, name, 4).apply(y)
        assert "z" not in vars(model) and "z_factor" not in vars(model)

    @pytest.mark.parametrize("k", [None, 1, 7], ids=["vector", "column", "block"])
    @pytest.mark.parametrize("degree", [0, 1, 4, 12])
    @pytest.mark.parametrize("name", ["peach", "wpeach"])
    def test_one_apply_makes_degree_real_products(self, monkeypatch, name, degree, k):
        model = correlated_model(Dims(20, 4, 4), 10.0, (0.1, 0.1))
        est = (es.make_peach if name == "peach" else es.make_wpeach)(model, degree)
        products = Counting(peachsim.model._real_product)
        monkeypatch.setattr(peachsim.model, "_real_product", products)
        es.bind(model, est).apply(observation(model, (model.dims.m,) if k is None else (model.dims.m, k), seed=4))
        assert products.calls == degree
        assert_accumulating(products, est)

    @pytest.mark.parametrize("k", [None, 7], ids=["vector", "block"])
    def test_one_mmse_apply_makes_one_real_solve(self, monkeypatch, k):
        model = correlated_model(Dims(20, 4, 4), 10.0, (0.1, 0.1))
        solves = Counting(peachsim.model._real_solve)
        monkeypatch.setattr(peachsim.model, "_real_solve", solves)
        es.prepare(model, "mmse").apply(observation(model, (model.dims.m,) if k is None else (model.dims.m, k), seed=5))
        assert solves.calls == 1


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, -np.inf)], ids=["nan", "inf", "imaginary-inf"])
@pytest.mark.parametrize("k", [None, 3], ids=["vector", "block"])
@pytest.mark.parametrize("name", es.NAMES)
def test_non_finite_observation_is_one_typed_error(name, k, bad):
    model = correlated_model(Dims(3, 2, 2), 5.0, ())
    y = observation(model, (model.dims.m,) if k is None else (model.dims.m, k), seed=6)
    y[0] = bad
    with pytest.raises(NonFiniteObservation, match="NaN or infinity") as raised:
        es.prepare(model, name, 2).apply(y)
    assert isinstance(raised.value, PeachSimError) and isinstance(raised.value, ValueError)


def test_fortran_ordered_block_is_read_as_it_lies():
    # the map into the real form's coordinates gives a C-contiguous block, whose real view the products read
    model, dense = twin_pair("odd-contaminated")
    y = np.asfortranarray(observation(model, (model.dims.m, 4), seed=7))
    for name in ("mmse", "peach"):
        estimate = es.prepare(model, name, 3).apply(y)
        assert relative_error(estimate, es.prepare(dense, name, 3).apply(y)) <= 1e-12


# three terms from FACTORED_MIN entries, with the long factor on either axis: each is applied through its factors
FACTORED = {"long-receive": Dims(100, 10, 10), "long-transmit": Dims(10, 100, 100)}
FACTORED_BETAS = (0.1, 0.1)


@functools.cache
def factored_twin(name):
    """The dense twin of a ``FACTORED`` model and the filters prepared on the model, at L = 1 and 4."""
    model = correlated_model(FACTORED[name], 5.0, FACTORED_BETAS)
    rules = {"peach": es.make_peach, "wpeach": es.make_wpeach}
    return replace(model), {(kind, degree): rule(model, degree) for kind, rule in rules.items() for degree in (1, 4)}


def counted_apply(monkeypatch, model, est, k, seed):
    """One apply of ``est`` on ``model``, with the calls of both real-form products counted (:class:`Counting`)."""
    counts = {name: Counting(getattr(peachsim.model, name)) for name in ("_factored_product", "_real_product")}
    for name, counting in counts.items():
        monkeypatch.setattr(peachsim.model, name, counting)
    es.bind(model, est).apply(observation(model, (model.dims.m,) if k is None else (model.dims.m, k), seed))
    return counts


class TestFactoredProduct:
    @pytest.mark.parametrize("k", [None, 7], ids=["vector", "block"])
    @pytest.mark.parametrize("degree", [1, 4])
    @pytest.mark.parametrize("kind", ["peach", "wpeach"])
    @pytest.mark.parametrize("name", FACTORED)
    def test_factored_estimate_matches_the_dense_twin(self, name, kind, degree, k):
        dense, filters = factored_twin(name)
        model = correlated_model(FACTORED[name], 5.0, FACTORED_BETAS)
        est = filters[kind, degree]
        y = observation(model, (model.dims.m,) if k is None else (model.dims.m, k), seed=degree)
        assert relative_error(es.bind(model, est).apply(y), es.bind(dense, est).apply(y)) <= 1e-12
        assert not set(FORMED) & set(vars(model))

    @pytest.mark.parametrize("k", [None, 7], ids=["vector", "block"])
    @pytest.mark.parametrize("degree", [0, 1, 4])
    @pytest.mark.parametrize("kind", ["peach", "wpeach"])
    def test_one_apply_makes_degree_factored_products(self, monkeypatch, kind, degree, k):
        model = correlated_model(Dims(50, 10, 10), 5.0, FACTORED_BETAS)
        est = (es.make_peach if kind == "peach" else es.make_wpeach)(model, degree)
        counts = counted_apply(monkeypatch, model, est, k, seed=8)
        calls = {name: counting.calls for name, counting in counts.items()}
        assert calls == {"_factored_product": degree, "_real_product": 0}
        assert_accumulating(counts["_factored_product"], est)
        assert not set(FORMED) & set(vars(model))

    @pytest.mark.parametrize("k", [None, 7], ids=["vector", "block"])
    def test_mmse_still_solves_against_the_real_factor(self, monkeypatch, k):
        model = correlated_model(Dims(50, 10, 10), 5.0, FACTORED_BETAS)
        solves = Counting(peachsim.model._real_solve)
        monkeypatch.setattr(peachsim.model, "_real_solve", solves)
        products = Counting(peachsim.model._factored_product)
        monkeypatch.setattr(peachsim.model, "_factored_product", products)
        es.prepare(model, "mmse").apply(observation(model, (model.dims.m,) if k is None else (model.dims.m, k), 9))
        assert (solves.calls, products.calls) == (1, 0) and "z_real_factor" in vars(model)

    # 7 terms at m = 1000 ask the factors for 7 (10 + 100) = 770 multiply-adds per entry, where the rule allows half
    # the dense form's 1000; every model below FACTORED_MIN, with the long factor on either axis and with few or many
    # terms, keeps the dense form too, and so does an m = 500 model whose receive factor is nearly as long as m
    DENSE = {
        "m1000-seven-terms": (Dims(100, 10, 10), (0.1,) * 6),
        "m490": (Dims(49, 10, 10), FACTORED_BETAS),
        "m400-long-transmit": (Dims(4, 100, 100), FACTORED_BETAS),
        "m80": (Dims(20, 4, 4), FACTORED_BETAS),
        "m80-noise-limited": (Dims(20, 4, 4), ()),
        "m9-seven-terms": (Dims(3, 3, 3), (0.1,) * 6),
        "m500-long-receive": (Dims(250, 2, 2), FACTORED_BETAS),
    }

    @pytest.mark.parametrize("k", [None, 7], ids=["vector", "block"])
    @pytest.mark.parametrize("model_name", DENSE)
    def test_other_models_keep_the_dense_real_form(self, monkeypatch, model_name, k):
        dims, betas = self.DENSE[model_name]
        model = correlated_model(dims, 5.0, betas)
        est = es.PolyEstimator("peach", 4, 1e-3, np.ones(5))  # any filter: only the products are counted
        counts = counted_apply(monkeypatch, model, est, k, seed=10)
        calls = {name: counting.calls for name, counting in counts.items()}
        assert calls == {"_factored_product": 0, "_real_product": 4}
        assert "z_real" in vars(model)

    # three terms at m = 500, and seven at m = 900, where n_t + n_r = 60 lets the factors take them
    BLOCK_MODELS = {"three-terms": (Dims(50, 10, 10), FACTORED_BETAS), "seven-terms": (Dims(30, 30, 30), (0.1,) * 6)}

    @pytest.mark.parametrize("model_name", BLOCK_MODELS)
    def test_a_block_product_holds_two_blocks_whatever_the_terms(self, model_name):
        # one 512-column product from a cold operator holds the output and one reused block of the receive products;
        # the factors are small, and a stacked or per-term temporary would add a block per term
        dims, betas = self.BLOCK_MODELS[model_name]
        model = correlated_model(dims, 5.0, betas)
        _, into, _, _ = model.z_operator()
        x = into(observation(model, (model.dims.m, 512), seed=11))
        tracemalloc.start()
        try:
            product = model.z_operator()[0](x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert product.shape == x.shape and peak <= 2.5 * x.nbytes
        assert "z_real" not in vars(model)


# The paths of a Horner step's accumulating product: the dense twin's complex z, the real form below FACTORED_MIN,
# the factors' real forms from it, and the real form of a model from FACTORED_MIN whose receive factor is too long
# for the factors; each real form takes one dgemm whatever the width
ACCUMULATING = {
    "dense-twin": lambda: replace(correlated_model(Dims(20, 4, 4), 5.0, FACTORED_BETAS)),
    "real-form": lambda: correlated_model(Dims(20, 4, 4), 5.0, FACTORED_BETAS),
    "factored": lambda: correlated_model(Dims(50, 10, 10), 5.0, FACTORED_BETAS),
    "long-real-form": lambda: correlated_model(Dims(250, 2, 2), 5.0, FACTORED_BETAS),
}
HORNER_CASES = [("peach", degree) for degree in (0, 1, 4, 12)] + [("wpeach", degree) for degree in (0, 1, 4)]


@functools.cache
def accumulating_pair(path):
    """A model on ``path`` and its dense twin, on which the dense filters are formed, so the model forms no complex z."""
    model = ACCUMULATING[path]()
    return model, model if path == "dense-twin" else replace(model)


@functools.cache
def accumulating_case(path, kind, degree):
    """A model on ``path``, the filter prepared on it and its dense filter matrix."""
    model, dense = accumulating_pair(path)
    est = (es.make_peach if kind == "peach" else es.make_wpeach)(model, degree)
    return model, est, es.poly_filter_matrix(dense, est)


class TestAccumulatingHorner:
    @pytest.mark.parametrize("k", [None, 7], ids=["vector", "block"])
    @pytest.mark.parametrize("kind, degree", HORNER_CASES)
    @pytest.mark.parametrize("path", ACCUMULATING)
    def test_apply_matches_the_dense_filter(self, path, kind, degree, k):
        model, est, g_mat = accumulating_case(path, kind, degree)
        y = observation(model, (model.dims.m,) if k is None else (model.dims.m, k), seed=degree)
        d = deviation(model, y)
        oracle = (model.h_mean if k is None else model.h_mean[:, None]) + g_mat @ d
        assert relative_error(es.bind(model, est).apply(y), oracle) <= 1e-12

    @pytest.mark.parametrize("path", ACCUMULATING)
    def test_the_accumulating_product_is_the_product_added(self, path):
        # op(x, c, s) writes c + s op(x) into c, and the inverse operator's solve undoes op(x), for a block, a vector
        # and an empty block
        model = ACCUMULATING[path]()
        op, into, _, _ = model.z_operator()
        solve = model.z_operator(inverse=True)[0]
        for k in (7, 1, 0):
            x = into(observation(model, (model.dims.m, k), seed=13 + k))
            c = into(observation(model, (model.dims.m, k), seed=14 + k))
            expected = c - 0.375 * op(x)
            assert op(x, c, -0.375) is c and c.shape == x.shape
            assert np.linalg.norm(c - expected) <= 1e-14 * max(np.linalg.norm(expected), 1.0)
            back = solve(op(x))
            assert back.shape == x.shape and np.linalg.norm(back - x) <= 1e-10 * np.linalg.norm(x)

    @pytest.mark.parametrize("path", ACCUMULATING)
    @pytest.mark.parametrize("name", es.NAMES)
    def test_an_empty_block_gives_an_empty_estimate(self, path, name):
        model = ACCUMULATING[path]()
        estimate = es.prepare(model, name, 4).apply(np.zeros((model.dims.m, 0), dtype=complex))
        assert estimate.shape == (model.dims.n, 0)

    @pytest.mark.parametrize("k", [None, 5], ids=["vector", "block"])
    @pytest.mark.parametrize("name", es.NAMES)
    def test_h_mean_added_in_place_is_the_sum(self, name, k):
        # a model with a mean, so the addition is not of zeros
        model = correlated_model(Dims(5, 3, 3), 5.0, FACTORED_BETAS)
        rng = np.random.default_rng(15)
        model = replace(model, h_mean=complex_vector(rng, model.dims.n), n_mean=complex_vector(rng, model.dims.m))
        prepared = es.prepare(model, name, 4)
        y = observation(model, (model.dims.m,) if k is None else (model.dims.m, k), seed=16)
        expected = (model.h_mean if k is None else model.h_mean[:, None]) + prepared.head(deviation(model, y))
        assert prepared.apply(y).tobytes() == expected.tobytes()

    @pytest.mark.parametrize("path", ["dense-twin", "real-form"])
    def test_monte_carlo_scores_are_the_out_of_place_ones(self, path):
        # run_monte_carlo scores each estimate as h - h_hat, over two chunks of draws, whatever the product's path
        model = ACCUMULATING[path]()
        prepared = {name: es.prepare(model, name, 4) for name in es.NAMES}
        trials, seed = 520, 17
        scored = run_monte_carlo(model, {name: p.apply for name, p in prepared.items()}, trials, seed)
        draws = [
            model.draw(np.random.default_rng(child), count)
            for child, count in zip(np.random.SeedSequence(seed).spawn(2), (512, 8))
        ]
        for name, p in prepared.items():
            errors = np.concatenate([np.sum(np.abs(h - p.apply(y)) ** 2, axis=0) for h, y in draws])
            assert scored[name] == (float(np.mean(errors)), float(np.std(errors, ddof=1) / np.sqrt(trials)))


def test_an_estimator_returning_its_observation_leaves_it_unchanged_for_the_next():
    # with b == n_t, y itself is an (n,) estimate; scoring it must not write into y, which mmse reads next
    model = correlated_model(Dims(20, 4, 4), 5.0, FACTORED_BETAS)
    mmse = es.prepare(model, "mmse").apply
    trials, seed = 3, 19
    scored = run_monte_carlo(model, {"identity": lambda y: y, "mmse": mmse}, trials, seed)
    assert scored["mmse"] == run_monte_carlo(model, {"mmse": mmse}, trials, seed)["mmse"]


def test_mmse_factors_a_fresh_real_form_where_the_product_reads_the_factors():
    # the factored product never reads z_real, so MMSE's factor is taken of a fresh form in place and no z_real is
    # kept; the factor has the bytes of the one taken of z_real
    model = correlated_model(Dims(100, 10, 10), 5.0, FACTORED_BETAS)
    es.prepare(model, "mmse").apply(observation(model, (model.dims.m,), seed=18))
    assert "z_real" not in vars(model) and "z_real_factor" in vars(model)
    expected, _ = scipy.linalg.cho_factor(model.z_real, lower=True, check_finite=False)
    factor = model.z_real_factor
    assert factor.flags.f_contiguous and not factor.flags.writeable
    assert factor.tobytes(order="F") == expected.tobytes(order="F")
