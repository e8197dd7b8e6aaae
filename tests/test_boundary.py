"""Boundary audit: a hostile argument to a public callable raises a ``PeachSimError`` or acts as its plain value.

Every callable that ``peachsim`` exports is called with valid arguments, one of
them replaced by a hostile value: for a scalar, a ``bool``, NaN, +-inf, a
string, None, a complex number, a narrow numpy scalar (``np.int8``,
``np.float32``, ...) or a 0-d array of the valid value; for an array (a
covariance, a pilot, ``r_est``, ``samples``, ``warmup``, an observation), None,
a string, an array of the wrong shape, or the valid array with its last entry
infinite or NaN; for a sequence of scalars (``betas``, a grid), None, a string,
or the valid sequence with its first entry hostile; for ``out``, an existing
directory.  The call must raise a ``PeachSimError``, or succeed; an array that
holds NaN or infinity must raise, with no warning first.  A numpy scalar or 0-d
array that succeeds must give the result of its plain Python value
(``.item()``).  Each callable's set of cases is finite, so every case runs
once, in a plain loop.
"""

import dataclasses
import math
import warnings
from collections import deque
from pathlib import Path

import numpy as np
import pytest

import peachsim
from peachsim import (
    Dims,
    ExperimentConfig,
    SpatialCorrelation,
    correlated_limit,
    correlated_model,
    default_alpha_w,
    make_wpeach,
    mmse_filter_matrix,
    prepare,
)
from peachsim.errors import InvalidParameter, PeachSimError, ShapeError, check_real
from peachsim.model import identity_pilot

DIMS = Dims(2, 2, 2)
MODEL = correlated_model(DIMS, 5.0, (0.1, 0.1))
Y = MODEL.draw(np.random.default_rng(5), 3)[1]
ALPHA_W = float(default_alpha_w(MODEL))
WEIGHTS = make_wpeach(MODEL, 2).weights
LIMIT = correlated_limit(DIMS, (0.1, 0.1))
FM = peachsim.FlopModel(DIMS, tau_s=1.0, tau_c=0.1, t_tot=2.0)
FLOPS_FIELDS = {f.name: getattr(peachsim.default_config("flops"), f.name) for f in dataclasses.fields(ExperimentConfig)}
del FLOPS_FIELDS["scenario"], FLOPS_FIELDS["correlation"]
# an existing directory, which an out path must not name
DIRECTORY = str(Path(__file__).parent)


def narrow_integer(valid):
    return np.int8(valid) if -128 <= valid < 128 else np.int16(valid)


def scalar_variants(valid):
    # the valid value as a narrow numpy scalar; an integer beyond int8, a seed or a trial count, as int16
    narrow = {bool: np.bool_, int: narrow_integer, float: np.float32, complex: np.complex64, str: np.str_}[type(valid)]
    return [True, math.nan, math.inf, -math.inf, "1", None, 1j, narrow(valid), np.array(valid)]


def with_last_entry(valid, value):
    array = np.array(valid, dtype=np.result_type(valid, float))
    array.flat[-1] = value
    return array


def array_variants(valid):
    variants = [None, "ab", np.ones(tuple(size + 1 for size in np.shape(valid)))]
    return variants if valid is None else variants + [with_last_entry(valid, value) for value in (math.inf, math.nan)]


def non_finite(value) -> bool:
    """Whether ``value`` is a numeric array holding NaN or infinity, which every callable must reject."""
    return isinstance(value, np.ndarray) and value.dtype.kind in "fc" and not np.isfinite(value).all()


def sequence_variants(valid):
    return [None, "ab"] + [(value, *valid[1:]) for value in scalar_variants(valid[0])]


def pair_variants(valid):
    # interferers: (beta, cov) pairs, the beta a scalar and the cov an array
    (beta, cov), *rest = valid
    pairs = [((value, cov), *rest) for value in scalar_variants(beta)]
    return [None, "ab"] + pairs + [((beta, value), *rest) for value in array_variants(cov)]


VARIANTS = {
    "scalar": scalar_variants,
    "array": array_variants,
    "sequence": sequence_variants,
    "pairs": pair_variants,
    "path": lambda valid: [DIRECTORY, None, 1.5],
}


def case(function, kinds, **valid):
    """``function``'s valid keyword arguments, and the kind of each one the audit replaces."""
    return function, valid, kinds


def fresh_state(y_new):
    return peachsim.adaptive_update(peachsim.adaptive_init(MODEL, 2, ALPHA_W, Y), y_new)


def config_field(**fields):
    return peachsim.default_config("flops", **fields)


def spatial_correlation(**fields):
    return SpatialCorrelation(**fields).validate(2)


S, A = "scalar", "array"
CASES = {
    "adaptive_init": case(peachsim.adaptive_init, dict(degree=S, alpha_w=S, warmup=A),
                          model=MODEL, degree=2, alpha_w=ALPHA_W, warmup=Y),
    "adaptive_update": case(fresh_state, dict(y_new=A), y_new=Y[:, 0]),
    "shrinkage_covariance": case(peachsim.shrinkage_covariance, dict(samples=A, c_true=A),
                                 samples=Y.T, c_true=MODEL.r_cov),
    "shrinkage_kappa": case(peachsim.shrinkage_kappa, dict(phi_sample=S, phi_diag=S, psi=S, scale=S),
                            phi_sample=1.0, phi_diag=0.5, psi=0.25, scale=1.0),
    "FlopModel": case(peachsim.FlopModel, dict(tau_s=S, tau_c=S, t_tot=S), dims=DIMS, tau_s=1.0, tau_c=0.1, t_tot=2.0),
    "crossover_m": case(peachsim.crossover_m, dict(kind=S, q=S, degree=S), kind="peach", q=50.0, degree=2),
    "floor_noise_limited": case(peachsim.floor_noise_limited, dict(degree=S), limit=correlated_limit(DIMS, ()), degree=2),
    "floor_contaminated": case(peachsim.floor_contaminated, dict(r_diag=A, s_diag=A, degree=S),
                               limit=LIMIT, r_diag=np.ones(4), s_diag=np.full(4, 0.2), degree=2),
    "flops": case(peachsim.flops, dict(kind=S, degree=S), kind="wpeach", fm=FM, degree=2),
    "default_config": case(config_field, {
        name: "path" if name == "out" else "sequence" if isinstance(value, tuple) else S
        for name, value in FLOPS_FIELDS.items()
    }, **FLOPS_FIELDS),
    "run_experiment": case(lambda out: peachsim.run_experiment(ExperimentConfig("flops", out=out)), dict(out="path"),
                           out="flops.csv"),
    "run_monte_carlo": case(peachsim.run_monte_carlo, dict(trials=S, seed=S),
                            model=MODEL, estimators={"mmse": prepare(MODEL, "mmse").apply}, trials=3, seed=7),
    "EstimatorKind": case(peachsim.EstimatorKind, dict(value=S), value="peach"),
    "PolyEstimator": case(peachsim.PolyEstimator, dict(kind=S, degree=S, alpha=S, weights=A),
                          kind="wpeach", degree=2, alpha=ALPHA_W, weights=WEIGHTS),
    "alpha_optimal": case(peachsim.alpha_optimal, dict(z=A), z=MODEL.z),
    "diag_estimate": case(peachsim.diag_estimate, dict(y=A), model=MODEL, y=Y),
    "linear_filter_mse": case(peachsim.linear_filter_mse, dict(g_mat=A), model=MODEL, g_mat=mmse_filter_matrix(MODEL)),
    "make_peach": case(peachsim.make_peach, dict(degree=S, alpha=S), model=MODEL, degree=2, alpha=ALPHA_W),
    "make_wpeach": case(peachsim.make_wpeach, dict(degree=S, alpha_w=S), model=MODEL, degree=2, alpha_w=ALPHA_W),
    "mismatched_mse": case(peachsim.mismatched_mse, dict(r_est=A, degree=S), model=MODEL, r_est=MODEL.r_cov, degree=2),
    "mmse_estimate": case(peachsim.mmse_estimate, dict(y=A), model=MODEL, y=Y),
    "mvu_estimate": case(peachsim.mvu_estimate, dict(y=A), model=MODEL, y=Y),
    "peach_estimate": case(peachsim.peach_estimate, dict(y=A), model=MODEL, est=make_wpeach(MODEL, 2), y=Y[:, 0]),
    "peach_mse": case(peachsim.peach_mse, dict(degree=S, alpha=S), model=MODEL, degree=2, alpha=ALPHA_W),
    "prepare": case(lambda **kw: prepare(**kw).mse(), dict(name=S, degree=S), model=MODEL, name="peach", degree=2),
    "wpeach_mse_general": case(peachsim.wpeach_mse_general, dict(degree=S, alpha_w=S, weights=A),
                               model=MODEL, degree=2, alpha_w=ALPHA_W, weights=WEIGHTS),
    "wpeach_mse_optimal": case(peachsim.wpeach_mse_optimal, dict(degree=S), model=MODEL, degree=2),
    "Dims": case(Dims, dict(n_r=S, n_t=S, b=S), n_r=2, n_t=2, b=2),
    "SpatialCorrelation": case(spatial_correlation, dict(desired_tx=S, desired_rx=S, interferer_tx="sequence"),
                               desired_tx=0.3 - 0.4j, desired_rx=0.5j, interferer_tx=(0.2, 0.4j), interferer_rx=(0.6, 0.1)),
    "StatModel": case(peachsim.StatModel, dict(h_mean=A, r_cov=A, n_mean=A, s_cov=A, pilot=A), dims=DIMS,
                      h_mean=np.zeros(4), r_cov=MODEL.r_cov, n_mean=np.zeros(4), s_cov=MODEL.s_cov, pilot=MODEL.pilot),
    "correlated_limit": case(correlated_limit, dict(betas="sequence"), dims=DIMS, betas=(0.1, 0.1)),
    "correlated_model": case(correlated_model, dict(gamma_db=S, betas="sequence", noise_var=S),
                             dims=DIMS, gamma_db=5.0, betas=(0.1, 0.1), noise_var=1.0),
    "deviation": case(peachsim.deviation, dict(y=A), model=MODEL, y=Y),
    "exp_correlation_matrix": case(peachsim.exp_correlation_matrix, dict(dim=S, coeff=S), dim=3, coeff=0.3 + 0.4j),
    "stat_model_from_pilot": case(
        peachsim.stat_model_from_pilot, dict(h_mean=A, r_cov=A, n_mean=A, pilot=A, interferers="pairs", noise_var=S),
        dims=DIMS, h_mean=np.zeros(4), r_cov=MODEL.r_cov, n_mean=None, pilot=identity_pilot(DIMS, 2.0),
        interferers=((0.1, MODEL.r_cov),), noise_var=1.0,
    ),
}
# exported callables without a scalar or array argument of their own: they take models, estimators or
# records, or are records that hold what they are given (their checks run where the package builds them)
NOT_AUDITED = {
    "bind", "default_alpha_w", "diag_mse", "mmse_filter_matrix", "mmse_mse", "mvu_variance", "poly_filter_matrix",
    "z_matrix", "AdaptiveState", "Floors", "Prepared", "ResultRow", "ShrinkageEstimate",
    # checked by its validate, which default_config runs on every field
    "ExperimentConfig",
    # aliases of audited functions
    "wpeach_estimate",
}


def plain(value):
    """The plain Python value of a numpy scalar or 0-d array; any other value is its own."""
    return value.item() if isinstance(value, np.generic) or isinstance(value, np.ndarray) and value.ndim == 0 else value


def same(a, b) -> bool:
    """Equal results, NaN matching NaN; dataclasses field by field."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(
            same(getattr(a, f.name), getattr(b, f.name)) for f in dataclasses.fields(a) if f.compare
        )
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(same(a[key], b[key]) for key in a)
    if isinstance(a, tuple | list | deque):
        return len(a) == len(b) and all(same(x, y) for x, y in zip(a, b))
    if isinstance(a, np.ndarray | np.generic | float | complex):
        return np.array_equal(a, b, equal_nan=True)
    return a == b


def test_audit_covers_every_export():
    exported = {name for name in dir(peachsim) if not name.startswith("_") and callable(getattr(peachsim, name))}
    assert exported == set(CASES) | NOT_AUDITED


@pytest.mark.parametrize("name", sorted(CASES))
def test_hostile_argument_is_typed_or_plain(name):
    function, valid, kinds = CASES[name]
    cases = [(arg, value) for arg, kind in kinds.items() for value in VARIANTS[kind](valid[arg])]
    for arg, value in cases:
        hostile = non_finite(value)
        try:
            with warnings.catch_warnings():
                if hostile:
                    warnings.simplefilter("error")
                result = function(**{**valid, arg: value})
        except PeachSimError:
            continue
        assert not hostile, f"{arg} holding NaN or infinity was accepted"
        if plain(value) is not value:
            assert same(result, function(**{**valid, arg: plain(value)})), f"{arg}={value!r}"


@pytest.mark.parametrize("count", [-1, 1.5, True, None, "2", np.float64(2.0), math.nan])
def test_draw_count_is_a_nonnegative_integer(count):
    # numpy would raise its own ValueError or TypeError, or read True as 1
    with pytest.raises(InvalidParameter):
        MODEL.draw(np.random.default_rng(0), count)


@pytest.mark.parametrize("count", [0, np.int8(2), np.int64(3)])
def test_draw_count_of_zero_or_a_numpy_integer_is_its_plain_value(count):
    h, y = MODEL.draw(np.random.default_rng(0), count)
    want_h, want_y = MODEL.draw(np.random.default_rng(0), int(count))
    assert h.shape == (DIMS.n, int(count)) and y.shape == (DIMS.m, int(count))
    assert np.array_equal(h, want_h) and np.array_equal(y, want_y)


@pytest.mark.parametrize("warmup", [[Y], [Y[:, 0], Y]], ids=["block", "sample-then-block"])
def test_warmup_list_holds_samples_not_blocks(warmup):
    # a list's entries are (m,) samples; an (m, k) block belongs on its own
    with pytest.raises(ShapeError):
        peachsim.adaptive_init(MODEL, 2, ALPHA_W, warmup)


# Integers beyond the float range in the FLOP scenarios, which do pure arithmetic on them, so no array is allocated:
# 1e119 receive antennas overflow m**3, 1e160 the m**2 of the polynomial counts and 1e400 the float of m itself
HUGE = {"1e119": 10**119, "1e400": 10**400}
FLOP_OVERFLOWS = [(10**119, "mmse"), (10**119, "mvu")] + [
    (n_r, kind) for n_r in (10**160, 10**400) for kind in ("mmse", "mvu", "peach", "wpeach")
]


@pytest.mark.parametrize("n_r, kind", FLOP_OVERFLOWS, ids=[f"1e{len(str(n_r)) - 1}-{kind}" for n_r, kind in FLOP_OVERFLOWS])
def test_flop_count_beyond_the_float_range_is_typed(n_r, kind):
    fm = peachsim.FlopModel(Dims(n_r, 10, 10), tau_s=1.0, tau_c=0.1, t_tot=2.0)
    with pytest.raises(InvalidParameter, match="not finite"):
        peachsim.flops(kind, fm, 2)


@pytest.mark.parametrize("kind", ["peach", "wpeach"])
@pytest.mark.parametrize("q, degree", [(1e308, 12), (10**400, 2), (50.0, 10**400)], ids=["q-1e308", "q-1e400", "L-1e400"])
def test_crossover_beyond_the_float_range_is_typed(kind, q, degree):
    with pytest.raises(InvalidParameter):
        peachsim.crossover_m(kind, q, degree)


@pytest.mark.parametrize("n_r", HUGE.values(), ids=HUGE.keys())
def test_flops_table_beyond_the_float_range_is_typed(tmp_path, n_r):
    out = tmp_path / "flops.csv"
    with pytest.raises(InvalidParameter):
        peachsim.run_experiment(peachsim.default_config("flops", n_r_values=(n_r,), out=str(out)))
    assert not out.exists()


# Dimensions of at least 2**63, which numpy refuses without allocating: a model of them has m x m arrays beyond
# numpy's size limit, though a Dims (and so a FLOP count) holds them
TOO_LARGE = {
    "n_r-1e19": (Dims(10**19, 4, 4), "n_r=10000000000000000000"),
    "n_r-1e400": (Dims(10**400, 4, 4), "n_r=1" + "0" * 400),
    "n_t-1e19": (Dims(2, 10**19, 10**19), "n_t=10000000000000000000"),
}


@pytest.mark.parametrize("dims, named", TOO_LARGE.values(), ids=TOO_LARGE.keys())
def test_model_beyond_numpy_size_limit_is_typed_and_names_its_dimension(dims, named):
    for build in (lambda: correlated_model(dims, 5.0, (0.1,)), lambda: correlated_limit(dims, (0.1,))):
        with pytest.raises(ShapeError, match=named):
            build()


@pytest.mark.parametrize("finite", [True, False])
@pytest.mark.parametrize("sign", [1, -1])
def test_real_check_reads_an_integer_beyond_the_float_range_as_infinite(sign, finite):
    if finite:
        with pytest.raises(InvalidParameter):
            check_real("value", sign * 10**400, InvalidParameter)
    else:
        assert check_real("value", sign * 10**400, InvalidParameter, finite=False) == sign * math.inf
