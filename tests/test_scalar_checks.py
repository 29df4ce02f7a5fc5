"""Every public scalar parameter the package reads is checked by one of the
``fbm`` validators: a bool, a string, None, NaN, an infinity, an integer too
large for a float or an out-of-range value raises a ``ConfigError`` (or a
subclass of it), never a raw TypeError, ValueError or OverflowError and never
a warning; an in-range value of any numeric type gives the result its float
gives.  Every public array input is checked by ``fbm.validate_reals`` in the
same way: bool, string, None, object and complex entries, ragged nesting,
NaN, infinities, a wrong number of dimensions and out-of-range entries are
refused, and an in-range list or array of any real dtype gives the result
its float64 array gives."""

import dataclasses
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parafbm.errors import ConfigError
from parafbm.estimators import (
    BoxCountCurve,
    GraphCloud,
    box_count_curve,
    dyadic_deltas,
    energy_integral_mc,
    estimate_parabolic_dimension,
    kernel_expectation_mc,
    parabolic_box_count,
    validate_fit_scales,
    validate_kernel_times,
)
from parafbm.experiments import lipschitz_drift
from parafbm.fbm import TimeGrid, generate_fbm_path, path_from_json
from parafbm.fractals import (
    FractalSet,
    WeightedTimeSet,
    cantor_with_dimension,
    generalized_cantor,
    middle_thirds_cantor,
)
from parafbm.gaussian import (
    GaussianVectorSpec,
    conditional_variance,
    lnd_distance_ratio,
    lnd_margin,
    lnd_margin_sweep,
    verify_detcov_lower_bound,
)
from parafbm.geometry import (
    comparison_bounds,
    metric_dim_from_psi_dim,
    psi_dim_from_metric_dim,
    theoretical_graph_dimension,
)
from parafbm.occupation import (
    OccupationHistogram,
    drifted_image,
    l2_density_diagnostic,
    occupation_histogram,
    positive_measure_estimate,
    validate_radii,
)

_LINE = GraphCloud(np.linspace(0.0, 1.0, 1025), np.linspace(0.0, 1.0, 1025))
_PAIR = WeightedTimeSet(times=np.array([0.25, 0.75]), weights=np.array([0.5, 0.5]))
_W, _V = np.array([0.5, 0.5]), np.array([[0.0], [1.0]])
_HIST = occupation_histogram(_W, _V, 0.5)
_SPEC = GaussianVectorSpec(np.array([0.3, 0.6]), 0.7, 0.35)

#: per scalar parameter: the call that takes it, in-range values of several
#: numeric types, and out-of-range values
SCALARS = {
    "dim_a": (lambda v: theoretical_graph_dimension(0.3, 0.6, v, 1),
              [0.0, 0.5, 1, np.float64(0.25)], [-0.1, 1.5]),
    "dim_psi_h": (lambda v: comparison_bounds(v, 0.5, 0.7, 1), [1.2, 2, np.float64(0.5)], [-0.1]),
    "dim_rho": (lambda v: psi_dim_from_metric_dim(v, 0.5), [1.5, 0, np.float64(2.0)], [-0.1]),
    "dim_psi": (lambda v: metric_dim_from_psi_dim(v, 0.5), [0.75, 1, np.float64(0.5)], [-0.1]),
    "cell_size": (lambda v: OccupationHistogram(v, np.zeros(1), np.zeros((0, 1), dtype=np.int64),
                                                np.zeros(0)),
                  [0.25, 1, np.float64(0.5)], [0.0, -1.0]),
    "epsilon": (lambda v: occupation_histogram(_W, _V, v), [0.25, 1, np.float64(0.5)], [0.0, -0.5]),
    "mass_floor": (lambda v: positive_measure_estimate(_HIST, v),
                   [0.0, 0.5, 1, np.float64(2.0)], [-0.1]),
    "delta": (lambda v: parabolic_box_count(_LINE, v, 0.5), [0.25, 1, np.float64(2**-6)],
              [0.0, 1.5]),
    "anchor_shift": (lambda v: parabolic_box_count(_LINE, 0.25, 0.5, v),
                     [0.0, 0.5, 1, np.float64(-0.25)], []),
    "gamma (energy)": (lambda v: energy_integral_mc(_PAIR, np.zeros((2, 1)), v, 0.5),
                       [0.5, 1, np.float64(1.5)], [0.0, -1.0]),
    "gamma (kernel)": (lambda v: kernel_expectation_mc(0.5, 0.2, 0.8, v, 1, 64),
                       [3.0, 2, np.float64(0.5)], [0.8]),
    "t (kernel)": (lambda v: kernel_expectation_mc(v, 0.2, 0.8, 3.0, 1, 64),
                   [0.5, 1, np.float64(0.25)], [0.0, 1.5, [0.5, 0.25], np.array([0.5])]),
    "trim_octaves": (lambda v: estimate_parabolic_dimension(
                         _LINE, dyadic_deltas(1, 7), 0.5, trim_octaves=v),
                     [0.0, 1, np.float64(1.5)], [-1.0]),
    "max_count_fraction": (lambda v: estimate_parabolic_dimension(
                               _LINE, dyadic_deltas(1, 7), 0.5, max_count_fraction=v),
                           [1 / 3, 1, np.float64(0.5)], [0.0, -0.1]),
    "m": (lambda v: generalized_cantor(v, 0.2, 2), [2, 3, 4.0, np.int64(3)], [1, 0, 2.5]),
    "r": (lambda v: generalized_cantor(2, v, 2), [0.3, np.float64(0.25)], [0.0, 0.6]),
    "generation": (lambda v: generalized_cantor(2, 0.3, v), [0, 2, 3.0, np.int64(1)],
                   [-1, 2.5, 10**9]),
    "middle-thirds generation": (middle_thirds_cantor, [0, 2, 3.0, np.int64(1)], [-1, 2.5]),
    "dim": (lambda v: cantor_with_dimension(v, 2), [0.5, np.float64(0.7)], [0.0, 1.0, -0.5]),
    "dim's m": (lambda v: cantor_with_dimension(0.5, 2, v), [2, 3.0, np.int64(4)], [1, 0, 2.5]),
    "theoretical_dim": (lambda v: FractalSet(np.array([[0.0, 1.0]]), 0, v, "full-interval"),
                        [0.0, 1, np.float64(0.5)], [-0.1, 1.5]),
    "interval lo": (lambda v: lnd_margin_sweep(2, interval=(v, 0.9), max_points=2),
                    [0.1, np.float64(0.2)], [0.0, -0.1, 0.95]),
    "interval hi": (lambda v: lnd_margin_sweep(2, interval=(0.1, v), max_points=2),
                    [0.9, 1, np.float64(0.8)], [0.05, 1.5]),
    "u": (lambda v: lnd_margin(_SPEC, v), [0.5, 1, np.float64(0.9)], [0.0, 1.5]),
    "target": (lambda v: conditional_variance(_SPEC, v), [0, 1, 1.0, np.int64(1)], [2, -1, 0.5]),
    "given": (lambda v: conditional_variance(_SPEC, 0, (v,)), [1, 1.0, np.int64(1)],
              [0, 2, 0.5]),
    "r (lnd)": (lambda v: lnd_distance_ratio(0.7, 0.35, 0.5, v, np.array([0.1])),
                [0.2, np.float64(0.3)], [0.0, 0.6]),
    "t (lnd)": (lambda v: lnd_distance_ratio(0.7, 0.35, v, 0.1, np.array([0.1])),
                [0.5, 1, np.float64(0.7)], [0.05]),
    "coarse_exp": (lambda v: dyadic_deltas(v, 6), [0, 2, 3.0, np.int64(1)], [6, 2.5, -1]),
    "fine_exp": (lambda v: dyadic_deltas(1, v), [2, 6, 7.0, np.int64(4)], [1, 2.5]),
    "per_octave": (lambda v: dyadic_deltas(1, 6, v), [1, 3, 2.0, np.int64(4)], [0, -1, 1.5]),
    "lipschitz_drift's d": (lambda v: lipschitz_drift(TimeGrid.regular(8), v),
                            [1, 2, 2.0, np.int64(3)], [0, 1.5]),
}

#: what no scalar parameter accepts
NOT_NUMBERS = [True, False, np.bool_(True), "0.5", None, math.nan, math.inf, -math.inf,
               10**400, -(10**400)]


def _same(a, b):
    """Equal results, compared field by field and entry by entry, arrays bit for bit."""
    if dataclasses.is_dataclass(a):
        return type(a) is type(b) and all(_same(getattr(a, f.name), getattr(b, f.name))
                                          for f in dataclasses.fields(a))
    if isinstance(a, (tuple, list)):
        return len(a) == len(b) and all(_same(x, y) for x, y in zip(a, b))
    if isinstance(a, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return np.array_equal(a, b)


@settings(max_examples=500, deadline=None, derandomize=True)
@given(data=st.data())
def test_every_scalar_is_refused_typed_or_gives_its_floats_result(data):
    name = data.draw(st.sampled_from(sorted(SCALARS)), label="parameter")
    call, good, bad = SCALARS[name]
    value = data.draw(st.sampled_from([*good, *bad, *NOT_NUMBERS]), label="value")
    if any(value is g for g in good):
        assert _same(call(value), call(float(value)))
    else:
        with pytest.raises(ConfigError):
            call(value)


@pytest.mark.parametrize("call", [
    # each raised a raw TypeError
    pytest.param(lambda: generalized_cantor(2, 0.3, 2.5), id="generalized-cantor-k-2.5"),
    pytest.param(lambda: middle_thirds_cantor(2.5), id="middle-thirds-k-2.5"),
    pytest.param(lambda: cantor_with_dimension(0.5, 2.5), id="cantor-with-dimension-k-2.5"),
    pytest.param(lambda: theoretical_graph_dimension(0.3, 0.5, "0.5", 1), id="dim-a-str"),
    pytest.param(lambda: parabolic_box_count(_LINE, "0.5", 0.5), id="delta-str"),
    pytest.param(lambda: occupation_histogram(_W, _V, "1"), id="epsilon-str"),
    # a raw broadcast ValueError, and a raw OverflowError
    pytest.param(lambda: generalized_cantor(3.5, 0.2, 1), id="generalized-cantor-m-3.5"),
    pytest.param(lambda: generalized_cantor(10**400, 0.1, 0), id="generalized-cantor-m-1e400"),
    # each took a bool for a number: 1.2, 0.5, a fit and a set
    pytest.param(lambda: theoretical_graph_dimension(0.3, 0.5, True, 1), id="dim-a-true"),
    pytest.param(lambda: energy_integral_mc(_PAIR, np.zeros((2, 1)), True, 0.5),
                 id="energy-gamma-true"),
    pytest.param(lambda: estimate_parabolic_dimension(_LINE, dyadic_deltas(1, 7), 0.5,
                                                      trim_octaves=True),
                 id="trim-octaves-true"),
    pytest.param(lambda: FractalSet(np.array([[0.0, 1.0]]), 0, True, "full-interval"),
                 id="theoretical-dim-true"),
    # ran on a string and a bool
    pytest.param(lambda: lnd_margin_sweep(3, interval=("0.1", True)), id="interval-str-bool"),
    # each took an infinity: (inf, inf) and inf
    pytest.param(lambda: comparison_bounds(math.inf, 0.3, 0.5, 1), id="dim-psi-h-inf"),
    pytest.param(lambda: psi_dim_from_metric_dim(math.inf, 0.5), id="dim-rho-inf"),
    # returned array([nan]) with a RuntimeWarning
    pytest.param(lambda: dyadic_deltas(1, 6, 0), id="dyadic-deltas-per-octave-0"),
])
def test_raw_fault_now_config_error(call):
    with pytest.raises(ConfigError):
        call()


_PATH = generate_fbm_path(0.5, TimeGrid.regular(4), seed=0)
_DOC = {"hurst": 0.5, "alpha_p": None, "seed": [0],
        "grid": {"kind": "explicit", "times": [0.25, 0.5, 1.0]}, "values": [[0.5, -0.25, 1.0]]}

#: per array parameter: the call that takes it, an in-range value as a list,
#: and out-of-range values
ARRAYS = {
    "TimeGrid times": (TimeGrid, [0, 0.25, 1], [[-0.25, 0.5], [0.5, 1.5]]),
    "GraphCloud times": (lambda v: GraphCloud(v, [0.0, 1.0]), [0.25, 0.75],
                         [[-0.25, 0.5], [0.5, 1.5]]),
    "GraphCloud values": (lambda v: GraphCloud([0.25, 0.75], v), [[0, 1], [2, 3]],
                          [[], [[], []]]),
    "BoxCountCurve deltas": (lambda v: BoxCountCurve(v, [1, 2]), [0.5, 0.25],
                             [[1.5, 0.5], [0.5, 0.0], [0.25, 0.5]]),
    "BoxCountCurve counts": (lambda v: BoxCountCurve([0.5, 0.25], v), [1, 3],
                             [[0, 1], [1.5, 2], [1, 2**60]]),
    "box_count_curve deltas": (lambda v: box_count_curve(_LINE, v, 0.5), [0.5, 0.25],
                               [[0.5, 0.0], [2.0, 0.5]]),
    "validate_fit_scales": (validate_fit_scales, [0.5, 0.25, 0.125, 0.0625],
                            [[1, 0.5, 0.25, 0.0], [2, 1, 0.5, 0.25]]),
    "validate_radii": (validate_radii, [0.5, 0.25], [[0.5, -0.25], [0.5, 0.0], [0.25, 0.5]]),
    "validate_kernel_times": (validate_kernel_times, [0.5, 0.25], [[0.5, 0.0], [1.5, 0.5]]),
    "energy values": (lambda v: energy_integral_mc(_PAIR, v, 0.5, 0.5), [[0], [1]],
                      [[], [[], []]]),
    # the points' own check is bypassed here
    "energy times": (lambda v: energy_integral_mc(types.SimpleNamespace(
        times=v, weights=np.array([0.5, 0.5])), np.zeros((2, 1)), 0.5, 0.5), [0.25, 0.75], []),
    "energy weights": (lambda v: energy_integral_mc(types.SimpleNamespace(
        times=np.array([0.25, 0.75]), weights=v), np.zeros((2, 1)), 0.5, 0.5), [0.5, 0.5], []),
    "FractalSet intervals": (lambda v: FractalSet(v, 1, 0.5, "generalized-cantor"),
                             [[0, 0.25], [0.75, 1]], [[[-0.25, 0.5]], [[0.5, 1.5]], [[0.5, 0.25]]]),
    "FractalSet.contains times": (middle_thirds_cantor(2).contains, [0.25, 0.5, 1.5],
                                  [[[0.25], [0.5]]]),
    "WeightedTimeSet times": (lambda v: WeightedTimeSet(v, [0.5, 0.5]), [0.25, 0.75],
                              [[-0.25, 0.5], [0.5, 1.5]]),
    "WeightedTimeSet weights": (lambda v: WeightedTimeSet([0.25, 0.75], v), [0.25, 0.75],
                                [[-0.5, 1.5]]),
    "GaussianVectorSpec times": (lambda v: GaussianVectorSpec(v, 0.7), [0.25, 0.75],
                                 [[0.0, 0.5], [0.5, 1.5]]),
    "verify_detcov_lower_bound times": (lambda v: verify_detcov_lower_bound(v, 0.7),
                                        [0.25, 0.75], [[0.0, 0.5], [0.5, 1.5]]),
    "lnd_distance_ratio times": (lambda v: lnd_distance_ratio(0.7, 0.35, 0.5, 0.1, v),
                                 [0.25, 0.75], [[0.0, 0.25], [0.25, 1.5]]),
    "OccupationHistogram origin": (lambda v: OccupationHistogram(
        0.5, v, np.zeros((1, 2), dtype=np.int64), [1.0]), [0, 1], []),
    "OccupationHistogram mass": (lambda v: OccupationHistogram(
        0.5, [0.0], np.array([[0], [1]]), v), [0.25, 0.75], [[-0.5, 1.5]]),
    "drifted_image drift": (lambda v: drifted_image(_PATH, v, _PAIR), [[0, 0.5, 0.25, 1]], []),
    "occupation_histogram weights": (lambda v: occupation_histogram(v, _V, 0.5), [0.25, 0.75],
                                     []),
    "occupation_histogram values": (lambda v: occupation_histogram(_W, v, 0.5), [[0], [1]],
                                    [[], [[], []]]),
    "occupation_histogram origin": (lambda v: occupation_histogram(_W, _V, 0.5, v), [0], []),
    "l2_density_diagnostic weights": (lambda v: l2_density_diagnostic([_V], v, [0.5, 0.25]),
                                      [0.25, 0.75], []),
    "l2_density_diagnostic images": (lambda v: l2_density_diagnostic([v], _W, [0.5, 0.25]),
                                     [[0], [1]], [[], [[], []]]),
    "path_from_json values": (lambda v: path_from_json({**_DOC, "values": v}),
                              [[0.5, -0.25, 1]], []),
    "path_from_json grid.times": (lambda v: path_from_json(
        {**_DOC, "grid": {"kind": "explicit", "times": v}}), [0.25, 0.5, 1],
        [[-0.25, 0.5, 1.0], [0.25, 0.5, 1.5]]),
}


def _with_last(good, entry):
    """``good`` as a nested list with its last entry replaced by ``entry``."""
    cells = np.array(good, dtype=object)
    cells.flat[-1] = entry
    return cells.tolist()


def _junk(good):
    """(label, value) pairs no array input accepts, each shaped like ``good``."""
    arr = np.array(good, dtype=float)
    return [
        ("strings", np.full(arr.shape, "x").tolist()),
        ("numeric strings", arr.astype(str).tolist()),
        ("a numeric string among numbers", _with_last(good, "0.5")),
        ("a string", "0.5"),
        ("bools", arr.astype(bool).tolist()),
        ("a bool array", arr.astype(bool)),
        ("a bool among numbers", _with_last(good, True)),
        ("None", None),
        ("None among numbers", _with_last(good, None)),
        ("complex numbers", (arr + 1j).tolist()),
        ("a complex among numbers", _with_last(good, 0.5 + 1j)),
        ("ragged nesting", [[0.5], [0.5, 0.25]]),
        ("an object array", arr.astype(object)),
        ("an integer too large for a float", _with_last(good, 10**400)),
        ("too many dimensions", arr[None, None]),
        *((f"{x} among numbers", _with_last(good, x)) for x in (math.nan, math.inf, -math.inf)),
        ("a NaN array", np.array(_with_last(good, math.nan), dtype=float)),
    ]


def _refuses(call, value):
    """Whether ``call(value)`` raises ConfigError; any other error propagates."""
    try:
        call(value)
    except ConfigError:
        return True
    return False


@pytest.mark.parametrize("name", sorted(ARRAYS))
def test_every_array_is_refused_typed_or_gives_its_float64_result(name):
    call, good, bad = ARRAYS[name]
    for value in (good, np.array(good), np.array(good, dtype=np.float32)):
        assert _same(call(value), call(np.asarray(value, dtype=np.float64)))
    cases = [*_junk(good), *(("out of range", b) for b in bad)]
    if name == "occupation_histogram origin":   # None is its default, the minimum
        cases = [(label, value) for label, value in cases if value is not None]
    accepted = [(label, value) for label, value in cases if not _refuses(call, value)]
    assert not accepted, f"{name} accepted {accepted}"


@pytest.mark.parametrize("call", [
    # the kernel time: a raw UFuncTypeError, 0.711 for a bool, the complex list
    # returned as it was, and a raw TypeError for a list
    pytest.param(lambda: kernel_expectation_mc("0.5", 0.2, 0.8, 3.0, 1, 64), id="kernel-t-str"),
    pytest.param(lambda: kernel_expectation_mc(True, 0.2, 0.8, 3.0, 1, 64), id="kernel-t-true"),
    pytest.param(lambda: validate_kernel_times([0.5 + 1j, 0.25]), id="kernel-times-complex"),
    pytest.param(lambda: kernel_expectation_mc([0.5, 0.25], 0.2, 0.8, 3.0, 1, 64),
                 id="kernel-t-list"),
    # each raised a raw ValueError: could not convert string to float
    pytest.param(lambda: TimeGrid(["a", "b"]), id="time-grid-str"),
    pytest.param(lambda: GraphCloud(["a", "b"], [0, 1]), id="graph-cloud-str"),
    pytest.param(lambda: WeightedTimeSet(["a", "b"], [0.5, 0.5]), id="weighted-time-set-str"),
    pytest.param(lambda: FractalSet([["a", "b"]], 0, 1.0, "full-interval"),
                 id="fractal-set-str"),
    pytest.param(lambda: BoxCountCurve(["a", "b"], [1, 2]), id="box-count-curve-str"),
    pytest.param(lambda: GaussianVectorSpec(["a", "b"], 0.5), id="gaussian-spec-str"),
    pytest.param(lambda: verify_detcov_lower_bound(["a", "b"], 0.5), id="detcov-str"),
    pytest.param(lambda: lnd_distance_ratio(0.7, 0.35, 0.5, 0.1, ["a"]), id="lnd-ratio-str"),
    pytest.param(lambda: box_count_curve(_LINE, ["a", "b"], 0.5), id="box-count-curve-fn-str"),
    pytest.param(lambda: validate_fit_scales(["a"] * 4), id="fit-scales-str"),
    pytest.param(lambda: validate_radii(["a", "b"]), id="radii-str"),
    pytest.param(lambda: occupation_histogram(["a", "b"], _V, 0.5), id="histogram-str"),
    pytest.param(lambda: l2_density_diagnostic([_V], ["a", "b"], [0.5, 0.25]), id="l2-str"),
    pytest.param(lambda: energy_integral_mc(_PAIR, [["a"], ["b"]], 0.5, 0.5), id="energy-str"),
    # numeric strings and bools were read as numbers: 0.5 for the margin
    pytest.param(lambda: validate_radii(["0.5", "0.25"]), id="radii-numeric-str"),
    pytest.param(lambda: GraphCloud(["0.5", "0.25"], [0, 1]), id="graph-cloud-numeric-str"),
    pytest.param(lambda: verify_detcov_lower_bound(["0.5", "0.25"], 0.5),
                 id="detcov-numeric-str"),
    pytest.param(lambda: WeightedTimeSet([0.1, 0.2], [True, False]), id="weights-bool"),
    pytest.param(lambda: occupation_histogram([True, False], [0.1, 0.2], 0.1),
                 id="histogram-weights-bool"),
    # a NaN curve was built, the counts truncated to [1, 2], a NaN image
    # returned, and np.dot raised on 2-d weights
    pytest.param(lambda: BoxCountCurve([math.nan, math.nan], [1, 2]), id="curve-nan-deltas"),
    pytest.param(lambda: BoxCountCurve([0.5, 0.25], [1.7, 2.9]), id="curve-fractional-counts"),
    pytest.param(lambda: drifted_image(_PATH, np.full((1, 4), math.nan), _PAIR),
                 id="drift-nan"),
    pytest.param(lambda: l2_density_diagnostic([_V], [[0.5, 0.5]], [0.5, 0.25]),
                 id="l2-weights-2d"),
])
def test_raw_array_fault_now_config_error(call):
    with pytest.raises(ConfigError):
        call()


@pytest.mark.parametrize("doc, message", [
    ({}, "'values'"),   # KeyError: 'grid'
    ({**_DOC, "grid": {"kind": "uniform", "n": "x", "t0": 0.0, "t1": 1.0}},
     "grid.n"),   # a raw TypeError
    ({**_DOC, "values": [[0.5, math.nan, 1.0]]}, "values must be finite"),   # accepted
    ({**_DOC, "grid": {"kind": "uniform", "n": 10**12, "t0": 0.0, "t1": 1.0}},
     "grid.n = 1000000000000 does not match"),
    ({**_DOC, "grid": {"times": [0.25, 0.5, 1.0]}}, "'grid.kind'"),
    ({**_DOC, "grid": {"kind": "dense"}}, "'grid.times'"),   # not uniform, so explicit
    ({**_DOC, "seed": 0}, "seed must be a list"),
    ({**_DOC, "hurst": "0.5"}, "hurst must be"),
])
def test_malformed_path_envelope_names_the_key(doc, message):
    with pytest.raises(ConfigError, match=message):
        path_from_json(doc)
