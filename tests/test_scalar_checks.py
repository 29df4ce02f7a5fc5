"""Every public scalar parameter the package reads is checked by one of the
``fbm`` validators: a bool, a string, None, NaN, an infinity, an integer too
large for a float or an out-of-range value raises a ``ConfigError`` (or a
subclass of it), never a raw TypeError, ValueError or OverflowError and never
a warning; an in-range value of any numeric type gives the result its float
gives."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from parafbm.errors import ConfigError
from parafbm.estimators import (
    GraphCloud,
    dyadic_deltas,
    energy_integral_mc,
    estimate_parabolic_dimension,
    kernel_expectation_mc,
    parabolic_box_count,
)
from parafbm.experiments import lipschitz_drift
from parafbm.fbm import TimeGrid
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
)
from parafbm.geometry import (
    comparison_bounds,
    metric_dim_from_psi_dim,
    psi_dim_from_metric_dim,
    theoretical_graph_dimension,
)
from parafbm.occupation import OccupationHistogram, occupation_histogram, positive_measure_estimate

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
    "coarse_exp": (lambda v: dyadic_deltas(v, 6), [0, 2, 3.0, np.int64(1)], [6, 2.5]),
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
