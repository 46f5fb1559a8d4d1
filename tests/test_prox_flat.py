"""group_shrink's elementwise path: groups of one coordinate and no group
penalty, where a coordinate is live unless its square underflows. It must
give the frozen closed form's bits, and warn nowhere, on the duals that
decide liveness: around the underflow threshold, and where a square would
overflow."""

import math

import numpy as np
from hypothesis import given, settings, strategies as st

from groupopt.prox import SQUARE_UNDERFLOW, VARIANTS, group_shrink
from test_prox_bits import frozen_group_shrink, outcome


def test_square_underflow_is_the_largest_double_whose_square_is_zero():
    assert SQUARE_UNDERFLOW * SQUARE_UNDERFLOW == 0.0
    above = math.nextafter(SQUARE_UNDERFLOW, math.inf)
    assert above * above > 0.0


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), size=st.integers(0, 40),
       variant=st.sampled_from(VARIANTS), lambda2=st.sampled_from([0.0, 1e-3, 2.0]))
def test_same_bits_as_the_frozen_form(seed, size, variant, lambda2):
    rng = np.random.default_rng(seed)
    # |s| log-uniform from below the underflow threshold (~1.6e-162) to
    # beyond where s * s overflows (~1.3e154), with both signs, zeros, and
    # the threshold and its upper neighbour
    s = rng.choice([-1.0, 1.0], size) * 10.0 ** rng.uniform(-170, 180, size)
    picks = rng.integers(0, 5, size)
    s[picks == 0] = 0.0
    s[picks == 1] = rng.choice([-1.0, 1.0], (picks == 1).sum()) * rng.choice(
        [SQUARE_UNDERFLOW, math.nextafter(SQUARE_UNDERFLOW, math.inf)], (picks == 1).sum())
    cum_diag = 10.0 ** rng.uniform(-3, 3, size)
    args = (s, cum_diag, 1, 0.0, lambda2, variant)
    assert outcome(group_shrink, *args) == outcome(frozen_group_shrink, *args)
