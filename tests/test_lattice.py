"""The system-layer contract, drawn: every edge of
:func:`tests.strategies.assert_lattice` — serial ≡ batched, eager ≡
store, traced ≡ untraced, killed-and-resumed ≡ uninterrupted, and async
S=0 ≡ sync — holds on federations nobody hand-picked.

Edge (e) needs an async draw with S=0 and no drops, which the 25 draws
need not contain, so the async S=0 federation is an explicit example.
The hand-picked federations are pinned by name where their contract
lives: ``test_executor``, ``test_ckpt_resume``, ``test_events_resume``,
``test_events_engine``, ``test_obs`` and ``test_store`` each call the
same check on a fixed spec.

Three hostile inputs are drawn beside it, each refused with an error
that names its cause: an empty cohort, an all-zero feedback vector and
a population smaller than the cohort.
"""

import dataclasses

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from repro.core.feedback import GlobalUpdateEstimator, normalized_update_difference
from tests.strategies import (
    DETERMINISM_SETTINGS,
    SYNC_EQUIV,
    assert_lattice,
    federation_specs,
)


@DETERMINISM_SETTINGS
@given(spec=federation_specs())
@example(spec=SYNC_EQUIV)
def test_lattice(spec):
    assert_lattice(spec)


@DETERMINISM_SETTINGS
@given(spec=federation_specs(), count=st.integers(-2, 0))
def test_an_empty_cohort_is_refused(spec, count):
    """A sampler asked for no clients, and a federation of none."""
    with pytest.raises(ValueError, match=f"count must be >= 1, got {count}"):
        dataclasses.replace(spec, cohort=count).parts(spec.kill_backend)
    parts = dict(spec.parts(spec.kill_backend), clients=[])
    with pytest.raises(ValueError, match="need at least one client"):
        spec.start(parts)


@DETERMINISM_SETTINGS
@given(spec=federation_specs(), extra=st.integers(1, 3))
def test_a_population_smaller_than_the_cohort_is_refused(spec, extra):
    """Eager or stored, sync or async: the first round's draw names
    both sizes before any client trains."""
    population = len(spec.sizes)
    spec = dataclasses.replace(spec, cohort=population + extra)
    run = spec.start(spec.parts(spec.kill_backend))
    with pytest.raises(
        ValueError,
        match=f"cohort count {spec.cohort} exceeds population {population}",
    ):
        run.run(spec.rounds)


@DETERMINISM_SETTINGS
@given(
    zeros=st.lists(st.sampled_from((0.0, -0.0)), min_size=1, max_size=64),
    data=st.data(),
)
def test_an_all_zero_feedback_has_no_update_difference(zeros, data):
    """Eq. 8 divides by the feedback's norm: against an all-zero
    feedback (signed zeros included) it raises naming the zero norm,
    and the estimator, whose feedback is all zero until a global update
    exists, records no Delta-Update rather than reach that division."""
    update = np.array(data.draw(st.lists(
        st.floats(-1e3, 1e3), min_size=len(zeros), max_size=len(zeros)
    )))
    with pytest.raises(ValueError, match="previous update has zero norm"):
        normalized_update_difference(np.array(zeros), update)
    estimator = GlobalUpdateEstimator(len(zeros))
    estimator.observe(np.array(zeros))
    estimator.observe(update)
    assert estimator.delta_updates == []
