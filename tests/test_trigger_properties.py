"""Property-based contracts of the client-side upload rules.

The async engine's determinism leans on :meth:`UploadPolicy.decide`
being a **pure** function of ``(update, ctx)`` — same decision on any
backend, across resumes, under any event ordering.  These tests hold
every stateless shipped policy to that, plus each rule's defining
identity (relevance == Eq. 9), and hold the server's mean aggregation
to the same no-mutation contract.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.baselines import GaiaPolicy, VanillaPolicy
from repro.core.policy import CMFLPolicy, PolicyContext
from repro.core.relevance import relevance
from repro.core.thresholds import InverseSqrtThreshold
from repro.fl.aggregation import mean_aggregate
from repro.fl.client import ClientUpdate

finite_vectors = arrays(
    np.float64,
    st.integers(1, 64),
    elements=st.floats(-1e6, 1e6, allow_nan=False),
)
update_stacks = arrays(
    np.float64,
    st.tuples(st.integers(1, 6), st.integers(1, 64)),
    elements=st.floats(-1e6, 1e6, allow_nan=False),
)
iterations = st.integers(1, 1000)
seeds = st.integers(0, 2**31 - 1)


def _ctx(update, iteration, seed):
    gen = np.random.default_rng(seed)
    return PolicyContext(
        iteration=iteration,
        global_params=gen.normal(size=update.shape),
        global_update_estimate=gen.normal(size=update.shape),
    )


POLICIES = [
    VanillaPolicy(),
    CMFLPolicy(InverseSqrtThreshold(0.8)),
    GaiaPolicy(InverseSqrtThreshold(0.8)),
]


@settings(max_examples=50)
@given(finite_vectors, iterations, seeds)
def test_check_is_pure(u, iteration, seed):
    """Same inputs -> the same decision, every time, for every rule.

    Fresh but equal context objects (separate round caches) must
    not change the outcome either — the engine rebuilds contexts
    per round and per resume.
    """
    for policy in POLICIES:
        first = policy.decide(u, _ctx(u, iteration, seed))
        again = policy.decide(u, _ctx(u, iteration, seed))
        assert first == again


@settings(max_examples=50)
@given(finite_vectors, iterations, seeds)
def test_check_does_not_mutate_inputs(u, iteration, seed):
    ctx = _ctx(u, iteration, seed)
    u_before = u.copy()
    feedback_before = ctx.global_update_estimate.copy()
    params_before = ctx.global_params.copy()
    for policy in POLICIES:
        policy.decide(u, ctx)
    np.testing.assert_array_equal(u, u_before)
    np.testing.assert_array_equal(
        ctx.global_update_estimate, feedback_before
    )
    np.testing.assert_array_equal(ctx.global_params, params_before)


@settings(max_examples=50)
@given(update_stacks)
def test_mean_aggregate_does_not_mutate_inputs(rows):
    """The received updates may alias client or store buffers."""
    updates = [
        ClientUpdate(k, row.copy(), n_samples=1, train_loss=0.0)
        for k, row in enumerate(rows)
    ]
    mean_aggregate(updates)
    for update, row in zip(updates, rows):
        assert update.update.tobytes() == row.tobytes()


@settings(max_examples=100)
@given(finite_vectors, iterations, seeds)
def test_relevance_trigger_scores_exactly_eq9(u, iteration, seed):
    ctx = _ctx(u, iteration, seed)
    decision = CMFLPolicy(InverseSqrtThreshold(0.8)).decide(u, ctx)
    assert decision.score == relevance(u, ctx.global_update_estimate)
    assert decision.upload == (decision.score >= decision.threshold)


@settings(max_examples=50)
@given(finite_vectors, iterations, seeds)
def test_always_upload_always_uploads(u, iteration, seed):
    decision = VanillaPolicy().decide(u, _ctx(u, iteration, seed))
    assert decision.upload
