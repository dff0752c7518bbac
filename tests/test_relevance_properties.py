"""Property-based contracts of the CMFL relevance measure (Eq. 9).

Complements ``test_core_relevance.py`` with the invariants the lint /
determinism policy leans on.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.relevance import relevance, sign_agreement_counts

finite_vectors = arrays(
    np.float64,
    st.integers(1, 128),
    elements=st.floats(-1e6, 1e6, allow_nan=False),
)
#: Vectors with no zero entry: every coordinate has a definite sign.
sign_definite_vectors = arrays(
    np.float64,
    st.integers(1, 128),
    elements=st.one_of(
        st.floats(0.01, 1e6, allow_nan=False),
        st.floats(-1e6, -0.01, allow_nan=False),
    ),
)
seeds = st.integers(0, 2**31 - 1)


@settings(max_examples=100)
@given(finite_vectors, seeds)
def test_relevance_is_bounded(u, seed):
    g = np.random.default_rng(seed).normal(size=u.shape)
    assert 0.0 <= relevance(u, g) <= 1.0


@settings(max_examples=100)
@given(finite_vectors, seeds)
def test_permutation_invariance(u, seed):
    """Eq. 9 sums an indicator over coordinates: order cannot matter."""
    gen = np.random.default_rng(seed)
    g = gen.normal(size=u.shape)
    perm = gen.permutation(u.size)
    assert relevance(u[perm], g[perm]) == relevance(u, g)


@given(sign_definite_vectors)
def test_sign_definite_self_relevance_is_one(u):
    """Without the zero-feedback shortcut: genuine full agreement."""
    assert np.all(u != 0)
    agree, total = sign_agreement_counts(u, u)
    assert agree == total
    assert relevance(u, u) == 1.0


@settings(max_examples=100)
@given(sign_definite_vectors)
def test_negation_is_fully_irrelevant(u):
    assert relevance(u, -u) == 0.0


@given(finite_vectors)
def test_zero_feedback_defines_relevance_one(u):
    """Round 1: no global tendency exists, everything is relevant."""
    assert relevance(u, np.zeros(u.shape, dtype=float)) == 1.0


@settings(max_examples=100)
@given(sign_definite_vectors)
def test_zero_update_against_nonzero_feedback(u):
    """sgn(0) agrees with nothing sign-definite: relevance 0."""
    assert relevance(np.zeros(u.shape, dtype=float), u) == 0.0


@settings(max_examples=100)
@given(finite_vectors, seeds)
def test_matches_counts_ratio(u, seed):
    g = np.random.default_rng(seed).normal(size=u.shape)
    agree, total = sign_agreement_counts(u, g)
    assert relevance(u, g) == agree / total
