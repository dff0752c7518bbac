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
"""

from hypothesis import example, given

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
