"""Top-level axiomatic queries over the litmus corpus.

:func:`allowed_outcomes` is the checker's public entry point: the set of
outcomes the axioms admit for a litmus test under one consistency model
and protocol, computed by the partial-order-reduced search of
:mod:`repro.axiom.scale` with the DRF short-circuit.  Results are cached
per (test, model name, protocol) — enumeration is exact and
deterministic, so the cache is safe for the whole process lifetime
(litmus tests are frozen dataclasses).

``tests/axiom/test_scale.py`` holds the answers bit-identical to the
exhaustive referee (``tests/axiom/referees.py``) over the whole corpus.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

from ..static.drf import classification_for
from .events import litmus_event_graph
from .model import ax_model_for
from .scale import reduced_outcomes_for_graph

if TYPE_CHECKING:  # pragma: no cover
    from ..verify.litmus import LitmusTest

__all__ = ["allowed_outcomes"]


@lru_cache(maxsize=None)
def _cached_outcomes(test: "LitmusTest", model: str, protocol: str) -> frozenset:
    return reduced_outcomes_for_graph(
        litmus_event_graph(test),
        ax_model_for(model, protocol),
        finals=test.finals,
        classification=classification_for(test),
    )


def allowed_outcomes(
    test: "LitmusTest", model: str, protocol: str = "primitives"
) -> frozenset:
    """Outcomes the axioms admit for ``test`` under ``model`` × ``protocol``."""
    return _cached_outcomes(test, model, protocol)
