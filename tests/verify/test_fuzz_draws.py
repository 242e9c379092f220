"""Draw-equivalence properties for the fuzz campaign's RNG paths.

The campaign draws atom kinds by bisecting a cdf built once per program
and draws jitter factors from doubles read in blocks.  Both must return
exactly what the scalar numpy calls they replaced return on the same
stream; the scalar calls live here as the referees.
"""

from bisect import bisect_right
from typing import List, Optional, Sequence, Tuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.scenarios import scenario_names
from repro.scenarios.fuzzbias import bias_for
from repro.verify.fuzz import _ATOM_WEIGHTS, Atom, Program, _kind_cdf, gen_program
from repro.verify.litmus import make_jitter

SEEDS = st.integers(min_value=0, max_value=2**32 - 1)

#: Nonnegative weight vectors with a positive total, zero weights included.
WEIGHTS = st.lists(
    st.one_of(st.just(0.0), st.floats(min_value=1e-6, max_value=1e3)),
    min_size=1, max_size=8,
).filter(lambda ws: sum(ws) > 0)

BIAS_MIXES = sorted({bias_for(name).atom_weights for name in scenario_names()})


def choice_kind(rng, probs: Sequence[float]) -> int:
    """Referee: the draw ``gen_program`` made before the cdf bisection."""
    return int(rng.choice(len(probs), p=probs))


def referee_gen_program(
    rng,
    n_threads: Optional[int] = None,
    n_rounds: Optional[int] = None,
    max_atoms_per_round: int = 3,
    n_locks: int = 2,
    atom_weights: Optional[Sequence[Tuple[str, float]]] = None,
) -> Program:
    """Referee: ``gen_program`` drawing each kind with ``Generator.choice``."""
    if n_threads is None:
        n_threads = int(rng.integers(2, 5))
    if n_rounds is None:
        n_rounds = int(rng.integers(1, 4))
    pairs = _ATOM_WEIGHTS if atom_weights is None else tuple(atom_weights)
    kinds = [k for k, _ in pairs]
    total = sum(w for _, w in pairs)
    probs = [w / total for _, w in pairs]
    pub_seq = [0] * n_threads
    rounds: List[Tuple[Tuple[Atom, ...], ...]] = []
    for _r in range(n_rounds):
        row = []
        for t in range(n_threads):
            atoms: List[Atom] = []
            for _ in range(int(rng.integers(1, max_atoms_per_round + 1))):
                kind = kinds[choice_kind(rng, probs)]
                if kind == "compute":
                    atoms.append(Atom("compute", int(rng.integers(1, 30))))
                elif kind == "private":
                    atoms.append(Atom("private", int(rng.integers(1, 4))))
                elif kind == "publish":
                    pub_seq[t] += 1
                    atoms.append(Atom("publish", pub_seq[t]))
                elif kind == "consume":
                    if n_threads < 2:
                        continue
                    target = int(rng.integers(0, n_threads - 1))
                    if target >= t:
                        target += 1
                    atoms.append(Atom("consume", target))
                elif kind == "lock_inc":
                    atoms.append(Atom("lock_inc", int(rng.integers(0, n_locks))))
                else:
                    atoms.append(Atom("rmw_inc"))
            row.append(tuple(atoms))
        rounds.append(tuple(row))
    return Program(n_threads=n_threads, rounds=tuple(rounds))


def scalar_jitter(rng, max_factor: float, prob: float):
    """Referee: the jitter hook as two numpy scalar calls per delay."""

    def jitter(delay: float) -> float:
        if rng.random() < prob:
            return delay * rng.uniform(1.0, max_factor)
        return delay

    return jitter


# -- atom-kind draws ---------------------------------------------------------
@settings(max_examples=200, deadline=None)
@given(weights=WEIGHTS, seed=SEEDS)
def test_bisect_draw_equals_choice(weights, seed):
    total = sum(weights)
    probs = [w / total for w in weights]
    cdf = _kind_cdf(weights)
    fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    for _ in range(64):
        got = bisect_right(cdf, fast.random())
        assert got == choice_kind(ref, probs)
        assert weights[got] > 0
    # Same doubles consumed: the streams are still in step.
    assert fast.random() == ref.random()


@pytest.mark.parametrize(
    "mix", [None] + BIAS_MIXES, ids=lambda m: "default" if m is None else "bias"
)
@settings(max_examples=40, deadline=None)
@given(seed=SEEDS)
def test_gen_program_equals_choice_referee(mix, seed):
    fast, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    assert gen_program(fast, atom_weights=mix) == referee_gen_program(ref, atom_weights=mix)
    assert fast.random() == ref.random()


@pytest.mark.parametrize(
    "weights",
    [
        [0.5, -0.1, 0.6],
        [0.0, 0.0],
        [float("nan"), 1.0],
        [float("inf"), 1.0],
    ],
)
def test_bad_weights_raise_value_error(weights):
    with pytest.raises(ValueError):
        _kind_cdf(weights)
    mix = tuple(zip(("compute", "private", "publish"), weights))
    with pytest.raises(ValueError):
        gen_program(np.random.default_rng(0), atom_weights=mix)


# -- jitter draws ------------------------------------------------------------
@settings(max_examples=150, deadline=None)
@given(
    max_factor=st.floats(min_value=1.0, max_value=64.0),
    prob=st.floats(min_value=1e-3, max_value=1.0),
    delays=st.lists(st.floats(min_value=1e-3, max_value=1e4), min_size=1, max_size=700),
    seed=SEEDS,
)
def test_block_jitter_equals_scalar_draws(max_factor, prob, delays, seed):
    fast = make_jitter(np.random.default_rng(seed), max_factor, prob=prob)
    ref = scalar_jitter(np.random.default_rng(seed), max_factor, prob)
    for delay in delays:
        assert fast(delay) == ref(delay)


def test_block_jitter_crosses_block_boundaries():
    """Every delay perturbed: two doubles per call, many blocks consumed."""
    fast = make_jitter(np.random.default_rng(5), 9.0, prob=1.0)
    ref = scalar_jitter(np.random.default_rng(5), 9.0, 1.0)
    assert [fast(10.0) for _ in range(2000)] == [ref(10.0) for _ in range(2000)]
