"""Adversarial scenario registry: deliberate attackers with envelopes.

A *scenario* pairs a victim workload with co-resident attackers on one
:class:`~repro.system.machine.Machine` and declares, up front, how bad the
attack is allowed to get: the **expected-degradation envelope**.  The
runner (:mod:`repro.scenarios.runner`) executes every scenario twice per
seed — once with attackers (and the scenario's targeted
:class:`~repro.faults.plan.FaultSpec`, if any) and once as a paired
baseline with identical victims and no attackers — and checks the
attack/baseline victim-completion ratio, required recovery counters, and
the hang policy against the envelope.

Design rules for builders (enforced by convention, checked by the
determinism tests):

* **Allocate unconditionally.**  A builder must allocate every block,
  lock, barrier, and semaphore regardless of the ``attack`` flag, so the
  baseline and attack runs see identical address maps and the victim's
  work is bit-comparable.  Only the *spawning* of attacker processes may
  be gated on ``attack``.
* **Seeded randomness only.**  Any randomness comes from
  ``machine.rng.stream(...)`` streams named after the scenario, never from
  the :mod:`random` module — same seed must give identical metrics under
  either kernel discipline.
* **Victims record completion.**  Victims are spawned through
  :meth:`ScenarioWorld.spawn_victim`, which timestamps each victim's
  finish; the envelope's slowdown is computed over the *victims'* makespan
  (:attr:`ScenarioWorld.victim_time`), not the whole run, so a straggling
  attacker cannot mask or inflate the damage it causes.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Callable, Dict, Generator, List, Optional, Tuple

if TYPE_CHECKING:  # pragma: no cover
    from ..faults.plan import FaultSpec
    from ..sim.core import Process
    from ..system.config import MachineConfig
    from ..system.machine import Machine

__all__ = [
    "Envelope",
    "Scenario",
    "ScenarioWorld",
    "register",
    "get_scenario",
    "scenario_names",
    "all_scenarios",
]


@dataclass(frozen=True)
class Envelope:
    """Expected-degradation bounds for one scenario.

    ``max_slowdown`` is the ceiling on ``victim_time(attack) /
    victim_time(baseline)``; ``min_slowdown`` is a floor asserting the
    attack actually bites (a scenario whose attacker stops hurting the
    victim is a regression too — the contention path it exercises has
    silently gone dead).  ``require_recovery`` names node counters (e.g.
    ``"resilience.timeouts"``) that must be nonzero under attack;
    ``require_faults`` names fault-plan counters (e.g.
    ``"fault.targeted_drops"``) that must be nonzero.  ``hang_policy`` is
    ``"forbid"`` (any hang is a violation) or ``"expect"`` (the attack run
    *must* trip the watchdog and yield a structured
    :class:`~repro.faults.diagnosis.HangDiagnosis` naming the scenario —
    the never-a-silent-hang contract).
    """

    max_slowdown: float
    min_slowdown: float = 1.0
    #: Ceiling on ``messages(attack) / messages(baseline)`` — attackers
    #: send traffic of their own, so this bounds collateral fabric load
    #: rather than victim latency.  ``None`` leaves it unchecked.
    max_message_blowup: Optional[float] = None
    require_recovery: Tuple[str, ...] = ()
    require_faults: Tuple[str, ...] = ()
    hang_policy: str = "forbid"

    def __post_init__(self) -> None:
        if self.hang_policy not in ("forbid", "expect"):
            raise ValueError(f"hang_policy must be 'forbid' or 'expect', got {self.hang_policy!r}")
        if self.max_slowdown < self.min_slowdown:
            raise ValueError("max_slowdown must be >= min_slowdown")
        if self.max_message_blowup is not None and self.max_message_blowup <= 0:
            raise ValueError("max_message_blowup must be positive")

    def to_dict(self) -> dict:
        """JSON form embedded in the verdict document."""
        return {
            "max_slowdown": self.max_slowdown,
            "min_slowdown": self.min_slowdown,
            "max_message_blowup": self.max_message_blowup,
            "require_recovery": list(self.require_recovery),
            "require_faults": list(self.require_faults),
            "hang_policy": self.hang_policy,
        }


class ScenarioWorld:
    """Builder-facing wrapper around one machine.

    Tracks which spawned processes are victims vs. attackers, timestamps
    victim completion, and collects post-run assertion closures
    (``checks``) so a scenario can verify its victims' results survived
    the attack (the run must not merely *finish* — it must finish
    *correctly*).
    """

    def __init__(self, machine: "Machine"):
        self.machine = machine
        self.victims: List[str] = []
        self.attackers: List[str] = []
        #: Post-run assertions (called only when the run completed).
        self.checks: List[Callable[[], None]] = []
        #: Scratch space for builders to pass values to their checks.
        self.state: Dict[str, object] = {}
        self._victim_done: Dict[str, float] = {}

    def spawn_victim(self, gen: Generator, name: str) -> "Process":
        """Spawn ``gen`` as a victim; its finish time feeds the envelope."""
        if name in self.victims:
            raise ValueError(f"duplicate victim name {name!r}")
        self.victims.append(name)

        def timed() -> Generator:
            yield from gen
            self._victim_done[name] = self.machine.sim.now

        return self.machine.spawn(timed(), name=f"victim:{name}")

    def spawn_attacker(self, gen: Generator, name: str) -> "Process":
        """Spawn ``gen`` as an attacker (not part of the slowdown metric)."""
        self.attackers.append(name)
        return self.machine.spawn(gen, name=f"attacker:{name}")

    def record(self, key: str, value: object) -> None:
        """Stash a value (e.g. a final read) for a post-run check."""
        self.state[key] = value

    def check(self, fn: Callable[[], None]) -> None:
        """Register a post-run assertion."""
        self.checks.append(fn)

    def expect(self, key: str, want: object, label: str) -> None:
        """Register a check that the value recorded under ``key`` (see
        :meth:`record`) equals ``want``.  The check holds the state dict,
        not the world: the world holds its checks."""
        state = self.state

        def check() -> None:
            got = state.get(key)
            assert got == want, f"{label}: {got} != {want}"

        self.checks.append(check)

    @property
    def victim_time(self) -> Optional[float]:
        """Victims' makespan, or ``None`` while any victim is unfinished."""
        if len(self._victim_done) != len(self.victims) or not self.victims:
            return None
        return max(self._victim_done.values())


@dataclass(frozen=True)
class Scenario:
    """One registry entry: adversarial workload plus its envelope.

    ``config(seed)`` builds the machine shape; ``build(world, attack)``
    assembles victims (always) and attackers (only when ``attack``);
    ``fault_spec(seed)``, when set, installs targeted message drops on the
    attack run only — the baseline fabric is always reliable.
    """

    name: str
    description: str
    protocol: str
    config: Callable[[int], "MachineConfig"]
    build: Callable[[ScenarioWorld, bool], None]
    envelope: Envelope
    fault_spec: Optional[Callable[[int], "FaultSpec"]] = None
    #: Deadlock guard for :meth:`Machine.run_all`; generous by default.
    max_cycles: float = 2_000_000
    tags: Tuple[str, ...] = ()


#: The registry.  Populated by :mod:`repro.scenarios.catalog` at import
#: time; iteration order is sorted by name so every consumer (CLI, report,
#: CI subset) sees the same deterministic ordering.
_REGISTRY: Dict[str, Scenario] = {}


def register(scenario: Scenario) -> Scenario:
    """Add ``scenario`` to the registry; duplicate names are an error."""
    if scenario.name in _REGISTRY:
        raise ValueError(f"scenario {scenario.name!r} already registered")
    _REGISTRY[scenario.name] = scenario
    return scenario


def get_scenario(name: str) -> Scenario:
    """Look up a scenario; raises ``KeyError`` naming the known set."""
    try:
        return _REGISTRY[name]
    except KeyError:
        raise KeyError(
            f"unknown scenario {name!r}; known: {', '.join(scenario_names())}"
        ) from None


def scenario_names() -> List[str]:
    """All registered names, sorted."""
    return sorted(_REGISTRY)


def all_scenarios() -> List[Scenario]:
    """All registered scenarios, sorted by name."""
    return [_REGISTRY[n] for n in sorted(_REGISTRY)]
