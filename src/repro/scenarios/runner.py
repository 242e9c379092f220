"""Scenario execution and envelope verdicts.

:func:`scenario_point` is the sweep point function — a top-level callable
addressable by dotted path, so scenario runs dispatch through
:func:`repro.sweep.run_sweep` and get its on-disk result cache and
process-pool parallelism for free.  One *point* is one machine run: a
scenario at one seed, either under attack or as the paired baseline.

:func:`run_scenarios` fans the (scenario x seed x {baseline, attack})
matrix through the sweep runner, then folds each scenario's paired runs
into an envelope verdict (:func:`evaluate_scenario`).  The resulting
document (schema ``repro.scenarios/v1``) is what the CLI writes with
``--json`` and what CI archives; :func:`markdown_section` renders the
same document as the report's "Under attack" section.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence

from ..sim.watchdog import HangError
from ..sweep import SweepStats, SweepTask, derive_seed, run_sweep
from ..system.machine import Machine
from ..verify import check_all
from .base import Scenario, ScenarioWorld, get_scenario, scenario_names

__all__ = [
    "SCHEMA",
    "scenario_point",
    "evaluate_scenario",
    "run_scenarios",
    "markdown_section",
]

#: Verdict-document schema tag; tests pin the layout against this.
SCHEMA = "repro.scenarios/v1"

#: Default base seed for seed derivation (the paper's year).
DEFAULT_BASE_SEED = 1991


def scenario_point(
    name: str,
    seed: int,
    attack: bool,
) -> Dict[str, Any]:
    """Run one scenario once; returns a JSON-able run document.

    The baseline (``attack=False``) builds the identical machine and
    victim set but spawns no attackers and installs no fault plan — the
    pairing that makes the envelope's slowdown ratio meaningful.  A
    watchdog trip is *captured*, not propagated: the returned document
    carries the structured diagnosis so envelope evaluation can decide
    whether the hang was expected.
    """
    scn = get_scenario(name)
    cfg = scn.config(seed)
    faults = scn.fault_spec(seed) if (attack and scn.fault_spec is not None) else None
    with Machine(cfg, protocol=scn.protocol, faults=faults) as machine:
        machine.scenario = name if attack else f"{name}/baseline"
        world = ScenarioWorld(machine)
        scn.build(world, attack)
        hang: Optional[Dict[str, Any]] = None
        try:
            machine.run_all(max_cycles=scn.max_cycles)
        except HangError as exc:
            diag = exc.diagnosis
            hang = diag.to_dict() if diag is not None else {"reason": str(exc)}
        if hang is None:
            # The run must not merely finish: protocol invariants and the
            # scenario's own result assertions must hold under attack.
            check_all(machine)
            for chk in world.checks:
                chk()
        met = machine.metrics()
        return {
            "scenario": name,
            "seed": seed,
            "attack": bool(attack),
            "victims": list(world.victims),
            "attackers": list(world.attackers),
            "victim_time": world.victim_time,
            "metrics": met.to_json(),
            "hang": hang,
        }


def _seed_entry(scn: Scenario, base: Dict[str, Any], atk: Dict[str, Any]) -> Dict[str, Any]:
    """Per-seed comparison row embedded in the scenario verdict."""
    slowdown = None
    if base["victim_time"] and atk["victim_time"]:
        slowdown = atk["victim_time"] / base["victim_time"]
    blowup = None
    if base["metrics"]["messages"]:
        blowup = atk["metrics"]["messages"] / base["metrics"]["messages"]
    recovery = {
        c: atk["metrics"]["node_counters"].get(c, 0)
        for c in scn.envelope.require_recovery
    }
    fault_counts = {
        c: atk["metrics"]["faults"].get(c, 0) for c in scn.envelope.require_faults
    }
    return {
        "seed": base["seed"],
        "victim_time_baseline": base["victim_time"],
        "victim_time_attack": atk["victim_time"],
        "slowdown": slowdown,
        "messages_baseline": base["metrics"]["messages"],
        "messages_attack": atk["metrics"]["messages"],
        "message_blowup": blowup,
        "recovery": recovery,
        "fault_counts": fault_counts,
        "drop_log_tail": list(atk["metrics"]["drop_log_tail"]),
        "hang": atk["hang"],
    }


def evaluate_scenario(
    scn: Scenario, pairs: Sequence[tuple]
) -> Dict[str, Any]:
    """Fold ``(baseline_doc, attack_doc)`` pairs into an envelope verdict."""
    env = scn.envelope
    violations: List[str] = []
    per_seed: List[Dict[str, Any]] = []
    for base, atk in pairs:
        seed = base["seed"]
        entry = _seed_entry(scn, base, atk)
        per_seed.append(entry)
        if base["hang"] is not None:
            violations.append(f"seed {seed}: baseline hung ({base['hang'].get('reason')})")
            continue
        if env.hang_policy == "expect":
            if atk["hang"] is None:
                violations.append(f"seed {seed}: expected a watchdog trip, run completed")
            elif atk["hang"].get("scenario") != scn.name:
                violations.append(
                    f"seed {seed}: hang diagnosis names scenario "
                    f"{atk['hang'].get('scenario')!r}, expected {scn.name!r}"
                )
        else:
            if atk["hang"] is not None:
                violations.append(f"seed {seed}: attack hung ({atk['hang'].get('reason')})")
            else:
                slowdown = entry["slowdown"]
                if slowdown is None:
                    violations.append(f"seed {seed}: victim time missing")
                else:
                    if slowdown > env.max_slowdown:
                        violations.append(
                            f"seed {seed}: slowdown {slowdown:.2f} exceeds envelope "
                            f"max {env.max_slowdown}"
                        )
                    if slowdown < env.min_slowdown:
                        violations.append(
                            f"seed {seed}: slowdown {slowdown:.2f} below envelope "
                            f"min {env.min_slowdown} (attack stopped biting)"
                        )
                if (
                    env.max_message_blowup is not None
                    and entry["message_blowup"] is not None
                    and entry["message_blowup"] > env.max_message_blowup
                ):
                    violations.append(
                        f"seed {seed}: message blowup {entry['message_blowup']:.2f} "
                        f"exceeds envelope max {env.max_message_blowup}"
                    )
        for counter, value in entry["recovery"].items():
            if value <= 0:
                violations.append(
                    f"seed {seed}: required recovery counter {counter} is zero"
                )
        for counter, value in entry["fault_counts"].items():
            if value <= 0:
                violations.append(
                    f"seed {seed}: required fault counter {counter} is zero"
                )
    return {
        "name": scn.name,
        "description": scn.description,
        "protocol": scn.protocol,
        "tags": list(scn.tags),
        "envelope": env.to_dict(),
        "ok": not violations,
        "violations": violations,
        "per_seed": per_seed,
    }


def run_scenarios(
    names: Optional[Sequence[str]] = None,
    n_seeds: int = 3,
    base_seed: int = DEFAULT_BASE_SEED,
    jobs: Optional[int] = None,
    cache_dir: Optional[str] = None,
    use_cache: bool = True,
    stats: Optional[SweepStats] = None,
) -> Dict[str, Any]:
    """Run scenarios across seeds and return the verdict document."""
    if names is None:
        names = scenario_names()
    scns = [get_scenario(n) for n in names]
    tasks: List[SweepTask] = []
    index: List[tuple] = []
    for scn in scns:
        for i in range(n_seeds):
            seed = derive_seed(base_seed, "scenarios", scn.name, i)
            for attack in (False, True):
                params = {"name": scn.name, "seed": seed, "attack": attack}
                tasks.append(SweepTask("repro.scenarios.runner:scenario_point", params))
                index.append((scn.name, seed, attack))
    results = run_sweep(tasks, jobs=jobs, cache_dir=cache_dir, use_cache=use_cache, stats=stats)
    by_key = {key: res for key, res in zip(index, results)}
    verdicts = []
    for scn in scns:
        pairs = []
        for i in range(n_seeds):
            seed = derive_seed(base_seed, "scenarios", scn.name, i)
            pairs.append((by_key[(scn.name, seed, False)], by_key[(scn.name, seed, True)]))
        verdicts.append(evaluate_scenario(scn, pairs))
    return {
        "schema": SCHEMA,
        "base_seed": base_seed,
        "n_seeds": n_seeds,
        "ok": all(v["ok"] for v in verdicts),
        "scenarios": verdicts,
    }


def markdown_section(doc: Dict[str, Any]) -> str:
    """Render a verdict document as the report's "Under attack" section."""
    lines = [
        "## Under attack: adversarial scenario suite",
        "",
        f"{len(doc['scenarios'])} scenarios x {doc['n_seeds']} seeds "
        f"(base seed {doc['base_seed']}), each paired with a no-attacker "
        "baseline; slowdown is the worst victim-makespan ratio across seeds.",
        "",
        "| Scenario | Protocol | Slowdown (worst) | Envelope | Recovery | Verdict |",
        "|---|---|---|---|---|---|",
    ]
    for v in doc["scenarios"]:
        env = v["envelope"]
        if env["hang_policy"] == "expect":
            slow = "hangs (by design)"
            bound = "HangDiagnosis required"
        else:
            slowdowns = [e["slowdown"] for e in v["per_seed"] if e["slowdown"] is not None]
            slow = f"{max(slowdowns):.2f}x" if slowdowns else "n/a"
            bound = f"{env['min_slowdown']:.2f}-{env['max_slowdown']:.0f}x"
        recov = []
        for entry in v["per_seed"]:
            for counter, value in {**entry["recovery"], **entry["fault_counts"]}.items():
                recov.append(f"{counter.split('.')[-1]}={value}")
            break  # first seed is representative for the table
        verdict = "within envelope" if v["ok"] else "VIOLATION"
        lines.append(
            f"| {v['name']} | {v['protocol']} | {slow} | {bound} | "
            f"{' '.join(recov) or '-'} | {verdict} |"
        )
    bad = [v for v in doc["scenarios"] if not v["ok"]]
    if bad:
        lines.append("")
        lines.append("Violations:")
        for v in bad:
            for msg in v["violations"]:
                lines.append(f"- `{v['name']}`: {msg}")
    lines.append("")
    return "\n".join(lines)
