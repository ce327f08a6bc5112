"""Workload definitions and the output digests that pin each run's result.

Both ``run.py`` (the benchmark) and ``pin.py`` (which records the pinned
references) import this module, so the inputs a workload seed selects and
the bytes a digest covers are defined in one place.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import sys
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
PINS_PATH = BENCH_DIR / "pins.json"
ALL_POLICIES = ("fls", "gfls", "flah", "gflah")
GA_POLICIES = ("gfls", "gflah")


@dataclass(frozen=True)
class Spec:
    """One workload at one size.

    ``config`` is the JSON experiment config (every absent key keeps the
    shipped default).  Every iteration runs every policy on the scenario
    seeds ``range(scenarios)``, whose outputs ``pins.json`` holds.
    """

    config: dict
    policies: tuple[str, ...]
    scenarios: int
    via_compare: bool = False


_TINY_GA = {"population_size": 6, "tournament_size": 3, "generations": 2}

WORKLOADS: dict[str, dict[str, Spec]] = {
    "compare_default": {
        "full": Spec({}, ALL_POLICIES, scenarios=2, via_compare=True),
        "smoke": Spec({"world": {"mt_count": 6, "total_time": 10}, "evolver": _TINY_GA},
                      ALL_POLICIES, scenarios=2, via_compare=True),
    },
    "static_dense": {
        "full": Spec({"world": {"mt_count": 500}}, ("fls", "flah"), scenarios=1),
        "smoke": Spec({"world": {"mt_count": 40, "total_time": 10}}, ("fls", "flah"),
                      scenarios=1),
    },
    "evolve_long": {
        "full": Spec({"world": {"mt_count": 20, "total_time": 240},
                      "evolver": {"invocation_period": 2, "window_length": 6,
                                  "generations": 5}},
                     ("gfls",), scenarios=1),
        "smoke": Spec({"world": {"mt_count": 5, "total_time": 24},
                       "evolver": {**_TINY_GA, "invocation_period": 2, "window_length": 6}},
                      ("gfls",), scenarios=1),
    },
}


def nproc() -> int:
    """CPUs this process may run on."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def import_gflsim():
    """Import the package from the checkout's ``src`` directory."""
    if not (SRC / "gflsim" / "__init__.py").is_file():
        raise FileNotFoundError(f"no gflsim package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import gflsim

    return gflsim


def scenario_seeds(workload: str, spec: Spec, seed: int) -> list[int]:
    """The scenario seeds of a run, in an order the workload seed picks.

    The set is the same for every workload seed.  The cost of a run
    differs by up to a third from one scenario to the next, so drawing
    scenarios per seed would make that difference, not the code, the
    main source of spread between runs."""
    order = list(range(spec.scenarios))
    random.Random(f"{workload}:{seed}").shuffle(order)
    return order


def events_text(events) -> str:
    """An event log in the bytes ``export_events`` writes for CSV."""
    rows = ["t,mt_id,event,old_bs,new_bs"]
    for e in events:
        old = "" if e.old_bs is None else e.old_bs
        new = "" if e.new_bs is None else e.new_bs
        rows.append(f"{e.t},{e.mt_id},{e.kind},{old},{new}")
    return "\r\n".join(rows) + "\r\n"


def evolution_text(evolution) -> str:
    """An evolution log in the bytes the comparison writes to
    ``evolution_<policy>_<seed>.jsonl``."""
    return "".join(
        json.dumps({"t": t, "window_fitness": fit, "consequents": list(genes)}) + "\n"
        for t, fit, genes in evolution
    )


def sha256(text: str | bytes) -> str:
    return hashlib.sha256(text.encode() if isinstance(text, str) else text).hexdigest()


def result_pin(result) -> dict:
    """What a pinned reference holds for one run."""
    m = result.metrics
    return {
        "metrics": [m.number_of_handoffs, m.connection_time_pct, m.energy_wastage_pct],
        "events": sha256(events_text(result.events)),
        "evolution": sha256(evolution_text(result.evolution)) if result.evolution else None,
    }


def report_text(pins: dict, policies, seeds) -> str:
    """The ``report.csv`` a comparison over ``seeds`` must write, rebuilt
    from the pinned per-run metrics."""
    fields = ("number_of_handoffs", "connection_time_pct", "energy_wastage_pct")

    def fmt(v) -> str:
        return str(v) if isinstance(v, int) else repr(float(v))

    rows = ["policy,metric,max,min,avg"]
    for kind in policies:
        for i, name in enumerate(fields):
            vals = [pins[kind][str(s)]["metrics"][i] for s in seeds]
            rows.append(f"{kind},{name},{fmt(max(vals))},{fmt(min(vals))},"
                        f"{fmt(sum(vals) / len(vals))}")
    return "\r\n".join(rows) + "\r\n"


def load_pins() -> dict:
    return json.loads(PINS_PATH.read_text()) if PINS_PATH.is_file() else {}
