"""Fixed catalog of one-axis sweeps and the recorded reference rows.

The closed-form and cli-cold workloads draw their sweeps and single designs
from this catalog, so every closed-form row they produce has a recorded
counterpart in reference.json. The catalog covers all four scenarios, the
three built-in eras and configurations A and B, each with three sweep
variants along different axes.

Re-record the reference only when a change to the engine's numbers is
intended:

    python3 bench/catalog.py
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
REFERENCE_PATH = BENCH_DIR / "reference.json"

ERAS = ("near", "long", "ideal")
CONFIGS = ("A", "B")
SCENARIOS = ("segment", "nv-chain", "routed", "routed-nobuffer")
ROUTED_SCENARIOS = ("routed", "routed-nobuffer")
STUDIES = ("rate-vs-links", "rate-vs-routers", "config-compare", "cutoff-window", "fidelity")
STUDY_ERAS = ("near", "long")

# Links per segment at each era's operating point; the studies fix near and
# long, ideal follows long.
OPERATING_N = {"near": 1, "long": 2, "ideal": 2}
XI = 4


def _variants(scenario: str, era: str, config: str, ell_km: float) -> list[dict]:
    n_max = 8 if config == "A" else XI
    base_big_n = 3 if scenario in ROUTED_SCENARIOS else 1
    base = dict(scenario=scenario, era=era, config=config, xi=XI, ell_km=ell_km)
    variants = [
        dict(base, variant="n", axis="n", start=1.0, stop=float(n_max), step=1.0,
             n=1, big_n=base_big_n, epsilon=0.05),
        dict(base, variant="ell", axis="ell_km", start=10.0, stop=100.0, step=10.0,
             n=OPERATING_N[era], big_n=base_big_n, epsilon=0.02),
    ]
    if scenario in ROUTED_SCENARIOS:
        variants.append(dict(base, variant="big_n", axis="big_n", start=1.0, stop=10.0,
                             step=1.0, n=OPERATING_N[era], big_n=1, epsilon=0.1))
    else:
        variants.append(dict(base, variant="ell-short", axis="ell_km", start=5.0,
                             stop=50.0, step=5.0, n=2, big_n=1, epsilon=0.1))
    return variants


def build_catalog() -> dict[str, dict]:
    """Every sweep entry keyed by scenario/era/config/variant."""
    from repchain.network import max_link_length
    from repchain.params import builtin_profile

    catalog = {}
    for scenario in SCENARIOS:
        for era in ERAS:
            ell = max_link_length(builtin_profile(era))
            for config in CONFIGS:
                for entry in _variants(scenario, era, config, ell):
                    key = f"{scenario}/{era}/{config}/{entry['variant']}"
                    catalog[key] = entry
    return catalog


def sweep_spec(entry: dict, profile):
    """The SweepSpec a catalog entry describes, over one (era, profile) pair."""
    from repchain.experiments import SweepSpec
    from repchain.network import Config
    from repchain.rates import Scenario

    return SweepSpec(
        scenario=Scenario(entry["scenario"]),
        profiles=((entry["era"], profile),),
        axis=entry["axis"],
        start=entry["start"], stop=entry["stop"], step=entry["step"],
        config=Config(entry["config"]), ell_km=entry["ell_km"],
        n=entry["n"], big_n=entry["big_n"], xi=entry["xi"], epsilon=entry["epsilon"],
    )


def record() -> dict:
    """Compute the reference rows with the engine as it stands."""
    from repchain.experiments import Study, rows_to_csv, run_custom, run_study
    from repchain.params import builtin_profile

    def body(csv_text: str) -> list[str]:
        return csv_text.splitlines()[1:]

    profiles = [(era, builtin_profile(era)) for era in STUDY_ERAS]
    studies = {}
    for name in STUDIES:
        rows, _checks = run_study(Study(name), profiles)
        studies[name] = body(rows_to_csv(rows))
    sweeps = {}
    for key, entry in build_catalog().items():
        rows, _checks = run_custom(sweep_spec(entry, builtin_profile(entry["era"])))
        sweeps[key] = body(rows_to_csv(rows))
    return {"studies": studies, "sweeps": sweeps}


def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    data = record()
    REFERENCE_PATH.write_text(json.dumps(data, indent=1) + "\n", encoding="utf-8")
    n_rows = sum(len(v) for part in data.values() for v in part.values())
    print(f"wrote {n_rows} reference rows to {REFERENCE_PATH.relative_to(ROOT)}")
