#!/usr/bin/env python3
"""Tour of the extension models: weighted balls, stale probes, churn.

The paper analyses the one-shot, unit-weight, fresh-information process.
Real deployments differ in three ways, each covered by an extension scheme:

* **Weighted balls** (`weighted_kd_choice`) — files and tasks are not all
  the same size; how does the weighted load gap behave under exponential and
  heavy-tailed (Pareto) weights?
* **Stale information** (`stale_kd_choice`) — in a parallel system many
  rounds may probe the same outdated load snapshot; how fast does the
  guarantee degrade with the staleness epoch?
* **Churn** (`churn_kd_choice`, `repro.core.dynamic`) — balls depart as well as arrive; what is
  the steady-state gap under balanced insert/delete traffic?

Run with:  python examples/extensions_tour.py
"""

from __future__ import annotations

from repro.api import SchemeSpec, simulate
from repro.core.dynamic import run_churn_kd_choice
from repro.simulation import ResultTable, horizontal_bar_chart, sparkline


def weighted_section(n: int) -> None:
    print("1. Weighted balls — weighted-load gap by weight distribution")
    table = ResultTable(columns=["weights", "(k,d)", "weighted_gap", "max_ball_count"])
    for weights in ("constant", "exponential", "pareto"):
        for k, d in ((1, 2), (8, 16)):
            result = simulate(
                SchemeSpec(
                    "weighted_kd_choice",
                    {"n_bins": n, "k": k, "d": d, "weights": weights},
                    seed=3,
                )
            )
            table.add(
                {
                    "weights": weights,
                    "(k,d)": f"({k},{d})",
                    "weighted_gap": round(result.extra["weighted_gap"], 2),
                    "max_ball_count": result.max_load,
                }
            )
    print(table.to_text())
    print()


def staleness_section(n: int) -> None:
    print("2. Stale probes — max load vs staleness epoch (k=4, d=8)")
    values = {}
    for stale_rounds in (1, 4, 16, 64, 256):
        result = simulate(
            SchemeSpec(
                "stale_kd_choice",
                {"n_bins": n, "k": 4, "d": 8, "stale_rounds": stale_rounds},
                seed=5,
            )
        )
        values[f"epoch={stale_rounds:>3} rounds"] = float(result.max_load)
    print(horizontal_bar_chart(values, width=30, value_format="{:.0f}"))
    print()


def churn_section(n: int) -> None:
    print("3. Churn — gap over time under balanced insert/delete")
    for k, d in ((1, 1), (1, 2), (4, 8)):
        result = run_churn_kd_choice(n_bins=n // 8, k=k, d=d, rounds=1024, seed=7)
        gaps = [snapshot.gap for snapshot in result.snapshots]
        print(
            f"  ({k},{d})-choice   gap trace {sparkline(gaps)}   "
            f"steady-state gap = {result.steady_state_gap():.2f}"
        )
    print()


def main() -> None:
    n = 3 * 2 ** 11
    weighted_section(n)
    staleness_section(n)
    churn_section(n)
    print(
        "Takeaway: the (k,d)-choice advantage survives weights and churn, and\n"
        "degrades gracefully with stale information — the fresher the probes,\n"
        "the closer the system stays to the paper's bounds."
    )


if __name__ == "__main__":
    main()
