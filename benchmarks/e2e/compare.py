"""Compare two sets of end-to-end benchmark results, metric by metric.

Usage::

    python3 benchmarks/e2e/compare.py A_DIR B_DIR

``A_DIR`` holds the baseline's result files and ``B_DIR`` the change's:
any ``*.json`` that ``run.py --out`` wrote, searched recursively (trace
files are skipped), at least ``MIN_RUNS`` per workload on each side,
e.g. ``run.py --seed k --out A_DIR/k`` for five seeds ``k``.

For every (workload, end-to-end metric) it prints each side's median
and quartiles, the change's worsening as a share of the baseline
median, and a verdict, reading direction and bound from
``BENCHMARK.json``:

* ``unresolved`` — either side's quartile spread, as a share of its
  median, is wider than the bound, and the two sides overlap (some run
  of one side does not beat every run of the other);
* ``worse`` / ``better`` — the median worsened / improved by more than
  the bound;
* ``same`` — otherwise.

When the baseline median is 0 a share is undefined, so the bound is
applied to the absolute difference instead. Exits 1 on any ``worse``
or on any incorrect run, 2 when a side has too few runs.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
#: Fewer runs than this per side are not evidence.
MIN_RUNS = 5


def load_results(directory) -> dict[str, list[dict]]:
    """Result files under ``directory``, grouped by workload."""
    grouped: dict[str, list[dict]] = {}
    for path in sorted(Path(directory).rglob("*.json")):
        if path.name.endswith(".trace.json"):
            continue
        result = json.loads(path.read_text())
        grouped.setdefault(result["workload"], []).append(result)
    return grouped


def _relative(change: float, base: float) -> float:
    return change / abs(base) if base else change


def verdict(base: list[float], change: list[float], better: str,
            bound: float) -> tuple[str, float]:
    """``(verdict, worsening)`` of ``change`` against ``base``; the
    worsening is a share of the base median (absolute when it is 0)."""
    sign = 1.0 if better == "lower" else -1.0
    m_base, m_change = statistics.median(base), statistics.median(change)
    worsening = _relative(sign * (m_change - m_base), m_base)
    spread = max(_relative(q[2] - q[0], m)
                 for q, m in ((statistics.quantiles(base, n=4), m_base),
                              (statistics.quantiles(change, n=4), m_change)))
    separated = max(change) < min(base) or max(base) < min(change)
    if spread > bound and not separated:
        return "unresolved", worsening
    if worsening > bound:
        return "worse", worsening
    if worsening < -bound:
        return "better", worsening
    return "same", worsening


def _summary(values: list[float]) -> str:
    q = statistics.quantiles(values, n=4)
    return f"{statistics.median(values):.6g} [{q[0]:.6g}, {q[2]:.6g}]"


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print("usage: compare.py A_DIR B_DIR", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    sides = [load_results(d) for d in argv]
    workloads = sorted(set(sides[0]) | set(sides[1]))
    short = [f"{w} has {len(side.get(w, []))} runs in {d}"
             for w in workloads for d, side in zip(argv, sides)
             if len(side.get(w, [])) < MIN_RUNS]
    if short:
        for line in short:
            print(f"error: {line}; need at least {MIN_RUNS}", file=sys.stderr)
        return 2
    code = 0
    incorrect = [r for side in sides for rs in side.values() for r in rs
                 if not r["correct"]]
    for r in incorrect:
        print(f"error: an incorrect run of {r['workload']} (seed {r['seed']})",
              file=sys.stderr)
        code = 1
    print(f"{'workload':<16} {'metric':<22} {'A median [q1, q3]':<40} "
          f"{'B median [q1, q3]':<40} {'worse by':>9}  verdict")
    for workload in workloads:
        for metric in spec["end_to_end"]:
            name = metric["name"]
            base = [r["metrics"][name]["value"] for r in sides[0][workload]]
            change = [r["metrics"][name]["value"] for r in sides[1][workload]]
            outcome, worsening = verdict(base, change, metric["better"],
                                         metric["bound"])
            if outcome == "worse":
                code = 1
            print(f"{workload:<16} {name:<22} {_summary(base):<40} "
                  f"{_summary(change):<40} {worsening:>+9.2%}  {outcome}")
    return code


if __name__ == "__main__":
    raise SystemExit(main())
