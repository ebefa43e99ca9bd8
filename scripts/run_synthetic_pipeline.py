#!/usr/bin/env python3
"""Generate a synthetic dataset and run the whole pipeline over it.

Writes everything under ./synthetic_run/ (dataset in data/, stage outputs in
cache/) and prints the classifier summary at the end. Handy as a smoke test
and as a template for running against real data.
"""

import csv
import json
import sys
from pathlib import Path

from cascademine.cli import main

ROOT = Path("synthetic_run")


def run() -> int:
    data = ROOT / "data"
    cache = ROOT / "cache"
    code = main(["synth", "--out-dir", str(data), "--users", "400",
                 "--businesses", "300", "--events", "6000",
                 "--friend-prob", "0.015", "--influence-prob", "0.1",
                 "--cities", "2", "--seed", "7"])
    if code != 0:
        return code
    code = main(["all",
                 "--business", str(data / "business.json"),
                 "--user", str(data / "user.json"),
                 "--review", str(data / "review.json"),
                 "--tip", str(data / "tip.json"),
                 "--cache-dir", str(cache),
                 "--k", "2", "--min-big-cascades", "5", "--seed", "11"])
    if code != 0:
        return code

    report = json.loads((cache / "eval.json").read_text())
    top: dict[str, list[str]] = {}
    with open(cache / "importance.csv", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):  # rows are in rank order per city
            top.setdefault(row["city"], []).append(row["feature"])
    print("\n=== classifier summary ===")
    for city, r in sorted(report["cities"].items()):
        print(f"{city}: n={r['n_examples']} gbdt acc={r['gbdt']['mean_accuracy']:.3f} "
              f"auc={r['gbdt']['auc']:.3f} | logreg acc={r['logreg']['mean_accuracy']:.3f}")
        print(f"  top features: {', '.join(top[city][:5])}")
    return 0


if __name__ == "__main__":
    sys.exit(run())
