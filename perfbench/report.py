"""Run every workload untraced and traced, each in its own process, and report.

    python3 perfbench/report.py --seed 1 --seconds 45

For each workload this prints the end-to-end metrics of the untraced run,
the tracing overhead (traced minus untraced ``fit_s`` and ``fits_per_s``)
and each layer's share of the mean traced time per fit.  ``model`` and
``evaluation`` work outside the timed fit, in the benchmark's input draws and
scoring; their time per fit is printed with the same base.  Exits nonzero if
any run fails its checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def _run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=HERE.parent,
        capture_output=True,
        text=True,
        timeout=600,
    )
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else {"correct": False, "metrics": {}}
    result["ok"] = proc.returncode == 0 and result["correct"]
    return result


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=45)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))
    from spans import LAYER_MAP

    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    all_ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        plain = _run(workload, args.seed, args.seconds, trace=0)
        traced = _run(workload, args.seed, args.seconds, trace=1)
        all_ok = all_ok and plain["ok"] and traced["ok"]
        m, t = plain["metrics"], traced["metrics"]
        print(f"{workload}  (checks {'pass' if plain['ok'] and traced['ok'] else 'FAIL'}, "
              f"{plain.get('attempted')} attempted, {plain.get('failed')} failed)")
        for name, entry in m.items():
            print(f"  {name:<16} {entry['value']:12.6g} {entry['unit']}")
        for key in ("fit_s", "fits_per_s"):
            if key in m and f"traced.{key}" in t:
                diff = t[f"traced.{key}"]["value"] - m[key]["value"]
                print(f"  overhead {key:<10} {diff:+12.4g} {m[key]['unit']} "
                      f"({diff / m[key]['value']:+.1%})")
        rate = t.get("traced.fits_per_s", {}).get("value")
        if rate:
            per_op = 1.0 / rate  # mean traced seconds per fit, the base of the shares
            print(f"  layer shares of the mean traced fit, {per_op:.4g} s:")
            for layer, (moves, _, _) in LAYER_MAP.items():
                name = f"{layer}.self_s" if f"{layer}.self_s" in t else f"{layer}.s"
                if name in t:
                    where = "" if moves else "  (outside the timed fit)"
                    print(f"    {name:<18} {t[name]['value'] / per_op:7.1%}{where}")
        print()
    return 0 if all_ok else 1


if __name__ == "__main__":
    sys.exit(main())
