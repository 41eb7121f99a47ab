"""Self-test of the traced run: wrapper coverage and exact counts.

Usage (from the root of a checkout):

    python3 perfbench/selftest.py [WORKLOAD ...]     # default: all four

Traces each workload twice at seed 0 and asserts that
- both runs' outputs match the reference;
- every counter the workload is meant to drive (run.DRIVES) is nonzero;
- the wrappers of names imported into several modules were installed in
  each of them;
- the exact counts (EXACT) are identical in the two runs.
Exits 1 on the first workload that fails, after printing why.
"""

from __future__ import annotations

import sys
import time

import run

EXACT = ("padic.unram_mul.calls", "padic.gamma_p.iters", "kloos.rows.computed",
         "ff.pow.calls", "cyclo.mul.calls")
# wrapper -> modules that import the name and must see the wrapper
BOUND_IN = {
    "ff.make_field": {"ksum.ff", "ksum.sweeps", "ksum.cli"},
    "ff.power_sum": {"ksum.ff", "ksum.kloos", "ksum.padic"},
    "kloos.kloosterman": {"ksum.kloos", "ksum.padic"},
}


def check(name: str) -> list[str]:
    (first, installed), (second, _) = (
        run.trace(name, 0, time.monotonic() + run.RUN_LIMIT_S, tag) for tag in ("-a", "-b"))
    a, b = (
        {k: v["value"] for k, v in res["metrics"].items()} for res in (first, second))
    problems = [f"run {i}: {res['failed']} of {res['attempted']} outputs wrong"
                for i, res in enumerate((first, second)) if res["failed"]]
    problems += [f"{m} is zero" for m in run.DRIVES[name] if not a[m]]
    for wrapper, modules in BOUND_IN.items():
        seen = {where.rpartition(".")[0] for where in installed[wrapper]}
        if not modules <= seen:
            problems.append(f"{wrapper} not installed in {sorted(modules - seen)}")
    problems += [f"{m} differs: {a[m]} vs {b[m]}" for m in EXACT if a[m] != b[m]]
    print(f"{name}: " + ", ".join(f"{m}={a[m]}" for m in EXACT), flush=True)
    return problems


def main(names: list[str]) -> int:
    if not (run.ROOT / "src" / "ksum" / "cli.py").is_file():
        print(f"error: no ksum sources under {run.ROOT / 'src'}", file=sys.stderr)
        return 2
    run.WORK.mkdir(exist_ok=True)
    unknown = set(names) - set(run.WORKLOADS)
    if unknown:
        print(f"error: unknown workloads {sorted(unknown)}", file=sys.stderr)
        return 2
    for name in names or run.WORKLOADS:
        problems = check(name)
        if problems:
            print(f"FAIL {name}: " + "; ".join(problems))
            return 1
    print("PASS")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
