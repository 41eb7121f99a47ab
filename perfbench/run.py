"""Exhaustive-sweep benchmark of the ksum CLI.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --record      # rewrite perfbench/reference.json

With --trace 0 the benchmark is one closed-loop client: it spawns the
`ksum` CLI for one sweep, waits for it to exit, and starts the next; it
runs three sweeps, and more while the next one should still end within S
seconds.  It reports the median sweep's wall time, CPU time and peak
memory, and the median of nine one-witness runs as set-up time.  Times
are scaled to a reference processor speed by a calibration loop run on the
same CPUs just before and after each program run (see CAL_REF_S).  With
--trace 1 it runs the workload once at --jobs 1 untraced and once
in-process under perfbench/tracer.py, and reports per-layer counts and
times.

Every run's stdout is checked against perfbench/reference.json, recorded
from seed 0.  The seed picks the field moduli: 0 is ksum's own default
search, k > 0 passes the k-th primitive modulus as `mod=` to the first
sweep, the (k+1)-th to the second, and so on, cycling.  Output that names
the modulus then differs, so only its isomorphism-invariant parts (verdict,
total, histogram) are compared.  The last stdout line is one JSON object
with the result.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from collections.abc import Iterator
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
REFERENCE = HERE / "reference.json"
KSUM = ["-c", "import sys; from ksum.cli import main; sys.exit(main())"]
SETUP_REPEATS = 9
MIN_SWEEPS = 3
RUN_LIMIT_S = 170.0          # the whole benchmark run stays under 180 s

# The host shares its processors with other machines, and the speed of each
# virtual CPU changes by up to 1.7x from one second to the next.  So every
# program run is pinned to fixed CPUs and bracketed by a fixed pure-Python
# calibration loop on those CPUs, and its times are scaled by
# CAL_REF_S / (loop time): they are given for a processor on which the loop
# takes CAL_REF_S, about its time on the machine in README.md when that
# machine runs at full speed.  Nothing of ksum runs in the loop.
CAL_POLY = (1, 2, 0, 0, 1, 0, 2, 0, 1, 1, 0, 0, 0, 1)
CAL_EXP = 3 ** 40
CAL_LOOPS = 20
CAL_REPEATS = 3
CAL_REF_S = 0.030

FIELD, ZERO = "{field}", "{zero}"


@dataclass(frozen=True)
class Workload:
    p: int
    n: int
    sweep: tuple[tuple[str, ...], ...]    # commands of one sweep
    setup: tuple[tuple[str, ...], ...]    # the same at one-witness scope

    @property
    def jobs(self) -> int:
        """Worker processes a sweep runs, and so the CPUs it is given."""
        return max(int(cmd[cmd.index("--jobs") + 1]) if "--jobs" in cmd else 1
                   for cmd in self.sweep)


WORKLOADS = {
    "mod27-p3n7": Workload(3, 7, (
        ("verify", "--field", FIELD, "--check", "mod27", "--all",
         "--format", "json-lines", "--records", "all", "--jobs", "1"),
    ), (
        ("verify", "--field", FIELD, "--check", "mod27", "--a", ZERO,
         "--format", "json-lines", "--records", "all", "--jobs", "1"),
    )),
    "fourier-p3n5": Workload(3, 5, (
        ("verify", "--field", FIELD, "--check", "fourier", "--all", "--jobs", "1"),
    ), (
        ("verify", "--field", FIELD, "--check", "fourier", "--a", ZERO, "--jobs", "1"),
    )),
    "spectrum-p3n8-j2": Workload(3, 8, (
        ("spectrum", "--field", FIELD, "--jobs", "2"),
    ), (
        ("kloosterman", "--field", FIELD, "--a", ZERO),
    )),
    "oddp-p11n3": Workload(11, 3, (
        ("verify", "--field", FIELD, "--check", "moisio", "--all", "--jobs", "1"),
        ("verify", "--field", FIELD, "--check", "stickelberger", "--all",
         "--precision", "4", "--jobs", "1"),
    ), (
        ("verify", "--field", FIELD, "--check", "moisio", "--a", ZERO, "--jobs", "1"),
        ("verify", "--field", FIELD, "--check", "stickelberger", "--j", "1",
         "--precision", "4", "--jobs", "1"),
    )),
}

# per-layer metrics printed with --trace 1, with their units
PER_LAYER = {
    "ff.make_field.s": "s", "ff.make_field.calls": "count", "ff.tables.s": "s",
    "ff.power_sum.s": "s", "ff.power_sum.calls": "count",
    "ff.pow.calls": "count", "ff.element_at.calls": "count",
    "kloos.kloosterman.s": "s", "kloos.kloosterman.calls": "count",
    "kloos.rows.s": "s", "kloos.rows.computed": "count",
    "kloos.rows.hit_ratio": "ratio",
    "kloos.min_poly.s": "s",
    "cyclo.mul.calls": "count", "cyclo.product_linear.s": "s",
    "cyclo.from_power_counts.calls": "count",
    "padic.unram_mul.calls": "count", "padic.teichmuller.s": "s",
    "padic.teichmuller.calls": "count", "padic.gauss_sum.calls": "count",
    "padic.gamma_p.s": "s", "padic.gamma_p.calls": "count",
    "padic.gamma_p.iters": "count",
    "sweeps.run_verification.s": "s", "sweeps.emit_report.s": "s",
    "sweeps.emit_report.bytes": "bytes",
    "cli.import.s": "s",
    **{f"{layer}.self_s": "s"
       for layer in ("ff", "cyclo", "kloos", "padic", "sweeps", "cli")},
    "trace.overhead": "ratio",
}

# counters each workload is meant to drive: a traced run that leaves one of
# them at zero has lost a wrapper, and is not correct
DRIVES = {
    "mod27-p3n7": ("ff.make_field.calls", "ff.power_sum.calls", "ff.pow.calls",
                   "ff.element_at.calls", "kloos.kloosterman.calls",
                   "kloos.rows.computed", "cyclo.from_power_counts.calls",
                   "sweeps.emit_report.bytes"),
    "fourier-p3n5": ("padic.unram_mul.calls", "padic.teichmuller.calls",
                     "padic.gauss_sum.calls", "padic.gamma_p.calls",
                     "padic.gamma_p.iters", "kloos.kloosterman.calls"),
    "spectrum-p3n8-j2": ("ff.make_field.calls", "kloos.rows.s", "kloos.rows.computed",
                         "cyclo.from_power_counts.calls",
                         "sweeps.emit_report.bytes"),
    "oddp-p11n3": ("kloos.kloosterman.calls", "kloos.rows.hit_ratio",
                   "cyclo.mul.calls", "cyclo.from_power_counts.calls",
                   "padic.gamma_p.calls", "padic.gamma_p.iters"),
}


class BenchError(RuntimeError):
    """The benchmark cannot finish: bad arguments, no reference, no trace,
    or the time limit."""


# ---------------------------------------------------------------- inputs

def _mulmod(a: list[int], b: list[int], f: tuple[int, ...], p: int) -> list[int]:
    n = len(f) - 1
    acc = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                acc[i + j] += ai * bj
    for d in range(2 * n - 2, n - 1, -1):
        c = acc[d] % p
        if c:
            for j in range(n):
                acc[d - n + j] -= c * f[j]
    return [v % p for v in acc[:n]]


def _x_power(e: int, f: tuple[int, ...], p: int) -> list[int]:
    n = len(f) - 1
    out, base = [1] + [0] * (n - 1), [0, 1] + [0] * (n - 2)
    while e:
        if e & 1:
            out = _mulmod(out, base, f, p)
        base = _mulmod(base, base, f, p)
        e >>= 1
    return out


def _prime_factors(m: int) -> list[int]:
    out, f = [], 2
    while f * f <= m:
        if m % f == 0:
            out.append(f)
            while m % f == 0:
                m //= f
        f += 1
    return out + ([m] if m > 1 else [])


def primitive_moduli(p: int, n: int) -> list[tuple[int, ...]]:
    """Every monic primitive polynomial of degree n >= 2 over F_p.

    They are listed in ksum's default search order, constant term first, so
    the first is the modulus ksum picks by itself.  The search is done here,
    not by ksum, so that the inputs do not depend on the code measured.
    """
    q = p ** n
    radical = _prime_factors(q - 1)
    one = [1] + [0] * (n - 1)
    return [f for f in (tail + (1,) for tail in itertools.product(range(p), repeat=n))
            if f[0] and _x_power(q - 1, f, p) == one
            and all(_x_power((q - 1) // r, f, p) != one for r in radical)]


def fields(wl: Workload, seed: int) -> Iterator[str]:
    """The field specs of the run's sweeps, one per sweep.

    Seed 0 leaves the modulus to ksum's search every time.  Seed k > 0 passes
    the k-th primitive modulus (cycling) to the first sweep, the next one to
    the second, and so on, so that a run's median covers several moduli.
    """
    if seed < 0:
        raise BenchError(f"seed must be >= 0, got {seed}")
    field = f"p={wl.p},n={wl.n}"
    if not seed:
        return itertools.repeat(field)
    mods = primitive_moduli(wl.p, wl.n)
    start = (seed - 1) % len(mods)
    return (field + ",mod=" + ",".join(map(str, mods[(start + i) % len(mods)]))
            for i in itertools.count())


def commands(wl: Workload, field: str, which: str, jobs1: bool = False) -> list[list[str]]:
    """The workload's CLI argument lists, with the field spec filled in."""
    zero = ",".join(["0"] * wl.n)
    out = []
    for cmd in getattr(wl, which):
        args = [field if w == FIELD else zero if w == ZERO else w for w in cmd]
        if jobs1 and "--jobs" in args:
            args[args.index("--jobs") + 1] = "1"
        out.append(args)
    return out


# ---------------------------------------------------------------- runs

@dataclass
class Run:
    wall_s: float
    cpu_s: float
    maxrss_kb: int
    exit: int
    stdout: bytes


def calibrate(cpus: list[int]) -> float:
    """Time of the calibration loop: the median of CAL_REPEATS on each CPU,
    averaged over the CPUs.  Leaves this process pinned to `cpus`."""
    per_cpu = []
    for cpu in cpus:
        os.sched_setaffinity(0, {cpu})
        times = []
        for _ in range(CAL_REPEATS):
            t0 = time.perf_counter()
            for _ in range(CAL_LOOPS):
                _x_power(CAL_EXP, CAL_POLY, 3)
            times.append(time.perf_counter() - t0)
        per_cpu.append(statistics.median(times))
    os.sched_setaffinity(0, cpus)
    return statistics.fmean(per_cpu)


class Pinned:
    """Runs programs on fixed CPUs, with a calibration between each two."""

    def __init__(self, cpus: list[int]):
        self.cpus = cpus
        self.last = calibrate(cpus)

    def run(self, args: list[str], deadline: float) -> tuple[Run, float]:
        """One program run, and the factor that scales its times to the
        reference processor, from the calibrations just before and after it."""
        before = self.last
        run = spawn(args, deadline)
        self.last = calibrate(self.cpus)
        return run, 2 * CAL_REF_S / (before + self.last)


def spawn(args: list[str], deadline: float, script: list[str] = KSUM) -> Run:
    """Run one program to exit; time it and read its tree's resource use.

    os.wait4 returns the rusage of this child alone, including the workers
    it reaped, so every run gets its own peak RSS and CPU time.
    """
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    with tempfile.TemporaryFile(dir=WORK) as out, tempfile.TemporaryFile(dir=WORK) as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, *script, *args], cwd=ROOT, env=env,
                                stdout=out, stderr=err, start_new_session=True)
        timer = threading.Timer(max(0.0, deadline - time.monotonic()),
                                os.killpg, (proc.pid, signal.SIGKILL))
        timer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        if time.monotonic() >= deadline:
            raise BenchError(f"time limit reached during: ksum {' '.join(args)}")
        out.seek(0)
        return Run(wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss,
                   proc.returncode, out.read())


def summary_of(stdout: bytes) -> dict:
    """The parts of a report that do not depend on the field's modulus."""
    lines = stdout.decode(errors="replace").splitlines()
    last = lines[-1] if lines else ""
    if last.startswith("{"):
        try:
            s = json.loads(last)
            return {"verdict": "FAIL" if s["failures"] else "PASS",
                    "total": s["total"], "histogram": s["histogram"]}
        except (ValueError, KeyError):
            pass
    m = re.fullmatch(r"(PASS|FAIL) total=(\d+)( failures=\d+)?", last)
    if m:
        hist = {}
        for line in lines:
            h = re.fullmatch(r"count\[(.*)\] = (\d+)", line)
            if h:
                hist[h[1]] = int(h[2])
        return {"verdict": m[1], "total": int(m[2]), "histogram": hist or None}
    # a single-value command (kloosterman): all of it is invariant
    return {"stdout_sha256": hashlib.sha256(stdout).hexdigest()}


def reference_of(run: Run) -> dict:
    return {"sha256": hashlib.sha256(run.stdout).hexdigest(), "exit": run.exit,
            **summary_of(run.stdout)}


def matches(run: Run, ref: dict, seed: int) -> bool:
    got = reference_of(run)
    if seed == 0:
        return all(got.get(k) == ref.get(k) for k in ("sha256", "exit", "total"))
    return got["exit"] == ref["exit"] and all(
        got[k] == ref.get(k) for k in got if k not in ("sha256", "exit"))


def load_reference(name: str) -> dict:
    if not REFERENCE.is_file():
        raise BenchError(f"missing {REFERENCE.relative_to(ROOT)}; run with --record")
    return json.loads(REFERENCE.read_text())[name]


# ---------------------------------------------------------------- modes

class Checker:
    """Counts attempts and output mismatches."""

    def __init__(self, ref: dict, seed: int):
        self.ref, self.seed = ref, seed
        self.attempted = self.failed = 0

    def check(self, run: Run, which: str, i: int) -> None:
        self.attempted += 1
        if not matches(run, self.ref[which][i], self.seed):
            self.failed += 1
            print(f"output mismatch: {which} command {i}, exit {run.exit}",
                  file=sys.stderr)


def measure(name: str, seed: int, seconds: float, deadline: float) -> dict:
    wl = WORKLOADS[name]
    checker = Checker(load_reference(name), seed)
    pinned = Pinned(sorted(os.sched_getaffinity(0))[:wl.jobs])
    setup_cmds = commands(wl, next(fields(wl, seed)), "setup")

    setups = []
    for _ in range(SETUP_REPEATS):
        total = 0.0
        for i, args in enumerate(setup_cmds):
            run, scale = pinned.run(args, deadline)
            checker.check(run, "setup", i)
            total += run.wall_s * scale
        setups.append(total)

    walls, cpu_s, rss, raw = [], [], [], []
    stop = time.monotonic() + seconds
    last = 0.0
    for field in fields(wl, seed):
        if len(walls) >= MIN_SWEEPS and time.monotonic() + last > stop:
            break
        t0 = time.monotonic()
        wall = cpu = 0.0
        peak = 0
        for i, args in enumerate(commands(wl, field, "sweep")):
            run, scale = pinned.run(args, deadline)
            checker.check(run, "sweep", i)
            wall += run.wall_s * scale
            cpu += run.cpu_s * scale
            peak = max(peak, run.maxrss_kb)
            raw.append(run.wall_s)
        last = time.monotonic() - t0
        walls.append(wall)
        cpu_s.append(cpu)
        rss.append(peak / 1024)
    print(f"{name} seed {seed}: {len(walls)} sweeps on CPUs {pinned.cpus}; scaled wall "
          f"{[round(w, 3) for w in walls]}; raw wall {[round(w, 3) for w in raw]}; "
          f"scaled setup {[round(s, 3) for s in setups]}", file=sys.stderr)
    metrics = {
        "wall_s": (statistics.median(walls), "s"),
        "setup_s": (statistics.median(setups), "s"),
        "cpu_s": (statistics.median(cpu_s), "s"),
        "peak_rss_mb": (statistics.median(rss), "MB"),
    }
    return result(checker, metrics, True)


def traced_run(args: list[str], deadline: float, tag: str) -> tuple[Run, dict]:
    path = WORK / f"trace-{tag}.json"
    path.unlink(missing_ok=True)
    run = spawn(args, deadline, script=[str(HERE / "tracer.py"), str(path)])
    if not path.is_file():
        raise BenchError(f"traced run wrote no trace: ksum {' '.join(args)}")
    return run, json.loads(path.read_text())


def layer_metrics(traces: list[dict]) -> dict:
    """Sum the per-command traces into the per-layer metrics."""
    counts, span_s, self_s = {}, {}, {}
    for t in traces:
        for src, dst in ((t["counts"], counts), (t["span_s"], span_s),
                         (t["self_s"], self_s)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
    computed = sum(t["rows"]["computed"] for t in traces)
    hits = sum(t["rows"]["hits"] for t in traces)
    out = {}
    for metric in PER_LAYER:
        base, _, kind = metric.rpartition(".")
        if kind == "calls":
            out[metric] = counts.get(base, 0)
        elif kind == "s":
            out[metric] = span_s.get(base, 0.0)
        elif kind == "self_s":
            out[metric] = self_s.get(base, 0.0)
        else:                          # counters named in full: iters, bytes
            out[metric] = counts.get(metric, 0)
    out.update({
        "kloos.rows.computed": computed,
        "kloos.rows.hit_ratio": hits / (hits + computed) if hits + computed else 0.0,
        "cli.import.s": sum(t["import_s"] for t in traces),
    })
    return out


def trace(name: str, seed: int, deadline: float, tag: str = "") -> tuple[dict, dict]:
    """One untraced and one traced run of the workload, both at --jobs 1.

    Returns the result and where each wrapper was installed.
    """
    wl = WORKLOADS[name]
    checker = Checker(load_reference(name), seed)
    untraced = traced = 0.0
    traces = []
    for i, args in enumerate(commands(wl, next(fields(wl, seed)), "sweep", jobs1=True)):
        run = spawn(args, deadline)
        checker.check(run, "sweep", i)
        untraced += run.wall_s
        run, t = traced_run(args, deadline, f"{name}-{i}{tag}")
        checker.check(run, "sweep", i)
        traced += run.wall_s
        traces.append(t)
    values = layer_metrics(traces)
    values["trace.overhead"] = traced / untraced
    idle = [m for m in DRIVES[name] if not values[m]]
    if idle:
        print(f"counters left at zero on {name}: {idle}", file=sys.stderr)
    metrics = {m: (values[m], unit) for m, unit in PER_LAYER.items()}
    return result(checker, metrics, not idle), traces[0]["installed"]


def result(checker: Checker, metrics: dict, ok: bool) -> dict:
    return {
        "correct": ok and checker.failed == 0,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def record(deadline: float) -> None:
    """Write the seed-0 reference outputs of every workload."""
    ref = {}
    for name, wl in WORKLOADS.items():
        ref[name] = {which: [reference_of(spawn(args, deadline))
                             for args in commands(wl, next(fields(wl, 0)), which)]
                     for which in ("sweep", "setup")}
    REFERENCE.write_text(json.dumps(ref, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--record", action="store_true",
                    help="rewrite the reference outputs from seed 0 and exit")
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "ksum" / "cli.py").is_file():
        print(f"error: no ksum sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORK.mkdir(exist_ok=True)
    try:
        if args.record:
            record(time.monotonic() + 600)
            return 0
        if args.workload is None:
            ap.error("--workload is required")
        deadline = time.monotonic() + RUN_LIMIT_S
        if args.trace:
            res, _ = trace(args.workload, args.seed, deadline)
        else:
            res = measure(args.workload, args.seed, args.seconds, deadline)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    print(json.dumps(res))
    return 0


if __name__ == "__main__":
    sys.exit(main())
