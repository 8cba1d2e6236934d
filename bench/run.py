"""logvor benchmark: three workloads, end-to-end metrics, outside-in tracing.

Run from the root of a logvor checkout (the package is imported from
``src/``):

    python3 bench/run.py --workload membership-mc --seed 1 --seconds 25 --trace 0

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones listed in
``BENCHMARK.json``; with ``--trace 1`` they are the per-layer ones,
taken from a traced replay of the same operations, and the spans are
written to ``bench/out/``.

    python3 bench/run.py --self-check   # short run of every workload, oracle tests
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

# One caller on tiny matrices: BLAS worker threads only add scheduling noise.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np  # noqa: E402  (after the thread setting, which numpy reads on import)

from hostspeed import Sampler, slowness_now  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")
PINNED = os.path.join(BENCH, "pinned.json")
SETUP_PROBES = 11


def load_logvor():
    """Import logvor from this checkout's ``src``; exit with an error when it is missing."""
    src = os.path.join(ROOT, "src")
    if not os.path.isfile(os.path.join(src, "logvor", "__init__.py")):
        sys.exit(f"bench: no logvor package under {src}")
    if src not in sys.path:
        sys.path.insert(0, src)
    import logvor
    import logvor.cli  # noqa: F401  (the CLI module is not imported by the package)
    if not os.path.abspath(logvor.__file__).startswith(src + os.sep):
        sys.exit(f"bench: imported logvor from {logvor.__file__}, not from {src}")
    return logvor


def environment() -> dict:
    """Python, numpy, BLAS and thread settings of this run."""
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    threads = None
    for lib in glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir,
                                      "numpy.libs", "*openblas*.so*")):
        for sym in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                    "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                fn.argtypes = []
                threads = fn()
                break
    return {"python": platform.python_version(), "numpy": np.__version__,
            "blas": f"{blas.get('name')} {blas.get('version')}",
            "blas_threads": threads,
            "thread_env": {k: os.environ.get(k) for k in (
                "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
            "nproc": len(os.sched_getaffinity(0)),
            "machine": platform.machine()}


@dataclass
class Phase:
    """Outcomes of the operations run in one timed phase."""

    latencies: list[float] = field(default_factory=list)
    kinds: list[str] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    rounds: list[list] = field(default_factory=list)
    sampler: Sampler | None = None      # host-speed samples, if taken
    failed: int = 0
    wrong: list[str] = field(default_factory=list)

    def scaled(self) -> np.ndarray:
        """Latencies scaled to the reference host (see ``hostspeed``)."""
        return self.sampler.scale(self.starts, self.latencies)


def run_phase(rounds, seconds: float, tracer=None, keep=False, between=None,
              sample=False) -> Phase:
    """Run whole rounds, closed loop, until ``seconds`` of wall time have passed.

    Each operation's call is timed on its own; its oracle runs after the
    clock stops.  A round that starts before the deadline is finished.
    With ``sample``, host-speed samples are taken throughout, except
    during ``between``, and their time is taken out of the latencies.
    ``between(fraction)`` runs after each round but the last, with the
    share of ``seconds`` used so far; its own time does not count.
    """
    from workloads import SolverFailure, WrongAnswer

    ph = Phase(sampler=Sampler() if sample else None)
    t0 = time.perf_counter()
    paused = 0.0
    spent = 0.0
    if sample:
        ph.sampler.start()
    try:
        for ops in rounds:
            for op in ops:
                if tracer is not None:
                    tracer.op_id = len(ph.latencies)
                if sample:
                    spent = ph.sampler.spent
                t = time.perf_counter()
                try:
                    out = op.call()
                except Exception as exc:    # judged by the oracle below
                    out = exc
                lat = time.perf_counter() - t
                if sample:
                    lat -= ph.sampler.spent - spent
                if tracer is not None:
                    tracer.op_id = -1
                ph.latencies.append(lat)
                ph.starts.append(t)
                ph.kinds.append(op.kind)
                try:
                    op.check(out)
                except SolverFailure as exc:
                    ph.failed += 1
                    if not op.may_fail:
                        ph.wrong.append(f"{op.kind}: solver failure: {exc}")
                except WrongAnswer as exc:
                    ph.failed += 1
                    ph.wrong.append(f"{op.kind}: {exc}")
                except Exception as exc:    # an oracle choking on the output
                    ph.failed += 1
                    ph.wrong.append(f"{op.kind}: oracle error {type(exc).__name__}: {exc}")
            if keep:
                ph.rounds.append(ops)
            elapsed = time.perf_counter() - t0 - paused
            if elapsed >= seconds:
                break
            if between is not None:
                t = time.perf_counter()
                if sample:
                    ph.sampler.stop()
                between(elapsed / seconds)
                if sample:
                    ph.sampler.start()
                paused += time.perf_counter() - t
    finally:
        if sample:
            ph.sampler.stop()
    return ph


def make_workload(lv, name: str, seed: int, workdir: str):
    from workloads import WORKLOADS

    with open(PINNED, encoding="utf-8") as fh:
        pinned = json.load(fh)
    return WORKLOADS[name](lv, seed, workdir, pinned)


def set_up(name: str, seed: int, workdir: str):
    """Import, generate the first round's inputs and warm up.

    Returns the workload and its first round.
    """
    wl = make_workload(load_logvor(), name, seed, workdir)
    first = wl.round()
    for op in wl.warmup():
        op.call()
    return wl, first


def probe_setup(name: str, seed: int, workdir: str) -> tuple[float, float]:
    """Wall time of a fresh process from its start until it is set up, and
    the host's slowness that the process measured right after."""
    t = time.perf_counter()
    with subprocess.Popen(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", name, "--seed", str(seed), "--workdir", workdir],
            stdout=subprocess.PIPE, cwd=ROOT, text=True) as proc:
        try:
            line = proc.stdout.readline()
            elapsed = time.perf_counter() - t
            slowness = proc.stdout.readline()
            proc.wait(timeout=120)
        except BaseException:
            proc.kill()
            raise
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {proc.returncode})")
    return elapsed, float(slowness)


def tail_mean(lat: np.ndarray, pct: float) -> float:
    """Mean latency of the operations at or beyond the ``pct`` percentile.

    Steadier than the percentile itself, which in a mix of operation
    kinds sits on the border between two kinds and jumps between them.
    """
    return float(lat[lat >= np.percentile(lat, pct)].mean())


def end_to_end(wl, ph: Phase, setup: list[tuple[float, float]]) -> dict:
    """End-to-end metrics; operation times are scaled to the reference host."""
    n = len(ph.latencies)
    lat = ph.scaled()
    return {
        "setup_s": (statistics.median([raw / slow for raw, slow in setup]), "s"),
        "ops_per_s": (n / lat.sum(), "1/s"),
        "op_p50_ms": (1e3 * np.percentile(lat, 50), "ms"),
        "op_tail_ms": (1e3 * tail_mean(lat, wl.tail_pct), "ms"),
        "ok_frac": ((n - ph.failed) / n, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def median_ms_by_kind(ph: Phase) -> dict[str, float]:
    groups: dict[str, list[float]] = {}
    for kind, lat in zip(ph.kinds, ph.latencies):
        groups.setdefault(kind, []).append(lat)
    return {kind: 1e3 * statistics.median(v) for kind, v in groups.items()}


def per_layer(plain: Phase, traced: Phase, tracer) -> tuple[dict, dict]:
    from tracer import NAMES, TRACED, calls_by_kind, span_stats

    cols = tracer.columns()
    st = span_stats(cols)
    n = len(traced.latencies)
    op_ns = 1e9 * sum(traced.latencies)
    metrics = {}
    for i, name in enumerate(NAMES):
        metrics[f"{name}.calls_per_op"] = (st["calls"][i] / n, "count")
        metrics[f"{name}.self_ms_per_op"] = (st["self_ns"][i] / 1e6 / n, "ms")
    for layer in TRACED:
        ids = [i for i, name in enumerate(NAMES) if name.startswith(layer + ".")]
        metrics[f"{layer}.self_share"] = (sum(st["self_ns"][i] for i in ids) / op_ns,
                                          "ratio")
    metrics["cells.sample_spectrahedron.accept_ratio"] = (st["accept_ratio"], "ratio")
    metrics["mle.critical_points.points_per_call"] = (st["points_per_call"], "count")
    metrics["trace.overhead_ratio"] = (sum(traced.latencies) / sum(plain.latencies),
                                       "ratio")
    return metrics, calls_by_kind(cols, traced.kinds)


def run(name: str, seed: int, seconds: float, trace: bool, probes: int = SETUP_PROBES,
        max_ops: int | None = None) -> dict:
    """One benchmark run; returns the result object printed as the last line."""
    load_logvor()
    os.makedirs(OUT, exist_ok=True)
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    try:
        setup = []

        def probe_until(count):
            while len(setup) < count:
                setup.append(probe_setup(name, seed, workdir))

        # The probes are spread over the timed phase, so that set-up is
        # measured at the same machine speed as the operations.
        if not trace:
            probe_until(1)
        wl, first = set_up(name, seed, workdir)
        rounds = itertools.chain([first], iter(wl.round, None))
        if max_ops is not None:
            rounds = (ops[:max_ops] for ops in rounds)
        env = environment()
        print("env " + json.dumps(env), flush=True)
        if not trace:
            ph = run_phase(rounds, seconds, sample=True,
                           between=lambda frac: probe_until(1 + int((probes - 1) * frac)))
            probe_until(probes)
            metrics = end_to_end(wl, ph, setup)
            raw = np.asarray(ph.latencies)
            beyond = int((raw >= np.percentile(raw, wl.tail_pct)).sum())
            print(f"{name}: {len(ph.latencies)} ops in whole rounds; "
                  f"op_tail_ms is the mean of the {beyond} ops at or beyond p{wl.tail_pct}; "
                  f"set-up samples {[round(raw, 3) for raw, _ in setup]} s unscaled, "
                  f"host speed {[round(1 / slow, 3) for _, slow in setup]}; "
                  f"host speed {ph.sampler.speed():.3f} of the reference from "
                  f"{len(ph.sampler.slowness)} samples; unscaled: "
                  f"ops_per_s {len(raw) / raw.sum():.6g}, "
                  f"op_p50_ms {1e3 * np.percentile(raw, 50):.6g}", flush=True)
        else:
            from tracer import Tracer

            ph0 = run_phase(rounds, seconds / 2, keep=True)
            tracer = Tracer()
            tracer.install()
            try:
                ph = run_phase(iter(ph0.rounds), float("inf"), tracer=tracer)
            finally:
                tracer.uninstall()
            ph.wrong += ph0.wrong
            metrics, by_kind = per_layer(ph0, ph, tracer)
            stem = os.path.join(OUT, f"trace-{name}-seed{seed}")
            tracer.save(stem + ".npz")
            with open(stem + ".json", "w", encoding="utf-8") as fh:
                json.dump({"env": env, "untraced_median_ms_by_kind": median_ms_by_kind(ph0),
                           "calls_per_op_by_kind": by_kind}, fh, indent=1, sort_keys=True)
            print(f"{name}: traced {len(ph.latencies)} ops; spans in {stem}.npz, "
                  f"calls per op kind in {stem}.json", flush=True)
        for msg in ph.wrong[:10]:
            print(f"WRONG {msg}", file=sys.stderr)
        return {"correct": not ph.wrong, "attempted": len(ph.latencies),
                "failed": ph.failed,
                "metrics": {k: {"value": float(v), "unit": u}
                            for k, (v, u) in metrics.items()}}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def self_check() -> int:
    """Oracles pass on real answers and reject corrupted ones; every named
    metric is printed with its unit in both modes."""
    from workloads import SolverFailure, WORKLOADS, WrongAnswer

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    lv = load_logvor()
    workdir = os.path.join(OUT, f"work-{os.getpid()}")
    os.makedirs(workdir, exist_ok=True)
    problems = []
    try:
        for name in WORKLOADS:
            wl = make_workload(lv, name, 7, workdir)
            for op in wl.round():
                try:
                    out = op.call()
                except Exception as exc:
                    out = exc
                try:
                    op.check(out)
                except SolverFailure:
                    if not op.may_fail:
                        problems.append(f"{op.kind}: unexpected solver failure")
                    continue
                except WrongAnswer as exc:
                    problems.append(f"{op.kind}: correct answer rejected: {exc}")
                    continue
                try:
                    op.check(op.corrupt(out))
                    problems.append(f"{op.kind}: corrupted answer accepted")
                except WrongAnswer:
                    pass
            print(f"self-check: {name} oracles done", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name in WORKLOADS:
        for trace, key in ((False, "end_to_end"), (True, "per_layer")):
            res = run(name, 7, 0.0, trace, probes=1, max_ops=3)
            want = {m["name"]: m["unit"] for m in spec[key]}
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != want:
                problems.append(f"{name} trace={trace}: metrics {sorted(set(got) ^ set(want))}"
                                f" missing or extra, or units differ")
            if not res["correct"]:
                problems.append(f"{name} trace={trace}: short run not correct")
        print(f"self-check: {name} metrics done", flush=True)
    for p in problems:
        print(f"FAIL {p}")
    print("self-check: " + ("FAILED" if problems else "passed"))
    return 1 if problems else 0


def main() -> int:
    sys.path.insert(0, BENCH)
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--self-check", action="store_true")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    p.add_argument("--workdir", help=argparse.SUPPRESS)
    args = p.parse_args()
    if args.self_check:
        return self_check()
    from workloads import WORKLOADS
    if args.workload not in WORKLOADS:
        p.error(f"--workload must be one of {', '.join(WORKLOADS)}")
    if args.setup_probe:
        set_up(args.workload, args.seed, args.workdir)
        print("ready", flush=True)
        print(slowness_now(), flush=True)
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
