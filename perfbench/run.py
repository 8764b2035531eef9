"""msvdd benchmark: one command for the cv_grid, exact_certify and large_fit workloads.

    python3 perfbench/run.py --workload cv_grid --seed 0 --seconds 36 --trace 0

Run it from the root of a source checkout; it imports ``msvdd`` from the
checkout's ``src/`` and fails when that is missing.  With ``--trace 0`` it
runs untraced passes for about ``--seconds`` seconds, each timed against a
speed sampler (``SpeedSampler``), and reports the end-to-end metrics; with
``--trace 1`` it runs one untraced and two traced passes and reports the
per-layer metrics.  Every pass is checked against the
answers in ``references.json``.  Human-readable lines come first; the last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Spans and the full result go to
``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import glob
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

WORKLOADS = ("cv_grid", "exact_certify", "large_fit")
# one BLAS thread: the closed loop has one caller, and a second thread only
# adds scheduling noise on the small matrices these solves use
BLAS_THREADS = 1
# set-up is timed in this process and in SETUP_PROBES fresh interpreters
SETUP_PROBES = 5
# the speed sampler runs one round of about 0.6 ms this often
SAMPLE_EVERY_S = 0.025
# and this many rounds back to back before and after each set-up sample
SETUP_ROUNDS = 40
# a round's time at the reference speed, about the median on the machine that
# recorded the baseline; wall_ref_s and setup_s are seconds at that speed
REF_ROUND_S = 0.0006
END_TO_END = (("wall_ref_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


def run_seconds():
    """The run length BENCHMARK.json declares, so a bare run matches the baseline."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)["run_seconds"]


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=run_seconds())
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="time import and set-up only, print it as JSON and exit")
    return ap.parse_args(argv)


def pin_blas_threads():
    """Set the BLAS thread count before numpy is first imported."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def blas_threads_in_use():
    import ctypes

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), "..", "numpy.libs",
                                  "libscipy_openblas*"))
    for path in libs:
        try:
            fn = getattr(ctypes.CDLL(path), "scipy_openblas_get_num_threads64_")
        except (OSError, AttributeError):
            continue
        fn.restype = ctypes.c_int
        return fn()
    return None


def git_commit():
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30)
    except OSError:
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def source_digest():
    h = hashlib.sha256()
    for path in sorted(glob.glob(os.path.join(SRC, "msvdd", "*.py"))):
        h.update(os.path.basename(path).encode())
        with open(path, "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()[:16]


def provenance(args, workload, inputs):
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload,
        "seed": args.seed,
        "inputs": workload.describe(inputs),
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": blas_threads_in_use(),
        "git_commit": git_commit(),
        "source_sha256_16": source_digest(),
        "machine": platform.machine(),
    }


class SpeedSampler:
    """Times one fixed round of work every SAMPLE_EVERY_S seconds during a pass.

    The speed of the machine drifts by up to 40% over seconds to minutes.  A
    SIGALRM handler runs the round in this thread, on the same CPU as the
    workload, so the mean round time tracks the speed the pass ran at.  The
    rounds take about 2% of the pass; ``work_s`` is the pass without them.
    ``measure`` runs rounds back to back, to time the speed around a set-up.
    """

    def __init__(self):
        import numpy

        self.numpy = numpy
        small = numpy.random.default_rng(0).standard_normal((30, 30))
        self.small = small @ small.T
        self.rounds = []

    def _round(self, signum, frame):
        t = time.perf_counter()
        # small mat-vecs and interpreter work: the mix the solver runs
        a = self.numpy.full(30, 1 / 30)
        for _ in range(100):
            a = self.small @ a
            a = a / a.sum()
            s = 0.0
            for i in range(20):
                s += i * 0.5
        self.rounds.append(time.perf_counter() - t)

    def measure(self):
        self.rounds = []
        for _ in range(SETUP_ROUNDS):
            self._round(None, None)
        return self.round_s()

    def __enter__(self):
        self.rounds = []
        signal.signal(signal.SIGALRM, self._round)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def work_s(self, wall):
        return wall - sum(self.rounds)

    def round_s(self):
        if not self.rounds:
            raise RuntimeError("the speed sampler ran no round during a pass")
        return statistics.fmean(self.rounds)


def probe_setup(args):
    cmd = [sys.executable, os.path.abspath(__file__), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-probe"]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def main(argv=None):
    args = parse_args(argv)
    pin_blas_threads()
    if not os.path.isfile(os.path.join(SRC, "msvdd", "__init__.py")):
        print(f"perfbench: no msvdd sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    os.makedirs(OUT, exist_ok=True)

    t_origin = time.perf_counter()
    sys.path.insert(0, SRC)
    import msvdd

    if not os.path.abspath(msvdd.__file__).startswith(SRC + os.sep):
        print(f"perfbench: imported msvdd from {msvdd.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import layers
    import workloads
    from tracer import PHASE_A, PHASE_B, PHASE_SETUP, Tracer

    workload = workloads.make(args.workload, OUT)
    tracer = None
    if args.trace:
        tracer = Tracer()
        layers.instrument(tracer)
    t_setup = time.perf_counter()
    inputs = workload.setup(args.seed)
    t_ready = time.perf_counter()
    if args.setup_probe:
        print(json.dumps({"setup_s": t_ready - t_origin}))
        return 0

    with open(os.path.join(HERE, "references.json")) as fh:
        refs = json.load(fh)
    chk = workloads.Checker(refs)
    prov = provenance(args, workload, inputs)
    print("provenance: " + json.dumps(prov, sort_keys=True))

    def timed_pass(tr=None, sampler=None):
        with sampler or contextlib.nullcontext():
            result = workload.run_pass(inputs, tr)
        workload.check(inputs, result.outcome, refs, chk)
        return result

    report = {"provenance": prov}
    if not args.trace:
        # the set-up probes are spread between the passes, so that their
        # median covers the whole run and not one moment of machine speed
        sampler = SpeedSampler()

        def probe_sample():
            """Raw set-up seconds of a fresh interpreter, and at the reference speed."""
            before = sampler.measure()
            seconds = probe_setup(args)
            return seconds, seconds * REF_ROUND_S / ((before + sampler.measure()) / 2)

        # this process's own set-up can only be followed by a speed measure
        own = t_ready - t_origin
        setups = [(own, own * REF_ROUND_S / sampler.measure()), probe_sample()]
        walls, ref_walls, round_s = [], [], []
        start = time.perf_counter()
        while True:
            wall = timed_pass(sampler=sampler).wall_s
            walls.append(wall)
            # the pass without the sampler's rounds, at the reference speed
            round_s.append(sampler.round_s())
            ref_walls.append(sampler.work_s(wall) * REF_ROUND_S / round_s[-1])
            if len(setups) <= SETUP_PROBES:
                setups.append(probe_sample())
            # stop before a pass that would end after the measuring budget
            if time.perf_counter() - start + statistics.median(walls) > args.seconds:
                break
        setups += [probe_sample() for _ in range(SETUP_PROBES + 1 - len(setups))]
        metrics = {
            "wall_ref_s": statistics.median(ref_walls),
            "setup_s": statistics.median([ref for _, ref in setups]),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        report.update(wall_s=statistics.median(walls), pass_walls_s=walls,
                      pass_wall_ref_s=ref_walls, pass_round_s=round_s,
                      setups_raw_s=[raw for raw, _ in setups],
                      setups_ref_s=[ref for _, ref in setups])
        print(f"passes: {len(walls)}  wall_s per pass: "
              + " ".join(f"{w:.4f}" for w in walls)
              + f"  (median {statistics.median(walls):.4f})")
        print("wall_ref_s per pass: " + " ".join(f"{r:.4f}" for r in ref_walls))
        print("sampler round_ms per pass: " + " ".join(f"{r * 1e3:.4f}" for r in round_s))
        print("setup_s samples, raw: " + " ".join(f"{raw:.4f}" for raw, _ in setups)
              + "  at reference speed: " + " ".join(f"{ref:.4f}" for _, ref in setups))
    else:
        tracer.uninstall()
        phase_walls = {PHASE_SETUP: t_ready - t_setup}
        untraced = timed_pass()
        traced = []
        repeats = {}
        for phase in (PHASE_A, PHASE_B):
            tracer.phase_id = phase
            layers.instrument(tracer)
            try:
                traced.append(timed_pass(tracer))
            finally:
                tracer.uninstall()
            phase_walls[phase] = traced[-1].wall_s
            repeats[phase] = layers.repeat_counters(tracer, phase)
        metrics = layers.per_layer(
            tracer, phase_walls, untraced.wall_s, [r.wall_s for r in traced],
            workload.layer_extras(traced[0].outcome),
        )
        units = dict(layers.PER_LAYER)
        same = repeats[PHASE_A] == repeats[PHASE_B]
        print("counter repeat check: " + ("identical" if same else "DIFFERENT")
              + " across two traced passes: "
              + json.dumps({k: [repeats[PHASE_A][k], repeats[PHASE_B][k]]
                            for k in layers.REPEAT_COUNTERS}))
        path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.csv.gz")
        n_spans = tracer.write(path, t_origin)
        print(f"spans: {n_spans} written to {os.path.relpath(path, ROOT)}")
        report.update(counter_repeat=same, counters=repeats[PHASE_A])

    if set(metrics) != set(units):
        raise RuntimeError(f"metrics and declared units differ: {set(metrics) ^ set(units)}")
    correct = not chk.failed and report.get("counter_repeat", True)
    print(f"failed_frac: {len(chk.failed)}/{chk.attempted} = "
          f"{len(chk.failed) / max(chk.attempted, 1):.4f} "
          f"(operations: cv cells, exact instances, or large fits)")
    for line in chk.failed:
        print("FAILED " + line)
    for name, value in metrics.items():
        print(f"{name:32s} {value:16.6f} {units[name]}")

    result = {
        "correct": correct,
        "attempted": chk.attempted,
        "failed": len(chk.failed),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    report.update(result, failures=chk.failed)
    path = os.path.join(OUT, f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
