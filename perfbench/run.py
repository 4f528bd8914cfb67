"""Benchmark of the dunkl_jacobi package: two workloads, run from outside.

Usage (from the repository root)::

    python3 perfbench/run.py --workload exact-ladder --seed 1 --seconds 45 --trace 0

One process drives each workload as a closed loop with one client.  A run
is whole rounds (see ``workloads.py``), at least ``--seconds`` long and at
least the workload's ``MIN_OPS`` operations.  Every output is checked
outside the timed region.  The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``, with the end-to-end
metrics under ``--trace 0`` and the per-layer metrics under ``--trace 1``.
See ``perfbench/README.md`` for what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads  # the script's own directory is first on sys.path

# One BLAS thread: the load is one client, and thread pools add noise.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(_var, "1")

HERE = Path(__file__).resolve().parent
SRC = workloads.SRC
OUT = HERE / "out"

SETUP_INTERVAL_S = 4.0  # a timed fresh-interpreter start at most this often
IMPORTTIME_STARTS = 5


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="internal: import the package, build round 0, print 'ready'")
    return ap.parse_args(argv)


# -- fresh-interpreter probes ---------------------------------------------------


def _spawn(argv, **kw):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    return subprocess.Popen(argv, cwd=workloads.ROOT, env=env, stdin=subprocess.DEVNULL, **kw)


class SetupProbe:
    """``setup_s``: time from spawning a fresh interpreter to its 'ready' line.

    The child imports ``dunkl_jacobi`` (with numpy and scipy) and builds the
    workload's first round of inputs.  One warm-up start comes first; the
    timed starts are spread through the run, one before the first operation
    that begins ``SETUP_INTERVAL_S`` or more after the last start, so that
    their median covers the whole run rather than one moment of it.
    """

    def __init__(self, workload: str, seed: int):
        self.argv = [sys.executable, str(HERE / "run.py"), "--setup-probe",
                     "--workload", workload, "--seed", str(seed)]
        self.times = []
        self.start_one()
        self.last = float("-inf")  # the first operation gets a timed start

    def start_one(self) -> float:
        start = time.perf_counter()
        proc = _spawn(self.argv, stdout=subprocess.PIPE)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != b"ready":
            raise RuntimeError(f"setup probe failed (exit {proc.returncode})")
        return elapsed

    def before_op(self):
        if time.perf_counter() - self.last >= SETUP_INTERVAL_S:
            self.times.append(self.start_one())
            self.last = time.perf_counter()

    def median(self) -> float:
        return statistics.median(self.times)


def parse_importtime(text: str) -> tuple:
    """``(dunkl_jacobi cumulative s, scipy cumulative s)`` from ``-X importtime``.

    The scipy figure adds up the outermost scipy entries: each entry's
    cumulative time already holds the scipy modules it imported.
    """
    pending = {}  # depth -> finished entries waiting for their parent
    for line in text.splitlines():
        if not line.startswith("import time:") or "|" not in line:
            continue
        _, cum, name = line.split("|")
        if not cum.strip().isdigit():
            continue  # the header line
        depth = (len(name) - len(name.lstrip()) - 1) // 2
        node = (name.strip(), int(cum) * 1e-6, pending.pop(depth + 1, []))
        pending.setdefault(depth, []).append(node)
    roots = [n for depth in sorted(pending) for n in pending[depth]]

    def scipy_time(nodes):
        return sum(cum if nm == "scipy" or nm.startswith("scipy.") else scipy_time(kids)
                   for nm, cum, kids in nodes)

    package = next((cum for nm, cum, _ in roots if nm == "dunkl_jacobi"), 0.0)
    return package, scipy_time(roots)


def time_imports() -> tuple:
    """Medians of ``startup.import_s`` and ``startup.scipy_s`` over fresh starts."""
    argv = [sys.executable, "-X", "importtime", "-c", "import dunkl_jacobi"]
    samples = []
    for _ in range(IMPORTTIME_STARTS + 1):
        proc = _spawn(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        _, err = proc.communicate(timeout=60)
        samples.append(parse_importtime(err.decode()))
    samples = samples[1:]
    return (statistics.median(s[0] for s in samples), statistics.median(s[1] for s in samples))


# -- the measured loop ------------------------------------------------------------


class Tally:
    """Latencies and outcomes of the operations of one run."""

    def __init__(self):
        self.latencies = []
        self.labels = []
        self.attempted = 0
        self.failed = 0
        self.incorrect = 0

    def add(self, seconds, outcome, label):
        self.latencies.append(seconds)
        self.labels.append(" ".join(label))
        self.attempted += 1
        if outcome.failed:
            self.failed += 1
        elif outcome.error:
            self.incorrect += 1
        if outcome.error:
            kind = "failed" if outcome.failed else "WRONG OUTPUT"
            print(f"perfbench: {kind}: {' '.join(label)}: {outcome.error}", file=sys.stderr)


def run_rounds(workload, seed, seconds, passes, min_ops=1, before_op=None):
    """Run whole rounds until ``seconds`` have passed and ``min_ops`` ops ran.

    ``passes`` is a list of ``(tally, run_op)``.  Each operation runs once
    per pass, back to back, with ``run_op(op_id, op) -> output`` timed, so
    the passes of one operation see the same machine state.  Returns the
    number of rounds.  ``before_op(index)``, if given, runs untimed before
    each operation.
    """
    start = time.perf_counter()
    rounds = 0
    while (rounds == 0 or time.perf_counter() - start < seconds
           or passes[0][0].attempted < min_ops):
        for i, op in enumerate(workloads.round_inputs(workload, seed, rounds)):
            if before_op is not None:
                before_op()
            for tally, run_op in passes:
                workload.reset()
                t0 = time.perf_counter()
                output = run_op(f"{rounds}.{i}", op)
                dt = time.perf_counter() - t0
                tally.add(dt, workload.check(op, output), op.get("argv") or [f"N={op['N']}"])
                del output
        rounds += 1
    return rounds


def end_to_end(workload, seed, seconds) -> tuple:
    setup = SetupProbe(workload.name, seed)
    tally = Tally()
    run_rounds(workload, seed, seconds, [(tally, lambda op_id, op: workload.run(op))],
               workload.MIN_OPS, setup.before_op)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    lat = tally.latencies
    tail = workload.TAIL_PERCENTILE
    metrics = {
        "setup_s": (setup.median(), "s"),
        "op_mean_s": (statistics.fmean(lat), "s"),
        "op_p50_s": (statistics.median(lat), "s"),
        "op_tail_s": (statistics.quantiles(lat, n=100, method="inclusive")[tail - 1], "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    print(f"perfbench: {workload.name} seed={seed}: {tally.attempted} ops, "
          f"{tally.failed} failed; tail is p{tail}; {len(setup.times)} timed starts",
          file=sys.stderr)
    return tally, metrics


def per_layer(workload, seed, seconds) -> tuple:
    """Traced run: each operation runs untraced, then traced on the same inputs."""
    import tracing

    plain, traced = Tally(), Tally()
    tracer = tracing.Tracer()

    def run_traced(op_id, op):
        with tracer:
            return tracer.run_op(op_id, workload.run, op)

    rounds = run_rounds(workload, seed, seconds,
                        [(plain, lambda op_id, op: workload.run(op)), (traced, run_traced)])
    OUT.mkdir(exist_ok=True)
    spans = tracer.spans
    tracing.write_spans(OUT / f"trace-{workload.name}-seed{seed}.jsonl", spans, tracer.rule_counts)
    totals = tracing.layer_totals(spans)
    import_s, scipy_s = time_imports()

    def calls(name):
        return totals.get(name, (0, 0.0))[0] / rounds

    def self_s(name):
        return totals.get(name, (0, 0.0))[1] / rounds

    hits, misses = tracer.rule_counts
    metrics = {
        "laurent.mul.calls": (calls("laurent.mul"), "count"),
        "laurent.mul.s": (self_s("laurent.mul"), "s"),
        "dunkl.apply.calls": (calls("dunkl.apply"), "count"),
        "dunkl.apply.s": (self_s("dunkl.apply"), "s"),
        "eigen.eigen_sequence.s": (self_s("eigen.eigen_sequence"), "s"),
        "eigen.residual.calls": (calls("eigen.residual"), "count"),
        "eigen.residual.s": (self_s("eigen.residual"), "s"),
        "weights.pearson_residual.calls": (calls("weights.pearson_residual"), "count"),
        "weights.pearson_residual.s": (self_s("weights.pearson_residual"), "s"),
        "quadrature.quadrature_rule.calls": (calls("quadrature.quadrature_rule"), "count"),
        "quadrature.quadrature_rule.hit_ratio": (hits / (hits + misses) if hits + misses else 0.0,
                                                 "ratio"),
        "quadrature.inner_product.calls": (calls("quadrature.inner_product"), "count"),
        "quadrature.inner_product.s": (self_s("quadrature.inner_product"), "s"),
        "quadrature.gram_matrix.s": (self_s("quadrature.gram_matrix"), "s"),
        "cli.main.s": (self_s("cli.main"), "s"),
        "startup.import_s": (import_s, "s"),
        "startup.scipy_s": (scipy_s, "s"),
        "trace.overhead_s": ((sum(traced.latencies) - sum(plain.latencies)) / rounds, "s"),
    }
    print(f"perfbench: {workload.name} seed={seed} traced: {rounds} round(s) of "
          f"{plain.attempted // rounds} ops, figures per round", file=sys.stderr)
    # Both passes count as attempts; the result file lists the traced latencies.
    traced.attempted += plain.attempted
    traced.failed += plain.failed
    traced.incorrect += plain.incorrect
    return traced, metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "dunkl_jacobi" / "__init__.py").is_file():
        print(f"perfbench: no package source at {SRC / 'dunkl_jacobi'}; "
              "run from the repository root of a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(1, str(SRC))
    workload = workloads.WORKLOADS[args.workload]
    if args.setup_probe:
        import dunkl_jacobi  # noqa: F401  (every workload's set-up pays this)

        workloads.round_inputs(workload, args.seed, 0)
        print("ready", flush=True)
        return 0
    run = per_layer if args.trace else end_to_end
    tally, metrics = run(workload, args.seed, args.seconds)
    result = {
        "correct": tally.incorrect == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    line = json.dumps(result)
    ops = [{"op": lab, "s": dt} for lab, dt in zip(tally.labels, tally.latencies)]
    (OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps({**result, "ops": ops}, indent=1) + "\n")
    for name, (value, unit) in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {unit}")
    print(f"{args.workload} attempted = {tally.attempted}, failed = {tally.failed}, "
          f"correct = {str(result['correct']).lower()}")
    print(line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
