"""dpk benchmark: three closed-loop workloads with one caller each.

    python3 perfbench/run.py --workload {solver,geometry,api} --seed N \\
        --seconds S --trace {0,1}
    python3 perfbench/run.py --sweep [--seed N]

Run it from the root of a checkout: dpk is imported from ``src``.  Each run
starts one worker interpreter (``worker.py``) with ``OPENBLAS_NUM_THREADS``
(and the OpenMP/MKL equivalents) set to ``BLAS_THREADS``.  It runs the
workload in passes and, between passes, starts a fresh interpreter that
times ``import dpk`` plus building the workload's suite configs
(``setup_s`` is their median) and cold ``python -m dpk`` launches
(``cli_cold_s``).

Workloads (desk scale: head 24, period 3):

* ``solver``: the ``separation`` and ``automorphism`` suites, where the
  derivation-norm solver in ``autos`` does most of the work.  No projection
  or topology code runs in its main part.
* ``geometry``: the ``index``, ``index-additivity``, ``geodesic`` and
  ``topology`` suites: projection validation, grid alignment (mostly
  same-grid ``expand`` calls) and unitary loops.  No derivation norm runs
  in its main part.  Its ``trials_per_s`` counts the three suites called in
  rounds; topology is one call per run and has only its own metric.
* ``api``: a stream of library requests, each parsing two operands of
  different periods from JSON, making one public call and serializing the
  answer (see ``api_stream.py``).

Suite calls use seeds derived from ``--seed`` and the call number, so no
two calls in a run share inputs.  Every workload is a fixed set of items;
the worker makes passes over them for ``--seconds`` (at least
``worker.MIN_PASSES``) and timings use each item's median run.  Topology is
the exception: one call per run, because its trial 0 runs a 343-loop sweep
that every call would repeat, so ``ms_per_trial.topology`` is comparable
only at the fixed trial count in ``worker.CHUNK_TRIALS``.  Every workload
reports every end-to-end metric: the suites and requests outside its main
part run as fixed-size probes.

With ``--trace 0`` the last stdout line carries the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics (``tracer.py``) of one
traced pass over the main part, run between two untraced passes of the same
work; all three must give identical report digests.  The line before it
records the machine, the digests and any failure notes.  ``--sweep`` prints
the ms/trial of all 17 suites instead; it is not part of the workloads.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
BLAS_THREADS = 1
CHILD_TIMEOUT_S = 170

END_TO_END = (
    "setup_s", "trials_per_s",
    "ms_per_trial.separation", "ms_per_trial.automorphism", "ms_per_trial.index",
    "ms_per_trial.index-additivity", "ms_per_trial.geodesic", "ms_per_trial.topology",
    "requests_per_s", "request_ms_p50", "request_ms_p90", "cli_cold_s",
    "success_ratio", "peak_rss_mb",
)


def child_env(root):
    env = dict(os.environ)
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    return env


def run_child(args, env, cwd, deadline):
    """Run worker.py with the given arguments; return its parsed last line."""
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run([sys.executable, os.path.join(HERE, "worker.py"), *args],
                          cwd=cwd, env=env, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"worker {args[0]} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def machine(worker_libs):
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "blas_threads": BLAS_THREADS,
            "platform": platform.platform(), **worker_libs}


def run_workload(args, root):
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    env = child_env(root)
    scratch = os.path.join(root, ".perfbench_tmp")
    os.makedirs(scratch, exist_ok=True)
    workdir = tempfile.mkdtemp(dir=scratch)
    try:
        out = run_child(["run", "--workload", args.workload, "--seed", str(args.seed),
                         "--seconds", str(args.seconds), "--trace", str(args.trace),
                         "--workdir", workdir], env, root, deadline)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            os.rmdir(scratch)
        except OSError:
            pass
    metrics = out["metrics"]
    if not args.trace:
        metrics["success_ratio"] = {
            "value": (out["attempted"] - out["failed"]) / out["attempted"], "unit": "ratio"}
        metrics = {k: metrics[k] for k in END_TO_END}
    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": machine(out["libs"]),
              "digests": out["digests"], "failures": out["failures"]}
    detail.update((key, out[key]) for key in ("digests_equal", "passes") if key in out)
    print(json.dumps(detail, sort_keys=True))
    print(json.dumps({"correct": out["correct"], "attempted": out["attempted"],
                      "failed": out["failed"], "metrics": metrics}))


def run_sweep(args, root):
    deadline = time.monotonic() + 3600
    out = run_child(["sweep", "--seed", str(args.seed)], child_env(root), root, deadline)
    out["machine"] = machine(out.pop("libs"))
    print(json.dumps(out, indent=1, sort_keys=True))


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=("solver", "geometry", "api"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sweep", action="store_true",
                        help="one-shot ms/trial of every suite; not part of the workloads")
    args = parser.parse_args()
    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "dpk", "__init__.py")):
        sys.exit("perfbench: run from the root of a dpk checkout (src/dpk not found)")
    if args.sweep:
        run_sweep(args, root)
    elif args.workload:
        run_workload(args, root)
    else:
        parser.error("give --workload or --sweep")


if __name__ == "__main__":
    main()
