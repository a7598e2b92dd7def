"""Child interpreter of the benchmark; ``run.py`` starts it with a fixed BLAS
thread count and ``src`` on ``PYTHONPATH``.  It prints one JSON line.

    worker.py setup --workload W --seed N
        import dpk and build the workload's suite configs; report both times.
    worker.py run --workload W --seed N --seconds S --trace 0|1 --workdir D
        run the workload and report its metrics; starts ``setup`` children
        and cold ``python -m dpk`` launches (with files in D) between passes.
    worker.py sweep --seed N
        ms/trial of every suite at desk scale, SWEEP_TRIALS trials each.

A workload is a fixed set of items (suite calls and requests, with inputs
from the seed): its main part, plus fixed-size probes of every measured
suite and of the request stream that the main part leaves out, so each run
reports every end-to-end metric.  A probe is compared only against the same
probe of the same workload.
"""

import argparse
import hashlib
import json
import os
import re
import resource
import statistics
import subprocess
import sys
import time

HEAD, PERIOD = 24, 3  # desk scale
# Trials per suite call.  Suites branch on trial % k, so a call's case mix
# depends on its trial count; each count is fixed so calls stay comparable.
CHUNK_TRIALS = {
    "separation": 6,
    "automorphism": 12,
    "index": 12,
    "index-additivity": 10,
    "geodesic": 10,
    # Trial 0 of topology runs a 343-loop injectivity sweep that costs about
    # as much as the next hundred trials, so topology is one call per run
    # and its ms/trial is comparable only at this trial count.
    "topology": 10,
}
MEASURED_SUITES = tuple(CHUNK_TRIALS)
# Suites that run one call per run, before the passes (see above).
ONCE = ("topology",)
# Main part of each workload: suites from ONCE, suites called in rounds (one
# call of each per round) and the request stream.  Every workload calls the
# suites in ONCE, as a probe where they are not in its main part.  The sizes
# are fixed, so counts and case mixes are identical between runs and commits;
# --seconds sets how many passes are made over the items.
WORKLOADS = {
    "solver": {"once": (), "loop": ("separation", "automorphism"), "rounds": 3,
               "requests": 0},
    "geometry": {"once": ("topology",), "loop": ("index", "index-additivity", "geodesic"),
                 "rounds": 6, "requests": 0},
    "api": {"once": (), "loop": (), "rounds": 0, "requests": 600},
}
# Probe calls per suite and probe requests.  The cost of a call varies from
# seed to seed (coefficient of variation about 0.07 for separation and
# index, 0.09 for automorphism, 0.13 for geodesic), so a probe has two or
# more calls, and more of the cheap ones; p90 of the probe requests has ten
# beyond it.  A pass over a workload's items, with the launches after it,
# takes 6-10 s on a 2-CPU Xeon VM, so a run makes three to five passes.
PROBE_CHUNKS = {
    "separation": 2,
    "automorphism": 3,
    "index": 3,
    "index-additivity": 3,
    "geodesic": 6,
    "topology": 1,
}
PROBE_REQUESTS = 100
# Every item outside ONCE runs once per pass, and passes repeat until
# --seconds have gone by, with at least MIN_PASSES.  Timings use each item's
# median run: on a shared machine, fast and slow phases come and go within a
# run, so the fastest of a few runs varies more from run to run than the
# median of all of them.
MIN_PASSES = 3
# Between passes the worker times one fresh interpreter's set-up and
# CLI_PER_PASS cold CLI launches, taking the commands in turn, so these
# samples are spread over the run like the items' are.
CLI_PER_PASS = 2
# A traced run times set-up this many times, with -X importtime.
SETUP_REPEATS = 5
SWEEP_TRIALS = 60


def chunk_seed(seed, suite, k):
    digest = hashlib.sha256(f"{seed}:{suite}:{k}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


class SuiteItem:
    __slots__ = ("suite", "k", "main", "times", "trials", "digest")

    def __init__(self, suite, k, main):
        self.suite, self.k, self.main = suite, k, main
        self.times, self.trials, self.digest = [], 0, None


class RequestItem:
    __slots__ = ("req", "times", "failed", "digest")

    def __init__(self, req):
        self.req = req
        self.times, self.failed, self.digest = [], False, None


class Run:
    """Executes work items, keeping every timing, failure and digest.

    An item's first execution is checked; a re-execution must reproduce the
    first report or response byte for byte and counts as failed otherwise.
    """

    def __init__(self, dpk, serial, api_stream, seed):
        self.dpk, self.serial, self.api_stream, self.seed = dpk, serial, api_stream, seed
        self.attempted = self.failed = 0
        self.notes = []

    def execute(self, item):
        if isinstance(item, SuiteItem):
            self._suite(item)
        else:
            self._request(item)

    def _suite(self, item):
        cfg = config(self.dpk, self.seed, item.suite, item.k)
        t0 = time.perf_counter()
        report = self.dpk.run_suite(cfg)
        item.times.append(time.perf_counter() - t0)
        digest = hashlib.sha256(report.to_json(no_meta=True).encode()).hexdigest()
        self.attempted += report.trials
        self.failed += report.failures
        if item.digest is None:
            item.digest, item.trials = digest, report.trials
            if report.failures:
                bad = [c for c in report.cases if not c["ok"]][:2]
                self.notes.append(f"{item.suite}/{item.k}: {report.failures} failed trials: {bad}")
        elif digest != item.digest:
            self.failed += 1
            self.notes.append(f"{item.suite}/{item.k}: rerun report digest differs")

    def _request(self, item):
        req = item.req
        dt, text, error = self.api_stream.serve_timed(self.dpk, self.serial, req)
        item.times.append(dt)
        self.attempted += 1
        digest = hashlib.sha256(text.encode()).hexdigest() if text is not None else error
        if item.digest is None:
            item.digest = digest
            problem = error or self.api_stream.verify(req, text)
            if problem:
                item.failed = True
                self.notes.append(f"request {req.index} ({req.kind}): {problem}")
        elif digest != item.digest:
            item.failed = True
            self.notes.append(f"request {req.index} ({req.kind}): rerun response differs")
        self.failed += item.failed

    def digests(self, items):
        out = {f"{it.suite}/{it.k}": it.digest for it in items if isinstance(it, SuiteItem)}
        responses = "".join(it.digest for it in items if isinstance(it, RequestItem))
        out["requests"] = hashlib.sha256(responses.encode()).hexdigest()
        return out


def plan(workload, probes=True):
    """([(suite, call number, main?), ...], number of requests) of a run."""
    spec = WORKLOADS[workload]
    suites = [(suite, 0, True) for suite in spec["once"]]
    suites += [(suite, k, True) for k in range(spec["rounds"]) for suite in spec["loop"]]
    if not probes:
        return suites, spec["requests"]
    for suite in MEASURED_SUITES:
        if suite not in spec["loop"] and suite not in spec["once"]:
            suites += [(suite, k, False) for k in range(PROBE_CHUNKS[suite])]
    return suites, spec["requests"] or PROBE_REQUESTS


def config(dpk, seed, suite, k):
    return dpk.ExperimentConfig(seed=chunk_seed(seed, suite, k), trials=CHUNK_TRIALS[suite],
                                head_size=HEAD, period=PERIOD, suite=suite)


def run_workload(run, workload, seconds=None, probes=True, between=None):
    """Run the suites in ONCE, then pass over the other items in a fixed order,
    calling ``between()`` after each pass.

    Passes repeat while a further pass, as long as the last one, would end
    within ``seconds`` of the start, and at least MIN_PASSES times; with
    ``seconds=None`` each item runs once.
    """
    start = time.perf_counter()
    suite_items, requests = plan(workload, probes)
    items = [SuiteItem(*args) for args in suite_items]
    items += [RequestItem(run.api_stream.make_request(run.seed, i)) for i in range(requests)]
    for item in items:
        if isinstance(item, SuiteItem) and item.suite in ONCE:
            run.execute(item)
    looped = [it for it in items if not (isinstance(it, SuiteItem) and it.suite in ONCE)]
    passes = 0
    while True:
        t0 = time.perf_counter()
        for item in looped:
            run.execute(item)
        if between:
            between()
        passes += 1
        now = time.perf_counter()
        if seconds is None or (passes >= MIN_PASSES and 2 * now - t0 > start + seconds):
            return items


def end_to_end(items):
    """End-to-end metrics from each item's median execution."""
    suites = [it for it in items if isinstance(it, SuiteItem)]
    lat_ms = sorted(1e3 * statistics.median(it.times)
                    for it in items if isinstance(it, RequestItem))

    def seconds_per_trial(chosen):
        return (sum(statistics.median(it.times) for it in chosen)
                / sum(it.trials for it in chosen))

    metrics = {}
    for suite in MEASURED_SUITES:
        chosen = [it for it in suites if it.suite == suite]
        metrics[f"ms_per_trial.{suite}"] = (1e3 * seconds_per_trial(chosen), "ms")
    # Over the suites called in rounds: topology's single call, mostly its
    # trial 0 sweep, has its own metric and would swamp the others.
    rounds = [it for it in suites if it.suite != "topology"]
    main = [it for it in rounds if it.main] or rounds
    metrics["trials_per_s"] = (1 / seconds_per_trial(main), "1/s")
    metrics["requests_per_s"] = (len(lat_ms) / (sum(lat_ms) / 1e3), "1/s")
    metrics["request_ms_p50"] = (statistics.median(lat_ms), "ms")
    metrics["request_ms_p90"] = (statistics.quantiles(lat_ms, n=10)[8], "ms")
    return metrics


def setup_child(workload, seed, python_flags=()):
    """Start ``worker.py setup`` in a fresh interpreter; return (its result, stderr)."""
    proc = subprocess.run([sys.executable, *python_flags, os.path.abspath(__file__), "setup",
                           "--workload", workload, "--seed", str(seed)],
                          capture_output=True, text=True, timeout=60)
    if proc.returncode != 0:
        raise RuntimeError(f"setup child exited with code {proc.returncode}: "
                           f"{proc.stderr.strip()[-300:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def import_times(stderr):
    """Cumulative seconds of ``dpk`` and ``scipy.linalg`` from -X importtime."""
    found = {}
    for line in stderr.splitlines():
        m = re.match(r"import time:\s*\d+ \|\s*(\d+) \|\s*(\S+)\s*$", line)
        if m and m.group(2) in ("dpk", "scipy.linalg"):
            found[m.group(2)] = int(m.group(1)) / 1e6
    return found.get("dpk", 0.0), found.get("scipy.linalg", 0.0)


class Launches:
    """Fresh-interpreter timings, made between passes: the set-up of one
    ``setup`` child and CLI_PER_PASS cold ``python -m dpk`` launches, whose
    output is checked."""

    def __init__(self, api_stream, workload, seed, workdir):
        self.api_stream, self.workload, self.seed, self.workdir = (
            api_stream, workload, seed, workdir)
        self.cases = api_stream.cli_cases(seed)
        for case in self.cases:
            for name, text in case.files.items():
                with open(os.path.join(workdir, name), "w", encoding="utf-8") as fh:
                    fh.write(text)
        self.setup_s, self.cli_s = [], [[] for _ in self.cases]
        self.launched = 0
        self.failures = []

    def __call__(self):
        out, _ = setup_child(self.workload, self.seed)
        self.setup_s.append(out["import_s"] + out["build_s"])
        for _ in range(CLI_PER_PASS):
            n = self.launched % len(self.cases)
            case = self.cases[n]
            t0 = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "dpk", *case.argv], cwd=self.workdir,
                                  capture_output=True, text=True, timeout=60)
            self.cli_s[n].append(time.perf_counter() - t0)
            self.launched += 1
            problem = (f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}"
                       if proc.returncode else self.api_stream.check_cli(case, proc.stdout))
            if problem:
                self.failures.append(f"dpk {' '.join(case.argv)}: {problem}")

    def metrics(self):
        """Median set-up time; mean over commands of each command's median launch."""
        return {"setup_s": (statistics.median(self.setup_s), "s"),
                "cli_cold_s": (statistics.fmean(statistics.median(t) for t in self.cli_s), "s")}


def libs():
    import numpy
    import scipy

    def blas(cfg):
        dep = cfg(mode="dicts")["Build Dependencies"]["blas"]
        return f"{dep.get('name')} {dep.get('version')}"

    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_blas": blas(numpy.show_config),
        "scipy_blas": blas(scipy.show_config),
    }


def cmd_setup(args):
    t0 = time.perf_counter()
    import dpk
    import dpk.serial  # noqa: F401
    t1 = time.perf_counter()
    # Suites build their instances inside run_suite from these configs.
    # Request operands are made with numpy by the benchmark, not by dpk,
    # so they are not part of set-up.
    configs = [config(dpk, args.seed, suite, k) for suite, k, _ in plan(args.workload)[0]]
    t2 = time.perf_counter()
    return {"import_s": t1 - t0, "build_s": t2 - t1, "configs": len(configs)}


def cmd_run(args):
    import dpk
    import dpk.serial as serial
    import api_stream

    if not args.trace:
        run = Run(dpk, serial, api_stream, args.seed)
        launches = Launches(api_stream, args.workload, args.seed, args.workdir)
        items = run_workload(run, args.workload, args.seconds, between=launches)
        metrics = end_to_end(items)
        metrics["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        metrics.update(launches.metrics())
        attempted = run.attempted + launches.launched
        failed = run.failed + len(launches.failures)
        notes = run.notes + launches.failures
        digests = run.digests(items)
        extra = {"passes": max(len(it.times) for it in items)}
    else:
        import tracer as tracer_mod

        # The main part of a timed run, each item once: untraced, traced,
        # untraced again.  The counts repeat exactly for a given seed, and
        # all three passes must give the same digests.
        tracer = tracer_mod.Tracer()
        passes = []
        for traced in (False, True, False):
            run = Run(dpk, serial, api_stream, args.seed)
            if traced:
                tracer.install()
            try:
                items = run_workload(run, args.workload, probes=False)
            finally:
                tracer.uninstall()
            passes.append((run, items, sum(it.times[0] for it in items)))
        metrics = tracer.metrics()
        # Tracing overhead: traced over untraced time of the same main-part
        # work.  The faster untraced pass is the warm one.
        metrics["tracer.overhead_ratio"] = (
            passes[1][2] / min(passes[0][2], passes[2][2]), "ratio")
        dpk_s, scipy_s = zip(*(import_times(setup_child(args.workload, args.seed,
                                                        ("-X", "importtime"))[1])
                               for _ in range(SETUP_REPEATS)))
        metrics["setup.import_dpk_s"] = (statistics.median(dpk_s), "s")
        metrics["setup.import_scipy_linalg_s"] = (statistics.median(scipy_s), "s")
        digests = passes[1][0].digests(passes[1][1])
        same = all(run.digests(items) == digests for run, items, _ in passes)
        extra = {"digests_equal": same}
        attempted = sum(run.attempted for run, _, _ in passes)
        failed = sum(run.failed for run, _, _ in passes) + (not same)
        notes = [note for run, _, _ in passes for note in run.notes]
        if not same:
            notes.append("traced and untraced report digests differ")
    return dict(extra, libs=libs(), digests=digests, attempted=attempted, failed=failed,
                failures=notes[:10], correct=failed == 0,
                metrics={k: {"value": v, "unit": u} for k, (v, u) in metrics.items()})


def cmd_sweep(args):
    import dpk

    out = {"libs": libs(), "seed": args.seed, "trials": SWEEP_TRIALS,
           "head": HEAD, "period": PERIOD, "suites": {}}
    for suite in sorted(dpk.SUITES):
        config = dpk.ExperimentConfig(seed=args.seed, trials=SWEEP_TRIALS, head_size=HEAD,
                                      period=PERIOD, suite=suite)
        t0 = time.perf_counter()
        report = dpk.run_suite(config)
        dt = time.perf_counter() - t0
        out["suites"][suite] = {
            "ms_per_trial": 1e3 * dt / report.trials,
            "trials": report.trials,
            "failures": report.failures,
            "digest": hashlib.sha256(report.to_json(no_meta=True).encode()).hexdigest(),
        }
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "sweep"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=38)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--workdir")
    args = parser.parse_args()
    result = {"setup": cmd_setup, "run": cmd_run, "sweep": cmd_sweep}[args.mode](args)
    print(json.dumps(result, sort_keys=True))


if __name__ == "__main__":
    main()
