"""Golden report digests and rerun identity of the verification suites.

``data/report_digests.json`` holds, for each of the 17 suites, the sha256 of
its ``--no-meta`` JSON report at seed 20260808, head 24, period 3 and 20
trials, with each case's ``ok`` and ``notes`` and the ``passes`` and
``failures`` totals, and the fingerprint of the machine that wrote it:
Python, numpy and scipy versions and the BLAS each of the two is built on.

* Verdicts must always match: they should not depend on the BLAS build.
* Report bytes must match when the running fingerprint equals the recorded
  one; residuals are stored at full float precision, so any change in the
  arithmetic shows here.  On another fingerprint the byte test is reported
  as skipped, not passed.
* The suites the benchmark times (``perfbench/worker.py``) are run twice in
  one process at its trial counts, and the second report must equal the
  first byte for byte, so state left behind by one call cannot change the
  next.

A change that alters reports on purpose regenerates the file, from the root
of the repository, with

    PYTHONPATH=src python tests/test_report_digests.py --regenerate

and says in CHANGES.md which suites changed.
"""

import functools
import hashlib
import importlib.util
import json
import pathlib
import platform
import sys

import numpy as np
import pytest
import scipy

from dpk import ExperimentConfig, run_suite
from dpk.suites import SUITES

DATA = pathlib.Path(__file__).with_name("data") / "report_digests.json"
SEED, HEAD, PERIOD, TRIALS = 20260808, 24, 3, 20


def _bench_trials():
    """Trials per call of each suite the benchmark times (CHUNK_TRIALS of
    perfbench/worker.py, which has no import-time side effects)."""
    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "worker.py"
    spec = importlib.util.spec_from_file_location("_perfbench_worker", path)
    worker = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(worker)
    return dict(worker.CHUNK_TRIALS)


BENCH_TRIALS = _bench_trials()


def _blas(module):
    blas = module.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return " ".join(str(blas.get(k, "")) for k in ("name", "version", "openblas configuration"))


def fingerprint():
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numpy_blas": _blas(np),
        "scipy": scipy.__version__,
        "scipy_blas": _blas(scipy),
    }


def _report(suite, trials, seed=SEED):
    config = ExperimentConfig(seed=seed, trials=trials, head_size=HEAD, period=PERIOD,
                              suite=suite)
    text = run_suite(config).to_json(no_meta=True)
    return text, hashlib.sha256(text.encode()).hexdigest()


@functools.lru_cache(maxsize=None)
def golden_entry(suite):
    text, digest = _report(suite, TRIALS)
    report = json.loads(text)
    return {
        "sha256": digest,
        "passes": report["passes"],
        "failures": report["failures"],
        "verdicts": [[c["ok"], c["notes"]] for c in report["cases"]],
    }


@functools.lru_cache(maxsize=None)
def recorded():
    return json.loads(DATA.read_text())


def test_golden_file_covers_every_suite():
    rec = recorded()
    assert sorted(rec["suites"]) == sorted(SUITES)
    assert rec["config"] == {"seed": SEED, "head": HEAD, "period": PERIOD, "trials": TRIALS}


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_report_matches_golden(suite):
    want = recorded()["suites"][suite]
    got = golden_entry(suite)
    assert (got["passes"], got["failures"]) == (want["passes"], want["failures"])
    assert got["verdicts"] == want["verdicts"]


@pytest.mark.parametrize("suite", sorted(SUITES))
def test_report_bytes_match_golden(suite):
    if recorded()["fingerprint"] != fingerprint():
        pytest.skip(f"recorded on {recorded()['fingerprint']}, running on {fingerprint()}")
    assert golden_entry(suite)["sha256"] == recorded()["suites"][suite]["sha256"]


def test_benchmark_suites_rerun_identically():
    first = {suite: _report(suite, n)[1] for suite, n in BENCH_TRIALS.items()}
    second = {suite: _report(suite, n)[1] for suite, n in BENCH_TRIALS.items()}
    assert [s for s in BENCH_TRIALS if first[s] != second[s]] == []


def regenerate():
    config = {"seed": SEED, "head": HEAD, "period": PERIOD, "trials": TRIALS}
    # One line per suite, so a regeneration diffs suite by suite.
    suites = ",\n".join(f"  {json.dumps(suite)}: {json.dumps(golden_entry(suite), sort_keys=True)}"
                        for suite in sorted(SUITES))
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text(f'{{\n "config": {json.dumps(config, sort_keys=True)},\n'
                    f' "fingerprint": {json.dumps(fingerprint(), sort_keys=True)},\n'
                    f' "suites": {{\n{suites}\n }}\n}}\n')


if __name__ == "__main__":
    if sys.argv[1:] != ["--regenerate"]:
        sys.exit(__doc__)
    regenerate()
