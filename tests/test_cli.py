import json
import subprocess
import sys

import pytest


def run_cli(*args, expect=0):
    proc = subprocess.run(
        [sys.executable, "-m", "dpk.cli", *args],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == expect, proc.stderr
    return proc.stdout


def test_gen_and_fredholm(tmp_path):
    op_path = tmp_path / "op.json"
    run_cli("gen", "operator", "--seed", "4", "--head", "6", "--period", "3",
            "--out", str(op_path))
    out = run_cli("fredholm", str(op_path))
    data = json.loads(out)
    assert set(data) >= {"is_fredholm", "index", "kernel_dim", "cokernel_dim"}


def test_gen_deterministic_bytes(tmp_path):
    a = run_cli("gen", "operator", "--seed", "4", "--head", "6", "--period", "3")
    b = run_cli("gen", "operator", "--seed", "4", "--head", "6", "--period", "3")
    assert a == b


def test_verify_suite_and_determinism():
    args = ("verify", "--suite", "delta-contractive", "--seed", "2",
            "--trials", "15", "--head", "6", "--period", "3", "--no-meta")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first == second
    report = json.loads(first)
    assert report["failures"] == 0
    assert "wall_time_s" not in report


def test_verify_unknown_suite_fails():
    proc = subprocess.run(
        [sys.executable, "-m", "dpk.cli", "verify", "--suite", "nope"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode != 0


def test_verify_csv_format():
    out = run_cli("verify", "--suite", "membership", "--seed", "2", "--trials", "8",
                  "--head", "6", "--period", "3", "--format", "csv", "--no-meta")
    lines = out.strip().splitlines()
    assert lines[0].startswith("trial,ok")
    assert len(lines) == 9


def test_factor_unitary_and_section(tmp_path):
    u_path = tmp_path / "u.json"
    run_cli("gen", "unitary", "--seed", "6", "--head", "6", "--period", "3",
            "--out", str(u_path))
    fac = json.loads(run_cli("factor-unitary", str(u_path)))
    assert fac["reconstruction_residual"] <= 1e-9

    sec = json.loads(run_cli("topo", "section", str(u_path)))
    assert sec["residual"] <= 1e-9


def test_porta_recht_with_trace(tmp_path):
    a_path = tmp_path / "a.json"
    run_cli("gen", "positive", "--seed", "6", "--head", "6", "--period", "3",
            "--out", str(a_path))
    data = json.loads(run_cli("porta-recht", str(a_path), "--trace"))
    assert data["reconstruction_residual"] <= 1e-8
    assert data["trace"][-1]["residual"] <= 1e-10


def test_quotient_and_character(tmp_path):
    op_path = tmp_path / "member.json"
    run_cli("gen", "unitary", "--seed", "8", "--head", "6", "--period", "3",
            "--out", str(op_path))
    q = json.loads(run_cli("quotient", str(op_path)))
    assert q["period"] == 3 and len(q["values"]) == 3
    c = json.loads(run_cli("character", str(op_path), "--residue", "1"))
    value = complex(*c["value"])
    assert abs(abs(value) - 1.0) <= 1e-9


def test_proj_actions(tmp_path):
    p_path = tmp_path / "p.json"
    q_path = tmp_path / "q.json"
    run_cli("gen", "projection", "--seed", "9", "--head", "6", "--period", "3",
            "--out", str(p_path))
    run_cli("gen", "projection", "--seed", "9", "--head", "6", "--period", "3",
            "--out", str(q_path))
    idx = json.loads(run_cli("proj", "index", str(p_path), str(q_path)))
    assert idx["index"] == 0
    cls = json.loads(run_cli("proj", "classify", str(p_path)))
    assert cls["kind"] in ("finite", "cofinite", "infinite")
    geo = json.loads(run_cli("proj", "geodesic", str(p_path), str(q_path)))
    assert geo["length"] <= 1e-6  # identical projections

    k0 = json.loads(run_cli("topo", "k0", str(p_path)))
    assert set(k0) == {"tail_pattern", "z_part"}


def test_autos_stampfli(tmp_path):
    op_path = tmp_path / "op.json"
    run_cli("gen", "unitary", "--seed", "10", "--head", "6", "--period", "3",
            "--out", str(op_path))
    data = json.loads(run_cli("autos", "stampfli", str(op_path)))
    assert data["derivation_norm"] >= 0.0
    assert 0.0 <= data["gap"] <= 1e-8
    assert len(data["center"]) == 2 and data["evaluations"] >= 1


@pytest.mark.parametrize("tol", ["0", "-1", "nan", "inf"])
def test_autos_stampfli_rejects_bad_tol(tmp_path, tol):
    op_path = tmp_path / "op.json"
    run_cli("gen", "unitary", "--seed", "10", "--head", "6", "--period", "3",
            "--out", str(op_path))
    proc = subprocess.run(
        [sys.executable, "-m", "dpk.cli", "autos", "stampfli", str(op_path), "--tol", tol],
        capture_output=True, text=True, timeout=20,
    )
    assert proc.returncode == 2
    assert "ConfigError" in proc.stderr and proc.stdout == ""


def test_autos_stampfli_tiny_tol_returns(tmp_path):
    op_path = tmp_path / "op.json"
    run_cli("gen", "unitary", "--seed", "10", "--head", "6", "--period", "3",
            "--out", str(op_path))
    data = json.loads(run_cli("autos", "stampfli", str(op_path), "--tol", "1e-300"))
    default = json.loads(run_cli("autos", "stampfli", str(op_path)))
    assert data["evaluations"] <= 1000
    assert 0.0 <= data["gap"] <= 1e-8
    assert abs(data["derivation_norm"] - default["derivation_norm"]) <= 1e-8


def test_autos_normal_form(tmp_path):
    spec = {
        "generators": [
            {"kind": "diagonal",
             "head": [[1.0, 0.0]] * 6, "tail": [[0.0, 1.0]] * 3},
            {"kind": "permutation",
             "head_perm": [1, 0, 2, 3, 4, 5], "tail_perm": [2, 0, 1]},
        ]
    }
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(spec))
    data = json.loads(run_cli("autos", "normal-form", str(path)))
    assert data["sigma"]["tail_perm"] == [2, 0, 1]


def _expect_input_error(*args, error="IoError"):
    proc = subprocess.run([sys.executable, "-m", "dpk.cli", *args],
                          capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith(f"error: {error}: "), proc.stderr
    assert "Traceback" not in proc.stderr


@pytest.mark.parametrize("spec, error", [
    ({}, "IoError"),
    ({"generators": 3}, "IoError"),
    ({"generators": [{"head": [[1.0, 0.0]], "tail": [[1.0, 0.0]]}]}, "IoError"),
    ({"generators": [{"kind": 7}]}, "IoError"),
    ({"generators": [{"kind": "diagonal", "tail": [[1.0, 0.0]]}]}, "IoError"),
    ({"generators": [{"kind": "diagonal", "head": [[1.0]], "tail": [[1.0, 0.0]]}]}, "IoError"),
    ({"generators": [{"kind": "exponent"}]}, "IoError"),
    ({"generators": [{"kind": "permutation", "head_perm": [0], "tail_perm": "0"}]}, "IoError"),
    ({"generators": [{"kind": "permutation", "head_perm": ["a"], "tail_perm": [0]}]}, "IoError"),
    ({"generators": [{"kind": "twist"}]}, "IoError"),
    ({"generators": [{"kind": "permutation", "head_perm": [0], "tail_perm": []}]},
     "AlignmentError"),
], ids=["empty", "generators_not_list", "no_kind", "kind_not_str", "no_head",
        "bad_entry", "no_operator", "tail_perm_not_list", "head_perm_not_int",
        "unknown_kind", "empty_tail_perm"])
def test_autos_normal_form_bad_input(tmp_path, spec, error):
    path = tmp_path / "gens.json"
    path.write_text(json.dumps(spec))
    _expect_input_error("autos", "normal-form", str(path), error=error)


@pytest.mark.parametrize("argv", [
    ("fredholm", "op.json", "--seed", "1"),
    ("fredholm", "op.json", "--format", "csv"),
    ("fredholm", "op.json", "--trace"),
    ("verify", "--suite", "closure", "--tol", "1e-3"),
    ("autos", "separation"),
    ("autos", "normal-form", "f.json", "--tol", "5"),
    ("proj", "index", "p.json"),
    ("proj", "geodesic", "p.json"),
    ("proj", "classify", "a.json", "b.json"),
    ("topo", "section", "u.json", "--kind", "compact"),
    ("topo", "k0", "p.json", "--kind", "compact"),
], ids=["fredholm_seed", "fredholm_format", "fredholm_trace", "verify_tol",
        "autos_separation", "normal_form_tol", "index_one_file", "geodesic_one_file",
        "classify_two_files", "section_kind", "k0_kind"])
def test_unread_flags_are_rejected(tmp_path, argv):
    # Every named file exists and is valid, so only the parser can refuse.
    from dpk.core import identity
    from dpk.serial import dump_operator

    for name in ("op.json", "p.json", "a.json", "b.json", "u.json"):
        (tmp_path / name).write_text(dump_operator(identity(2, 1)))
    (tmp_path / "f.json").write_text('{"generators": []}')
    argv = [str(tmp_path / a) if a.endswith(".json") else a for a in argv]
    proc = subprocess.run([sys.executable, "-m", "dpk.cli", *argv],
                          capture_output=True, text=True)
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("usage:"), proc.stderr
    assert "Traceback" not in proc.stderr


def test_fredholm_non_integer_size(tmp_path):
    path = tmp_path / "op.json"
    path.write_text('{"m": "x", "p": 1, "head": [[[1, 0]]], "tail": [[[1, 0]]]}')
    _expect_input_error("fredholm", str(path))


def test_topo_winding(tmp_path):
    import numpy as np

    from dpk.core import Diagonal
    from dpk.serial import operator_to_obj

    samples = []
    for t in np.linspace(0.0, 1.0, 64, endpoint=False):
        head = np.ones(4, dtype=complex)
        head[0] = np.exp(2j * np.pi * t)
        samples.append(operator_to_obj(
            Diagonal(head, np.ones(2, dtype=complex)).to_operator(),
            normalized=False,
        ))
    path = tmp_path / "loop.json"
    path.write_text(json.dumps({"samples": samples}))
    data = json.loads(run_cli("topo", "winding", str(path), "--kind", "diagonal"))
    assert data["head"] == [1, 0, 0, 0]
    assert data["tail"] == [0, 0]


@pytest.mark.parametrize("content", [
    '{"samples": [',  # truncated JSON
    '{"loop": []}',  # no "samples" key
    '{"samples": 3}',  # samples not a list
    '[1, 2]',  # not an object
    None,  # missing file
], ids=["truncated", "no_samples_key", "samples_not_list", "not_object", "missing_file"])
def test_topo_winding_bad_input(tmp_path, content):
    path = tmp_path / "loop.json"
    if content is not None:
        path.write_text(content)
    proc = subprocess.run(
        [sys.executable, "-m", "dpk.cli", "topo", "winding", str(path)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2, proc.stderr
    assert proc.stderr.startswith("error: IoError: "), proc.stderr
    assert "Traceback" not in proc.stderr


def test_coprime_periods_over_the_grid_budget_exit_2(tmp_path):
    from dpk.projections import diagonal_projection
    from dpk.serial import dump_operator

    # One 1 per tail block, so the written operators keep periods 97 and 89.
    for name, period in (("a.json", 97), ("b.json", 89)):
        pattern = [1] + [0] * (period - 1)
        (tmp_path / name).write_text(dump_operator(diagonal_projection([], pattern).op))
    _expect_input_error("proj", "index", str(tmp_path / "a.json"),
                        str(tmp_path / "b.json"), error="AlignmentError")


def test_cli_error_reporting(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    proc = subprocess.run(
        [sys.executable, "-m", "dpk.cli", "fredholm", str(bad)],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 2
    assert "IoError" in proc.stderr
