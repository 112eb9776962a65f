import csv
import io
import json
import subprocess
import sys

from hsp_sdp import cli


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------- enumerate

def test_enumerate_emits_catalog_as_json_lines(capsys):
    code, out, _ = run_cli(capsys, ["enumerate", "--p", "3", "--r", "5", "--tau", "1"])
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 62
    rows = [json.loads(ln) for ln in lines]
    assert {"form": "sg1x", "i": 0, "order": 243, "normal": True} in rows
    whole = [row for row in rows if row["order"] == 3 ** 7]
    assert whole == [{"form": "sg2", "i": 0, "j": 0, "order": 2187, "normal": True}]
    assert all(set(row) >= {"form", "i", "order", "normal"} for row in rows)


def test_enumerate_handles_untwisted_group(capsys):
    code, out, _ = run_cli(capsys, ["enumerate", "--p", "3", "--r", "5", "--tau", "0"])
    assert code == 0
    rows = [json.loads(ln) for ln in out.strip().splitlines()]
    assert len(rows) == 62
    assert all(row["normal"] for row in rows)  # every subgroup of an abelian group


def test_enumerate_invalid_params_exit_2(capsys):
    assert run_cli(capsys, ["enumerate", "--p", "4", "--r", "5", "--tau", "1"])[0] == 2
    assert run_cli(capsys, ["enumerate", "--p", "3", "--r", "4", "--tau", "1"])[0] == 2
    code, out, _ = run_cli(
        capsys,
        ["enumerate", "--p", "3", "--r", "4", "--tau", "1", "--allow-unclassified"],
    )
    assert code == 0 and out.strip()


# --------------------------------------------------------------------- solve

def test_solve_descriptor_round_trip(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "solve", "--p", "3", "--r", "5", "--tau", "1",
            "--subgroup", '{"form":"sg1m","t":2,"i":0,"j":1}',
            "--seed", "7",
        ],
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 1
    rep = json.loads(lines[0])
    assert rep["recovered"] == {"form": "sg1m", "t": 2, "i": 0, "j": 1}
    assert rep["verified"] is True
    assert rep["group"]["class"] == "class1"
    assert rep["seed"] == 7


def test_solve_generators_input(capsys):
    code, out, _ = run_cli(
        capsys,
        ["solve", "--p", "3", "--r", "5", "--tau", "3", "--generators", "[[9,0],[0,3]]"],
    )
    assert code == 0
    rep = json.loads(out.strip())
    assert rep["recovered"] == {"form": "sg2", "i": 2, "j": 1}
    assert rep["group"]["class"] == "class2"


def test_solve_deterministic_output(capsys):
    argv = [
        "solve", "--p", "3", "--r", "5", "--tau", "1",
        "--subgroup", '{"form":"sg3","t":1,"i":1}', "--seed", "3",
    ]
    out1 = run_cli(capsys, argv)[1]
    out2 = run_cli(capsys, argv)[1]
    assert out1 == out2


def test_solve_abelianization_inapplicable_exit_2(capsys):
    code, _, err = run_cli(
        capsys,
        [
            "solve", "--p", "3", "--r", "5", "--tau", "1",
            "--subgroup", '{"form":"sg1x","i":4}',
            "--strategy", "abelianization",
        ],
    )
    assert code == 2
    assert "abelianization" in err.lower()


def test_solve_requires_exactly_one_subgroup_input(capsys):
    code, _, err = run_cli(capsys, ["solve", "--p", "3", "--r", "5", "--tau", "1"])
    assert code == 2
    code, _, err = run_cli(
        capsys,
        [
            "solve", "--p", "3", "--r", "5", "--tau", "1",
            "--subgroup", '{"form":"sg1x","i":1}', "--generators", "[[3,0]]",
        ],
    )
    assert code == 2


def test_solve_bad_descriptor_exit_2(capsys):
    code, _, err = run_cli(
        capsys,
        ["solve", "--p", "3", "--r", "5", "--tau", "1", "--subgroup", '{"form":"bad"}'],
    )
    assert code == 2


def test_solve_non_integer_descriptor_field_exit_2(capsys):
    for blob in (
        '{"form":"sg1x","i":"3"}',
        '{"form":"sg1x","i":2.5}',
        '{"form":"sg1x","i":true}',
        '{"form":"sg3","t":"1","i":0}',
    ):
        argv = ["solve", "--p", "3", "--r", "5", "--tau", "1", "--subgroup", blob]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, ""), blob
        assert "integers" in err


def test_solve_rejects_boolean_generator_exit_2(capsys):
    argv = ["solve", "--p", "3", "--r", "5", "--tau", "1", "--generators", "[[true,0]]"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert "bad generator" in err


def test_solve_composite(capsys):
    code, out, _ = run_cli(
        capsys,
        [
            "solve", "--N", "1215", "--p", "3", "--alpha", "271",
            "--generators", "[[730,1]]", "--seed", "2",
        ],
    )
    assert code == 0
    rep = json.loads(out.strip())
    assert rep["N"] == 1215
    assert rep["semidirect"]["recovered"] == {"form": "sg1m", "t": 1, "i": 0, "j": 0}
    assert rep["abelian"] == [{"prime": 5, "valuation": 1}]
    assert rep["verified"] is True


def test_solve_composite_rejects_descriptor_input(capsys):
    code, _, _ = run_cli(
        capsys,
        [
            "solve", "--N", "1215", "--p", "3", "--alpha", "271",
            "--subgroup", '{"form":"sg1x","i":1}',
        ],
    )
    assert code == 2


# --------------------------------------------------------------------- sweep

def test_sweep_full_catalog(capsys, monkeypatch):
    monkeypatch.setenv("HSP_SDP_THREADS", "1")
    code, out, _ = run_cli(
        capsys, ["sweep", "--p", "3", "--r", "5", "--tau", "1", "--trials", "2"]
    )
    assert code == 0
    rows = list(csv.reader(io.StringIO(out)))
    assert rows[0] == ["subgroup", "success_rate", "first_try_rate", "mean_queries", "mean_iterations"]
    assert len(rows) == 1 + 62
    for row in rows[1:]:
        json.loads(row[0])  # subgroup column is a descriptor in JSON
        assert float(row[1]) == 1.0
        assert 0.0 <= float(row[2]) <= 1.0
        assert float(row[3]) > 0
        assert float(row[4]) >= 1


def test_sweep_is_deterministic_and_parallel_agrees(capsys, monkeypatch):
    argv = ["sweep", "--p", "3", "--r", "5", "--tau", "3", "--trials", "1", "--seed", "5"]
    monkeypatch.setenv("HSP_SDP_THREADS", "1")
    out1 = run_cli(capsys, argv)[1]
    monkeypatch.setenv("HSP_SDP_THREADS", "4")
    out2 = run_cli(capsys, argv)[1]
    assert out1 == out2


def test_sweep_rejects_non_positive_trials_exit_2(capsys):
    for trials in ("0", "-2"):
        argv = ["sweep", "--p", "3", "--r", "5", "--tau", "1", "--trials", trials]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, ""), trials
        assert "--trials" in err


# ------------------------------------------------------------ verify-catalog

def test_verify_catalog_passes_for_reference_groups(capsys):
    code, out, _ = run_cli(capsys, ["verify-catalog", "--p", "3", "--r", "5", "--tau", "1"])
    assert code == 0
    assert "PASS" in out


def test_verify_catalog_small_r_exit_2(capsys):
    code, _, err = run_cli(capsys, ["verify-catalog", "--p", "3", "--r", "4", "--tau", "1"])
    assert code == 2


# ------------------------------------------------------------------- plumbing

def test_console_entry_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "hsp_sdp.cli", "enumerate", "--p", "3", "--r", "5", "--tau", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert len(proc.stdout.strip().splitlines()) == 62


def test_usage_error_exits_2(capsys):
    # missing required group parameters
    assert cli.main(["solve", "--p", "3"]) == 2
    capsys.readouterr()
