import csv
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from hsp_sdp import cli
from hsp_sdp import group as gr
from hsp_sdp import oracle as orc
from hsp_sdp import solver
from hsp_sdp import subgroup as sg
from hsp_sdp.errors import InvalidDescriptor, RetriesExhausted


# Stdout pinned byte for byte. The plain runs were stored as, for example,
#   python -m hsp_sdp.cli verify-catalog --p 3 --r 5 --tau 1 > verify_catalog_p3_r5_tau1.txt
#   python -m hsp_sdp.cli sweep --p 3 --r 5 --tau 1 --trials 2 > sweep_p3_r5_tau1_trials2.csv
# and the mismatch files as the stdout of the tests that read them.
CLI_DATA = Path(__file__).parent / "data" / "cli"


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def stored(name):
    return (CLI_DATA / name).read_text()


@pytest.mark.parametrize("tau", [0, 1, 3])
@pytest.mark.parametrize("command", ["enumerate", "verify-catalog"])
def test_cli_reproduces_stored_stdout(capsys, command, tau):
    code, out, _ = run_cli(capsys, [command, "--p", "3", "--r", "5", "--tau", str(tau)])
    assert code == 0
    assert out == stored(f"{command.replace('-', '_')}_p3_r5_tau{tau}.txt")


@pytest.mark.parametrize("tau", [1, 5])
def test_verify_catalog_reproduces_stored_stdout_at_p5(capsys, tau):
    code, out, _ = run_cli(capsys, ["verify-catalog", "--p", "5", "--r", "5", "--tau", str(tau)])
    assert code == 0
    assert out == stored(f"verify_catalog_p5_r5_tau{tau}.txt")


# ----------------------------------------------------------------- enumerate

@pytest.mark.parametrize("tau", [0, 1, 3])
def test_enumerate_builds_no_table(capsys, monkeypatch, tau):
    # order and normality are read from each entry's head (d, s, a_1)
    def no_table(*args):
        raise AssertionError("enumerate built a table")

    monkeypatch.setattr(sg.SubgroupTable, "from_generators", no_table)
    monkeypatch.setattr(sg, "table_for", no_table)
    monkeypatch.setattr(gr, "conjugate", no_table)  # normality is two divisibility tests
    code, out, _ = run_cli(capsys, ["enumerate", "--p", "3", "--r", "5", "--tau", str(tau)])
    assert code == 0
    assert out == stored(f"enumerate_p3_r5_tau{tau}.txt")


def test_catalog_heads_need_no_group_powers(capsys, monkeypatch):
    # enumerate, is_normal, subgroup_order and make_oracle read a descriptor's
    # head in closed form, never through _head's group powers
    gp = gr.make_group(3, 5, 1)
    catalog = sg.enumerate_catalog(gp)
    want = [(sg.is_normal(gp, d), sg.subgroup_order(gp, d)) for d in catalog]

    def refused(*args):
        raise AssertionError("a catalog head was read through group powers")

    monkeypatch.setattr(sg, "_head", refused)
    monkeypatch.setattr(gr, "power", refused)
    code, out, _ = run_cli(capsys, ["enumerate", "--p", "3", "--r", "5", "--tau", "1"])
    assert code == 0
    assert out == stored("enumerate_p3_r5_tau1.txt")
    assert [(sg.is_normal(gp, d), sg.subgroup_order(gp, d)) for d in catalog] == want
    for d in catalog:
        orc.make_oracle(gp, d)


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
    assert run_cli(capsys, ["enumerate", "--p", "3", "--r", "2", "--tau", "1"])[0] == 2
    argv = ["enumerate", "--p", "3", "--r", "4", "--tau", "1", "--allow-unclassified"]
    assert run_cli(capsys, argv)[0] == 2  # no such flag: every r >= 3 enumerates


@pytest.mark.parametrize("r", [3, 4])
def test_enumerate_below_the_solver_bound_reproduces_stored_stdout(capsys, r):
    # the catalog holds at every r >= 3; only solving needs r > 4
    code, out, err = run_cli(capsys, ["enumerate", "--p", "3", "--r", str(r), "--tau", "1"])
    assert (code, err) == (0, "")
    assert out == stored(f"enumerate_p3_r{r}_tau1.txt")


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


def test_solve_exhausted_retries_exit_1(capsys, monkeypatch):
    # no character sample pins t, so the small-depth branch gives up
    monkeypatch.setattr(solver, "recover_t", lambda a, b, modulus: None)
    code, out, err = run_cli(
        capsys,
        [
            "solve", "--p", "3", "--r", "5", "--tau", "1",
            "--subgroup", '{"form":"sg1m","t":2,"i":0,"j":1}',
        ],
    )
    assert code == 1
    assert out == ""
    assert "no unit character sample" in err


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


@pytest.mark.parametrize(
    "blob,message",
    [
        ({"form": "sg9", "i": 0}, "unknown form 'sg9'"),
        ({"form": "sg1x", "i": 0, "t": 1}, "wrong fields for sg1x"),
        ({"form": "sg1m", "i": 0, "t": 1}, "wrong fields for sg1m"),
    ],
)
def test_bad_descriptor_form_or_fields_exit_2(capsys, blob, message):
    with pytest.raises(InvalidDescriptor, match=message):
        sg.descriptor_from_json(blob)
    argv = ["solve", "--p", "3", "--r", "5", "--tau", "1", "--subgroup", json.dumps(blob)]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert message in err


@pytest.mark.parametrize(
    "argv,message",
    [
        (["--p", "3", "--r", "5", "--tau", "1", "--generators", "{}"],
         "generators must be a JSON list"),
        (["--N", "1215", "--p", "3", "--alpha", "271", "--r", "5", "--generators", "[[3,0]]"],
         "--r/--tau do not apply in composite mode"),
        (["--N", "1215", "--p", "3", "--alpha", "271", "--tau", "1", "--generators", "[[3,0]]"],
         "--r/--tau do not apply in composite mode"),
        (["--N", "1215", "--p", "3", "--generators", "[[3,0]]"],
         "composite mode requires --alpha"),
        (["--N", "1215", "--p", "3", "--alpha", "271", "--subgroup", '{"form":"sg1x","i":1}'],
         "descriptors index the prime-power catalog"),
        (["--N", "1215", "--p", "3", "--alpha", "271", "--generators", "[[3,0]]",
          "--strategy", "direct"],
         "composite mode chooses its own per-factor strategies"),
        (["--N", "1215", "--p", "3", "--alpha", "3", "--generators", "[[3,0]]"],
         "is not a unit mod 1215"),
        (["--p", "3", "--subgroup", '{"form":"sg1x","i":1}'],
         "--r and --tau are required unless --N is given"),
        (["--p", "3", "--r", "5", "--generators", "[[3,0]]"],
         "--r and --tau are required unless --N is given"),
        (["--N", "0", "--p", "3", "--alpha", "271", "--generators", "[[3,0]]"],
         "need x_mod >= 1"),
        (["--N", "-1215", "--p", "3", "--alpha", "271", "--generators", "[[3,0]]"],
         "need x_mod >= 1"),
    ],
)
def test_solve_input_checks_exit_2(capsys, argv, message):
    code, out, err = run_cli(capsys, ["solve"] + argv)
    assert (code, out) == (2, "")
    assert message in err


def test_solve_rejects_boolean_generator_exit_2(capsys):
    argv = ["solve", "--p", "3", "--r", "5", "--tau", "1", "--generators", "[[true,0]]"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert "bad generator" in err


@pytest.mark.parametrize(
    "flag,text,message",
    [
        ("--subgroup", "{form: sg1x}", "Expecting property name"),
        ("--generators", "[[3,0]", "Expecting ',' delimiter"),
        # json.loads raises a plain ValueError here, not a JSONDecodeError
        ("--generators", "[[1" + "0" * 5000 + ",0]]", "Exceeds the limit (4300 digits)"),
    ],
    ids=["subgroup-not-json", "generators-not-json", "generator-of-5001-digits"],
)
def test_solve_unreadable_json_flag_exit_2(capsys, flag, text, message):
    argv = ["solve", "--p", "3", "--r", "5", "--tau", "1", flag, text]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert message in err


def test_solve_internal_value_error_propagates(capsys, monkeypatch):
    # exit 2 is a typed HspError; a bare ValueError is a bug, not a usage error
    def broken(o, **kwargs):
        raise ValueError("internal")

    monkeypatch.setattr(solver, "solve", broken)
    argv = ["solve", "--p", "3", "--r", "5", "--tau", "1", "--generators", "[[3,0]]"]
    with pytest.raises(ValueError, match="internal"):
        cli.main(argv)


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
    assert out == stored("sweep_p3_r5_tau1_trials2.csv")
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


@pytest.mark.parametrize("threads", ["2", "4"])
def test_sweep_fanned_out_matches_one_worker(capsys, monkeypatch, threads):
    import concurrent.futures

    argv = ["sweep", "--p", "3", "--r", "5", "--tau", "3", "--trials", "1", "--seed", "5"]
    monkeypatch.setenv("HSP_SDP_THREADS", "1")
    code1, out1, _ = run_cli(capsys, argv)

    pools = []

    class Recorded(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, max_workers, **kwargs):
            pools.append(max_workers)
            super().__init__(max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorded)
    # one solve per worker forces the pool at 62 solves; forked workers inherit it
    monkeypatch.setattr(cli, "_SOLVES_PER_WORKER", 1)
    monkeypatch.setenv("HSP_SDP_THREADS", threads)
    code2, out2, _ = run_cli(capsys, argv)
    assert pools == [int(threads)]
    assert (code1, code2) == (0, 0)
    assert out1 == out2


def test_sweep_below_threshold_starts_no_pool(capsys, monkeypatch):
    import concurrent.futures

    def refuse(*args, **kwargs):
        raise AssertionError("a 124-solve sweep started a process pool")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", refuse)
    monkeypatch.setenv("HSP_SDP_THREADS", "4")
    argv = ["sweep", "--p", "3", "--r", "5", "--tau", "1", "--trials", "2"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 0
    assert len(out.splitlines()) == 1 + 62


NO_POOL_SCRIPT = """
import contextlib, io, sys
from hsp_sdp import cli
argv = ["sweep", "--p", "3", "--r", "5", "--tau", "1", "--trials", "2"]
with contextlib.redirect_stdout(io.StringIO()):
    assert cli.main(argv) == 0
assert "concurrent.futures" not in sys.modules, "a one-process sweep loaded the pool"
"""


def test_sweep_below_threshold_does_not_import_the_pool():
    # a fresh interpreter: the test session may have loaded concurrent.futures
    proc = subprocess.run(
        [sys.executable, "-c", NO_POOL_SCRIPT],
        env={**os.environ, "HSP_SDP_THREADS": "4"},
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr


@pytest.mark.parametrize(
    "threads, cpus, solves, jobs",
    [
        (None, 4, 99, 1),        # the floor: below one worker's share
        (None, 4, 0, 1),
        (None, 4, 250, 2),       # one worker per 100 solves
        (None, 4, 10_000, 4),    # capped at the CPUs this process may use
        ("0", 2, 10_000, 2),     # 0 means unset
        ("3", 2, 10_000, 3),     # HSP_SDP_THREADS caps, over the affinity
        ("8", 2, 450, 4),
        ("1", 4, 10_000, 1),
    ],
)
def test_sweep_workers_follow_the_work(monkeypatch, threads, cpus, solves, jobs):
    monkeypatch.setattr(cli, "_SOLVES_PER_WORKER", 100)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    if threads is None:
        monkeypatch.delenv("HSP_SDP_THREADS", raising=False)
    else:
        monkeypatch.setenv("HSP_SDP_THREADS", threads)
    assert cli._sweep_jobs(solves) == jobs


def test_sweep_workers_fall_back_to_cpu_count(monkeypatch):
    monkeypatch.setattr(cli, "_SOLVES_PER_WORKER", 100)
    monkeypatch.delattr(os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 3)
    monkeypatch.delenv("HSP_SDP_THREADS", raising=False)
    assert cli._sweep_jobs(10_000) == 3
    assert cli._sweep_jobs(150) == 1


def test_sweep_row_reads_zero_success_on_exhausted_retries(capsys, monkeypatch):
    # one worker runs the catalog in order, one solve per entry with --trials 1
    monkeypatch.setenv("HSP_SDP_THREADS", "1")
    real, calls = solver.solve, []

    def solve(o, **kwargs):
        calls.append(o)
        if len(calls) == 5:
            raise RetriesExhausted("injected")
        return real(o, **kwargs)

    monkeypatch.setattr(solver, "solve", solve)
    argv = ["sweep", "--p", "3", "--r", "5", "--tau", "1", "--trials", "1"]
    code, out, _ = run_cli(capsys, argv)
    assert code == 1
    rows = list(csv.reader(io.StringIO(out)))
    assert len(rows) == 1 + 62
    assert rows[5][1:] == ["0", "0", "nan", "nan"]
    assert all(row[1] == "1" for i, row in enumerate(rows[1:], 1) if i != 5)


def test_sweep_worker_uses_the_group_and_descriptor_it_is_given(monkeypatch):
    # the task carries the built group and descriptor: nothing is rebuilt or parsed
    gp = gr.make_group(3, 5, 1)
    tasks = [(gp, d, 2, 7, idx) for idx, d in enumerate(sg.enumerate_catalog(gp))]
    want = [cli._sweep_worker(t) for t in tasks]

    def refused(*args, **kwargs):
        raise AssertionError("the sweep worker rebuilt its input")

    monkeypatch.setattr(gr, "make_group", refused)
    monkeypatch.setattr(sg, "descriptor_from_json", refused)
    assert [cli._sweep_worker(t) for t in tasks] == want
    assert want[0][1][0] == '{"form":"sg1x","i":0}'


def test_sweep_rejects_non_positive_trials_exit_2(capsys):
    for trials in ("0", "-2"):
        argv = ["sweep", "--p", "3", "--r", "5", "--tau", "1", "--trials", trials]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, ""), trials
        assert "--trials" in err


@pytest.mark.parametrize("threads", ["two", "-1"])
def test_sweep_rejects_bad_thread_count_exit_2(capsys, monkeypatch, threads):
    monkeypatch.setenv("HSP_SDP_THREADS", threads)
    argv = ["sweep", "--p", "3", "--r", "5", "--tau", "1", "--trials", "1"]
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert "HSP_SDP_THREADS" in err


# ------------------------------------------------------------ verify-catalog

def test_verify_catalog_passes_for_reference_groups(capsys):
    code, out, _ = run_cli(capsys, ["verify-catalog", "--p", "3", "--r", "5", "--tau", "1"])
    assert code == 0
    assert "PASS" in out
    assert 'derived subgroup {"form":"sg1x","i":3} equals brute-force commutators: OK' in out


def test_verify_catalog_builds_one_table_per_entry(capsys, monkeypatch):
    # each claim's containment is one bit of its entry's bitset, and normality
    # is read from the head; the one extra table is the derived subgroup's elements
    def refused(*args):
        raise AssertionError("verify-catalog tested membership or conjugated")

    calls = []
    full = sg.table_for

    def counted(gp, d):
        calls.append(d)
        return full(gp, d)

    monkeypatch.setattr(sg.SubgroupTable, "contains", refused)
    monkeypatch.setattr(gr, "conjugate", refused)
    monkeypatch.setattr(sg, "table_for", counted)
    code, out, _ = run_cli(capsys, ["verify-catalog", "--p", "3", "--r", "5", "--tau", "1"])
    assert code == 0
    assert out == stored("verify_catalog_p3_r5_tau1.txt")
    assert len(calls) == 63


def test_verify_catalog_fails_on_missing_subgroup(capsys, monkeypatch):
    full = sg.enumerate_catalog
    monkeypatch.setattr(sg, "enumerate_catalog", lambda gp: full(gp)[:-1])
    code, out, _ = run_cli(capsys, ["verify-catalog", "--p", "3", "--r", "5", "--tau", "1"])
    assert code == 1
    assert "catalog mismatch: 1 missing, 0 extra" in out.splitlines()
    assert out.rstrip().endswith("verify-catalog: FAIL")
    assert out == stored("verify_catalog_mismatch_missing.txt")


def _drop_lattice_members(monkeypatch, orders):
    full = sg.brute_force_lattice_bits
    monkeypatch.setattr(
        sg,
        "brute_force_lattice_bits",
        lambda gp: [bits for bits in full(gp) if bits.bit_count() not in orders(gp)],
    )


def test_verify_catalog_fails_on_extra_descriptor(capsys, monkeypatch):
    _drop_lattice_members(monkeypatch, lambda gp: (gp.order,))  # the whole group
    code, out, _ = run_cli(capsys, ["verify-catalog", "--p", "3", "--r", "5", "--tau", "1"])
    assert code == 1
    lines = out.splitlines()
    assert lines[:2] == [
        "catalog mismatch: 0 missing, 1 extra",
        '  extra descriptor {"form":"sg2","i":0,"j":0}',
    ]
    assert out.rstrip().endswith("verify-catalog: FAIL")
    assert out == stored("verify_catalog_mismatch_extra.txt")


def test_verify_catalog_orders_mismatch_lines(capsys, monkeypatch):
    # 13 missing members, several of one order, and 2 extra descriptors
    full = sg.enumerate_catalog
    monkeypatch.setattr(
        sg, "enumerate_catalog", lambda gp: [d for d in full(gp) if d.form != "sg3"][5:]
    )
    _drop_lattice_members(monkeypatch, lambda gp: (1, gp.order))
    code, out, _ = run_cli(capsys, ["verify-catalog", "--p", "3", "--r", "5", "--tau", "1"])
    assert code == 1
    assert out.splitlines()[0] == "catalog mismatch: 13 missing, 2 extra"
    assert out == stored("verify_catalog_mismatch_both.txt")


def test_verify_catalog_fails_on_duplicate_descriptor(capsys, monkeypatch):
    # sg3(1, r-1) is a valid descriptor of the cyclic subgroup sg1m(1, r-1, 0)
    full = sg.enumerate_catalog
    monkeypatch.setattr(sg, "enumerate_catalog", lambda gp: full(gp) + [sg.sg3(1, 4)])
    code, out, _ = run_cli(capsys, ["verify-catalog", "--p", "3", "--r", "5", "--tau", "1"])
    assert code == 1
    assert out.splitlines()[0] == (
        'catalog duplicate: {"form":"sg1m","t":1,"i":4,"j":0} = {"form":"sg3","t":1,"i":4}'
    )
    assert out.rstrip().endswith("verify-catalog: FAIL")
    assert out == stored("verify_catalog_mismatch_duplicate.txt")


def test_verify_catalog_fails_on_wrong_derived_subgroup(capsys, monkeypatch):
    monkeypatch.setattr(sg, "commutator_subgroup", lambda gp: sg.sg1x(gp.r - 1))
    code, out, _ = run_cli(capsys, ["verify-catalog", "--p", "3", "--r", "5", "--tau", "1"])
    assert code == 1
    assert (
        'derived subgroup {"form":"sg1x","i":4} equals brute-force commutators: '
        "FAIL (order 3, commutator set of 9)"
    ) in out.splitlines()
    assert out.rstrip().endswith("verify-catalog: FAIL")


def test_verify_catalog_fails_on_a_claim_that_is_not_normal(capsys, monkeypatch):
    full = sg.is_normal
    monkeypatch.setattr(sg, "is_normal", lambda gp, d: d != sg.sg1x(2) and full(gp, d))
    code, out, _ = run_cli(capsys, ["verify-catalog", "--p", "3", "--r", "5", "--tau", "1"])
    assert code == 1
    lines = out.splitlines()
    fails = [line for line in lines if line.endswith(")") and "FAIL" in line]
    assert fails == [
        'normal, contains commutator subgroup: {"form":"sg1x","i":2}: '
        "FAIL (normal=False, contains=True)"
    ]
    assert lines[-1] == "verify-catalog: FAIL"


def test_verify_catalog_fails_on_a_wrong_closed_form_head(capsys, monkeypatch):
    # sg1m's x-step without its cap at x_mod: p^(i+2-j) in place of p^min(r, i+2-j)
    full = sg.descriptor_head

    def uncapped(gp, d):
        x_step, y_step, a_1 = full(gp, d)
        if d.form == "sg1m":
            x_step = gp.p ** (d.i + 2 - d.j)
        return x_step, y_step, a_1

    monkeypatch.setattr(sg, "descriptor_head", uncapped)
    code, out, _ = run_cli(capsys, ["verify-catalog", "--p", "3", "--r", "5", "--tau", "1"])
    assert code == 1
    lines = out.splitlines()
    assert [line for line in lines if line.startswith("closed-form head")] == [
        f"closed-form head [{3 ** (i + 2 - j)},{3 ** j},{a_1}] is not the generators' "
        f'[243,{3 ** j},{a_1}]: {{"form":"sg1m","t":{t},"i":{i},"j":{j}}}'
        for i, j, t, a_1 in ((4, 0, 1, 81), (4, 0, 2, 162), (5, 0, 1, 0), (5, 1, 1, 0))
    ]
    assert lines[-1] == "verify-catalog: FAIL"


def test_verify_catalog_small_r_exit_2(capsys):
    code, _, err = run_cli(capsys, ["verify-catalog", "--p", "3", "--r", "4", "--tau", "1"])
    assert code == 2


R4 = ["--p", "3", "--r", "4", "--tau", "1"]


@pytest.mark.parametrize(
    "argv, threads, message",
    [
        (["solve", *R4, "--subgroup", '{"form":"sg1x","i":1}'], "1", "the solver needs r > 4"),
        (["sweep", *R4, "--trials", "1"], "1", "the solver needs r > 4"),
        # 1,225 solves: two pool workers each fail at their first solve
        (["sweep", *R4], "2", "the solver needs r > 4"),
        (["verify-catalog", *R4], "1", "the normality claims are stated for r > 4"),
    ],
    ids=["solve", "sweep", "sweep-pool", "verify-catalog"],
)
def test_solver_commands_refuse_r_4_exit_2(capsys, monkeypatch, argv, threads, message):
    monkeypatch.setenv("HSP_SDP_THREADS", threads)
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "")
    assert err == f"error: {message}, got r = 4\n"


def test_verify_catalog_reports_a_bad_prime_before_small_r(capsys):
    code, _, err = run_cli(capsys, ["verify-catalog", "--p", "9", "--r", "4", "--tau", "1"])
    assert code == 2
    assert err == "error: p must be an odd prime, got 9\n"


# ------------------------------------------------------------------- plumbing

def test_console_entry_smoke():
    proc = subprocess.run(
        [sys.executable, "-m", "hsp_sdp.cli", "enumerate", "--p", "3", "--r", "5", "--tau", "1"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert len(proc.stdout.strip().splitlines()) == 62


def test_calls_in_one_process_match_lone_calls(capsys):
    # the parser is built once per process and reused by every call
    group = ["--p", "3", "--r", "5", "--tau", "1"]
    runs = [
        ["verify-catalog", "--r", "5", "--tau", "1"],  # usage error: no --p
        ["verify-catalog", *group],
        ["solve", *group, "--subgroup", '{"form":"bad"}'],
        ["enumerate", *group],
    ]
    in_process = [run_cli(capsys, argv) for argv in runs]
    lone = [
        subprocess.run([sys.executable, "-m", "hsp_sdp.cli", *argv], capture_output=True, text=True)
        for argv in runs
    ]
    assert [code for code, _, _ in in_process] == [2, 0, 2, 0]
    assert in_process == [(proc.returncode, proc.stdout, proc.stderr) for proc in lone]
    assert cli._build_parser() is cli._build_parser()


def test_usage_error_exits_2(capsys):
    # missing required group parameters
    assert cli.main(["solve", "--p", "3"]) == 2
    capsys.readouterr()
