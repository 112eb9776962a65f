"""The four workloads: seeded inputs, timed operations and their checks.

Each operation has three steps. `prepare` (untimed) builds a fresh oracle,
`run` (timed) is the call a user would make, and `check` (untimed) compares
the output with an independent reference and returns an `Outcome`.
NOTES.md gives the reason for each workload.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import random
import signal
import statistics
import subprocess
import sys
from dataclasses import dataclass

from hsp_sdp import cli
from hsp_sdp import composite as cx
from hsp_sdp import group as gr
from hsp_sdp import oracle as orc
from hsp_sdp import solver
from hsp_sdp import subgroup as sg

#: `hsp-sdp sweep` derives trial seeds as base + SEED_STRIDE * catalog index + trial
SEED_STRIDE = 1_000_003
#: a child CLI call that runs longer than this is killed and counted as failed
CHILD_TIMEOUT_S = 120
#: N = 3^5 * 5, with a class1 twist (tau = 1: alpha = 28 mod 243) and a class2
#: twist (tau = 3: alpha = 82 mod 243); both alphas are 1 mod 5
COMPOSITE_N = 1215
COMPOSITE_TWISTS = ((271, 1), (811, 3))


@dataclass
class Outcome:
    ok: bool
    solves: int = 0
    queries: int = 0
    sim_evals: int = 0
    iterations: int = 0
    first_try: int = 0
    note: str = ""


class SolveOp:
    """One `solver.solve` on a catalog subgroup; correct iff recovered == hidden."""

    traceable = True

    def __init__(self, gp, d, seed, prebuilt):
        self.gp, self.d, self.seed, self._prebuilt = gp, d, seed, prebuilt

    def prepare(self):
        o = self._prebuilt.pop((self.gp, self.d), None)
        return o if o is not None else orc.make_oracle(self.gp, self.d)

    def run(self, o):
        return solver.solve(o, seed=self.seed)

    def check(self, o, rep) -> Outcome:
        ok = rep.recovered == self.d
        note = "" if ok else f"recovered {rep.recovered} for hidden {self.d}"
        return Outcome(ok, 1, rep.oracle_queries, rep.simulation_cost,
                       rep.iterations, int(rep.first_try), note)


def _digest(elements) -> str:
    return hashlib.sha256(repr(sorted(elements)).encode()).hexdigest()


class CompositeCase:
    """A hidden subgroup of Z_1215 x| Z_9, given by generators."""

    def __init__(self, cp, gens):
        self.cp = cp
        self.parent = cx.decompose(cp).parent
        self.gens = gens
        self._expected = None

    def expected(self) -> str:
        """Digest of the brute-force subgroup; a digest keeps the benchmark's
        own memory out of peak_rss_mb."""
        if self._expected is None:
            o = orc.make_oracle_from_generators(self.parent, self.gens)
            self._expected = _digest(orc.brute_force_recover(o))
        return self._expected


class CompositeOp:
    """One `composite.solve_composite`; checked against `brute_force_recover`."""

    traceable = True

    def __init__(self, case, seed, prebuilt):
        self.case, self.seed, self._prebuilt = case, seed, prebuilt

    def prepare(self):
        o = self._prebuilt.pop(id(self.case), None)
        return o if o is not None else orc.make_oracle_from_generators(
            self.case.parent, self.case.gens)

    def run(self, o):
        return cx.solve_composite(self.case.cp, o, seed=self.seed)

    def check(self, o, res) -> Outcome:
        got = sg.SubgroupTable.from_generators(self.case.parent, res.generators).elements()
        ok = _digest(got) == self.case.expected()
        note = "" if ok else f"composite generators {self.case.gens}: wrong subgroup"
        return Outcome(ok, 1, res.oracle_queries, res.simulation_cost, res.iterations,
                       int(res.semidirect_report.first_try), note)


@contextlib.contextmanager
def _threads(n: int):
    old = os.environ.get("HSP_SDP_THREADS")
    os.environ["HSP_SDP_THREADS"] = str(n)
    try:
        yield
    finally:
        if old is None:
            del os.environ["HSP_SDP_THREADS"]
        else:
            os.environ["HSP_SDP_THREADS"] = old


def cli_in_process(argv, threads: int) -> tuple[int, str]:
    buf = io.StringIO()
    with _threads(threads), contextlib.redirect_stdout(buf):
        rc = cli.main(list(argv))
    return rc, buf.getvalue()


class CliReference:
    """Output of a 1-worker in-process run per argument list, made once."""

    def __init__(self):
        self._out: dict = {}

    def get(self, argv) -> tuple[int, str]:
        key = tuple(argv)
        if key not in self._out:
            self._out[key] = cli_in_process(argv, 1)
        return self._out[key]

    def offer(self, argv, result) -> None:
        self._out.setdefault(tuple(argv), result)


class CliOp:
    """`cli.main(argv)` in process for each argv; outputs must match the 1-worker reference."""

    def __init__(self, argvs, threads, reference, solves, traceable=True, kind="",
                 expect_pass=False):
        self.argvs, self.threads, self.reference = argvs, threads, reference
        self.solves, self.traceable, self.kind = solves, traceable, kind
        self.expect_pass = expect_pass

    def prepare(self):
        return None

    def run(self, _):
        return [cli_in_process(argv, self.threads) for argv in self.argvs]

    def check(self, _, results) -> Outcome:
        bad = []
        for argv, result in zip(self.argvs, results):
            rc, out = result
            if self.threads == 1:
                self.reference.offer(argv, result)
            ok = rc == 0 and result == self.reference.get(argv)
            if self.expect_pass:
                ok = ok and out.rstrip().endswith("verify-catalog: PASS")
            if not ok:
                bad.append(f"{' '.join(argv)}: exit {rc} or output differs")
        return Outcome(not bad, self.solves, note="; ".join(bad))


class ChildCliOp:
    """`python -m hsp_sdp.cli argv` as a child process per argv, HSP_SDP_THREADS set."""

    traceable = False

    def __init__(self, argvs, env, reference, solves):
        self.argvs, self.env, self.reference, self.solves = argvs, env, reference, solves

    def prepare(self):
        return None

    def run(self, _):
        return [self._child(argv) for argv in self.argvs]

    def _child(self, argv):
        proc = subprocess.Popen(
            [sys.executable, "-m", "hsp_sdp.cli", *argv], env=self.env,
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            start_new_session=True,
        )
        try:
            out, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)  # the CLI and its pool workers
            proc.communicate()
            return None, ""
        return proc.returncode, out

    def check(self, _, results) -> Outcome:
        bad = [
            f"{' '.join(argv)}: exit {result[0]} or CSV differs"
            for argv, result in zip(self.argvs, results)
            if result[0] != 0 or result != self.reference.get(argv)
        ]
        return Outcome(not bad, self.solves, note="; ".join(bad))


def _catalogs(groups) -> dict:
    return {gp: sg.enumerate_catalog(gp) for gp in groups}


class Workload:
    """Set-up is everything before the first timed op: groups, the cold
    catalogs and, for the solve workloads, one oracle per hidden subgroup.

    `pass_ops(k)` lists one pass of timed ops (pass k differs from pass 0
    only in its solve seeds); `trace_ops(k)` lists the ops of the traced run.
    """

    name = ""
    #: at least this many ops per run, so ten solves lie beyond p90
    min_ops = 1
    #: ops of pass 0 that are run a second time to check that counts repeat
    repeat_ops = 0

    def __init__(self, seed: int, tiny: bool, threads: int):
        self.seed, self.tiny, self.threads = seed, tiny, threads
        self.prebuilt: dict = {}

    def setup(self) -> None:
        raise NotImplementedError

    def pass_ops(self, k: int) -> list:
        raise NotImplementedError

    def trace_ops(self, k: int) -> list:
        return self.pass_ops(k)

    def layer_extras(self, timed) -> dict:
        """Per-layer values this workload measures without spans, from the
        (op record, scaled seconds) pairs of its untraced ops."""
        return {}


class CatalogSmall(Workload):
    name = "catalog-small"
    min_ops = 100
    repeat_ops = 20
    taus = (0, 1, 3)
    composites_per_twist = 12

    def setup(self):
        taus = (1,) if self.tiny else self.taus
        catalogs = _catalogs(gr.make_group(3, 5, tau) for tau in taus)
        self.hidden = [
            (gp, idx, d)
            for gp, cat in catalogs.items()
            for idx, d in enumerate(cat[:6] if self.tiny else cat)
        ]
        for gp, _, d in self.hidden:
            self.prebuilt[(gp, d)] = orc.make_oracle(gp, d)
        rng = random.Random(self.seed)
        per_twist = 1 if self.tiny else self.composites_per_twist
        self.cases = []
        for alpha, tau in COMPOSITE_TWISTS:
            cp = cx.make_composite(COMPOSITE_N, 3, alpha)
            dec = cx.decompose(cp)
            if dec.semidirect.tau != tau:
                raise ValueError(f"alpha {alpha} does not give tau {tau} on the 3-part")
            factor_cat = sg.enumerate_catalog(dec.semidirect)
            q_unit = dec.abelian[0].crt_unit
            for _ in range(per_twist):
                d = rng.choice(factor_cat)
                gens = [(a * dec.p_crt_unit % COMPOSITE_N, b)
                        for a, b in sg.generators(dec.semidirect, d)]
                if rng.randrange(2):
                    gens.append((q_unit, 0))
                case = CompositeCase(cp, gens)
                self.cases.append(case)
                self.prebuilt[id(case)] = orc.make_oracle_from_generators(case.parent, gens)

    def pass_ops(self, k):
        ops = [SolveOp(gp, d, self.seed + SEED_STRIDE * idx + k, self.prebuilt)
               for gp, idx, d in self.hidden]
        ops += [CompositeOp(case, self.seed + SEED_STRIDE * c + k, self.prebuilt)
                for c, case in enumerate(self.cases)]
        return ops


class BranchesLarge(Workload):
    name = "branches-large"
    min_ops = 100
    repeat_ops = 3
    groups = ((5, 6, 1), (5, 6, 5), (7, 5, 1))

    def setup(self):
        # One pick per (m, n) and y-projection size: solve time within an
        # (m, n) pair varies 3x with the y-projection size (the label cost),
        # so a pick per (m, n) alone would make each seed's pass cost differ.
        groups = self.groups[:1] if self.tiny else self.groups
        catalogs = _catalogs(gr.make_group(*g) for g in groups)
        rng = random.Random(self.seed)
        self.hidden = []
        for gp, cat in catalogs.items():
            strata: dict = {}
            for idx, d in enumerate(cat):
                table = sg.table_for(gp, d)
                key = (table.x_intersection_val(gp.p), table.y_intersection_val(gp.p),
                       len(table.reps))
                strata.setdefault(key, []).append((idx, d))
            picks = [rng.choice(strata[key]) for key in sorted(strata)]
            self.hidden += [(gp, idx, d) for idx, d in (picks[:2] if self.tiny else picks)]
        for gp, _, d in self.hidden:
            self.prebuilt[(gp, d)] = orc.make_oracle(gp, d)

    def pass_ops(self, k):
        return [SolveOp(gp, d, self.seed + SEED_STRIDE * idx + k, self.prebuilt)
                for gp, idx, d in self.hidden]


class SweepCli(Workload):
    name = "sweep-cli"
    taus = (1, 3)
    trials = 2

    def setup(self):
        taus = (1,) if self.tiny else self.taus
        trials = 1 if self.tiny else self.trials
        catalogs = _catalogs(gr.make_group(3, 5, tau) for tau in taus)
        self.argvs = [
            ["sweep", "--p", "3", "--r", "5", "--tau", str(gp.tau),
             "--trials", str(trials), "--seed", str(self.seed)]
            for gp in catalogs
        ]
        self.solves = sum(len(cat) for cat in catalogs.values()) * trials
        self.reference = CliReference()
        src = os.path.dirname(os.path.dirname(os.path.abspath(gr.__file__)))
        self.env = dict(os.environ, HSP_SDP_THREADS=str(self.threads))
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def pass_ops(self, k):
        return [ChildCliOp(self.argvs, self.env, self.reference, self.solves)]

    def trace_ops(self, k):
        # spans recorded in pool workers are lost, so only 1-worker sweeps are
        # traced; the 2-worker sweeps give cli.sweep.w2_s
        return [
            CliOp(self.argvs, w, self.reference, self.solves, traceable=w == 1, kind=f"w{w}")
            for w in sorted({1, self.threads})
        ]

    def layer_extras(self, timed):
        secs: dict = {}
        for t, dur in timed:
            secs.setdefault(t.op.kind, []).append(dur)
        w1, w2 = (statistics.median(secs.get(kind, [0.0])) for kind in ("w1", f"w{self.threads}"))
        return {
            "cli.sweep.w1_s": w1,
            "cli.sweep.w2_s": w2,
            "cli.sweep.parallel_efficiency": w1 / (self.threads * w2) if w2 else 0.0,
        }


class VerifyCatalog(Workload):
    name = "verify-catalog"
    taus = (1, 3)

    def setup(self):
        taus = (1,) if self.tiny else self.taus
        self.groups = list(_catalogs(gr.make_group(3, 5, tau) for tau in taus))
        self.reference = CliReference()
        # the calls take no random input; the seed only orders them
        random.Random(self.seed).shuffle(self.groups)

    def pass_ops(self, k):
        return [
            CliOp([["verify-catalog", "--p", "3", "--r", "5", "--tau", str(gp.tau)]], 1,
                  self.reference, 0, expect_pass=True)
            for gp in self.groups
        ]


WORKLOADS = {w.name: w for w in (CatalogSmall, BranchesLarge, SweepCli, VerifyCatalog)}
