"""Command line interface.

Subcommands:
  enumerate       list the subgroup catalog as JSON lines
  solve           recover one hidden subgroup and print a JSON report
  sweep           batch-solve the whole catalog and print CSV statistics
  verify-catalog  cross-check the catalog and its normality claims by brute force

enumerate takes any r >= 3; solve, sweep and verify-catalog need the paper's
r > 4 and exit 2 below it. solve --strategy is direct (the default) or
abelianization; composite mode refuses abelianization, as it picks its own
per-factor strategies.

Exit codes: 0 success, 1 runtime failure (retries exhausted or verification
failed), 2 configuration or usage error (any other HspError; any other
exception propagates). A sweep takes one worker process per 128 solves
(catalog size times --trials), so one under 256 solves runs in this process.
HSP_SDP_THREADS caps the workers; unset or 0 means the CPUs this process may
use. The output is identical either way.
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys

from . import group as gr
from . import oracle as orc
from . import solver
from . import subgroup as sg
from .errors import (
    HspError,
    PreconditionViolated,
    RetriesExhausted,
    RTooSmall,
    VerificationFailed,
)


def _compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


# ------------------------------------------------------------------ enumerate

def _cmd_enumerate(args) -> int:
    gp = gr.make_group(args.p, args.r, args.tau)
    for d in sg.enumerate_catalog(gp):
        row = sg.descriptor_to_json(d)
        row["order"] = sg.subgroup_order(gp, d)
        row["normal"] = sg.is_normal(gp, d)
        print(_compact(row))
    return 0


# ---------------------------------------------------------------------- solve

def _json_flag(text: str):
    try:  # a JSONDecodeError, or a plain ValueError for an over-long integer
        return json.loads(text)
    except ValueError as exc:
        raise PreconditionViolated(str(exc)) from None


def _parse_generators(text: str, x_mod: int, y_mod: int) -> list[gr.Element]:
    data = _json_flag(text)
    if not isinstance(data, list):
        raise PreconditionViolated("generators must be a JSON list of [a, b] pairs")
    gens = []
    for item in data:
        if not (
            isinstance(item, list)
            and len(item) == 2
            and all(type(c) is int for c in item)
        ):
            raise PreconditionViolated(f"bad generator {item!r}; expected [a, b]")
        gens.append((item[0] % x_mod, item[1] % y_mod))
    return gens


def _cmd_solve(args) -> int:
    specs = [s for s in (args.subgroup, args.generators) if s is not None]
    if len(specs) != 1:
        raise PreconditionViolated("provide exactly one of --subgroup or --generators")

    if args.N is not None:
        if args.r is not None or args.tau is not None:
            raise PreconditionViolated("--r/--tau do not apply in composite mode; use --N/--alpha")
        if args.alpha is None:
            raise PreconditionViolated("composite mode requires --alpha")
        if args.subgroup is not None:
            raise PreconditionViolated(
                "descriptors index the prime-power catalog; composite mode takes --generators"
            )
        if args.strategy == "abelianization":
            raise PreconditionViolated("composite mode chooses its own per-factor strategies")
        from . import composite as cx  # only composite mode loads it

        cp = cx.make_composite(args.N, args.p, args.alpha)
        dec = cx.decompose(cp)
        gens = _parse_generators(args.generators, dec.parent.x_mod, dec.parent.y_mod)
        o = orc.make_oracle_from_generators(dec.parent, gens)
        res = cx.solve_composite(cp, o, seed=args.seed)
        print(_compact(res.to_json()))
        return 0

    if args.r is None or args.tau is None:
        raise PreconditionViolated("--r and --tau are required unless --N is given")
    gp = gr.make_group(args.p, args.r, args.tau)
    if args.subgroup is not None:
        d = sg.descriptor_from_json(_json_flag(args.subgroup))
        o = orc.make_oracle(gp, d)
    else:
        gens = _parse_generators(args.generators, gp.x_mod, gp.y_mod)
        o = orc.make_oracle_from_generators(gp, gens)
    rep = solver.solve(o, strategy=args.strategy, seed=args.seed)
    print(_compact(rep.to_json()))
    return 0


# ---------------------------------------------------------------------- sweep

def _fmt(x: float) -> str:
    return f"{x:.6g}"


def _sweep_worker(task):
    gp, d, trials, base_seed, idx = task
    successes = first = queries = iters = 0
    for trial in range(trials):
        seed = base_seed + 1_000_003 * idx + trial
        o = orc.make_oracle(gp, d)
        try:
            rep = solver.solve(o, seed=seed)
        except (RetriesExhausted, VerificationFailed):
            continue
        successes += 1
        first += rep.first_try
        queries += rep.oracle_queries
        iters += rep.iterations
    row = [
        _compact(sg.descriptor_to_json(d)),
        _fmt(successes / trials),
        _fmt(first / trials),
        _fmt(queries / successes if successes else float("nan")),
        _fmt(iters / successes if successes else float("nan")),
    ]
    return successes == trials, row


#: below this many solves per worker, a pool's start-up and round trips cost
#: more than the solving it splits (the crossover is measured in README.md)
_SOLVES_PER_WORKER = 128


def _sweep_jobs(solves: int) -> int:
    """Worker processes for a sweep of this many solves: one per
    _SOLVES_PER_WORKER solves, at least one, and at most HSP_SDP_THREADS or,
    when that is unset or 0, the CPUs this process may use."""
    threads = os.environ.get("HSP_SDP_THREADS") or "0"
    try:
        cap = int(threads)
    except ValueError:
        cap = -1
    if cap < 0:
        raise PreconditionViolated(
            f"HSP_SDP_THREADS must be a non-negative integer, got {threads!r}"
        )
    if not cap:
        if hasattr(os, "sched_getaffinity"):
            cap = len(os.sched_getaffinity(0))
        else:
            cap = os.cpu_count() or 1
    return min(cap, max(1, solves // _SOLVES_PER_WORKER))


def _cmd_sweep(args) -> int:
    if args.trials < 1:
        raise PreconditionViolated("--trials must be at least 1")
    gp = gr.make_group(args.p, args.r, args.tau)
    catalog = sg.enumerate_catalog(gp)
    tasks = [(gp, d, args.trials, args.seed, idx) for idx, d in enumerate(catalog)]
    jobs = _sweep_jobs(len(tasks) * args.trials)
    if jobs == 1:
        results = [_sweep_worker(t) for t in tasks]
    else:
        # imported here so that processes which never fan out (solve,
        # verify-catalog, sweeps below the threshold, library use) skip loading it
        from concurrent.futures import ProcessPoolExecutor

        # seeds derive from (base seed, catalog index, trial), so scheduling
        # cannot change the output; four chunks per worker, as multiprocessing.Pool
        chunksize = -(-len(tasks) // (4 * jobs))
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_worker, tasks, chunksize=chunksize))
    writer = csv.writer(sys.stdout, lineterminator="\n")
    writer.writerow(
        ["subgroup", "success_rate", "first_try_rate", "mean_queries", "mean_iterations"]
    )
    all_good = True
    for good, row in results:
        all_good &= good
        writer.writerow(row)
    return 0 if all_good else 1


# ------------------------------------------------------------- verify-catalog

def _normality_claims(catalog):
    """The catalog entries claimed to be normal and to contain the commutator
    subgroup at r > 4: shallow pure-x chains, the two small grids, and every
    mixed form whose x depth stays at least two steps above the twist depth."""
    return [
        d for d in catalog
        if (d.form == "sg1x" and 1 <= d.i <= 3)
        or (d.form == "sg2" and (d.i, d.j) in ((1, 1), (2, 1)))
        or (d.form == "sg1m" and d.i <= 1 + d.j)
        or (d.form == "sg3" and d.i <= 1)
    ]


def _cmd_verify_catalog(args) -> int:
    gp = gr.make_group(args.p, args.r, args.tau)
    if gp.r <= 4:
        raise RTooSmall(f"the normality claims are stated for r > 4, got r = {gp.r}")
    catalog = sg.enumerate_catalog(gp)
    # the lattice first: its guard raises TooLarge before the catalog bitsets are built
    lattice = set(sg.brute_force_lattice_bits(gp))
    tables = {d: sg.table_for(gp, d) for d in catalog}
    bits_of = {d: table.bitset() for d, table in tables.items()}
    by_bits: dict[int, list[sg.Descriptor]] = {}
    for d in catalog:
        by_bits.setdefault(bits_of[d], []).append(d)
    duplicated = [bits for bits, ds in by_bits.items() if len(ds) > 1]
    ok = not duplicated

    missing = lattice - by_bits.keys()
    extra = by_bits.keys() - lattice
    if missing or extra:
        ok = False
        print(f"catalog mismatch: {len(missing)} missing, {len(extra)} extra")
        # only the unmatched members are decoded to element sets
        for s, _ in sg._by_elements(missing, gp.y_mod):
            print(f"  missing subgroup of order {len(s)}: sample {sorted(s)[:4]}")
        for _, bits in sg._by_elements(extra, gp.y_mod):
            print(f"  extra descriptor {_compact(sg.descriptor_to_json(by_bits[bits][0]))}")
    elif ok:
        print(f"catalog matches brute-force lattice: {len(catalog)} subgroups")
    for _, bits in sg._by_elements(duplicated, gp.y_mod):
        tags = " = ".join(_compact(sg.descriptor_to_json(d)) for d in by_bits[bits])
        print(f"catalog duplicate: {tags}")
    # is_normal reads each head in closed form; the generators' tables
    # (the group law) must give the same head
    for d, table in tables.items():
        a_1 = table.reps[1][1] if len(table.reps) > 1 else 0
        head, closed = (table.x_step, table.y_step, a_1), sg.descriptor_head(gp, d)
        if closed != head:
            ok = False
            tag = _compact(sg.descriptor_to_json(d))
            print(f"closed-form head {_compact(closed)} is not the generators' {_compact(head)}: {tag}")

    derived = sg.commutator_subgroup(gp)
    claimed = sg.elements(gp, derived)
    commutators = sg.brute_force_commutator(gp)
    tag = _compact(sg.descriptor_to_json(derived))
    if claimed == commutators:
        print(f"derived subgroup {tag} equals brute-force commutators: OK")
    else:
        ok = False
        print(
            f"derived subgroup {tag} equals brute-force commutators: FAIL "
            f"(order {len(claimed)}, commutator set of {len(commutators)})"
        )

    a, b = sg.generators(gp, derived)[0]
    for d in _normality_claims(catalog):
        normal = sg.is_normal(gp, d)
        contains = bool(bits_of[d] >> (a * gp.y_mod + b) & 1)  # (a, b) is bit a*y_mod + b
        tag = _compact(sg.descriptor_to_json(d))
        if normal and contains:
            print(f"normal, contains commutator subgroup: {tag}: OK")
        else:
            ok = False
            print(
                f"normal, contains commutator subgroup: {tag}: FAIL "
                f"(normal={normal}, contains={contains})"
            )

    print("verify-catalog: PASS" if ok else "verify-catalog: FAIL")
    return 0 if ok else 1


# ------------------------------------------------------------------- plumbing

def _add_group_args(sp, required=True):
    sp.add_argument("--p", type=int, required=True, help="odd prime")
    sp.add_argument("--r", type=int, required=required, help="x modulus is p^r")
    sp.add_argument("--tau", type=int, required=required, help="twist parameter mod p^2")


@functools.cache  # one parser per process: parse_args leaves it unchanged
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsp-sdp",
        description="Hidden-subgroup recovery in Z_(p^r) x| Z_(p^2) by exact "
        "classical simulation of the quantum subroutines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enum_p = sub.add_parser("enumerate", help="list the subgroup catalog as JSON lines")
    _add_group_args(enum_p)
    enum_p.set_defaults(func=_cmd_enumerate)

    solve_p = sub.add_parser("solve", help="recover one hidden subgroup, print a JSON report")
    _add_group_args(solve_p, required=False)
    solve_p.add_argument("--N", type=int, help="composite x modulus (composite mode)")
    solve_p.add_argument("--alpha", type=int, help="twist unit mod N (composite mode)")
    solve_p.add_argument("--subgroup", help="hidden subgroup as a catalog descriptor JSON object")
    solve_p.add_argument("--generators", help="hidden subgroup as a JSON list of [a, b] generators")
    solve_p.add_argument("--strategy", choices=["direct", "abelianization"], default="direct")
    solve_p.add_argument("--seed", type=int, default=0)
    solve_p.set_defaults(func=_cmd_solve)

    sweep_p = sub.add_parser("sweep", help="batch-solve the whole catalog, print CSV statistics")
    _add_group_args(sweep_p)
    sweep_p.add_argument("--trials", type=int, default=25, help="solves per catalog entry")
    sweep_p.add_argument("--seed", type=int, default=0, help="base seed for derived per-trial seeds")
    sweep_p.set_defaults(func=_cmd_sweep)

    ver_p = sub.add_parser(
        "verify-catalog",
        help="cross-check the catalog and its normality claims by brute force",
    )
    _add_group_args(ver_p)
    ver_p.set_defaults(func=_cmd_verify_catalog)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except HspError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1 if isinstance(exc, (RetriesExhausted, VerificationFailed)) else 2


if __name__ == "__main__":
    raise SystemExit(main())
