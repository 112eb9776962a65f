"""Command line interface.

Subcommands:
  enumerate       list the subgroup catalog as JSON lines
  solve           recover one hidden subgroup and print a JSON report
  sweep           batch-solve the whole catalog and print CSV statistics
  verify-catalog  cross-check the catalog and its normality claims by brute force

Exit codes: 0 success, 1 runtime failure (retries exhausted or verification
failed), 2 configuration or usage error. HSP_SDP_THREADS caps sweep workers.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys

from . import composite as cx
from . import group as gr
from . import oracle as orc
from . import solver
from . import subgroup as sg
from .errors import (
    AbelianGroup,
    HspError,
    RetriesExhausted,
    VerificationFailed,
)


def _compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _fail(msg: str) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return 2


# ------------------------------------------------------------------ enumerate

def _cmd_enumerate(args) -> int:
    gp = gr.make_group(
        args.p, args.r, args.tau, allow_unclassified=args.allow_unclassified
    )
    for d in sg.enumerate_catalog(gp):
        row = sg.descriptor_to_json(d)
        row["order"] = sg.subgroup_order(gp, d)
        row["normal"] = sg.is_normal(gp, d)
        print(_compact(row))
    return 0


# ---------------------------------------------------------------------- solve

def _parse_generators(text: str, x_mod: int, y_mod: int) -> list[gr.Element]:
    data = json.loads(text)
    if not isinstance(data, list):
        raise ValueError("generators must be a JSON list of [a, b] pairs")
    gens = []
    for item in data:
        if not (
            isinstance(item, list)
            and len(item) == 2
            and all(type(c) is int for c in item)
        ):
            raise ValueError(f"bad generator {item!r}; expected [a, b]")
        gens.append((item[0] % x_mod, item[1] % y_mod))
    return gens


def _cmd_solve(args) -> int:
    specs = [s for s in (args.subgroup, args.generators) if s is not None]
    if len(specs) != 1:
        return _fail("provide exactly one of --subgroup or --generators")

    if args.N is not None:
        if args.r is not None or args.tau is not None:
            return _fail("--r/--tau do not apply in composite mode; use --N/--alpha")
        if args.alpha is None:
            return _fail("composite mode requires --alpha")
        if args.subgroup is not None:
            return _fail("descriptors index the prime-power catalog; composite mode takes --generators")
        if args.strategy != "auto":
            return _fail("composite mode chooses its own per-factor strategies")
        cp = cx.make_composite(args.N, args.p, args.alpha)
        dec = cx.decompose(cp)
        gens = _parse_generators(args.generators, dec.parent.x_mod, dec.parent.y_mod)
        o = orc.make_oracle_from_generators(dec.parent, gens)
        res = cx.solve_composite(cp, o, seed=args.seed)
        print(_compact(res.to_json()))
        return 0

    if args.r is None or args.tau is None:
        return _fail("--r and --tau are required unless --N is given")
    gp = gr.make_group(args.p, args.r, args.tau)
    if args.subgroup is not None:
        d = sg.descriptor_from_json(json.loads(args.subgroup))
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
    p, r, tau, descriptor_json, trials, base_seed, idx = task
    gp = gr.make_group(p, r, tau)
    d = sg.descriptor_from_json(json.loads(descriptor_json))
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
        descriptor_json,
        _fmt(successes / trials),
        _fmt(first / trials),
        _fmt(queries / successes if successes else float("nan")),
        _fmt(iters / successes if successes else float("nan")),
    ]
    return successes == trials, row


def _cmd_sweep(args) -> int:
    if args.trials < 1:
        return _fail("--trials must be at least 1")
    gp = gr.make_group(args.p, args.r, args.tau)
    catalog = sg.enumerate_catalog(gp)
    tasks = [
        (args.p, args.r, args.tau, _compact(sg.descriptor_to_json(d)),
         args.trials, args.seed, idx)
        for idx, d in enumerate(catalog)
    ]
    jobs = int(os.environ.get("HSP_SDP_THREADS", "0") or 0)
    if jobs <= 0:
        jobs = os.cpu_count() or 1
    if jobs == 1:
        results = [_sweep_worker(t) for t in tasks]
    else:
        # imported here so that processes which never fan out (solve,
        # verify-catalog, one-worker sweeps, library use) skip loading it
        from concurrent.futures import ProcessPoolExecutor

        # seeds derive from (base seed, catalog index, trial), so scheduling
        # cannot change the output
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_sweep_worker, tasks))
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
    subgroup: shallow pure-x chains, the two small grids, and every mixed
    form whose x depth stays at least two steps above the twist depth."""
    claims = []
    for d in catalog:
        if d.form == "sg1x" and 1 <= d.i <= 3:
            claims.append(d)
        elif d.form == "sg2" and (d.i, d.j) in ((1, 1), (2, 1)):
            claims.append(d)
        elif d.form == "sg1m" and d.j == 1 and d.i <= 2:
            claims.append(d)
        elif d.form == "sg1m" and d.j == 0 and d.i <= 1:
            claims.append(d)
        elif d.form == "sg3" and d.i in (0, 1):
            claims.append(d)
    return claims


def _cmd_verify_catalog(args) -> int:
    gp = gr.make_group(args.p, args.r, args.tau)
    catalog = sg.enumerate_catalog(gp)
    by_elements = {sg.elements(gp, d): d for d in catalog}
    lattice = set(sg.brute_force_lattice(gp))
    ok = True

    missing = lattice - by_elements.keys()
    extra = by_elements.keys() - lattice
    if missing or extra:
        ok = False
        print(f"catalog mismatch: {len(missing)} missing, {len(extra)} extra")
        for s in sorted(missing, key=lambda s: (len(s), sorted(s))):
            print(f"  missing subgroup of order {len(s)}: sample {sorted(s)[:4]}")
        for s in sorted(extra, key=lambda s: (len(s), sorted(s))):
            print(f"  extra descriptor {_compact(sg.descriptor_to_json(by_elements[s]))}")
    else:
        print(f"catalog matches brute-force lattice: {len(catalog)} subgroups")

    try:
        depth = gr.commutator_depth(gp)
    except AbelianGroup:
        depth = 0
    comm_gen = (gp.p ** (gp.r - depth) % gp.x_mod, 0)
    for d in _normality_claims(catalog):
        normal = sg.is_normal(gp, d)
        contains = sg.table_for(gp, d).contains(comm_gen)
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hsp-sdp",
        description="Hidden-subgroup recovery in Z_(p^r) x| Z_(p^2) by exact "
        "classical simulation of the quantum subroutines.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    enum_p = sub.add_parser("enumerate", help="list the subgroup catalog as JSON lines")
    _add_group_args(enum_p)
    enum_p.add_argument(
        "--allow-unclassified", action="store_true",
        help="permit 3 <= r <= 4 (catalog only; the solver refuses these)",
    )
    enum_p.set_defaults(func=_cmd_enumerate)

    solve_p = sub.add_parser("solve", help="recover one hidden subgroup, print a JSON report")
    solve_p.add_argument("--p", type=int, required=True, help="odd prime")
    solve_p.add_argument("--r", type=int, help="x modulus is p^r")
    solve_p.add_argument("--tau", type=int, help="twist parameter mod p^2")
    solve_p.add_argument("--N", type=int, help="composite x modulus (composite mode)")
    solve_p.add_argument("--alpha", type=int, help="twist unit mod N (composite mode)")
    solve_p.add_argument("--subgroup", help="hidden subgroup as a catalog descriptor JSON object")
    solve_p.add_argument("--generators", help="hidden subgroup as a JSON list of [a, b] generators")
    solve_p.add_argument(
        "--strategy", choices=["auto", "direct", "abelianization"], default="auto"
    )
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
    except (RetriesExhausted, VerificationFailed) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (HspError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
