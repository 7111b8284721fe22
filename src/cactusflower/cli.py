"""Command-line interface: enumeration, verification, coordinate maps, and
exports over the whole toolkit.

Every invocation is reproducible from its flags: the one randomized verb,
``verify acceptance``, takes ``--seed`` with a fixed default.  Each flag is
declared only on the verbs that read it; ``--out`` is on every verb.  Exit
status: 0 on success/pass, 1 on a verification failure, 2 on usage errors
(a flag given to a verb that does not read it is a usage error).
"""
from __future__ import annotations

import argparse
import json
import sys

from . import acceptance as acc
from . import cubecomplexes as cc
from . import groups as gr
from . import projective as pj
from . import realgeometry as rg
from . import rootsystems as rs

# the --variety code of each family, in the order of VarietySpec.TAGS
VARIETY_CODES = dict(zip(("T", "f", "Cf", "M", "Q", "CQ"), pj.VarietySpec.TAGS))


def _emit(args, payload: str):
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(payload)
            if not payload.endswith("\n"):
                fh.write("\n")
    else:
        print(payload)


def _cmd_enumerate(args) -> int:
    c = cc.build_complex(args.complex, args.n)
    if args.subdivide:
        sub = cc.cubical_subdivision(c)
        counts = {str(k): v for k, v in sub.counts().items()}
    else:
        counts = {str(k): v for k, v in c.counts().items()}
    _emit(args, json.dumps(counts, sort_keys=True))
    return 0


def _cmd_verify(args) -> int:
    if args.what == "npc":
        rep = cc.check_gromov_flag(cc.build_complex(args.complex, args.n))
        _emit(args, json.dumps({"complex": args.complex, "n": args.n, "pass": rep.ok,
                                "witness": None if rep.ok else [rep.detail, list(rep.witness or ())]},
                               sort_keys=True))
        return 0 if rep.ok else 1

    if args.what == "local-isometry":
        src = cc.build_complex(getattr(args, "from"), args.n)
        dst = cc.build_complex(args.to, args.n)
        rep = cc.check_local_isometry(cc.quotient_map(src, dst))
        _emit(args, json.dumps({"map": f"{src.kind}->{dst.kind}", "n": args.n, "pass": rep.ok},
                               sort_keys=True))
        return 0 if rep.ok else 1

    if args.what == "hom":
        pair = (getattr(args, "from"), args.to)
        h = gr.hom(pair, args.n)
        mode = "solvable_target" if args.to in gr.SOLVABLE_TARGETS else "bounded_rewrite"
        rep = gr.verify_hom(h, mode)
        counts = {}
        for _, st, _ in rep.results:
            counts[st] = counts.get(st, 0) + 1
        ok = rep.all_proven
        _emit(args, json.dumps({"hom": f"{pair[0]}->{pair[1]}", "n": args.n,
                                "mode": mode, "statuses": counts, "pass": ok}, sort_keys=True))
        return 0 if ok else 1

    if args.what == "diagram":
        report = gr.diagram_report(args.n)
        bad = [f"{src}:{g}" for src, g, ok in report if not ok]
        _emit(args, json.dumps({"n": args.n, "checks": len(report), "failures": bad,
                                "pass": not bad}, sort_keys=True))
        return 0 if not bad else 1

    if args.what == "membership":
        with open(args.infile) as fh:
            point = pj.point_from_json(fh.read())
        tag = VARIETY_CODES[args.variety]
        n = len(point.labels) if isinstance(point, pj.MuTuple) else point.n
        rep = pj.check_membership(pj.VarietySpec(tag, n), point)
        _emit(args, json.dumps(
            {"variety": tag, "n": n, "pass": rep.ok,
             "violations": [[name, list(idx)] for name, idx, _ in sorted(rep.violations)[:20]]},
            sort_keys=True))
        return 0 if rep.ok else 1

    if args.what == "presentation":
        ext = cc.extract_presentation(cc.build_complex(args.complex, args.n))
        family = "pure_virtual_cactus" if args.complex == "hatD" else "pure_virtual_sym"
        gen = gr.make_presentation(family, args.n)
        ok = cc.presentations_match(ext, gen)
        _emit(args, json.dumps({"complex": args.complex, "family": family, "n": args.n,
                                "relators": len(ext.relators), "pass": ok}, sort_keys=True))
        return 0 if ok else 1

    if args.what == "acceptance":
        if args.criterion is not None:
            results = [acc.run_criterion(args.criterion, args.seed)]
        else:
            results = acc.run_all(args.seed)
        _emit(args, "\n".join(r.line() for r in results))
        return 0 if all(r.passed for r in results) else 1

    raise AssertionError(args.what)


def _cmd_classify(args) -> int:
    with open(args.infile) as fh:
        point = pj.point_from_json(fh.read())
    s, b, dims = pj.classify_strata(point)
    _emit(args, json.dumps({
        "S": sorted(sorted(blk) for blk in s.blocks),
        "B": sorted(sorted(blk) for blk in b.blocks),
        "dim_S_stratum": dims[0],
        "dim_B_stratum": dims[1],
    }, sort_keys=True))
    return 0


def _cmd_map(args) -> int:
    with open(args.infile) as fh:
        text = fh.read()
    if args.which == "gamma":
        p = rg.CubePoint.from_json(text)
        x = rg.gamma(p)
        _emit(args, json.dumps({"order": list(x.order), "diffs": [str(d) for d in x.diffs]},
                               sort_keys=True))
        return 0
    if args.which == "theta":
        p = rg.CubePoint.from_json(text)
        im = rg.theta(p)
        out = {
            "partition": sorted(sorted(b) for b in im.s_part.blocks),
            "nu": {f"{i},{j}": str(v) for (i, j), v in im.nu.as_dict().items()},
            "mu": {
                ",".join(map(str, sorted(part))): {
                    f"{a},{b},{c}": str(v) for (a, b, c), v in mu.as_dict().items()
                }
                for part, mu in im.mu_dict().items()
            },
        }
        _emit(args, json.dumps(out, sort_keys=True))
        return 0
    if args.which == "theta-star":
        nut = rg.theta_star(rg.StarPoint.from_json(text))
        _emit(args, json.dumps(
            {f"{i},{j}": str(v) for (i, j), v in nut.as_dict().items()}, sort_keys=True))
        return 0
    raise AssertionError(args.which)


def _cmd_path(args) -> int:
    if args.samples < 1:
        raise ValueError("--samples must be at least 1")
    lines = ["n,k,t,s,coordinate,re,im"]
    for step in range(args.samples + 1):
        t = step / args.samples
        point = rg.affine_cactus_path(args.n, args.k, t, args.s)
        for (i, j), v in point.nu:
            lines.append(f"{args.n},{args.k},{t},{args.s},nu_{i}_{j},{v.real},{v.imag}")
        for (a, b, c), v in point.mu:
            lines.append(f"{args.n},{args.k},{t},{args.s},mu_{a}_{b}_{c},{v.real},{v.imag}")
    _emit(args, "\n".join(lines))
    return 0


def _cmd_roots(args) -> int:
    spec = args.type
    if spec.strip().startswith("["):
        spec = json.loads(spec)
    system = rs.build_root_system(spec)
    if args.verify == "face-centers":
        total = bad = 0
        for fd in rs.all_face_data(system):
            total += 1
            if not rs.verify_face_center(fd):
                bad += 1
        _emit(args, json.dumps({"type": args.type, "checked": total, "failures": bad,
                                "pass": bad == 0}, sort_keys=True))
        return 0 if bad == 0 else 1
    if args.format == "csv":
        lines = ["simple_coords,weight_coords"]
        for root in system.roots:
            lines.append(
                '"%s","%s"' % (" ".join(map(str, root.simple)), " ".join(map(str, root.weight)))
            )
        _emit(args, "\n".join(lines))
    else:
        _emit(args, json.dumps({
            "type": args.type,
            "rank": system.rank,
            "roots": [list(r.simple) for r in system.roots],
            "weyl_order": system.order,
        }, sort_keys=True))
    return 0


def _cmd_export(args) -> int:
    c = cc.build_complex(args.complex, args.n)
    if args.format == "dot":
        _emit(args, cc.export_dot(c))
    else:
        _emit(args, cc.export_poset(c))
    return 0


def make_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cactusflower",
        description="exact computations on flower and cactus-flower moduli",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def leaf(owner, name, func, **kw):
        p = owner.add_parser(name, **kw)
        p.add_argument("--out", default=None)
        p.set_defaults(func=func)
        return p

    p = leaf(sub, "enumerate", _cmd_enumerate, help="cell counts of a complex")
    p.add_argument("--complex", required=True, choices=("D", "hatD", "breveD", "P", "hatP", "breveP"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--subdivide", action="store_true")

    p = sub.add_parser("verify", help="run a verification")
    vsub = p.add_subparsers(dest="what", required=True)

    q = leaf(vsub, "npc", _cmd_verify)
    q.add_argument("--complex", required=True, choices=("D", "hatD", "breveD"))
    q.add_argument("--n", type=int, required=True)

    q = leaf(vsub, "local-isometry", _cmd_verify)
    q.add_argument("--from", required=True, choices=("D", "breveD"))
    q.add_argument("--to", required=True, choices=("breveD", "hatD"))
    q.add_argument("--n", type=int, required=True)

    q = leaf(vsub, "hom", _cmd_verify)
    q.add_argument("--from", required=True, choices=gr.GROUPS)
    q.add_argument("--to", required=True, choices=gr.GROUPS)
    q.add_argument("--n", type=int, required=True)

    q = leaf(vsub, "diagram", _cmd_verify)
    q.add_argument("--n", type=int, required=True)

    q = leaf(vsub, "membership", _cmd_verify)
    q.add_argument("--variety", required=True, choices=tuple(VARIETY_CODES))
    q.add_argument("--in", dest="infile", required=True)

    q = leaf(vsub, "presentation", _cmd_verify)
    q.add_argument("--complex", required=True, choices=("hatD", "hatP"))
    q.add_argument("--n", type=int, required=True)

    q = leaf(vsub, "acceptance", _cmd_verify)
    q.add_argument("--criterion", type=int, default=None)
    q.add_argument("--seed", type=int, default=acc.DEFAULT_SEED)

    p = leaf(sub, "classify", _cmd_classify, help="strata of a flower-space point")
    p.add_argument("--in", dest="infile", required=True)

    p = leaf(sub, "map", _cmd_map, help="evaluate a coordinate map")
    p.add_argument("--which", required=True, choices=("gamma", "theta", "theta-star"))
    p.add_argument("--in", dest="infile", required=True)

    p = leaf(sub, "path", _cmd_path, help="sample the twisting path, CSV output")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--samples", type=int, default=100)
    p.add_argument("--s", type=float, default=1.0)

    p = leaf(sub, "roots", _cmd_roots, help="root system data and verifications")
    p.add_argument("--type", required=True)
    out = p.add_mutually_exclusive_group()  # a verification prints its own JSON
    out.add_argument("--verify", choices=("face-centers",), default=None)
    # no default string: argparse lets through a value that is its default
    out.add_argument("--format", choices=("json", "csv"), default=None, help="root table format (default json)")

    p = leaf(sub, "export", _cmd_export, help="DOT 1-skeleton or JSON cell poset")
    p.add_argument("--complex", required=True, choices=("D", "hatD", "breveD", "P", "hatP", "breveP"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--format", choices=("json", "dot"), default="json")

    return ap


def main(argv=None) -> int:
    ap = make_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except (pj.InvariantViolation, pj.NotAMember, acc.RetriesExhausted) as exc:
        # a verification failed partway, or its input is not a member of the
        # family it needs: exit 1, as for a failed check
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
