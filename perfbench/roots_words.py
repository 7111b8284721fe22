"""Workload ``roots-words``: root systems and cactus-group words.

Layers: ``rootsystems`` (the Weyl closure, exact face centres, the xi map
and the two point relations) and ``groups`` (evaluation in solvable
targets, the diagram of groups, bounded rewriting and one large
presentation), with ``combinatorics`` underneath.  It never touches
``forests`` or ``projective``.  This is the Fraction and hashing hot path of
criterion 12, and ``groups`` seen as evaluation and rewriting rather than as
the presentations of ``complexes``.  The seed picks the chambers of A4 and
D4 whose faces are checked, and the point pairs compared.
"""
from __future__ import annotations

import itertools
import json
import random
from fractions import Fraction

from harness import cli_op

# Weyl group orders and root counts: pinned outputs of the Weyl closure.
TYPES = {"A4": (120, 20), "B3": (48, 18), "C3": (48, 18), "D4": (192, 24), "G2": (12, 12)}
XI_TYPES = {"A2": (6, 6), "A3": (24, 12)}
XI_GRIDS = {"A2": [Fraction(k, 4) for k in range(5)],
            "A3": [Fraction(0), Fraction(1, 2), Fraction(1)]}
# generator-path checks of the diagram of groups, per n
DIAGRAM_CHECKS = {3: 30, 4: 54, 5: 85, 6: 123, 7: 168, 8: 220, 9: 279}
REWRITE_RELATORS = {3: 12, 4: 42}
PRESENTATION_RELATORS = {6: 5145, 4: 45}  # pure virtual cactus group
# Face centres are checked on every face (chamber, Delta) of B3, C3 and G2,
# and on every face of this many seeded chambers of A4 and D4: all 5808
# faces would take longer than the rest of the pass.
SAMPLED_CHAMBERS = {"A4": 12, "D4": 12}
PASS_S = 14  # nominal seconds of one pass with its set-up; see harness.pass_count
SIZES = {  # full run, tiny smoke run
    "types": (tuple(TYPES), ("G2",)), "pairs": (20, 10),
    "hom_n": (tuple(range(3, 10)), (3, 4)), "diagram_n": ((6, 9), (4,)),
    "rewrite_n": ((3, 4), (3,)), "pvc_n": (6, 4),
}


def setup(lib, seed, tmp, tiny):
    size = {k: v[1 if tiny else 0] for k, v in SIZES.items()}
    rng = random.Random(seed)
    faces = []
    for name in size["types"]:
        order, _ = TYPES[name]
        rank = int(name[1])
        chambers = (sorted(rng.sample(range(order), SAMPLED_CHAMBERS[name]))
                    if name in SAMPLED_CHAMBERS else range(order))
        for index in chambers:
            for mask in range(1 << rank):
                faces.append((name, index, frozenset(k for k in range(rank) if mask >> k & 1)))
    # pairs are drawn as fractions of the (pinned-size) point list, so set-up
    # needs no root system
    pairs = {name: [(rng.random(), rng.random()) for _ in range(size["pairs"])]
             for name in XI_TYPES}
    return {"size": size, "faces": faces, "pairs": pairs}


def summary(inp) -> str:
    size = inp["size"]
    deltas: dict[int, int] = {}
    chambers: dict[str, set] = {}
    for name, index, delta in inp["faces"]:
        deltas[len(delta)] = deltas.get(len(delta), 0) + 1
        chambers.setdefault(name, set()).add(index)
    return json.dumps({
        "types": list(size["types"]), "faces": len(inp["faces"]),
        "chambers": {name: len(c) for name, c in chambers.items()},
        "delta_size_histogram": dict(sorted(deltas.items())),
        "xi_types": list(XI_TYPES), "pairs_per_type": size["pairs"],
        "hom_n": list(size["hom_n"]), "diagram_n": list(size["diagram_n"]),
        "rewrite_n": list(size["rewrite_n"]), "presentation_n": size["pvc_n"],
    }, sort_keys=True)


def _xi_and_relations(lib, p, name, system, pairs):
    """xi on the grid of every chamber, membership of each image, gluing
    across chambers, and both point relations on sampled pairs."""
    rs = lib.rootsystems
    systems = p.op("rootsystems.build", system.simple_systems,
                   check=lambda ss: len(ss) == XI_TYPES[name][0], what=name) or ()
    images: dict = {}
    for ss in systems:
        fd = rs.FaceDatum(ss, frozenset())
        for tt in itertools.product(XI_GRIDS[name], repeat=system.rank):
            t = dict(enumerate(tt))
            x = p.op("rootsystems.xi", rs.star_point_coords, ss, t)
            # the map must glue across chambers: one image per star point
            y = p.op("rootsystems.xi", rs.xi, fd, t,
                     check=lambda y, x=x: images.setdefault(x, y) == y, what=f"{name} xi glues")
            p.op("rootsystems.xi", rs.permutahedron_membership, system, y,
                 check=lambda inside: inside is True, what=f"{name} xi image")
    xs = sorted(images)
    cache: dict = {}
    for a, b in pairs:
        if not xs:
            break
        x, y = xs[int(a * len(xs))], xs[int(b * len(xs))]
        ix, iy = images[x], images[y]
        lhs = p.op("rootsystems.related", rs.star_points_related, system, x, y)
        p.op("rootsystems.related", rs.permutahedron_points_related, system, ix, iy,
             None, None, cache, check=lambda rhs, lhs=lhs: rhs == lhs,
             what=f"{name} intertwining")


def run_pass(lib, inp, p):
    rs, gr = lib.rootsystems, lib.groups
    size = inp["size"]

    systems = {}
    for name in tuple(size["types"]) + tuple(XI_TYPES):
        order, roots = TYPES.get(name) or XI_TYPES[name]
        systems[name] = p.op("rootsystems.build", rs.build_root_system, name,
                             check=lambda s, o=order, r=roots: s.order == o and len(s.roots) == r,
                             what=name)
    chambers = {name: p.op("rootsystems.build", lambda s=systems[name]: s.simple_systems(),
                           check=lambda ss, name=name: len(ss) == TYPES[name][0], what=name)
                for name in size["types"]}

    vertices = 0
    orbit_sizes: dict = {}
    for name, index, delta in inp["faces"]:
        if chambers[name] is None:
            continue
        fd = rs.FaceDatum(chambers[name][index], delta)
        p.op("rootsystems.face_centres", rs.verify_face_center, fd,
             check=lambda ok: ok is True, what=f"{name} face centre")
        # untimed, for the count: a face's vertex count depends on the type
        # and Delta only, not on the chamber
        if (name, delta) not in orbit_sizes:
            orbit_sizes[(name, delta)] = len(rs.face_vertices(fd))
        vertices += orbit_sizes[(name, delta)]
    p.count("rootsystems.faces", len(inp["faces"]))
    p.count("rootsystems.face_vertices", vertices)

    for name in XI_TYPES:
        if systems[name] is not None:
            _xi_and_relations(lib, p, name, systems[name], inp["pairs"][name])

    for n in size["hom_n"]:
        for pair in (("AC", "AS"), ("EAC", "EAS")):
            p.op("groups.evaluate", lambda pair=pair, n=n: gr.verify_hom(
                gr.hom(pair, n), "solvable_target"),
                check=lambda rep: rep.all_proven and rep.results, what=f"{pair} n={n}")
    for n in size["diagram_n"]:
        p.op("groups.diagram", gr.diagram_report, n,
             check=lambda rep, n=n: len(rep) == DIAGRAM_CHECKS[n] and all(ok for *_, ok in rep),
             what=f"n={n}")
    proven = total = 0
    for n in size["rewrite_n"]:
        rep = p.op("groups.rewrite", lambda n=n: gr.verify_hom(
            gr.hom(("AC", "vC"), n), "bounded_rewrite", depth=6),
            check=lambda rep, n=n: len(rep.results) == REWRITE_RELATORS[n] and rep.all_proven,
            what=f"AC->vC n={n}")
        if rep is not None:
            proven += sum(1 for r in rep.results if r[1] == "proven")
            total += len(rep.results)
    p.count("groups.rewrite.proven_ratio", proven / total if total else 0.0)
    pvc_n = size["pvc_n"]
    p.op("groups.presentation", gr.make_presentation, "pure_virtual_cactus", pvc_n,
         check=lambda pres: len(pres.relators) == PRESENTATION_RELATORS[pvc_n])

    cli_op(p, lib, ["roots", "--type", "G2", "--verify", "face-centers"], 0,
           lambda out: json.loads(out) == {"type": "G2", "checked": 48, "failures": 0,
                                           "pass": True})
    cli_op(p, lib, ["verify", "hom", "--from", "AC", "--to", "AS", "--n", "5"], 0,
           lambda out: json.loads(out)["pass"] is True)
    cli_op(p, lib, ["verify", "diagram", "--n", "4"], 0,
           lambda out: json.loads(out)["checks"] == DIAGRAM_CHECKS[4])
    cli_op(p, lib, ["roots", "--type", "G2", "--no-such-flag"], 2)
