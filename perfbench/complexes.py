"""Workload ``complexes``: build and certify the planar-forest cube complexes.

Layers: ``forests`` (enumeration, canonical forms and flip/collapse at scale)
and ``cubecomplexes`` (build, flag, isometry, presentation, subdivision and
a negative control), with a little ``groups``.  This is the main time sink
of the acceptance suite.  The op list is fixed; the seed picks the square
the negative control removes.
"""
from __future__ import annotations

import json
import random

from harness import cli_op

N = 5          # rank of the forest sweeps and of the certified complexes
N_SMALL = 4    # rank of the presentation, subdivision and negative control
PASS_S = 13   # nominal seconds of one pass with its set-up; see harness.pass_count
KINDS = ("D", "breveD", "hatD")
CANON_KINDS = ("ordered", "cyclic", "unordered")

# Pinned outputs.  Forests with k internal edges on [5]:
FORESTS = {5: (120, 1200, 3600, 4200, 1680), 3: (6, 18, 12)}
# Distinct canonical sub-cubes (no flips) and big cubes (mod flips) per kind,
# indexed like CANON_KINDS, at n = 5 and n = 3:
DISTINCT = {
    5: {("ordered", False): 10800, ("cyclic", False): 7704, ("unordered", False): 7341,
        ("ordered", True): 2250, ("cyclic", True): 1329, ("unordered", True): 1181},
    3: {("ordered", False): 36, ("cyclic", False): 26, ("unordered", False): 25,
        ("ordered", True): 18, ("cyclic", True): 11, ("unordered", True): 10},
}
F_VECTORS = {
    ("D", 5): (120, 600, 900, 525, 105),
    ("breveD", 5): (24, 240, 540, 420, 105),
    ("hatD", 5): (1, 160, 495, 420, 105),
    ("D", 3): (6, 9, 3), ("breveD", 3): (2, 6, 3), ("hatD", 3): (1, 6, 3),
    ("hatD", 4): (1, 30, 45, 15), ("hatP", 4): (1, 6, 7, 1),
}
SUBDIVISION = {0: 91, 1: 330, 2: 360, 3: 120}  # of hatD_4


def setup(lib, seed, tmp, tiny):
    rng = random.Random(seed)
    # the negative control deletes one square face of one 3-cube of hatD_4;
    # the choice is resolved inside the timed op, so set-up builds nothing
    # and leaves the library's caches cold
    control = (rng.random(), rng.randrange(3))
    return {"n": 3 if tiny else N, "control": control}


def summary(inp) -> str:
    return (f"n={inp['n']} kinds={','.join(KINDS)} small_n={N_SMALL} "
            f"control=(cube {inp['control'][0]:.4f}, face {inp['control'][1]})")


def _negative_control(lib, c, control):
    """Delete one square of one top cube; the flag check must then FAIL."""
    frac, pair_index = control
    cubes = sorted(c.subcubes[3], key=lib.forests.forest_key)
    cube = cubes[int(frac * len(cubes))]
    edges = sorted(cube.edges(), key=sorted)
    pairs = [(a, b) for i, a in enumerate(edges) for b in edges[i + 1:]]
    face = c.sub_face(cube, pairs[pair_index])
    return lib.cubecomplexes.check_gromov_flag(lib.cubecomplexes.remove_subcube(c, face))


def run_pass(lib, inp, p):
    fo, cc, gr = lib.forests, lib.cubecomplexes, lib.groups
    n, small = inp["n"], N_SMALL

    by_k = []
    for k, want in enumerate(FORESTS[n]):
        by_k.append(p.op("forests.enumerate", fo.enumerate_planar_forests, n, k,
                         check=lambda fs, want=want: len(fs) == want, what=f"n={n} k={k}"))
    everything = [f for fs in by_k for f in fs or ()]
    p.count("forests.enumerate.forests", len(everything))

    # one op per public call, so op latencies are single calls
    for mod_flips in (False, True):
        for kind in CANON_KINDS:
            out = {p.op("forests.canon", fo.canon_forest, kind, f, mod_flips) for f in everything}
            p.expect(len(out) == DISTINCT[n][(kind, mod_flips)], f"{kind} mod_flips={mod_flips}")

    for k in range(1, n):
        below, same = set(by_k[k - 1] or ()), set(by_k[k] or ())
        for f in by_k[k] or ():
            for e in p.op("forests.flip_collapse", f.edges, check=lambda es: len(es) == k) or ():
                p.op("forests.flip_collapse", fo.flip, f, e, check=lambda g: g in same)
                p.op("forests.flip_collapse", fo.collapse, f, e, check=lambda g: g in below)

    built = {}
    subcubes = 0
    for kind in KINDS:
        c = p.op("cubecomplexes.build", cc.build_complex, kind, n,
                 check=lambda c, kind=kind: c.f_vector() == F_VECTORS[(kind, n)], what=kind)
        built[kind] = c
        subcubes += sum(len(v) for v in c.subcubes.values()) if c else 0
    p.count("cubecomplexes.build.subcubes", subcubes)
    p.count("cubecomplexes.build.useful_ratio", subcubes / (len(KINDS) * len(everything)))

    for kind in KINDS:
        p.op("cubecomplexes.flag", cc.check_gromov_flag, built[kind],
             check=lambda rep: rep.ok, what=kind)
    for a, b in (("D", "breveD"), ("breveD", "hatD")):
        p.op("cubecomplexes.isometry",
             lambda a=a, b=b: cc.check_local_isometry(cc.quotient_map(built[a], built[b])),
             check=lambda rep: rep.ok, what=f"{a}->{b}")
    del built

    hat_d = p.op("cubecomplexes.build", cc.build_complex, "hatD", small,
                 check=lambda c: c.f_vector() == F_VECTORS[("hatD", small)], what="hatD_4")
    hat_p = p.op("cubecomplexes.build", cc.build_complex, "hatP", small,
                 check=lambda c: c.f_vector() == F_VECTORS[("hatP", small)], what="hatP_4")
    for c, family in ((hat_d, "pure_virtual_cactus"), (hat_p, "pure_virtual_sym")):
        extracted = p.op("cubecomplexes.presentation", cc.extract_presentation, c, what=family)
        generated = p.op("groups.presentation", gr.make_presentation, family, small, what=family)
        p.op("cubecomplexes.presentation", cc.presentations_match, extracted, generated,
             check=lambda ok: ok is True, what=f"{family} match")
    p.op("cubecomplexes.subdivision", lambda: cc.cubical_subdivision(hat_d).counts(),
         check=lambda counts: counts == SUBDIVISION)
    p.op("cubecomplexes.negative_control", _negative_control, lib, hat_d, inp["control"],
         check=lambda rep: (not rep.ok) and rep.witness is not None)

    cli_op(p, lib, ["verify", "npc", "--complex", "hatD", "--n", "4"], 0,
           lambda out: '"pass": true' in out)
    cli_op(p, lib, ["enumerate", "--complex", "breveD", "--n", "4"], 0,
           lambda out: json.loads(out) == {"0": 6, "1": 36, "2": 45, "3": 15})
    cli_op(p, lib, ["export", "--format", "dot", "--complex", "hatD", "--n", "3"], 0,
           lambda out: out.startswith("graph skeleton {"))
    cli_op(p, lib, ["verify", "npc", "--complex", "hatD", "--n", "3", "--no-such-flag"], 2)
