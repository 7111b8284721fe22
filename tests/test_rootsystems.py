import functools
import itertools
import random
from fractions import Fraction as F

import pytest

from cactusflower import rootsystems
from cactusflower.realgeometry import INF, NEG_INF
from cactusflower.rootsystems import (
    EXPECTED_ROOT_COUNTS,
    NAMED_CARTAN,
    FaceDatum,
    all_face_data,
    build_root_system,
    face_center,
    face_vertices,
    permutahedron_faces_containing,
    permutahedron_membership,
    permutahedron_points_related,
    star_membership,
    star_point_coords,
    star_points_related,
    theta_root,
    verify_face_center,
    xi,
)


def test_root_counts():
    for name, expected in EXPECTED_ROOT_COUNTS.items():
        assert len(build_root_system(name).roots) == expected


def test_weyl_orders():
    orders = {"A2": 6, "A3": 24, "B2": 8, "B3": 48, "B4": 384, "C4": 384, "D4": 192,
              "F4": 1152, "G2": 12}
    for name, order in orders.items():
        assert build_root_system(name).order == order


def test_invalid_cartan_rejected():
    with pytest.raises(ValueError):
        build_root_system([[2, -1], [-5, 2]])
    with pytest.raises(ValueError):
        build_root_system([[1]])
    with pytest.raises(ValueError):
        build_root_system("E8")


def test_weyl_closure_stops_at_its_cap(monkeypatch):
    # |W(A4)| = 120 passes a cap of 100 and raises; A3 (24) stays within it
    monkeypatch.setattr(rootsystems, "_WEYL_CAP", 100)
    with pytest.raises(ValueError, match="more than 100 elements"):
        build_root_system(NAMED_CARTAN["A4"])
    assert build_root_system("A3").order == 24


def _e_cartan(rank):
    """The Cartan matrix of E6, E7 or E8 (Bourbaki labels: 1-3-4-5-...,
    with 2 joined to 4)."""
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in [(0, 2), (1, 3), (2, 3)] + [(k, k + 1) for k in range(3, rank - 1)]:
        a[i][j] = a[j][i] = -1
    return a


def test_weyl_order_formula_matches_enumeration():
    a1_a2 = [[2, 0, 0], [0, 2, -1], [0, -1, 2]]  # reducible: |W| = 2 * 6
    systems = [build_root_system(name) for name in NAMED_CARTAN]
    systems += [build_root_system(_e_cartan(6)), build_root_system(a1_a2)]
    for rs in systems:
        assert rootsystems._weyl_order(rt.simple for rt in rs.roots) == len(rs.elements) == rs.order
    assert systems[-2].order == 51840 and systems[-1].order == 12


def test_weyl_groups_over_the_cap_are_refused_before_enumeration():
    # |W(E7)| = 2,903,040 and |W(E8)| = 696,729,600
    for rank, count, order in ((7, 126, 2903040), (8, 240, 696729600)):
        a = _e_cartan(rank)
        roots = _root_closure_coords(a)
        assert len(roots) == count and rootsystems._weyl_order(roots) == order
        with pytest.raises(ValueError, match="more than 100000 elements"):
            build_root_system(a)


def _root_closure_coords(a):
    """Every root of a finite-type Cartan matrix, in simple-root coordinates,
    by reflecting the simple roots until nothing new appears."""
    r = len(a)
    seen = {tuple(int(k == i) for k in range(r)) for i in range(r)}
    frontier = list(seen)
    while frontier:
        nxt = []
        for c in frontier:
            for i in range(r):
                c2 = c[:i] + (c[i] - sum(a[i][j] * c[j] for j in range(r)),) + c[i + 1:]
                if c2 not in seen:
                    seen.add(c2)
                    nxt.append(c2)
        frontier = nxt
    return seen


def test_face_center_trivial_cases():
    rs = build_root_system("A2")
    for ss in rs.simple_systems():
        # delta = everything: the face is the vertex itself
        fd = FaceDatum(ss, frozenset(range(rs.rank)))
        assert face_center(fd) == ss.rho()
        assert face_vertices(fd) == frozenset([ss.rho()])
        # delta empty: the whole permutahedron, centred at the origin
        fd = FaceDatum(ss, frozenset())
        assert face_center(fd) == (F(0), F(0))


def test_face_centers_small_types():
    for name in ("A2", "B2", "A3", "G2"):
        rs = build_root_system(name)
        faces = list(all_face_data(rs))
        # one face per chamber and subset Delta of the rank positions
        assert len(faces) == rs.order * 2**rs.rank
        assert all(verify_face_center(fd) for fd in faces)


def test_xi_vertices_and_membership():
    rs = build_root_system("A2")
    for ss in rs.simple_systems():
        fd = FaceDatum(ss, frozenset())
        zeros = {i: F(0) for i in range(2)}
        ones = {i: F(1) for i in range(2)}
        assert xi(fd, zeros) == face_center(fd)
        assert xi(fd, ones) == ss.rho()
        for tt in itertools.product([F(0), F(1, 2), F(1)], repeat=2):
            y = xi(fd, dict(enumerate(tt)))
            assert permutahedron_membership(rs, y)
            for i in range(rs.rank):
                root = rs.roots[ss.root_indices[i]]
                assert rs.copair(root, y) >= 0  # image stays in the chamber


def test_xi_glues_and_is_injective_per_chamber():
    for name in ("A2", "B2"):
        rs = build_root_system(name)
        grid = [F(k, 3) for k in range(4)]
        by_star_point = {}
        for ss in rs.simple_systems():
            fd = FaceDatum(ss, frozenset())
            images = {}
            for tt in itertools.product(grid, repeat=rs.rank):
                t = dict(enumerate(tt))
                y = xi(fd, t)
                assert y not in images or images[y] == tt  # injective on the grid
                images[y] = tt
                by_star_point.setdefault(star_point_coords(ss, t), set()).add(y)
        assert all(len(v) == 1 for v in by_star_point.values())


def test_translation_formula_for_related_points():
    # related boundary points map to translates by the difference of the
    # chamber vertices
    rs = build_root_system("A2")
    systems = rs.simple_systems()
    for ss1 in systems:
        for ss2 in systems:
            for d1 in range(2):
                fd1, fd2 = FaceDatum(ss1, frozenset([d1])), None
                keep1 = {ss1.root_indices[i] for i in range(2) if i != d1}
                for d2 in range(2):
                    keep2 = {ss2.root_indices[i] for i in range(2) if i != d2}
                    if keep1 == keep2:
                        fd2 = FaceDatum(ss2, frozenset([d2]))
                        break
                if fd2 is None or fd1 == fd2:
                    continue
                free1 = next(i for i in range(2) if i not in fd1.delta)
                free2 = next(i for i in range(2) if i not in fd2.delta)
                for tval in (F(0), F(1, 3), F(1)):
                    x1 = xi(fd1, {free1: tval})
                    x2 = xi(fd2, {free2: tval})
                    shift = tuple(a - b for a, b in zip(ss1.rho(), ss2.rho()))
                    assert x1 == tuple(a + s for a, s in zip(x2, shift))
                    s1 = star_point_coords(ss1, {free1: tval, d1: F(1)})
                    s2 = star_point_coords(ss2, {free2: tval, d2: F(1)})
                    assert star_points_related(rs, s1, s2)
                    assert permutahedron_points_related(rs, x2, x1, [fd2], [fd1])


def test_theta_root_values():
    rs = build_root_system("A2")
    base = rs.simple_systems()[0]
    z = theta_root(base, {0: F(0), 1: F(0)})
    assert all(v == 0 for v in z.values())
    # one coordinate at the wall: infinite exactly off the parabolic
    z = theta_root(base, {0: F(1, 2), 1: F(1)})
    finite_roots = {r.simple for r in rs.roots if z[r.simple] not in (INF, NEG_INF)}
    expected = {r.simple for r in rs.roots if base.coords_in(r)[1] == 0}
    assert finite_roots == expected
    # the finite part is closed under addition of roots (a root subsystem
    # spanned by the kept simple roots)
    roots = {r.simple for r in rs.roots}
    for a in finite_roots:
        for b in finite_roots:
            s = tuple(x + y for x, y in zip(a, b))
            if s in roots:
                assert s in finite_roots


def test_theta_root_triangle_relation():
    rs = build_root_system("B2")
    base = rs.simple_systems()[0]
    z = theta_root(base, {0: F(1, 3), 1: F(2, 7)})
    roots = {r.simple for r in rs.roots}
    for a in roots:
        for b in roots:
            s = tuple(x + y for x, y in zip(a, b))
            if s in roots:
                assert z[a] + z[b] == z[s]


def test_theta_root_glues():
    rs = build_root_system("A2")
    grid = [F(k, 2) for k in range(3)]
    by_point = {}
    for ss in rs.simple_systems():
        for tt in itertools.product(grid, repeat=2):
            t = dict(enumerate(tt))
            x = star_point_coords(ss, t)
            z = tuple(sorted(theta_root(ss, t).items()))
            by_point.setdefault(x, set()).add(z)
    assert all(len(v) == 1 for v in by_point.values())


def test_membership():
    rs = build_root_system("A2")
    assert permutahedron_membership(rs, rs.rho)
    found = star_membership(rs, rs.rho)
    assert found is not None and all(v == 1 for v in found[1].values())
    assert star_membership(rs, (F(0), F(0))) is not None
    assert not permutahedron_membership(rs, (F(2), F(2)))
    assert star_membership(rs, (F(2), F(2))) is None
    # an interior permutahedron point that is outside the star
    rs3 = build_root_system("A3")
    probe = (F(17, 16), F(0), F(17, 16))
    if permutahedron_membership(rs3, probe):
        assert star_membership(rs3, probe) is None


def test_parallel_faces_hexagon():
    # in the hexagon each edge has a unique genuinely parallel partner edge
    rs = build_root_system("A2")
    systems = rs.simple_systems()
    fd1 = FaceDatum(systems[0], frozenset([0]))
    c1 = face_center(fd1)
    partners = set()
    for ss in systems:
        for d in range(2):
            fd2 = FaceDatum(ss, frozenset([d]))
            c2 = face_center(fd2)
            if permutahedron_points_related(rs, c1, c2, [fd1], [fd2]):
                partners.add(frozenset(face_vertices(fd2)))
    assert len(partners) == 2  # the edge itself and the opposite edge
    assert permutahedron_points_related(rs, c1, c1, [fd1], [fd1])


def test_face_centers_f4_seeded_chambers():
    rs = build_root_system("F4")
    systems = rs.simple_systems()
    for index in random.Random(4).sample(range(rs.order), 2):
        for mask in range(1 << rs.rank):
            delta = frozenset(k for k in range(rs.rank) if mask >> k & 1)
            assert verify_face_center(FaceDatum(systems[index], delta))


# -- the Fraction Weyl closure, kept as a reference for the integer one ------


def _fraction_reflect(root, x):
    c = sum(F(q) * v for q, v in zip(root.copairing, x))
    return tuple(v - c * w for v, w in zip(x, root.weight))


def _reference_elements(rs):
    """Matrices on weight space with Fraction entries, each new one obtained
    by reflecting the columns of its parent in a simple root, keyed by the
    root permutation read off from the image weights; in the same
    breadth-first order as RootSystem.elements."""
    r = rs.rank
    by_weight = {rt.weight: k for k, rt in enumerate(rs.roots)}

    def root_perm(m):
        return tuple(by_weight[tuple(sum(m[i][j] * rt.weight[j] for j in range(r))
                                     for i in range(r))] for rt in rs.roots)

    ident = tuple(tuple(F(int(i == j)) for j in range(r)) for i in range(r))
    elements, seen = {root_perm(ident): ident}, {ident}
    frontier = [ident]
    while frontier:
        nxt = []
        for m in frontier:
            for i in range(r):
                root = rs.roots[rs._simple_idx[i]]
                m2 = tuple(zip(*(_fraction_reflect(root, col) for col in zip(*m))))
                if m2 not in seen:  # the action on roots is faithful
                    seen.add(m2)
                    elements[root_perm(m2)] = m2
                    nxt.append(m2)
        frontier = nxt
    return elements


def _reference_simple_systems(rs, elements):
    """(root_indices, matrix, inv_perm, inverse's matrix) per Weyl element,
    sorted."""
    out = []
    for perm, m in elements.items():
        inv = [0] * len(perm)
        for a, b in enumerate(perm):
            inv[b] = a
        inv = tuple(inv)
        out.append((tuple(perm[i] for i in rs._simple_idx), m, inv, elements[inv]))
    return sorted(out)


@functools.cache
def _reference_chambers(name):
    """_reference_simple_systems of a named type, built once per test run:
    the Fraction closure of F4 takes seconds."""
    rs = build_root_system(name)
    return _reference_simple_systems(rs, _reference_elements(rs))


def _reference_face(rs, chamber, delta):
    """Vertex set and centre of a face, in Fractions: the orbit of rho_Pi
    under the reflections kept, and rho_Pi minus the parabolic half-sum."""
    indices, m, inv, _ = chamber
    r = rs.rank
    rho = tuple(sum(m[i][j] for j in range(r)) for i in range(r))
    keep = [k for k in range(r) if k not in delta]
    gens = [rs.roots[indices[k]] for k in keep]
    orbit, frontier = {rho}, [rho]
    while frontier:
        images = {_fraction_reflect(g, x) for x in frontier for g in gens}
        frontier = images - orbit
        orbit |= frontier
    half = [F(0)] * r
    for root in rs.roots:
        c = rs.roots[inv[rs._root_index[root.simple]]].simple
        if all(x >= 0 for x in c) and all(c[k] == 0 or k in keep for k in range(r)):
            half = [h + F(w, 2) for h, w in zip(half, root.weight)]
    return frozenset(orbit), tuple(p - h for p, h in zip(rho, half))


def _reference_xi(rs, chamber, delta, t):
    """xi in Fractions: the multilinear blend of the face centres, each
    subset d of the positions (containing delta) weighted by the product of
    t_i over d and 1 - t_i off it."""
    r = rs.rank
    tv = [F(1) if i in delta else F(t[i]) for i in range(r)]
    if not all(0 <= v <= 1 for v in tv):
        raise ValueError("coordinates lie in [0, 1]")
    out = [F(0)] * r
    for mask in range(1 << r):
        d = {i for i in range(r) if mask >> i & 1}
        if not set(delta) <= d:
            continue
        coeff = F(1)
        for i in range(r):
            coeff *= tv[i] if i in d else 1 - tv[i]
        centre = _reference_face(rs, chamber, d)[1]
        out = [o + coeff * c for o, c in zip(out, centre)]
    return tuple(out)


@pytest.mark.parametrize("name", ["A2", "A3", "B3", "G2"])
def test_xi_matches_fraction_reference_off_grid(name):
    rs = build_root_system(name)
    chambers = _reference_chambers(name)
    rng = random.Random(13)
    for ss, chamber in zip(rs.simple_systems(), chambers):
        for size in range(rs.rank + 1):
            for delta in itertools.combinations(range(rs.rank), size):
                fd = FaceDatum(ss, frozenset(delta))
                t = {i: F(rng.randint(1, 10), rng.choice([7, 11, 13])) for i in range(rs.rank)}
                t = {i: min(v, F(1)) for i, v in t.items()}
                got = xi(fd, t)
                assert got == _reference_xi(rs, chamber, delta, t)
                assert all(type(v) is F for v in got)
                if size < rs.rank:
                    free = next(i for i in range(rs.rank) if i not in delta)
                    for bad in (F(-1, 9), F(10, 9)):
                        with pytest.raises(ValueError, match=r"\[0, 1\]"):
                            xi(fd, {**t, free: bad})


@pytest.mark.parametrize("name", sorted(NAMED_CARTAN))
def test_integer_inverse_of_the_cartan_matrix(name):
    # A _adj = det I with det > 0, so _adj y has the signs of A^-1 y
    rs = build_root_system(name)
    product = [[sum(a * b for a, b in zip(row, col)) for col in zip(*rs._adj)] for row in rs.cartan]
    assert rs._det > 0
    assert product == [[rs._det * (i == j) for j in range(rs.rank)] for i in range(rs.rank)]


def _reference_symmetrizer(a):
    """d with d_i a_ij = d_j a_ji, in Fractions, by rescaling along the
    edges until no pair disagrees (it ends on finite types, whose Dynkin
    diagrams are forests)."""
    r = len(a)
    d = [F(1)] * r
    changed = True
    while changed:
        changed = False
        for i in range(r):
            for j in range(r):
                if a[i][j] and d[i] * a[i][j] != d[j] * a[j][i]:
                    d[j] = d[i] * a[i][j] / a[j][i]
                    changed = True
    return d


def _reference_copairing(a, d, c):
    """The coroot of the root with simple coordinates c, in simple coroots:
    c_j 2 d_j / (alpha, alpha), the form being (alpha_i, alpha_j) = d_i a_ij."""
    r = len(a)
    norm = sum(d[i] * a[i][j] * c[i] * c[j] for i in range(r) for j in range(r))
    return tuple(c[j] * 2 * d[j] / norm for j in range(r))


@pytest.mark.parametrize("name", sorted(NAMED_CARTAN))
def test_copairing_matches_fraction_reference(name):
    rs = build_root_system(name)
    d = _reference_symmetrizer(rs.cartan)
    for root in rs.roots:
        assert all(type(q) is int for q in root.copairing)
        assert root.copairing == _reference_copairing(rs.cartan, d, root.simple)
        assert rs.copair(root, root.weight) == 2


def _reference_membership(rs, x):
    """The dominance criterion in Fractions: reflect x into the closed
    fundamental chamber, then solve A c = rho - x for the simple-root
    coordinates c and test them for signs."""
    r = rs.rank
    y = [F(v) for v in x]
    while any(v < 0 for v in y):
        i = next(k for k, v in enumerate(y) if v < 0)
        y = list(_fraction_reflect(rs.roots[rs._simple_idx[i]], y))
    m = [[F(a) for a in row] + [1 - v] for row, v in zip(rs.cartan, y)]
    for col in range(r):
        piv = next(k for k in range(col, r) if m[k][col] != 0)
        m[col], m[piv] = m[piv], m[col]
        m[col] = [v / m[col][col] for v in m[col]]
        for k in range(r):
            if k != col:
                m[k] = [a - m[k][col] * b for a, b in zip(m[k], m[col])]
    return all(row[r] >= 0 for row in m)


@pytest.mark.parametrize("name", ["A2", "A3", "B3", "C3", "G2"])
def test_membership_matches_fraction_reference_on_perturbed_points(name):
    rs = build_root_system(name)
    rng = random.Random(7)
    verdicts = []
    for ss in rs.simple_systems():
        fd = FaceDatum(ss, frozenset())
        for _ in range(4):
            y = xi(fd, {i: F(rng.randint(0, 6), 6) for i in range(rs.rank)})
            for _ in range(3):
                step = F(rng.choice([-1, 1]), rng.choice([5, 16, 49]))
                k = rng.randrange(rs.rank)
                probe = tuple(v + step * (i == k) for i, v in enumerate(y))
                got = permutahedron_membership(rs, probe)
                assert got == _reference_membership(rs, probe)
                verdicts.append(got)
    assert any(verdicts) and not all(verdicts)


_CRITERION_12_TYPES = ["A1", "A2", "A3", "A4", "B2", "B3", "C3", "D4", "G2"]


@pytest.mark.parametrize("name", _CRITERION_12_TYPES)
def test_wrong_centre_fails_the_face_centre_comparison(name):
    rs = build_root_system(name)
    for ss in rs.simple_systems()[:6]:
        table = ss.doubled_centres
        faces = [FaceDatum(ss, frozenset(k for k in range(rs.rank) if mask >> k & 1))
                 for mask in range(1 << rs.rank)]
        assert all(verify_face_center(fd) for fd in faces)
        # the entry of another keep-mask, then one coordinate off by one
        for wrong in (tuple(table[mask ^ 1] for mask in range(len(table))),
                      tuple((c[0] + 1,) + c[1:] for c in table)):
            ss.__dict__["doubled_centres"] = wrong
            try:
                assert not any(verify_face_center(fd) for fd in faces)
            finally:
                ss.__dict__["doubled_centres"] = table


def _reference_weight_orbit(ss, mask):
    """A face's vertices by breadth-first search in weight coordinates: the
    orbit of rho_Pi under the reflections in the kept roots of Pi, one
    coroot pairing per (vertex, reflection)."""
    gens = [(g.copairing, g.weight) for i, g in enumerate(ss.roots()) if mask >> i & 1]
    start = ss.rho()
    orbit, frontier = {start}, [start]
    while frontier:
        nxt = []
        for x in frontier:
            for cop, w in gens:
                c = sum(a * b for a, b in zip(cop, x))
                if c > 0:
                    y = tuple(v - c * u for v, u in zip(x, w))
                    if y not in orbit:
                        orbit.add(y)
                        nxt.append(y)
        frontier = nxt
    return orbit


@pytest.mark.parametrize("name", sorted(NAMED_CARTAN))
def test_parabolic_orbit_matches_weight_coordinate_reference(name):
    rs = build_root_system(name)
    systems = rs.simple_systems()
    base = next(ss for ss in systems if ss.rho() == rs.rho)  # the identity's chamber
    seeded = random.Random(44).sample(systems, min(3, len(systems)))
    for mask in range(1 << rs.rank):
        orbit = rs.parabolic_orbit(mask)
        # at the base chamber pairing coordinates are weight coordinates
        assert len(set(orbit)) == len(orbit) and set(orbit) == _reference_weight_orbit(base, mask)
        assert rs.orbit_sum(mask) == (len(orbit), tuple(sum(col) for col in zip(*orbit)))
        for ss in seeded:
            assert face_vertices(FaceDatum(ss, frozenset(k for k in range(rs.rank) if not mask >> k & 1))) \
                == _reference_weight_orbit(ss, mask)


@pytest.mark.parametrize("name", sorted(NAMED_CARTAN))
def test_parabolic_orbit_size_is_the_parabolic_weyl_order(name):
    rs = build_root_system(name)
    for mask in range(1 << rs.rank):
        keep = [k for k in range(rs.rank) if mask >> k & 1]
        sub = build_root_system([[rs.cartan[i][j] for j in keep] for i in keep])
        assert rs.orbit_sum(mask)[0] == len(rs.parabolic_orbit(mask)) == sub.order


@pytest.mark.parametrize("name", sorted(NAMED_CARTAN))
def test_orbit_table_with_a_point_dropped_fails_every_face_of_its_mask(name):
    rs = build_root_system(name)
    rng = random.Random(45)
    # the one-point orbit (nothing kept) has no point to drop and stay an orbit
    for mask in range(1, 1 << rs.rank):
        faces = [FaceDatum(ss, frozenset(k for k in range(rs.rank) if not mask >> k & 1))
                 for ss in rs.simple_systems()]
        assert all(verify_face_center(fd) for fd in faces)
        orbit, entry = rs.parabolic_orbit(mask), rs.orbit_sum(mask)
        for dropped in (orbit[0], rng.choice(orbit[1:])):
            rs._orbit_sums[mask] = (entry[0] - 1, tuple(s - p for s, p in zip(entry[1], dropped)))
            try:
                assert not any(verify_face_center(fd) for fd in faces)
            finally:
                rs._orbit_sums[mask] = entry


@pytest.mark.parametrize("name", sorted(NAMED_CARTAN))
def test_integer_weyl_closure_matches_fraction_reference(name):
    rs = build_root_system(name)
    ref = _reference_elements(rs)
    assert list(rs.elements) == list(ref)  # same keys in the same order
    assert list(rs.elements.values()) == list(ref.values())
    # row i of the inverse's matrix is the copairing of the i-th root of the
    # simple system: <alpha_i^vee, w^-1 x> = <w alpha_i^vee, x>
    ours = [(s.root_indices, s.matrix, s.inv_perm, tuple(r.copairing for r in s.roots()))
            for s in rs.simple_systems()]
    assert ours == _reference_simple_systems(rs, ref)


# rank-4 types are checked on this many seeded chambers, the others on all
_SEEDED_CHAMBERS = {"B4": 3, "C4": 3, "F4": 3}


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "B4", "C4", "F4"])
def test_faces_match_fraction_reference(name):
    rs = build_root_system(name)
    pairs = list(zip(rs.simple_systems(), _reference_chambers(name)))
    if name in _SEEDED_CHAMBERS:
        pairs = random.Random(46).sample(pairs, _SEEDED_CHAMBERS[name])
    for ss, chamber in pairs:
        for size in range(rs.rank + 1):
            for delta in itertools.combinations(range(rs.rank), size):
                fd = FaceDatum(ss, frozenset(delta))
                assert (face_vertices(fd), face_center(fd)) == _reference_face(rs, chamber, delta)


def _reference_faces_containing(rs, chamber, y):
    """The deltas of the faces of one chamber that contain y: each subset of
    the positions where w^-1 (y - rho_Pi), w^-1 the reference matrix in
    Fractions, has simple coordinate zero."""
    _, m, _, m_inv = chamber
    r = rs.rank
    diff = [a - sum(row) for a, row in zip(y, m)]  # rho_Pi: the row sums of m
    x = [sum(F(m_inv[i][j]) * diff[j] for j in range(r)) for i in range(r)]
    zeros = [i for i, row in enumerate(rs._adj) if sum(a * b for a, b in zip(row, x)) == 0]
    return [frozenset(d) for size in range(len(zeros) + 1)
            for d in itertools.combinations(zeros, size)]


@pytest.mark.parametrize("name", ["A3", "B3", "C3", "G2", "B4", "F4"])
def test_faces_containing_match_fraction_reference(name):
    rs = build_root_system(name)
    systems = rs.simple_systems()
    chambers = _reference_chambers(name)
    rng = random.Random(12)
    # the face centres of four chambers and 20 points; at rank 4, of one
    # seeded chamber and 8 points
    centred, count = (rng.sample(systems, 1), 8) if name in _SEEDED_CHAMBERS else (systems[:4], 20)
    points = [face_center(fd) for fd in all_face_data(rs) if fd.simple_system in centred]
    points += [tuple(F(rng.randint(-6, 6), rng.choice((1, 2))) for _ in range(rs.rank))
               for _ in range(count)]
    for y in points:
        got = [(fd.simple_system, fd.delta) for fd in permutahedron_faces_containing(rs, y)]
        want = [(ss, delta) for ss, chamber in zip(systems, chambers)
                for delta in _reference_faces_containing(rs, chamber, y)]
        assert got == want
    assert any(len(permutahedron_faces_containing(rs, y)) > 1 for y in points)


def test_simple_systems_are_built_once_and_keyed_by_their_roots():
    rs = build_root_system("B3")
    first, second = rs.simple_systems(), rs.simple_systems()
    assert first == second and first is not second
    assert all(a is b for a, b in zip(first, second))
    # matrices stay out of equality and hashing
    ss = first[5]
    twin = type(ss)(rs, ss.root_indices, None, None)
    assert twin == ss and hash(twin) == hash(ss)
    assert FaceDatum(twin, frozenset([1])) == FaceDatum(ss, frozenset([1]))


def _reference_points_related(y1, y2, faces1, faces2, data):
    """Every pair of faces through the two points, tested one by one;
    data maps a face to its vertices and centre."""
    for fd1 in faces1:
        v1, c1 = data[fd1]
        for fd2 in faces2:
            v2, c2 = data[fd2]
            shift = tuple(b - a for a, b in zip(c1, c2))
            if (len(v1) == len(v2)
                    and tuple(a + d for a, d in zip(y1, shift)) == tuple(y2)
                    and {tuple(a + d for a, d in zip(v, shift)) for v in v1} == set(v2)):
                return True
    return False


@pytest.mark.parametrize("name", ["A2", "B2"])
def test_points_related_matches_pairwise_reference(name):
    rs = build_root_system(name)
    images = set()
    for ss in rs.simple_systems():
        fd = FaceDatum(ss, frozenset())
        for tt in itertools.product([F(0), F(1, 2), F(1)], repeat=rs.rank):
            images.add(xi(fd, dict(enumerate(tt))))
    faces = {y: permutahedron_faces_containing(rs, y) for y in images}
    data = {fd: (face_vertices(fd), face_center(fd)) for fs in faces.values() for fd in fs}
    cache, verdicts = {}, []
    for y1, y2 in itertools.product(sorted(images), repeat=2):
        got = permutahedron_points_related(rs, y1, y2, faces[y1], faces[y2], cache)
        assert got == _reference_points_related(y1, y2, faces[y1], faces[y2], data)
        verdicts.append(got)
    assert any(verdicts) and not all(verdicts)
