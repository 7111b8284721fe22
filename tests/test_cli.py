import argparse
import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from cactusflower import cli
from cactusflower.cli import main, make_parser
from cactusflower.scalars import I

HERE = os.path.dirname(__file__)
DEMOS = os.path.join(HERE, "..", "demos")

# one quick invocation of every leaf verb, keyed by its verb path
QUICK = {
    ("enumerate",): ["enumerate", "--complex", "hatD", "--n", "3"],
    ("verify", "npc"): ["verify", "npc", "--complex", "hatD", "--n", "3"],
    ("verify", "local-isometry"): ["verify", "local-isometry", "--from", "D", "--to", "breveD", "--n", "3"],
    ("verify", "hom"): ["verify", "hom", "--from", "AC", "--to", "AS", "--n", "3"],
    ("verify", "diagram"): ["verify", "diagram", "--n", "3"],
    ("verify", "membership"): ["verify", "membership", "--variety", "f",
                               "--in", os.path.join(DEMOS, "figure2.json")],
    ("verify", "presentation"): ["verify", "presentation", "--complex", "hatP", "--n", "3"],
    ("verify", "acceptance"): ["verify", "acceptance", "--criterion", "1"],
    ("classify",): ["classify", "--in", os.path.join(DEMOS, "figure2.json")],
    ("map",): ["map", "--which", "gamma", "--in", os.path.join(DEMOS, "cubepoint.json")],
    ("path",): ["path", "--n", "4", "--k", "3", "--samples", "2"],
    ("roots",): ["roots", "--type", "G2", "--format", "csv"],
    ("export",): ["export", "--complex", "hatD", "--n", "3", "--format", "dot"],
}


def run_cli(*args):
    proc = subprocess.run(
        [sys.executable, "-m", "cactusflower.cli", *args],
        capture_output=True,
        text=True,
        timeout=120,
    )
    return proc.returncode, proc.stdout, proc.stderr


def test_enumerate_counts():
    code, out, _ = run_cli("enumerate", "--complex", "hatD", "--n", "3")
    assert code == 0
    assert json.loads(out) == {"0": 1, "1": 6, "2": 3}


def test_enumerate_subdivide():
    code, out, _ = run_cli("enumerate", "--complex", "hatD", "--n", "3", "--subdivide")
    assert code == 0
    assert json.loads(out) == {"0": 10, "1": 24, "2": 12}


def test_verify_npc_and_hom_pass():
    code, out, _ = run_cli("verify", "npc", "--complex", "hatD", "--n", "4")
    assert code == 0 and json.loads(out)["pass"]
    code, out, _ = run_cli("verify", "hom", "--from", "AC", "--to", "AS", "--n", "5")
    assert code == 0 and json.loads(out)["pass"]
    code, out, _ = run_cli("verify", "hom", "--from", "AC", "--to", "vC", "--n", "3")
    assert code == 0 and json.loads(out)["statuses"] == {"proven": 12}
    code, out, _ = run_cli("verify", "diagram", "--n", "4")
    assert code == 0 and json.loads(out)["pass"]


def test_verify_presentation():
    code, out, _ = run_cli("verify", "presentation", "--complex", "hatP", "--n", "3")
    assert code == 0 and json.loads(out)["pass"]


def test_classify_figure_point():
    code, out, _ = run_cli("classify", "--in", os.path.join(DEMOS, "figure2.json"))
    assert code == 0
    data = json.loads(out)
    assert data["S"] == [[1, 4, 7], [2, 5, 6, 9], [3, 8]]
    assert data["B"] == [[1, 4, 7], [2, 5, 6], [3], [8], [9]]


def test_membership_pass_and_fail(tmp_path):
    code, out, _ = run_cli(
        "verify", "membership", "--variety", "f",
        "--in", os.path.join(DEMOS, "figure2.json"),
    )
    assert code == 0 and json.loads(out)["pass"]
    # perturb one coordinate and expect a failure with a witness
    with open(os.path.join(DEMOS, "figure2.json")) as fh:
        data = json.load(fh)
    data["nu"]["1,4"] = ["7", "3"]
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(data))
    code, out, _ = run_cli("verify", "membership", "--variety", "f", "--in", str(bad))
    assert code == 1
    report = json.loads(out)
    assert not report["pass"]
    assert any(1 in idx and 4 in idx for _, idx in report["violations"])


def test_membership_of_a_mu_point_and_of_the_wrong_shape(tmp_path):
    zs = {1: Fraction(0), 2: Fraction(1), 3: Fraction(3), 4: Fraction(7)}
    mu = tmp_path / "mu.json"
    mu.write_text(cli.pj.point_to_json(cli.pj.cross_ratios(zs)))
    # a mu-only point carries its labels, not n
    code, out, _ = run_cli("verify", "membership", "--variety", "M", "--in", str(mu))
    assert code == 0 and json.loads(out) == {"n": 4, "pass": True, "variety": "DeligneMumford",
                                             "violations": []}
    # labels other than 1..n are the point's own
    zs = {2: Fraction(0), 4: Fraction(1), 5: Fraction(3), 9: Fraction(7), 11: Fraction(-2)}
    mu2 = tmp_path / "mu2.json"
    mu2.write_text(cli.pj.point_to_json(cli.pj.cross_ratios(zs, distinguished=11)))
    code, out, _ = run_cli("verify", "membership", "--variety", "M", "--in", str(mu2))
    assert code == 0 and json.loads(out) == {"n": 4, "pass": True, "variety": "DeligneMumford",
                                             "violations": []}
    bad = json.loads(mu2.read_text())
    bad["mu"]["2,4,5"] = ["7", "1"]
    mu2.write_text(json.dumps(bad))
    code, out, _ = run_cli("verify", "membership", "--variety", "M", "--in", str(mu2))
    assert code == 1 and json.loads(out)["n"] == 4
    assert ["mu_reciprocal", [2, 4, 5]] in json.loads(out)["violations"]
    for variety in ("f", "Q"):  # nu tuples and joint tuples are other shapes
        code, _, err = run_cli("verify", "membership", "--variety", variety, "--in", str(mu))
        assert code == 2 and "is a" in err and "not a MuTuple" in err


def test_map_gamma():
    code, out, _ = run_cli("map", "--which", "gamma", "--in", os.path.join(DEMOS, "cubepoint.json"))
    assert code == 0
    data = json.loads(out)
    assert data["order"] == [1, 2, 3, 4]
    assert data["diffs"] == ["1/6", "1/30", "1/2"]


def test_map_theta(capsys):
    from cactusflower.realgeometry import CubePoint, theta

    path = os.path.join(DEMOS, "cubepoint.json")
    assert main(["map", "--which", "theta", "--in", path]) == 0
    out = json.loads(capsys.readouterr().out)
    with open(path) as fh:
        im = theta(CubePoint.from_json(fh.read()))
    assert out["partition"] == sorted(sorted(b) for b in im.s_part.blocks)
    assert out["nu"] == {f"{i},{j}": str(v) for (i, j), v in im.nu.as_dict().items()}
    assert out["mu"] == {
        ",".join(map(str, sorted(part))): {
            f"{a},{b},{c}": str(v) for (a, b, c), v in mu.as_dict().items()
        }
        for part, mu in im.mu_dict().items()
    }
    assert out["partition"] == [[1, 2, 3, 4]] and out["nu"]["3,4"] == "3/2"


def test_map_theta_star(tmp_path, capsys):
    from cactusflower.realgeometry import StarPoint, theta_star

    path = tmp_path / "star.json"
    path.write_text(json.dumps({"order": [3, 1, 4, 2, 5], "diffs": ["1", "0", "2/7", "1/3"]}))
    assert main(["map", "--which", "theta-star", "--in", str(path)]) == 0
    out = json.loads(capsys.readouterr().out)
    x = StarPoint((3, 1, 4, 2, 5), (Fraction(1), Fraction(0), Fraction(2, 7), Fraction(1, 3)))
    assert out == {f"{i},{j}": str(v) for (i, j), v in theta_star(x).as_dict().items()}
    # the sign convention is fixed; the flag that chose it is gone
    assert main(["map", "--which", "theta-star", "--in", str(path), "--convention", "ascending"]) == 2


def test_path_csv():
    code, out, _ = run_cli("path", "--n", "4", "--k", "3", "--samples", "4")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,k,t,s,coordinate,re,im"
    assert len(lines) > 10


def test_roots_verify():
    code, out, _ = run_cli("roots", "--type", "B2", "--verify", "face-centers")
    assert code == 0 and json.loads(out)["pass"]


@pytest.mark.parametrize("name, checked", [("F4", 18432), ("B4", 6144), ("C4", 6144)])
def test_roots_verify_rank_four(name, checked, capsys):
    # every face (chamber, Delta): |W| * 2^4 of them
    assert main(["roots", "--type", name, "--verify", "face-centers"]) == 0
    assert json.loads(capsys.readouterr().out) == {"type": name, "checked": checked, "failures": 0,
                                                   "pass": True}


@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_roots_verify_and_format_are_exclusive(fmt):
    # a verification prints its own JSON, so --format would do nothing there
    code, out, err = run_cli("roots", "--type", "B2", "--verify", "face-centers", "--format", fmt)
    assert code == 2 and out == ""
    assert "Traceback" not in err and "not allowed with argument" in err


def test_roots_json(capsys):
    from cactusflower.rootsystems import build_root_system

    assert main(["roots", "--type", "G2"]) == 0
    out = json.loads(capsys.readouterr().out)
    g2 = build_root_system("G2")
    assert out == {"type": "G2", "rank": 2, "roots": [list(r.simple) for r in g2.roots],
                   "weyl_order": 12}
    assert len(out["roots"]) == 12


@pytest.mark.parametrize("matrix, message", [
    # affine A2 (singular), a non-symmetrizable matrix, and an indefinite one
    ("[[2,-1,-1],[-1,2,-1],[-1,-1,2]]", "not a finite-type Cartan matrix"),
    ("[[2,-1,-1],[-1,2,-2],[-1,-1,2]]", "not a finite-type Cartan matrix"),
    ("[[2,-1,-1,-1],[-1,2,-1,-1],[-1,-1,2,-1],[-1,-1,-1,2]]", "not a finite-type Cartan matrix"),
    # entries that are not integers (a bool is not), and a row that is not a list
    ("[[2,-1.5],[-1,2]]", "a Cartan matrix is a list of rows of integers"),
    ("[[2,-1],[-1,2.9]]", "a Cartan matrix is a list of rows of integers"),
    ('[[2,"-1"],[-1,2]]', "a Cartan matrix is a list of rows of integers"),
    ("[[2,-1],[true,2]]", "a Cartan matrix is a list of rows of integers"),
    ("[2,-1]", "a Cartan matrix is a list of rows of integers"),
])
def test_bad_cartan_matrix_is_a_usage_error(matrix, message):
    code, out, err = run_cli("roots", "--type", matrix)
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_weyl_group_over_the_cap_is_a_usage_error(monkeypatch, capsys):
    # an E7 or E8 matrix passes the real cap; A4 (|W| = 120) passes this one
    monkeypatch.setattr(cli.rs, "_WEYL_CAP", 100)
    a4 = "[[2,-1,0,0],[-1,2,-1,0],[0,-1,2,-1],[0,0,-1,2]]"
    assert main(["roots", "--type", a4]) == 2
    assert capsys.readouterr() == (
        "", "error: Weyl group has more than 100 elements, too many to enumerate\n"
    )


@pytest.mark.parametrize("rank", [7, 8])
def test_e7_and_e8_are_refused_at_once(rank, capsys):
    # refused from the order formula: no Weyl element is built
    a = [[2 if i == j else 0 for j in range(rank)] for i in range(rank)]
    for i, j in [(0, 2), (1, 3), (2, 3)] + [(k, k + 1) for k in range(3, rank - 1)]:
        a[i][j] = a[j][i] = -1
    start = time.perf_counter()
    assert main(["roots", "--type", json.dumps(a)]) == 2
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr() == (
        "", "error: Weyl group has more than 100000 elements, too many to enumerate\n"
    )


def test_export_dot():
    code, out, _ = run_cli("export", "--complex", "hatP", "--n", "3", "--format", "dot")
    assert code == 0 and out.startswith("graph")


def test_export_json(capsys):
    assert main(["export", "--complex", "hatD", "--n", "3", "--format", "json"]) == 0
    poset = json.loads(capsys.readouterr().out)
    assert {k: len(cells) for k, cells in poset.items()} == {"0": 1, "1": 6, "2": 3}


def test_determinism():
    args = ("enumerate", "--complex", "breveD", "--n", "4")
    assert run_cli(*args) == run_cli(*args)


def test_usage_errors():
    code, _, _ = run_cli("enumerate", "--complex", "Z", "--n", "3")
    assert code == 2
    code, _, _ = run_cli("bogus")
    assert code == 2
    code, _, _ = run_cli("classify", "--in", "/nonexistent/x.json")
    assert code == 2
    code, _, _ = run_cli("enumerate", "--complex", "hatD", "--n", "3", "--counts")
    assert code == 2


def test_malformed_forest_is_a_usage_error(tmp_path):
    with open(os.path.join(DEMOS, "cubepoint.json")) as fh:
        point = json.load(fh)
    point["forest"] = point["forest"][:-1]  # "((1,(2,3)),4": truncated
    path = tmp_path / "truncated.json"
    path.write_text(json.dumps(point))
    code, out, err = run_cli("map", "--which", "theta", "--in", str(path))
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


def test_cube_point_off_the_labels_1_to_n_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "labels25.json"
    path.write_text(json.dumps({"forest": "(2,5)", "t": {"2,5": "1/2"}}))
    for which, message in (("theta", "theta needs a forest on the labels 1..n"),
                           ("gamma", "order must be a permutation of [n]")):
        assert main(["map", "--which", which, "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err == f"error: {message}\n"


def test_empty_cube_point_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "empty.json"
    path.write_text(json.dumps({"forest": "", "t": {}}))
    for which in ("theta", "gamma"):
        assert main(["map", "--which", which, "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: a cube point needs a forest with at least one leaf\n"


def test_classify_nonmember_exits_1(tmp_path, capsys):
    member = cli.pj.orbit_map({1: Fraction(0), 2: Fraction(1), 3: Fraction(3), 4: Fraction(7)},
                              Fraction(0))
    nu = member.as_dict()
    nu[(1, 3)] = cli.pj.ProjPoint.finite(Fraction(5))
    path = tmp_path / "perturbed.json"
    path.write_text(cli.pj.point_to_json(cli.pj.NuTuple(4, nu, member.epsilon)))
    assert main(["classify", "--in", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(
        "error: not a flower-space member:\nNOT a member of Flower(n=4):\n  nu_antisym(1, 3)")
    # a point off the epsilon = 0 fibre, a mu tuple, bad JSON and a missing
    # file stay usage errors
    path.write_text(cli.pj.point_to_json(cli.pj.orbit_map({1: Fraction(0), 2: Fraction(2)},
                                                          Fraction(1))))
    mu = tmp_path / "mu.json"
    mu.write_text(_point_text(nu=None))
    bad = tmp_path / "bad.json"
    bad.write_text("{")
    for target in (path, mu, bad, tmp_path / "missing.json"):
        assert main(["classify", "--in", str(target)]) == 2
        assert capsys.readouterr().err.startswith("error: ")
    assert main(["classify", "--in", str(mu)]) == 2
    assert capsys.readouterr().err == "error: strata classification is for a NuTuple, not a MuTuple\n"


@pytest.mark.parametrize("verb", [["verify", "membership", "--variety", "f"], ["classify"]])
@pytest.mark.parametrize("pair, message", [
    (["1", "0/0"], "nu 1,2: zero denominator in '0/0'"),
    (None, "nu 1,2: a point is a pair [u, v] of scalar strings, not null"),
    ([1, 0], 'nu 1,2: a scalar is a string such as "3/4", not 1'),
])
def test_malformed_point_files_are_usage_errors(verb, pair, message, tmp_path, capsys):
    # a coordinate that is not a pair of scalar strings names its field and
    # exits 2, the usage-error code, not 1 with a traceback
    with open(os.path.join(DEMOS, "figure2.json")) as fh:
        data = json.load(fh)
    data["nu"]["1,2"] = pair
    path = tmp_path / "malformed.json"
    path.write_text(json.dumps(data))
    assert main([*verb, "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def _raise(exc):
    def stub(*args, **kwargs):
        raise exc
    return stub


def test_invariant_violation_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(cli.pj, "classify_strata",
                        _raise(cli.pj.InvariantViolation("stub: relation not transitive")))
    assert main(["classify", "--in", os.path.join(DEMOS, "figure2.json")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: stub: relation not transitive\n"


def test_retries_exhausted_exits_1(monkeypatch, capsys):
    monkeypatch.setattr(cli.acc, "run_criterion",
                        _raise(cli.acc.RetriesExhausted("stub: no member in 100 draws")))
    assert main(["verify", "acceptance", "--criterion", "9"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: stub: no member in 100 draws\n"


def test_acceptance_single_criterion():
    code, out, _ = run_cli("verify", "acceptance", "--criterion", "1")
    assert code == 0
    assert "[PASS] criterion  1" in out


@pytest.mark.parametrize("number", ["0", "-1", "99"])
def test_acceptance_criterion_out_of_range_is_a_usage_error(number):
    code, out, err = run_cli("verify", "acceptance", "--criterion", number)
    assert code == 2 and out == ""
    assert err == "error: criteria are numbered 1..13\n"


@pytest.mark.parametrize("argv", [
    ["verify", "diagram", "--n", "1"],
    ["verify", "hom", "--from", "C", "--to", "S", "--n", "1"],
    ["path", "--n", "3", "--k", "2", "--samples", "0"],
    ["path", "--n", "3", "--k", "2", "--samples", "-2"],
    ["enumerate", "--complex", "P", "--n", "0"],
    ["enumerate", "--complex", "hatP", "--n", "-1"],
    ["export", "--complex", "P", "--n", "0"],
])
def test_out_of_range_sizes_are_usage_errors(argv):
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "Traceback" not in err


@pytest.mark.parametrize("source, target, message", [
    ("S", "EAS", "source S has no presentation to check"),
    ("S", "S", "source S has no presentation to check"),
    ("EAS", "vS", "source EAS has no presentation to check"),
    ("EAS", "S", "source EAS has no presentation to check"),
    ("C", "EAC", "verify hom evaluates into S, AS and EAS and decides vC and vS, not EAC"),
])
def test_verify_hom_arrows_it_cannot_check_are_usage_errors(source, target, message, capsys):
    assert main(["verify", "hom", "--from", source, "--to", target, "--n", "3"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_verify_hom_refuted_relators_fail(monkeypatch, capsys):
    # AC -> vC with the images of s12 and s13 exchanged is not a hom
    images = dict(cli.gr.hom(("AC", "vC"), 4).images)
    images[("s", 1, 2)], images[("s", 1, 3)] = images[("s", 1, 3)], images[("s", 1, 2)]
    swapped = cli.gr.GroupHom("AC", "vC", 4, tuple(sorted(images.items(), key=repr)))
    monkeypatch.setattr(cli.gr, "hom", lambda pair, n: swapped)
    assert main(["verify", "hom", "--from", "AC", "--to", "vC", "--n", "4"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["statuses"] == {"failed": 12, "proven": 28, "refuted": 2}
    assert out["pass"] is False


def test_verify_hom_vc_to_vs_is_proven(monkeypatch, capsys):
    assert main(["verify", "hom", "--from", "vC", "--to", "vS", "--n", "4"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["statuses"] == {"proven": 39} and out["pass"] is True
    # the images of s12 and s13 exchanged: some relator images have a
    # nontrivial shadow
    images = dict(cli.gr.hom(("vC", "vS"), 4).images)
    images[("s", 1, 2)], images[("s", 1, 3)] = images[("s", 1, 3)], images[("s", 1, 2)]
    swapped = cli.gr.GroupHom("vC", "vS", 4, tuple(sorted(images.items(), key=repr)))
    monkeypatch.setattr(cli.gr, "hom", lambda pair, n: swapped)
    assert main(["verify", "hom", "--from", "vC", "--to", "vS", "--n", "4"]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["statuses"] == {"failed": 16, "proven": 23}
    assert out["pass"] is False


def _option_slots(parser, path=()):
    """(verb path, option) for every option of every parser under parser."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                yield from _option_slots(child, path + (name,))
        elif action.option_strings and not isinstance(action, argparse._HelpAction):
            yield path, action.option_strings[0]


def test_flags_live_on_the_verbs_that_read_them():
    slots = list(_option_slots(make_parser()))

    def where(flag):
        return {path for path, f in slots if f == flag}

    assert where("--seed") == {("verify", "acceptance")}
    assert where("--format") == {("roots",), ("export",)}
    # every leaf verb, and nothing else, takes --out
    assert where("--out") == {path for path, _ in slots} == set(QUICK)
    assert not where("--jobs") and not where("--f")


@pytest.mark.parametrize("argv", [
    ["--seed", "7", "verify", "acceptance", "--criterion", "1"],
    ["--format", "dot", "export", "--complex", "hatD", "--n", "3"],
    ["export", "--complex", "hatD", "--n", "3", "--format", "csv"],
    ["roots", "--type", "G2", "--format", "dot"],
    ["verify", "acceptance", "--jobs", "2"],
    ["map", "--which", "gamma", "--in", os.path.join(DEMOS, "cubepoint.json"), "--f", "default"],
    # the point file declares its own n
    ["verify", "membership", "--variety", "f", "--n", "3", "--in", os.path.join(DEMOS, "figure2.json")],
])
def test_flag_on_a_verb_that_does_not_read_it_is_a_usage_error(argv):
    code, out, err = run_cli(*argv)
    assert code == 2 and out == ""
    assert "Traceback" not in err and "error:" in err


@pytest.mark.parametrize("argv", QUICK.values(), ids=[" ".join(k) for k in QUICK])
def test_out_writes_what_stdout_would(argv, tmp_path, capsys):
    code = main(argv)
    printed = capsys.readouterr().out
    target = tmp_path / "out.txt"
    assert main([*argv, "--out", str(target)]) == code
    assert capsys.readouterr().out == ""
    assert target.read_text() == printed


def test_acceptance_seed_and_out(tmp_path):
    target = tmp_path / "acc.txt"
    code, out, _ = run_cli("verify", "acceptance", "--criterion", "1", "--seed", "7",
                           "--out", str(target))
    assert code == 0 and out == ""
    assert target.read_text().startswith("[PASS] criterion  1")


def _point_text(**fields):
    """A joint member's point file on [4], with the given fields put in
    (or, given as None, left out)."""
    xs = {1: Fraction(0), 2: Fraction(1), 3: Fraction(3), 4: Fraction(7)}
    q = cli.pj.QTuple(4, cli.pj.orbit_map(xs, Fraction(0)), cli.pj.cross_ratios(xs), Fraction(0))
    d = {**json.loads(cli.pj.point_to_json(q)), **fields}
    return json.dumps({k: v for k, v in d.items() if v is not None})


_ONE = ["1", "1"]
_POINT_FILE_ERRORS = [
    ('{"n": 3, "nu": []}', "nu must be an object, not []"),
    ('"abc"', 'the file must hold a JSON object, not "abc"'),
    ('{"n": "3", "nu": {"1,2": ["1", "1"]}}', 'n must be an integer, not "3"'),
    ('{"n": 3, "mu": []}', "mu must be an object, not []"),
    ('{"n": 3}', "a point file holds nu, mu or both"),
    # each tuple holds the coordinates of its own index set, and no others
    ('{"n": -1, "nu": {}}', "a nu tuple needs n >= 1, not -1"),
    ('{"n": 0, "nu": {}}', "a nu tuple needs n >= 1, not 0"),
    (json.dumps({"n": 2, "nu": {"1,2": _ONE, "5,9": _ONE}}),
     "nu on [2] holds each ordered pair once; missing or extra: [(5, 9), (9, 5)]"),
    (json.dumps({"n": 2, "nu": {"1,2": _ONE, "1,3": _ONE}}),
     "nu on [2] holds each ordered pair once; missing or extra: [(1, 3), (3, 1)]"),
    (json.dumps({"n": 2, "nu": {"1,2": _ONE, "2,2": _ONE}}),
     "nu on [2] holds each ordered pair once; missing or extra: [(2, 2)]"),
    (json.dumps({"n": 2, "nu": {"1,2,3": _ONE}}), "nu 1,2,3: a nu index has 2 labels"),
    (json.dumps({"n": 2, "mu": {"1,2,2": _ONE}}),
     "mu on [1, 2] holds each ordered triple once; missing or extra: [(1, 2, 2)]"),
    (_point_text(nu=None, n=3), "n is 3, but mu has 4 labels"),
    (_point_text(n=3, nu={"1,2": _ONE, "1,3": _ONE, "2,3": _ONE}),
     "a joint tuple on [3] has nu on [3] and mu on [1, 2, 3, 4]"),
]


_POINT_VERBS = [["verify", "membership", "--variety", "M"], ["classify"],
                ["verify", "membership", "--variety", "Q"]]


@pytest.mark.parametrize("verb", _POINT_VERBS)
@pytest.mark.parametrize("text, message", _POINT_FILE_ERRORS)
def test_point_files_of_the_wrong_shape_are_usage_errors(verb, text, message, tmp_path, capsys):
    _file_is_a_usage_error(verb, text, message, tmp_path, capsys)


def _file_is_a_usage_error(verb, text, message, tmp_path, capsys):
    # the shape around the values is checked: each check names its field and
    # exits 2, not 1 with a traceback
    path = tmp_path / "shape.json"
    path.write_text(text)
    assert main([*verb, "--in", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"error: {message}\n"


_CUBE_FILE_ERRORS = [
    ('"abc"', 'the file must hold a JSON object, not "abc"'),
    ('{"forest": 3, "t": {}}', "forest must be a string, not 3"),
    ('{"forest": [1, 2], "t": {}}', "forest must be a string, not [1, 2]"),
    ('{"forest": "(1,2)", "t": []}', "t must be an object, not []"),
    ('{"forest": "(1,2)", "t": {"1,2": null}}', 't 1,2: a value is a string such as "1/2" or an integer, not null'),
    ('{"forest": "(1,2)", "t": {"1,2": "1/0"}}', "t 1,2: zero denominator in '1/0'"),
    ('{"forest": "(1,2)", "t": {"1,2": "0/0"}}', "t 1,2: zero denominator in '0/0'"),
    ('{"forest": "(1,2)", "t": {"1,2": "i"}}', "t 1,2: Invalid literal for Fraction: 'i'"),
    ('{"forest": "", "t": {}}', "a cube point needs a forest with at least one leaf"),
    ('{"forest": "(1,2)", "t": {}}', "t must assign a value to every internal edge"),
    ('{"forest": "(1,2)", "t": {"1,2": "2"}}', "edge values must lie in [0, 1]"),
]
_STAR_FILE_ERRORS = [
    ("[]", "the file must hold a JSON object, not []"),
    ('{"order": [1, 2]}', "diffs must be an array, not null"),
    ('{"order": [1, "a"], "diffs": ["0"]}', 'order must be an array of integer labels, not [1, "a"]'),
    ('{"order": [1, 2], "diffs": [null]}', 'diffs: a value is a string such as "1/2" or an integer, not null'),
    ('{"order": [1, 2], "diffs": ["1/0"]}', "diffs: zero denominator in '1/0'"),
    ('{"order": [1, 2], "diffs": ["0/0"]}', "diffs: zero denominator in '0/0'"),
    ('{"order": [1, 2], "diffs": ["i"]}', "diffs: Invalid literal for Fraction: 'i'"),
    ('{"order": [], "diffs": []}', "a star point needs at least one label"),
    ('{"order": [1, 3], "diffs": ["0"]}', "order must be a permutation of [n]"),
    ('{"order": [1, 2], "diffs": []}', "need one difference per consecutive pair"),
    ('{"order": [1, 2], "diffs": ["2"]}', "differences must lie in [0, 1]"),
]


@pytest.mark.parametrize("which", ["gamma", "theta"])
@pytest.mark.parametrize("text, message", _CUBE_FILE_ERRORS)
def test_cube_files_of_the_wrong_shape_are_usage_errors(which, text, message, tmp_path, capsys):
    _file_is_a_usage_error(["map", "--which", which], text, message, tmp_path, capsys)


@pytest.mark.parametrize("text, message", _STAR_FILE_ERRORS)
def test_star_files_of_the_wrong_shape_are_usage_errors(text, message, tmp_path, capsys):
    _file_is_a_usage_error(["map", "--which", "theta-star"], text, message, tmp_path, capsys)


# ---------------------------------------------------------------------------
# a seeded sweep over every verb: small sizes, bad arguments and mutated files

_SWEEP_CALLS = 2000
_KEYS = ["1,2", "2,1", "1,3", "5,9", "2,2", "0,1", "-1,2", "1,2,3", "1,2,2", "2,4,5", "a", "", "1,,2",
         "n", "nu", "mu", "epsilon", "forest", "t", "order", "diffs", "2,3", "1,2,3,4"]
_JUNK = [None, True, 0, 1, -1, 3, 11, 2.5, "", "x", "i", "1/0", "0/0", "-1", "1/2", "1+i", "(1,2)", "((1,2),3)",
         [], {}, [1, 0], ["1"], ["1", "0"], ["0", "1"], ["0", "0"], ["1", "0/0"], ["i", "1"], ["1/2", "1"],
         [1, 2, 3], [3, 1, 2], ["1", "1", "1"]]


def _mutate(rng, doc):
    """doc, a JSON value, with one random edit somewhere inside it."""
    if not isinstance(doc, (dict, list)) or not doc or rng.random() < 0.15:
        return rng.choice(_JUNK + [{"n": rng.randrange(-1, 6), "nu": {}}, {"order": [], "diffs": []}])
    if isinstance(doc, dict):
        doc = dict(doc)
        key = rng.choice(sorted(doc))
        edit = rng.random()
        if edit < 0.2:
            del doc[key]
        elif edit < 0.4:
            doc[rng.choice(_KEYS)] = rng.choice(_JUNK + [doc[key]])
        else:
            doc[key] = _mutate(rng, doc[key])
        return doc
    doc = list(doc)
    pos = rng.randrange(len(doc))
    edit = rng.random()
    if edit < 0.2:
        del doc[pos]
    elif edit < 0.3:
        doc.append(rng.choice(_JUNK))
    else:
        doc[pos] = _mutate(rng, doc[pos])
    return doc


def _sweep_files(rng):
    """Base files of every kind, on at most five labels (figure2.json has nine)."""
    pj = cli.pj
    with open(os.path.join(DEMOS, "figure2.json")) as fh:
        points = [json.load(fh)]
    with open(os.path.join(DEMOS, "cubepoint.json")) as fh:
        cubes = [json.load(fh), {"forest": "(1,2)", "t": {"1,2": "1/2"}}]
    for n in range(1, 6):
        xs = {k: Fraction(k * k, 3) for k in range(1, n + 1)}
        for eps in (Fraction(0), Fraction(1, 7), I):
            points.append(json.loads(pj.point_to_json(pj.orbit_map(xs, eps))))
        labels = sorted(rng.sample(range(1, 8), max(n, 3)))
        points.append(json.loads(pj.point_to_json(pj.cross_ratios({k: Fraction(k, 2) for k in labels}))))
        if n >= 3:
            q = pj.QTuple(n, pj.orbit_map(xs, Fraction(0)), pj.cross_ratios(xs), Fraction(0))
            points.append(json.loads(pj.point_to_json(q)))
    stars = [{"order": rng.sample(range(1, k + 1), k), "diffs": [rng.choice(["0", "1", "1/2", "1/3"])
                                                                 for _ in range(k - 1)]}
             for k in range(1, 6)]
    return {"point": points, "cube": cubes, "star": stars}


def _sweep_argv(rng, files, path):
    """One random invocation: a verb, its flags and, where it reads one,
    the file at path written with a mutated (or intact) input."""
    size = str(rng.choice([-1, 0, 1, 2, 3, 4, "x"]))
    verb = rng.randrange(14)
    if verb < 6:  # the verbs that read a file, six times as often
        kind, argv = rng.choice([
            ("point", ["verify", "membership", "--variety", rng.choice(list(cli.VARIETY_CODES))]),
            ("point", ["classify"]),
            ("cube", ["map", "--which", rng.choice(["gamma", "theta"])]),
            ("star", ["map", "--which", "theta-star"]),
        ])
        if rng.random() < 0.1:
            kind = rng.choice(["point", "cube", "star"])  # a file of another kind
        doc = rng.choice(files[kind])
        for _ in range(rng.choice([0, 1, 1, 2, 3])):
            doc = _mutate(rng, doc)
        path.write_text(json.dumps(doc))
        argv += ["--in", str(path) if rng.random() < 0.97 else str(path.parent)]
    elif verb == 6:
        argv = [rng.choice(["enumerate", "export"]), "--complex",
                rng.choice(["D", "hatD", "breveD", "P", "hatP", "breveP"]), "--n", size]
    elif verb == 7:
        argv = ["verify", "npc", "--complex", rng.choice(["D", "hatD", "breveD"]), "--n", size]
    elif verb == 8:
        argv = ["verify", "local-isometry", "--from", rng.choice(["D", "breveD"]),
                "--to", rng.choice(["breveD", "hatD"]), "--n", size]
    elif verb == 9:
        argv = ["verify", "hom", "--from", rng.choice(cli.gr.GROUPS), "--to", rng.choice(cli.gr.GROUPS),
                "--n", str(rng.choice([-1, 1, 2, 3, 4, 5]))]
        if rng.random() < 0.5:  # --depth is an unknown option (exit 2)
            argv += ["--depth", str(rng.choice([-1, 0, 2, 6]))]
    elif verb == 10:
        argv = rng.choice([["verify", "diagram", "--n", str(rng.randrange(-1, 6))],
                           ["verify", "presentation", "--complex", rng.choice(["hatD", "hatP"]), "--n", size]])
    elif verb == 11:  # the criteria that run in milliseconds, and numbers out of range
        argv = ["verify", "acceptance", "--criterion", str(rng.choice([-1, 0, 1, 2, 3, 4, 5, 6, 8, 13, 14])),
                "--seed", str(rng.randrange(100))]
    elif verb == 12:
        argv = ["path", "--n", str(rng.randrange(-1, 6)), "--k", str(rng.randrange(-1, 7)),
                "--samples", str(rng.randrange(-1, 4)), "--s", rng.choice(["1", "0.5", "0", "-2", "nan", "inf"])]
    else:
        argv = ["roots", "--type", rng.choice(["A1", "A2", "A3", "B2", "B3", "C3", "G2", "D4", "F4", "E6",
                                               "A0", "Z2", "", "[]", "[[2]]", "[[0]]", "[[2,-1],[-1,2]]",
                                               "[[2,-1],[-3,2]]", "[[2,-2],[-2,2]]", "[[2,-1],[-1]]",
                                               "[[2,0],[0,2]]", "[[2,-1],[-1,2]", "[[a]]", "[1,2]"])]
        if argv[-1] in ("A1", "A2", "A3", "B2", "B3", "C3", "G2") and rng.random() < 0.5:
            argv += ["--verify", "face-centers"]  # a rank of at most 3: milliseconds
        if "--verify" not in argv:  # the two are exclusive
            argv += ["--format", rng.choice(["json", "csv"])]
    if rng.random() < 0.05:
        argv += rng.choice([["--n", "3"], ["--bogus"], ["--out", str(path.parent / "no" / "out.txt")]])
    return argv


def test_seeded_sweep_of_every_verb_exits_0_1_or_2(tmp_path, capsys):
    # every call returns 0, 1 or 2: no exception escapes main, on any input
    rng = random.Random(28)
    files = _sweep_files(rng)
    escapes, codes, verbs = {}, set(), set()
    for _ in range(_SWEEP_CALLS):
        argv = _sweep_argv(rng, files, tmp_path / "in.json")
        verbs.add(tuple(a for a in argv[:2] if not a.startswith("-")))
        try:
            code = main(argv)
        except Exception as exc:  # an escape: main lets it through as a traceback
            text = (tmp_path / "in.json").read_text() if "--in" in argv else None
            escapes.setdefault((type(exc).__name__, *argv[:2]), (argv, repr(exc), text))
            continue
        assert code in (0, 1, 2), argv
        codes.add(code)
        capsys.readouterr()
    assert not escapes, "\n".join(f"{key}: {call}" for key, call in escapes.items())
    assert codes == {0, 1, 2}
    assert verbs >= set(QUICK)
    # each reader check still refuses its own repro, with its own message
    pinned = [(verb, _POINT_FILE_ERRORS) for verb in _POINT_VERBS]
    pinned += [(["map", "--which", "gamma"], _CUBE_FILE_ERRORS), (["map", "--which", "theta"], _CUBE_FILE_ERRORS),
               (["map", "--which", "theta-star"], _STAR_FILE_ERRORS),
               (["classify"], [(_point_text(nu=None), "strata classification is for a NuTuple, not a MuTuple")])]
    for verb, errors in pinned:
        for text, message in errors:
            _file_is_a_usage_error(verb, text, message, tmp_path, capsys)


def test_one_parser_serves_every_call(monkeypatch, capsys, tmp_path):
    # main reuses one parser per process; a run of calls through it, with and
    # without --out, a usage error between them, gives the exit codes, stdout,
    # stderr and files that a fresh parser per call gives
    assert make_parser() is make_parser()
    member = os.path.join(DEMOS, "figure2.json")
    runs = [
        ["classify", "--in", member],
        ["classify", "--in", member, "--out", "{}"],
        ["classify", "--in", member, "--no-such-flag"],
        ["roots", "--type", "G2", "--format", "csv", "--out", "{}"],
        ["verify", "membership", "--variety", "f", "--in", member],
        ["roots", "--type", "G2"],
    ]

    def outcomes(folder):
        folder.mkdir()
        got = []
        for k, argv in enumerate(runs):
            out = folder / f"{k}.out"
            code = main([str(out) if a == "{}" else a for a in argv])
            got.append((code, *capsys.readouterr(), out.read_text() if out.exists() else None))
        return got

    shared = outcomes(tmp_path / "shared")
    monkeypatch.setattr(cli, "make_parser", make_parser.__wrapped__)
    assert shared == outcomes(tmp_path / "fresh")
    assert [o[0] for o in shared] == [0, 0, 2, 0, 0, 0]
