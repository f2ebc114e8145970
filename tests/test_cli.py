"""Command line surface: recipes, subcommands, output formats."""

import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import relcomp
from relcomp import cli, engine, gfp
from relcomp.cli import eval_recipe, main, parse_recipe
from relcomp.engine import GradedIdeal, QuotientBasis, hilbert_function
from relcomp.errors import InternalError, ParamError
from relcomp.ring import FormStream, RingCtx


# --- recipe language -------------------------------------------------------


def test_parse_round_trip():
    tree = parse_recipe("link(ci(4,4,4,11), general-forms(4,4,4,4,11))")
    assert tree.text() == "link(ci(4,4,4,11),general-forms(4,4,4,4,11))"


def test_parse_rejects_unknown_function():
    with pytest.raises(ParamError):
        parse_recipe("mystery(1,2)")


def test_parse_rejects_trailing_garbage():
    with pytest.raises(ParamError):
        parse_recipe("ci(2,2,2) extra")


def test_eval_general_forms():
    ring = RingCtx(3, 32003)
    ideal = eval_recipe(parse_recipe("general-forms(2,2,2)"), FormStream(ring, 1))
    assert isinstance(ideal, GradedIdeal)
    assert ideal.degrees() == [2, 2, 2]


def test_eval_link_recipe():
    ring = RingCtx(3, 32003)
    res = eval_recipe(parse_recipe("link(ci(3,3,3), general-forms(3,3,3,1,1))"),
                      FormStream(ring, 1))
    assert hilbert_function(res).text() == "1 3 6 7 5 2"


def test_eval_ann_perp_pick():
    ring = RingCtx(3, 32003)
    algebra = eval_recipe(parse_recipe("ann(perp-pick(4, 5, ci(2)))"),
                          FormStream(ring, 1))
    assert hilbert_function(algebra).text() == "1 3 5 7 9 4"


# --- subcommands -----------------------------------------------------------


def test_froberg_command(capsys):
    assert main(["froberg", "-n", "3", "-d", "9,9,9,9,9"]) == 0
    out = capsys.readouterr().out.strip()
    assert out == "1 3 6 10 15 21 28 36 45 50 51 48 41 30 15"


def _src_env():
    """The environment with this checkout's package first on PYTHONPATH."""
    src = str(Path(relcomp.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + ([os.environ["PYTHONPATH"]] if os.environ.get("PYTHONPATH") else [])))


def test_python_dash_m_runs_the_cli():
    env = _src_env()
    done = subprocess.run([sys.executable, "-m", "relcomp", "froberg", "-n", "3", "-d", "3,3,3"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "1 3 6 7 6 3 1\n", "")
    # main's status is the process's
    done = subprocess.run([sys.executable, "-m", "relcomp", "resolve", "general-forms(2,2,2)",
                           "-n", "3", "-p", "4"],
                          env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and done.stderr.startswith("error:")


@pytest.mark.parametrize("argv", [
    ["resolve", "ann(perp-pick(1,8,ci(9)))", "-n", "4"],
    ["reproduce", "ci333-level-s5"],
    ["search", "remark-4.10", "--max-degree", "4", "--limit", "5"],
    ["predict", "gor-even", "-t", "3"],
    ["froberg", "-n", "3", "-d", "3,3,3"],
], ids=lambda argv: argv[0])
def test_no_command_imports_numpy_random(argv, tmp_path):
    code = ("import sys\nfrom relcomp.cli import main\nstatus = main(sys.argv[1:])\n"
            "print('numpy.random' in sys.modules)\nsys.exit(status)")
    done = subprocess.run([sys.executable, "-c", code, *argv], env=_src_env(), cwd=tmp_path,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0 and done.stdout.endswith("False\n"), done.stderr


def test_froberg_json(capsys):
    assert main(["froberg", "-n", "3", "-d", "3,3,3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["hf"] == [1, 3, 6, 7, 6, 3, 1]


def test_froberg_one_variable(capsys):
    assert main(["froberg", "-n", "1", "-d", "2"]) == 0
    assert capsys.readouterr().out.strip() == "1 1"


def test_predict_aci(capsys):
    assert main(["predict", "aci", "-n", "5", "-d", "2,4,4,4,5,6"]) == 0
    out = capsys.readouterr().out
    assert "R(-14)^45 -> R(-13)^146" in out
    assert "R(-2) + R(-4)^3 + R(-5) + R(-6) -> R" in out


def test_predict_gor_even(capsys):
    assert main(["predict", "gor-even", "-n", "4", "-t", "5",
                 "--ci", "3,3,4"]) == 0
    out = capsys.readouterr().out
    assert ("0 -> R(-14) -> R(-8)^9 + R(-10) + R(-11)^2 -> "
            "R(-6) + R(-7)^20 + R(-8) -> R(-3)^2 + R(-4) + R(-6)^9 -> R"
            in out)


def test_predict_quadric_points(capsys):
    assert main(["predict", "quadric-points", "-N", "30"]) == 0
    out = capsys.readouterr().out
    assert "h-vector: 1 3 5 7 9 5" in out
    assert "0 -> R(-8)^5 -> R(-6)^5 + R(-7)^6 -> R(-2) + R(-5)^6 -> R" in out
    assert main(["predict", "quadric-points", "-N", "30", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["hvec"] == [1, 3, 5, 7, 9, 5]
    assert data["shape"] == "0 -> R(-8)^5 -> R(-6)^5 + R(-7)^6 -> R(-2) + R(-5)^6 -> R"


@pytest.mark.parametrize("argv, flag", [
    (["gor-even", "-n", "4", "--ci", "3,3,4"], "-t"),
    (["gor-odd", "-n", "4"], "-t"),
    (["mrc", "-n", "4", "--ci", "2"], "-t"),
    (["quadric-gor"], "-t"),
    (["quadric-points"], "-N"),
    (["aci", "-n", "5"], "-d"),
])
def test_predict_refuses_missing_parameter(capsys, argv, flag):
    assert main(["predict"] + argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: predict %s needs %s\n" % (argv[0], flag)


def test_predict_gor_odd_formats(capsys):
    argv = ["predict", "gor-odd", "-n", "4", "-t", "7", "--ci", "4,4,4"]
    assert main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "F_4 = R(-19)" and lines[-1] == "F_0 = R"
    assert main(argv + ["--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out) == {"shape": lines}


# Full stdout of every predict kind, in text and in JSON.  A text pin is
# the literal output; a JSON pin is the document, printed with indent=2
# and sorted keys.
PREDICT_PINS = {
    "gor-even": (["-n", "4", "-t", "5", "--ci", "3,3,4"],
         """\
0 -> R(-14) -> R(-8)^9 + R(-10) + R(-11)^2 -> R(-6) + R(-7)^20 + R(-8) -> R(-3)^2 + R(-4) + R(-6)^9 -> R

total:      1    12    22    12     1
--------------------------------------
      0:      1     -     -     -     -
      1:      -     -     -     -     -
      2:      -     2     -     -     -
      3:      -     1     -     -     -
      4:      -     -     1     -     -
      5:      -     9    20     9     -
      6:      -     -     1     -     -
      7:      -     -     -     1     -
      8:      -     -     -     2     -
      9:      -     -     -     -     -
     10:      -     -     -     -     1
""",
         {"betti": [[0, 0, 1], [1, 3, 2], [1, 4, 1], [1, 6, 9], [2, 6, 1], [2, 7, 20],
                    [2, 8, 1], [3, 8, 9], [3, 10, 1], [3, 11, 2], [4, 14, 1]],
          "shape": "0 -> R(-14) -> R(-8)^9 + R(-10) + R(-11)^2 -> R(-6) + R(-7)^20 + "
                   "R(-8) -> R(-3)^2 + R(-4) + R(-6)^9 -> R"}),
    "gor-odd": (["-n", "4", "-t", "7", "--ci", "4,4,4"],
         """\
F_4 = R(-19)
F_3 = R(-10)^[y2] + R(-11)^[3] + R(-15)^[3]
F_2 = R(-8)^[3] + R(-9)^[2+y2] + R(-10)^[2+y2] + R(-11)^[3]
F_1 = R(-4)^[3] + R(-8)^[3] + R(-9)^[y2]
F_0 = R
""",
         {"shape": ["F_4 = R(-19)", "F_3 = R(-10)^[y2] + R(-11)^[3] + R(-15)^[3]",
                    "F_2 = R(-8)^[3] + R(-9)^[2+y2] + R(-10)^[2+y2] + R(-11)^[3]",
                    "F_1 = R(-4)^[3] + R(-8)^[3] + R(-9)^[y2]", "F_0 = R"]}),
    "mrc": (["-n", "4", "-t", "2", "--ci", "2"],
         """\
0 -> R(-9) -> R(-6)^7 + R(-7) -> R(-4)^7 + R(-5)^7 -> R(-2) + R(-3)^7 -> R

total:      1     8    14     8     1
--------------------------------------
      0:      1     -     -     -     -
      1:      -     1     -     -     -
      2:      -     7     7     -     -
      3:      -     -     7     7     -
      4:      -     -     -     1     -
      5:      -     -     -     -     1
""",
         {"betti": [[0, 0, 1], [1, 2, 1], [1, 3, 7], [2, 4, 7], [2, 5, 7], [3, 6, 7],
                    [3, 7, 1], [4, 9, 1]],
          "shape": "0 -> R(-9) -> R(-6)^7 + R(-7) -> R(-4)^7 + R(-5)^7 -> R(-2) + "
                   "R(-3)^7 -> R"}),
    "quadric-points": (["-N", "30"],
         """\
h-vector: 1 3 5 7 9 5
0 -> R(-8)^5 -> R(-6)^5 + R(-7)^6 -> R(-2) + R(-5)^6 -> R

total:      1     7    11     5
--------------------------------
      0:      1     -     -     -
      1:      -     1     -     -
      2:      -     -     -     -
      3:      -     -     -     -
      4:      -     6     5     -
      5:      -     -     6     5
""",
         {"betti": [[0, 0, 1], [1, 2, 1], [1, 5, 6], [2, 6, 5], [2, 7, 6], [3, 8, 5]],
          "hvec": [1, 3, 5, 7, 9, 5],
          "shape": "0 -> R(-8)^5 -> R(-6)^5 + R(-7)^6 -> R(-2) + R(-5)^6 -> R"}),
    "quadric-gor": (["-t", "4"],
         """\
0 -> R(-13) -> R(-8)^11 + R(-11) -> R(-6)^11 + R(-7)^11 -> R(-2) + R(-5)^11 -> R

total:      1    12    22    12     1
--------------------------------------
      0:      1     -     -     -     -
      1:      -     1     -     -     -
      2:      -     -     -     -     -
      3:      -     -     -     -     -
      4:      -    11    11     -     -
      5:      -     -    11    11     -
      6:      -     -     -     -     -
      7:      -     -     -     -     -
      8:      -     -     -     1     -
      9:      -     -     -     -     1
""",
         {"betti": [[0, 0, 1], [1, 2, 1], [1, 5, 11], [2, 6, 11], [2, 7, 11], [3, 8, 11],
                    [3, 11, 1], [4, 13, 1]],
          "shape": "0 -> R(-13) -> R(-8)^11 + R(-11) -> R(-6)^11 + R(-7)^11 -> R(-2) + "
                   "R(-5)^11 -> R"}),
    "aci": (["-n", "5", "-d", "2,4,4,4,5,6"],
         """\
0 -> R(-14)^45 -> R(-13)^146 -> R(-10)^3 + R(-11)^3 + R(-12)^150 -> R(-6)^3 + R(-7) + R(-8)^4 + R(-9)^3 + R(-10)^3 + R(-11)^46 -> R(-2) + R(-4)^3 + R(-5) + R(-6) -> R

total:      1     6    60   156   146    45
--------------------------------------------
      0:      1     -     -     -     -     -
      1:      -     1     -     -     -     -
      2:      -     -     -     -     -     -
      3:      -     3     -     -     -     -
      4:      -     1     3     -     -     -
      5:      -     1     1     -     -     -
      6:      -     -     4     -     -     -
      7:      -     -     3     3     -     -
      8:      -     -     3     3     -     -
      9:      -     -    46   150   146    45
""",
         {"betti": [[0, 0, 1], [1, 2, 1], [1, 4, 3], [1, 5, 1], [1, 6, 1], [2, 6, 3],
                    [2, 7, 1], [2, 8, 4], [2, 9, 3], [2, 10, 3], [2, 11, 46], [3, 10, 3],
                    [3, 11, 3], [3, 12, 150], [4, 13, 146], [5, 14, 45]],
          "shape": "0 -> R(-14)^45 -> R(-13)^146 -> R(-10)^3 + R(-11)^3 + R(-12)^150 -> "
                   "R(-6)^3 + R(-7) + R(-8)^4 + R(-9)^3 + R(-10)^3 + R(-11)^46 -> R(-2) "
                   "+ R(-4)^3 + R(-5) + R(-6) -> R"}),
}


@pytest.mark.parametrize("kind", PREDICT_PINS)
def test_predict_output_is_pinned(capsys, kind):
    argv, text, doc = PREDICT_PINS[kind]
    assert main(["predict", kind] + argv) == 0
    assert capsys.readouterr().out == text
    assert main(["predict", kind] + argv + ["--format", "json"]) == 0
    assert capsys.readouterr().out == json.dumps(doc, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_predict_quadric_points_refuses_fewer_than_five(capsys, N):
    assert main(["predict", "quadric-points", "-N", str(N)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: need at least 5 points\n"


def test_resolve_refuses_composite_modulus(capsys):
    assert main(["resolve", "general-forms(2,2,2)", "-n", "3", "-p", "4"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "prime" in captured.err


def test_predict_error_exit_code(capsys):
    assert main(["predict", "aci", "-n", "3", "-d", "2,2,3,3"]) == 2
    assert "error:" in capsys.readouterr().err


def test_resolve_trivial_ci(capsys):
    assert main(["resolve", "ci(3,3,3)", "-n", "3"]) == 0
    out = capsys.readouterr().out
    assert "hf: 1 3 6 7 6 3 1" in out
    assert "socle: (6)" in out


def test_resolve_json_round_trip(capsys):
    assert main(["resolve", "link(ci(3,3,3), general-forms(3,3,3,1,1))",
                 "-n", "3", "--format", "json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["hf"] == [1, 3, 6, 7, 5, 2]
    assert data["socle"] == [5, 5]
    assert all(len(row) == 3 for row in data["betti"])


def test_resolve_witness(tmp_path, capsys):
    path = tmp_path / "w.json"
    assert main(["resolve", "ci(2,2,2)", "-n", "3", "--seed", "7",
                 "--witness", str(path)]) == 0
    capsys.readouterr()
    data = json.loads(path.read_text())
    assert data["n"] == 3 and data["p"] == 32003 and data["seed"] == 7
    assert len(data["generators"]) == 3
    # replay: same seed, same recipe, same generators
    ring = RingCtx(3, 32003)
    ideal = eval_recipe(parse_recipe("ci(2,2,2)"), FormStream(ring, 7))
    assert [g.text() for g in ideal.gens] == data["generators"]


@pytest.mark.parametrize("p, digest", [
    ("32003", "a502b797fd9c792dd098ca13f2ac83961dbc114d8406839a7f7561e57691b736"),
    ("2147483647", "50a4e14e2b8b4afdf11b1aa21cfbbe146b2f46b57e3e5e88171d3958c182cf81"),
])
def test_link_witness_is_pinned(tmp_path, capsys, p, digest):
    # the generators a link prints, at a small modulus and at the largest
    path = tmp_path / "w.json"
    assert main(["resolve", "link(ci(4,4,4,11),general-forms(4,4,4,4,11))", "-n", "4",
                 "-p", p, "--witness", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


@pytest.mark.parametrize("p, digest", [
    ("32003", "c057a7ab7bf441c454baa49a30c91a22fd1c2ea3a2cb3b9c0054ad4a95489951"),
    ("2147483647", "951362dfbb3d00cc424859850e13cc9708a08466c628689c4ae8896a6d18e72d"),
])
def test_ann_witness_is_pinned(tmp_path, capsys, p, digest):
    # the generators an annihilator sifts, at a small modulus and at the largest
    path = tmp_path / "w.json"
    assert main(["resolve", "ann(perp-pick(2,6,ci(2,3)))", "-n", "4",
                 "-p", p, "--witness", str(path)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(path.read_bytes()).hexdigest() == digest


def test_annihilator_of_one_form_is_gorenstein_at_p_2(capsys):
    # contraction pairs perfectly at p = 2 <= s = 4: one form, one socle degree
    argv = ["resolve", "ann(perp-pick(1,4,ci(5)))", "-n", "3", "-p", "2"]
    assert main(argv) == 0
    assert capsys.readouterr().out == (
        "hf: 1 3 6 3 1\n\n"
        "total:      1     7     7     1\n"
        "--------------------------------\n"
        "      0:      1     -     -     -\n"
        "      1:      -     -     -     -\n"
        "      2:      -     7     7     -\n"
        "      3:      -     -     -     -\n"
        "      4:      -     -     -     1\n\n"
        "socle: (4)\n")
    assert main(argv + ["--format", "json"]) == 0
    assert capsys.readouterr().out == json.dumps(
        {"betti": [[0, 0, 1], [1, 3, 7], [2, 4, 7], [3, 7, 1]], "ghosts": [],
         "hf": [1, 3, 6, 3, 1], "n": 3, "p": 2, "recipe": "ann(perp-pick(1,4,ci(5)))",
         "seed": 1, "socle": [4]}, indent=2, sort_keys=True) + "\n"


@pytest.mark.parametrize("p, digest", [
    ("32003", "f3db5b57f101dc8fdc51f9e6faf2e39dcfd2d0cda4b6a49d6b84f54123297703"),
    ("2147483647", "365d249560777b8487403e7e27dc9273d8484d0979f40bbc9ff046c2b0c8f2e2"),
])
def test_link_betti_table_is_pinned(capsys, p, digest):
    # a Gorenstein table in four variables that still eliminates five d_3
    # ranks; at the largest modulus the pivot loop reduces every 2 updates
    assert main(["resolve", "link(ci(4,4,4,11),general-forms(4,4,4,4,11))", "-n", "4",
                 "-p", p, "--format", "json"]) == 0
    out = capsys.readouterr().out.encode()
    assert hashlib.sha256(out).hexdigest() == digest


def test_resolve_refuses_infinite_quotient(capsys):
    assert main(["resolve", "general-forms(2,2)", "-n", "3",
                 "--cap", "4"]) == 1
    err = capsys.readouterr().err
    assert "not finite" in err


def test_resolve_refuses_link_by_non_artinian_ideal(capsys):
    # no --cap can help: the linking ideal has fewer generators than variables
    assert main(["resolve", "link(ci(2,2),general-forms(2,2,2))",
                 "-n", "3"]) == 2
    err = capsys.readouterr().err
    assert "fewer than 3 generators: R/I is not Artinian" in err
    assert "cap" not in err


@pytest.mark.parametrize("recipe, refusal", [
    ("link(perp-pick(1,2,ci(2)),general-forms(2,2,2))",
     "the first argument of link must build an ideal"),
    ("ann(perp-pick(1,3,perp-pick(1,2,ci(2))))",
     "the recipe of perp-pick must build an ideal"),
])
def test_resolve_refuses_a_sub_recipe_of_the_wrong_kind(capsys, recipe, refusal):
    # dual forms where an ideal is needed: refused, not an AttributeError
    assert main(["resolve", recipe, "-n", "3"]) == 2
    assert capsys.readouterr().err == "error: %s\n" % refusal


MODEL_CASES = [
    ("ann(perp-pick(1,6,ci(2)))", "4", 1, False),
    ("link(ci(3,3,3), general-forms(3,3,3,3))", "3", 3, False),
    ("link(ci(3,3,3),general-forms(2,3,3,3))", "3", 3, True),
]


@pytest.mark.parametrize("recipe, n, models, witness", MODEL_CASES, ids=[
    "%s-%s-%d%s" % (recipe, n, models, "-witness" * witness)
    for recipe, n, models, witness in MODEL_CASES])
def test_resolve_builds_one_model_per_ideal(monkeypatch, capsys, tmp_path, recipe, n,
                                            models, witness):
    # ann: the annihilator's incremental model, which the result carries;
    # link: the models of both ideals and the colon's, which the result
    # carries and on whose own degrees a witness finds the generators
    built = []
    init = QuotientBasis.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(QuotientBasis, "__init__", counting_init)
    args = ["--witness", str(tmp_path / "w.json")] if witness else []
    assert main(["resolve", recipe, "-n", n] + args) == 0
    assert "socle:" in capsys.readouterr().out
    assert len(built) == models
    assert (tmp_path / "w.json").exists() == witness


def test_compressed_gorenstein_resolve_sifts_nothing(monkeypatch, capsys):
    # the model is read off the catalecticants, and every rank d_2 comes from
    # R's strand or the Gorenstein mirror, so the generators are never sieved;
    # perp_picks draws from an rref, so no step takes a kernel; the socle is
    # read off the form's degree, so no step takes a rank
    def refuse(*args, **kwargs):
        raise AssertionError("resolve built, sieved or took a kernel or rank in the model")

    monkeypatch.setattr(engine, "rank", refuse)
    monkeypatch.setattr(QuotientBasis, "_build", refuse)
    monkeypatch.setattr(engine, "_sieve", refuse)
    monkeypatch.setattr(engine, "_kernel", refuse)
    monkeypatch.setattr(engine, "kernel_basis", refuse)
    monkeypatch.setattr(gfp, "_kernel", refuse)
    assert main(["resolve", "ann(perp-pick(1,8,ci(9)))", "-n", "6", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["hf"] == [1, 6, 21, 56, 126, 56, 21, 6, 1]


def test_compressed_gorenstein_reads_no_degree_below_the_middle(monkeypatch, capsys):
    # one form F of degree 8: the wide catalecticant B(8 - d), read first,
    # has rank dim R_d for d < 4, so A_d = R_d is stored with no rref and
    # no catalecticant of degree d; degree 9 has no block and ci(9) no
    # generator of degree <= 8, so neither is eliminated
    read, gathered = [], []
    true_rref, true_map = engine.rref, engine.contraction_map

    def rref(m):
        caller = sys._getframe(1)
        read.append(caller.f_locals["d"] if caller.f_code is QuotientBasis._rref_blocks.__code__
                    else caller.f_code.co_name)
        return true_rref(m)

    monkeypatch.setattr(engine, "rref", rref)
    monkeypatch.setattr(engine, "contraction_map",
                        lambda f, d: gathered.append(d) or true_map(f, d))
    assert main(["resolve", "ann(perp-pick(1,8,ci(9)))", "-n", "6", "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["hf"] == [1, 6, 21, 56, 126, 56, 21, 6, 1]
    assert read == [8, 7, 6, 5, 4]
    assert gathered == [8, 7, 6, 5, 4]


def test_search_builds_one_complete_intersection_per_grid_point(monkeypatch, capsys,
                                                                tmp_path):
    # per instance the adjoined ideal's model and the residual's, which the
    # residual carries; per (n, ci) one model of the complete intersection
    built = []
    init = QuotientBasis.__init__

    def counting_init(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(QuotientBasis, "__init__", counting_init)
    assert main(["search", "remark-4.10", "--max-degree", "3",
                 "--out", str(tmp_path)]) == 0
    rows = capsys.readouterr().out.strip().splitlines()[1:]
    grid_points = {(r.split(",")[1], r.split(";")[0]) for r in rows}
    assert (len(rows), len(grid_points)) == (20, 4)
    assert len(built) == 2 * len(rows) + len(grid_points)


# --- every option is read ----------------------------------------------------
# For every subcommand, predict kind and search family: a quick default run
# and the options it reads.  Each read option, at the value below, changes
# stdout (or creates the file it names) or is refused with exit 2; every
# other option of the CLI is refused with exit 2.

VALUES = {"-n": "2", "-p": "101", "--seed": "2", "--cap": "1", "-d": "3,3,3",
          "-t": "4", "-N": "20", "--ci": "2", "--witness": "w.json",
          "--all": None, "--verbose": None, "--max-n": "2", "--max-degree": "1",
          "--max-socle": "1", "--limit": "0", "--out": "out"}
GRID = "-p --seed --max-degree --max-socle --limit --out"
SEARCH = ["--max-degree", "2", "--limit", "1"]
RUNS = {
    "froberg": (["froberg", "-d", "2,2,2"], "-n -d --cap"),
    "predict-gor-even": (["predict", "gor-even", "-t", "3"], "-n -t --ci"),
    "predict-gor-odd": (["predict", "gor-odd", "-t", "3"], "-n -t --ci"),
    "predict-quadric-points": (["predict", "quadric-points", "-N", "30"], "-N"),
    "predict-quadric-gor": (["predict", "quadric-gor", "-t", "3"], "-t"),
    "predict-aci": (["predict", "aci", "-d", "2,3,3,3"], "-n -d"),
    "predict-mrc": (["predict", "mrc", "-t", "2"], "-n -t --ci"),
    "resolve": (["resolve", "ci(2,2,2)", "--format", "json"],
                "-n -p --seed --cap --witness"),
    "reproduce": (["reproduce", "ex26-betti", "--format", "json"],
                  "--all --verbose --seed"),
    "search-conj-4.7": (["search", "conj-4.7"] + SEARCH, GRID + " --max-n"),
    "search-conj-4.8": (["search", "conj-4.8"] + SEARCH, GRID + " --max-n"),
    "search-remark-4.10": (["search", "remark-4.10"] + SEARCH, GRID),
}


def _run(capsys, argv):
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out = capsys.readouterr().out
    formats = [v for k, v in zip(argv, argv[1:]) if k == "--format"]
    if code == 0 and formats[-1:] == ["json"]:
        # reproduce writes JSON Lines, every other subcommand one document
        for doc in out.splitlines() if argv[0] == "reproduce" else [out]:
            json.loads(doc)
    return code, out


@pytest.mark.parametrize("run, flag", [(r, f) for r in RUNS
                                       for f in ["--format"] + list(VALUES)],
                         ids=lambda x: x)
def test_every_flag_is_read(tmp_path, monkeypatch, capsys, run, flag):
    monkeypatch.chdir(tmp_path)  # search's default witness directory
    base, reads = RUNS[run]
    if flag == "--format":
        value = "text" if "--format" in base else "json"
    else:
        value = VALUES[flag]
    argv = base + [flag] + ([] if value is None else [value])
    if flag != "--format" and flag not in reads.split():
        assert _run(capsys, argv) == (2, "")
        return
    code, out = _run(capsys, argv)
    if flag == "--witness":
        assert code == 0 and (tmp_path / value).exists()
    elif flag == "--out":
        # made with the first witness written into it, and only then
        # (test_search_makes_witness_directory_at_first_witness)
        assert code == 0
        assert (tmp_path / value).exists() == (value + "/" in out)
    else:
        assert code == 2 or out != _run(capsys, base)[1]


@pytest.mark.parametrize("command", ["froberg", "predict", "resolve",
                                     "reproduce", "search"])
def test_help_lists_only_read_flags(capsys, command):
    with pytest.raises(SystemExit):
        main([command, "--help"])
    out = capsys.readouterr().out
    assert ("{csv,json}" if command == "search" else "{text,json}") in out
    listed = set(re.findall(r"^  (-[-\w]+)", out, re.M))
    want = {"-h", "--format"}
    for run, (_, reads) in RUNS.items():
        if run.split("-")[0] == command:
            want.update(reads.split())
    assert listed == want


@pytest.mark.parametrize("argv", [
    ["froberg", "-n", "3", "-d", "2,2,2", "-p", "4"],
    ["reproduce", "froberg-rows", "-n", "9", "-p", "4", "--format", "csv"],
    ["predict", "quadric-points", "-N", "30", "-n", "9", "--ci", "2", "-t", "4",
     "-d", "3"],
    ["resolve", "ci(2,2,2)", "--format", "csv"],
    ["resolve", "ci(2,2,2)", "--seed", "-1"],
    ["reproduce", "ci333-level-s5", "--seed", "-1"],
    ["resolve", "ci(2,2,2)", "--cap", "-1"],
    ["reproduce", "froberg-rows", "--all"],
    ["search", "conj-4.8", "--limit", "-5"],
    # the grid has n = 3 and n = 4 only
    ["search", "conj-4.7", "--max-n", "9"],
    ["search", "conj-4.8", "--max-n", "2"],
])
def test_unread_or_invalid_options_exit_2(capsys, argv):
    assert _run(capsys, argv) == (2, "")


def test_reproduce_single_case(capsys):
    assert main(["reproduce", "froberg-rows"]) == 0
    assert capsys.readouterr().out.startswith("PASS froberg-rows")


def test_reproduce_unknown_case(capsys):
    assert main(["reproduce", "no-such-case"]) == 2


def test_search_tiny_grid(tmp_path, capsys):
    assert main(["search", "remark-4.10", "--max-degree", "2",
                 "--limit", "4", "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    lines = captured.out.strip().splitlines()
    assert lines[0] == "family,n,p,seed,params,verdict,witness_path"
    assert len(lines) == 3  # the degree-2 grid has two instances
    assert all("remark-4.10" in ln for ln in lines[1:])
    assert all(ln.endswith("CONFIRMED,") or "CONFIRMED" in ln
               for ln in lines[1:])


def test_search_skips_a_failed_second_link(tmp_path, capsys):
    # over GF(3) conj-4.7's second link at ci = 2,4,4, s = 5, c = 3 draws a
    # linking ideal that is not Artinian: that row is SKIPPED, the rest run
    assert main(["search", "conj-4.7", "--max-degree", "5", "--limit", "400",
                 "-p", "3", "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "family,n,p,seed,params,verdict,witness_path"
    assert len(lines) == 401
    assert 'conj-4.7,3,3,1,"ci=2,4,4;s=5;c=3",SKIPPED,' in lines
    assert sum(",DISCOVERY," in ln for ln in lines) == 8


def test_search_reports_a_defect_of_the_program(monkeypatch, tmp_path, capsys):
    # an InternalError is no SKIPPED row: the search stops with exit 2
    def defect(ideal):
        raise InternalError("injected")

    monkeypatch.setattr(cli, "betti_numbers", defect)
    assert main(["search", "remark-4.10", "--max-degree", "3", "--limit", "3",
                 "--out", str(tmp_path)]) == 2
    out, err = capsys.readouterr()
    assert "error: injected" in err and "SKIPPED" not in out


def test_search_budget_flagged_incomplete(tmp_path, capsys):
    assert main(["search", "remark-4.10", "--max-degree", "3",
                 "--limit", "2", "--out", str(tmp_path)]) == 0
    captured = capsys.readouterr()
    assert "INCOMPLETE" in captured.err


def test_search_empty_grid(tmp_path, capsys):
    assert main(["search", "conj-4.8", "--max-degree", "1",
                 "--limit", "10", "--out", str(tmp_path)]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1  # header only


def test_search_makes_witness_directory_at_first_witness(tmp_path, monkeypatch,
                                                          capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["search", "conj-4.8", "--max-degree", "2", "--limit", "1"]) == 0
    assert "/" not in capsys.readouterr().out
    assert not (tmp_path / "witnesses").exists()
    # this grid has one conj-4.7 discovery, so one witness
    assert main(["search", "conj-4.7", "--max-degree", "2", "--max-socle", "3",
                 "--out", "out"]) == 0
    assert "DISCOVERY,out/conj-4.7-001.json" in capsys.readouterr().out
    assert [f.name for f in (tmp_path / "out").iterdir()] == ["conj-4.7-001.json"]
