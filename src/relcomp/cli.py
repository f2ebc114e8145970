"""Command line surface.

Five subcommands:

* ``froberg``    -- Hilbert series of an ideal of general forms;
* ``predict``    -- closed-form resolution shapes (no linear algebra);
* ``resolve``    -- run the exact engine on a recipe and print the
  Hilbert function, Betti diagram, socle, and ghost classification;
* ``reproduce``  -- re-run the pinned worked cases and diff the results;
* ``search``     -- sweep a bounded parameter grid and evaluate an open
  predicate on every instance, reporting discoveries rather than failing.

Recipes are composable prefix expressions, mirroring the way the
interesting algebras are built: ``link(ci(4,4,4,11),
general-forms(4,4,4,4,11))`` links an ideal of general forms by a general
complete intersection chosen inside it.  ``ann(perp-pick(4, 5, ci(2)))``
picks four random degree-5 forms apolar to a general quadric and takes
the annihilator of their span.
"""

import argparse
import csv
import itertools
import json
import os
import re
import sys

from . import cases as case_mod
from .betti import (
    aci_resolution,
    ghost_classify,
    mrc_resolution,
    quadric_points_resolution,
    rc_gor_even,
    rc_gor_odd_quadric,
    rc_gor_odd_shape,
)
from .engine import (
    GradedIdeal,
    annihilator_ideal,
    betti_numbers,
    ci_in,
    general_forms,
    hilbert_function,
    ideal_quotient,
    minimal_generators,
    socle,
)
from .errors import InternalError, RelcompError, ParamError
from .ring import FormStream, RingCtx
from .series import froberg_prediction

__all__ = ["main", "parse_recipe", "eval_recipe"]


# ---------------------------------------------------------------------------
# recipe mini-language

_TOKEN_RE = re.compile(r"\s*([A-Za-z][A-Za-z0-9-]*|\d+|[(),])")

_KNOWN = {"general-forms", "ci", "link", "ann", "perp-pick"}


class _Node:
    def __init__(self, name, args):
        self.name = name
        self.args = args

    def text(self):
        return "%s(%s)" % (self.name, ",".join(
            str(a) if isinstance(a, int) else a.text() for a in self.args))


def _tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParamError("cannot read recipe near %r" % text[pos:])
            break
        out.append(m.group(1))
        pos = m.end()
    return out


def parse_recipe(text):
    """Parse a recipe expression into a syntax tree."""
    tokens = _tokenize(text)
    pos = [0]

    def peek():
        return tokens[pos[0]] if pos[0] < len(tokens) else None

    def take(expected=None):
        tok = peek()
        if tok is None or (expected is not None and tok != expected):
            raise ParamError("unexpected end of recipe (wanted %r)" % expected)
        pos[0] += 1
        return tok

    def expr():
        name = take()
        if name not in _KNOWN:
            raise ParamError("unknown recipe function %r" % name)
        take("(")
        args = []
        if peek() != ")":
            while True:
                if peek() and peek().isdigit():
                    args.append(int(take()))
                else:
                    args.append(expr())
                if peek() == ",":
                    take(",")
                else:
                    break
        take(")")
        return _Node(name, args)

    tree = expr()
    if pos[0] != len(tokens):
        raise ParamError("trailing text in recipe: %r"
                         % " ".join(tokens[pos[0]:]))
    return tree


def _int_args(node):
    if not node.args or not all(isinstance(a, int) for a in node.args):
        raise ParamError("%s(...) takes a list of degrees" % node.name)
    return list(node.args)


def eval_recipe(node, stream):
    """Evaluate a recipe tree to a GradedIdeal (or a list of dual forms
    for perp-pick nodes) in the ring of the stream."""
    if node.name in ("general-forms", "ci"):
        return general_forms(_int_args(node), stream)
    if node.name == "link":
        if len(node.args) != 2 or isinstance(node.args[1], int):
            raise ParamError("link(ci(...), <recipe>) takes two arguments")
        first, second = node.args
        refusal = "the %s argument of link must build an ideal"
        ideal = _built(second, stream, GradedIdeal, refusal % "second")
        if isinstance(first, _Node) and first.name == "ci":
            cideal = ci_in(ideal, _int_args(first), stream)
        else:
            cideal = _built(first, stream, GradedIdeal, refusal % "first")
        return ideal_quotient(cideal, ideal)
    if node.name == "perp-pick":
        if len(node.args) != 3 or not all(isinstance(a, int) for a in node.args[:2]):
            raise ParamError("perp-pick(count, degree, <recipe>)")
        count, degree, sub = node.args
        ideal = _built(sub, stream, GradedIdeal, "the recipe of perp-pick must build an ideal")
        return case_mod.perp_picks(ideal, degree, count, stream)
    if node.name == "ann":
        if any(isinstance(a, int) for a in node.args):
            raise ParamError("ann(...) takes perp-pick sub-recipes")
        return annihilator_ideal([f for a in node.args for f in _built(
            a, stream, list, "ann(...) arguments must produce dual forms")])
    raise ParamError("unknown recipe function %r" % node.name)


def _built(sub, stream, kind, refusal):
    """eval_recipe of sub, refused with ParamError(refusal) unless it builds a `kind`."""
    got = eval_recipe(sub, stream) if isinstance(sub, _Node) else None
    if not isinstance(got, kind):
        raise ParamError(refusal)
    return got


# ---------------------------------------------------------------------------
# output plumbing


def _emit(args, payload, text_lines):
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _write_witness(path, seed, recipe, ideal):
    data = {
        "n": ideal.ring.n,
        "p": ideal.ring.p,
        "seed": seed,
        "recipe": recipe,
        "generators": [g.text() for g in ideal.gens],
    }
    with open(path, "w") as fh:
        json.dump(data, fh, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# subcommands


def cmd_froberg(args):
    series = froberg_prediction(args.degrees, args.n, args.cap)
    _emit(args, {"hf": series.trimmed()}, [series.text()])
    return 0


def cmd_predict(args):
    kind = args.kind
    head, extra = [], {}
    if kind == "gor-even":
        shape = rc_gor_even(args.n, args.t, args.ci)
    elif kind == "gor-odd":
        desc = rc_gor_odd_shape(args.n, args.t, args.ci).describe()
        _emit(args, {"shape": desc}, desc)
        return 0
    elif kind == "quadric-points":
        hf, shape = quadric_points_resolution(args.N)
        head, extra = ["h-vector: %s" % hf.text()], {"hvec": hf.trimmed()}
    elif kind == "quadric-gor":
        shape = rc_gor_odd_quadric(args.t)
    elif kind == "aci":
        shape, _ = aci_resolution(args.n, args.degrees)
    else:
        shape = mrc_resolution(args.n, args.ci, args.t)
    _emit(args, dict(extra, shape=shape.text(), betti=shape.to_json()["betti"]),
          head + [shape.text(), "", shape.render()])
    return 0


def cmd_resolve(args):
    tree = parse_recipe(args.recipe)
    ideal = _built(tree, FormStream(RingCtx(args.n, args.p), args.seed), GradedIdeal,
                   "the recipe must build an ideal")
    hf = hilbert_function(ideal, args.cap)
    if not hf.exact:
        print("quotient is not finite within the degree window <= %d;"
              " Betti numbers are not printed" % hf.cap, file=sys.stderr)
        _emit(args, {"hf": list(hf.coeffs), "exact": False}, [hf.text()])
        return 1
    table = betti_numbers(ideal)
    prof = socle(ideal)
    report = ghost_classify(table)
    payload = {
        "n": ideal.ring.n,
        "p": ideal.ring.p,
        "seed": args.seed,
        "recipe": tree.text(),
        "hf": hf.trimmed(),
        "betti": table.to_json()["betti"],
        "socle": prof.degrees,
        "ghosts": [[e.i, e.j, e.cls] for e in report.entries],
    }
    lines = ["hf: %s" % hf.text(), "", table.render(), "",
             "socle: %s" % prof.text()]
    if report.entries:
        lines.append("ghost terms:")
        lines.extend("  " + ln for ln in report.lines())
    _emit(args, payload, lines)
    if args.witness:
        _write_witness(args.witness, args.seed, tree.text(), ideal)
    return 0


def cmd_reproduce(args):
    if args.all == (args.case is not None):
        raise ParamError("give a case id or --all, not both")
    if args.verbose and args.format == "json":
        raise ParamError("--verbose applies to text output only")
    ids = case_mod.case_ids() if args.all else [args.case]
    failures = 0
    for cid in ids:
        result = case_mod.run_case(cid, seed=args.seed)
        if not result.passed:
            failures += 1
        if args.format == "json":
            print(json.dumps({
                "case": cid,
                "seed": args.seed,
                "passed": result.passed,
                "checks": [[c.name, c.tag, c.ok] for c in result.checks],
            }, sort_keys=True))
        else:
            print("\n".join(result.lines() if args.verbose or not result.passed
                            else result.lines()[:1]))
    return 1 if failures else 0


# --- search families -------------------------------------------------------


def _search_grid(family, max_n, max_degree, max_socle):
    """Yield (n, ci_degrees, socle_degree, type) tuples for a family."""
    if max_n not in (3, 4):
        raise ParamError("--max-n must be 3 or 4: the grid has n = 3 and n = 4")
    for n in range(3, max_n + 1):
        if family == "conj-4.8":
            degree_lists = [(d,) * n for d in range(2, max_degree + 1)]
        else:
            degree_lists = itertools.combinations_with_replacement(
                range(2, max_degree + 1), n)
        for ci in degree_lists:
            total = sum(ci)
            for s in range(2, min(total - n - 1, max_socle) + 1):
                cmin = 2 if n == 3 else 1
                for c in range(cmin, 4):
                    yield n, ci, s, c


def _run_search_instance(family, cideal, s, c, seed):
    """Build the level-by-linkage instance in the complete intersection
    cideal, drawn first from a fresh stream of the seed, and evaluate the
    predicate.

    Returns (verdict, ideal or None).  An instance whose construction is
    refused, or yields no level algebra of the requested socle data, is
    SKIPPED; an InternalError, a defect of the program, propagates.
    """
    n = cideal.ring.n
    stream = FormStream(cideal.ring, seed)
    stream.forms(cideal.degrees())  # the draws that made cideal
    try:
        big, res = case_mod.level_by_linkage(cideal, s, c, stream)
        prof = socle(res)
        if not prof.is_level or prof.socle_degree != s or prof.cm_type != c:
            return "SKIPPED", None
        report = ghost_classify(betti_numbers(res))
        non_koszul = [e for e in report.entries if e.cls == "NON_KOSZUL"]
        if family == "conj-4.7" and non_koszul:
            # two-step link: back through the complete intersection, then by
            # a complete intersection of the smallest generator degrees
            back = ideal_quotient(cideal, res)
            degs = sorted(d for d, m in minimal_generators(back) for _ in range(m))
            c2 = ci_in(back, degs[:n], stream)
            final = ideal_quotient(c2, back)
    except InternalError:
        raise
    except RelcompError:
        return "SKIPPED", None
    if family == "remark-4.10":
        return ("CONFIRMED" if not non_koszul else "DISCOVERY"), res
    if family == "conj-4.8":
        return ("CONFIRMED" if not report.entries else "DISCOVERY"), res
    if family == "conj-4.7":
        if not non_koszul:
            return "VACUOUS", None
        linear = sum(m for d, m in minimal_generators(final) if d == 1)
        return ("CONFIRMED" if linear >= 2 else "DISCOVERY"), final
    raise ParamError("unknown search family %r" % family)


def cmd_search(args):
    out_dir = args.out
    rows = []
    budget = args.limit
    complete = True
    idx = 0
    key = None  # the (n, ci) of the current complete intersection
    # remark-4.10 does not read --max-n: it is fixed at n = 3
    for n, ci, s, c in _search_grid(args.family, getattr(args, "max_n", 3),
                                    args.max_degree, args.max_socle):
        if budget <= 0:
            complete = False
            break
        budget -= 1
        if (n, ci) != key:
            # one ring per n and one complete intersection per (n, ci),
            # which the grid yields in one run
            if key is None or key[0] != n:
                ring = RingCtx(n, args.p)
            key, cideal = (n, ci), general_forms(ci, FormStream(ring, args.seed))
        verdict, witness = _run_search_instance(args.family, cideal, s, c, args.seed)
        params = "ci=%s;s=%d;c=%d" % (",".join(map(str, ci)), s, c)
        path = ""
        if witness is not None and verdict != "CONFIRMED":
            idx += 1
            if idx == 1:
                os.makedirs(out_dir, exist_ok=True)
            path = os.path.join(
                out_dir, "%s-%03d.json" % (args.family, idx))
            _write_witness(path, args.seed, witness.recipe, witness)
        rows.append((args.family, n, args.p, args.seed, params, verdict, path))
    columns = ["family", "n", "p", "seed", "params", "verdict", "witness_path"]
    if args.format == "json":
        print(json.dumps([dict(zip(columns, r)) for r in rows], indent=2))
    else:
        writer = csv.writer(sys.stdout)
        writer.writerow(columns)
        writer.writerows(rows)
    if not complete:
        print("INCOMPLETE: instance budget %d exhausted before the grid"
              % args.limit, file=sys.stderr)
    return 0


# ---------------------------------------------------------------------------
# argument parsing


def _degrees(text):
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError("expected a comma list of integers")


def _nonneg(text):
    if not text.isdigit():
        raise argparse.ArgumentTypeError("expected a non-negative integer")
    return int(text)


# One definition per option: (option strings, default, argparse keywords).
# Parsers give every option a SUPPRESS default, so the parsed namespace
# holds exactly the options that were typed; _settle() fills in the rest.
_FLAGS = {
    "n": (["-n"], 3, dict(type=int, help="number of variables")),
    "p": (["-p"], 32003, dict(type=int, help="a prime below 2**31")),
    "seed": (["--seed"], 1, dict(type=_nonneg)),
    "cap": (["--cap"], None,
            dict(type=_nonneg, help="degree window for non-terminating data")),
    "degrees": (["-d", "--degrees"], None, dict(type=_degrees)),
    "t": (["-t"], None, dict(type=int, help="half socle degree")),
    "N": (["-N"], None, dict(type=int, help="number of points")),
    "ci": (["--ci"], (), dict(type=_degrees, help="complete intersection degrees")),
    "witness": (["--witness"], None, dict(help="write a replayable witness JSON here")),
    "all": (["--all"], False, dict(action="store_true")),
    "verbose": (["--verbose"], False,
                dict(action="store_true", help="print per-check lines for passing cases too")),
    "max_n": (["--max-n"], 4, dict(type=_nonneg)),
    "max_degree": (["--max-degree"], 8, dict(type=_nonneg)),
    "max_socle": (["--max-socle"], 14, dict(type=_nonneg)),
    "limit": (["--limit"], 50, dict(type=_nonneg, help="instance budget")),
    "out": (["--out"], "witnesses", dict(help="directory for witness files")),
}

_GRID = ("p", "seed", "max_degree", "max_socle", "limit", "out")

# subcommand: (handler, help, positional, --format writers, the options read
# by each kind, or under None by a subcommand without kinds); "!" marks an
# option that cannot be left out
_COMMANDS = {
    "froberg": (cmd_froberg, "Hilbert series of general forms", None,
                ("text", "json"), {None: ("degrees!", "n", "cap")}),
    "predict": (cmd_predict, "closed-form resolution shapes", "kind",
                ("text", "json"),
                {"gor-even": ("t!", "n", "ci"), "gor-odd": ("t!", "n", "ci"),
                 "quadric-points": ("N!",), "quadric-gor": ("t!",),
                 "aci": ("degrees!", "n"), "mrc": ("t!", "n", "ci")}),
    "resolve": (cmd_resolve, "run the engine on a recipe", "recipe",
                ("text", "json"), {None: ("n", "p", "seed", "cap", "witness")}),
    "reproduce": (cmd_reproduce, "re-run pinned worked cases", "case",
                  ("text", "json"), {None: ("all", "verbose", "seed")}),
    # remark-4.10 is fixed at n = 3
    "search": (cmd_search, "sweep a grid for an open predicate", "family",
               ("csv", "json"),
               {"conj-4.7": _GRID + ("max_n",), "conj-4.8": _GRID + ("max_n",),
                "remark-4.10": _GRID}),
}


def build_parser():
    top = argparse.ArgumentParser(
        prog="relcomp",
        description="Hilbert functions, linkage, and resolutions of"
                    " Artinian algebras squeezed in a complete intersection",
    )
    sub = top.add_subparsers(dest="command", required=True)
    for command, (func, help_, positional, formats, kinds) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_)
        if None not in kinds:
            p.add_argument(positional, choices=list(kinds))
        elif positional == "case":
            p.add_argument("case", nargs="?")
        elif positional:
            p.add_argument(positional)
        p.add_argument("--format", choices=formats, default=formats[0])
        for name in dict.fromkeys(r.rstrip("!") for k in kinds.values() for r in k):
            flags, _, kwargs = _FLAGS[name]
            p.add_argument(*flags, dest=name, default=argparse.SUPPRESS, **kwargs)
        p.set_defaults(func=func)
    return top


def _settle(args):
    """Refuse an option that the chosen kind does not read, demand the one
    it cannot do without, and fill in the defaults of the rest."""
    _, _, positional, _, kinds = _COMMANDS[args.command]
    kind = None if None in kinds else getattr(args, positional)
    label = args.command if kind is None else "%s %s" % (args.command, kind)
    names = [r.rstrip("!") for r in kinds[kind]]
    unread = [_FLAGS[k][0][0] for k in vars(args) if k in _FLAGS and k not in names]
    if unread:
        raise ParamError("%s does not read %s" % (label, ", ".join(unread)))
    for r, k in zip(kinds[kind], names):
        if not hasattr(args, k):
            if r.endswith("!"):
                raise ParamError("%s needs %s" % (label, _FLAGS[k][0][0]))
            setattr(args, k, _FLAGS[k][1])


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        _settle(args)
        return args.func(args)
    except RelcompError as err:
        print("error: %s" % err, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
