"""Span tracer for the relcomp layers, installed from outside the package.

The tracer wraps the public entry points of ``gfp``, ``ring``, ``engine``,
``betti``, ``series``, ``cases`` and ``cli`` by rebinding attributes: every
``relcomp.*`` module attribute that holds an original function (``engine``
keeps its own ``rref`` from ``from .gfp import ...``, ``cli`` and ``cases``
keep copies of the ``engine`` functions) and, for methods, the class
attribute.  Nothing under ``src/`` is edited.

Each wrapped call records one span ``(id, parent id, name, start, end,
work)`` in memory.  Spans are written out once the run ends and turned into
per-layer metrics by :func:`layer_metrics`:

* ``<span>.calls`` -- number of calls;
* ``<span>.total_s`` -- wall time, counting a recursive call once;
* ``<span>.self_s`` -- wall time minus the time spent in wrapped children;
* ``gfp.*.madds`` -- multiply-adds *computed* from the matrix shapes and
  the returned rank (not measured; see :data:`MADDS`);
* ``gfp.*.max_dim`` -- largest matrix side seen;
* ``engine.QuotientBasis.models`` -- number of quotient models built;
* ``engine.QuotientBasis.dim.rref_s`` and ``engine.betti_numbers.rank_s`` --
  time of the elimination calls made underneath those layers.
"""

import importlib
import itertools
import json
import sys
import time
from collections import defaultdict


def _elim_work(args, result):
    rows, cols = args[0].a.shape
    rank = len(result[1]) if isinstance(result, tuple) else result
    return rows, cols, rank


def _matmul_work(args, result):
    rows, inner = args[0].a.shape
    return rows, inner, args[1].a.shape[1]


def _rref_madds(rows, cols, rank):
    # Gauss-Jordan: each pivot updates every row across the full width.
    return rank * rows * cols


def _rank_madds(rows, cols, rank):
    # Forward elimination with pivots in the leading columns:
    # sum over k < rank of (rows - 1 - k) * (cols - k).
    r, c = rows - 1, cols
    return (rank * r * c - (r + c) * rank * (rank - 1) // 2
            + (rank - 1) * rank * (2 * rank - 1) // 6)


def _matmul_madds(rows, inner, cols):
    return rows * inner * cols


# span name -> multiply-add count computed from the recorded work tuple
MADDS = {
    "gfp.rref": _rref_madds,
    "gfp.rank": _rank_madds,
    "gfp.PrimeMatrix.matmul": _matmul_madds,
}

# span names whose work tuple starts with (rows, cols)
MAX_DIM = ("gfp.rref", "gfp.rank")

# (module under relcomp, attribute path, work extractor or None)
TARGETS = (
    ("gfp", "rref", _elim_work),
    ("gfp", "rank", _elim_work),
    ("gfp", "kernel_basis", None),
    ("gfp", "PrimeMatrix.matmul", _matmul_work),
    ("ring", "RingCtx.mult_map", None),
    ("ring", "contraction_map", None),
    ("ring", "FormStream.form", None),
    ("engine", "QuotientBasis.__init__", None),
    ("engine", "QuotientBasis.dim", None),
    ("engine", "betti_numbers", None),
    ("engine", "hilbert_function", None),
    ("engine", "socle", None),
    ("engine", "minimal_generators", None),
    ("engine", "ideal_quotient", None),
    ("engine", "annihilator_ideal", None),
    ("engine", "perp_basis", None),
    ("engine", "is_relatively_compressed", None),
    ("betti", "ghost_classify", None),
    ("betti", "mapping_cone_link", None),
    ("series", "froberg_prediction", None),
    ("cases", "ExampleCase.run", None),
    ("cases", "level_by_linkage", None),
    ("cli", "eval_recipe", None),
    ("cli", "main", None),
)

# metric -> (span timed, layer it must run under)
UNDER = {
    "engine.QuotientBasis.dim.rref_s": ("gfp.rref", "engine.QuotientBasis.dim"),
    "engine.betti_numbers.rank_s": ("gfp.rank", "engine.betti_numbers"),
}


def span_name(module, path):
    """Span name of a target; a constructor is named after its class."""
    return "%s.%s" % (module, path.removesuffix(".__init__"))


def _case_label(args):
    # one span name per worked case, e.g. "cases.ghost-4444-11"
    return "cases." + args[0].id


def relcomp_modules():
    """Every loaded module of the relcomp package, the package included."""
    return [m for name, m in sorted(sys.modules.items())
            if name == "relcomp" or name.startswith("relcomp.")]


class Tracer:
    """Collects spans for one run; ``install`` and ``uninstall`` rebind."""

    def __init__(self, run_id="run"):
        self.run_id = run_id
        self.spans = []
        self._stack = [0]
        self._ids = itertools.count(1)
        self._undo = []
        self.originals = {}

    def _wrap(self, fn, name, work):
        spans, stack, ids = self.spans, self._stack, self._ids
        clock = time.perf_counter
        label = _case_label if name == "cases.ExampleCase.run" else None

        def traced(*args, **kwargs):
            sid = next(ids)
            parent = stack[-1]
            stack.append(sid)
            result = done = None
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
                done = True
                return result
            finally:
                t1 = clock()
                stack.pop()
                spans.append((sid, parent, label(args) if label else name,
                              t0, t1,
                              work(args, result) if work and done else None))

        traced.__wrapped__ = fn
        return traced

    def install(self):
        importlib.import_module("relcomp.cli")  # loads every layer
        modules = relcomp_modules()
        for module, path, work in TARGETS:
            owner = importlib.import_module("relcomp." + module)
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            name = span_name(module, path)
            wrapper = self._wrap(original, name, work)
            self.originals[name] = original
            sites = [(owner, attr)] + [
                (m, key) for m in modules for key, value in vars(m).items()
                if value is original and not (m is owner and key == attr)]
            for site, key in sites:
                setattr(site, key, wrapper)
                self._undo.append((site, key, original))

    def uninstall(self):
        while self._undo:
            site, key, original = self._undo.pop()
            setattr(site, key, original)

    def write(self, path):
        """Write the spans as JSON lines, one span per line."""
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1, work in self.spans:
                fh.write(json.dumps({"id": sid, "parent": parent, "name": name,
                                     "start": t0, "end": t1, "run": self.run_id,
                                     "work": work}) + "\n")


def read_spans(path):
    with open(path) as fh:
        return [(s["id"], s["parent"], s["name"], s["start"], s["end"],
                 s["work"]) for s in map(json.loads, fh)]


def layer_metrics(spans):
    """Per-layer metrics from one run's spans; zero for layers not called
    (every worked case of ``relcomp.cases`` included)."""
    parent_of = {s[0]: s[1] for s in spans}
    name_of = {s[0]: s[2] for s in spans}

    def under(sid, name):
        sid = parent_of[sid]
        while sid:
            if name_of[sid] == name:
                return True
            sid = parent_of[sid]
        return False

    child_s = defaultdict(float)
    for sid, parent, name, t0, t1, work in spans:
        child_s[parent] += t1 - t0
    out = {}
    names = [span_name(module, path) for module, path, _ in TARGETS
             if (module, path) != ("cases", "ExampleCase.run")]
    names += ["cases." + cid for cid in importlib.import_module("relcomp.cases").case_ids()]
    for name in names:
        out.update({name + ".calls": 0, name + ".total_s": 0.0, name + ".self_s": 0.0})
    for name in MADDS:
        out[name + ".madds"] = 0
    for name in MAX_DIM:
        out[name + ".max_dim"] = 0
    for metric in UNDER:
        out[metric] = 0.0
    for sid, parent, name, t0, t1, work in spans:
        dur = t1 - t0
        out[name + ".calls"] = out.get(name + ".calls", 0) + 1
        out[name + ".self_s"] = out.get(name + ".self_s", 0.0) + dur - child_s[sid]
        if not under(sid, name):
            out[name + ".total_s"] = out.get(name + ".total_s", 0.0) + dur
        if work is not None:
            out[name + ".madds"] += MADDS[name](*work)
            if name in MAX_DIM:
                out[name + ".max_dim"] = max(out[name + ".max_dim"], *work[:2])
        for metric, (inner, outer) in UNDER.items():
            if name == inner and under(sid, outer):
                out[metric] += dur
    out["engine.QuotientBasis.models"] = out["engine.QuotientBasis.calls"]
    return out
