"""The fixed relcomp workloads, their item counts and their output gates.

Every run's stdout is checked twice: against invariants that hold at any
seed, and, at the default seed, against the SHA-256 digest pinned from the
unmodified program.  Outputs are exact, so any change of output is a
failure, never noise.
"""

import csv
import hashlib
import io
import json
from dataclasses import dataclass

DEFAULT_SEED = 1


@dataclass(frozen=True)
class Workload:
    argv: tuple
    items: int  # units of work per run, for items_per_s
    writes_witnesses: bool = False


WORKLOADS = {
    # the headline reproduction: 11 pinned cases, the only p = 2 run
    "corpus": Workload(("reproduce", "--all"), items=11),
    # compressed Gorenstein (6, 8): the largest eliminations
    "gorenstein": Workload(
        ("resolve", "ann(perp-pick(1,8,ci(9)))", "-n", "6", "--format", "json"),
        items=1),
    # 220 small instances: per-call overhead on matrices of at most 114x91
    "search": Workload(
        ("search", "remark-4.10", "--max-degree", "5", "--limit", "400"),
        items=220, writes_witnesses=True),
}

# SHA-256 of the normalized stdout at DEFAULT_SEED, pinned from the program
# before any performance work.
PINNED_SHA256 = {
    "corpus": "e8aa20b3f38dca6ea835cea3db14caf4b8425722c86c1d2a810b5dc873eb8b75",
    "gorenstein": "5aa11d5a932b789e80e6104f7b8011f0e844ae5f7788dec4d342dfc1f5793561",
    "search": "637f7aa90f60b063a50683a542f3a6ecd3d968bfd7696efb000fd4370f09c70e",
}

CASE_IDS = ("froberg-rows", "ci333-level-s5", "ci444-level-s7", "ex26-betti",
            "ghost-4444-11", "ex43-chain", "char2-quartics", "gor-even-cross",
            "aci-244456", "quadric-points", "quadric-level-29")
GOR_HF = [1, 6, 21, 56, 126, 56, 21, 6, 1]
SEARCH_COLUMNS = ["family", "n", "p", "seed", "params", "verdict",
                  "witness_path"]
SEARCH_ROWS = 220


def command(name, seed, out_dir):
    """The relcomp argv of one run; witnesses go to ``out_dir``."""
    wl = WORKLOADS[name]
    argv = list(wl.argv) + ["--seed", str(seed)]
    if wl.writes_witnesses:
        argv += ["--out", str(out_dir)]
    return argv


def normalize(stdout, out_dir):
    """Stdout with the per-run witness directory replaced by a fixed name,
    so a witness_path column does not make the digest run-dependent."""
    return stdout.replace(str(out_dir), "<out>")


def digest(stdout, out_dir):
    return hashlib.sha256(normalize(stdout, out_dir).encode()).hexdigest()


def _corpus_problems(stdout, seed):
    want = ["PASS " + cid for cid in CASE_IDS]
    if stdout.splitlines() != want:
        return ["expected exactly the 11 PASS lines"]
    return []


def _gorenstein_problems(stdout, seed):
    from relcomp.betti import compressed_gor_even

    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return ["stdout is not JSON"]
    problems = []
    if out.get("hf") != GOR_HF:
        problems.append("hf %r != %r" % (out.get("hf"), GOR_HF))
    want = compressed_gor_even(6, 4).betti_table().to_json()["betti"]
    if out.get("betti") != want:
        problems.append("Betti table differs from compressed_gor_even(6, 4)")
    if out.get("seed") != seed:
        problems.append("seed %r != %r" % (out.get("seed"), seed))
    return problems


def _search_problems(stdout, seed):
    rows = list(csv.reader(io.StringIO(stdout)))
    if not rows or rows[0] != SEARCH_COLUMNS:
        return ["missing CSV header"]
    body = rows[1:]
    problems = []
    if len(body) != SEARCH_ROWS:
        problems.append("%d rows, expected %d" % (len(body), SEARCH_ROWS))
    if any(len(r) != len(SEARCH_COLUMNS) or r[3] != str(seed) or r[5] != "CONFIRMED"
           for r in body):
        problems.append("a row is not CONFIRMED at seed %d" % seed)
    return problems


_INVARIANTS = {
    "corpus": _corpus_problems,
    "gorenstein": _gorenstein_problems,
    "search": _search_problems,
}


def problems(name, seed, exit_code, stdout, out_dir):
    """Everything wrong with one run's output; empty when it is correct."""
    if exit_code != 0:
        return ["exit code %r" % exit_code]
    found = _INVARIANTS[name](stdout, seed)
    if seed == DEFAULT_SEED and digest(stdout, out_dir) != PINNED_SHA256[name]:
        found.append("stdout digest differs from the pinned seed-%d digest"
                     % DEFAULT_SEED)
    return found
