"""Seeded inputs, execution and output checks for the four workloads.

generate() builds a workload's queries from a seed with the benchmark's
own code (oracle.py); only Executor touches schubcalc.  A query is a
tuple of plain data so it can be printed, hashed and replayed.

Workloads, and why each is in the benchmark:

pairs-window   enumerate_pairs over every window p <= q, p + q <= 10 (all
               three flavors on square ones) plus 6x6 unitary and
               symplectic, and arthur_cover on 5x5, 4x6 and 4x5.
               Generate-and-reject in shimura, skew and partition; lr
               barely runs.
lr-expand      schur_expand on the 4x4 box, multi_lr_coefficient with 3-5
               factors and four 34-40 cell lr_coefficient calls valued in
               the thousands.  Ballot counting in lr; no
               pairs.
criteria-mix   the library's criteria on compatible pairs from 4x4-6x6
               windows, each call site equally often, sharing one memo.
               lr answers yes/no questions with heavy reuse, the opposite
               of lr-expand's counting.
cli-calls      cli.main(argv) in-process, every subcommand equally often,
               plus lr-expand's expansions as `cohom product`, about 10%
               malformed or domain errors; the stream writes a cache file
               of about 10,000 lines that real subprocesses then reload.
"""

import contextlib
import functools
import hashlib
import importlib
import io
import json
import random

import oracle
from tracer import LAYERS

NAMES = ("pairs-window", "lr-expand", "criteria-mix", "cli-calls")
SCALES = ("full", "smoke")
FLAVORS = ("unitary", "symplectic", "orthogonal")

# Refusal bounds, checked on the generated inputs before anything runs.
# A window costs one make_pair candidate per ordered pair of shapes in it,
# C(p+q, p)^2: 853,776 for 6x6, 2,944,656 for 6x7.
MAX_WINDOW_CANDIDATES = 1_000_000
# Ballot counting visits every filling, so the skew size is bounded too.
MAX_LR_CELLS = 40
MAX_MULTI_CELLS = 20

# Per-query timeout in seconds, before the traced-run stretch factor.
QUERY_TIMEOUT_S = {"pairs-window": 60.0, "lr-expand": 10.0, "criteria-mix": 10.0, "cli-calls": 10.0}

# ROADMAP anchors: compatible pairs in the 6x6 window.
PAIR_ANCHORS = {((6, 6), "unitary"): 17556, ((6, 6), "symplectic"): 256}

# 34-40 cell coefficients with their values, frozen from the seed code.
# The first is the ROADMAP's 40-cell case.
BIG_LR = (
    ((10, 9, 8, 7, 6, 5, 4, 3, 2, 1), (5, 4, 3, 2, 1), (7, 7, 6, 5, 5, 4, 3, 2, 1), 1608),
    ((10, 9, 8, 7, 6, 5, 4, 3, 2, 1), (6, 5, 4, 3, 2, 1), (7, 7, 6, 4, 4, 2, 2, 2), 5790),
    ((10, 9, 8, 7, 6, 5, 4, 3, 2, 1), (6, 5, 4, 3, 2, 1), (8, 5, 5, 5, 4, 3, 2, 2), 4961),
    ((10, 9, 8, 7, 6, 5, 4, 3, 2, 1), (6, 5, 4, 3, 2, 1), (7, 6, 6, 5, 5, 2, 1, 1, 1), 3888),
)


class InputTooLarge(ValueError):
    """A generated input exceeds a refusal bound; nothing was run."""


def _fmt(lam):
    return ",".join(str(p) for p in lam)


@functools.lru_cache(maxsize=None)
def _box_shapes(rows, cols):
    return oracle.partitions_in_box(rows, cols)


@functools.lru_cache(maxsize=None)
def _symmetric_shapes(p):
    return [s for s in _box_shapes(p, p) if s == oracle.conjugate(s)]


@functools.lru_cache(maxsize=None)
def _shapes_sized(rows, cols, lo, hi, symmetric=False):
    """Shapes in the box (self-conjugate ones only if asked) with lo < size <= hi."""
    shapes = _symmetric_shapes(rows) if symmetric else _box_shapes(rows, cols)
    return [s for s in shapes if lo < sum(s) <= hi]


@functools.lru_cache(maxsize=None)
def _pairs(p, q, symmetric):
    full = (q,) * p
    pairs = [(lam, mu) for lam, mu in oracle.chain_pairs(p, q) if lam or mu != full]
    if symmetric:
        pairs = [(lam, mu) for lam, mu in pairs if lam == oracle.conjugate(lam) and mu == oracle.conjugate(mu)]
    return pairs


def _sample_pair(rng, p, q, symmetric=False):
    """A uniformly random compatible pair lam < mu in the window, other
    than lam == mu and the full-window pair."""
    return rng.choice(_pairs(p, q, symmetric))


def _sample_blocks(rng, p, q, most):
    """One to `most` rectangles whose sides fit the window side by side."""
    blocks = []
    rows_left, cols_left = p, q
    for _ in range(rng.randint(1, most)):
        if rows_left < 1 or cols_left < 1:
            break
        a, b = rng.randint(1, rows_left), rng.randint(1, cols_left)
        blocks.append((a, b))
        rows_left, cols_left = rows_left - a, cols_left - b
    return tuple(blocks)


def _allocate(total, weights):
    """Split total into integer shares proportional to weights (largest
    remainder), so the mix of query sizes is the same for every seed."""
    scale = total / sum(weights)
    shares = [int(w * scale) for w in weights]
    order = sorted(range(len(weights)), key=lambda i: shares[i] - weights[i] * scale)
    for i in order[: total - sum(shares)]:
        shares[i] += 1
    return shares


# ------------------------------------------------------------- generation


def _gen_pairs_window(rng, scale):
    limit, big = (10, True) if scale == "full" else (6, False)
    windows = [(p, q) for p in range(1, limit) for q in range(p, limit) if p + q <= limit]
    queries = []
    if big:
        # the two flavors with ROADMAP anchors; orthogonal costs the same
        # as symplectic and would add no other code path
        queries += [("enumerate_pairs", (6, 6), flavor, None) for flavor in FLAVORS[:2]]
    for p, q in windows:
        for flavor in FLAVORS if p == q else FLAVORS[:1]:
            bidegree = None
            if flavor == "unitary" and (p + q) % 2:
                # a filter makes every accepted pair cost a bidegree, so the
                # filtered windows are fixed and only the filter is seeded
                i = rng.randint(0, p * q)
                bidegree = (i, rng.randint(0, p * q - i))
            queries.append(("enumerate_pairs", (p, q), flavor, bidegree))
    if big:
        queries.append(("arthur_cover", (5, 5), rng.randint(8, 12)))
        queries.append(("arthur_cover", (4, 6), rng.randint(5, 8)))
        queries.append(("arthur_cover", (4, 5), rng.randint(4, 7)))
    else:
        queries.append(("arthur_cover", (3, 3), rng.randint(3, 6)))
    rng.shuffle(queries)
    return queries


def _expansion_pairs(rng, side, n):
    """n pairs (lam, nu) of nonempty shapes in the side x side box, drawn
    in strata of equal (|lam|, |nu|), the larger shape first, so every
    seed gets the same mix of sizes and only the shapes differ: the cost
    of an expansion depends mostly on the two sizes."""
    shapes = sorted((s for s in _box_shapes(side, side) if s), key=lambda s: (-sum(s), s))
    bins = {}
    for i, a in enumerate(shapes):
        for b in shapes[i:]:
            bins.setdefault((sum(a), sum(b)), []).append((a, b))
    sizes = sorted(bins)
    pairs = []
    for size, share in zip(sizes, _allocate(n, [len(bins[s]) for s in sizes])):
        pairs += rng.sample(bins[size], share)
    return pairs


def _gen_lr_expand(rng, scale):
    # multi_lr_coefficient gets 40 calls, a third each with 3, 4 and 5
    # factors.  They cost less than most expansions, so with as many calls
    # as expansions the median fell between the two kinds and moved by a
    # quarter from seed to seed; and with 194 queries in all the tail is
    # p90, while from 200 on it is p95, where only the heaviest few
    # queries lie.  The 34-40 cell coefficients are the few whose values
    # are frozen in BIG_LR.
    side, n_expand, n_multi, big = (4, 150, 40, BIG_LR) if scale == "full" else (3, 20, 6, BIG_LR[:1])
    queries = [("schur_expand", a, b) for a, b in _expansion_pairs(rng, side, n_expand)]
    small = [s for s in _box_shapes(2, 2) if s]
    for nfactors, share in zip((3, 4, 5), _allocate(n_multi, [1, 1, 1])):
        for _ in range(share):
            factors = tuple(rng.choice(small) for _ in range(nfactors))
            total = sum(sum(f) for f in factors)
            targets = oracle.partitions_of(
                total, sum(len(f) for f in factors), sum(f[0] for f in factors)
            )
            queries.append(("multi_lr_coefficient", rng.choice(targets), factors))
    for outer, inner, nu, _ in big:
        queries.append(("lr_coefficient", outer, inner, nu))
    rng.shuffle(queries)
    return queries


# criteria-mix call sites: every criterion the library offers on a pair,
# each flavor of chern_action_nonzero and each inscription mode counted as
# its own site.  With no usage data to weight them, each site gets the
# same number of calls: 300, so that 33 queries lie beyond the p99 tail;
# with 150 there were 16, and the tail's spread over ten seeds was 0.25.
CRITERIA = (
    "inject_u", "chern_unitary", "chern_symplectic", "chern_orthogonal", "insc_sym", "insc_anti",
    "inject_gsp", "restrict", "dual", "cup", "kunneth",
)
CRITERIA_PER_SITE = 300


def _gen_criteria_mix(rng, scale):
    unitary_windows = [(4, 4), (4, 5), (5, 5), (4, 6), (5, 6), (6, 6)]
    square = [4, 5, 6]
    if scale == "smoke":
        unitary_windows, square = [(3, 3), (3, 4)], [3]
    per_site = CRITERIA_PER_SITE if scale == "full" else 2
    queries = []
    for kind in CRITERIA:
        for k in range(per_site):
            p, q = unitary_windows[k % len(unitary_windows)]
            s = square[k % len(square)]
            if kind == "inject_u":
                lam, mu = _sample_pair(rng, p, q)
                queries.append((kind, (p, q), lam, mu, _sample_blocks(rng, p, q, 2)))
            elif kind == "chern_unitary":
                lam, mu = _sample_pair(rng, p, q)
                room = sum(mu) - sum(lam)
                nu = rng.choice(_shapes_sized(p, q, room // 2, room))
                queries.append((kind, (p, q), lam, mu, nu))
            elif kind in ("chern_symplectic", "chern_orthogonal", "insc_sym", "insc_anti"):
                lam, mu = _sample_pair(rng, s, s, symmetric=True)
                room = sum(mu) - sum(lam)
                nus = _shapes_sized(s, s, 0, room, symmetric=True) or [(1,)]
                queries.append((kind, (s, s), lam, mu, rng.choice(nus)))
            elif kind == "inject_gsp":
                lam, mu = _sample_pair(rng, s, s, symmetric=True)
                queries.append((kind, (s, s), lam, mu))
            elif kind == "restrict":
                lam = rng.choice(_box_shapes(p, q))
                queries.append((kind, (p, q), lam, _sample_blocks(rng, p, q, 3)))
            elif kind == "dual":
                queries.append((kind, (p, q), _sample_blocks(rng, p, q, 2)))
            elif kind == "cup":
                shapes = _shapes_sized(p, q, -1, 8)
                queries.append((kind, (p, q), rng.choice(shapes), rng.choice(shapes)))
            else:  # kunneth
                lam, mu = _sample_pair(rng, p, q)
                blocks = []
                for a, b in _sample_blocks(rng, p, q, 2):
                    inside = _box_shapes(a, b)
                    lo, hi = sorted((rng.choice(inside), rng.choice(inside)), key=sum)
                    while not oracle.contained(lo, hi):
                        lo, hi = sorted((rng.choice(inside), rng.choice(inside)), key=sum)
                    blocks.append(((a, b), lo, hi))
                queries.append((kind, (p, q), lam, mu, tuple(blocks)))
    rng.shuffle(queries)
    return queries


def _cli_pair_args(rng, p, q, flavor="unitary"):
    lam, mu = _sample_pair(rng, p, q, symmetric=flavor != "unitary")
    args = ["--p", str(p), "--q", str(q), "--lambda", _fmt(lam), "--mu", _fmt(mu)]
    return args, lam, mu


# Every leaf subcommand of the CLI, as (command, op).  With no usage data
# to weight them, the stream calls each equally often, and every option
# (window, flavor, mode, --pretty) is drawn uniformly from its choices.
CLI_SUBCOMMANDS = (
    [("partition", op) for op in ("conj", "comp", "plus", "bar", "minus", "check")]
    + [("skew", "decompose")]
    + [("lr", op) for op in ("coeff", "multi", "inscribes")]
    + [("cohom", op) for op in ("product", "pair", "restrict", "dual-class")]
    + [("shimura", op) for op in ("pairs", "bidegree", "chern-action", "inject", "kunneth-vanish",
                                  "vanish", "structure", "arthur", "partha", "ostar-holo")]
)


def _cli_valid(rng, family, op):
    """One well-formed invocation of the subcommand, expected to exit 0."""
    p, q = rng.choice([(3, 3), (3, 4), (4, 4)])
    shapes = _box_shapes(p, q)
    sym = _symmetric_shapes(p)
    if family == "partition":
        if op == "conj":
            return ["partition", "conj", "--partition", _fmt(rng.choice(shapes))]
        if op == "comp":
            return ["partition", "comp", "--partition", _fmt(rng.choice(shapes)), "--box", "%dx%d" % (p, q)]
        return ["partition", op, "--partition", _fmt(rng.choice(sym))]
    if family == "skew":
        lam, mu = _sample_pair(rng, p, q)
        return ["skew", "decompose", "--skew", "%s/%s" % (_fmt(mu), _fmt(lam))]
    if family == "lr":
        if op == "coeff":
            outer = rng.choice([x for x in shapes if x])
            inner = rng.choice([x for x in shapes if oracle.contained(x, outer)])
            room = sum(outer) - sum(inner)
            nu = rng.choice(oracle.partitions_of(room, p, q) or [()])
            return ["lr", "coeff", "--outer", _fmt(outer), "--inner", _fmt(inner), "--nu", _fmt(nu)]
        if op == "multi":
            factors = [rng.choice([x for x in _box_shapes(2, 2) if x]) for _ in range(rng.randint(2, 3))]
            total = sum(sum(f) for f in factors)
            target = rng.choice(oracle.partitions_of(total, 2 * len(factors), 2 * len(factors)))
            return ["lr", "multi", "--target", _fmt(target), "--factors", "*".join(_fmt(f) for f in factors)]
        mode = rng.choice([None, "--symmetric", "--antisymmetric"])
        if mode is None:
            lam, mu = _sample_pair(rng, p, q)
            nu = rng.choice([x for x in shapes if 0 < sum(x) <= sum(mu) - sum(lam)])
            return ["lr", "inscribes", "--nu", _fmt(nu), "--skew", "%s/%s" % (_fmt(mu), _fmt(lam))]
        lam, mu = _sample_pair(rng, p, p, symmetric=True)
        nu = rng.choice([x for x in sym if x])
        return ["lr", "inscribes", "--nu", _fmt(nu), "--skew", "%s/%s" % (_fmt(mu), _fmt(lam)), mode]
    if family == "cohom":
        box = "%dx%d" % (p, q)
        if op in ("product", "pair"):
            small = [x for x in shapes if sum(x) <= 5]
            return ["cohom", op, "--ambient", box, "--lhs", _fmt(rng.choice(small)), "--rhs", _fmt(rng.choice(small))]
        levi = "*".join("%dx%d" % b for b in _sample_blocks(rng, p, q, 2))
        if op == "restrict":
            return ["cohom", "restrict", "--ambient", box, "--class", _fmt(rng.choice(shapes)), "--levi", levi]
        kind = rng.choice(["unitary", "gsp", "ostar"])
        if kind == "unitary":
            return ["cohom", "dual-class", "--ambient", box, "--levi", levi]
        return ["cohom", "dual-class", "--ambient", "%dx%d" % (p, p), "--type", kind]
    # shimura
    if op == "pairs":
        a, b = rng.choice([(2, 2), (2, 3), (3, 3)])
        flavor = rng.choice(FLAVORS) if a == b else "unitary"
        argv = ["shimura", "pairs", "--p", str(a), "--q", str(b), "--type", flavor]
        if flavor == "unitary" and rng.random() < 0.5:
            argv += ["--bidegree", "%d,%d" % (rng.randint(0, 3), rng.randint(0, 3))]
        return argv
    if op == "arthur":
        a, b = rng.choice([(2, 2), (2, 3), (3, 3)])
        bound = 3 * a - 2 if a == b else a + b - 1
        return ["shimura", "arthur", "--p", str(a), "--q", str(b), "--max-degree", str(rng.randint(0, bound - 1))]
    if op == "partha":
        return ["shimura", "partha", "--p", str(p), "--q", str(q), "--degree", str(rng.randint(0, p * q))]
    if op == "ostar-holo":
        return ["shimura", "ostar-holo", "--p", str(rng.randint(2, 5))]
    if op in ("bidegree", "chern-action"):
        flavor = rng.choice(FLAVORS)
    elif op == "inject":
        flavor = rng.choice(["unitary", "gsp"])
    else:
        flavor = "unitary"
    if flavor == "unitary":
        args, lam, mu = _cli_pair_args(rng, p, q)
    else:
        args, lam, mu = _cli_pair_args(rng, p, p, flavor)
    argv = ["shimura", op, "--type", flavor] + args
    if op == "chern-action":
        room = sum(mu) - sum(lam)
        nus = [x for x in (shapes if flavor == "unitary" else sym) if 0 < sum(x) <= room] or [(1,)]
        argv += ["--nu", _fmt(rng.choice(nus))]
    elif op == "inject" and flavor == "unitary":
        argv += ["--factors", "*".join("%dx%d" % b for b in _sample_blocks(rng, p, q, 2))]
    elif op == "kunneth-vanish":
        parts = []
        for a, b in _sample_blocks(rng, p, q, 2):
            lo, hi = sorted((rng.choice(_box_shapes(a, b)), rng.choice(_box_shapes(a, b))), key=sum)
            if not oracle.contained(lo, hi):
                lo = ()
            parts.append("%dx%d:%s:%s" % (a, b, _fmt(lo), _fmt(hi)))
        argv += ["--factor-pairs", ";".join(parts)]
    elif op == "vanish":
        argv += ["--side", rng.choice("PQ"), "--bound", str(rng.randint(1, 2))]
    return argv


def _cli_error(rng):
    """One invocation expected to fail: (argv, exit code)."""
    kind = rng.randrange(8)
    if kind == 0:
        return ["partition", "conj", "--partition", "2,3"], 2  # not decreasing
    if kind == 1:
        return ["partition", "comp", "--partition", "2,1", "--box", "0x%d" % rng.randint(1, 4)], 2
    if kind == 2:
        return ["shimura", "partha", "--p", "x", "--degree", "1"], 2  # argparse type error
    if kind == 3:
        return ["partition", "comp", "--partition", "%d" % rng.randint(5, 7), "--box", "3x4"], 1
    if kind == 4:
        return ["partition", "plus", "--partition", "%d,1" % rng.randint(3, 5)], 1  # not symmetric
    if kind == 5:
        return ["skew", "decompose", "--skew", "2,2/1"], 1  # not a chain
    if kind == 6:
        return ["shimura", "pairs", "--p", "2", "--q", "3", "--type", "symplectic"], 1
    a = rng.randint(2, 3)
    return ["shimura", "arthur", "--p", str(a), "--q", str(a), "--max-degree", str(3 * a - 2)], 1


def _gen_cli_calls(rng, scale):
    # Each subcommand per_sub times; then the expansions an lr-expand run
    # computes, as `cohom product` in the 4x4 ambient, so the stream writes
    # a cache file of that run's size (about 10,000 lines); then one
    # malformed or domain-error call for every nine others, about 10%.
    per_sub, side, n_products = (9, 4, 150) if scale == "full" else (1, 3, 10)
    valid = [_cli_valid(rng, family, op) for family, op in CLI_SUBCOMMANDS for _ in range(per_sub)]
    box = "%dx%d" % (side, side)
    valid += [["cohom", "product", "--ambient", box, "--lhs", _fmt(a), "--rhs", _fmt(b)]
              for a, b in _expansion_pairs(rng, side, n_products)]
    queries = []
    for argv in valid:
        if rng.random() < 0.5:
            argv = argv + ["--pretty"]
        queries.append(("cli", tuple(argv), 0))
    for _ in range(len(valid) // 9):
        argv, code = _cli_error(rng)
        queries.append(("cli", tuple(argv), code))
    rng.shuffle(queries)
    return queries


_GENERATORS = {
    "pairs-window": _gen_pairs_window,
    "lr-expand": _gen_lr_expand,
    "criteria-mix": _gen_criteria_mix,
    "cli-calls": _gen_cli_calls,
}


def generate(name, seed, scale="full"):
    """The workload's queries for this seed; the same seed gives the same list."""
    queries = _GENERATORS[name](random.Random("%s/%d" % (name, seed)), scale)
    check_bounds(queries)
    return queries


def check_bounds(queries):
    """Raise InputTooLarge when a query's candidate count or size exceeds
    the stated bounds.  Called before any query runs."""
    for q in queries:
        kind = q[0]
        if kind in ("enumerate_pairs", "arthur_cover"):
            count = oracle.window_candidates(*q[1])
            if count > MAX_WINDOW_CANDIDATES:
                raise InputTooLarge(
                    "window %dx%d has %d candidates, above %d" % (q[1] + (count, MAX_WINDOW_CANDIDATES))
                )
        elif kind == "lr_coefficient" and sum(q[1]) - sum(q[2]) > MAX_LR_CELLS:
            raise InputTooLarge("skew of %d cells, above %d" % (sum(q[1]) - sum(q[2]), MAX_LR_CELLS))
        elif kind == "multi_lr_coefficient" and sum(q[1]) > MAX_MULTI_CELLS:
            raise InputTooLarge("target of %d cells, above %d" % (sum(q[1]), MAX_MULTI_CELLS))


def spawn_argv(name, seed, queries):
    """The query of the run's real CLI subprocesses: for cli-calls a
    `cohom product` of the stream, whose coefficients the program finds in
    the cache file the stream wrote, after loading all of it; for the
    others a small query of the workload's own family."""
    rng = random.Random("%s/spawn/%d" % (name, seed))
    if name == "cli-calls":
        return list(rng.choice([q[1] for q in queries if q[1][:2] == ("cohom", "product") and q[2] == 0]))
    if name == "pairs-window":
        return ["shimura", "pairs", "--p", "3", "--q", "3", "--type", rng.choice(FLAVORS)]
    if name == "lr-expand":
        return _cli_valid(rng, "lr", "coeff")
    args, _, _ = _cli_pair_args(rng, 3, 3)
    return ["shimura", "inject"] + args + ["--factors", "1x1"]


# ------------------------------------------------------------- execution


class Executor:
    """Runs queries against schubcalc.  Modules are looked up on every
    call, so a tracer that rebinds their functions sees the calls."""

    def __init__(self):
        self.m = {name: importlib.import_module("schubcalc." + name) for name in LAYERS}

    def run(self, q):
        m = self.m
        kind = q[0]
        if kind == "enumerate_pairs":
            return m["shimura"].enumerate_pairs(q[1], q[2], q[3])
        if kind == "arthur_cover":
            return m["shimura"].arthur_cover(q[1], q[2])
        if kind == "schur_expand":
            return m["lr"].schur_expand(q[1], q[2])
        if kind == "multi_lr_coefficient":
            return m["lr"].multi_lr_coefficient(q[1], q[2])
        if kind == "lr_coefficient":
            return m["lr"].lr_coefficient(q[1], q[2], q[3])
        if kind == "cli":
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = m["cli"].main(list(q[1]))
                except SystemExit as exc:  # argparse rejects malformed input this way
                    code = exc.code
            return code, out.getvalue()
        return self._criteria(q)

    def _criteria(self, q):
        sh, coh, lr = self.m["shimura"], self.m["cohomology"], self.m["lr"]
        kind, ambient = q[0], q[1]
        if kind == "inject_u":
            pair = sh.make_pair(q[2], q[3], ambient, "unitary")
            return sh.injectivity_unitary(pair, coh.LeviShape(q[4], None))
        if kind.startswith("chern_"):
            pair = sh.make_pair(q[2], q[3], ambient, kind[len("chern_"):])
            return sh.chern_action_nonzero(q[4], pair)
        if kind in ("insc_sym", "insc_anti"):
            s = self.m["skew"].skew(q[3], q[2])
            fn = lr.inscribes_symmetric if kind == "insc_sym" else lr.inscribes_antisymmetric
            return fn(q[4], s)
        if kind == "inject_gsp":
            return sh.injectivity_gsp(sh.make_pair(q[2], q[3], ambient, "symplectic"))
        if kind == "restrict":
            return coh.restrict_levi(coh.schubert_class(ambient, q[2]), coh.LeviShape(q[3], None))
        if kind == "dual":
            return coh.dual_class_unitary(ambient, coh.LeviShape(q[2], None))
        if kind == "cup":
            return coh.cup(coh.schubert_class(ambient, q[2]), coh.schubert_class(ambient, q[3]))
        if kind == "kunneth":
            pair = sh.make_pair(q[2], q[3], ambient, "unitary")
            return sh.kunneth_vanishing(pair, q[4])
        raise ValueError("unknown query kind %r" % (kind,))


def _plain(x):
    """JSON-ready form of a result: tuples become lists, dict keys strings."""
    if isinstance(x, (tuple, list)):
        return [_plain(v) for v in x]
    if isinstance(x, dict):
        return [[_plain(k), _plain(v)] for k, v in x.items()]
    if x is None or isinstance(x, (bool, int, str)):
        return x
    if hasattr(x, "terms"):  # cohomology classes
        return _plain(x.terms)
    if hasattr(x, "chain"):  # CompatiblePair
        return [_plain(x.lam), _plain(x.mu), _plain(x.chain)]
    raise TypeError("no canonical form for %r" % (x,))


def canonical(q, raw):
    """The query's output as canonical JSON text; its digest is the
    output's identity across runs and commits."""
    return json.dumps(_plain(raw), separators=(",", ":"))


def digest(items):
    """SHA-256 over (query, output) items in order."""
    h = hashlib.sha256()
    for q, out in items:
        h.update(json.dumps(_plain(q), separators=(",", ":")).encode())
        h.update(b"\0")
        h.update(out.encode() if isinstance(out, str) else out)
        h.update(b"\n")
    return h.hexdigest()


# ------------------------------------------------------------- checks


def _pairs_ok(pairs, p, q, flavor, bidegree):
    for lam, mu, chain in pairs:
        lam, mu = tuple(lam), tuple(mu)
        if not (oracle.is_partition(lam) and oracle.is_partition(mu)):
            return "malformed partition in %r/%r" % (mu, lam)
        if not (oracle.contained(lam, mu) and oracle.fits(mu, p, q)):
            return "pair %r/%r not nested in %dx%d" % (mu, lam, p, q)
        if oracle.chain_blocks(mu, lam) != [tuple(b) for b in chain]:
            return "chain of %r/%r is not %r" % (mu, lam, chain)
        if flavor != "unitary" and (lam != oracle.conjugate(lam) or mu != oracle.conjugate(mu)):
            return "asymmetric %s pair %r/%r" % (flavor, mu, lam)
        if bidegree is not None and (sum(lam), p * q - sum(mu)) != tuple(bidegree):
            return "pair %r/%r outside bidegree %r" % (mu, lam, bidegree)
    return None


def check(q, out):
    """None when the output passes the benchmark's own checks, else why not."""
    kind = q[0]
    val = json.loads(out)
    if kind == "enumerate_pairs":
        (p, qq), flavor, bidegree = q[1], q[2], q[3]
        anchor = PAIR_ANCHORS.get(((p, qq), flavor))
        if anchor is not None and bidegree is None and len(val) != anchor:
            return "%dx%d %s: %d pairs, expected %d" % (p, qq, flavor, len(val), anchor)
        return _pairs_ok(val, p, qq, flavor, bidegree)
    if kind == "arthur_cover":
        (p, qq), top = q[1], q[2]
        for (lam, mu, _), label, _ in val:
            if sum(lam) + p * qq - sum(mu) > top:
                return "arthur entry above degree %d" % top
            if label not in ("FullP", "FullQ", "SquareStaircase", "Other"):
                return "unknown structure %r" % label
        return _pairs_ok([e[0] for e in val], p, qq, "unitary", None)
    if kind == "schur_expand":
        lam, nu = q[1], q[2]
        terms = {tuple(mu): c for mu, c in val}
        if any(c <= 0 or sum(mu) != sum(lam) + sum(nu) for mu, c in terms.items()):
            return "bad term in expansion of %r*%r" % (lam, nu)
        n = len(lam) + len(nu)
        for rank in (n, n + 3):
            if not oracle.expansion_identity_holds(lam, nu, terms, rank):
                return "dimension identity fails for %r*%r at n=%d" % (lam, nu, rank)
        return None
    if kind == "lr_coefficient":
        expected = {(o, i, n): v for o, i, n, v in BIG_LR}[q[1:]]
        return None if val == expected else "coefficient %r, expected %d" % (val, expected)
    if kind == "multi_lr_coefficient":
        return None if isinstance(val, int) and val >= 0 else "bad coefficient %r" % (val,)
    if kind == "cli":
        return _check_cli(q, *val)
    return _check_criteria(q, val)


def _check_criteria(q, val):
    kind, (p, qq) = q[0], q[1]
    if kind == "inject_u":
        ok, nu = val
        degree = sum(a * b for a, b in q[4])
        if ok and not (oracle.fits(tuple(nu), p, qq) and sum(nu) == degree):
            return "injectivity witness %r has the wrong degree" % (nu,)
        return None
    if kind == "chern_unitary":
        if val is not None:
            m = tuple(val[0][1])
            lam, mu, nu = q[2], q[3], q[4]
            if not (oracle.contained(lam, m) and oracle.contained(m, mu) and sum(m) == sum(lam) + sum(nu)):
                return "witness %r outside %r/%r" % (m, mu, lam)
        return None
    if kind in ("restrict", "dual", "cup"):
        for key, c in val:
            if c <= 0:
                return "nonpositive coefficient %r" % c
            if kind == "restrict":
                if len(key) != len(q[3]) or sum(sum(a) for a in key) != sum(q[2]):
                    return "restriction term %r of the wrong degree" % (key,)
                if not all(oracle.fits(tuple(a), *b) for a, b in zip(key, q[3])):
                    return "restriction term %r outside its blocks" % (key,)
                continue
            if not oracle.fits(tuple(key), p, qq):
                return "term %r outside %dx%d" % (key, p, qq)
            want = p * qq - sum(a * b for a, b in q[2]) if kind == "dual" else sum(q[2]) + sum(q[3])
            if sum(key) != want:
                return "term %r not of degree %d" % (key, want)
        return None
    return None


def _check_cli(q, code, out):
    """Exit code and stdout contract for one CLI query."""
    argv, expected = q[1], q[2]
    if code != expected:
        return "exit %r, expected %d for %s" % (code, expected, " ".join(argv))
    if code == 2:
        return None if out == "" else "stdout not empty on exit 2"
    if out.count("\n") != 1 or not out.endswith("\n"):
        return "stdout is not one line"
    doc = json.loads(out)
    if code == 1:
        return None if set(doc) == {"error"} else "exit 1 without an error code"
    if argv[:2] == ("partition", "conj"):
        lam = tuple(int(x) for x in argv[3].split(",") if x)
        if doc["partition"] != _fmt(oracle.conjugate(lam)):
            return "wrong conjugate of %s" % argv[3]
    elif argv[:2] == ("skew", "decompose"):
        outer, inner = ([int(x) for x in side.split(",") if x] for side in argv[3].split("/"))
        blocks = oracle.chain_blocks(tuple(outer), tuple(inner))
        if doc["chain"] != ["%dx%d" % b for b in blocks]:
            return "wrong chain for %s" % argv[3]
    return None
