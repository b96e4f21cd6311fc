"""Seeded query session with answers known by construction.

`generate(seed, rounds)` returns the queries of a session.  Every round holds
the same mix of query kinds (`ROUND`) with freshly drawn parameters, so the
share of cheap and heavy queries, and with it the latency percentiles, does
not depend on the seed.  Each query carries the answer it must produce:

* direct sums: rank, signature and parity add up, the determinant multiplies;
* `enum` / `roots`: counts on a sum are the convolution of the blocks' counts,
  taken from independent coordinate models (A_n, D_n, rank one);
* isometries: a Coxeter element of A_{p-1} has order p, no fixed vectors, acts
  trivially on the discriminant group and has spinor norm +1; -id on a block
  of signature (s, t) has spinor norm (-1)^s;
* `k3` answers are the catalog's `has_assoc_k3`, and `labeling` answers were
  recorded with `record_reference.py` when the benchmark was defined; both
  are stored in `reference.json`.

This module imports nothing from latticeforge; `check` receives the Gram
matrix of the rank-26 lattice for `extend-lambda` from the caller.
"""

import json
import random
from collections import Counter
from math import gcd, prod

# name -> (rank, (n_plus, n_minus), det, even)
BASES = {"U": (2, (1, 1), -1, True)}
BASES.update({"A%d" % n: (n, (n, 0), n + 1, True) for n in range(1, 9)})
BASES.update({"D%d" % n: (n, (n, 0), 4, True) for n in range(4, 9)})
BASES.update({"E6": (6, (6, 0), 3, True), "E7": (7, (7, 0), 2, True),
              "E8": (8, (8, 0), 1, True)})
BASES.update({"[%d]" % k: (1, (1, 0) if k > 0 else (0, 1), k, k % 2 == 0)
              for k in (-6, -5, -4, -3, -2, -1, 1, 2, 3, 4, 5, 6)})

# terms whose discriminant group is 2-elementary (or trivial): -1 acts as +1 there
TWO_ELEMENTARY = {"U", "U(2)", "A1", "D4", "D4(-1)", "[2]", "[-2]"}

# Small answers make up the bulk of a round, so per-query overhead shows; the
# heavy catalog queries (k3, labeling, extend-lambda) stay below 4% of all
# queries, which keeps the 90th percentile inside the bulk.
ROUND = (["info"] * 11 + ["enum"] * 9 + ["roots", "glue", "glue-trivial"] * 2
         + ["k3", "labeling"]
         + ["isom-order", "isom-invariant", "isom-coinvariant", "isom-disc-action",
            "isom-spin", "isom-extra"] * 2)

K3_LATTICES = ("TY_phi31", "TY_phi35", "TY_phi37", "TY_phi32")
LABELINGS = (("AY_phi31", 10), ("AY_phi31", 30), ("AY_phi35", 10), ("AY_phi35", 20),
             ("AY_phi35", 30), ("AY_phi37", 10), ("AY_phi37", 20), ("AY_phi37", 30),
             ("AY_phi32", 8), ("AY_phi32", 10), ("AY_phi32", 13))

ISOM_DIR = ".perfbench_tmp/isom"


# ---------------------------------------------------------------------------
# blocks and direct sums


def term(base, twist=1, power=1):
    text = base + ("(%d)" % twist if twist != 1 else "")
    return text + ("^%d" % power if power > 1 else "")


def block_data(base, twist=1):
    """(rank, signature, det, even) of base(twist)."""
    rank, sig, det, even = BASES[base]
    if twist < 0:
        sig = (sig[1], sig[0])
    return rank, sig, det * twist ** rank, even or twist % 2 == 0


def sum_data(blocks):
    """(rank, signature, det, even) of a direct sum of (base, twist) blocks."""
    data = [block_data(b, t) for b, t in blocks]
    return (sum(d[0] for d in data),
            (sum(d[1][0] for d in data), sum(d[1][1] for d in data)),
            prod(d[2] for d in data),
            all(d[3] for d in data))


def _draw_sum(rng, bases, twists, nterms, max_rank):
    """Random sum of nterms terms as ([(base, twist, power)], expression)
    within max_rank."""
    while True:
        terms = [(rng.choice(bases), rng.choice(twists), rng.choice((1, 1, 1, 2)))
                 for _ in range(nterms)]
        terms = [(b, t if not b.startswith("[") else 1, p) for b, t, p in terms]
        if sum(BASES[b][0] * p for b, _, p in terms) <= max_rank:
            return terms, " + ".join(term(*t) for t in terms)


def _flat(terms):
    return [(b, t) for b, t, p in terms for _ in range(p)]


# ---------------------------------------------------------------------------
# coordinate models of positive definite blocks: (norm, dot with a root, div)


def _integer_points(dim, max_norm):
    """All x in Z^dim with sum x_i^2 <= max_norm."""
    out = []
    x = [0] * dim

    def rec(i, left):
        if i == dim:
            out.append(tuple(x))
            return
        r = 0
        while (r + 1) * (r + 1) <= left:
            r += 1
        for v in range(-r, r + 1):
            x[i] = v
            rec(i + 1, left - v * v)
        x[i] = 0

    rec(0, max_norm)
    return out


def _gcd_all(values):
    g = 0
    for v in values:
        g = gcd(g, v)
    return g


def _model_counts(base, max_norm):
    """Counter of (norm, (v, r), divisibility) over the vectors v of norm <=
    max_norm, zero included, where r is a fixed root (the basis vector for a
    rank-one block).  All roots of A_n and D_n are conjugate under the Weyl
    group, so any root stands for the first basis vector."""
    out = Counter()
    if base.startswith("["):
        k = int(base[1:-1])
        x = 0
        while k * x * x <= max_norm:
            for s in {x, -x}:
                out[(k * s * s, k * s, abs(k * s))] += 1
            x += 1
        return out
    kind, n = base[0], int(base[1:])
    if kind == "A":  # {x in Z^(n+1) : sum x = 0}, basis e_i - e_(i+1)
        for x in _integer_points(n + 1, max_norm):
            if sum(x) == 0:
                div = _gcd_all(x[i] - x[i + 1] for i in range(n))
                out[(sum(c * c for c in x), x[0] - x[1], div)] += 1
    elif kind == "D":  # {x in Z^n : sum x even}, basis e_i - e_(i+1), e_(n-2) + e_(n-1)
        for x in _integer_points(n, max_norm):
            if sum(x) % 2 == 0:
                div = _gcd_all([x[i] - x[i + 1] for i in range(n - 1)] + [x[n - 2] + x[n - 1]])
                out[(sum(c * c for c in x), x[0] - x[1], div)] += 1
    else:
        raise KeyError(base)
    return out


_MODEL_CACHE = {}


def _block_counts(base, twist, max_norm):
    """Model counts of base(twist) for twist > 0, norms up to max_norm."""
    key = (base, max_norm // twist)
    if key not in _MODEL_CACHE:
        _MODEL_CACHE[key] = _model_counts(base, max_norm // twist)
    return Counter({(n * twist, d * twist, v * twist): c
                    for (n, d, v), c in _MODEL_CACHE[key].items()})


def count_in_sum(blocks, norm, dot=None, div=None):
    """Vectors of the given norm in a positive definite sum of (base, twist)
    blocks, optionally with a fixed product against the first basis vector
    and a fixed divisibility: the convolution of the blocks' counts."""
    acc = Counter()
    for (n, d, v), c in _block_counts(*blocks[0], norm).items():
        if dot is None or d == dot:
            acc[(n, v)] += c
    for base, twist in blocks[1:]:
        counts = Counter()
        for (n, _d, v), c in _block_counts(base, twist, norm).items():
            counts[(n, v)] += c
        nxt = Counter()
        for (n1, v1), c1 in acc.items():
            for (n2, v2), c2 in counts.items():
                if n1 + n2 <= norm:
                    nxt[(n1 + n2, gcd(v1, v2))] += c1 * c2
        acc = nxt
    return sum(c for (n, v), c in acc.items() if n == norm and (div is None or v == div))


# ---------------------------------------------------------------------------
# isometries


def _identity(n, sign=1):
    return [[sign if i == j else 0 for j in range(n)] for i in range(n)]


def _matmul(a, b):
    return [[sum(a[i][k] * b[k][j] for k in range(len(b))) for j in range(len(b[0]))]
            for i in range(len(a))]


def coxeter_element(n):
    """Product of the simple reflections of A_n in the path basis; order n+1."""
    gram = [[2 if i == j else -1 if abs(i - j) == 1 else 0 for j in range(n)] for i in range(n)]
    c = _identity(n)
    for i in range(n):
        # s_i(x) = x - (G x)_i e_i
        s = [[(r == col) - (gram[i][col] if r == i else 0) for col in range(n)] for r in range(n)]
        c = _matmul(c, s)
    return c


def block_diag(mats):
    size = sum(len(m) for m in mats)
    out = [[0] * size for _ in range(size)]
    off = 0
    for m in mats:
        for i, row in enumerate(m):
            out[off + i][off:off + len(row)] = row
        off += len(m)
    return out


# ---------------------------------------------------------------------------
# generation

_INFO_BASES = ("U", "A1", "A2", "A3", "A4", "A6", "A8", "D4", "D5", "D6", "E6", "E7", "E8",
               "[1]", "[-1]", "[2]", "[-2]", "[3]", "[-5]", "[6]")
_INFO_TWISTS = (1, 1, 1, -1, -1, 3, -3, 2)
_DEF_BASES = ("A1", "A2", "A3", "A4", "D4", "D5", "[1]", "[2]", "[3]")
_GLUE_BASES = ("A1", "A2", "A3", "A4", "D4", "[2]", "[4]", "[6]")
_ISOM_EXTRA = ("U", "U(2)", "U(3)", "A1", "A2(-1)", "D4", "D4(-1)", "[2]", "[-2]", "[3]")
_EXTRA_DATA = {"U(2)": ("U", 2), "U(3)": ("U", 3), "A2(-1)": ("A2", -1), "D4(-1)": ("D4", -1)}
_NEG_BASES = ("A1", "A2", "A3", "A4", "D4", "D5", "U", "[2]", "[-3]")


def _info(rng):
    while True:
        terms, expr = _draw_sum(rng, _INFO_BASES, _INFO_TWISTS,
                                rng.deal("info-terms", (1, 2, 3)), 10)
        # twist 2 only on small blocks: a long 2-elementary discriminant group
        # makes `info` enumerate it for the delta invariant
        if all(t != 2 or BASES[b][0] <= 2 for b, t, _ in terms):
            break
    rank, sig, det, even = sum_data(_flat(terms))
    return ["info", expr], {"rank": rank, "signature": list(sig), "determinant": det,
                            "parity": "even" if even else "odd"}


def _definite_sum(rng, nblocks, max_rank, twists=(1, 1, 1, 2)):
    while True:
        blocks = [(rng.choice(_DEF_BASES), rng.choice(twists)) for _ in range(nblocks)]
        blocks = [(b, 1 if b.startswith("[") else t) for b, t in blocks]
        if sum(BASES[b][0] for b, _ in blocks) <= max_rank:
            return blocks, " + ".join(term(b, t) for b, t in blocks)


def _enum(rng):
    nblocks, norm = rng.deal("enum-shape", ((2, 2), (2, 3), (2, 4), (3, 2), (3, 3)))
    blocks, expr = _definite_sum(rng, nblocks, 6)
    argv = ["enum", expr, "--norm", str(norm)]
    dot = div = None
    if rng.deal("enum-dot", (True, False, False)):
        dot = rng.choice((0, 1, 2))
        argv += ["--dot", "eta=%d" % dot]
    if rng.deal("enum-div", (True, False, False)):
        div = rng.choice((1, 2))
        argv += ["--div", str(div)]
    return argv, {"count": count_in_sum(blocks, norm, dot, div)}


def _roots(rng):
    blocks, expr = _definite_sum(rng, 2, 4, twists=(1, 1, 2, 3))
    return ["roots", expr], {"short_roots": count_in_sum(blocks, 2, div=1),
                             "long_roots": count_in_sum(blocks, 6, div=3)}


def _negated(base):
    return "[%d]" % -int(base[1:-1]) if base.startswith("[") else base + "(-1)"


def _glue(rng):
    base = rng.deal("glue-base", _GLUE_BASES)
    rank, _, det, _ = BASES[base]
    return ["glue", base, _negated(base)], {
        "rank": 2 * rank, "determinant": (-1) ** rank, "signature": [rank, rank],
        "parity": "even", "index": abs(det)}


def _glue_trivial(rng):
    left, lexpr = _draw_sum(rng, _INFO_BASES, _INFO_TWISTS, rng.deal("trivial-terms", (1, 2)), 4)
    right, rexpr = _draw_sum(rng, _INFO_BASES, _INFO_TWISTS, rng.deal("trivial-terms", (1, 2)), 4)
    rank, sig, det, even = sum_data(_flat(left) + _flat(right))
    return ["glue", lexpr, rexpr, "--trivial"], {
        "rank": rank, "determinant": det, "signature": list(sig),
        "parity": "even" if even else "odd", "index": 1}


def _isometry(rng):
    """(lattice expression, matrix, expected answers) of a prime-order isometry:
    a Coxeter element of A2/A4/A6 or -id on one block, identity elsewhere."""
    extras = [rng.choice(_ISOM_EXTRA) for _ in range(rng.deal("isom-extras", (0, 1)))]
    extra_data = [_EXTRA_DATA.get(e, (e, 1)) for e in extras]
    p = rng.deal("isom-order", (3, 5, 7, 2, 2))
    if p > 2:
        twist = rng.choice((1, -1))
        main = (("A%d" % (p - 1)), twist)
        mat = coxeter_element(p - 1)
        spin, action = 1, "id"
    else:
        base = rng.choice(_NEG_BASES)
        main = (base, 1)
        rank, sig, _, _ = BASES[base]
        mat = _identity(rank, -1)
        spin = (-1) ** sig[0]
        if base in TWO_ELEMENTARY:
            action = "id"
        elif all(e in TWO_ELEMENTARY for e in extras):
            action = "-id"
        else:
            action = "other"
    where = rng.randint(0, len(extras))
    names = extras[:where] + [term(*main)] + extras[where:]
    blocks = extra_data[:where] + [main] + extra_data[where:]
    mats = [_identity(block_data(*b)[0]) for b in blocks]
    mats[where] = mat
    fixed = [b for i, b in enumerate(blocks) if i != where]
    expect = {
        "order": p,
        "invariant": {"rank": sum_data(fixed)[0] if fixed else 0,
                      "det": sum_data(fixed)[2] if fixed else 1, "glue_a": 0},
        "coinvariant": {"rank": block_data(*main)[0], "det": block_data(*main)[2], "glue_a": 0},
        "disc-action": action,
        "spin": spin,
    }
    return " + ".join(names), block_diag(mats), expect


def _isom(rng, action, path):
    expr, mat, expect = _isometry(rng)
    return ["isom", action, path], {action: expect[action]}, {"lattice": expr, "matrix": mat}


_GENERATORS = {"info": _info, "enum": _enum, "roots": _roots, "glue": _glue,
               "glue-trivial": _glue_trivial}


class _Dealer(random.Random):
    """Random source that also deals: `deal(name, options)` hands out every
    option of a named choice once, in shuffled order, before any again.  The
    choices that decide a query's cost are dealt, so a session's share of
    heavy and light queries hardly depends on the seed."""

    def __init__(self, seed):
        super().__init__(seed)
        self._decks = {}

    def deal(self, name, options):
        deck = self._decks.setdefault(name, [])
        if not deck:
            deck.extend(options)
            self.shuffle(deck)
        return deck.pop()


def generate(seed, rounds):
    """Queries of a session: a list of dicts with `kind`, `argv` (without
    `--format json`), `expect` and, for `isom`, the `file` content its argv
    names.  The same seed gives the same list."""
    rng = _Dealer(seed)
    queries = []
    for _ in range(rounds):
        kinds = list(ROUND)
        rng.shuffle(kinds)
        for kind in kinds:
            q = {"kind": kind}
            if kind in _GENERATORS:
                q["argv"], q["expect"] = _GENERATORS[kind](rng)
            elif kind == "k3":
                name = rng.deal("k3", K3_LATTICES)
                q["argv"], q["expect"] = ["k3", name], {"reference": "k3 " + name}
            elif kind == "labeling":
                name, dmax = rng.deal("labeling", LABELINGS)
                q["argv"] = ["labeling", name, "--dmax", str(dmax)]
                q["expect"] = {"reference": "labeling %s %d" % (name, dmax)}
            else:
                action = kind[len("isom-"):]
                path = "%s/q%d.json" % (ISOM_DIR, len(queries))
                if action == "extra":
                    action = rng.deal("isom-extra", ("order", "invariant", "coinvariant",
                                                     "disc-action", "spin", "extend-lambda"))
                if action == "extend-lambda":
                    q["argv"] = ["isom", action, path]
                    q["expect"] = {"extend-lambda": True}
                    q["file"] = {"lattice": "OG10", "matrix": _identity(24, -1)}
                else:
                    q["argv"], q["expect"], q["file"] = _isom(rng, action, path)
            queries.append(q)
    return queries


# ---------------------------------------------------------------------------
# checking


def _det(m):
    """Determinant of an integer matrix by fraction-free elimination."""
    a = [list(r) for r in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k]:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def _transpose(m):
    return [list(r) for r in zip(*m)]


def check(query, code, stdout, reference, lambda_gram=None):
    """True when a query exited 0 with the answer known for it."""
    if code != 0:
        return False
    expect = query["expect"]
    kind = query["kind"]
    if "reference" in expect:
        data = json.loads(stdout)
        return all(data.get(k) == v for k, v in reference[expect["reference"]].items())
    if kind.startswith("isom"):
        (action, want), = expect.items()
        if action in ("order", "spin", "disc-action"):
            text = stdout.strip()
            return text == ("%+d" % want if action == "spin" else str(want))
        data = json.loads(stdout)
        if action == "extend-lambda":
            m = data["matrix"]
            g = lambda_gram
            n = len(g)
            ident = _identity(n)
            return (len(m) == n and m != ident and _matmul(m, m) == ident
                    and _matmul(_matmul(_transpose(m), g), m) == g)
        return (data["rank"] == want["rank"] and data["glue_a"] == want["glue_a"]
                and _det(data["gram"]) == want["det"])
    data = json.loads(stdout)
    return all(data.get(k) == v for k, v in expect.items())
