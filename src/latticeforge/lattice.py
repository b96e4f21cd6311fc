"""Integral lattices: Gram matrices, named constructors, first-order invariants.

A lattice is a free Z-module with a nondegenerate symmetric integer Gram
matrix.  Vectors are coordinate tuples in the fixed basis.
"""

import itertools
import json
import re
from functools import lru_cache
from math import gcd, prod
from operator import mul

from . import linalg
from .errors import (
    BadInput,
    BadParams,
    DegenerateForm,
    DimensionMismatch,
    TooLarge,
    UnknownName,
    ZeroScale,
    ZeroVector,
)
from .linalg import Matrix


class Lattice:
    """Free Z-module of finite rank with a symmetric integer bilinear form.

    A lattice built by `direct_sum` keeps its summands and reads its
    determinant, signature (Sylvester's law of inertia), discriminant group
    and discriminant form from theirs; only `discform.smith_form` asks for
    the Smith form of its whole Gram matrix.

    Every invariant is computed once, when it is first read, and kept in a
    slot: the elimination `_elim`, `_det`, the Smith form `_snf`, `_sig`,
    `_even`, the invariant factors `_orders` and the form of
    `discform.discriminant_form` in `_disc`.  A computation that raises
    caches nothing."""

    __slots__ = ("gram", "_elim", "_det", "_snf", "_summands", "_sig", "_even", "_orders",
                 "_disc")

    def __init__(self, gram):
        if not isinstance(gram, Matrix):
            gram = Matrix(gram)
        if any(type(x) is not int for r in gram.rows for x in r):
            raise BadInput("Gram matrix entries must be integers")
        if not gram.is_symmetric():
            raise DegenerateForm("Gram matrix not symmetric")
        self._set(gram)

    def _set(self, gram, summands=None):
        """Bind a checked Gram matrix and clear the caches."""
        self.gram = gram
        self._elim = None
        self._det = None
        self._snf = None
        self._summands = summands
        self._sig = None
        self._even = None
        self._orders = None
        self._disc = None

    @property
    def rank(self):
        return self.gram.nrows

    def elimination(self):
        """Symmetric elimination of the Gram matrix; raises DegenerateForm
        for a degenerate lattice."""
        if self._elim is None:
            self._elim = linalg.symmetric_elimination(self.gram)
        return self._elim

    @property
    def det(self):
        if self._det is None:
            if self._summands is not None:
                self._det = prod(s.det for s in self._summands)
            else:
                try:
                    self._det = self.elimination().det
                except DegenerateForm:
                    self._det = 0
        return self._det

    @property
    def signature(self):
        if self._sig is None:
            # a degenerate sum has a degenerate summand, whose elimination raises
            if self._summands is not None:
                sigs = [s.signature for s in self._summands]
                self._sig = (sum(p for p, _ in sigs), sum(m for _, m in sigs))
            else:
                self._sig = self.elimination().signature
        return self._sig

    def snf(self):
        if self._snf is None:
            self._snf = linalg.smith_normal_form(self.gram)
        return self._snf

    def is_even(self):
        if self._even is None:
            self._even = all(self.gram[i, i] % 2 == 0 for i in range(self.rank))
        return self._even

    def is_positive_definite(self):
        return self.signature[1] == 0

    def disc_group_orders(self):
        """Invariant factors (> 1) of the discriminant group, the torsion of
        Z^n / G Z^n; a block-diagonal G has the summands' torsion groups as
        summands."""
        if self._orders is None:
            if self._summands is not None:
                self._orders = _invariant_factors(
                    [d for s in self._summands for d in s.disc_group_orders()])
            else:
                self._orders = tuple(d for d in self.snf().divisors if d not in (0, 1))
        return self._orders

    def inner(self, v, w):
        if len(v) != self.rank or len(w) != self.rank:
            raise DimensionMismatch("vector length vs rank %d" % self.rank)
        return sum(map(mul, v, self.gram.apply(w)))

    def norm(self, v):
        return self.inner(v, v)

    def divisibility(self, v):
        """Positive generator of the ideal {(v, x) : x in the lattice}."""
        if all(c == 0 for c in v):
            raise ZeroVector("divisibility of the zero vector")
        return gcd(*self.gram.apply(v))

    def __eq__(self, other):
        return isinstance(other, Lattice) and self.gram == other.gram

    def __hash__(self):
        return hash(self.gram)

    def __repr__(self):
        return "Lattice(rank=%d)" % self.rank

    @classmethod
    def from_json(cls, data):
        if not isinstance(data, dict) or "gram" not in data:
            raise BadInput('lattice JSON needs a "gram" entry')
        name = data.get("name")
        if name is not None and not isinstance(name, str):
            raise BadInput('lattice JSON "name" must be a string, not %s' % json.dumps(name))
        return cls(matrix_from_json(data["gram"], "Gram matrix"))


def matrix_from_json(data, what):
    """Integer matrix from decoded JSON: a list of equal-length rows of
    integers (an integral float such as 2.0 counts as an integer).  Anything
    else raises BadInput naming `what`."""
    if not isinstance(data, list) or not all(isinstance(r, list) for r in data):
        raise BadInput("%s must be a list of rows" % what)
    if any(len(r) != len(data[0]) for r in data):
        raise BadInput("%s has rows of different lengths" % what)
    rows = []
    for r in data:
        row = []
        for a in r:
            if isinstance(a, float):
                if not a.is_integer():
                    raise BadInput("%s: non-integral entry %r" % (what, a))
                a = int(a)
            elif isinstance(a, bool) or not isinstance(a, int):
                raise BadInput("%s: entry %s is not an integer" % (what, json.dumps(a)))
            row.append(a)
        rows.append(tuple(row))
    return Matrix(rows)


def rescale(lat, k):
    """Same module with the bilinear form multiplied by k."""
    if k == 0:
        raise ZeroScale("rescale by zero")
    return Lattice(lat.gram.scale(k))


def _invariant_factors(orders):
    """Invariant factors (> 1) of the sum of the cyclic groups Z/d, d in
    `orders`, all positive: Z/a + Z/b = Z/gcd + Z/lcm, so taking gcd and lcm
    of every pair leaves d_1 | d_2 | ...; no factoring is needed."""
    d = sorted(orders)
    for i in range(len(d)):
        for j in range(i + 1, len(d)):
            g = gcd(d[i], d[j])
            d[i], d[j] = g, d[i] // g * d[j]
    return tuple(x for x in d if x != 1)


def direct_sum(lats):
    """Orthogonal direct sum; Gram is block diagonal.  The summands are kept
    for the determinant, signature, discriminant group and form.  Each
    summand's Gram already passed the integer and symmetry checks of
    `Lattice`, so the block-diagonal Gram is bound without checking it
    again."""
    lats = list(lats)
    if not lats:
        raise BadParams("direct sum of an empty list")
    out = Lattice.__new__(Lattice)
    out._set(linalg.block_diag([l.gram for l in lats]), tuple(lats))
    return out


# Miller-Rabin with the first 13 primes as bases decides primality of every
# n below this bound (Sorenson and Webster 2015)
_PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PRIME_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Exact primality test by Miller-Rabin on _PRIME_BASES; a number at or
    above _PRIME_BOUND that no base proves composite raises TooLarge."""
    if n < 2 or any(n % p == 0 for p in _PRIME_BASES):
        return n in _PRIME_BASES
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _PRIME_BASES:
        # n passes base a when a^d = 1 or a^(2^k d) = -1 for some k < s
        x = pow(a, d, n)
        if x != 1 and all(pow(x, 2 ** k, n) != n - 1 for k in range(s)):
            return False
    if n >= _PRIME_BOUND:
        raise TooLarge("primality of %d is not decided" % n)
    return True


_TRIAL_BOUND = 1 << 16
_RHO_STEPS = 1 << 20  # squarings Pollard-Brent rho may spend on one number


def _factorization(n):
    """{p: e} with n = prod p^e: trial division below _TRIAL_BOUND, then
    `_is_prime` and Pollard-Brent rho on the cofactors; a cofactor rho does
    not split within _RHO_STEPS raises TooLarge."""
    out = {}
    d = 2
    while d < _TRIAL_BOUND and d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1 if d == 2 else 2
    rest = [n] if n > 1 else []
    while rest:
        m = rest.pop()
        if d * d > m or _is_prime(m):
            out[m] = out.get(m, 0) + 1
        else:
            f = _rho_divisor(m)
            rest += [f, m // f]
    return dict(sorted(out.items()))


def _rho_divisor(n):
    """A proper divisor of the composite n by Brent's cycle-finding variant
    of Pollard's rho (Brent 1980), over x -> x^2 + c for c = 1, 2, ...; raises
    TooLarge after _RHO_STEPS squarings in all."""
    steps = 0
    for c in itertools.count(1):
        y, r, prod, g = 2, 1, 1, 1
        while g == 1:
            if steps > _RHO_STEPS:
                raise TooLarge("%d has no prime factor rho finds in %d steps" % (n, _RHO_STEPS))
            x = y
            for _ in range(r):
                y = (y * y + c) % n
            k = 0
            while k < r and g == 1:
                saved = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % n
                    prod = prod * (x - y) % n
                g = gcd(prod, n)
                k += 128
            steps += 2 * r
            r *= 2
        if g == n:
            # the batched product lost the factor: redo the last batch singly
            g = 1
            while g == 1:
                saved = (saved * saved + c) % n
                g = gcd(x - saved, n)
        if g != n:
            return g


# ---------------------------------------------------------------------------
# named lattices


def _path_gram(n):
    """Positive definite Gram of the path on n nodes."""
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2
    for i in range(n - 1):
        g[i][i + 1] = g[i + 1][i] = -1
    return Matrix(g)


def _gram_A(n):
    if n < 1:
        raise BadParams("A_n needs n >= 1")
    return _path_gram(n)


def _gram_D(n):
    if n < 4:
        raise BadParams("D_n needs n >= 4")
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2
    for i in range(n - 2):
        g[i][i + 1] = g[i + 1][i] = -1
    g[n - 3][n - 1] = g[n - 1][n - 3] = -1
    return Matrix(g)


def _gram_E(n):
    if n not in (6, 7, 8):
        raise BadParams("E_n needs n in {6, 7, 8}")
    # path 0-1-...-(n-2), extra node (n-1) attached to node 2
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2
    for i in range(n - 2):
        g[i][i + 1] = g[i + 1][i] = -1
    g[2][n - 1] = g[n - 1][2] = -1
    return Matrix(g)


# Fixed lattice names: each maps to its Gram matrix, or for a composite to the
# expression it stands for.  `make_named`, `from_expression` and the CLI
# registry all read this one table.
NAMED = {
    "U": Matrix([[0, 1], [1, 0]]),
    "E6*(3)": Matrix([
        [4, 2, -1, 2, -1, 1],
        [2, 4, 1, 1, -2, 2],
        [-1, 1, 4, 1, -2, -1],
        [2, 1, 1, 4, -2, -1],
        [-1, -2, -2, -2, 4, -1],
        [1, 2, -1, -1, -1, 4],
    ]),
    "L17": Matrix([
        [2, 1, 0, 1],
        [1, 2, 0, 0],
        [0, 0, 2, -1],
        [1, 0, -1, 4],
    ]),
    "N69": Matrix([[6, 3], [3, -10]]),
    "N15": Matrix([[4, -1], [-1, 4]]),
    "ExA": Matrix([[12, 1], [1, 2]]),
    "ExB": Matrix([[6, 1], [1, 4]]),
    "OG10": "U^3 + E8(-1)^2 + A2(-1)",
    "Lambda": "U^5 + E8(-1)^2",
    "F": "U^2 + E8^2 + A2",
    "K3": "U^3 + E8(-1)^2",
    # middle cohomology lattice of a cubic fourfold: odd unimodular (21, 2)
    "H4cubic": "[1]^21 + [-1]^2",
}
_ALIASES = {"E6*": "E6*(3)", "E6star": "E6*(3)", "E6star3": "E6*(3)"}


def make_named(name, *params):
    """Construct a lattice from its conventional name.

    Supported: the names of NAMED (U, E6*(3) with its aliases, L17, N69, N15,
    ExA, ExB and the composites OG10, Lambda, F, K3, H4cubic), and A<n>,
    D<n>, E<n>, [k] rank-one, K<p>, H<p> (odd prime p) with the parameter.
    """
    key = name.strip()
    key = _ALIASES.get(key, key)
    entry = NAMED.get(key)
    if isinstance(entry, Matrix):
        return Lattice(entry)
    if entry is not None:
        return from_expression(entry)

    if params:
        n = params[0]
        if key == "A":
            return Lattice(_gram_A(n))
        if key == "D":
            return Lattice(_gram_D(n))
        if key == "E":
            return Lattice(_gram_E(n))
        if key == "K":
            p = n
            if p < 3 or p % 2 == 0 or not _is_prime(p):
                raise BadParams("K_p needs an odd prime, got %r" % (p,))
            return Lattice(Matrix([[-(p + 1) // 2, 1], [1, -2]]))
        if key in ("H", "h"):
            p = n
            if p < 3 or p % 2 == 0 or not _is_prime(p):
                raise BadParams("h_p needs an odd prime, got %r" % (p,))
            return Lattice(Matrix([[(p - 1) // 2, 1], [1, -2]]))
        if key == "[]":
            if n == 0:
                raise BadParams("rank-one lattice [0] is degenerate")
            return Lattice(Matrix([[n]]))
    raise UnknownName("unknown lattice name %r" % (name,))


_TERM_RE = re.compile(
    r"""^\s*
    (?P<base>\[[+-]?\d+\]|[A-Za-z][A-Za-z0-9*]*)
    (?:\((?P<twist>-?\d+)\))?
    (?:\^(?P<power>\d+))?
    \s*$""",
    re.VERBOSE,
)


# bounded: a long session parses ever new expressions, and each cached
# lattice keeps every invariant it has computed, its discriminant forms
# included (verify all leaves 140 entries: its 114 expressions and the
# further terms they are built from)
@lru_cache(maxsize=256)
def from_expression(expr):
    """Parse a lattice expression like 'U + U(3) + A2(-1)^5 + [2]'.

    Terms are named lattices with an optional integer rescaling in
    parentheses and an optional repetition power.  A sum is built from the
    cached single-term lattices, so each distinct term is built, and its
    invariants computed, once per process.  The cached object itself is
    returned, so every caller of one expression shares it.
    """
    parts = expr.replace("⊕", "+").split("+")
    if not parts or not expr.strip():
        raise UnknownName("empty lattice expression")
    summands = []
    for part in parts:
        m = _TERM_RE.match(part)
        if not m:
            raise UnknownName("bad lattice term %r" % part.strip())
        base, twist, power = m.group("base"), m.group("twist"), m.group("power")
        if power is not None and int(power) == 0:
            raise BadParams("zero power in lattice term %r" % part.strip())
        if power is None and not parts[1:]:
            return _term(base, twist)
        term = base if twist is None else "%s(%s)" % (base, twist)
        lat = from_expression(term)
        try:
            summands.extend([lat] * (int(power) if power else 1))
        except (MemoryError, OverflowError):
            raise BadParams("power %s in lattice term %r is too large to expand"
                            % (power, part.strip())) from None
    return direct_sum(summands) if summands[1:] else summands[0]


def _term(base, twist):
    """The lattice of one term of an expression, without its power."""
    if base == "E6*":
        # E6*(3) is the integral matrix itself; E6*(-3) is its negation
        if twist not in ("3", "-3"):
            raise UnknownName("E6* occurs only as E6*(3) or E6*(-3)")
        lat = make_named("E6*(3)")
        return rescale(lat, -1) if twist == "-3" else lat
    if base.startswith("["):
        lat = make_named("[]", int(base[1:-1]))
    elif base in NAMED:
        # fixed names win over the ADEKH-family pattern; the rank-two
        # lattice K_3 is A2(-1) anyway, so nothing is lost
        lat = make_named(base)
    else:
        mm = re.fullmatch(r"([ADEKH])(\d+)", base)
        if mm:
            lat = make_named(mm.group(1), int(mm.group(2)))
        elif re.fullmatch(r"h(\d+)", base):
            lat = make_named("H", int(base[1:]))
        else:
            lat = make_named(base)
    return rescale(lat, int(twist)) if twist is not None else lat
