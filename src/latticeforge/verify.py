"""Row-by-row verification of the embedded classification tables, plus the
labeling search and the associated-K3 decision procedure."""

from dataclasses import dataclass, field
from functools import cache
from math import gcd
from operator import mul

from . import catalog, discform, glue, shortvec
from .lattice import Lattice, _invariant_factors, from_expression, make_named
from .linalg import Matrix


@dataclass
class Check:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class RowVerdict:
    row: str
    checks: list = field(default_factory=list)
    note: str = ""

    @property
    def ok(self):
        return all(c.passed for c in self.checks)

    def add(self, name, passed, detail=""):
        self.checks.append(Check(name, bool(passed), str(detail)))


@dataclass
class VerdictReport:
    table: str
    rows: list = field(default_factory=list)

    @property
    def ok(self):
        return all(r.ok for r in self.rows)

    @property
    def counts(self):
        good = sum(1 for r in self.rows if r.ok)
        return good, len(self.rows)

    def to_text(self, verbose=False):
        lines = []
        good, total = self.counts
        lines.append("table %s: %d/%d rows pass" % (self.table, good, total))
        for r in self.rows:
            status = "ok" if r.ok else "FAIL"
            lines.append("  row %-6s %s%s" % (r.row, status, "  (%s)" % r.note if r.note else ""))
            for c in r.checks:
                if verbose or not c.passed:
                    mark = "+" if c.passed else "-"
                    lines.append("    %s %-32s %s" % (mark, c.name, c.detail))
        return "\n".join(lines)

    def to_json(self):
        return {
            "table": self.table,
            "ok": self.ok,
            "rows": [
                {
                    "row": r.row,
                    "ok": r.ok,
                    "note": r.note,
                    "checks": [
                        {"name": c.name, "passed": c.passed, "detail": c.detail}
                        for c in r.checks
                    ],
                }
                for r in self.rows
            ],
        }


# ---------------------------------------------------------------------------
# the rank-26 pair table


def _verify_rank26_row(row):
    v = RowVerdict(row.label, note=row.note)
    co = from_expression(row.coinv)
    inv = from_expression(row.inv)
    p = row.p
    v.add("rank_sum_26", co.rank + inv.rank == 26, "%d + %d" % (co.rank, inv.rank))
    v.add("rank_inv_column", inv.rank == row.rank_inv, "%d vs %d" % (inv.rank, row.rank_inv))
    v.add("coinv_signature", co.signature == row.sgn_coinv == (2, co.rank - 2),
          "%s" % (co.signature,))
    want_inv = (5 - row.sgn_coinv[0], 21 - row.sgn_coinv[1])
    v.add("inv_signature", inv.signature == want_inv, "%s vs %s" % (inv.signature, want_inv))
    v.add("rank_divisibility", co.rank % (p - 1) == 0, "(p-1)=%d | %d" % (p - 1, co.rank))
    oc = co.disc_group_orders()
    oi = inv.disc_group_orders()
    v.add("coinv_p_elementary", all(d == p for d in oc) and len(oc) == row.a,
          "(Z/%d)^%d vs a=%d" % (p, len(oc), row.a))
    v.add("inv_p_elementary", all(d == p for d in oi) and len(oi) == row.a,
          "(Z/%d)^%d vs a=%d" % (p, len(oi), row.a))
    v.add("glue_bound", row.a <= co.rank // (p - 1), "a=%d, m=%d" % (row.a, co.rank // (p - 1)))
    fi = discform.discriminant_form(inv)
    fc = discform.discriminant_form(co)
    v.add("disc_anti_isometry", discform.forms_isomorphic(fi, fc.neg()),
          "disc(inv) vs -disc(coinv)")
    return v


def verify_lambda_p(rows=None):
    """Check every pair row of the rank-26 table; all columns are recomputed."""
    rows = catalog.RANK26_PAIRS if rows is None else rows
    return VerdictReport("lambda_p", [_verify_rank26_row(r) for r in rows])


# ---------------------------------------------------------------------------
# cubic fourfold tables


def _eta_vector(alg):
    return tuple(1 if i == 0 else 0 for i in range(alg.rank))


def _middle_cohomology_checks(v, alg, trans, perp):
    """Add the glue and root checks of a cubic row to `v` from A = alg, T =
    trans and perp = eta-perp in A; False when A and T do not glue.  A + T
    glues to a unimodular H4 iff b_A ~ -b_T (isometric; Nikulin 1979, 1.5),
    and H4 is odd when its signature is (21, 2), as an even unimodular
    lattice has signature 0 mod 8.  eta-perp in H4 has disc Z/3: there a
    norm-2 v has divisibility 1, and a norm-6 v divisibility 3 iff v = 3w -+
    eta with w in A, w^2 = 1, (w, eta) = +-1 (Hassett's K_6 and K_2)."""
    fa = discform.discriminant_form(alg)
    ft = discform.discriminant_form(trans)
    if not discform.forms_isomorphic(fa.bilinear(), ft.bilinear().neg()):
        v.add("middle_cohomology_glue", False, "no glue map found")
        return False
    rank = alg.rank + trans.rank
    det = alg.det * trans.det // fa.group_order ** 2
    sig = (alg.signature[0] + trans.signature[0], alg.signature[1] + trans.signature[1])
    v.add("middle_cohomology_glue", rank == 23 and abs(det) == 1 and sig == (21, 2),
          "rank %d det %d sig %s" % (rank, det, sig))
    short = shortvec.count_vectors(perp, 2)
    long_ = 2 * shortvec.count_vectors(alg, 1, dots=[(_eta_vector(alg), 1)])
    v.add("no_short_roots", short == 0, "%d" % short)
    v.add("no_long_roots", long_ == 0, "%d" % long_)
    return True


def _eta_perp_witness(alg, perp, inv, witness):
    """(passed, detail) of whether the rows of `witness`, vectors in alg
    coordinates, are the images of inv's basis under an isometry of inv onto
    perp = eta-perp in alg.  They are iff there are rank inv = rank perp of
    them, each lies in alg and is orthogonal to eta, their Gram matrix is
    inv's, and det inv = det perp: they then span a full-rank sublattice of
    the primitive eta-perp whose index squared is det inv / det perp = 1.  A
    witness of the wrong shape fails; nothing here raises."""
    if not len(witness) == inv.rank == perp.rank:
        return False, "rank: %d images, inv rank %d, eta-perp rank %d" \
            % (len(witness), inv.rank, perp.rank)
    eta = _eta_vector(alg)
    gw = []  # G w of each image w
    for i, w in enumerate(witness):
        if len(w) != alg.rank:
            return False, "image %d has %d coordinates, alg has rank %d" % (i, len(w), alg.rank)
        gw.append(alg.gram.apply(w))
        if sum(map(mul, eta, gw[i])):
            return False, "image %d is not orthogonal to eta" % i
    if tuple(tuple(sum(map(mul, a, gb)) for gb in gw) for a in witness) != inv.gram.rows:
        return False, "Gram matrix of the images is not inv's"
    if inv.det != perp.det:
        return False, "det inv %d vs det eta-perp %d" % (inv.det, perp.det)
    return True, "explicit witness"


@cache
def _cubic_lattice(gram):
    """The lattice of a cubic table Gram matrix, one object per Gram and
    process: `verify cubic` and `verify lsv` read the same object, so its
    Smith form, elimination and form are computed once, by whichever table
    reads them first.  Nothing is built before a table asks."""
    return Lattice(gram)


def _verify_cubic_row(row):
    v = RowVerdict(row.label)
    inv = _cubic_lattice(row.inv_gram)
    co = from_expression(row.coinv)
    alg = _cubic_lattice(row.alg_gram)

    v.add("inv_positive_definite", inv.rank == 0 or inv.is_positive_definite(),
          "%s" % (inv.signature,))
    v.add("rank_inv_column", inv.rank == row.rank_inv, "%d" % inv.rank)
    v.add("coinv_signature", co.signature == row.sgn_coinv, "%s" % (co.signature,))
    v.add("rank_sum_22", inv.rank + co.rank == 22, "%d + %d" % (inv.rank, co.rank))
    v.add("rank_coinv_2d_plus_2", co.rank == 2 * row.moduli_dim + 2,
          "rk=%d, d=%d" % (co.rank, row.moduli_dim))
    v.add("l_inv_column", len(inv.disc_group_orders()) == row.l_inv,
          "%d" % len(inv.disc_group_orders()))
    v.add("l_alg_column", len(alg.disc_group_orders()) == row.l_alg,
          "%d" % len(alg.disc_group_orders()))
    v.add("inv_3_elementary", all(d == 3 for d in inv.disc_group_orders()),
          "%s" % (inv.disc_group_orders(),))

    eta = _eta_vector(alg)
    v.add("eta_square_3", alg.norm(eta) == 3, "%d" % alg.norm(eta))
    v.add("no_square_one_class", not shortvec.has_square_one(alg))

    # eta-perp inside the algebraic lattice is the primitive algebraic part
    perp = glue.orthogonal_complement(glue.span(alg, [eta])).lattice()
    if alg.rank >= 2:
        v.add("eta_perp_isometric_inv", *_eta_perp_witness(alg, perp, inv, row.perp_witness))
    else:
        v.add("eta_perp_isometric_inv", inv.rank == 0, "rank-0 case")

    if not _middle_cohomology_checks(v, alg, co, perp):
        return v

    if row.label == "phi35":
        v.add("count_norm4_is_54",
              shortvec.count_vectors(inv, 4) == 54)
    if row.label == "phi32":
        n81 = shortvec.count_vectors(alg, 3, dots=[(eta, 1)])
        v.add("count_plane_classes_is_81", n81 == 81, "%d" % n81)
    if row.label == "phi37":
        n9 = shortvec.count_vectors(alg, 3, dots=[(eta, 1)])
        v.add("count_plane_classes_is_9", n9 == 9, "%d" % n9)

    if row.labeling_witness:
        w = row.labeling_witness
        k = glue.span(alg, [eta, w])
        gram = k.gram()
        v.add("labeling_witness_det_14",
              gram == Matrix([[3, 2], [2, 6]]) and glue.saturation_index(k) == 1,
              "%s" % (gram.rows,))
    return v


def verify_cubic_tables(rows=None):
    rows = catalog.CUBIC_ROWS if rows is None else rows
    report = VerdictReport("cubic")
    report.rows = [_verify_cubic_row(r) for r in rows]
    return report


# ---------------------------------------------------------------------------
# labelings


def labeling_search(alg, d_max, rank_cap=shortvec.RANK_CAP):
    """All discriminants d <= d_max of saturated rank-2 sublattices containing
    the distinguished class eta (the first basis vector) of a definite
    lattice.

    Returns a sorted list of (d, witness_rows).  With n = eta^2, the pair
    (eta, v) has d = n Q(v) - (eta, v)^2.  Every such sublattice has a basis
    (eta, v) with |(eta, v)| <= |n| // 2 (shift v by multiples of eta), so
    |Q(v)| <= (d_max + (|n| // 2)^2) // |n| and enumerating vectors up to
    that norm is exhaustive.  The enumeration is streamed, keeping for each
    d only the vector v of least (|Q(v)|, v) that yields it, so the witness
    of d is that of a search in increasing norm and then lexicographic
    order, in memory proportional to the number of d.
    """
    if alg.rank < 2 or d_max < 1:
        return []
    eta = _eta_vector(alg)
    row0 = alg.gram.rows[0]
    n = row0[0]
    half = abs(n) // 2
    # n = 0 only on an indefinite or degenerate lattice, which
    # short_vectors rejects
    bound = (d_max + half * half) // abs(n) if n else 0
    best = {}  # d -> ((|Q(v)|, v), saturated v)
    for vec, norm in shortvec.short_vectors(alg, bound, rank_cap):
        tail = vec[1:]
        if not any(tail):
            continue
        ev = sum(map(mul, row0, vec))
        # short_vectors reads the norm as |Q|
        qv = norm if n > 0 else -norm
        sat = vec
        # closed-form saturation of <eta, vec>: eta is the first basis
        # vector, so dividing out the tail content after translating by
        # eta already yields a primitive pair
        g = gcd(*tail)
        if g > 1:
            c = vec[0] % g
            sat = tuple((x - c * e) // g for x, e in zip(vec, eta))
            qv = (qv - 2 * c * ev + c * c * n) // (g * g)
            ev = (ev - c * n) // g
        d = n * qv - ev * ev
        if 0 < d <= d_max:
            key = (norm, vec)
            if d not in best or key < best[d][0]:
                best[d] = (key, sat)
    return sorted((d, Matrix([eta, sat])) for d, (_key, sat) in best.items())


# ---------------------------------------------------------------------------
# associated K3 surfaces

def k3_association_verdict(trans):
    """Whether the negated transcendental lattice T(-1) embeds primitively in
    the K3 lattice, the even unimodular lattice of signature (3, 19).

    Returns (verdict, reason).  By Nikulin (1979, Thm 1.12.2 with 1.10.1) it
    does iff T is even, the complement signature (3 - t-, 19 - t+) is
    nonnegative and an even lattice of that signature carries q_T.  Of the
    conditions of 1.10.1 the signature congruence holds by itself (Milgram
    gives sign q_T = t+ - t- = s+ - s- mod 8), so only the length of disc T,
    at most 22 - rank, and the local conditions are checked
    (`discform.length_or_local_obstruction`); a T of short length is decided
    without factoring its determinant.
    """
    rank = trans.rank
    if rank > 22:
        return False, "rank %d exceeds the rank-22 target" % rank
    if rank == 22 and abs(trans.det) != 1:
        return False, "rank 22 forces an isometry, impossible with determinant %d" % trans.det
    if not trans.is_even():
        return False, "T is odd, so T(-1) is not in an even lattice"
    t_plus, t_minus = trans.signature
    sig = (3 - t_minus, 19 - t_plus)
    if sig[0] < 0 or sig[1] < 0:
        return False, "signature %s does not fit" % ((t_minus, t_plus),)
    ft = discform.discriminant_form(trans)
    bad = discform.length_or_local_obstruction(sig, ft)
    if bad is None:
        return True, "an even complement of signature %s exists" % (sig,)
    if bad == "length":
        length = len(trans.disc_group_orders())
        return False, "complement length %d exceeds rank %d" % (length, 22 - rank)
    return False, "no even complement of signature %s: the %d-adic condition fails" % (sig, bad)


def verify_k3_table(rows=None):
    rows = catalog.CUBIC_ROWS if rows is None else rows
    report = VerdictReport("k3")
    for row in rows:
        v = RowVerdict(row.label)
        trans = from_expression(row.coinv)
        verdict, reason = k3_association_verdict(trans)
        v.add("associated_k3_matches", verdict == row.has_assoc_k3,
              "computed %s (%s), table says %s" % (verdict, reason, row.has_assoc_k3))
        report.rows.append(v)
    return report


# ---------------------------------------------------------------------------
# induced actions on the rank-24 lattice


def _u3_embedding(lat):
    """(passed, detail) of whether `lat` contains a primitive U(3).

    A direct-summand U(3) block is a witness.  Otherwise, on an even
    lattice, Nikulin (1979, Prop. 1.15.1) reads the primitive U(3) of the
    lattices in the genus of L: each comes with a subgroup H of disc U(3),
    an isometric embedding gamma of H into A_L, and an even complement K of
    signature sig(L) - (1, 1) whose form is (-q_U(3) + q_L) on
    Gamma^perp / Gamma, Gamma the graph of gamma (`glue.complement_forms`).
    Thm 1.10.1 decides whether K exists (`discform.genus_obstruction`).
    No (H, gamma) with a complement proves that L has no primitive U(3).
    One with a complement puts a primitive U(3) in some lattice of the
    genus, which is L when L is even, indefinite and of rank >= l(A_L) + 2,
    as then L is alone in its genus (Cor. 1.13.3); otherwise, and on an odd
    L, the check fails as undecided, not as a no.
    """
    g = lat.gram
    n = lat.rank
    for i in range(n):
        for j in range(i + 1, n):
            if g[i, i] == g[j, j] == 0 and g[i, j] == 3 and \
                    all(g[i, t] == g[j, t] == 0 for t in range(n) if t not in (i, j)):
                return True, "direct summand on basis vectors %d, %d" % (i, j)
    if not lat.is_even():
        return False, "undecided: L is odd and has no direct-summand U(3)"
    if lat.signature[0] < 1 or lat.signature[1] < 1:
        return False, "no primitive U(3): signature %s has no room for (1, 1)" % (lat.signature,)
    sig = (lat.signature[0] - 1, lat.signature[1] - 1)
    fu = discform.discriminant_form(from_expression("U(3)"))
    fl = discform.discriminant_form(lat)
    for gens, form in glue.complement_forms(fu, fl):
        if discform.genus_obstruction(sig, form) is None:
            break
    else:
        return False, "no primitive U(3): no glue subgroup of disc U(3) leaves an even complement"
    factors = _invariant_factors(form.orders)
    found = "glue |H| = %d, complement of signature %s with invariant factors %s" \
        % (3 ** len(gens), sig, list(factors))
    least = len(lat.disc_group_orders()) + 2
    if n < least:
        return False, "undecided: %s in the genus, but rank %d < l(A_L) + 2 = %d" % (found, n, least)
    return True, "%s; L is alone in its genus" % found


def _genus_equal(l1, l2, sign=1):
    """Whether l1 is in the genus of l2(sign).  L(-1) is read off L itself:
    its signature is L's reversed, its parity and discriminant group are
    L's, and its discriminant form is -q_L (Nikulin 1979, Sec. 1), so no
    negated copy of L is built."""
    sig = l2.signature if sign == 1 else l2.signature[::-1]
    if l1.rank != l2.rank or l1.signature != sig \
            or l1.is_even() != l2.is_even() or l1.disc_group_orders() != l2.disc_group_orders():
        return False
    f2 = discform.discriminant_form(l2)
    return discform.forms_isomorphic(discform.discriminant_form(l1),
                                     f2 if sign == 1 else f2.neg())


def _u3_gluings_to(target, other):
    """Whether target's genus is that of U(3) glued with M = other(-1)
    along the trivial subgroup or a graph of order 3.  M is read off
    `other` as in `_genus_equal`: the signature reversed, the parity kept
    and q_M = -q_other.

    The glued lattice has signature (1, 1) + sig(M), the parity of M, and
    discriminant form H^perp / H on disc U(3) + disc M for the graph H
    (Nikulin 1979, Prop. 1.4.1), so no overlattice is built.  The graphs of
    order 3 are those of the line glues of disc U(3) into -q_M = q_other,
    one per line when that form is 3-elementary.  Their complement forms
    (`glue.complement_forms`) are read on the same graphs in
    -(q_U(3) + q_M), so, negated, they are the forms H^perp / H.
    """
    m, p = other.signature
    if target.rank != other.rank + 2 or target.signature != (p + 1, m + 1) \
            or target.is_even() != other.is_even():
        return False
    fu = discform.discriminant_form(from_expression("U(3)"))
    fo = discform.discriminant_form(other)
    ft = discform.discriminant_form(target)
    for gens, form in glue.complement_forms(fu, fo):
        if len(gens) == 2:  # the whole group: graphs of order 9 from here on
            return False
        if discform.forms_isomorphic(form.neg(), ft):
            return True
    return False


def canonical_u3_certificate():
    """U(3) + F(-1), F the primitive-cohomology genus, glued along Z/3
    gives the rank-24 hyperbolic-type genus; certifies that a U(3) with
    embedding subgroup Z/3 exists there.  The determinants differ by a
    factor 9, so any gluing `_u3_gluings_to` finds has index 3."""
    return _u3_gluings_to(make_named("OG10"), make_named("F"))


def _rank24_reading(row, inv):
    """(expression, lattice) of the first coinvariant reading of an induced
    row whose rank adds up with the invariant's to 24, or None."""
    for expr in [row.coinv] + ([row.alt_coinv] if row.alt_coinv else []):
        co = from_expression(expr)
        if co.rank + inv.rank == 24:
            return expr, co
    return None


def _verify_induced_row(row):
    v = RowVerdict(row.label, note=row.note)
    inv = from_expression(row.inv)
    chosen = _rank24_reading(row, inv)
    if chosen is None:
        v.add("rank_sum_24", False, "no reading gives rank 24")
        return v
    expr, co = chosen
    if row.alt_coinv:
        v.note = (v.note + "; " if v.note else "") + "reading %r passes rank bookkeeping" % expr
    v.add("rank_sum_24", True, "%d + %d" % (co.rank, inv.rank))
    v.add("inv_signature", inv.signature == row.sgn_inv == (1, inv.rank - 1),
          "%s" % (inv.signature,))
    v.add("coinv_signature_pattern", co.signature == (2, co.rank - 2), "%s" % (co.signature,))

    cubic = catalog.cubic_row(row.label) if row.p == 3 else None
    if cubic:
        v.add("coinv_matches_cubic_coinv_negated",
              _genus_equal(co, from_expression(cubic.coinv), -1),
              "genus comparison with the negated order-3 coinvariant")
    v.add("contains_primitive_u3", *_u3_embedding(inv))
    if cubic:
        v.add("inv_is_u3_glued_with_cubic_inv",
              _u3_gluings_to(inv, _cubic_lattice(cubic.inv_gram)),
              "U(3) + negated primitive algebraic lattice reassembles the invariant genus")
    return v


def verify_lsv_table(rows=None):
    rows = catalog.INDUCED_ROWS if rows is None else rows
    report = VerdictReport("lsv")
    glob = RowVerdict("global")
    glob.add("u3_embeds_with_glue_z3", canonical_u3_certificate(),
             "U(3) + F(-1) glues with index 3 to the rank-24 genus")
    report.rows.append(glob)
    for row in rows:
        report.rows.append(_verify_induced_row(row))
    return report


# ---------------------------------------------------------------------------
# candidate generation for the order-three pairs


def a2_complement_candidates(host):
    """Genus candidates (kind, sig, form) for the complement of a primitive
    A2 inside `host`, one per glue of `glue.complement_forms`: the glue
    subgroup is trivial or all of Z/3, with one image per subgroup when the
    3-part of the host form is 3-elementary (Witt's extension theorem over
    F_3) and otherwise every image whose complement form is not isomorphic
    to that of an earlier one.
    """
    a2 = from_expression("A2")
    sig = (host.signature[0] - a2.signature[0], host.signature[1] - a2.signature[1])
    if sig[0] < 0 or sig[1] < 0:
        return []
    fa = discform.discriminant_form(a2)
    fh = discform.discriminant_form(host)
    out = []
    for gens, form in glue.complement_forms(fa, fh):
        if gens and any(k == "Z/3" and discform.forms_isomorphic(f, form) for k, _, f in out):
            continue
        out.append(("Z/3" if gens else "trivial", sig, form))
    return out


def derive_og10_order3_candidates():
    """For each order-3 row of the rank-26 table, the possible genus data of
    the complement of A2 in the invariant lattice; cross-checked against the
    order-3 rows of the induced-action table.

    Each induced row is paired with the one order-3 rank-26 row whose
    coinvariant has the genus of the induced coinvariant; no such row, or
    several, fail the crosscheck.
    """
    rows = [r for r in catalog.RANK26_PAIRS if r.p == 3]
    report = VerdictReport("candidates")
    candidates = {}
    for row in rows:
        host = from_expression(row.inv)
        cands = a2_complement_candidates(host)
        candidates[row.label] = cands
        v = RowVerdict(row.label)
        v.add("candidates_computed", True, "%d glue choices" % len(cands))
        report.rows.append(v)
    for induced in catalog.INDUCED_ROWS:
        if induced.p != 3:
            continue
        v = RowVerdict("crosscheck_%s" % induced.label)
        target = from_expression(induced.inv)
        co = _rank24_reading(induced, target)
        labels = [r.label for r in rows if co and _genus_equal(co[1], from_expression(r.coinv))]
        if len(labels) != 1:
            v.add("induced_inv_among_candidates", False,
                  "rank-26 rows with the induced coinvariant genus: %s (need exactly one)"
                  % (", ".join(labels) or "none"))
        else:
            ft = discform.discriminant_form(target)
            hit = any(sig == target.signature and discform.forms_isomorphic(form, ft)
                      for _kind, sig, form in candidates[labels[0]])
            v.add("induced_inv_among_candidates", hit, "row %s of the rank-26 table" % labels[0])
        report.rows.append(v)
    return report, candidates


def verify_all():
    reports = [
        verify_lambda_p(),
        verify_cubic_tables(),
        verify_lsv_table(),
        verify_k3_table(),
        derive_og10_order3_candidates()[0],
    ]
    return reports
