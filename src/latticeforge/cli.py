"""Command-line front end.

Exit codes: 0 success, 1 verification failure, 2 usage or input error.
"""

import argparse
import functools
import json
import os
import sys

from . import catalog, discform, glue, isom, shortvec, verify
from .errors import BadInput, LatticeForgeError
from .lattice import NAMED, Lattice, from_expression, invariants, make_named, matrix_from_json


@functools.cache
def _registry():
    """Name -> Lattice for the fixed lattice names and every table lattice,
    built once per process on first use.  Lattices are immutable, so the
    queries of one process share them and their cached eliminations."""
    reg = {name: make_named(name) for name in NAMED}
    reg.update(catalog.fixture_lattices())
    return reg


def resolve_lattice(ref):
    """Builtin name, lattice expression, or path to a lattice JSON file."""
    reg = _registry()
    if ref in reg:
        return reg[ref]
    if os.path.exists(ref):
        with open(ref) as fh:
            return Lattice.from_json(json.load(fh))
    return from_expression(ref)


def load_isometry(path):
    with open(path) as fh:
        data = json.load(fh)
    if not isinstance(data, dict) or "lattice" not in data or "matrix" not in data:
        raise BadInput('isometry JSON needs "lattice" and "matrix" entries')
    latref = data["lattice"]
    lat = resolve_lattice(latref) if isinstance(latref, str) else Lattice.from_json(latref)
    return isom.Isometry(lat, matrix_from_json(data["matrix"], "isometry matrix"))


def _print(data, fmt, text_fn):
    if fmt == "json":
        print(json.dumps(data, indent=2, default=str))
    elif fmt == "csv":
        def flat(d, prefix=""):
            for k, v in d.items():
                if isinstance(v, dict):
                    yield from flat(v, prefix + k + ".")
                else:
                    yield prefix + k, v
        for k, v in flat(data):
            print("%s,%s" % (k, v))
    else:
        print(text_fn())


def cmd_info(args):
    lat = resolve_lattice(args.lattice)
    # disc_q has one value per invariant factor, so not a sum's summand form
    form = discform.smith_form(lat)
    inv = invariants(lat)
    data = {
        "name": lat.label or args.lattice,
        "gram": [list(r) for r in lat.gram.rows],
        "rank": inv.rank,
        "signature": list(inv.signature),
        "determinant": inv.determinant,
        "parity": "even" if inv.even else "odd",
        "disc_group": ["Z/%d" % d for d in inv.disc_group_orders],
        "disc_q": [str(x) for x in form.q] if form.q is not None else None,
        "p_elementary": list(inv.p_elementary) if inv.p_elementary else None,
        "delta": inv.delta,
    }

    def text():
        grp = " + ".join(data["disc_group"]) or "trivial"
        lines = ["%s: rank %d, sig (%d,%d), det %d, %s" % (
            data["name"], data["rank"], inv.signature[0], inv.signature[1],
            inv.determinant, data["parity"])]
        lines.append("  disc group %s" % grp)
        if data["disc_q"]:
            lines.append("  q = (%s)" % ", ".join(data["disc_q"]))
        if data["p_elementary"]:
            lines.append("  p-elementary: p=%d, length %d" % inv.p_elementary)
        if data["delta"] is not None:
            lines.append("  delta = %d" % inv.delta)
        return "\n".join(lines)

    _print(data, args.format, text)
    return 0


def _parse_dot(spec, lat):
    name, _, val = spec.partition("=")
    try:
        if name == "eta":
            vec = tuple(1 if i == 0 else 0 for i in range(lat.rank))
        else:
            vec = tuple(int(c) for c in name.split(","))
        val = int(val)
    except ValueError:
        raise BadInput("dot constraint must look like eta=1") from None
    if len(vec) != lat.rank:
        raise BadInput("dot constraint vector %s has %d coordinates, the rank is %d"
                       % (name, len(vec), lat.rank))
    return (vec, val)


def cmd_enum(args):
    lat = resolve_lattice(args.lattice)
    dots = [_parse_dot(s, lat) for s in args.dot or ()]
    if args.list:
        vecs = shortvec.vectors_of_norm(lat, args.norm, dots, args.div, args.rank_cap)
        count = len(vecs)
        data = {"count": count, "vectors": [list(v) for v in vecs]}
        _print(data, args.format, lambda: "\n".join(
            ["count %d" % count] + [" ".join(map(str, v)) for v in vecs]))
    else:
        count = shortvec.count_vectors(lat, args.norm, dots, args.div, args.rank_cap)
        _print({"count": count}, args.format, lambda: str(count))
    return 0


def cmd_roots(args):
    lat = resolve_lattice(args.lattice)
    short, long_ = shortvec.root_report(lat, rank_cap=args.rank_cap)
    _print({"short_roots": short, "long_roots": long_}, args.format,
           lambda: "short %d, long %d" % (short, long_))
    return 0


def cmd_glue(args):
    left = resolve_lattice(args.left)
    right = resolve_lattice(args.right)
    if args.trivial:
        g = glue.trivial_glue(left, right)
    else:
        g = glue.full_glue(left, right)
        if g is None:
            print("no full glue map between the discriminant forms", file=sys.stderr)
            return 2
    # report whatever parity comes out rather than enforcing one
    ext, _, _ = glue.primitive_extension(g, require_even=False)
    lat = ext.lattice
    data = {"rank": lat.rank, "determinant": lat.det,
            "signature": list(lat.signature),
            "parity": "even" if lat.is_even() else "odd",
            "index": ext.index}
    _print(data, args.format, lambda: "rank %d, det %d, sig (%d,%d), %s, glue index %d" % (
        lat.rank, lat.det, lat.signature[0], lat.signature[1], data["parity"], data["index"]))
    return 0


def cmd_isom(args):
    f = load_isometry(args.file)
    sub = args.action
    if sub == "order":
        n = isom.isometry_order(f)
        print(n if n is not None else "infinite")
    elif sub == "spin":
        print("%+d" % isom.spinor_norm(f))
    elif sub == "disc-action":
        kind, _ = isom.discriminant_action(f)
        print(kind)
    elif sub in ("invariant", "coinvariant"):
        pair = isom.invariant_coinvariant(f)
        sl = pair.invariant if sub == "invariant" else pair.coinvariant
        data = {"rank": sl.rank, "basis": [list(r) for r in sl.basis.rows],
                "gram": [list(r) for r in sl.gram().rows], "glue_a": len(pair.glue_orders)}
        _print(data, args.format, lambda: json.dumps(data))
    else:  # extend-lambda; argparse rejects any other action
        ext = isom.extend_to_lambda(f)
        data = {"matrix": [list(r) for r in ext.matrix.rows]}
        _print(data, args.format, lambda: "\n".join(" ".join(map(str, r)) for r in ext.matrix.rows))
    return 0


def cmd_labeling(args):
    lat = resolve_lattice(args.lattice)
    found = verify.labeling_search(lat, args.dmax, args.rank_cap)
    data = {"discriminants": [d for d, _ in found]}
    _print(data, args.format, lambda: "\n".join(
        "d=%d  witness %s" % (d, [list(r) for r in w.rows]) for d, w in found) or "none")
    return 0


def cmd_k3(args):
    lat = resolve_lattice(args.lattice)
    ok, reason = verify.k3_association_verdict(lat)
    _print({"associated_k3": ok, "reason": reason}, args.format,
           lambda: "%s (%s)" % ("yes" if ok else "no", reason))
    return 0


_SELECTORS = ("lambda_p", "cubic", "lsv", "k3", "candidates", "all")


def cmd_verify(args):
    if args.table not in _SELECTORS:
        print("unknown table %r; choose from %s" % (args.table, ", ".join(_SELECTORS)),
              file=sys.stderr)
        return 2
    if args.table == "all":
        reports = verify.verify_all()
    elif args.table == "lambda_p":
        reports = [verify.verify_lambda_p()]
    elif args.table == "cubic":
        reports = [verify.verify_cubic_tables()]
    elif args.table == "lsv":
        reports = [verify.verify_lsv_table()]
    elif args.table == "k3":
        reports = [verify.verify_k3_table()]
    else:
        reports = [verify.derive_og10_order3_candidates()[0]]
    if args.format == "json":
        print(json.dumps([r.to_json() for r in reports], indent=2))
    elif args.format == "csv":
        print("table,row,ok")
        for r in reports:
            for row in r.rows:
                print("%s,%s,%s" % (r.table, row.row, row.ok))
    else:
        for r in reports:
            print(r.to_text(verbose=args.verbose))
    return 0 if all(r.ok for r in reports) else 1


def cmd_export_fixtures(args):
    data = catalog.fixtures_as_json()
    text = json.dumps(data, indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        print(text)
    return 0


def _add_common(parser):
    # mirrored on every subcommand so the flags work in either position;
    # SUPPRESS keeps subcommand defaults from clobbering top-level values
    parser.add_argument("--format", choices=("text", "json", "csv"),
                        default=argparse.SUPPRESS)
    parser.add_argument("--rank-cap", type=int, default=argparse.SUPPRESS)


@functools.cache
def build_parser():
    """The argument parser, built once per process on first use; each
    `parse_args` call returns a fresh namespace."""
    top = argparse.ArgumentParser(
        prog="latticeforge",
        description="Exact-arithmetic toolkit for integral quadratic lattices.")
    top.add_argument("--format", choices=("text", "json", "csv"), default="text")
    top.add_argument("--rank-cap", type=int, default=shortvec.RANK_CAP)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("info", help="lattice invariants")
    p.add_argument("lattice")
    _add_common(p)
    p.set_defaults(func=cmd_info)

    p = sub.add_parser("enum", help="count or list vectors of a given norm")
    p.add_argument("lattice")
    p.add_argument("--norm", type=int, required=True,
                   help="target norm, read as |Q|: on a negative definite lattice the "
                        "norm -N is asked for as N, so N is never negative")
    p.add_argument("--dot", action="append",
                   help="constraint like eta=1 or 1,0,0=2; repeatable")
    p.add_argument("--div", type=int, help="keep only vectors of this divisibility")
    p.add_argument("--list", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_enum)

    p = sub.add_parser("roots", help="count short and long roots")
    p.add_argument("lattice")
    _add_common(p)
    p.set_defaults(func=cmd_roots)

    p = sub.add_parser("glue", help="primitive extension of two lattices",
                       description="Primitive extension of two lattices along a full glue "
                                   "map between their discriminant forms (or the direct sum "
                                   "with --trivial).  Exits 2 when no full glue map exists.")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("--trivial", action="store_true", help="direct sum, no glue")
    _add_common(p)
    p.set_defaults(func=cmd_glue)

    p = sub.add_parser("isom", help="isometry computations on a JSON file")
    p.add_argument("action", choices=("order", "invariant", "coinvariant", "spin",
                                      "disc-action", "extend-lambda"))
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(func=cmd_isom)

    p = sub.add_parser("labeling", help="rank-2 labelings through eta")
    p.add_argument("lattice")
    p.add_argument("--dmax", type=int, default=60,
                   help="largest discriminant d = n Q(v) - (eta, v)^2 of a saturated "
                        "<eta, v> to report, with eta the first basis vector and "
                        "n = eta^2; the search enumerates the v with |Q(v)| <= "
                        "(dmax + (|n| // 2)^2) // |n|, which is exhaustive")
    _add_common(p)
    p.set_defaults(func=cmd_labeling)

    p = sub.add_parser("k3", help="associated-K3 verdict for a transcendental lattice",
                       description="Whether T(-1) embeds primitively in the K3 lattice: by "
                       "Nikulin, iff T is even and an even lattice of signature "
                       "(3 - t-, 19 - t+) carries the discriminant form of T.")
    p.add_argument("lattice")
    _add_common(p)
    p.set_defaults(func=cmd_k3)

    p = sub.add_parser("verify", help="re-check the classification tables")
    p.add_argument("table", help="|".join(_SELECTORS))
    p.add_argument("--verbose", action="store_true")
    _add_common(p)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export-fixtures", help="dump the embedded tables as JSON")
    p.add_argument("--out")
    _add_common(p)
    p.set_defaults(func=cmd_export_fixtures)

    return top


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        code = args.func(args)
    except (LatticeForgeError, OSError, json.JSONDecodeError, UnicodeDecodeError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        code = 2
    return code


if __name__ == "__main__":
    sys.exit(main())
