"""Command-line front end: table regeneration, lattice inspection, pair
verification, isometry checks, and fixed-locus queries.

Exit codes: 0 success/verified, 1 a well-posed check failed, 2 invalid
input.  Output is deterministic: identical arguments give identical bytes.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass
from functools import cache
from pathlib import Path

from .catalog import parse_expr
from .classify import table1_rows, verify_pair
from .errors import TrielemError, check_printable
from .fixed_locus import (
    MINUS_ZETA,
    NONEXISTENT,
    SPECIAL_THREE_POINTS,
    FixedLocus,
    enumerate_table2,
    fixed_locus_from_invariants,
    holomorphic_lefschetz,
    table2_rows,
    topological_check,
)
from .isometry import (
    discriminant_action,
    has_order3_trivial_on_A,
    is_isometry,
    matrix_from_dict,
    order_of,
)
from .lattice import (
    discriminant_form,
    discriminant_group,
    is_even,
    lattice_from_dict,
)
from .linalg import determinant, signature


@dataclass
class CommandResult:
    exit_code: int
    payload: str


def _read_json(path: str):
    """A parsed JSON file; nesting too deep to parse is bad input as well."""
    try:
        return json.loads(Path(path).read_text())
    except RecursionError:
        raise ValueError(f"{path}: JSON nested too deeply") from None


def _load_lattice(spec: str):
    """A path ending in ``.json`` to a file {"name", "gram"}, else a lattice
    expression (even when a file of that name exists)."""
    if spec.endswith(".json"):
        return lattice_from_dict(_read_json(spec))
    return parse_expr(spec)


def _pretty(name: str | None) -> str:
    return name.replace("+", " ⊕ ") if name else ""


def _md_table(header, rows):
    lines = ["| " + " | ".join(header) + " |"]
    lines.append("|" + "|".join("---" for _ in header) + "|")
    for row in rows:
        lines.append("| " + " | ".join(str(x) for x in row) + " |")
    return "\n".join(lines)


def _cmd_table1(args):
    rows = table1_rows()
    if args.format == "json":
        return 0, json.dumps(rows, indent=2)
    if args.format == "csv":
        lines = ["rho,s,S,T,exists"]
        for r in rows:
            lines.append(f"{r['rho']},{r['s']},{r['S']},{r['T'] or ''},{r['exists']}")
        return 0, "\n".join(lines)
    body = [
        (r["rho"], r["s"], _pretty(r["S"]), _pretty(r["T"]) if r["T"] else "no existence")
        for r in rows
    ]
    return 0, _md_table(("rank S", "s", "S", "T"), body)


def _locus_string(locus: FixedLocus) -> str:
    if locus.status == SPECIAL_THREE_POINTS:
        return "{pt} × 3"
    parts = [f"C^{{({locus.genus})}}"]
    rational = locus.curves - 1
    if rational == 1:
        parts.append("P^1")
    elif rational > 1:
        parts.append(f"P^1 × {rational}")
    if locus.points == 1:
        parts.append("{pt}")
    elif locus.points > 1:
        parts.append(f"{{pt}} × {locus.points}")
    return " ⊔ ".join(parts)


def _cmd_table2(args):
    if args.format == "json":
        return 0, json.dumps(table2_rows(), indent=2)
    rows = enumerate_table2()
    if args.format == "csv":
        lines = ["S,status,M,g,N"]
        for name, locus in rows:
            counts = (locus.points, locus.genus, locus.curves)
            cells = [name, locus.status] + ["" if x is None else str(x) for x in counts]
            lines.append(",".join(cells))
        return 0, "\n".join(lines)
    populated = [
        (_pretty(name), _locus_string(locus)) for name, locus in rows if locus.status != NONEXISTENT
    ]
    absent = [name for name, locus in rows if locus.status == NONEXISTENT]
    text = _md_table(("S", "fixed locus"), populated)
    if absent:
        text += "\n\nNo order-3 automorphism acting trivially on the lattice:\n"
        text += "\n".join(f"- {_pretty(name)}" for name in absent)
    return 0, text


def _signature_string(sig) -> str:
    plus, zero, minus = sig
    if zero:
        return f"({plus}, {zero}, {minus})"
    return f"({plus}, {minus})"


def _cmd_lattice(args):
    lat = _load_lattice(args.expr)
    sig = signature(lat.gram)
    det = int(determinant(lat.gram))
    check_printable("det", det)
    even = is_even(lat)
    factors = None
    q_gens = None
    if det != 0:
        group = discriminant_group(lat)
        factors = list(group.invariant_factors)
        if even:
            form = discriminant_form(lat)
            q_gens = [
                form.q_values[tuple(int(i == j) for j in range(group.s))]
                for i in range(group.s)
            ]
    if args.format == "json":
        info = {
            "name": lat.name,
            "rank": lat.rank,
            "signature": list(sig),
            "det": det,
            "even": even,
            "invariant_factors": factors,
            "s": None if factors is None else len(factors),
            "q_on_generators": None if q_gens is None else [str(q) for q in q_gens],
        }
        return 0, json.dumps(info, indent=2)
    lines = [
        f"name: {lat.name or '(unnamed)'}",
        f"rank: {lat.rank}",
        f"signature: {_signature_string(sig)}",
        f"det: {det}",
        f"even: {str(even).lower()}",
    ]
    if factors is None:
        lines.append("invariant factors: (degenerate)")
    else:
        lines.append(f"invariant factors: {factors}")
        lines.append(f"s: {len(factors)}")
        if q_gens is not None:
            lines.append(f"q on generators: [{', '.join(str(q) for q in q_gens)}]")
    return 0, "\n".join(lines)


def _cmd_verify_pair(args):
    s_lat = _load_lattice(args.s)
    t_lat = _load_lattice(args.t)
    report = verify_pair(s_lat, t_lat)
    if args.format == "json":
        payload = json.dumps(
            {"ok": report.ok, "checks": report.checks, "details": report.details},
            indent=2,
        )
    else:
        lines = [f"S: {s_lat.name or '(unnamed)'}", f"T: {t_lat.name or '(unnamed)'}"]
        for name, passed in report.checks.items():
            note = f"  ({report.details[name]})" if name in report.details else ""
            lines.append(f"{name}: {'pass' if passed else 'FAIL'}{note}")
        lines.append(f"result: {'verified' if report.ok else 'failed'}")
        payload = "\n".join(lines)
    return (0 if report.ok else 1), payload


def _cmd_isometry(args):
    lat = _load_lattice(args.lattice)
    mat = matrix_from_dict(_read_json(args.matrix))
    ok = is_isometry(lat, mat)
    order = order_of(mat) if ok else None
    trivial = None
    if ok and determinant(lat.gram) != 0:
        trivial = discriminant_action(lat, mat)
    if args.format == "json":
        payload = json.dumps(
            {
                "isometry": ok,
                "order": order,
                "discriminant_action_trivial": trivial,
            },
            indent=2,
        )
    else:
        lines = [f"isometry: {str(ok).lower()}"]
        if ok:
            lines.append(f"order: {order if order is not None else 'none (> bound)'}")
            if trivial is not None:
                lines.append(f"discriminant action trivial: {str(trivial).lower()}")
        payload = "\n".join(lines)
    return (0 if ok else 1), payload


def _cmd_search_order3(args):
    lat = _load_lattice(args.lattice)
    found = has_order3_trivial_on_A(lat)
    if args.format == "json":
        payload = json.dumps({"lattice": lat.name, "found": found}, indent=2)
    else:
        payload = (
            f"order-3 isometry acting trivially on the discriminant group: "
            f"{'found' if found else 'none'}"
        )
    return 0, payload


def _cmd_lefschetz(args):
    locus = fixed_locus_from_invariants(args.rho, args.s)
    if locus.status == NONEXISTENT:
        holo = topo = None
    else:
        genera = [] if locus.status == SPECIAL_THREE_POINTS else (
            [locus.genus] + [0] * (locus.curves - 1)
        )
        holo = holomorphic_lefschetz(locus.points, genera) == MINUS_ZETA
        topo = topological_check(args.rho, locus)
    if args.format == "json":
        payload = json.dumps(
            {
                "rho": args.rho,
                "s": args.s,
                "status": locus.status,
                "M": locus.points,
                "g": locus.genus,
                "N": locus.curves,
                "holomorphic_lefschetz_ok": holo,
                "topological_ok": topo,
            },
            indent=2,
        )
    else:
        lines = [f"status: {locus.status}"]
        if locus.status != NONEXISTENT:
            lines.append(f"isolated points M: {locus.points}")
            lines.append(f"curve genus g: {locus.genus}")
            lines.append(f"curve count N: {locus.curves}")
            lines.append(f"holomorphic Lefschetz = -zeta: {str(holo).lower()}")
            lines.append(f"topological identity: {str(topo).lower()}")
        payload = "\n".join(lines)
    return 0, payload


def _add_format(parser, choices=("md", "json", "csv")):
    parser.add_argument("--format", choices=choices, default="md")


@cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by later commands."""
    parser = argparse.ArgumentParser(
        prog="trielem",
        description=(
            "Exact arithmetic for even hyperbolic 3-elementary lattices in the "
            "K3 lattice and order-3 automorphism fixed loci."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("table1", help="classification table of embeddable lattices")
    _add_format(p)
    p.set_defaults(handler=_cmd_table1)

    p = sub.add_parser("table2", help="fixed locus for every embeddable lattice")
    _add_format(p)
    p.set_defaults(handler=_cmd_table2)

    p = sub.add_parser("lattice", help="inspect a lattice expression or JSON file")
    p.add_argument("expr")
    p.add_argument("--info", action="store_true", help="print the invariants (default)")
    _add_format(p, choices=("md", "json"))
    p.set_defaults(handler=_cmd_lattice)

    p = sub.add_parser("verify-pair", help="run the embedding-pair checks")
    p.add_argument("--s", required=True, help="hyperbolic lattice expression")
    p.add_argument("--t", required=True, help="candidate complement expression")
    _add_format(p, choices=("md", "json"))
    p.set_defaults(handler=_cmd_verify_pair)

    p = sub.add_parser("isometry", help="check a matrix against a lattice")
    p.add_argument("--lattice", required=True, help="expression or JSON file")
    p.add_argument("--matrix", required=True, help='JSON file {"matrix": [[...]]}')
    _add_format(p, choices=("md", "json"))
    p.set_defaults(handler=_cmd_isometry)

    p = sub.add_parser(
        "search-order3",
        help="search a definite lattice for an order-3 isometry trivial on the discriminant group",
    )
    p.add_argument("--lattice", required=True, help="expression or JSON file")
    _add_format(p, choices=("md", "json"))
    p.set_defaults(handler=_cmd_search_order3)

    p = sub.add_parser("lefschetz", help="fixed locus and Lefschetz checks for a key")
    p.add_argument("--rho", type=int, required=True)
    p.add_argument("--s", type=int, required=True)
    _add_format(p, choices=("md", "json"))
    p.set_defaults(handler=_cmd_lefschetz)

    return parser


def run(argv=None) -> CommandResult:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
        return CommandResult(code, "")
    try:
        code, payload = args.handler(args)
    except (TrielemError, ValueError, OSError, json.JSONDecodeError) as exc:
        return CommandResult(2, f"error: {exc}")
    return CommandResult(code, payload)


def main(argv=None) -> int:
    result = run(argv)
    if result.payload:
        stream = sys.stderr if result.exit_code == 2 else sys.stdout
        print(result.payload, file=stream)
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
