"""Inputs and correctness oracles for the three benchmark workloads.

Each workload function takes the freshly imported ``trielem`` package, a seeded
``random.Random``, the checkout root and a scratch directory for generated
files, and returns one or more op lists of equal length ("variants"); pass k
runs variant k mod their number.  An op is one ``trielem`` command line plus
the check its result must pass.  The program sees only the generated
expressions and JSON files; the seed stays in the benchmark.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass(frozen=True)
class Op:
    argv: tuple[str, ...]
    check: Callable[[int, str], bool]
    repeat: bool = False


def _json_ok(expected_code: int, predicate) -> Callable[[int, str], bool]:
    def check(code: int, payload: str) -> bool:
        if code != expected_code:
            return False
        try:
            return bool(predicate(json.loads(payload)))
        except (ValueError, KeyError, TypeError):
            return False

    return check


def _error_exit(code: int, payload: str) -> bool:
    return code == 2 and payload.startswith("error:")


def _load_goldens(root: Path):
    table1 = json.loads((root / "goldens" / "table1.json").read_text())
    table2 = json.loads((root / "goldens" / "table2.json").read_text())
    return table1, table2


# ---------------------------------------------------------------- tables


def _lefschetz_md(row) -> str:
    lines = [f"status: {row['status']}"]
    if row["status"] != "nonexistent":
        lines += [
            f"isolated points M: {row['M']}",
            f"curve genus g: {row['g']}",
            f"curve count N: {row['N']}",
            "holomorphic Lefschetz = -zeta: true",
            "topological identity: true",
        ]
    return "\n".join(lines)


def _lefschetz_json_ok(rho, s, row):
    flag = None if row["status"] == "nonexistent" else True

    def predicate(out):
        return (
            (out["rho"], out["s"]) == (rho, s)
            and (out["status"], out["M"], out["g"], out["N"])
            == (row["status"], row["M"], row["g"], row["N"])
            and out["holomorphic_lefschetz_ok"] is flag
            and out["topological_ok"] is flag
        )

    return _json_ok(0, predicate)


def tables(tri, rng, root: Path, workdir: Path) -> list[list[Op]]:
    """table1, table2, verify-pair on the 31 rows with a complement, and
    lefschetz on all 32 keys in both output formats, seed-shuffled.

    Expected values come from the committed goldens.  The key (14, 8) has
    no complement, so its lefschetz query must exit 2.  The other keys must
    reproduce their table-2 row; both Lefschetz flags are true where a
    fixed locus exists and null where table 2 says "nonexistent".
    """
    table1, table2 = _load_goldens(root)
    by_s = {row["S"]: row for row in table2}
    ops = [
        Op(("table1", "--format", "json"), _json_ok(0, lambda out: out == table1)),
        Op(("table2", "--format", "json"), _json_ok(0, lambda out: out == table2)),
    ]
    for row in table1:
        rho, s = row["rho"], row["s"]
        key = ("lefschetz", "--rho", str(rho), "--s", str(s))
        if row["T"] is None:
            ops.append(Op(key + ("--format", "json"), _error_exit))
            ops.append(Op(key + ("--format", "md"), _error_exit))
            continue
        ops.append(
            Op(
                ("verify-pair", "--s", row["S"], "--t", row["T"], "--format", "json"),
                _json_ok(0, lambda out: out["ok"] is True and all(out["checks"].values())),
            )
        )
        locus = by_s[row["S"]]
        md = _lefschetz_md(locus)
        ops.append(Op(key + ("--format", "json"), _lefschetz_json_ok(rho, s, locus)))
        ops.append(Op(key + ("--format", "md"), lambda c, p, md=md: c == 0 and p == md))
    rng.shuffle(ops)
    return [ops]


# ------------------------------------------------------------- gram-info

# Lattices outside table 1, with their invariants written from their
# definitions (root-lattice determinants and discriminant groups).
_EXTRA_INFO = {
    "K3": (22, [3, 0, 19], -1, []),
    "D4^4": (16, [0, 0, 16], 256, [2] * 8),
    "A1^8": (8, [0, 0, 8], 256, [2] * 8),
    "E7+A1^3": (10, [0, 0, 10], 16, [2] * 4),
    "U(3)^3": (6, [3, 0, 3], -729, [3] * 6),
}

GRAM_INFO_MAX_ORDER = 729
BASES_PER_LATTICE = 4


def _canonical_info(table1):
    """Basis-invariant fields of each canonical expression."""
    info = {}
    for row in table1:
        rho, s = row["rho"], row["s"]
        if row["T"] is None or 3**s > GRAM_INFO_MAX_ORDER:
            continue
        # S has signature (1, rho-1); T has (2, 20-rho); rho is even, so
        # det S = -3^s and det T = +3^s.
        info[row["S"]] = (rho, [1, 0, rho - 1], -(3**s), [3] * s)
        info[row["T"]] = (22 - rho, [2, 0, 20 - rho], 3**s, [3] * s)
    info.update(_EXTRA_INFO)
    return {
        name: {
            "name": name,
            "rank": rank,
            "signature": sig,
            "det": det,
            "even": True,
            "invariant_factors": factors,
            "s": len(factors),
        }
        for name, (rank, sig, det, factors) in info.items()
    }


def _random_unimodular(n: int, rng) -> list[list[int]]:
    """L @ U with L unit lower and U unit upper triangular, off-diagonal
    entries drawn from {-1, 0, 1}.  Entry sizes concentrate, so every seed
    gives dense Gram matrices of about the same size: four to five digits
    at rank 20."""
    lower = [[int(i == j) or (rng.randint(-1, 1) if j < i else 0) for j in range(n)] for i in range(n)]
    upper = [[int(i == j) or (rng.randint(-1, 1) if j > i else 0) for j in range(n)] for i in range(n)]
    return [[sum(lower[i][k] * upper[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _congruent(gram, p) -> list[list[int]]:
    """p^T gram p."""
    n = len(gram)
    gp = [[sum(gram[i][k] * p[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return [[sum(p[k][i] * gp[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def _write_lattice(workdir: Path, stem: str, name: str, gram) -> str:
    path = workdir / f"{stem}.json"
    path.write_text(json.dumps({"name": name, "gram": gram}))
    return str(path)


_INFO_FIELDS = ("name", "rank", "signature", "det", "even", "invariant_factors", "s")


def gram_info(tri, rng, root: Path, workdir: Path) -> list[list[Op]]:
    """``lattice <file>.json --format json`` on Gram matrices rewritten in
    seed-drawn random unimodular bases.

    Every lattice appears in BASES_PER_LATTICE distinct bases, and half as
    many queries again repeat an earlier file verbatim, so a third of all
    queries are repeats.
    """
    table1, _ = _load_goldens(root)
    expected = _canonical_info(table1)
    unique = []
    for k, name in enumerate(expected):
        gram = [list(row) for row in tri.catalog.parse_expr(name).gram.entries]
        seen = {json.dumps(gram)}
        for b in range(BASES_PER_LATTICE):
            while True:
                moved = _congruent(gram, _random_unimodular(len(gram), rng))
                if json.dumps(moved) not in seen:
                    break
            seen.add(json.dumps(moved))
            path = _write_lattice(workdir, f"g{k:02d}b{b}", name, moved)
            want = expected[name]
            check = _json_ok(0, lambda out, want=want: all(out[f] == want[f] for f in _INFO_FIELDS))
            unique.append(Op(("lattice", path, "--format", "json"), check))
    rng.shuffle(unique)
    ops = list(unique)
    for op in rng.sample(unique, len(unique) // 2):
        first = ops.index(op)
        ops.insert(rng.randint(first + 1, len(ops)), Op(op.argv, op.check, repeat=True))
    return [ops]


# --------------------------------------------------------- order3-search

# (expression, has a witness, conjugates per pass).  Both percentiles sit
# inside a block of like costs: the median among the ~3 ms searches of A2
# and A2(3), the 90th percentile in the middle of the D4(3) block, with
# A5 and D5 above it.  The witness half takes about 55% of a pass, the
# whole-group half about 45%.  The rank-6 lattices A2^2+A1^2, A2^3 and
# A2(3)^3 are left out: at 1 to 4 s per search they made a pass so long
# that a run held too few passes for a steady median.
ORDER3_LATTICES = (
    ("A2", True, 10),
    ("A2^2", True, 1),
    ("A3", True, 4),
    ("A4", True, 1),
    ("A5", True, 2),
    ("D4", True, 5),
    ("D5", True, 1),
    ("A2+A2(3)", True, 1),
    ("A2(3)", False, 20),
    ("A2(3)^2", False, 1),
    ("D4(3)", False, 6),
    ("A1^4", False, 3),
)
# Each variant conjugates every lattice afresh; pass k runs variant k mod
# ORDER3_VARIANTS, so a run averages the search cost over many enumeration
# orders instead of depending on the one the seed happened to draw.
ORDER3_VARIANTS = 6


def _signed_permutation(n: int, rng) -> list[list[int]]:
    perm = list(range(n))
    rng.shuffle(perm)
    return [[rng.choice((-1, 1)) if perm[j] == i else 0 for j in range(n)] for i in range(n)]


def order3_search(tri, rng, root: Path, workdir: Path) -> list[list[Op]]:
    """``search-order3`` on definite lattices of rank <= 5, each conjugated
    by a seed-drawn signed permutation: norms and the answer stay, the
    enumeration order changes.  All variants run the lattices in the same
    seed-shuffled order, so passes differ only in the conjugates."""
    slots = [(k, name, found) for k, (name, found, copies) in enumerate(ORDER3_LATTICES)
             for _ in range(copies)]
    rng.shuffle(slots)
    grams = {name: [list(row) for row in tri.catalog.parse_expr(name).gram.entries]
             for name, _, _ in ORDER3_LATTICES}
    variants = []
    for v in range(ORDER3_VARIANTS):
        ops = []
        for i, (k, name, found) in enumerate(slots):
            gram = grams[name]
            moved = _congruent(gram, _signed_permutation(len(gram), rng))
            path = _write_lattice(workdir, f"v{v}s{i:03d}o{k:02d}", name, moved)
            check = _json_ok(0, lambda out, found=found: out["found"] is found)
            ops.append(Op(("search-order3", "--lattice", path, "--format", "json"), check))
        variants.append(ops)
    return variants


WORKLOADS = {"tables": tables, "gram-info": gram_info, "order3-search": order3_search}
