"""The command line, byte for byte.

Every command of the corpus below must reproduce the exit code and payload
recorded in ``goldens/cli.json``: both tables in every format, the pair
checks and Lefschetz queries of every table-1 row, ``lattice`` on catalog
names, on every table-1 lattice and on twelve of them in dense bases, the
order-3 searches and witnesses, and the invalid-input cases.  Input files
are written to a fresh directory, which the corpus and the golden payloads
call ``{dir}``.

The dense bases in ``goldens/dense_bases.json`` are P^T G P for a canonical
Gram matrix G and P = L U, with L and U unit triangular and off-diagonal
entries drawn from {-1, 0, 1} (``random.Random(9)``).  On each of them the
generators of the discriminant group differ from those of the canonical
basis.  The recorded ``q_on_generators`` pins the generators that the
least-valuation elimination of the modular Smith normal form picks, and,
on a determinant of several primes, their Chinese remainder joins; it is
not an invariant of the lattice.

After a deliberate change of output, regenerate the golden file with

    PYTHONPATH=src python tests/test_cli_golden.py > goldens/cli.json

CI runs this recipe and requires the committed file to match it byte for
byte.
"""

import json
import sys
import tempfile
from pathlib import Path

from trielem.cli import run

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = ROOT / "goldens" / "cli.json"
TABLE1 = json.loads((ROOT / "goldens" / "table1.json").read_text())
DENSE = json.loads((ROOT / "goldens" / "dense_bases.json").read_text())

FILES = {
    # the order-3 witnesses on U(3)+U and U+U, and a shear that is no isometry
    "u3_u.json": {"matrix": [[-2, 0, -1, 0], [0, 1, 0, -1], [3, 0, 1, 0], [0, 3, 0, -2]]},
    "u_u.json": {"matrix": [[1, 0, -3, 0], [0, -2, 0, -1], [1, 0, -2, 0], [0, 3, 0, 1]]},
    "shear.json": {"matrix": [[1, 1], [0, 1]]},
    "u.json": {"name": "U", "gram": [[0, 1], [1, 0]]},
    "true.json": {"gram": [[True, 1], [1, 0]]},
    "ragged.json": {"gram": [[0, 1], [1]]},
    "rank65.json": {"gram": [[-2] * 65 for _ in range(65)]},
}

CATALOG = ("U", "A1", "A2", "A8", "D4", "D5", "E6", "E7", "E8", "E6*(3)", "K3")

# Parse errors with their offsets, unknown names, and ranks above the cap.
BAD_EXPRESSIONS = (
    "",
    "U+",
    "U(3",
    "U(0)",
    "A2(x)",
    "A2^0",
    "U x",
    "U(3))",
    "E6*",
    "B2",
    "A0",
    "D3",
    "A65",
    "U^65",
)


def corpus() -> list[list[str]]:
    commands = [
        [table, "--format", fmt] for table in ("table1", "table2") for fmt in ("md", "json", "csv")
    ]
    lattices = list(CATALOG) + ["{dir}/u.json"]
    for row in TABLE1:
        for name in (row["S"], row["T"]):
            if name and name not in lattices:
                lattices.append(name)
        if row["T"]:
            for fmt in ("md", "json"):
                commands.append(["verify-pair", "--s", row["S"], "--t", row["T"], "--format", fmt])
        for fmt in ("md", "json"):
            commands.append(["lefschetz", "--rho", str(row["rho"]), "--s", str(row["s"]), "--format", fmt])
    commands.append(["verify-pair", "--s", "U", "--t", "U^2+E8", "--format", "md"])
    for fmt in ("md", "json"):
        commands += [["lattice", name, "--format", fmt] for name in lattices]
        commands += [["search-order3", "--lattice", name, "--format", fmt] for name in ("A2", "A2(3)", "D4")]
        for lattice, matrix in (("U(3)+U", "u3_u"), ("U+U", "u_u"), ("U", "shear")):
            commands.append(["isometry", "--lattice", lattice, "--matrix", f"{{dir}}/{matrix}.json", "--format", fmt])
    commands += [["lattice", f"{{dir}}/{name}", "--format", "json"] for name in DENSE]
    commands += [["lattice", expr] for expr in BAD_EXPRESSIONS]
    commands += [["lattice", f"{{dir}}/{name}.json"] for name in ("true", "ragged", "rank65", "missing")]
    commands += [
        ["verify-pair", "--s", "U", "--t", "F4"],
        ["lefschetz", "--rho", "4", "--s", "0"],
        ["search-order3", "--lattice", "U"],
    ]
    return commands


def record(directory: Path) -> list[dict]:
    """Run the corpus with its input files written to ``directory``."""
    for name, data in {**FILES, **DENSE}.items():
        (directory / name).write_text(json.dumps(data))
    records = []
    for argv in corpus():
        result = run([arg.replace("{dir}", str(directory)) for arg in argv])
        payload = result.payload.replace(str(directory), "{dir}")
        records.append({"argv": argv, "exit_code": result.exit_code, "payload": payload})
    return records


def test_cli_output_matches_golden(tmp_path):
    golden = json.loads(GOLDEN.read_text())
    fresh = record(tmp_path)
    assert [r["argv"] for r in fresh] == [r["argv"] for r in golden]
    changed = [f["argv"] for f, g in zip(fresh, golden) if f != g]
    assert not changed, f"{len(changed)} commands changed output, first {changed[:5]}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        json.dump(record(Path(scratch)), sys.stdout, indent=1, ensure_ascii=False)
    print()
