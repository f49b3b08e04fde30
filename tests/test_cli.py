import json
import os
import random
import signal
import subprocess
import sys
import time
import zlib
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from trielem.catalog import parse_expr
from trielem.classify import verify_pair
from trielem.cli import main, run
from trielem.isometry import SEARCH_BUDGET
from trielem.lattice import discriminant_group
from trielem.linalg import Matrix, determinant, signature

from test_isometry import dense_conjugate

GOLDENS = Path(__file__).resolve().parents[1] / "goldens"

# JSON nesting depth far beyond the parser's recursion limit
DEEP = 200_000


def lattice_fingerprint(expr):
    lat = parse_expr(expr)
    group = discriminant_group(lat)
    return (
        lat.rank,
        signature(lat.gram),
        abs(determinant(lat.gram)),
        group.invariant_factors,
    )


class TestTables:
    def test_table1_json_roundtrip(self):
        result = run(["table1", "--format", "json"])
        assert result.exit_code == 0
        rows = json.loads(result.payload)
        assert len(rows) == 32
        assert sum(r["exists"] for r in rows) == 31
        # re-verify a sample of parsed rows end to end
        for row in rows[:6]:
            if row["exists"]:
                report = verify_pair(parse_expr(row["S"]), parse_expr(row["T"]))
                assert report.ok, (row, report.failures())

    def test_table2_json(self):
        result = run(["table2", "--format", "json"])
        assert result.exit_code == 0
        rows = json.loads(result.payload)
        assert len(rows) == 31
        assert sum(r["status"] != "nonexistent" for r in rows) == 24
        assert sum(r["status"] == "nonexistent" for r in rows) == 7

    def test_byte_identical_reruns(self):
        for argv in (
            ["table1"],
            ["table1", "--format", "json"],
            ["table2", "--format", "csv"],
            ["lattice", "U(3)+A2", "--format", "json"],
        ):
            assert run(argv) == run(argv)

    def test_csv_headers(self):
        t1 = run(["table1", "--format", "csv"]).payload.splitlines()
        assert t1[0] == "rho,s,S,T,exists"
        assert len(t1) == 33
        t2 = run(["table2", "--format", "csv"]).payload.splitlines()
        assert t2[0] == "S,status,M,g,N"
        assert len(t2) == 32

    def test_markdown_table2_mentions_special_row(self):
        payload = run(["table2"]).payload
        assert "{pt} × 3" in payload

    def test_goldens_match_by_invariants(self):
        golden = json.loads((GOLDENS / "table1.json").read_text())
        fresh = json.loads(run(["table1", "--format", "json"]).payload)
        assert len(golden) == len(fresh)
        for g_row, f_row in zip(golden, fresh):
            assert (g_row["rho"], g_row["s"], g_row["exists"]) == (
                f_row["rho"],
                f_row["s"],
                f_row["exists"],
            )
            assert lattice_fingerprint(g_row["S"]) == lattice_fingerprint(f_row["S"])
            if g_row["exists"]:
                assert lattice_fingerprint(g_row["T"]) == lattice_fingerprint(
                    f_row["T"]
                )
        golden2 = json.loads((GOLDENS / "table2.json").read_text())
        fresh2 = json.loads(run(["table2", "--format", "json"]).payload)
        assert golden2 == fresh2


class TestLatticeInfo:
    def test_u3_info(self):
        result = run(["lattice", "U(3)", "--info", "--format", "json"])
        assert result.exit_code == 0
        info = json.loads(result.payload)
        assert info["rank"] == 2
        assert info["det"] == -9
        assert info["even"] is True
        assert info["signature"] == [1, 0, 1]
        assert info["invariant_factors"] == [3, 3]
        assert info["s"] == 2

    def test_text_info(self):
        result = run(["lattice", "U(3)"])
        assert result.exit_code == 0
        assert "signature: (1, 1)" in result.payload
        assert "det: -9" in result.payload

    def test_json_file_input(self, tmp_path):
        path = tmp_path / "lat.json"
        path.write_text(json.dumps({"name": "plane", "gram": [[0, 1], [1, 0]]}))
        result = run(["lattice", str(path), "--format", "json"])
        assert result.exit_code == 0
        assert json.loads(result.payload)["det"] == -1

    def test_parse_error_is_exit_2(self):
        assert run(["lattice", "U+"]).exit_code == 2
        assert run(["lattice", "Q7"]).exit_code == 2

    def test_expression_not_read_from_file(self, tmp_path, monkeypatch):
        # only a .json suffix selects a file, so a file named U is ignored
        (tmp_path / "U").write_text(json.dumps({"name": "one", "gram": [[2]]}))
        monkeypatch.chdir(tmp_path)
        info = json.loads(run(["lattice", "U", "--format", "json"]).payload)
        assert (info["name"], info["rank"]) == ("U", 2)

    def test_rank_cap_is_exit_2(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"gram": [[0] * 65] * 65}))
        for spec in ("A65", str(path)):
            result = run(["lattice", spec])
            assert result.exit_code == 2, spec
            assert "exceeds the limit of 64" in result.payload

    def test_determinant_past_the_printing_limit_exits_2(self):
        limit = sys.get_int_max_str_digits()
        error = f"error: det has more than {limit} digits, the limit for printing an integer"
        for expr in ("A1(" + "9" * 100 + ")^64", "A2" + "(3)" * 5000):
            for fmt in ("md", "json"):
                result = run(["lattice", expr, "--format", fmt])
                assert (result.exit_code, result.payload) == (2, error), (expr[:8], fmt)
        # det(A1(m)) = -2m: limit digits print, one more does not
        fits = run(["lattice", f"A1(1{'0' * (limit - 1)})"])
        assert fits.exit_code == 0
        assert f"det: -2{'0' * (limit - 1)}" in fits.payload
        assert run(["lattice", f"A1(5{'0' * (limit - 1)})"]).payload == error

    def test_deeply_nested_file_exits_2(self, tmp_path):
        # json.loads raises RecursionError, not a decode error, on this
        path = tmp_path / "deep.json"
        path.write_text("[" * DEEP + "]" * DEEP)
        result = run(["lattice", str(path)])
        assert result.exit_code == 2
        assert result.payload == f"error: {path}: JSON nested too deeply"

    def test_large_group_needs_no_enumeration(self):
        # |A| = 3^22; the form is read off its generators
        start = time.perf_counter()
        result = run(["lattice", "U(3)^11"])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 0
        assert "q on generators: [" + ", ".join(["0"] * 22) + "]" in result.payload
        # rank 64, at the cap: the signature is one cubic elimination
        for expr, sig in (("A64", "(0, 64)"), ("U^32", "(32, 32)")):
            start = time.perf_counter()
            result = run(["lattice", expr])
            assert time.perf_counter() - start < 1.0, expr
            assert result.exit_code == 0, expr
            assert f"signature: {sig}" in result.payload, expr

    def test_dense_bases_up_to_the_rank_cap(self, tmp_path):
        # the discriminant group's elimination runs modulo det^2, so the
        # entries of a dense basis stay below det^2 in size
        rng = random.Random(3)
        cases = (
            ("U^3+E8^4", (3, 0, 35), -1, []),
            ("U(3)^4+E8^5", (4, 0, 44), 3**8, [3] * 8),
            ("A2^32", (0, 0, 64), 3**32, [3] * 32),
        )
        for expr, sig, det, factors in cases:
            n = parse_expr(expr).rank
            # P = L @ R, L unit lower and R unit upper triangular
            low = [
                [int(i == j) or (rng.randint(-1, 1) if j < i else 0) for j in range(n)]
                for i in range(n)
            ]
            up = [
                [int(i == j) or (rng.randint(-1, 1) if j > i else 0) for j in range(n)]
                for i in range(n)
            ]
            p = Matrix(low) @ Matrix(up)
            gram = p.transpose() @ parse_expr(expr).gram @ p
            path = tmp_path / f"rank{n}.json"
            path.write_text(json.dumps({"name": expr, "gram": [list(r) for r in gram.entries]}))
            start = time.perf_counter()
            result = run(["lattice", str(path), "--format", "json"])
            assert time.perf_counter() - start < 1.0, expr
            info = json.loads(result.payload)
            assert (info["rank"], tuple(info["signature"]), info["det"]) == (n, sig, det), expr
            assert info["invariant_factors"] == factors, expr
            assert len(info["q_on_generators"]) == len(factors), expr


class TestVerifyPair:
    def test_good_pair(self):
        result = run(["verify-pair", "--s", "U", "--t", "U^2+E8^2"])
        assert result.exit_code == 0
        assert "result: verified" in result.payload

    def test_failing_pair(self):
        result = run(["verify-pair", "--s", "U", "--t", "U+U(3)+E8^2"])
        assert result.exit_code == 1
        assert "determinants: FAIL" in result.payload

    def test_json_format(self):
        result = run(
            ["verify-pair", "--s", "U+E6", "--t", "U^2+E8+A2", "--format", "json"]
        )
        assert result.exit_code == 0
        assert json.loads(result.payload)["ok"] is True

    def test_determinant_past_the_printing_limit_exits_2(self):
        limit = sys.get_int_max_str_digits()
        huge = "U+A2" + "(3)" * 5000
        for side, args in (("S", ["--s", huge, "--t", "U"]), ("T", ["--s", "U", "--t", huge])):
            for fmt in ("md", "json"):
                result = run(["verify-pair", *args, "--format", fmt])
                assert (result.exit_code, result.payload) == (
                    2,
                    f"error: det {side} has more than {limit} digits, the limit for printing an integer",
                ), (side, fmt)

    def test_gauss_sum_element_budget(self):
        # A1^16 has 2^16 elements, the most the Gauss sum of a group that
        # is not 3-elementary may run over, and keeps its report
        result = run(["verify-pair", "--s", "A1^16", "--t", "A1", "--format", "json"])
        assert result.exit_code == 1
        passing = {"even_S", "even_T", "nondegenerate", "milgram_S", "milgram_T"}
        assert json.loads(result.payload) == {
            "ok": False,
            "checks": {
                name: name in passing
                for name in (
                    "rank_sum", "signature_S", "signature_T", "even_S", "even_T",
                    "nondegenerate", "determinants", "invariant_factors",
                    "opposite_forms", "milgram_S", "milgram_T",
                )
            },
            "details": {
                "determinants": "|det S| = 65536, |det T| = 2, expected 3^16",
                "opposite_forms": "both forms must live on 3-elementary groups",
            },
        }
        # A1^64, inside the rank cap, would sum over 2^64 elements
        start = time.perf_counter()
        result = run(["verify-pair", "--s", "A1^64", "--t", "A1"])
        assert time.perf_counter() - start < 1.0
        assert result.exit_code == 2
        assert "18446744073709551616 elements" in result.payload

    @pytest.mark.parametrize(
        ("s_expr", "reason"),
        [
            # 2^16 elements, inside the element limit, but m = 2^18
            ("A1(32768)", "is taken in the cyclotomic field of order 262144"),
            ("A1(1000000)", "runs over all 2000000 elements"),
            # a determinant of 2,865 digits, below the printing limit, and
            # an order printed by its leading digits and length
            ("A2(3)" + "(3)" * 3000, "runs over all 1441757044... (2865 digits) elements"),
        ],
        ids=["A1(32768)", "A1(1000000)", "A2(3)(3)x3000"],
    )
    def test_milgram_refuses_a_large_group_at_once(self, s_expr, reason):
        # in a subprocess with a timeout first, so a hang fails here
        src = str(Path(__file__).resolve().parents[1] / "src")
        path = os.environ.get("PYTHONPATH")
        env = dict(os.environ, PYTHONPATH=f"{src}{os.pathsep}{path}" if path else src)
        argv = ["verify-pair", "--s", s_expr, "--t", "U"]
        proc = subprocess.run(
            [sys.executable, "-m", "trielem.cli", *argv],
            capture_output=True,
            text=True,
            env=env,
            timeout=30,
        )
        assert (proc.returncode, proc.stdout) == (2, "")
        assert proc.stderr.startswith("error: the Gauss sum of a group ")
        assert reason in proc.stderr
        assert "above the limit of" in proc.stderr
        assert len(proc.stderr) < 200
        start = time.perf_counter()
        assert run(argv).exit_code == 2
        assert time.perf_counter() - start < 1.0


class TestIsometryCommand:
    def test_witness(self, tmp_path):
        path = tmp_path / "mat.json"
        path.write_text(
            json.dumps(
                {
                    "matrix": [
                        [-2, 0, -1, 0],
                        [0, 1, 0, -1],
                        [3, 0, 1, 0],
                        [0, 3, 0, -2],
                    ]
                }
            )
        )
        result = run(
            [
                "isometry",
                "--lattice",
                "U(3)+U",
                "--matrix",
                str(path),
                "--format",
                "json",
            ]
        )
        assert result.exit_code == 0
        info = json.loads(result.payload)
        assert info == {
            "isometry": True,
            "order": 3,
            "discriminant_action_trivial": True,
        }

    def test_non_isometry_exits_1(self, tmp_path):
        path = tmp_path / "mat.json"
        path.write_text(json.dumps({"matrix": [[1, 1], [0, 1]]}))
        result = run(["isometry", "--lattice", "U", "--matrix", str(path)])
        assert result.exit_code == 1

    def test_missing_file_exits_2(self):
        result = run(["isometry", "--lattice", "U", "--matrix", "no-such-file.json"])
        assert result.exit_code == 2

    def test_deeply_nested_matrix_exits_2(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * DEEP + "]" * DEEP)
        result = run(["isometry", "--lattice", "U", "--matrix", str(path)])
        assert result.exit_code == 2
        assert result.payload == f"error: {path}: JSON nested too deeply"

    def test_matrix_above_rank_cap_exits_2(self, tmp_path):
        path = tmp_path / "big.json"
        path.write_text(json.dumps({"matrix": [[0] * 65] * 65}))
        result = run(["isometry", "--lattice", "U", "--matrix", str(path)])
        assert result.exit_code == 2
        assert result.payload == 'error: "matrix": rank 65 exceeds the limit of 64'


class TestSearchOrder3:
    def test_found(self):
        result = run(["search-order3", "--lattice", "A2", "--format", "json"])
        assert result.exit_code == 0
        assert json.loads(result.payload)["found"] is True

    def test_not_found(self):
        result = run(["search-order3", "--lattice", "A2(3)", "--format", "json"])
        assert result.exit_code == 0
        assert json.loads(result.payload)["found"] is False

    def test_indefinite_is_invalid_input(self):
        assert run(["search-order3", "--lattice", "U"]).exit_code == 2

    def test_exceptional_root_lattices_answer_from_a_root_pair(self):
        # their groups have 103,680 to 696,729,600 elements; two roots answer
        for expr in ("E6", "E7", "E8"):
            start = time.perf_counter()
            result = run(["search-order3", "--lattice", expr, "--format", "json"])
            assert time.perf_counter() - start < 1.0, expr
            assert result.exit_code == 0, expr
            assert json.loads(result.payload)["found"] is True, expr

    def test_searches_without_a_root_pair_answer_none(self):
        # their groups have 10,321,920 (A1^8), 696,729,600 (E8(3)), 497,664
        # (A2(3)^4), 103,680 (E6*(3)) and 2,903,040 (E7(3)) elements; only
        # those trivial on the discriminant group are listed, 256 for A1^8
        # and 1 for E6*(3), and at Gram content 3 none need be
        for expr in ("A1^8", "E8(3)", "A2(3)^4", "E6*(3)", "E7(3)"):
            start = time.perf_counter()
            result = run(["search-order3", "--lattice", expr, "--format", "json"])
            assert time.perf_counter() - start < 1.0, expr
            assert result.exit_code == 0, expr
            assert json.loads(result.payload)["found"] is False, expr

    def test_dense_bases_of_content_3_answer_none(self, tmp_path):
        # the Gram content (gcd of the entries) is 3 in every basis, so only
        # the identity acts trivially on the discriminant group; in these
        # bases the whole-group search of dense E8(3) ran past the budget
        for expr in ("E8(3)", "E7(3)", "D4(3)", "A2(3)^4"):
            for seed in (1, 2, 3):
                moved = dense_conjugate(parse_expr(expr), random.Random(seed), steps=3)
                path = tmp_path / f"dense-{seed}.json"
                path.write_text(json.dumps({"gram": [list(row) for row in moved.gram.entries]}))
                start = time.perf_counter()
                result = run(["search-order3", "--lattice", str(path), "--format", "json"])
                assert time.perf_counter() - start < 1.0, (expr, seed)
                assert result.exit_code == 0, (expr, seed)
                assert json.loads(result.payload)["found"] is False, (expr, seed)

    def test_searches_past_the_budget_exit_2(self, tmp_path):
        # A1^7+A1(1000) has over 10^8 vectors of its last basis norm; in the
        # seeded dense bases of A1^8 (content 2) and A1^4+D4(3) (content 1)
        # the long basis vectors have too many candidates
        cases = [("A1^7+A1(1000)", "A1^7+A1(1000)")]
        for expr, seed, steps in (("A1^8", 0, 4), ("A1^4+D4(3)", 2, 3)):
            moved = dense_conjugate(parse_expr(expr), random.Random(seed), steps=steps)
            path = tmp_path / f"dense-{seed}.json"
            path.write_text(json.dumps({"gram": [list(row) for row in moved.gram.entries]}))
            cases.append((expr, str(path)))
        for expr, spec in cases:
            start = time.perf_counter()
            result = run(["search-order3", "--lattice", spec])
            assert time.perf_counter() - start < 2.0, expr
            assert result.exit_code == 2, expr
            assert result.payload.startswith("error: the search takes at least "), expr
            assert result.payload.endswith(f"above the limit of {SEARCH_BUDGET}"), expr


class TestLefschetzCommand:
    def test_rank2_key(self):
        result = run(["lefschetz", "--rho", "2", "--s", "0", "--format", "json"])
        assert result.exit_code == 0
        info = json.loads(result.payload)
        assert info["status"] == "generic"
        assert (info["M"], info["g"], info["N"]) == (0, 5, 2)
        assert info["holomorphic_lefschetz_ok"] is True
        assert info["topological_ok"] is True

    def test_special_key(self):
        result = run(["lefschetz", "--rho", "8", "--s", "7", "--format", "json"])
        info = json.loads(result.payload)
        assert info["status"] == "special_three_points"
        assert info["holomorphic_lefschetz_ok"] is True

    def test_nonexistent_key(self):
        result = run(["lefschetz", "--rho", "10", "--s", "8", "--format", "json"])
        assert result.exit_code == 0
        assert json.loads(result.payload)["status"] == "nonexistent"

    def test_unclassified_key_exits_2(self):
        assert run(["lefschetz", "--rho", "6", "--s", "0"]).exit_code == 2


class TestDriver:
    def test_unknown_subcommand(self, capsys):
        assert run(["frobnicate"]).exit_code == 2
        capsys.readouterr()

    def test_unknown_flag(self, capsys):
        assert run(["table1", "--nope"]).exit_code == 2
        capsys.readouterr()

    def test_main_exit_codes(self, capsys):
        assert main(["lattice", "U"]) == 0
        out = capsys.readouterr()
        assert "rank: 2" in out.out
        assert main(["lattice", "U+"]) == 2
        out = capsys.readouterr()
        assert "error" in out.err

    def test_module_entry_point(self):
        proc = subprocess.run(
            [sys.executable, "-m", "trielem.cli", "table1", "--format", "csv"],
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "rho,s,S,T,exists"


# Every catalog name, the scales and powers a term may carry, and Gram
# entries whose products give determinants over two or more primes, some
# of them above 2^16.
NAMES = ("U", "A1", "A2", "A3", "A8", "D4", "D5", "E6", "E7", "E8", "E6*", "K3")
SCALES = (-1, 2, 3, -3, 6, 9, 1000, 65537)
ENTRIES = st.one_of(st.integers(-9, 9), st.sampled_from((6, 10, 15, 65537, 65539, 65537 * 65539)))
# Seconds one command may take.  The slowest valid ones sum q over up to
# MAX_GAUSS_ELEMENTS group elements, or spend the search budget.
COMMAND_SECONDS = 10


class Overran(BaseException):
    """Raised by the alarm; cli.run catches no BaseException."""


term = st.builds(
    lambda name, scales, power: name + "".join(f"({k})" for k in scales) + power,
    st.sampled_from(NAMES),
    st.lists(st.sampled_from(SCALES), max_size=2),
    st.one_of(st.just(""), st.integers(1, 64).map(lambda k: f"^{k}")),
)
expressions = st.lists(term, min_size=1, max_size=3).map("+".join)


@st.composite
def gram_matrices(draw):
    n = draw(st.integers(1, 4))
    rows = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = draw(ENTRIES)
    return rows


@st.composite
def commands(draw, directory):
    """An argv for lattice, verify-pair or search-order3 on catalog
    expressions and JSON Gram files, or for lefschetz on small keys."""
    def operand():
        if draw(st.booleans()):
            return draw(expressions)
        text = json.dumps({"gram": draw(gram_matrices())})
        path = directory / f"{zlib.crc32(text.encode()):08x}.json"
        path.write_text(text)
        return str(path)

    kind = draw(st.sampled_from(("lattice", "verify-pair", "search-order3", "lefschetz")))
    fmt = ["--format", draw(st.sampled_from(("md", "json")))]
    if kind == "lattice":
        return ["lattice", operand(), *fmt]
    if kind == "verify-pair":
        return ["verify-pair", "--s", operand(), "--t", operand(), *fmt]
    if kind == "search-order3":
        return ["search-order3", "--lattice", operand(), *fmt]
    return ["lefschetz", "--rho", str(draw(st.integers(-2, 24))), "--s", str(draw(st.integers(-1, 23))), *fmt]


@pytest.fixture(scope="module")
def gram_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("grams")


# A fixed seed and example count: about 2 s on a 2-core x86 host.
@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_every_command_answers(gram_dir, data):
    # exit 0, 1 or 2 and no exception, within COMMAND_SECONDS; the alarm
    # interrupts a hang
    argv = data.draw(commands(gram_dir))

    def overran(signum, frame):
        raise Overran(f"{argv} ran past {COMMAND_SECONDS} s")

    previous = signal.signal(signal.SIGALRM, overran)
    signal.setitimer(signal.ITIMER_REAL, COMMAND_SECONDS)
    try:
        result = run(argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    assert result.exit_code in (0, 1, 2), argv
