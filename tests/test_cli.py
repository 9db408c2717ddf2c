"""CLI behaviour: commands, formats, exit codes, golden table."""

import io
import json
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import MALFORMED_PAYLOADS, record_decompositions, record_picks
from schrijver import SchrijverGraph, cli, suites
from schrijver.cli import main
from schrijver.cyclic import CycleParams, StableSet, enumerate_stable_sets, mask_of, parse_set_text

DATA = Path(__file__).parent / "data"
GOLDEN = DATA / "table_k5.csv"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_enumerate_counts(capsys):
    code, out = run(capsys, "enumerate", "--n", "7", "--k", "3")
    assert code == 0
    assert out.splitlines() == [
        "1,3,5",
        "1,3,6",
        "1,4,6",
        "2,4,6",
        "2,4,7",
        "2,5,7",
        "3,5,7",
    ]
    code, out = run(capsys, "enumerate", "--n", "9", "--k", "4")
    assert code == 0 and len(out.splitlines()) == 9


def test_enumerate_empty_graph_exits_zero(capsys):
    code, out = run(capsys, "enumerate", "--n", "5", "--k", "3")
    assert code == 0 and out == ""


def test_enumerate_json(capsys):
    code, out = run(capsys, "enumerate", "--n", "7", "--k", "3", "--format", "json")
    assert code == 0
    assert json.loads(out)[0] == "1,3,5"


@pytest.mark.parametrize("fmt", ["plain", "json"])
def test_enumerate_builds_no_stable_set(capsys, monkeypatch, fmt):
    # the text of one StableSet per vertex, as the command wrote it before
    texts = [str(v) for v in enumerate_stable_sets(CycleParams(11, 4))]
    expected = json.dumps(texts) + "\n" if fmt == "json" else "".join(f"{t}\n" for t in texts)
    built = []
    monkeypatch.setattr(StableSet, "__post_init__", lambda self: built.append(self))
    monkeypatch.setattr(cli, "_ENUMERATE_CHUNK", 16)  # 55 vertices: four chunks, one short
    assert run(capsys, "enumerate", "--n", "11", "--k", "4", "--format", fmt) == (0, expected)
    assert not built


def test_distance_examples(capsys):
    code, out = run(
        capsys, "distance", "--n", "10", "--k", "4", "--a", "1,3,5,7", "--b", "1,3,6,8"
    )
    assert (code, out) == (0, "3\n")
    code, out = run(
        capsys, "distance", "--n", "10", "--k", "4", "--a", "1,3,6,8", "--b", "1,4,6,9"
    )
    assert (code, out) == (0, "2\n")
    code, out = run(
        capsys, "distance", "--n", "10", "--k", "4", "--a", "1,3,5,7", "--b", "1,3,5,7"
    )
    assert (code, out) == (0, "0\n")


def test_distance_explain_has_certificate_and_decomposition(capsys):
    code, out = run(
        capsys,
        "distance",
        "--n", "10", "--k", "4",
        "--a", "1,3,5,7", "--b", "1,3,6,8",
        "--explain",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["distance"] == 3
    cert = payload["certificate"]
    assert len(cert["vertices"]) - 1 >= payload["distance"]
    assert payload["decomposition"]["h"] == 2
    assert payload["decomposition"]["distance2"] is False


def test_distance_trace_through_lift(capsys):
    code, out = run(
        capsys,
        "distance",
        "--n", "12", "--k", "5",
        "--a", "1,3,5,7,10", "--b", "1,3,6,8,11",
        "--explain", "--trace",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["distance"] == 4
    assert payload["lift_trace"]["steps"][0]["kind"] == "plus"
    levels = payload["lift_trace"]["levels"]
    assert levels[0]["n"] == 12


EXPLAIN_CASES = {
    "same": (10, 4, "1,3,5,7", "1,3,5,7", 0, None, ()),
    "adjacent": (10, 4, "1,3,5,7", "2,4,6,8", 1, 1, ()),
    "middle-vertex": (10, 4, "1,3,6,8", "1,4,6,9", 2, 2, ()),
    "reduction": (13, 6, "1,3,5,7,9,11", "1,3,5,7,10,12", 4, 9, ()),
    "dist3": (10, 4, "1,3,5,7", "1,3,6,8", 3, 3, ()),
    "lift": (12, 5, "1,3,5,7,10", "1,3,6,8,11", 4, 4, ("--trace",)),
    "walkthrough": (20, 7, "2,8,10,12,15,18,20", "1,6,8,10,12,14,17", 2, 2, ()),
    "lift-p3": (16, 7, "1,3,5,7,9,11,13", "1,3,5,7,10,12,14", 4, 6, ("--trace",)),
    "lift-p4": (18, 8, "1,3,5,7,9,11,13,15", "1,3,5,7,10,12,14,16", 5, 7, ("--trace",)),
    # deep pair: the BFS meets in the middle after 13 alternating expansions
    "far-63-30": (
        63,
        30,
        ",".join(str(i) for i in range(1, 60, 2)),
        "1,3,5,8,10,12,14,16,18,20,22,24,26,28,30,33,35,37,39,41,43,45,47,49,51,53,55,57,60,62",
        14,
        25,
        (),
    ),
}
# A reduction certificate claims 1 + 2|A n B| edges, here more than it uses.
CLAIMED_BOUND = {"far-63-30": 33}


@pytest.mark.parametrize(
    "case,n,k,a,b,distance,edges,flags",
    [(case, *args) for case, args in EXPLAIN_CASES.items()],
    ids=list(EXPLAIN_CASES),
)
def test_distance_explain_certificate_per_regime(
    capsys, tmp_path, case, n, k, a, b, distance, edges, flags
):
    argv = ["distance", "--n", str(n), "--k", str(k), "--a", a, "--b", b, "--explain", *flags]
    code, out = run(capsys, *argv)
    assert code == 0
    assert out == (DATA / "explain" / f"{case}.json").read_text()
    payload = json.loads(out)
    assert payload["distance"] == distance
    if edges is None:
        assert "certificate" not in payload
        return
    cert = payload["certificate"]
    assert len(cert["vertices"]) - 1 == edges >= distance
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    bound = CLAIMED_BOUND.get(case, edges)
    assert run(capsys, "verify-path", "--file", str(path)) == (0, f"ok: {edges} edges within claimed bound {bound}\n")


def test_out_write_failure_exits_1_with_message(capsys, tmp_path):
    code = main(["enumerate", "--n", "4", "--k", "2", "--out", str(tmp_path / "missing" / "x")])
    assert code == 1
    assert capsys.readouterr().err.startswith("schrijver: ")


@pytest.mark.parametrize(
    "argv,message",
    [
        (["table", "--k-max", "x"], "argument --k-max: invalid int value: 'x'"),
        (["diameter", "--k", "3"], "the following arguments are required: --n"),
    ],
)
def test_usage_error_prints_argparse_message(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 1
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("usage: schrijver ")
    assert err[-1] == f"schrijver {argv[0]}: error: {message}"


def test_jobs_is_an_unrecognized_argument(capsys):
    for command in ("table", "scan"):
        with pytest.raises(SystemExit) as exc:
            main([command, "--k-max", "2", "--jobs", "2"])
        assert exc.value.code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines()[-1] == "schrijver: error: unrecognized arguments: --jobs 2"


def test_distance_above_lift_word_cap_falls_back_to_reduction(capsys, tmp_path):
    # SG(52,24) sits in the lift regime (m = 18), but the lift would pass n = 64
    a = "1,3,6,8,10,12,14,16,18,20,22,24,26,28,30,32,34,36,38,40,42,45,47,49"
    b = "2,4,7,9,11,15,18,20,22,24,26,28,30,32,34,36,38,40,42,44,46,48,50,52"
    code, out = run(capsys, "distance", "--n", "52", "--k", "24", "--a", a, "--b", b, "--explain")
    assert code == 0
    payload = json.loads(out)
    assert payload["distance"] == 6
    cert = payload["certificate"]
    assert (cert["vertices"][0], cert["vertices"][-1]) == (a, b)
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(cert))
    edges = len(cert["vertices"]) - 1
    assert run(capsys, "verify-path", "--file", str(path)) == (
        0, f"ok: {edges} edges within claimed bound {cert['claimed_bound']}\n"
    )


def test_distance_builds_no_vertex_list(capsys, monkeypatch):
    built = []

    class Recorded(SchrijverGraph):
        def __init__(self, params):
            super().__init__(params)
            built.append(self)

    monkeypatch.setattr(cli, "SchrijverGraph", Recorded)
    code, _ = run(
        capsys, "distance", "--n", "12", "--k", "5",
        "--a", "1,3,5,7,10", "--b", "1,3,6,8,11", "--explain",
    )
    assert code == 0 and len(built) == 1
    assert "vertices" not in built[0].__dict__


def test_distance_rejects_bad_set_text(capsys):
    code, _ = run(capsys, "distance", "--n", "10", "--k", "4", "--a", "3,1,5,7", "--b", "1,3,6,8")
    assert code == 3
    code, _ = run(capsys, "distance", "--n", "10", "--k", "4", "--a", "1,2,5,7", "--b", "1,3,6,8")
    assert code == 3
    code, _ = run(capsys, "distance", "--n", "10", "--k", "4", "--a", " 1,3,5,7", "--b", "1,3,6,8")
    assert code == 3
    assert main(["distance", "--n", "10", "--k", "4", "--a", "1,3,5,12", "--b", "1,3,6,8"]) == 3
    assert capsys.readouterr().err == "schrijver: element 12 out of range 1..10\n"
    assert main(["distance", "--n", "10", "--k", "4", "--a", "1,3,5,1" + "0" * 4999, "--b", "1,3,6,8"]) == 3
    assert capsys.readouterr().err == "schrijver: bad set text: an element has too many digits\n"


def test_diameter_formula_and_bfs(capsys):
    assert run(capsys, "diameter", "--n", "16", "--k", "7")[1] == "6\n"
    assert run(capsys, "diameter", "--n", "26", "--k", "7")[1] == "2\n"
    assert run(capsys, "diameter", "--n", "9", "--k", "4")[1] == "4\n"
    # interval regime resolves through BFS in auto mode
    code, out = run(capsys, "diameter", "--n", "17", "--k", "7")
    assert (code, out) == (0, "5\n")
    code, out = run(capsys, "diameter", "--n", "17", "--k", "7", "--method", "formula")
    assert (code, out) == (0, "[4..5]\n")
    code, out = run(capsys, "diameter", "--n", "12", "--k", "5", "--method", "bfs", "--format", "json")
    payload = json.loads(out)
    assert payload["lo"] == payload["hi"] == 4
    assert payload["method"] == "bfs"
    assert "witness" in payload


def test_table_matches_golden_file(capsys, tmp_path):
    out_path = tmp_path / "table.csv"
    code, _ = run(capsys, "table", "--k-max", "5", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text() == GOLDEN.read_text()


def test_scan_matches_golden_file(capsys, tmp_path):
    out_path = tmp_path / "scan.csv"
    code, _ = run(capsys, "scan", "--k-max", "5", "--out", str(out_path))
    assert code == 0
    assert out_path.read_text() == (DATA / "scan_k5.csv").read_text()


@pytest.mark.parametrize("command", ["table", "scan"])
def test_capped_cell_fails_before_the_first_diameter(capsys, monkeypatch, command):
    def refuse(self, orbit_reduction=True):
        raise AssertionError(f"computed the diameter of SG{self.params}")

    monkeypatch.setattr(SchrijverGraph, "diameter_bruteforce", refuse)
    code = main([command, "--k-max", "10"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (3, "")
    assert captured.err == (
        "schrijver: SG(37,10) has 11560835 vertices, more than the enumeration cap of 8000000\n"
    )


def test_table_deterministic(capsys):
    _, first = run(capsys, "table", "--k-max", "3")
    _, second = run(capsys, "table", "--k-max", "3")
    assert first == second
    assert first.startswith("# schrijver table v1")


def test_witness_commands(capsys):
    code, out = run(capsys, "witness", "--n", "12", "--k", "5", "--kind", "lower4")
    assert (code, out) == (0, "1,3,5,7,10\n1,3,6,8,11\n")
    code, out = run(
        capsys, "witness", "--n", "10", "--k", "4", "--kind", "dist3", "--format", "json"
    )
    assert out == (DATA / "witness-dist3.json").read_text()
    payload = json.loads(out)
    assert payload["a"] == "1,4,6,8"
    assert payload["certificate"]["claimed_bound"] == 3
    code, _ = run(capsys, "witness", "--n", "13", "--k", "5", "--kind", "lower4")
    assert code == 3


def test_verify_path_roundtrip(capsys, tmp_path):
    code, out = run(
        capsys, "witness", "--n", "10", "--k", "4", "--kind", "dist3", "--format", "json"
    )
    cert = json.loads(out)["certificate"]
    good = tmp_path / "cert.json"
    good.write_text(json.dumps(cert))
    code, out = run(capsys, "verify-path", "--file", str(good))
    assert code == 0 and out.startswith("ok")

    cert["vertices"][1] = "1,2,3,4"
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(cert))
    code, _ = run(capsys, "verify-path", "--file", str(bad))
    assert code == 2

    malformed = tmp_path / "malformed.json"
    malformed.write_text("{}")
    code, _ = run(capsys, "verify-path", "--file", str(malformed))
    assert code == 3


@pytest.mark.parametrize("payload", MALFORMED_PAYLOADS)
def test_verify_path_rejects_malformed_payload(capsys, tmp_path, payload):
    path = tmp_path / "cert.json"
    path.write_text(json.dumps(payload))
    code, _ = run(capsys, "verify-path", "--file", str(path))
    assert code == 3


@pytest.mark.parametrize(
    "raw",
    [pytest.param(b"\xff\xfe{}", id="not-utf8"), pytest.param(b"[" * 200000, id="nested-too-deep")],
)
def test_verify_path_rejects_undecodable_file(capsys, tmp_path, raw):
    path = tmp_path / "cert.json"
    path.write_bytes(raw)
    code, _ = run(capsys, "verify-path", "--file", str(path))
    assert code == 3


def test_verify_path_reads_stdin(capsys, monkeypatch):
    cert = {"n": 10, "k": 4, "claimed_bound": 1, "vertices": ["1,3,5,7", "2,4,6,8"]}
    monkeypatch.setattr("sys.stdin", io.StringIO(json.dumps(cert)))
    assert run(capsys, "verify-path", "--file", "-") == (0, "ok: 1 edges within claimed bound 1\n")


@pytest.mark.parametrize(
    "suite,k_max,line",
    [
        ("blocks", "3", "suite blocks: 1218 checks, pass"),
        ("paths", "3", "suite paths: 1218 checks, pass"),
        ("lift", "5", "suite lift: 108 checks, pass"),
        ("model", "4", "suite model: 422 checks, pass"),
    ],
    ids=["blocks", "paths", "lift", "model"],
)
def test_verify_suite_passes(capsys, suite, k_max, line):
    code, out = run(capsys, "verify", "--suite", suite, "--k-max", k_max)
    assert code == 0
    assert out == line + "\n"


@pytest.mark.parametrize("suite,k_max", [("lift", "4"), ("model", "2"), ("blocks", "1")])
def test_verify_without_checks_exits_3(capsys, suite, k_max):
    assert main(["verify", "--suite", suite, "--k-max", k_max]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"schrijver: suite {suite} runs no check at --k-max {k_max}\n"


@pytest.mark.parametrize("command,k_max", [("table", "1"), ("scan", "0")])
def test_empty_table_grid_exits_3(capsys, command, k_max):
    assert main([command, "--k-max", k_max]) == 3
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"schrijver: the table grid needs k_max >= 2, got {k_max}\n"


def test_verify_suite_reports_counterexamples(capsys, monkeypatch, tmp_path):
    # a criterion that always answers wrongly fails every one of the 1218 pairs
    real = suites.distance2_criterion
    monkeypatch.setattr(suites, "distance2_criterion", lambda d: not real(d))
    code, out = run(capsys, "verify", "--suite", "blocks", "--k-max", "3")
    assert code == 2
    lines = out.splitlines()
    assert lines[0] == "suite blocks: 1218 checks, FAIL (1218 violations)"
    assert len(lines) == 1 + 12
    assert all(
        line.startswith("  counterexample: SG(") and "distance-2 criterion" in line
        for line in lines[1:]
    )
    # with --out the failing report goes to the file, like a passing one
    report = tmp_path / "report.txt"
    code = main(["verify", "--suite", "blocks", "--k-max", "3", "--out", str(report)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "schrijver: suite blocks found violations\n"
    assert report.read_text() == out


def test_scan_output(capsys):
    code, out = run(capsys, "scan", "--k-max", "3")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("# schrijver scan v1")
    assert "evidence only" in lines[0]
    rows = [line.split(",") for line in lines[2:]]
    by_k = {}
    for row in rows:
        by_k.setdefault(int(row[0]), []).append(int(row[3]))
    for diams in by_k.values():
        assert diams == sorted(diams, reverse=True)


@pytest.mark.parametrize(
    "case", ["middle-vertex", "dist3", "reduction", "far-63-30", "lift", "lift-p3"]
)
def test_distance_explain_decomposes_the_pair_once(capsys, monkeypatch, case):
    # the certificate and the decomposition in the payload share one
    # `decompose`; the reduction's later steps and the lift's higher levels
    # decompose other pairs.  Each `decompose` derives the stable picks
    # once, and the criterion, middle vertex, star pair and report read them.
    n, k, a, b, _, _, flags = EXPLAIN_CASES[case]
    calls = record_decompositions(monkeypatch)
    derived = record_picks(monkeypatch)
    code, out = run(
        capsys, "distance", "--n", str(n), "--k", str(k), "--a", a, "--b", b, "--explain", *flags
    )
    assert code == 0
    assert out == (DATA / "explain" / f"{case}.json").read_text()
    assert calls.count((n, mask_of(parse_set_text(a)), mask_of(parse_set_text(b)))) == 1
    assert len(calls) == len(set(calls))
    assert derived == [(am, bm, size) for size, am, bm in calls]


def test_exit_codes(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 1
    code, _ = run(capsys, "enumerate", "--n", "99", "--k", "3")
    assert code == 3


def test_vertex_count_cap_exits_3(capsys):
    odd, even = ",".join(map(str, range(1, 20, 2))), ",".join(map(str, range(2, 21, 2)))
    for argv in (
        ["enumerate"],
        ["diameter", "--method", "bfs"],
        ["distance", "--a", odd, "--b", even],
    ):
        code, out = run(capsys, *argv, "--n", "64", "--k", "10")
        assert (code, out) == (3, "")


def test_parser_is_built_once(capsys, monkeypatch):
    def refuse():
        raise AssertionError("parser rebuilt")

    monkeypatch.setattr(cli, "build_parser", refuse)
    assert run(capsys, "distance", "--n", "10", "--k", "4", "--a", "1,3,5,7", "--b", "2,4,6,8") == (0, "1\n")
    assert run(capsys, "enumerate", "--n", "5", "--k", "2")[0] == 0


# JSON values the report writer takes: str keys; strings with non-ASCII,
# quotes, backslashes and control characters; ints past 64 bits either way
_JSON_SCALARS = (
    st.text(st.sampled_from(["a", " ", '"', "\\", "\n", "\t", "\x00", "\x1f", "\x7f", "é", "→", "😀"]))
    | st.text()
    | st.integers()
    | st.integers(min_value=2**64, max_value=2**70)
    | st.integers(max_value=-(2**64))
    | st.booleans()
    | st.none()
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=5)
    | st.lists(st.integers(), max_size=5)  # the writer joins these in one step
    | st.dictionaries(st.text(), inner, max_size=5),
    max_leaves=30,
)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(_JSON_VALUES)
def test_report_writer_equals_json_dumps(value):
    assert cli._dumps(value) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [[], {}, [[]], {"": {}}, [1, "a", True], [True, False, None], [1, -1, 2**80, -(2**80)], [0, True]],
)
def test_report_writer_edge_cases(value):
    assert cli._dumps(value) == json.dumps(value, indent=2)
