import json

import pytest

from nakayama.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_enumerate_counts(capsys):
    code, out = run(capsys, "enumerate", "--cyclic", "3", "--r", "3", "--which", "stt")
    assert code == 0
    assert len(out.strip().splitlines()) == 20

    code, out = run(capsys, "enumerate", "--linear", "--kupisch", "1,2,3", "--which", "tau")
    assert code == 0
    assert len(out.strip().splitlines()) == 5

    code, out = run(capsys, "enumerate", "--cyclic", "1", "--r", "1", "--which", "stt")
    assert code == 0
    assert len(out.strip().splitlines()) == 2


def test_enumerate_json_roundtrip(capsys):
    code, out = run(
        capsys, "enumerate", "--cyclic", "3", "--r", "3", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    assert len(data) == 20
    assert all(set(p) == {"summands", "killed"} for p in data)


def test_determinism(capsys):
    args = ("hasse", "--cyclic", "3", "--r", "3", "--method", "both", "--format", "dot")
    _, first = run(capsys, *args)
    _, second = run(capsys, *args)
    assert first == second
    assert first.count("->") == 30


def test_hasse_json_and_trace(capsys):
    code, out = run(
        capsys, "hasse", "--cyclic", "3", "--r", "4", "--method", "both",
        "--trace", "--format", "json",
    )
    assert code == 0
    assert "step 0: kupisch 1:4,2:4,3:4" in out
    payload = json.loads(out.strip().splitlines()[-1])
    assert len(payload["vertices"]) == 20


def test_translate_examples(capsys):
    code, out = run(
        capsys, "translate", "--cyclic", "4", "--r", "4",
        "--from", "seq", "--to", "module", "--payload", "1,1,1,1",
    )
    assert code == 0
    assert out.strip() == "1/4/3/2 + 2/1/4/3 + 3/2/1/4 + 4/3/2/1"

    code, out = run(
        capsys, "translate", "--cyclic", "8", "--r", "8",
        "--from", "seq", "--to", "arcs", "--payload", "0,4,1,0,1,0,2,0",
    )
    assert code == 0
    for token in ("<*,2>", "<*,3>", "<8,2>"):
        assert token in out

    code, out = run(
        capsys, "translate", "--cyclic", "4", "--r", "4",
        "--from", "seq", "--to", "module", "--payload", "1,0,2,1",
        "--format", "json",
    )
    pair = json.loads(out)
    code, out = run(
        capsys, "translate", "--cyclic", "4", "--r", "4",
        "--from", "module", "--to", "seq", "--payload", json.dumps(pair),
    )
    assert code == 0
    assert out.strip() == "(1,0,2,1)"


def test_translate_json_formats(capsys):
    code, out = run(
        capsys, "translate", "--cyclic", "3", "--r", "3",
        "--from", "seq", "--to", "arcs", "--payload", "2,1,0", "--format", "json",
    )
    assert code == 0
    data = json.loads(out)
    assert data["n"] == 3 and len(data["arcs"]) == 3
    code, out = run(
        capsys, "translate", "--cyclic", "3", "--r", "3",
        "--from", "arcs", "--to", "seq", "--payload", "<*,1> <*,2> <2,1>",
        "--format", "json",
    )
    assert code == 0
    assert json.loads(out) == [2, 1, 0]


def test_translate_from_arcs(capsys):
    code, out = run(
        capsys, "translate", "--cyclic", "3", "--r", "3",
        "--from", "arcs", "--to", "seq", "--payload", "<*,1> <*,2> <2,1>",
    )
    assert code == 0
    assert out.strip() == "(2,1,0)"


def test_triangulate(capsys):
    code, out = run(capsys, "triangulate", "--n", "3")
    assert code == 0
    assert out.strip().splitlines()[-1] == "total: 10"
    code, out = run(capsys, "triangulate", "--n", "3", "--bounds", "1,2,3")
    assert out.strip().splitlines()[-1] == "total: 5"


def test_verify_tables_exit_code(capsys):
    code, out = run(capsys, "verify", "--tables")
    assert code == 0
    assert out.strip().splitlines()[-1] == "PASS"
    assert out.count("ok") >= 50


def test_verify_bundles(capsys):
    code, out = run(capsys, "verify", "--bijections", "2", "--rejection", "2", "2")
    assert code == 0
    assert out.strip().splitlines()[-1] == "PASS"
    assert "bijections n=2" in out and "rejection cyclic n=2" in out


def test_trace_with_picks(capsys):
    code, out = run(
        capsys, "hasse", "--cyclic", "3", "--r", "4", "--method", "rejection",
        "--trace", "--picks", "1,2,3,1,2,1,3,2,3", "--format", "json",
    )
    assert code == 0
    assert "step 9: kupisch 1:1,2:1,3:1" in out


def test_count_json(capsys):
    code, out = run(capsys, "count", "--cyclic", "5", "--r", "5", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"tau_tilt": 126, "proper": 126, "stt": 252}


def test_usage_error_exit_code(capsys):
    assert main(["enumerate"]) == 2
    capsys.readouterr()


def test_unknown_flag_exit_code(capsys):
    assert main(["enumerate", "--bogus"]) == 2
    capsys.readouterr()


@pytest.mark.parametrize(
    "argv, fragment",
    [
        (["enumerate", "--linear", "--kupisch", "1,x"], "'1,x'"),
        (["hasse", "--cyclic", "3", "--r", "3", "--method", "rejection", "--picks", "x"], "'x'"),
        (["translate", "--cyclic", "3", "--r", "3", "--from", "module", "--to", "seq",
          "--payload", "{bad"], "malformed pair"),
        (["translate", "--cyclic", "3", "--r", "3", "--from", "arcs", "--to", "seq",
          "--payload", "<*,5> <*,2> <2,1>"], "<*,5>"),
        (["triangulate", "--n", "3", "--bounds", "1"], "3 bounds"),
        (["count", "--algebra-json", '{"kind":"cyclic"}'], "kupisch"),
        (["count", "--algebra-json", "[1]"], "malformed algebra literal"),
        (["count", "--algebra-json", '{"kind":"cyclic","kupisch":[]}'], "empty"),
        (["count", "--cyclic", "5", "--kupisch", "3,3,3"], "3 Kupisch entries"),
        (["hasse", "--cyclic", "3", "--r", "3", "--method", "direct", "--picks", "9"], "--picks"),
        (["translate", "--cyclic", "3", "--r", "3", "--from", "seq", "--to", "module",
          "--payload", "1,1"], "2 entries"),
    ],
)
def test_bad_input_exits_2_with_one_error_line(capsys, argv, fragment):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert fragment in lines[0]
