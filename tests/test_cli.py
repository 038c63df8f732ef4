import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nakayama import cli
from nakayama.cli import main
from nakayama.errors import NakayamaError
from nakayama.geometry import Triangulation, enumerate_triangulations, triangulation_dot


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
    xs = enumerate_triangulations(3)
    code, out = run(capsys, "triangulate", "--n", "3", "--format", "json")
    assert code == 0
    assert [Triangulation.from_json(x) for x in json.loads(out)] == xs
    code, out = run(capsys, "triangulate", "--n", "3", "--format", "dot")
    assert code == 0
    assert out == "".join(map(triangulation_dot, xs)) and out.count("graph") == 10


def test_hasse_both_exits_1_on_a_mismatch(capsys, monkeypatch):
    from nakayama import poset

    real = poset.hasse_by_rejection

    def one_arrow_short(alg, picks=None):
        quiver = real(alg, picks=picks)
        return quiver._replace(arrows=quiver.arrows[1:])

    monkeypatch.setattr(poset, "hasse_by_rejection", one_arrow_short)
    code = main(["hasse", "--cyclic", "3", "--r", "3", "--method", "both"])
    out, err = capsys.readouterr()
    assert (code, out) == (1, "")
    assert err == ('hasse mismatch between direct and rejection: arrow "1 [2,3]" -> "0 [1,2,3]"'
                   " in the direct quiver only\n")


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


def test_verify_rejection_isomorphism_failure(capsys, monkeypatch):
    from nakayama import poset
    from nakayama.errors import InvalidPoset

    def broken(alg, j):
        raise InvalidPoset("patched")

    monkeypatch.setattr(poset, "rejection_isomorphism", broken)
    code = main(["verify", "--rejection", "4", "5"])
    out, err = capsys.readouterr()
    assert code == 1
    assert out.splitlines()[-2:] == [
        "stt posets of the 3-vertex algebras r=4 and r=3 isomorphic",
        "FAIL (1)",
    ]
    assert "Traceback" not in out + err


def test_verify_failure_names_the_first_failing_algebra(capsys, monkeypatch):
    from nakayama import verify

    real = verify.triple_bijection_holds
    monkeypatch.setattr(
        verify, "triple_bijection_holds",
        lambda alg: alg.loewy != {1: 2, 2: 3} and real(alg),
    )
    code, out = run(capsys, "verify", "--bijections", "2")
    assert code == 1
    assert out.splitlines() == [
        "bijections n=1: 3 cyclic Kupisch series, 3 in elementwise bijection",
        "bijections n=2: 10 cyclic Kupisch series, 9 in elementwise bijection;"
        " first failure: kupisch 2,3",
        "FAIL (1)",
    ]

    from nakayama import poset

    real_rejection = poset.hasse_by_rejection

    def wrong(alg, picks=None):
        quiver = real_rejection(alg, picks=picks)
        if alg.loewy not in ({1: 2, 2: 2}, {1: 1, 2: 2, 3: 2}, {1: 1, 2: 2, 3: 3}):
            return quiver
        return quiver._replace(arrows=quiver.arrows[1:])

    monkeypatch.setattr(poset, "hasse_by_rejection", wrong)
    code, out = run(capsys, "verify", "--rejection", "3", "3")
    assert code == 1
    failed = [line.split(" at arrow ")[0] for line in out.splitlines() if "first failure" in line]
    assert failed == [
        "rejection cyclic n=2, r<=3: label-exact equality; first failure: kupisch 2,2",
        "rejection linear n=3, entries<=3: label-exact equality; first failure: kupisch 1,2,2",
    ]
    assert out.splitlines()[-1] == "FAIL (2)"



def test_verify_rejection_names_the_first_differing_arrow(capsys, monkeypatch):
    from nakayama import poset
    from nakayama.algebra import make_cyclic

    real = poset.hasse_by_rejection

    def one_arrow_short(alg, picks=None):
        quiver = real(alg, picks=picks)
        return quiver._replace(arrows=quiver.arrows[1:])

    alg = make_cyclic(1, 1)
    direct = poset.hasse_direct(alg)
    a, b = (poset.pair_label(alg, direct.vertices[i]) for i in direct.arrows[0])
    monkeypatch.setattr(poset, "hasse_by_rejection", one_arrow_short)
    code, out = run(capsys, "verify", "--rejection", "1", "1")
    assert code == 1
    assert out.splitlines()[0] == (
        "rejection cyclic n=1, r<=1: label-exact equality; first failure: kupisch 1"
        f' at arrow "{a}" -> "{b}" in the direct quiver only'
    )


def test_rejection_difference_is_none_only_for_equal_quivers():
    # an arrow listed twice leaves the label sets equal
    from nakayama import poset, verify
    from nakayama.algebra import make_cyclic

    alg = make_cyclic(2, 2)
    quiver = poset.hasse_direct(alg)
    assert verify.rejection_difference(alg, quiver, quiver) is None
    twice = quiver._replace(arrows=quiver.arrows[:1] + quiver.arrows)
    assert verify.rejection_difference(alg, quiver, twice) == "an arrow that one quiver repeats"


def test_triple_bijection_fails_on_a_count_mismatch(monkeypatch):
    from nakayama import geometry, verify
    from nakayama.algebra import make_cyclic

    monkeypatch.setattr(geometry, "enumerate_restricted", lambda n, bounds: [])
    assert verify.triple_bijection_holds(make_cyclic(2, 2)) is False


def test_triple_bijection_fails_on_a_broken_round_trip(monkeypatch):
    from nakayama import geometry, verify

    real = geometry.tau_tilt_to_triangulation
    monkeypatch.setattr(
        geometry, "tau_tilt_to_triangulation",
        lambda alg, pair: None if alg.loewy == {1: 2} else real(alg, pair),
    )
    assert list(verify.verify_bijections(1)) == [
        ("bijections n=1: 3 cyclic Kupisch series, 2 in elementwise bijection;"
         ' first failure: kupisch 2 at triangulation <*,1>, whose round trip through its'
         ' module "1/1" breaks', False),
    ]


def test_triple_bijection_failure_names_the_first_unmatched_element(monkeypatch):
    # each line ends with what only the first failing series shows: a broken
    # sequence round trip, an image missing from the enumeration, an element
    # that no triangulation reaches, or counts that differ
    from nakayama import geometry, sequences, tautilt, verify

    real_top = sequences.top_of_triangulation
    monkeypatch.setattr(sequences, "top_of_triangulation",
                        lambda x: sequences.SeqA([0, 0, 3]) if x.n == 3 else real_top(x))
    assert list(verify.verify_bijections(3))[-1] == (
        "bijections n=3: 38 cyclic Kupisch series, 0 in elementwise bijection;"
        " first failure: kupisch 1,1,1 at triangulation <*,1> <*,2> <*,3>,"
        " whose round trip through its sequence (0,0,3) breaks", False)
    monkeypatch.undo()

    real_tau = tautilt.enumerate_tau_tilt
    monkeypatch.setattr(tautilt, "enumerate_tau_tilt", lambda alg: real_tau(alg)[1:])
    assert list(verify.verify_bijections(1))[0] == (
        "bijections n=1: 3 cyclic Kupisch series, 0 in elementwise bijection;"
        ' first failure: kupisch 1 at triangulation <*,1>, whose module "1" is not enumerated',
        False)
    monkeypatch.undo()

    real_xs = geometry.enumerate_restricted
    monkeypatch.setattr(geometry, "enumerate_restricted", lambda n, bounds: real_xs(n, bounds)[1:])
    assert list(verify.verify_bijections(2))[1] == (
        "bijections n=2: 10 cyclic Kupisch series, 0 in elementwise bijection;"
        ' first failure: kupisch 1,1 at module "1 + 2", which no triangulation reaches', False)
    monkeypatch.undo()

    # a repeated module reaches nothing new; only the counts show it
    monkeypatch.setattr(tautilt, "enumerate_tau_tilt", lambda alg: real_tau(alg) * 2)
    assert list(verify.verify_bijections(1))[0] == (
        "bijections n=1: 3 cyclic Kupisch series, 0 in elementwise bijection; first failure:"
        " kupisch 1 at the counts 2, 1 and 1 of modules, triangulations and sequences", False)


def test_verify_counts_names_the_first_failing_series(capsys, monkeypatch):
    from nakayama import counting

    code, out = run(capsys, "verify", "--counts", "2")
    assert code == 0
    assert out.splitlines() == [
        "counts n=1: 3 cyclic and 1 linear Kupisch series, 4 with DP counts equal to enumerated",
        "counts n=2: 10 cyclic and 2 linear Kupisch series, 12 with DP counts equal to enumerated",
        "PASS",
    ]
    real = counting.dp_counts
    monkeypatch.setattr(
        counting, "dp_counts", lambda alg: (0, 0, 0) if alg.loewy == {1: 1, 2: 2} else real(alg)
    )
    code, out = run(capsys, "verify", "--counts", "2")
    assert code == 1
    # the cyclic series 1,2 comes first in the grid and fails as well
    assert out.splitlines()[1:] == [
        "counts n=2: 10 cyclic and 2 linear Kupisch series, 10 with DP counts equal to"
        " enumerated; first failure: kupisch 1,2 (cyclic): DP (0, 0, 0), enumerated (2, 3, 5)",
        "FAIL (1)",
    ]


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


FROM_MODULE = ["translate", "--cyclic", "3", "--r", "3", "--from", "module", "--to", "arcs",
               "--payload"]
BAD_INPUT = [
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
    (["triangulate", "--n", "0"], "positive"),
    (["triangulate", "--n", "-2"], "positive"),
    (["hasse", "--linear", "--kupisch", "1,2,3", "--method", "rejection", "--format", "json",
      "--picks", "3,3,2,1,9"], "pick 9"),
    (["hasse", "--linear", "--kupisch", "1,2,3", "--method", "rejection", "--format", "json",
      "--picks", "3,3,2,1,9", "--trace"], "pick 9"),
    (["verify", "--bijections", "0"], "positive"),
    (["verify", "--bijections", "-2"], "positive"),
    (["verify", "--rejection", "2", "-1"], "positive"),
    (["verify", "--rejection", "0", "3"], "positive"),
    (["count", "--algebra-json", '{"kind":"linear","kupisch":[1,true]}'], "loewy(2) = True"),
    (["translate", "--cyclic", "3", "--r", "3", "--from", "module", "--to", "arcs", "--payload",
      '{"summands":[{"top":1.7,"len":3},{"top":2,"len":"3"},{"top":3.2,"len":3}],"killed":[]}'],
     "integer top and len"),
    (["translate", "--cyclic", "3", "--r", "3", "--from", "arcs", "--to", "seq",
      "--payload", "<*,1> <*,2> <*,\u0663>"], "<*,\u0663>"),
    ([*FROM_MODULE, '{"summands":[],"killed":"32"}'], "integer killed vertices"),
    ([*FROM_MODULE, '{"summands":[],"killed":[2.0,true]}'], "integer killed vertices"),
    ([*FROM_MODULE, '{"summands":[{"top":1,"len":3},{"top":1,"len":3},{"top":2,"len":3}],'
                    '"killed":[]}'], "repeats a summand"),
    ([*FROM_MODULE, '{"summands":[{"top":1,"len":3},{"top":2,"len":3}],"killed":[3,3]}'],
     "repeats a summand or a killed vertex"),
    (["hasse", "--cyclic", "1", "--r", "1", "--method", "rejection", "--picks", "1,5,7",
      "--trace"], "[5, 7] left over"),
    (["hasse", "--cyclic", "1", "--r", "1", "--method", "rejection", "--picks", "1,1"],
     "[1] left over"),
    (["enumerate", "--algebra-json", '{"kind":"general","vertices":[1.0,2],"next_down":{"2":1},'
      '"loewy":{"1":1,"2":2}}', "--format", "json"], "vertex label 1.0"),
    (["count", "--algebra-json", '{"kind":"general","vertices":[true,2],"next_down":{"2":1},'
      '"loewy":{"1":1,"2":2}}'], "vertex label True"),
    (["verify", "--counts", "0"], "positive"),
    (["verify", "--counts", "-3"], "positive"),
    (["count", "--cyclic", "3", "--r", "3", "--linear", "--kupisch", "1,2,3"],
     "conflicting algebra flags: --cyclic --r --linear --kupisch"),
    (["count", "--cyclic", "3", "--linear", "--kupisch", "1,2,3"], "--cyclic --linear --kupisch"),
    (["count", "--cyclic", "3", "--r", "3", "--kupisch", "1,2,3"], "--cyclic --r --kupisch"),
    (["count", "--linear", "--kupisch", "1,2,3", "--r", "3"], "--r --linear --kupisch"),
    (["count", "--algebra-json", '{"kind":"cyclic","kupisch":[3,3,3]}', "--r", "3"],
     "conflicting algebra flags: --r --algebra-json"),
    (["enumerate", "--algebra-json", '{"kind":"cyclic","kupisch":[3,3,3]}', "--linear"],
     "--linear --algebra-json"),
    (["count", "--cyclic", "3"], "--cyclic needs --r or --kupisch"),
    (["count", "--linear"], "--linear needs --kupisch"),
    (["triangulate", "--n", "x"], "not a positive integer: 'x'"),
    (["verify", "--rejection", "2", "3.5"], "not a positive integer: '3.5'"),
    (["enumerate", "--algebra-json", '{"kind":"general","vertices":[1,2],"next_down":{"2":true},'
      '"loewy":{"1":1,"2":2}}'], "next_down 2->True must join integer vertices"),
    (["enumerate", "--algebra-json", '{"kind":"general","vertices":[1,2],"next_down":{"2":1.0},'
      '"loewy":{"1":1,"2":2}}'], "next_down 2->1.0 must join integer vertices"),
]


@pytest.mark.parametrize("argv, fragment", BAD_INPUT)
def test_bad_input_exits_2_with_one_error_line(capsys, argv, fragment):
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert fragment in lines[0]


@pytest.mark.parametrize(
    "argv",
    [
        ["triangulate", "--n", "9"],
        ["hasse", "--cyclic", "6", "--r", "6", "--method", "rejection", "--trace"],
    ],
)
def test_closed_output_pipe_exits_2_with_one_error_line(argv):
    # the reader takes one line and closes the pipe, as `| head -1` does
    proc = _nakayama(argv, stdout=subprocess.PIPE)
    assert proc.stdout.readline()
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "Traceback" not in err


def _nakayama(argv, **kwargs):
    """The CLI as a subprocess on this checkout's src/, stderr piped unless
    kwargs say otherwise."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.Popen(
        [sys.executable, "-m", "nakayama", *argv],
        env=dict(os.environ, PYTHONPATH=path),
        **{"stderr": subprocess.PIPE, **kwargs},
    )


@pytest.mark.parametrize("run", range(3))
def test_a_closed_pipe_shared_with_stderr_exits_2(run):
    # as `2>&1 | head -1`: the error line meets the closed pipe too, and
    # the exit code stays 2 (1 means a verification mismatch)
    proc = _nakayama(["triangulate", "--n", "8"], stdout=subprocess.PIPE, stderr=subprocess.STDOUT)
    assert proc.stdout.readline() == b"<*,1> <*,2> <*,3> <*,4> <*,5> <*,6> <*,7> <*,8>\n"
    proc.stdout.close()
    assert proc.wait(timeout=120) == 2


@pytest.mark.parametrize("run", range(3))
@pytest.mark.parametrize(
    "argv",
    [
        ["enumerate", "--cyclic", "7", "--r", "7", "--format", "json"],
        ["hasse", "--cyclic", "6", "--r", "6", "--method", "rejection", "--format", "json"],
    ],
    ids=["enumerate", "hasse"],
)
def test_large_write_into_a_closed_pipe_exits_2(argv, run):
    # the output (475 KB and 139 KB) is written at once, far past the pipe
    # buffer; the reader takes 10 bytes and closes the pipe, as
    # `| head -c 10` does, while that one write is under way
    proc = _nakayama(argv, stdout=subprocess.PIPE)
    assert len(proc.stdout.read(10)) == 10
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 2
    assert err == "error: output pipe closed\n", err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_full_device_exits_2_with_one_error_line():
    with open("/dev/full", "w") as full:
        proc = _nakayama(["enumerate", "--cyclic", "3", "--r", "3"], stdout=full)
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=120) == 2
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert "No space left on device" in err


def _nakayama_in_1gb(argv, cap=10 ** 9):
    """(exit code, stdout, stderr) of the CLI as a subprocess whose address
    space is capped at 1 GB (or cap bytes), so a runaway allocation fails
    at once."""
    resource = pytest.importorskip("resource")
    proc = _nakayama(argv, stdout=subprocess.PIPE,
                     preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, (cap, cap)))
    out, err = proc.communicate(timeout=120)
    return proc.returncode, out.decode(), err.decode()


def test_count_of_a_huge_loewy_length_needs_no_table_of_that_length():
    argv = ["count", "--cyclic", "3", "--r", "1000000000000", "--format", "json"]
    assert _nakayama_in_1gb(argv) == (0, '{"proper":10,"stt":20,"tau_tilt":10}\n', "")


def test_enumerate_of_a_huge_loewy_length_needs_no_table_of_that_length():
    # on a 3-cycle the tau-rigid lengths are 1, 2 and the projective's, so
    # the pairs are those of cyclic(3,4) with length 4 read as 10^12
    argv = ["enumerate", "--cyclic", "3", "--r", "1000000000000", "--format", "json"]
    code, out, err = _nakayama_in_1gb(argv)
    small = call(["enumerate", "--cyclic", "3", "--r", "4", "--format", "json"])[1]
    assert (code, err) == (0, "")
    assert out == small.replace('"len":4', '"len":1000000000000') and len(json.loads(out)) == 20


def test_direct_hasse_of_a_huge_loewy_length_needs_no_table_of_that_length():
    # the Fac order's rows are keyed by the summand lengths that occur, so
    # the quiver is that of cyclic(3,3) with length 3 read as 10^12
    argv = ["hasse", "--cyclic", "3", "--r", "1000000000000", "--method", "direct",
            "--format", "json"]
    code, out, err = _nakayama_in_1gb(argv)
    small = call(["hasse", "--cyclic", "3", "--r", "3", "--method", "direct", "--format", "json"])[1]
    assert (code, err) == (0, "")
    assert out.replace('"len":1000000000000', '"len":3') == small
    assert len(json.loads(out)["vertices"]) == 20


def _cycle_beside_path(r):
    """The 3-cycle 1 -> 3 -> 2 -> 1, every Loewy length r, beside the path
    8 -> 7, as the flags of an algebra literal."""
    literal = {"kind": "general", "vertices": [1, 2, 3, 7, 8],
               "next_down": {"1": 3, "2": 1, "3": 2, "8": 7},
               "loewy": {"1": r, "2": r, "3": r, "7": 1, "8": 2}}
    return ["--algebra-json", json.dumps(literal)]


def test_rejection_hasse_of_a_huge_loewy_length_runs_on_the_reduced_chain():
    # the chain of a 3-cycle of Loewy length 10^12 has about 3·10^12 stages;
    # that of its reduction, Loewy length 3, has 10, and both routes give
    # the same quiver, beside another component too
    tail = ["--method", "both", "--format", "json"]
    for big, small in [(["--cyclic", "3", "--r", "1000000000000"], ["--cyclic", "3", "--r", "3"]),
                       (_cycle_beside_path(10 ** 12), _cycle_beside_path(3))]:
        code, out, err = _nakayama_in_1gb(["hasse", *big, *tail])
        assert (code, err) == (0, ""), big
        assert out.replace('"len":1000000000000', '"len":3') == call(["hasse", *small, *tail])[1]


def test_out_of_memory_exits_2_with_one_error_line():
    # the text label stacks the projective's 10^12 composition factors,
    # which do not fit in 1 GB
    argv = ["translate", "--cyclic", "3", "--r", "1000000000000", "--from", "seq",
            "--to", "module", "--payload", "1,1,1"]
    assert _nakayama_in_1gb(argv) == (2, "", "error: out of memory\n")


def test_out_of_memory_deep_in_the_rejection_chain_exits_2_with_one_error_line():
    # the chain of cyclic(3, 10^12) has about 3·10^12 stages, so memory runs
    # out while it is built; the error line is written only after the
    # handler has let go of the frames that hold what filled memory (400 MB
    # keeps the run to a few seconds)
    argv = ["hasse", "--cyclic", "3", "--r", "1000000000000", "--trace"]
    assert _nakayama_in_1gb(argv, cap=4 * 10 ** 8) == (2, "", "error: out of memory\n")


def call(argv):
    """(exit code, stdout, stderr) of one main call."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


GOOD_TRANSLATE = [
    "translate", "--cyclic", "4", "--r", "4",
    "--from", "seq", "--to", "module", "--payload", "1,0,2,1",
]


def test_reused_parser_is_stateless(monkeypatch):
    assert cli.build_parser() is cli.build_parser()
    argvs = [GOOD_TRANSLATE, *(argv for argv, _ in BAD_INPUT[:4]), ["--help"], GOOD_TRANSLATE]
    reused = [call(argv) for argv in argvs]
    assert reused[0] == reused[-1] and reused[0][0] == 0 and reused[0][1]
    fresh = []
    for argv in argvs:
        cli.build_parser.cache_clear()
        fresh.append(call(argv))
    assert reused == fresh
    # the subcommand map goes with the parser: after cache_clear a request
    # reaches the new parser's subcommand parser, not one kept from before
    old = cli.build_parser()
    cli.build_parser.cache_clear()
    new = cli.build_parser()
    assert new is not old and new.subcommands.keys() == old.subcommands.keys()
    translate, seen = new.subcommands["translate"], []
    parse = translate.parse_known_args
    monkeypatch.setattr(translate, "parse_known_args", lambda args: seen.append(args) or parse(args))
    assert call(GOOD_TRANSLATE) == reused[0] and seen == [GOOD_TRANSLATE[1:]]


def test_a_named_subcommand_is_parsed_by_its_own_parser_alone(monkeypatch):
    monkeypatch.setattr(cli.build_parser(), "parse_args", None)  # any use of it fails
    code, out, err = call(GOOD_TRANSLATE)
    assert code == 0 and out and not err


def shared_call(argv):
    """call(argv) with argv parsed by the shared parser as a whole, the
    reference for main's own parsing."""
    with mock.patch.object(cli, "_parse", lambda argv: cli.build_parser().parse_args(argv)):
        return call(argv)


COUNT_3 = ["count", "--cyclic", "3", "--r", "3"]
PARSE_CORPUS = [
    [],
    ["-h"],
    ["--help"],
    ["bogus"],
    ["--cyclic", "3", "count"],  # a flag before the name
    [*COUNT_3, "extra"],  # a leftover positional
    [*COUNT_3, "--bogus"],
    ["count", "--cyc", "3", "--r", "3"],
    ["count", "--cyclic=3", "--r", "3"],
    ["count", "--", "--cyclic", "3"],
    [*COUNT_3, "--"],
    ["translate", "-h"],
    [*COUNT_3, "-h", "extra"],
    ["hasse", "--cyclic", "3", "--r", "3", "--picks", "1,x"],  # _int_list refuses
    ["triangulate", "--n", "0"],  # _positive refuses
    ["count", "count"],
    GOOD_TRANSLATE,
]


def parsed(parse, argv):
    """The attributes of the namespace that parse gives argv, or the exit
    code or the message of the NakayamaError it raises."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        try:
            return vars(parse(argv))
        except SystemExit as e:
            return e.code
        except NakayamaError as e:
            return str(e)


@pytest.mark.parametrize("argv", PARSE_CORPUS)
def test_main_parses_as_the_shared_parser_does(argv):
    assert parsed(cli._parse, argv) == parsed(cli.build_parser().parse_args, argv)
    assert call(argv) == shared_call(argv)


# -- the exit-code contract on drawn argument lists ---------------------------

SUBCOMMANDS = ["enumerate", "count", "hasse", "translate", "triangulate", "verify"]
MALFORMED = ["1,x", "{bad", "<*,9>"]
# one element of each model over cyclic(3,3), and a sequence for n = 4
PAYLOADS = [
    "2,1,0",
    "1,1,1,1",
    "<*,1> <*,2> <2,1>",
    '{"killed":[],"summands":[{"len":1,"top":1},{"len":3,"top":1},{"len":3,"top":2}]}',
]
small = st.integers(-2, 4)
int_list = st.lists(small, min_size=1, max_size=4).map(lambda xs: ",".join(map(str, xs)))
arc = st.builds("<{},{}>".format, st.sampled_from(["*", "1", "2", "3", "4", "0"]), small)
pair_literal = st.builds(
    lambda tops, killed: json.dumps(
        {"summands": [{"top": t, "len": l} for t, l in tops], "killed": killed}
    ),
    st.lists(st.tuples(small, small), max_size=4),
    st.lists(small, max_size=4),
)
algebra_literal = st.builds(
    lambda kind, ks: json.dumps({"kind": kind, "kupisch": ks}),
    st.sampled_from(["cyclic", "linear", "general"]),
    st.lists(small, max_size=4),
)


def one_of_values(*values):
    return st.sampled_from(values).map(lambda v: (v,))


one_int = small.map(lambda v: (str(v),))
one_list = int_list.map(lambda v: (v,))


def mostly(common, rare):
    """Draws from common about nine times in ten, from rare otherwise;
    shrinking goes towards common."""
    return st.sampled_from([common] * 9 + [rare]).flatmap(lambda s: s)


# the values each flag takes, as token tuples (empty for a switch)
FLAG_VALUES = {
    "--cyclic": one_int,
    "--r": one_int,
    "--n": one_int,
    "--bijections": one_int,
    "--counts": one_int,
    "--rejection": st.tuples(one_int, one_int).map(lambda vs: vs[0] + vs[1]),
    "--kupisch": one_list,
    "--picks": one_list,
    "--bounds": one_list,
    "--payload": st.one_of(
        st.sampled_from(PAYLOADS),
        int_list,
        st.lists(arc, min_size=1, max_size=4).map(" ".join),
        pair_literal,
    ).map(lambda v: (v,)),
    "--algebra-json": algebra_literal.map(lambda v: (v,)),
    "--which": one_of_values("stt", "tau", "proper"),
    "--format": one_of_values("text", "json", "dot"),
    "--method": one_of_values("direct", "rejection", "both"),
    "--from": one_of_values("module", "arcs", "seq"),
    "--to": one_of_values("module", "arcs", "seq"),
    "--linear": st.just(()),
    "--trace": st.just(()),
    "--help": st.just(()),
}


def flag(name):
    """The flag with its values, or now and then with a malformed token."""
    return mostly(FLAG_VALUES[name], one_of_values(*MALFORMED)).map(
        lambda values: (name, *values)
    )


algebra = st.one_of(
    st.tuples(flag("--cyclic"), flag("--r")),
    st.tuples(flag("--cyclic"), flag("--kupisch")),
    st.tuples(st.just(("--linear",)), flag("--kupisch")),
    st.tuples(flag("--algebra-json")),
).map(lambda parts: sum(parts, ()))

# each subcommand's required parts and its other flags (verify without --tables)
SPEC = {
    "enumerate": ([algebra], ["--which", "--format"]),
    "count": ([algebra], ["--format"]),
    "hasse": ([algebra], ["--method", "--format", "--trace", "--picks"]),
    "translate": ([algebra, flag("--from"), flag("--to"), flag("--payload")], ["--format"]),
    "triangulate": ([flag("--n")], ["--bounds", "--format"]),
    "verify": ([], ["--bijections", "--counts", "--rejection"]),
}


def arguments(command):
    """Argument lists for one subcommand: each required part nine times in
    ten, then up to three more flags, now and then one of another
    subcommand or --help."""
    required, optional = SPEC.get(command, ([], list(FLAG_VALUES)))
    parts = st.tuples(*(mostly(part, st.just(())) for part in required))
    extra = st.lists(
        mostly(st.sampled_from(optional), st.sampled_from(list(FLAG_VALUES))).flatmap(flag),
        max_size=3,
    )
    return st.tuples(parts, extra).map(
        lambda pe: [command, *(t for part in pe[0] + tuple(pe[1]) for t in part)]
    )


argv_lists = mostly(st.sampled_from(SUBCOMMANDS), st.sampled_from(MALFORMED)).flatmap(arguments)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv_lists)
def test_any_argument_list_keeps_the_exit_code_contract(argv):
    code, _, err = call(argv)
    assert code in (0, 1, 2)
    if code == 1:
        assert argv[0] in ("hasse", "verify")
    if code == 2 and not err.startswith("usage:"):
        assert err.startswith("error: ") and err.count("\n") == 1 and err.endswith("\n")
    assert "Traceback" not in err


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(argv_lists)
def test_any_argument_list_is_parsed_as_the_shared_parser_parses_it(argv):
    assert parsed(cli._parse, argv) == parsed(cli.build_parser().parse_args, argv)
    assert call(argv) == shared_call(argv)
