"""Workloads, inputs and output checks for the benchmark.

A workload is a list of CLI argument vectors, sent one after another to
``nakayama.cli.main`` in this process (a closed loop with one client).  Only
``translate`` draws inputs from the seed; the other workloads run fixed
commands whose sizes are chosen so that one pass takes a few seconds.

Every output is checked twice, and neither check uses the code under test:
an invariant from the mathematics (central binomial and Catalan counts,
Hasse quivers regular of degree n, verification bundles ending in PASS,
sequence histograms preserved by translation), and the SHA-256 of stdout
against the digest recorded when the benchmark was added.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import re
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
DIGESTS = HERE / "digests.json"
TRANSLATE_DIGESTS = HERE / "translate_digests.bin"

WORKLOADS = ("census", "hasse-direct", "hasse-rejection", "translate")

# Translate digests are stored for every payload of these sizes, in the
# lexicographic order of compositions(n), arcs before module, as the first
# TRANSLATE_DIGEST_BYTES bytes of each SHA-256.
TRANSLATE_DIGEST_SIZES = range(3, 9)
TRANSLATE_DIGEST_BYTES = 4
TRANSLATE_TARGETS = ("arcs", "module")

# Run during set-up, so the process-wide tables of the translate sizes are
# built before timing starts.
WARMUP = [
    ["translate", "--cyclic", str(n), "--r", str(n), "--from", "seq",
     "--to", dst, "--payload", ",".join(["1"] * n)]
    for n in (6, 7, 8)
    for dst in TRANSLATE_TARGETS
]


def _series(n):
    return ",".join(str(i) for i in range(1, n + 1))


def commands(workload, seed, tiny=False):
    """The argument vectors of one pass; ``tiny`` shrinks every size for
    the smoke tests."""
    if workload == "census":
        stt, enum, lin, bij = (4, 3, 4, 2) if tiny else (9, 8, 9, 4)
        return [
            ["count", "--cyclic", str(stt), "--r", str(stt)],
            ["enumerate", "--cyclic", str(enum), "--r", str(enum), "--format", "json"],
            ["count", "--linear", "--kupisch", _series(lin)],
            ["verify", "--tables"],
            ["verify", "--bijections", str(bij)],
        ]
    if workload == "hasse-direct":
        big, small = (3, 2) if tiny else (6, 5)
        return [
            ["hasse", "--cyclic", str(big), "--r", str(big), "--method", "direct",
             "--format", "dot"],
            ["hasse", "--cyclic", str(small), "--r", str(small), "--method", "direct",
             "--format", "json"],
        ]
    if workload == "hasse-rejection":
        cyc, lin = (4, 3) if tiny else (7, 7)
        return [
            ["hasse", "--cyclic", str(cyc), "--r", str(cyc), "--method", "rejection",
             "--format", "json"],
            ["hasse", "--linear", "--kupisch", _series(lin), "--method", "rejection",
             "--format", "json"],
        ]
    if workload == "translate":
        sizes, count = ((3, 4), 20) if tiny else ((6, 7, 8), 2000)
        # Requests cycle through every (n, target) pair, so that the mix of
        # request sizes is the same for every seed; only payloads are drawn.
        kinds = [(n, dst) for n in sizes for dst in TRANSLATE_TARGETS]
        rng = random.Random(seed)
        out = []
        for i in range(count):
            n, dst = kinds[i % len(kinds)]
            payload = ",".join(map(str, random_composition(rng, n)))
            out.append(["translate", "--cyclic", str(n), "--r", str(n), "--from", "seq",
                        "--to", dst, "--payload", payload])
        return out
    raise ValueError(f"unknown workload {workload!r}")


def random_composition(rng, n):
    """A uniform n-tuple of nonnegative integers summing to n: n stars and
    n - 1 bars, with the bars at a random (n-1)-subset of 2n - 1 places."""
    bars = sorted(rng.sample(range(2 * n - 1), n - 1))
    parts, prev = [], -1
    for b in bars + [2 * n - 1]:
        parts.append(b - prev - 1)
        prev = b
    return parts


def compositions(n, parts=None):
    """All tuples of ``parts`` nonnegative integers summing to n, in
    lexicographic order."""
    parts = n if parts is None else parts
    if parts == 1:
        return [(n,)]
    return [(head,) + rest for head in range(n + 1) for rest in compositions(n - head, parts - 1)]


# -- running a command --------------------------------------------------------


def run_command(cli, argv, clock=time.perf_counter):
    """Send one command to ``cli.main`` with stdout and stderr captured.

    Returns (exit code, stdout, seconds on ``clock``).  The exit code is a
    string when main raised, so the failure is counted rather than ending
    the run.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        t0 = clock()
        try:
            rc = cli.main(argv)
        except Exception as e:  # a traceback is a failed command, not a crash
            rc = f"raised {type(e).__name__}: {e}"
        dt = clock() - t0
    return rc, out.getvalue(), dt


def setup(src, clock=time.perf_counter):
    """Import nakayama from ``src``, build the parser and run the warm-up.

    Returns (seconds on ``clock``, cli module, warm-up results as
    (argv, rc, stdout)).
    """
    src = Path(src).resolve()
    t0 = clock()
    sys.path.insert(0, str(src))
    from nakayama import cli

    cli.build_parser()
    warm = [(argv, *run_command(cli, argv)[:2]) for argv in WARMUP]
    elapsed = clock() - t0
    if src not in Path(cli.__file__).resolve().parents:
        raise RuntimeError(f"nakayama was imported from {cli.__file__}, not from {src}")
    return elapsed, cli, warm


# -- checking outputs ---------------------------------------------------------


def _options(argv):
    opts, i = {}, 1
    while i < len(argv):
        if i + 1 < len(argv) and not argv[i + 1].startswith("--"):
            opts[argv[i]] = argv[i + 1]
            i += 2
        else:
            opts[argv[i]] = True
            i += 1
    return opts


def _catalan(n):
    return math.comb(2 * n, n) // (n + 1)


def _expected_counts(opts):
    """(n, tau-tilting count, support tau-tilting count) from closed forms,
    for the two algebra families the workloads use."""
    if "--cyclic" in opts:
        n = int(opts["--cyclic"])
        if int(opts["--r"]) < n:
            raise ValueError("closed form needs r >= n")
        return n, math.comb(2 * n - 1, n - 1), math.comb(2 * n, n)
    series = [int(x) for x in opts["--kupisch"].split(",")]
    n = len(series)
    if series != list(range(1, n + 1)):
        raise ValueError("closed form needs the hereditary series 1..n")
    return n, _catalan(n), _catalan(n + 1)


def _check_hasse(n, stt, vertices, arrows):
    if vertices != stt:
        return f"{vertices} Hasse vertices, expected {stt}"
    if len(set(arrows)) != len(arrows) or any(a == b for a, b in arrows):
        return "repeated arrow or loop"
    degree = [0] * vertices
    for a, b in arrows:
        degree[a] += 1
        degree[b] += 1
    if any(d != n for d in degree):
        return f"Hasse quiver is not regular of degree {n}"
    return None


_DOT_NODE = re.compile(r"  n(\d+) \[label=")
_DOT_ARROW = re.compile(r"  n(\d+) -> n(\d+);")
_ARC = re.compile(r"<(\*|\d+),(\d+)>")


def invariant(argv, out):
    """None if the output satisfies the command's invariant, else why not."""
    try:
        return _invariant(argv, out)
    except (ValueError, KeyError, IndexError, TypeError) as e:
        return f"unreadable output ({type(e).__name__}: {e})"


def _invariant(argv, out):
    cmd, opts = argv[0], _options(argv)
    lines = out.splitlines()
    if cmd == "verify":
        if not lines or lines[-1] != "PASS":
            return "verify did not end in PASS"
        body = lines[:-1]
        if "--tables" in opts:
            # 50 algebras, two reference counts each: the 100-entry table.
            if len(body) != 50 or not all(line.startswith("ok ") for line in body):
                return "table report is not 50 ok lines"
        if "--bijections" in opts:
            pat = re.compile(r"bijections n=(\d+): (\d+) cyclic Kupisch series, (\d+) in")
            got = [pat.match(line) for line in body]
            if len(got) != int(opts["--bijections"]) or not all(
                m and m.group(2) == m.group(3) for m in got
            ):
                return "bijection report is not all-in-bijection"
        return None
    if cmd == "translate":
        n = int(opts["--cyclic"])
        seq = [int(x) for x in opts["--payload"].split(",")]
        if len(lines) != 1:
            return "translate printed more than one line"
        if opts["--to"] == "arcs":
            arcs = _ARC.findall(lines[0])
            if len(arcs) != len(lines[0].split()) or len(set(arcs)) != n:
                return f"not {n} distinct arcs"
            if not any(i == "*" for i, _ in arcs):
                return "no projective arc"
            tops = [int(j) for _, j in arcs]
        else:
            if "[" in lines[0]:
                return "tau-tilting pair has killed vertices"
            summands = [[int(v) for v in s.split("/")] for s in lines[0].split(" + ")]
            if len(summands) != n:
                return f"{len(summands)} summands, expected {n}"
            for s in summands:
                if any((a - b) % n != 1 for a, b in zip(s, s[1:])):
                    return "composition factors do not descend around the cycle"
            tops = [s[0] for s in summands]
        if [tops.count(j) for j in range(1, n + 1)] != seq:
            return "terminal histogram differs from the payload"
        return None
    n, tau, stt = _expected_counts(opts)
    if cmd == "count":
        got = dict(line.split(": ") for line in lines)
        want = {"tau-tilt": str(tau), "proper": str(stt - tau), "stt": str(stt)}
        return None if got == want else f"counts {got}, expected {want}"
    if cmd == "enumerate":
        pairs = json.loads(out)
        if len(pairs) != stt:
            return f"{len(pairs)} pairs, expected {stt}"
        if any(len(p["summands"]) + len(p["killed"]) != n for p in pairs):
            return f"a pair does not have n = {n} summands plus killed vertices"
        if len({json.dumps(p, sort_keys=True) for p in pairs}) != stt:
            return "repeated pair"
        return None
    if cmd == "hasse":
        if opts["--format"] == "dot":
            vertices = len(_DOT_NODE.findall(out))
            arrows = [(int(a), int(b)) for a, b in _DOT_ARROW.findall(out)]
        else:
            data = json.loads(out)
            vertices = len(data["vertices"])
            arrows = [tuple(a) for a in data["arrows"]]
        return _check_hasse(n, stt, vertices, arrows)
    return f"no invariant for {cmd}"


class Digests:
    """SHA-256 digests of stdout recorded at the commit that added the
    benchmark."""

    def __init__(self):
        self.fixed = json.loads(DIGESTS.read_text())
        self.translate = TRANSLATE_DIGESTS.read_bytes()
        self._offset = {}
        pos = 0
        for n in TRANSLATE_DIGEST_SIZES:
            rank = {c: i for i, c in enumerate(compositions(n))}
            for dst in TRANSLATE_TARGETS:
                self._offset[n, dst] = (pos, rank)
                pos += len(rank) * TRANSLATE_DIGEST_BYTES
        if pos != len(self.translate):
            raise ValueError(f"{TRANSLATE_DIGESTS.name} holds {len(self.translate)} bytes, expected {pos}")

    def matches(self, argv, out):
        got = hashlib.sha256(out.encode()).digest()
        if argv[0] == "translate":
            opts = _options(argv)
            key = (int(opts["--cyclic"]), opts["--to"])
            if key not in self._offset:
                return False
            base, rank = self._offset[key]
            seq = tuple(int(x) for x in opts["--payload"].split(","))
            at = base + rank[seq] * TRANSLATE_DIGEST_BYTES
            return got[:TRANSLATE_DIGEST_BYTES] == self.translate[at:at + TRANSLATE_DIGEST_BYTES]
        return self.fixed.get(" ".join(argv)) == got.hex()

    def check(self, argv, rc, out):
        """None if the command succeeded with the right output, else why not."""
        if rc != 0:
            return f"exit code {rc}"
        reason = invariant(argv, out)
        if reason is not None:
            return reason
        if not self.matches(argv, out):
            return "stdout differs from the recorded digest"
        return None
