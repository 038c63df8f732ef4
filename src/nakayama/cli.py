"""Command-line interface.

Subcommands: enumerate, hasse, translate, triangulate, count, verify.
Output is deterministic (canonical ordering everywhere, stable JSON);
exit codes: 0 success, 1 verification mismatch, 2 usage error, failed output or out of memory.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from itertools import compress

from . import counting, geometry, poset, sequences, tautilt
from .algebra import (
    algebra_from_json,
    cyclic_algebra,
    make_cyclic,
    make_linear,
    rejection_chain,
)
from .errors import NakayamaError
from .tautilt import SttPair


def _add_algebra_flags(p):
    p.add_argument("--cyclic", type=int, metavar="N", help="cyclic quiver on N vertices")
    p.add_argument("--r", type=int, metavar="R", help="constant Loewy length for --cyclic")
    p.add_argument("--linear", action="store_true", help="linear quiver (with --kupisch)")
    p.add_argument("--kupisch", type=str, help="comma-separated Kupisch series")
    p.add_argument("--algebra-json", type=str, help="algebra literal as JSON")


_ALGEBRA_FLAGS = ("--cyclic", "--r", "--linear", "--kupisch", "--algebra-json")
# the forms of more than one flag that give an algebra
_ALGEBRA_FORMS = {("--cyclic", "--r"), ("--cyclic", "--kupisch"), ("--linear", "--kupisch")}


def _algebra_from_args(args):
    present = (args.cyclic is not None, args.r is not None, args.linear,
               args.kupisch is not None, args.algebra_json is not None)
    given = tuple(compress(_ALGEBRA_FLAGS, present))
    if len(given) > 1 and given not in _ALGEBRA_FORMS:
        raise NakayamaError(f"conflicting algebra flags: {' '.join(given)}")
    if args.algebra_json:
        return algebra_from_json(args.algebra_json)
    if args.cyclic is not None:
        if args.kupisch:
            ks = _int_list(args.kupisch)
            if len(ks) != args.cyclic:
                raise NakayamaError(f"--cyclic {args.cyclic} got {len(ks)} Kupisch entries")
            return cyclic_algebra(ks)
        if args.r is None:
            raise NakayamaError("--cyclic needs --r or --kupisch")
        return make_cyclic(args.cyclic, args.r)
    if args.linear:
        if not args.kupisch:
            raise NakayamaError("--linear needs --kupisch")
        return make_linear(_int_list(args.kupisch))
    raise NakayamaError("no algebra given (use --cyclic/--linear/--algebra-json)")


def _int_list(text):
    try:
        return [int(x) for x in text.replace("(", "").replace(")", "").split(",") if x.strip()]
    except ValueError:
        raise NakayamaError(f"not a comma-separated list of integers: {text!r}") from None


def _positive(text):
    try:
        if int(text) > 0:
            return int(text)
    except ValueError:
        pass
    raise NakayamaError(f"not a positive integer: {text!r}")


def _json_dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def cmd_enumerate(args, out):
    alg = _algebra_from_args(args)
    which = {
        "stt": tautilt.enumerate_stt,
        "tau": tautilt.enumerate_tau_tilt,
        "proper": tautilt.enumerate_ps_tau_tilt,
    }[args.which]
    pairs = which(alg)
    if args.format == "json":
        out.write(poset.pairs_json(pairs) + "\n")
    else:
        out.write("".join(label + "\n" for label in poset.pair_labels(alg, pairs)))
    return 0


def cmd_count(args, out):
    alg = _algebra_from_args(args)
    tt, proper, stt = counting.dp_counts(alg)
    if args.format == "json":
        out.write(_json_dumps({"tau_tilt": tt, "proper": proper, "stt": stt}) + "\n")
    else:
        out.write(f"tau-tilt: {tt}\nproper: {proper}\nstt: {stt}\n")
    return 0


def cmd_hasse(args, out):
    alg = _algebra_from_args(args)
    if args.picks is not None and args.method == "direct" and not args.trace:
        raise NakayamaError("--picks needs --method rejection or both, or --trace")
    picks = args.picks
    if args.trace:  # the rejection route then runs the chain it lists
        chain = rejection_chain(alg, picks=picks)
        for step, (a, j) in enumerate(chain):
            ks = ",".join(f"{v}:{a.loewy[v]}" for v in a.vertices) or "-"
            tail = f" reject {j}" if j is not None else ""
            out.write(f"step {step}: kupisch {ks}{tail}\n")
        picks = [j for _, j in chain[:-1]]
    if args.method == "direct":
        h = poset.hasse_direct(alg)
    elif args.method == "rejection":
        h = poset.hasse_by_rejection(alg, picks=picks)
    else:
        from . import verify

        h = poset.hasse_direct(alg)
        difference = verify.rejection_difference(alg, h, poset.hasse_by_rejection(alg, picks=picks))
        if difference:
            sys.stderr.write(f"hasse mismatch between direct and rejection: {difference}\n")
            return 1
    if args.format == "json":
        out.write(poset.hasse_json(h) + "\n")
    else:
        out.write(poset.hasse_dot(alg, h))
    return 0


def cmd_translate(args, out):
    alg = _algebra_from_args(args)
    n = alg.n
    payload = args.payload
    if args.src == "seq":
        seq = sequences.SeqA(_int_list(payload))
        if seq.n != n:
            raise NakayamaError(f"sequence has {seq.n} entries, the algebra {n} vertices")
        x = sequences.x_of_sequence(seq)
    elif args.src == "arcs":
        arcs = [geometry.Arc.parse(t) for t in payload.split()]
        x = geometry.make_triangulation(n, arcs)
    else:
        try:
            pair = SttPair.from_json(json.loads(payload))
        except (ValueError, KeyError, TypeError, AttributeError) as e:
            raise NakayamaError(f"malformed pair literal ({type(e).__name__}: {e})") from None
        x = geometry.tau_tilt_to_triangulation(alg, pair)
    if args.dst == "seq":
        seq = sequences.top_of_triangulation(x)
        if args.format == "json":
            out.write(_json_dumps(list(seq.a)) + "\n")
        else:
            out.write(str(seq) + "\n")
    elif args.dst == "arcs":
        if args.format == "json":
            out.write(_json_dumps(x.to_json()) + "\n")
        else:
            out.write(str(x) + "\n")
    else:
        pair = geometry.triangulation_to_tau_tilt(alg, x)
        if args.format == "json":
            out.write(_json_dumps(pair.to_json()) + "\n")
        else:
            out.write(poset.pair_label(alg, pair) + "\n")
    return 0


def cmd_triangulate(args, out):
    n = args.n
    if args.bounds:
        values = _int_list(args.bounds)
        if len(values) != n:
            raise NakayamaError(f"--n {n} needs {n} bounds, got {len(values)}")
        bounds = dict(zip(range(1, n + 1), values))
        xs = geometry.enumerate_restricted(n, bounds)
    else:
        xs = geometry.enumerate_triangulations(n)
    if args.format == "json":
        out.write(_json_dumps([x.to_json() for x in xs]) + "\n")
    elif args.format == "dot":
        for x in xs:
            out.write(geometry.triangulation_dot(x))
    else:
        for x in xs:
            out.write(str(x) + "\n")
        out.write(f"total: {len(xs)}\n")
    return 0


def cmd_verify(args, out):
    if not args.tables and all(x is None for x in (args.bijections, args.counts, args.rejection)):
        raise NakayamaError("verify needs --tables, --bijections, --counts, or --rejection")
    from . import verify

    bundles = []
    if args.tables:
        bundles.append(counting.verify_tables())
    if args.bijections is not None:
        bundles.append(verify.verify_bijections(args.bijections))
    if args.counts is not None:
        bundles.append(verify.verify_counts(args.counts))
    if args.rejection is not None:
        bundles.append(verify.verify_rejection(*args.rejection))
    failures = 0
    for bundle in bundles:
        for line, ok in bundle:
            out.write(line + "\n")
            failures += 0 if ok else 1
    out.write(("PASS" if failures == 0 else f"FAIL ({failures})") + "\n")
    return 0 if failures == 0 else 1


@functools.cache
def build_parser():
    """The process's shared argument parser, built on first use.

    Every call returns the same parser, so callers must not change it.
    Reusing it is safe: parse_args fills a fresh Namespace on each call,
    and no flag has a mutable default.  Its subcommands attribute maps each
    subcommand name to that subcommand's parser, so cache_clear resets both.
    """
    p = argparse.ArgumentParser(prog="nakayama")
    sub = p.add_subparsers(dest="command", required=True)

    pe = sub.add_parser("enumerate", help="list support tau-tilting pairs")
    _add_algebra_flags(pe)
    pe.add_argument("--which", choices=["stt", "tau", "proper"], default="stt")
    pe.add_argument("--format", choices=["text", "json"], default="text")
    pe.set_defaults(func=cmd_enumerate)

    pc = sub.add_parser("count", help="count pairs")
    _add_algebra_flags(pc)
    pc.add_argument("--format", choices=["text", "json"], default="text")
    pc.set_defaults(func=cmd_count)

    ph = sub.add_parser("hasse", help="Hasse quiver (DOT or JSON)")
    _add_algebra_flags(ph)
    ph.add_argument("--method", choices=["direct", "rejection", "both"], default="direct")
    ph.add_argument("--format", choices=["dot", "json"], default="dot")
    ph.add_argument("--trace", action="store_true", help="print the rejection chain")
    ph.add_argument(
        "--picks", type=_int_list, default=None,
        help="comma-separated forced rejection vertices",
    )
    ph.set_defaults(func=cmd_hasse)

    pt = sub.add_parser("translate", help="move between module/arcs/seq models")
    _add_algebra_flags(pt)
    pt.add_argument("--from", dest="src", choices=["module", "arcs", "seq"], required=True)
    pt.add_argument("--to", dest="dst", choices=["module", "arcs", "seq"], required=True)
    pt.add_argument("--payload", required=True)
    pt.add_argument("--format", choices=["text", "json"], default="text")
    pt.set_defaults(func=cmd_translate)

    pg = sub.add_parser("triangulate", help="enumerate triangulations")
    pg.add_argument("--n", type=_positive, required=True)
    pg.add_argument("--bounds", type=str, help="comma-separated per-point length bounds")
    pg.add_argument("--format", choices=["text", "json", "dot"], default="text")
    pg.set_defaults(func=cmd_triangulate)

    pv = sub.add_parser("verify", help="verification bundles")
    pv.add_argument("--tables", action="store_true")
    pv.add_argument("--bijections", type=_positive, metavar="N_MAX")
    pv.add_argument("--counts", type=_positive, metavar="N_MAX")
    pv.add_argument("--rejection", type=_positive, nargs=2, metavar=("N_MAX", "R_MAX"))
    pv.set_defaults(func=cmd_verify)

    p.subcommands = sub.choices
    return p


def _parse(argv):
    """The namespace of argv.  A request that names a subcommand and leaves
    no argument over is parsed by that subcommand's parser alone, as the
    shared parser would hand it on; anything else (no argv, no subcommand
    name first, an argument left over) goes to the shared parser, which
    reports it."""
    parser = build_parser()
    sub = parser.subcommands.get(argv[0]) if argv else None
    if sub is not None:
        args, rest = sub.parse_known_args(argv[1:])
        if not rest:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


class _Whole:
    """A stream whose writes loop over its byte buffer unless it is line-buffered
    (a terminal): a large write there returns a short count if the reader leaves."""

    def __init__(self, stream):
        lines = getattr(stream, "line_buffering", False)
        self.stream, self.buffer = stream, None if lines else getattr(stream, "buffer", None)
        stream.flush()  # what the text layer holds goes first

    def write(self, text):
        if self.buffer is None:
            return self.stream.write(text)
        data = memoryview(text.encode(self.stream.encoding, self.stream.errors))
        while data:
            data = data[self.buffer.write(data):]


def _to_devnull(stream):
    """Point the stream's file descriptor at devnull, so the flush at
    interpreter exit cannot fail on what the stream still holds."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _error(message):
    """Exit code 2 after one error line; stderr may be the closed pipe
    that stdout was (as in `2>&1 | head -1`), and then it goes unsaid."""
    try:
        sys.stderr.write(f"error: {message}\n")
        sys.stderr.flush()
    except OSError:
        _to_devnull(sys.stderr)
    return 2


def main(argv=None):
    try:
        # each request is parsed once, by the named subcommand's parser; a
        # NakayamaError from the argparse types (_int_list, _positive) passes
        # through argparse and is reported like every other input error
        args = _parse(sys.argv[1:] if argv is None else argv)
        code = args.func(args, _Whole(sys.stdout))
        sys.stdout.flush()
        return code
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    except NakayamaError as e:
        return _error(e)
    except MemoryError:
        pass  # reported below, once the handler has let go of the frames that filled memory
    except OSError as e:
        _to_devnull(sys.stdout)
        reason = "pipe closed" if isinstance(e, BrokenPipeError) else f"failed: {e}"
        return _error(f"output {reason}")
    return _error("out of memory")


if __name__ == "__main__":
    sys.exit(main())
