"""Command-line interface.

Subcommands: enumerate, hasse, translate, triangulate, count, verify.
Output is deterministic (canonical ordering everywhere, stable JSON);
exit codes: 0 success, 1 verification mismatch, 2 usage error or closed pipe.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

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


def _algebra_from_args(args):
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
    if args.trace:
        for step, (a, j) in enumerate(rejection_chain(alg, picks=args.picks)):
            ks = ",".join(f"{v}:{a.loewy[v]}" for v in a.vertices) or "-"
            tail = f" reject {j}" if j is not None else ""
            out.write(f"step {step}: kupisch {ks}{tail}\n")
    if args.method == "direct":
        h = poset.hasse_direct(alg)
    elif args.method == "rejection":
        h = poset.hasse_by_rejection(alg, picks=args.picks)
    else:
        h = poset.hasse_direct(alg)
        h2 = poset.hasse_by_rejection(alg, picks=args.picks)
        if h != h2:
            sys.stderr.write("hasse mismatch between direct and rejection\n")
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
    if n < 1:
        raise NakayamaError(f"--n must be a positive integer, got {n}")
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
    for flag in ("bijections", "counts"):
        n_max = getattr(args, flag)
        if n_max is not None and n_max < 1:
            raise NakayamaError(f"--{flag} must be a positive integer, got {n_max}")
    if args.rejection is not None and min(args.rejection) < 1:
        n_max, r_max = args.rejection
        raise NakayamaError(f"--rejection sizes must be positive integers, got {n_max} {r_max}")
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
    and no flag has a mutable default.
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
    pg.add_argument("--n", type=int, required=True)
    pg.add_argument("--bounds", type=str, help="comma-separated per-point length bounds")
    pg.add_argument("--format", choices=["text", "json", "dot"], default="text")
    pg.set_defaults(func=cmd_triangulate)

    pv = sub.add_parser("verify", help="verification bundles")
    pv.add_argument("--tables", action="store_true")
    pv.add_argument("--bijections", type=int, metavar="N_MAX")
    pv.add_argument("--counts", type=int, metavar="N_MAX")
    pv.add_argument(
        "--rejection", type=int, nargs=2, metavar=("N_MAX", "R_MAX")
    )
    pv.set_defaults(func=cmd_verify)

    return p


def main(argv=None):
    try:
        # NakayamaError from _int_list as the --picks type passes through
        # argparse and is reported like every other input error
        args = build_parser().parse_args(argv)
        code = args.func(args, sys.stdout)
        sys.stdout.flush()
        return code
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0
    except NakayamaError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except BrokenPipeError:
        # the reader went away: devnull takes the flush at interpreter exit
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        sys.stderr.write("error: output pipe closed\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
