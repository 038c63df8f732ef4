"""Record the stdout digests the benchmark compares outputs with.

    python3 perfbench/record_digests.py

Run once, at the commit that adds the benchmark; the library's output is
meant to stay byte-identical, so later commits check against these files
and never rewrite them.  An output that fails its invariant is not recorded.
"""

from __future__ import annotations

import hashlib
import json
import sys

import workloads
from run import SRC


def main():
    _, cli, _ = workloads.setup(SRC)

    def digest(argv):
        rc, out, _ = workloads.run_command(cli, argv)
        reason = f"exit code {rc}" if rc != 0 else workloads.invariant(argv, out)
        if reason is not None:
            sys.exit(f"not recording {' '.join(argv)}: {reason}")
        return hashlib.sha256(out.encode()).digest()

    fixed = {}
    for name in workloads.WORKLOADS:
        if name == "translate":
            continue
        for tiny in (False, True):
            for argv in workloads.commands(name, 0, tiny):
                fixed[" ".join(argv)] = digest(argv).hex()
    workloads.DIGESTS.write_text(json.dumps(fixed, sort_keys=True, indent=1) + "\n")

    table = bytearray()
    for n in workloads.TRANSLATE_DIGEST_SIZES:
        for dst in workloads.TRANSLATE_TARGETS:
            for seq in workloads.compositions(n):
                argv = ["translate", "--cyclic", str(n), "--r", str(n), "--from", "seq",
                        "--to", dst, "--payload", ",".join(map(str, seq))]
                table += digest(argv)[:workloads.TRANSLATE_DIGEST_BYTES]
    workloads.TRANSLATE_DIGESTS.write_bytes(bytes(table))
    print(f"{len(fixed)} command digests, {len(table) // workloads.TRANSLATE_DIGEST_BYTES} translate digests")


if __name__ == "__main__":
    main()
