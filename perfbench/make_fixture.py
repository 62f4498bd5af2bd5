"""Regenerate the level-80 (p, z, q) fixture used by the fixture workloads.

    python3 perfbench/make_fixture.py --seed 9

Runs `params.setup` at security level 80 with `Rng(seed)`, checks the set
with `params.validate`, and writes p, z, q (hex) with the seed and this
command to perfbench/fixtures/level80.json.
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from mpnike import numt, params  # noqa: E402


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seed", type=int, default=9)
    args = ap.parse_args(argv)
    pp, msk = params.setup(params.security_level("80"), numt.Rng(args.seed))
    if not params.validate(pp, msk).ok:
        print("generated parameters failed validation", file=sys.stderr)
        return 1
    fixture = {
        "level": "80",
        "seed": args.seed,
        "command": f"python3 perfbench/make_fixture.py --seed {args.seed}",
        "modulus_bits": pp.N.bit_length(),
        "p": numt.int_to_hex(msk.p),
        "z": numt.int_to_hex(msk.z),
        "q": numt.int_to_hex(msk.q),
    }
    with open(os.path.join(HERE, "fixtures", "level80.json"), "w", encoding="utf-8") as fh:
        json.dump(fixture, fh, indent=1)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
