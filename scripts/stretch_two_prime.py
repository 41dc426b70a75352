#!/usr/bin/env python3
"""Two-prime stretch configuration: s = 11 * 31 at (p, M) = (5, 5).

Certifies the composite-level cocycle closed form (ambient field of degree
1200) and then verifies the factorization law for s = 11, q = 31, whose
level-s*q class lives in the same field and reads that cocycle from the
memo.  On a shared 2-core Xeon (Python 3.11.7) a run takes 8-16 s,
depending on the machine's load: 6-10 s for the cocycle certificate, most of
it in the degree-1200 products of the derivative D_s phi and of the
certificate, and 3-6 s for the factorization.  Those products multiply
through decimal's number-theoretic transform; with CPython's int multiply
alone, runs under the same loads took 19-36 s.
"""

import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from kforge.euler import parse_omega  # noqa: E402
from kforge.kolyvagin import KolyParams, cocycle_closed_form  # noqa: E402
from kforge.primes import check_factorization  # noqa: E402


def main() -> int:
    E = parse_omega("1:1,2:-1")
    params = KolyParams(5, 0, 5)

    t0 = time.time()
    coc = cocycle_closed_form(E, params, 11 * 31)
    print(
        f"cocycle s=341: certified, frobenius_exponents={coc.frobenius_exponents} "
        f"({time.time() - t0:.0f} s)",
        flush=True,
    )

    t0 = time.time()
    rep = check_factorization(E, params, 11, 31, seed=42)
    print(
        f"factorization s=11 q=31: passed={rep.passed} "
        f"valuations={rep.part_ii_valuations.entries} dlogs={rep.part_ii_dlogs.entries} "
        f"({time.time() - t0:.0f} s)",
        flush=True,
    )
    return 0 if rep.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
