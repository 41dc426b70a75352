#!/usr/bin/env python3
"""Two-prime stretch configuration: s = 11 * 31 at (p, M) = (5, 5).

Builds the composite-level cocycle closed form (ambient field of degree
1200) and then verifies the factorization law for s = 11, q = 31, whose
level-s*q class lives in the same field, reads that cocycle from the memo
and proves it: the resolvent's relation gives each value's norm 1 and the
descent its M-th power identity.  It prints each stage's time to a tenth of
a second.  On a shared 2-core Xeon (Python 3.11.7) a run takes 2.6-3.6 s,
depending on the machine's load: 1.2-2.0 s for the cocycle, most of it in
the degree-1200 products of the derivative D_s phi, and 1.3-1.6 s for the
factorization, most of it in the resolvent.  Those products multiply
through decimal's number-theoretic transform; with CPython's int multiply
alone, runs took 14-15 s.

Usage: python3 scripts/stretch_two_prime.py
"""

import pathlib
import sys
from time import perf_counter

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from kforge.euler import parse_omega  # noqa: E402
from kforge.kolyvagin import KolyParams, cocycle_closed_form  # noqa: E402
from kforge.primes import check_factorization  # noqa: E402


def main() -> int:
    E = parse_omega("1:1,2:-1")
    params = KolyParams(5, 0, 5)

    t0 = perf_counter()
    coc = cocycle_closed_form(E, params, 11 * 31)
    print(
        f"cocycle s=341: built, frobenius_exponents={coc.frobenius_exponents} "
        f"({perf_counter() - t0:.1f} s)",
        flush=True,
    )

    t0 = perf_counter()
    rep = check_factorization(E, params, 11, 31, seed=42)
    print(
        f"factorization s=11 q=31: passed={rep.passed} "
        f"valuations={rep.part_ii_valuations} dlogs={rep.part_ii_dlogs} "
        f"({perf_counter() - t0:.1f} s)",
        flush=True,
    )
    return 0 if rep.passed else 1


if __name__ == "__main__":
    raise SystemExit(main())
