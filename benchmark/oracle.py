"""Independent checks of kforge outputs by evaluation at roots of unity mod primes.

An element x of Q(zeta_m) with power-basis numerators f_i and denominator d is
f(zeta_m)/d.  For a prime l = 1 (mod m) and a primitive m-th root of unity r
mod l, x -> f(r)/d mod l is a ring homomorphism wherever d is prime to l.  A
wrong product, Galois image or quotient therefore shows as a wrong value at r
except with probability about 1/l per point.  sigma_a(x) at r is x at r^a, and
an element of Q(zeta_k), k | m, embedded into Q(zeta_m) is evaluated at
r^(m/k).  Nothing here calls kforge, so a faster representation cannot pass
these checks with wrong output.
"""

from __future__ import annotations

import math

PRIME_FLOOR = 1 << 40  # about 1e-12 chance that a wrong value agrees at one point
PRIMES_PER_CHECK = 3
ROOTS_PER_PRIME = 4

_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin with the first twelve prime bases, exact below 3.3e24."""
    if n < 2:
        return False
    for b in _MR_BASES:
        if n % b == 0:
            return n == b
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for b in _MR_BASES:
        x = pow(b, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_factors(n: int) -> list[int]:
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def least_primitive_root(q: int) -> int:
    factors = prime_factors(q - 1)
    for g in range(2, q):
        if all(pow(g, (q - 1) // f, q) != 1 for f in factors):
            return g
    raise ValueError(f"no primitive root mod {q}")


def evaluation_points(m: int) -> list[tuple[int, int]]:
    """(l, r) pairs: primes l = 1 (mod m) above PRIME_FLOOR, r of order m mod l."""
    factors = prime_factors(m)
    units = [k for k in range(1, m + 1) if math.gcd(k, m) == 1]
    step = max(1, len(units) // ROOTS_PER_PRIME)
    points = []
    k = PRIME_FLOOR // m + 1
    while len(points) < PRIMES_PER_CHECK * ROOTS_PER_PRIME:
        ell = k * m + 1
        k += 1
        if not is_prime(ell):
            continue
        for g in range(2, ell):
            r = pow(g, (ell - 1) // m, ell)
            if all(pow(r, m // f, ell) != 1 for f in factors):
                break
        for u in units[::step][:ROOTS_PER_PRIME]:
            points.append((ell, pow(r, u, ell)))
    return points


def evaluate(num, den: int, r: int, ell: int) -> int | None:
    """num(r)/den mod ell, or None when den vanishes mod ell."""
    if den % ell == 0:
        return None
    acc = 0
    for c in reversed(num):
        acc = (acc * r + c) % ell
    return acc * pow(den, -1, ell) % ell


def _value(elt: dict, r: int, ell: int) -> int | None:
    """Evaluate a serialized element {"conductor", "den", "num"}."""
    return evaluate([int(c) for c in elt["num"]], int(elt["den"]), r, ell)


def check_kernel(kind: str, m: int, inputs: dict, out: dict) -> str | None:
    """Check one field-kernel result; None when every point agrees.

    inputs holds the generated integer vectors a, b (and y, sub for the
    quotient) and the Galois exponent g; out is the serialized result.
    """
    if int(out["conductor"]) != (inputs["sub"] if kind == "divide" else m):
        return f"{kind}: result lives in Q(zeta_{out['conductor']})"
    num = [int(c) for c in out["num"]]
    den = int(out["den"])
    for ell, r in evaluation_points(m):
        if kind == "mul":
            want = evaluate(inputs["a"], 1, r, ell) * evaluate(inputs["b"], 1, r, ell) % ell
            got = evaluate(num, den, r, ell)
        elif kind == "galois":
            want = evaluate(inputs["a"], 1, pow(r, inputs["g"], ell), ell)
            got = evaluate(num, den, r, ell)
        else:
            rho = pow(r, m // inputs["sub"], ell)
            want = evaluate(inputs["y"], 1, rho, ell)
            got = evaluate(num, den, rho, ell)
        if got != want:
            return f"{kind} at m={m}: value {got} != {want} mod {ell}"
    return None


def _parse_pairs(omega: str) -> list[tuple[int, int]]:
    pairs = []
    for token in omega.split(","):
        a, _, n = token.partition(":")
        pairs.append((int(a), int(n)))  # decorated systems are not used by the benchmark
    return pairs


def check_kappa_report(report: dict) -> str | None:
    """Re-verify embed(kappa) * beta^M == D_s phi from a kappa report alone.

    D_s phi is evaluated from its definition: phi at the level root
    eta = zeta_N^e, e = N/m + sum N/q, is prod (eta^-a - eta^a)^n, and
    D_q y = prod_{i=1}^{q-2} sigma_q^i(y)^i where sigma_q raises the q-part of
    zeta_N to the t_q-th power (t_q the least primitive root mod q).
    """
    cfg = report["config"]
    m = int(cfg["p"]) ** (int(cfg["n"]) + 1)
    M = int(cfg["M"])
    pairs = _parse_pairs(cfg["omega"])
    witness = next(c["witness"] for c in report["checks"] if c["name"] == "kappa_class")
    s = int(witness["s"])
    N = m * s
    qs = prime_factors(s) if s > 1 else []
    e = (N // m + sum(N // q for q in qs)) % N
    # exponents a (mod N) of sigma_q^i together with the weight i, per prime q
    ladders = []
    for q in qs:
        t, cof = least_primitive_root(q), N // q
        inv = pow(cof, -1, q)
        ladders.append([(1 + cof * ((pow(t, i, q) - 1) * inv % q), i) for i in range(1, q - 1)])
    combos = [(1, 1)]
    for ladder in ladders:
        combos = [(a * b % N, w * i) for a, w in combos for b, i in ladder]
    checked = 0
    for ell, r in evaluation_points(N):
        dsphi = 1
        for a, weight in combos:
            u = pow(r, a, ell)
            x = 1
            for base, n in pairs:
                k = e * base % N
                term = (pow(u, N - k, ell) - pow(u, k, ell)) % ell
                x = x * pow(term, n, ell) % ell
            dsphi = dsphi * pow(x, weight, ell) % ell
        kap = _value(witness["kappa"], pow(r, N // m, ell), ell)
        beta = _value(witness["beta"], r, ell)
        if kap is None or beta is None:
            continue
        checked += 1
        if kap * pow(beta, M, ell) % ell != dsphi:
            return f"kappa identity fails at s={s} mod {ell}"
    return None if checked else f"kappa identity not checked at s={s}"
