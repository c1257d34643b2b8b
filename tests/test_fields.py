"""Field construction, arithmetic and homomorphism enumeration."""

import itertools

import numpy as np
import pytest

from bfgeo import fields
from bfgeo.errors import DegreeTooLarge, NotPrime, TheoremViolated
from bfgeo.fields import (Field, FieldHom, _mod, canonical_modulus, enumerate_homs,
                          field_from_order, identity_hom, is_prime, make_field,
                          parse_field_name)


def digits(a, p, k):
    """Coefficient vector (c_0, ..., c_{k-1}) of the element with index a."""
    return [int(a) // p**i % p for i in range(k)]


def poly_mul_mod(a, b, mod, p):
    """Independent reference: multiply polynomials, reduce mod (mod, p)."""
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % p
    while len(prod) >= len(mod):
        lead = prod[-1]
        shift = len(prod) - len(mod)
        for t, mt in enumerate(mod):
            prod[shift + t] = (prod[shift + t] - lead * mt) % p
        prod.pop()
    return prod


def test_gf4_canonical_modulus_is_unique_quadratic():
    # the only monic irreducible quadratic over GF(2)
    assert make_field(2, 2).modulus == (1, 1, 1)


def test_prime_field_modulus_convention():
    F = make_field(5, 1)
    assert F.modulus == (0, 1)
    assert F.q == 5


def test_gf16_modulus_confirmed_irreducible_by_trial_division():
    F = make_field(2, 4)
    assert F.modulus == (1, 1, 0, 0, 1)
    # independent check: no monic divisor of degree 1 or 2 divides it
    coeffs = list(F.modulus)
    for d in (1, 2):
        for tail in range(2**d):
            div = [(tail >> i) & 1 for i in range(d)] + [1]
            rem = list(coeffs)
            while len(rem) >= len(div):
                if rem[-1]:
                    shift = len(rem) - len(div)
                    for t, mt in enumerate(div):
                        rem[shift + t] ^= mt
                rem.pop()
            assert any(rem), f"degree-{d} divisor found"


def test_construction_rejections():
    with pytest.raises(NotPrime):
        make_field(6, 1)
    with pytest.raises(DegreeTooLarge):
        make_field(2, 17)
    with pytest.raises(DegreeTooLarge):
        make_field(2, 0)
    # bounded before p**k and the primality test, so these return at once
    with pytest.raises(DegreeTooLarge):
        make_field(1000000000000000003, 1)
    with pytest.raises(DegreeTooLarge):
        make_field(3, 10**12)
    with pytest.raises(DegreeTooLarge):
        field_from_order(1000000000000000003)


def prime_factors(n):
    out, d = set(), 2
    while d * d <= n:
        while n % d == 0:
            out.add(d)
            n //= d
        d += 1
    return out | ({n} if n > 1 else set())


@pytest.mark.parametrize("p", [7, 251, 257, 65521])
def test_prime_field_tables_are_powers_of_the_least_primitive_root(p):
    F = make_field(p, 1)
    g = F.generator

    def primitive(c):
        return all(pow(c, (p - 1) // r, p) != 1 for r in prime_factors(p - 1))

    assert primitive(g) and not any(primitive(c) for c in range(2, g))
    i = np.arange(p - 1)
    assert np.array_equal(F._exp, [pow(g, e, p) for e in range(p - 1)])
    assert np.array_equal(F._log[F._exp], i)
    assert (F.inv_table[1:].astype(np.int64) * (i + 1) % p == 1).all()


def assert_same(got, want):
    """Equal values in the same dtype (or both Python ints)."""
    assert type(got) is type(want)
    assert np.asarray(got).dtype == np.asarray(want).dtype
    assert np.array_equal(got, want)


def oracle_tables(F):
    """F's tables built one polynomial product at a time: the least
    generator by the order of each candidate, then its powers."""
    p, k, q = F.p, F.k, F.q
    digits = [[a // p**i % p for i in range(k)] for a in range(q)]
    mod = list(F.modulus)

    def mul(a, b):
        return sum(c * p**i for i, c in enumerate(poly_mul_mod(digits[a], digits[b], mod, p)))

    gen = 1
    for cand in range(2, q):
        x, order = cand, 1
        while x != 1:
            x, order = mul(x, cand), order + 1
        if order == q - 1:
            gen = cand
            break
    exp = np.empty(q - 1, dtype=np.int32)
    log = np.zeros(q, dtype=np.int32)
    x = 1
    for i in range(q - 1):
        exp[i], log[x] = x, i
        x = mul(x, gen)
    inv = np.zeros(q, dtype=np.int32)
    inv[1:] = exp[(q - 1 - log[1:]) % (q - 1)]
    d, pw = np.array(digits), p ** np.arange(k)
    out = {"generator": gen, "_exp": exp, "_log": log, "inv_table": inv,
           "neg_table": (-d % p @ pw).astype(np.int32), "add_table": None, "mul_table": None}
    if q <= 256:
        out["add_table"] = ((d[:, None] + d[None]) % p @ pw).astype(np.uint8)
        out["mul_table"] = np.zeros((q, q), dtype=np.uint8)
        out["mul_table"][1:, 1:] = exp[(log[1:, None] + log[None, 1:]) % (q - 1)]
    return out


# every field of at most 4096 elements that the test suite builds, and the
# two largest extension fields of at most 4096 elements
ORACLE_FIELDS = [(2, 1), (2, 2), (2, 3), (2, 4), (2, 6), (2, 8), (2, 12), (3, 1), (3, 2),
                 (3, 3), (3, 4), (3, 6), (3, 7), (5, 1), (5, 2), (5, 3), (5, 4), (7, 1),
                 (7, 2), (11, 1), (181, 1), (191, 1), (193, 1), (251, 1), (257, 1),
                 (1021, 1), (1031, 1)]


@pytest.mark.parametrize("p,k", ORACLE_FIELDS)
def test_tables_match_the_polynomial_power_loop(p, k):
    F = make_field(p, k)
    for name, want in oracle_tables(F).items():
        if want is None:
            assert getattr(F, name) is None, name
        else:
            assert_same(getattr(F, name), want)


def test_prime_factors_resolve_orders_and_primes():
    # one trial division serves is_prime, field_from_order and the order test
    for n in range(-3, 3000):
        want = sorted(prime_factors(n)) if n > 1 else []
        assert fields._prime_factors(n) == want, n
        assert is_prime(n) == (want == [n]), n
    for q in range(-3, 1100):
        primes = fields._prime_factors(q)
        if len(primes) != 1:
            with pytest.raises(NotPrime):
                field_from_order(q)
        else:
            F = field_from_order(q)
            assert (F.p, F.q) == (primes[0], q)


def test_a_generator_passing_a_wrong_order_test_breaks_loudly(monkeypatch):
    # with no primes listed for q - 1 = 6, GF(7)'s first candidate 2 (of
    # order 3) passes the order test, and its power list holds 1 twice
    real = fields._prime_factors
    monkeypatch.setattr(fields, "_prime_factors", lambda n: [] if n == 6 else real(n))
    with pytest.raises(TheoremViolated):
        Field(7, 1)


@pytest.mark.parametrize("p,k,gen", [(2, 16, 3), (3, 10, 34), (65521, 1, 17)])
def test_large_field_tables_are_powers_of_the_least_generator(p, k, gen):
    # the power loop is too slow here: the generator is the one it found,
    # exp lists each nonzero element once, and a seeded sample of its steps
    # (the wrap back to 1 among them) are products by g
    F = make_field(p, k)
    q = F.q
    assert F.generator == gen
    assert np.array_equal(np.sort(F._exp), np.arange(1, q))
    assert np.array_equal(F._log[F._exp], np.arange(q - 1))
    mod, g = list(F.modulus), digits(gen, p, k)
    for i in [q - 2, *np.random.default_rng(q).integers(0, q - 1, size=300)]:
        step = poly_mul_mod(digits(F._exp[i], p, k), g, mod, p)
        assert sum(c * p**j for j, c in enumerate(step)) == F._exp[(i + 1) % (q - 1)]


@pytest.mark.parametrize("p", [p for p in range(3, 182) if is_prime(p)])
def test_mod_is_numpy_remainder_on_int16_residue_products(p):
    # sums, differences, products and 2x2 minors of residues reach
    # [-(p - 1)^2, (p - 1)^2]; at p = 181, x // p * p = -32580 at the bottom
    x = np.arange(-(p - 1) ** 2, (p - 1) ** 2 + 1, dtype=np.int16)
    assert_same(_mod(x, p), x % p)
    assert_same(_mod(x[:1], p), x[:1] % p)
    assert_same(_mod(x[0], p), x[0] % p)  # a numpy scalar, as from a 0-d vadd
    assert_same(_mod(-(p - 1) ** 2, p), -(p - 1) ** 2 % p)


@pytest.mark.parametrize("d", [191, 251, 257, 65520, 65521])
def test_mod_is_numpy_remainder_on_int64_residue_products(d):
    # p > 181 works in int64; d = q - 1 reduces the logarithms of GF(q)
    top = (d - 1) ** 2
    rng = np.random.default_rng(d)
    x = np.concatenate([np.arange(-3 * d, 3 * d), [-top, 1 - top, top - 1, top],
                        rng.integers(-top, top, size=10**5, endpoint=True)])
    assert_same(_mod(x, d), x % d)
    assert_same(_mod(x.reshape(-1, 2), d), x.reshape(-1, 2) % d)


# (p, t) on both sides of the int32 accumulator bound (p - 1)^2 t < 2^31
@pytest.mark.parametrize("p,t", [(3, 4), (181, 4), (32749, 2), (32749, 3), (65521, 1),
                                 (65521, 4)])
def test_mod_is_numpy_remainder_on_matmul_accumulators(p, t):
    top = (p - 1) ** 2 * t
    acc = np.int32 if top < 2**31 else np.int64
    rng = np.random.default_rng(p + t)
    x = np.concatenate([np.arange(0, 3 * p), [top - 1, top],
                        rng.integers(0, top, size=10**5, endpoint=True)]).astype(acc)
    assert_same(_mod(x, p), x % p)


@pytest.mark.parametrize("d", [3, 5, 9, 25, 625, 729, 1021, 65521])
def test_mod_is_numpy_remainder_on_int64_codes(d):
    # codes reach q^(m n) - 1 <= 2^63 - 1; code arithmetic divides by q^g
    rng = np.random.default_rng(d)
    x = np.concatenate([np.arange(0, 3 * d), [2**63 - d, 2**63 - 1],
                        rng.integers(0, 2**63 - 1, size=10**5, endpoint=True)]).astype(np.int64)
    assert_same(_mod(x, d), x % d)


def _remainder_kernels(F, a, b):
    """vadd, vsub and vmul as written with numpy's %, for odd p."""
    p, q = F.p, F.q
    if F.k == 1:
        A = np.asarray(a, dtype=F._arith_dtype)
        return (A + b) % p, (A - b) % p, (A * b) % p
    a, b = np.asarray(a), np.asarray(b)

    def add(a, b):
        d = (F._digits[a] + F._digits[b]) % p
        out = (d @ F._powers).astype(np.int64)
        return out if F.add_table is None else out.astype(F.add_table.dtype)

    if F.mul_table is None:
        prod = F._exp[(F._log[a].astype(np.int64) + F._log[b]) % (q - 1)]
        prod = np.where((a == 0) | (b == 0), 0, prod)
    else:
        prod = F.mul_table[a, b]
    return add(a, b), add(a, F.neg_table[b]), prod


# odd primes in int16 and int64, odd extension fields with and without the
# dense q x q tables
@pytest.mark.parametrize("p,k", [(3, 1), (5, 1), (181, 1), (191, 1), (257, 1), (65521, 1),
                                 (3, 2), (7, 2), (5, 4), (3, 6)])
def test_field_kernels_keep_the_remainder_values_and_dtypes(p, k):
    F = make_field(p, k)
    rng = np.random.default_rng(p * 10 + k)
    a = rng.integers(0, F.q, size=(200, 3)).astype(F.dtype)
    b = rng.integers(0, F.q, size=(200, 3)).astype(F.dtype)
    a[:2], b[:2] = 0, F.q - 1
    for x, y in [(a, b), (a, b.astype(np.int64)), (a.astype(np.int64), b[0]),
                 (a, int(b[1, 0])), (a[0, 0], b[0, 0])]:
        got = F.vadd(x, y), F.vsub(x, y), F.vmul(x, y)
        for g, want in zip(got, _remainder_kernels(F, x, y)):
            assert_same(g, want)
    if k > 1:
        a64, b64 = a.astype(np.int64), b.astype(np.int64)
        d = (F._digits[a64] + F._digits[b64]) % p
        assert_same(F._vadd_nocache(a64, b64), (d @ F._powers).astype(np.int64))


def test_gf4_alpha_squared():
    F = make_field(2, 2)
    alpha = 2  # class of x
    assert F.mul(alpha, alpha) == 3  # alpha + 1


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (3, 1), (2, 3), (5, 1), (3, 2)])
def test_field_axioms_exhaustive(p, k):
    F = make_field(p, k)
    q = F.q
    a = np.repeat(np.arange(q), q)
    b = np.tile(np.arange(q), q)
    # commutativity (both operations)
    assert np.array_equal(F.vadd(a, b), F.vadd(b, a))
    assert np.array_equal(F.vmul(a, b), F.vmul(b, a))
    # identities and inverses
    assert np.array_equal(F.vadd(np.arange(q), np.zeros(q, dtype=int)), np.arange(q))
    assert np.array_equal(F.vmul(np.arange(q), np.ones(q, dtype=int)), np.arange(q))
    assert not F.vadd(np.arange(q), F.vneg(np.arange(q))).any()
    nz = np.arange(1, q)
    assert np.array_equal(F.vmul(nz, F.inv_table[nz]), np.ones(q - 1, dtype=int))
    # associativity and distributivity on all triples when affordable
    if q <= 16:
        t = np.arange(q)
        aa, bb, cc = np.meshgrid(t, t, t, indexing="ij")
        assert np.array_equal(F.vadd(F.vadd(aa, bb), cc), F.vadd(aa, F.vadd(bb, cc)))
        assert np.array_equal(F.vmul(F.vmul(aa, bb), cc), F.vmul(aa, F.vmul(bb, cc)))
        assert np.array_equal(F.vmul(aa, F.vadd(bb, cc)),
                              F.vadd(F.vmul(aa, bb), F.vmul(aa, cc)))


@pytest.mark.parametrize("q", [2, 4, 5, 257, 512, 729])
def test_scalar_ops_agree_with_the_vector_ops(q):
    # every branch of vmul: int16 and int64 residues, q x q tables and
    # log/exp.  All pairs up to GF(257); past it
    # every element against 0, 1, q - 1 and a stride, in each slot, as all
    # pairs of GF(729) take 15 s of scalar calls on 2 vCPUs
    F = field_from_order(q)
    a = np.arange(q)
    if q <= 257:
        pairs = [(a[:, None], a[None, :])]
    else:
        b = np.unique(np.r_[0, 1, q - 1, a[::q // 13]])
        pairs = [(a[:, None], b[None, :]), (b[:, None], a[None, :])]
    for x, y in pairs:
        scalar = np.frompyfunc(lambda s, t: F.mul(int(s), int(t)), 2, 1)(x, y)
        assert all(type(v) is int for v in scalar.ravel())
        assert np.array_equal(scalar.astype(np.int64), F.vmul(x, y))


def test_scalar_arith_matches_reference_polynomials():
    F = make_field(3, 2)
    mod = list(F.modulus)
    for a in range(F.q):
        for b in range(F.q):
            ref = poly_mul_mod(digits(a, 3, 2), digits(b, 3, 2), mod, 3)
            ref_idx = sum(c * 3**i for i, c in enumerate(ref))
            assert F.mul(a, b) == ref_idx


def test_inv_and_div():
    F = make_field(2, 2)
    assert F.inv(1) == 1
    for a in range(1, F.q):
        assert F.mul(a, F.inv(a)) == 1
    with pytest.raises(ZeroDivisionError):
        F.inv(0)


def test_field_serialization():
    F = make_field(2, 2)
    assert F.name == "2,2"
    assert parse_field_name("2,2") is F
    assert field_from_order(4) is F
    with pytest.raises(NotPrime):
        field_from_order(12)


# --- homomorphisms ------------------------------------------------------------

def test_enumerate_homs_counts():
    F4 = make_field(2, 2)
    F8 = make_field(2, 3)
    F16 = make_field(2, 4)
    assert len(enumerate_homs(F4, F4)) == 2
    assert enumerate_homs(F4, F8) == []
    assert len(enumerate_homs(F4, F16)) == 2
    assert enumerate_homs(F4, make_field(3, 2)) == []
    assert len(enumerate_homs(make_field(3, 1), make_field(3, 2))) == 1


def test_homs_sorted_by_generator_image():
    F4 = make_field(2, 2)
    homs = enumerate_homs(F4, F4)
    assert [h.generator_image for h in homs] == sorted(h.generator_image for h in homs)
    # identity comes first for GF(4) -> GF(4)
    assert np.array_equal(homs[0].table, np.arange(4))


def test_frobenius_on_gf4():
    F4 = make_field(2, 2)
    frob = enumerate_homs(F4, F4)[1]
    alpha = 2
    assert frob(alpha) == F4.mul(alpha, alpha) == 3
    assert frob(0) == 0 and frob(1) == 1


def test_hom_laws_exhaustive_and_injective():
    F4 = make_field(2, 2)
    F16 = make_field(2, 4)
    for h in enumerate_homs(F4, F16):
        for a in range(F4.q):
            for b in range(F4.q):
                assert h(int(F4.vadd(a, b))) == int(F16.vadd(h(a), h(b)))
                assert h(F4.mul(a, b)) == F16.mul(h(a), h(b))
        images = {h(a) for a in range(F4.q)}
        assert len(images) == F4.q


def test_galois_group_is_cyclic_of_order_k():
    F = make_field(2, 4)
    homs = enumerate_homs(F, F)
    assert len(homs) == 4
    frob_like = [h for h in homs if not np.array_equal(h.table, np.arange(F.q))]
    # some element generates the whole group by composition
    generated = False
    for g in frob_like:
        seen = {g}
        cur = g
        for _ in range(F.k - 1):
            cur = FieldHom(F, F, cur.table[g.table])
            seen.add(cur)
        generated = generated or len(seen) == F.k
    assert generated


def pair_check(src, dst, t):
    """The ring laws of a table on all q^2 operand pairs."""
    t = np.asarray(t)
    a = np.repeat(np.arange(src.q), src.q)
    b = np.tile(np.arange(src.q), src.q)
    return bool(src.p == dst.p and t[0] == 0 and t[1] == 1 and len(np.unique(t)) == src.q
                and (t[src.vadd(a, b)] == dst.vadd(t[a], t[b])).all()
                and (t[src.vmul(a, b)] == dst.vmul(t[a], t[b])).all())


def proven(src, dst, t):
    try:
        FieldHom(src, dst, t)
    except ValueError:
        return False
    return True


SMALL_FIELDS = [make_field(p, k) for p, k in ORACLE_FIELDS if p**k <= 256]
SMALL_PAIRS = [(s, d) for s in SMALL_FIELDS for d in SMALL_FIELDS
               if s.p == d.p and d.k % s.k == 0]


@pytest.mark.parametrize("src,dst", SMALL_PAIRS, ids=lambda F: F.name)
def test_every_hom_passes_the_pair_check_and_the_proof(src, dst):
    homs = enumerate_homs(src, dst)
    assert len(homs) == src.k
    for h in homs:
        assert pair_check(src, dst, h.table) and proven(src, dst, h.table)


@pytest.mark.parametrize("src,dst", [(s, d) for s, d in SMALL_PAIRS
                                     if s.k > 1 and d.q ** (s.k - 1) <= 4096],
                         ids=lambda F: F.name)
def test_the_proof_accepts_the_additive_tables_the_pair_check_accepts(src, dst):
    # every table with t[1] = 1 that is GF(p)-linear on digit vectors: one
    # per choice of the images of x, ..., x^(k-1)
    accepted = set()
    for images in itertools.product(range(dst.q), repeat=src.k - 1):
        basis = dst._digits[[1, *images]]
        t = src._digits @ basis % src.p @ dst._powers
        ok = proven(src, dst, t)
        assert ok == pair_check(src, dst, t), images
        if ok:
            accepted.add(tuple(t))
    assert accepted == {tuple(h.table) for h in enumerate_homs(src, dst)}


def _swapped():
    t = np.arange(16)
    t[[2, 3]] = 3, 2
    return make_field(2, 4), make_field(2, 4), t


def _digit_permutation():
    # additive and fixes 1, but x -> x^2 -> x is not a ring map of GF(8)
    F8 = make_field(2, 3)
    return F8, F8, F8._digits[:, [0, 2, 1]] @ F8._powers


def _wrong_order():
    # GF(4)'s generator x -> the generator of GF(16)*, of order 15, not 3
    F16 = make_field(2, 4)
    h = F16.generator
    return make_field(2, 2), F16, [0, 1, h, int(F16.vadd(h, 1))]


@pytest.mark.parametrize("case,match", [
    (_swapped, "additivity fails"),
    (_digit_permutation, "multiplicativity fails"),
    (_wrong_order, "multiplicativity fails"),
    (lambda: (make_field(2, 1), make_field(3, 1), [0, 1]), "characteristics differ"),
    (lambda: (make_field(2, 2), make_field(2, 2), [0, 1, 2, 9]), "outside GF"),
    # 2^32 + 3 wraps to 3 in int32, which would make this the identity
    (lambda: (make_field(2, 2), make_field(2, 2), np.array([0, 1, 2, 2**32 + 3])),
     "outside GF"),
], ids=["two images swapped", "digit permutation", "generator image of wrong order",
        "characteristics differ", "image out of range", "image past int32"])
def test_the_proof_rejects_near_misses(case, match):
    src, dst, t = case()
    if src.p == dst.p and max(t) < dst.q:
        assert not pair_check(src, dst, t)
    with pytest.raises(ValueError, match=match):
        FieldHom(src, dst, t)


@pytest.mark.parametrize("table", [[0, 1, 2.7, 3], np.array(["0", "1", "2", "3"]),
                                   np.array([0, 1, 2, 3], dtype=object)],
                         ids=["float", "str", "object"])
def test_hom_table_must_be_integers(table):
    # [0, 1, 2.7, 3] was cast to [0, 1, 2, 3], the identity of GF(4)
    F4 = make_field(2, 2)
    with pytest.raises(ValueError, match="must be integers"):
        FieldHom(F4, F4, table)


def test_invalid_hom_rejected():
    F4 = make_field(2, 2)
    F5 = make_field(5, 1)
    with pytest.raises(ValueError):
        FieldHom(F4, F4, [0, 1, 1, 2])  # not injective
    with pytest.raises(ValueError):
        FieldHom(F5, F5, [0, 1, 2, 4, 3])  # injective but breaks additivity


def test_identity_hom():
    F = make_field(5, 1)
    h = identity_hom(F)
    assert all(h(a) == a for a in range(F.q))
