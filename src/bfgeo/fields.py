"""Exact arithmetic in small finite fields GF(p^k), p^k <= 2^16.

Elements are plain Python ints in [0, q): the coefficient vector
(c_0, ..., c_{k-1}) of the residue polynomial is packed as the radix-p
integer sum(c_i * p^i).  Index 0 is the zero element and index 1 the one
element, for every field.

The reducing polynomial is canonical: among all monic irreducible
polynomials of degree k over GF(p), the one whose non-leading coefficient
vector (c_{k-1}, ..., c_0), read as a base-p integer, is smallest.  For
k = 1 the convention is the polynomial x (coefficients [0, 1]), so prime
fields are plain integers mod p.

Scalar operations take and return ints.  The ``v*`` variants operate on
numpy arrays of element indices and are the workhorses of the exhaustive
sweeps elsewhere in the package.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DegreeTooLarge, NotPrime, TheoremViolated

ORDER_LIMIT = 1 << 16

# Exhaustive pair check bound for homomorphism validation; above it the
# construction is still verified on every element plus 10^6 random pairs.
_HOM_EXHAUSTIVE_LIMIT = 4096


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    i = 2
    while i * i <= n:
        if n % i == 0:
            return False
        i += 1
    return True


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p), little-endian coefficient tuples
# ---------------------------------------------------------------------------

def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


def _poly_mul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return _poly_trim(out)


def _poly_mod(a, m, p):
    # m monic
    a = list(a)
    dm = len(m) - 1
    while len(a) - 1 >= dm and a:
        lead = a[-1]
        if lead:
            shift = len(a) - 1 - dm
            for i, mi in enumerate(m):
                a[shift + i] = (a[shift + i] - lead * mi) % p
        a.pop()
    return _poly_trim(a)


def _int_to_poly(x: int, p: int):
    c = []
    while x:
        c.append(x % p)
        x //= p
    return c


def _poly_to_int(c, p: int) -> int:
    out = 0
    for ci in reversed(_poly_trim(c)):
        out = out * p + ci
    return out


def _is_irreducible(coeffs, p: int) -> bool:
    """Trial division by every monic polynomial of degree <= deg/2."""
    deg = len(coeffs) - 1
    if deg == 1:
        return True
    for d in range(1, deg // 2 + 1):
        for tail in range(p**d):
            div = _int_to_poly(tail, p) + [0] * (d - len(_int_to_poly(tail, p))) + [1]
            # long division remainder
            rem = _poly_mod(coeffs, div, p)
            if not rem:
                return False
    return True


def canonical_modulus(p: int, k: int):
    """Monic irreducible of degree k minimizing the packed coefficient key."""
    if k == 1:
        return (0, 1)
    for tail in range(p**k):
        lo = _int_to_poly(tail, p)
        coeffs = lo + [0] * (k - len(lo)) + [1]
        if _is_irreducible(coeffs, p):
            return tuple(coeffs)
    raise RuntimeError(f"no irreducible polynomial of degree {k} over GF({p})")


# ---------------------------------------------------------------------------
# the field context
# ---------------------------------------------------------------------------

class Field:
    """GF(p^k) with precomputed lookup tables.

    Not meant to be constructed directly; use :func:`make_field`, which
    interns contexts so equal parameters share one object.
    """

    def __init__(self, p: int, k: int):
        if not is_prime(p):
            raise NotPrime(f"p={p} is not prime")
        if k < 1 or p**k > ORDER_LIMIT:
            raise DegreeTooLarge(f"p^k = {p}**{k} outside (0, {ORDER_LIMIT}]")
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = canonical_modulus(p, k)
        self.name = f"{p},{k}"
        self._build_tables()

    # -- construction-time tables ------------------------------------------

    def _raw_mul(self, a: int, b: int) -> int:
        prod = _poly_mul(_int_to_poly(a, self.p), _int_to_poly(b, self.p), self.p)
        return _poly_to_int(_poly_mod(prod, list(self.modulus), self.p), self.p)

    def _build_tables(self):
        p, k, q = self.p, self.k, self.q
        idx = np.arange(q, dtype=np.int64)
        digits = np.empty((q, k), dtype=np.int32)
        rem = idx.copy()
        for i in range(k):
            digits[:, i] = rem % p
            rem //= p
        self._digits = digits
        self._powers = p ** np.arange(k, dtype=np.int64)

        self.neg_table = (((-digits) % p) @ self._powers).astype(np.int32)

        # discrete log via a multiplicative generator
        if q == 2:
            gen = 1
        else:
            gen = None
            for cand in range(2, q):
                seen = 1
                x = cand
                while x != 1:
                    x = self._raw_mul(x, cand)
                    seen += 1
                if seen == q - 1:
                    gen = cand
                    break
            if gen is None:
                raise TheoremViolated(f"GF({q})* has no generator")
        self.generator = gen
        exp = np.empty(q - 1, dtype=np.int32)
        log = np.zeros(q, dtype=np.int32)
        x = 1
        for i in range(q - 1):
            exp[i] = x
            log[x] = i
            x = self._raw_mul(x, gen)
        self._exp = exp
        self._log = log

        inv = np.zeros(q, dtype=np.int32)
        inv[1:] = exp[(q - 1 - log[1:]) % (q - 1)]
        self.inv_table = inv

        # dense q x q tables for the hot vectorized paths
        if q <= 256:
            a = idx[:, None]
            b = idx[None, :]
            self.add_table = self._vadd_nocache(a, b).astype(np.uint8)
            mul = np.zeros((q, q), dtype=np.uint8)
            nz = self._exp.astype(np.int64)
            lg = self._log
            mul[1:, 1:] = nz[(lg[1:, None] + lg[None, 1:]) % (q - 1)]
            self.mul_table = mul
        else:
            self.add_table = None
            self.mul_table = None

    # -- scalar API -----------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.p == 2:
            return a ^ b
        if self.k == 1:
            return (a + b) % self.p
        return int(self.add_table[a, b]) if self.add_table is not None \
            else int(self._vadd_nocache(np.int64(a), np.int64(b)))

    def neg(self, a: int) -> int:
        return int(self.neg_table[a])

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if a == 0 or b == 0:
            return 0
        return int(self._exp[(int(self._log[a]) + int(self._log[b])) % (self.q - 1)])

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return int(self.inv_table[a])

    def pow(self, a: int, e: int) -> int:
        if e == 0:
            return 1
        if a == 0:
            return 0
        return int(self._exp[(int(self._log[a]) * e) % (self.q - 1)])

    # -- vectorized API ---------------------------------------------------------

    def _vadd_nocache(self, a, b):
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self.k == 1:
            return (a + b) % self.p
        d = (self._digits[a] + self._digits[b]) % self.p
        return (d @ self._powers).astype(np.int64)

    @property
    def _arith_dtype(self):
        # products of residues must not overflow
        return np.int16 if self.p <= 181 else np.int64

    def vadd(self, a, b):
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self.k == 1:
            return (np.asarray(a, dtype=self._arith_dtype) + b) % self.p
        if self.add_table is not None:
            return self.add_table[a, b]
        return self._vadd_nocache(np.asarray(a), np.asarray(b))

    def vneg(self, a):
        return self.neg_table[a]

    def vsub(self, a, b):
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self.k == 1:
            return (np.asarray(a, dtype=self._arith_dtype) - b) % self.p
        return self.vadd(a, self.neg_table[b])

    def vmul(self, a, b):
        if self.k == 1:
            return (np.asarray(a, dtype=self._arith_dtype) * b) % self.p
        if self.mul_table is not None:
            return self.mul_table[a, b]
        a = np.asarray(a)
        b = np.asarray(b)
        out = self._exp[(self._log[a].astype(np.int64) + self._log[b]) % (self.q - 1)]
        return np.where((a == 0) | (b == 0), 0, out)

    def vinv(self, a):
        a = np.asarray(a)
        if np.any(a == 0):
            raise ZeroDivisionError("0 has no multiplicative inverse")
        return self.inv_table[a]

    # -- encoding and iteration --------------------------------------------------

    def coeffs(self, a: int):
        """Coefficient vector (c_0, ..., c_{k-1}) of element ``a``."""
        return tuple(int(c) for c in self._digits[a])

    def element(self, coeffs) -> int:
        coeffs = list(coeffs)
        if len(coeffs) != self.k or any(not 0 <= c < self.p for c in coeffs):
            raise ValueError(f"need {self.k} coefficients in [0, {self.p})")
        return int(sum(c * self.p**i for i, c in enumerate(coeffs)))

    def elements(self) -> range:
        return range(self.q)

    def nonzero_elements(self) -> range:
        return range(1, self.q)

    @property
    def dtype(self):
        return np.uint8 if self.q <= 256 else np.int32

    # -- misc ------------------------------------------------------------------

    def __repr__(self):
        return f"Field(GF({self.q}) = GF({self.p}^{self.k}))"

    def __eq__(self, other):
        return isinstance(other, Field) and (self.p, self.k) == (other.p, other.k)

    def __hash__(self):
        return hash((self.p, self.k))


@functools.lru_cache(maxsize=None)
def make_field(p: int, k: int) -> Field:
    """Construct (and intern) GF(p^k) with the canonical modulus."""
    return Field(p, k)


def field_from_order(q: int) -> Field:
    """Resolve a prime power q to its interned field GF(q)."""
    if q < 2:
        raise NotPrime(f"{q} is not a prime power")
    p = 2
    while p * p <= q:
        if q % p == 0:
            break
        p += 1
    else:
        p = q
    k = 0
    m = q
    while m % p == 0:
        m //= p
        k += 1
    if m != 1:
        raise NotPrime(f"{q} is not a prime power")
    return make_field(p, k)


def parse_field_name(name: str) -> Field:
    """Parse the "p,k" serialization."""
    p, k = name.split(",")
    return make_field(int(p), int(k))


# ---------------------------------------------------------------------------
# ring homomorphisms between fields
# ---------------------------------------------------------------------------

class FieldHom:
    """A nonzero ring homomorphism between two finite fields.

    Stored as the full image table.  Construction verifies the ring laws:
    exhaustively over all q^2 operand pairs when q <= 4096, otherwise on
    every single element plus 10^6 seeded random pairs.
    """

    def __init__(self, src: Field, dst: Field, table):
        self.src = src
        self.dst = dst
        t = np.asarray(table, dtype=np.int32)
        if t.shape != (src.q,):
            raise ValueError("image table must list every source element")
        self.table = t
        self._validate()

    def _validate(self):
        t = self.table
        src, dst = self.src, self.dst
        if t[0] != 0 or t[1] != 1:
            raise ValueError("not a nonzero ring homomorphism: must fix 0 and 1")
        if len(np.unique(t)) != src.q:
            raise ValueError("not injective")
        if src.q <= _HOM_EXHAUSTIVE_LIMIT:
            a = np.repeat(np.arange(src.q), src.q)
            b = np.tile(np.arange(src.q), src.q)
        else:
            rng = np.random.default_rng(0)
            a = rng.integers(0, src.q, size=10**6)
            b = rng.integers(0, src.q, size=10**6)
        if np.any(t[src.vadd(a, b)] != dst.vadd(t[a], t[b])):
            raise ValueError("additivity fails")
        if np.any(t[src.vmul(a, b)] != dst.vmul(t[a], t[b])):
            raise ValueError("multiplicativity fails")

    def __call__(self, a: int) -> int:
        return int(self.table[a])

    def vapply(self, arr):
        return self.table[arr].astype(self.dst.dtype)

    @property
    def generator_image(self) -> int:
        gen = self.src.p if self.src.k > 1 else 1
        return int(self.table[gen])

    def compose(self, inner: "FieldHom") -> "FieldHom":
        """self o inner."""
        if inner.dst != self.src:
            raise ValueError("composition shapes disagree")
        return FieldHom(inner.src, self.dst, self.table[inner.table])

    def is_surjective(self) -> bool:
        return self.src.q == self.dst.q

    def __eq__(self, other):
        return (isinstance(other, FieldHom) and self.src == other.src
                and self.dst == other.dst and np.array_equal(self.table, other.table))

    def __hash__(self):
        return hash((self.src, self.dst, self.table.tobytes()))

    def __repr__(self):
        return f"FieldHom(GF({self.src.q}) -> GF({self.dst.q}), gen -> {self.generator_image})"


def identity_hom(field: Field) -> FieldHom:
    return FieldHom(field, field, np.arange(field.q))


@functools.lru_cache(maxsize=None)
def _enumerate_homs_cached(src: Field, dst: Field):
    if src.p != dst.p or dst.k % src.k != 0:
        return ()
    # a homomorphism is pinned by the image of the generator, which must be
    # a root of the source modulus in dst; evaluate by Horner over all of dst
    cand = np.arange(dst.q, dtype=np.int64)
    acc = np.full(dst.q, src.modulus[-1], dtype=np.int64)
    for c in reversed(src.modulus[:-1]):
        acc = dst.vadd(dst.vmul(acc, cand), np.int64(c)).astype(np.int64)
    roots = sorted(int(r) for r in cand[acc == 0])

    digits = src._digits  # (q, k) coefficients; values < p embed verbatim
    homs = []
    for r in roots:
        img = np.zeros(src.q, dtype=np.int64)
        rpow = 1
        for i in range(src.k):
            img = dst.vadd(img, dst.vmul(digits[:, i].astype(np.int64), np.int64(rpow))).astype(np.int64)
            rpow = dst.mul(rpow, r)
        homs.append(FieldHom(src, dst, img))
    homs.sort(key=lambda h: h.generator_image)
    return tuple(homs)


def enumerate_homs(src: Field, dst: Field):
    """All nonzero ring homomorphisms src -> dst, sorted by generator image.

    Empty iff the characteristics differ or src.k does not divide dst.k;
    otherwise there are exactly src.k of them.
    """
    return list(_enumerate_homs_cached(src, dst))
