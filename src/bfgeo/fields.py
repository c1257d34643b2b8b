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

Every table is built by linear algebra over GF(p) on digit rows: the
powers of the least multiplicative generator g come from the matrix of
multiplication by g, squared log2(q) times, and the exp/log tables from
those powers.  A ``FieldHom`` is proven a ring homomorphism in time linear
in q, for every q <= 2^16 (see its docstring), never checked on a sample.

Scalar operations take and return ints.  The ``v*`` variants operate on
numpy arrays of element indices and are the workhorses of the exhaustive
sweeps elsewhere in the package.  They reduce an array mod p (or mod
q - 1, for logarithms) by ``_mod``, x - (x // d) * d, never by numpy's
``%``: floor division by one integer is a multiply and shift, where
``remainder`` divides element by element and branches on the sign.  On
numpy 2.4, ``_mod`` is 2x (int64) to 7x (int16) faster on non-negative
arrays, and 5x to 18x on the mixed signs of differences and minors.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import DegreeTooLarge, NotPrime, TheoremViolated

ORDER_LIMIT = 1 << 16


def _mod(x, d: int):
    """x % d, value and dtype, for an integer array (or int) x and an int
    d > 0, as x - (x // d) * d.  The result is written over the quotient,
    so there is no second full-size temporary.  Even where (x // d) * d
    wraps, the wrapped difference is the residue, since it lies in [0, d)."""
    q = x // d
    q *= d
    return np.subtract(x, q, out=q) if isinstance(q, np.ndarray) else x - q


def _check_indices(raw, q: int, out_of_range: str) -> np.ndarray:
    """raw as an array of element indices of GF(q), checked before any cast:
    ValueError on a non-integer dtype (float, str, object), which a cast
    would truncate or refuse with numpy's own error, and ValueError
    (out_of_range) on an entry outside [0, q), which it would wrap."""
    raw = np.asarray(raw)
    if raw.dtype.kind not in "biu":
        raise ValueError(f"element indices must be integers, not {raw.dtype}")
    if raw.max() >= q or (raw.dtype.kind == "i" and raw.min() < 0):
        raise ValueError(out_of_range)
    return raw


def _prime_factors(n: int) -> list:
    """The distinct primes dividing n, ascending, by trial division (none
    for n < 2)."""
    out, d = [], 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    return out + [n] if n > 1 else out


def is_prime(n: int) -> bool:
    return n >= 2 and _prime_factors(n) == [n]


# ---------------------------------------------------------------------------
# polynomial helpers over GF(p), little-endian coefficient tuples
# ---------------------------------------------------------------------------

def _poly_trim(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    return c


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
        # bound p and k before p**k and the trial-division primality test,
        # which would stall on a huge header value
        if (k < 1 or p > ORDER_LIMIT or k > ORDER_LIMIT.bit_length()
                or p**k > ORDER_LIMIT):
            raise DegreeTooLarge(f"p^k = {p}**{k} outside (0, {ORDER_LIMIT}]")
        if not is_prime(p):
            raise NotPrime(f"p={p} is not prime")
        self.p = p
        self.k = k
        self.q = p**k
        self.modulus = canonical_modulus(p, k)
        self.name = f"{p},{k}"
        self._build_tables()

    # -- construction-time tables ------------------------------------------

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

        # discrete log via the least multiplicative generator g.  On digit
        # rows, multiplying by g is the matrix sum_j g_j C^j mod p, C the
        # modulus's companion matrix (row i holds the digits of x^(i+1)).
        # g generates iff g^((q-1)/r) != 1 for every prime r of q - 1, row 0
        # of a k x k matrix power; for the g taken, doubling E = (E, E M),
        # M = M M lists its first q - 1 powers, and 1 appears once among them.
        comp = np.zeros((k, k), dtype=np.int64)
        comp[:-1, 1:] = np.eye(k - 1, dtype=np.int64)
        comp[-1] = np.negative(self.modulus[:-1]) % p
        cpow = [np.eye(k, dtype=np.int64)]
        for _ in range(k - 1):
            cpow.append(cpow[-1] @ comp % p)

        def power(mul, e):  # mul^e by square and multiply
            out = cpow[0]
            while e:
                if e & 1:
                    out = out @ mul % p
                mul, e = mul @ mul % p, e >> 1
            return out

        for gen in range(2, q) if q > 2 else (1,):
            mul = np.tensordot(digits[gen], cpow, axes=1) % p
            if all(power(mul, (q - 1) // r)[0] @ self._powers != 1
                   for r in _prime_factors(q - 1)):
                break
        else:
            raise TheoremViolated(f"GF({q})* has no generator")
        pw = cpow[0][:1]
        while len(pw) < q - 1:
            pw = np.vstack([pw, pw @ mul % p])
            mul = mul @ mul % p
        exp = (pw[:q - 1] @ self._powers).astype(np.int32)
        if np.count_nonzero(exp == 1) != 1:
            raise TheoremViolated(f"GF({q})*: the order test passed {gen}, not a generator")
        self.generator = gen
        log = np.zeros(q, dtype=np.int32)
        log[exp] = np.arange(q - 1, dtype=np.int32)
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

    def neg(self, a: int) -> int:
        return int(self.neg_table[a])

    def mul(self, a: int, b: int) -> int:
        return int(self.vmul(a, b))

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
            return _mod(a + b, self.p)
        d = _mod(self._digits[a] + self._digits[b], self.p)
        return (d @ self._powers).astype(np.int64)

    @property
    def _arith_dtype(self):
        # products of residues must not overflow
        return np.int16 if self.p <= 181 else np.int64

    def vadd(self, a, b):
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self.k == 1:
            return _mod(np.asarray(a, dtype=self._arith_dtype) + b, self.p)
        if self.add_table is not None:
            return self.add_table[a, b]
        return self._vadd_nocache(np.asarray(a), np.asarray(b))

    def vneg(self, a):
        return self.neg_table[a]

    def vsub(self, a, b):
        if self.p == 2:
            return np.bitwise_xor(a, b)
        if self.k == 1:
            return _mod(np.asarray(a, dtype=self._arith_dtype) - b, self.p)
        return self.vadd(a, self.neg_table[b])

    def vmul(self, a, b):
        if self.k == 1:
            return _mod(np.asarray(a, dtype=self._arith_dtype) * b, self.p)
        if self.mul_table is not None:
            return self.mul_table[a, b]
        a = np.asarray(a)
        b = np.asarray(b)
        out = self._exp[_mod(self._log[a].astype(np.int64) + self._log[b], self.q - 1)]
        return np.where((a == 0) | (b == 0), 0, out)

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
    if q > ORDER_LIMIT:
        raise DegreeTooLarge(f"q = {q} outside (0, {ORDER_LIMIT}]")
    primes = _prime_factors(q)
    if len(primes) != 1:
        raise NotPrime(f"{q} is not a prime power")
    return make_field(primes[0], len(_int_to_poly(q, primes[0])) - 1)


def parse_field_name(name: str) -> Field:
    """Parse the "p,k" serialization."""
    p, k = name.split(",")
    return make_field(int(p), int(k))


# ---------------------------------------------------------------------------
# ring homomorphisms between fields
# ---------------------------------------------------------------------------

def _linear_table(src: Field, dst: Field, images):
    """The GF(p)-linear table a -> sum_i d_i(a) images[i] from src to dst,
    d_i(a) the digits of a, built one digit at a time: the elements below
    p^(i+1) are c p^i + b with c < p and b < p^i."""
    lin = np.zeros(1, dtype=np.int64)
    for img in images:
        lin = dst.vadd(lin, dst.vmul(np.arange(src.p)[:, None], img)).ravel()
    return lin


class FieldHom:
    """A nonzero ring homomorphism between two finite fields.

    Stored as the full image table.  Construction proves the ring laws, in
    time linear in q, for every q.  Given equal characteristics, images in
    range, t[0] = 0 and t[1] = 1: t is additive iff it is GF(p)-linear on
    digit vectors, t[a] = sum_i d_i(a) t[p^i], and an additive t is
    multiplicative iff h = t[g] has h^(q-1) = 1 and t[g^i] = h^i for every
    i, g the source's generator (Lidl & Niederreiter, Finite Fields, ch. 2).
    """

    def __init__(self, src: Field, dst: Field, table):
        self.src = src
        self.dst = dst
        t = np.asarray(table)
        if t.shape != (src.q,):
            raise ValueError("image table must list every source element")
        message = f"not a ring homomorphism: an image lies outside GF({dst.q})"
        self.table = _check_indices(t, dst.q, message).astype(np.int32)
        self._validate()

    def _validate(self):
        t = self.table
        src, dst = self.src, self.dst
        if src.p != dst.p:
            raise ValueError("not a ring homomorphism: the characteristics differ")
        if t[0] != 0 or t[1] != 1:
            raise ValueError("not a nonzero ring homomorphism: must fix 0 and 1")
        if np.any(_linear_table(src, dst, t[src._powers]) != t):
            raise ValueError("additivity fails")
        h, n = int(t[src.generator]), dst.q - 1
        hpow = dst._exp[int(dst._log[h]) * np.arange(src.q, dtype=np.int64) % n]
        if h == 0 or hpow[-1] != 1 or np.any(t[src._exp] != hpow[:-1]):
            raise ValueError("multiplicativity fails")

    def __call__(self, a: int) -> int:
        return int(self.table[a])

    def vapply(self, arr):
        return self.table[arr].astype(self.dst.dtype)

    @property
    def generator_image(self) -> int:
        gen = self.src.p if self.src.k > 1 else 1
        return int(self.table[gen])

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

    homs = [FieldHom(src, dst, _linear_table(src, dst, [dst.pow(r, i) for i in range(src.k)]))
            for r in roots]
    homs.sort(key=lambda h: h.generator_image)
    return tuple(homs)


def enumerate_homs(src: Field, dst: Field):
    """All nonzero ring homomorphisms src -> dst, sorted by generator image.

    Empty iff the characteristics differ or src.k does not divide dst.k;
    otherwise there are exactly src.k of them.
    """
    return list(_enumerate_homs_cached(src, dst))
