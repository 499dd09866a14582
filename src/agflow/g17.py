"""CSV text of float64 blocks, byte for byte the text of `'%.17g' % v`.

`csv_text(block)` formats each value as CPython's `'%.17g' % v` does, with
',' between the values of a row and '\\n' after it.  The work is done in
numpy passes over the whole block, not one Python call per value:

* **Digits.**  A finite nonzero |v| is M 2^(e - 53) with M a 53-bit
  integer, and its decimal exponent X (10^X <= |v| < 10^(X+1)) is found
  from e and a table of the smallest doubles >= 10^j.  The 17 significant
  digits are round(|v| 10^(16 - X)).  The product M 10^(16 - X) is formed
  exactly as a double-double: 10^k is tabled as (hi + lo) 2^E with
  hi, lo built from Python integers (int / int is correctly rounded), and
  M hi is split by Dekker's two-product on Veltkamp halves, which needs no
  fused multiply-add.  The result is within 1e-14 units of the last digit
  of the exact product, so it rounds as CPython's correctly rounded dtoa
  does unless its fraction lies within 1e-9 of one half.  Those near-ties (exact binary ties such
  as 2**50 + 1/4 among them), NaN and +-inf are formatted by CPython.
* **Text.**  Each value gets a 32-byte row whose zero bytes are dropped at
  the end (see `_layout`): sign, "0.000"-style prefix, the 17 digits as two
  8-byte BCD words plus the first digit, the exponent and the separator.
  Small tables indexed by the sign, X and the significant-digit count
  supply the constant bytes; trailing zero digits of the fraction stay
  zero bytes, and the integer digits move one byte left to make room for
  the decimal point.

Tables are built at first use and are a few tens of KB.  The transient
memory of a call is a few hundred bytes per value, so callers format
blocks of a few thousand values at a time.
"""

from __future__ import annotations

import functools

import numpy as np

_W = 32  # bytes per value row
_SPLIT = 134217729.0  # 2^27 + 1: Veltkamp split into 26-bit halves


def _x0(e):
    """floor((e - 1) log10 2) for int e in [-1073, 1024], the decimal
    exponent of 2^(e - 1): a double in [2^(e-1), 2^e) has this decimal
    exponent or the next."""
    return ((e - 1) * 78913) >> 18


_XOFF = 324  # decimal exponents X lie in [-324, 308]; X + _XOFF indexes tables
_XMAX = 308
_POW2 = 2.0 ** np.arange(5)  # the scale 2^s of a product, s in [0, 4]


@functools.cache
def _powers():
    """Tables over X in [-324, 308] of k = 16 - X: 10^k = (hi + lo) 2^E
    with hi in [1, 2) as Veltkamp halves (hh, hl); E - 53; and the
    smallest double >= 10^(X + 1), +inf past the float range."""
    hh, hl, lo, sc, th = [], [], [], [], []
    for X in range(-_XOFF, _XMAX + 1):
        k = 16 - X
        num, den = (10**k, 1) if k >= 0 else (1, 10**-k)
        E = num.bit_length() - den.bit_length()
        if num << max(0, -E) < den << max(0, E):
            E -= 1
        num, den = (num, den << E) if E >= 0 else (num << -E, den)
        hi = num / den
        p, q = hi.as_integer_ratio()
        lo.append((num * q - p * den) / (den * q))
        c = hi * _SPLIT
        hh.append(c - (c - hi))
        hl.append(hi - hh[-1])
        sc.append(E - 53)
        if X + 1 > _XMAX:
            th.append(float("inf"))
        else:
            num, den = (10 ** (X + 1), 1) if X >= -1 else (1, 10 ** -(X + 1))
            t = num / den
            p, q = t.as_integer_ratio()
            th.append(t if p * den >= num * q else float(np.nextafter(t, np.inf)))
    f = lambda x: np.array(x, dtype=np.float64)  # noqa: E731
    return f(hh), f(hl), f(lo), np.array(sc, dtype=np.int16), f(th)


# Row forms: fixed notation for X in [-4, 16] (forms 0..20), exponent
# notation with X >= 0 or X < 0 (21, 22), zero (23), CPython's text (24).
_FORMS = 25
_ZERO, _CPYTHON = 23, 24


@functools.cache
def _layout():
    """Byte tables of the 32-byte value row.

    Bytes 0: '-' or 0; 1-5: "0." plus zeros, right-aligned, for fixed X < 0
    (or "0" for zero); 6: free; 7: first digit d0; 8-15 and 16-23: d1..d16
    as BCD words; 24-28: 'e', the exponent's sign and its 2 or 3 digits;
    29: the separator; 30-31: 0.  The digits d0..d(a-1) before the decimal
    point then move one byte left, and the point takes byte 6 + a.

    Returns (frame by (sign, form, separator), ASCII offsets by digit count,
    move mask and keep mask by a, point by (a, point present), exponent
    digits by X, a by X, form by X).
    """
    frame = np.zeros((2, _FORMS, 2, _W), dtype=np.uint8)
    for sign in range(2):
        for form in range(_FORMS):
            for sep in range(2):
                row = frame[sign, form, sep]
                row[29] = ord(",\n"[sep])
                if form == _CPYTHON:
                    continue
                row[0] = ord("-") * sign
                if form == _ZERO:
                    row[5] = ord("0")
                elif form < 4:
                    prefix = b"0." + b"0" * (3 - form)
                    row[6 - len(prefix) : 6] = list(prefix)
                elif form > 20:
                    row[24:26] = list(b"e+" if form == 21 else b"e-")
    ascii_ = np.zeros((18, _W), dtype=np.uint8)
    move = np.zeros((18, _W), dtype=np.uint8)
    keep = np.ones((18, _W), dtype=np.uint8)
    point = np.zeros((2, 18, _W), dtype=np.uint8)
    for a in range(18):
        ascii_[a, 7 : 7 + a] = ord("0")
        move[a, 6 : 6 + a] = 1
        keep[a, 6 : 6 + a + (a > 0)] = 0
        point[1, a, 6 + a] = ord(".") * (a > 0)
    exp_digits = np.zeros((_XOFF + _XMAX + 1, 8), dtype=np.uint8)
    a_of_x = np.ones(_XOFF + _XMAX + 1, dtype=np.int8)
    form_of_x = np.empty(_XOFF + _XMAX + 1, dtype=np.int8)
    for X in range(-_XOFF, _XMAX + 1):
        if -4 <= X < 17:
            form_of_x[X + _XOFF] = X + 4
            a_of_x[X + _XOFF] = max(X + 1, 0)
        else:
            form_of_x[X + _XOFF] = 21 + (X < 0)
            digits = b"%02d" % abs(X)
            exp_digits[X + _XOFF, 5 - len(digits) : 5] = list(digits)
    return (
        frame.reshape(-1, _W).view(np.uint64),
        ascii_.view(np.uint64),
        move,
        keep,
        point.reshape(-1, _W),
        exp_digits.view(np.uint64).ravel(),
        a_of_x,
        form_of_x,
    )


def _digits(a):
    """(N, X, frac) for finite nonzero `a`: X the decimal exponent, N the
    17-digit integer a 10^(16 - X) rounded half up (10^17 after a carry),
    and frac its fraction before rounding, minus 1/2."""
    hh, hl, lo, sc, th = _powers()
    m, e = np.frexp(a)
    m *= 2.0**53  # a = m 2^(e - 53), m an integer
    X = _x0(e.astype(np.intp))
    i = X + _XOFF
    up = a >= th.take(i)
    i += up
    X += up
    bh, bl, blo, s = hh.take(i), hl.take(i), lo.take(i), sc.take(i).astype(np.intp)
    s += e
    scale = _POW2.take(s)
    # m (bh + bl) = p + err exactly (Dekker), m = mh + ml (Veltkamp)
    mh = m * _SPLIT
    ml = mh - m
    mh -= ml
    np.subtract(m, mh, out=ml)
    p = bh + bl
    p *= m
    err = mh * bh
    err -= p
    err += np.multiply(mh, bl, out=mh)
    err += np.multiply(ml, bh, out=bh)
    err += np.multiply(ml, bl, out=ml)
    err += np.multiply(m, blo, out=blo)
    p *= scale  # an integer >= 2^53
    err *= scale
    N = p.astype(np.int64)
    whole = np.floor(err)
    err -= whole
    N += whole.astype(np.int64)
    err -= 0.5
    N += err > 0
    return N, X, err


def _bcd(N):
    """(d0, Y): for 17-digit N = d0 10^16 + B 10^8 + C, Y[0] and Y[1] hold
    the digits of B and C, one per byte, most significant in the low byte.
    N is overwritten."""
    d0 = N // 10**16
    N -= d0 * 10**16
    Y = np.empty((2, N.size), dtype=np.int64)
    np.floor_divide(N, 10**8, out=Y[0])
    np.subtract(N, Y[0] * 10**8, out=Y[1])
    # split the 8 digits into 2 lanes of 4, 4 of 2 and 8 of 1; each lane's
    # quotient is a multiply-shift, exact over the lane's range
    for div, mul, shift, mask, width in (
        (10**4, 109951163, 40, 0x3FFF, 32),
        (100, 5243, 19, 0x7F0000007F, 16),
        (10, 103, 10, 0x000F000F000F000F, 8),
    ):
        q = Y * mul
        q >>= shift
        q &= mask
        Y -= q * div
        Y <<= width
        Y |= q
    return d0, Y


def csv_text(block: np.ndarray) -> str:
    """`block` (2-D float64) as CSV text: '%.17g' % v for each value, ','
    between the values of a row and '\\n' after each row."""
    frame, ascii_, move, keep, point, exp_digits, a_of_x, form_of_x = _layout()
    rows, cols = block.shape
    v = np.ascontiguousarray(block, dtype=np.float64).reshape(-1)
    a = np.abs(v)
    special = not (a.min() > 0 and a.max() < np.inf)  # zero, inf or NaN
    if special:
        finite = np.isfinite(a)
        plain = finite & (a != 0)
        a[~plain] = 1.0
    N, X, frac = _digits(a)
    cpython = np.abs(frac) < 1e-9  # near-ties
    carry = N == 10**17
    if carry.any():
        N[carry] = 10**16
        X += carry
    digits = ~cpython
    if special:
        cpython |= ~finite
        digits &= plain
    N *= digits
    X *= digits
    d0, Y = _bcd(N)
    # significant digits: 1 + the index of the last nonzero one, from the
    # bit length of the BCD digits d1..d16 read as one number
    F = Y[1].astype(np.float64)
    F *= 2.0**64
    F += Y[0]
    sig = np.frexp(F)[1].astype(np.intp)
    sig += 7
    sig >>= 3
    sig += 1
    sig *= digits
    X += _XOFF
    A = a_of_x.take(X)  # digits before the point; 0 in "0.00ddd" form
    A *= digits
    form = form_of_x.take(X)
    if special:
        form[finite & ~plain] = _ZERO
    form[cpython] = _CPYTHON
    fid = np.signbit(v).astype(np.intp)
    fid *= _FORMS
    fid += form
    fid *= 2
    fid.reshape(rows, cols)[:, -1] += 1
    row = frame.take(fid, axis=0)
    row += ascii_.take(np.maximum(sig, A), axis=0)
    d0 <<= 56
    row[:, 0] |= d0.view(np.uint64)
    row[:, 1] |= Y[0].view(np.uint64)
    row[:, 2] |= Y[1].view(np.uint64)
    row[:, 3] |= exp_digits.take(X)
    del d0, Y, F, form, fid  # the byte passes below set the call's peak memory
    b = row.view(np.uint8).reshape(-1)
    out = keep.take(A, axis=0).reshape(-1)
    out *= b
    moved = move.take(A, axis=0).reshape(-1)
    moved[:-1] *= b[1:]
    out += moved
    del moved, row, b
    A += (sig > A) * np.int8(18)
    out += point.take(A, axis=0).reshape(-1)
    out = out.reshape(v.size, _W)
    for k in np.flatnonzero(cpython).tolist():
        text = b"%.17g" % v[k]
        out[k, : len(text)] = np.frombuffer(text, dtype=np.uint8)
    return out.tobytes().translate(None, b"\0").decode("ascii")
