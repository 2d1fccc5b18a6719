"""Float64 cells as repr writes them, with numpy array operations only: the
digits of Schubfach (R. Giulietti, "The Schubfach way to render doubles",
2020; Java's DoubleToDecimal), which are repr's, laid out as repr lays them."""

import numpy as np

_U = np.uint64
_M32, _M63, _ALL = _U(2**32 - 1), _U(2**63 - 1), _U(2**64 - 1)
# for k in -324..292, g = floor(10**-k 2**s) + 1 in [2**125, 2**126), as g >> 63 and g mod 2**63
_G = np.array([divmod((10 ** max(-k, 0) << max(s, 0) >> max(-s, 0)) // 10 ** max(k, 0) + 1, 2**63) for k, s in
               ((k, 125 - (-k * 913124641741 >> 38)) for k in range(-324, 293))], dtype=np.uint64).T.copy()
_P10 = 10 ** np.arange(20, dtype=np.uint64)
_DIG4 = sum((np.arange(10000, dtype=np.uint64) // _P10[3 - j] % _U(10) + _U(48)) << _U(8 * j) for j in range(4))
_PREFIX = np.array([0, *(int.from_bytes(b"\0" + b"0." + b"0" * z, "little") for z in range(4))], dtype=np.uint64)
_SPECIAL = np.array([int.from_bytes(text, "little") for text in (b"", b"", b"nan", b"inf", b"-inf")], dtype=np.uint64)
_CHUNK = 4096  # cells at a time, whose temporaries stay in cache


def _mul(a, c):
    # the high and low words of a c, for a < 2**63 and c < 2**59
    a1, a0, c1, c0 = a >> _U(32), a & _M32, c >> _U(32), c & _M32
    lo, mid = a0 * c0, a1 * c0 + a0 * c1
    low = lo + (mid << _U(32))
    return a1 * c1 + (mid >> _U(32)) + (low < lo), low


def _digits(bits):
    # (f, e) with f 10**e the shortest decimal of each positive finite float.
    # Schubfach rounds to odd Q / 2**63, Q = floor(g1 cp / 2) + floor(g0 cp /
    # 2**64) = H 2**63 + r; a bound's Q is Q -+ (g1 2**(s-1) + floor(g0 2**s /
    # 2**64)), less a borrow or plus a carry from x0, the low word of g0 cp
    biased = (bits >> _U(52)).astype(np.int64)
    c = bits & _U(2**52 - 1)
    halved = (c == 0) & (biased > 1)  # a power of two: the gap below is half the gap above
    c |= (biased > 0).astype(np.uint64) << _U(52)
    tiny = c < _U(3)  # 5e-324 and 1e-323 go as 50e-325 and 100e-325
    c += c * tiny * _U(9)
    q = np.maximum(biased, 1) - 1075
    k = (q * 661971961083 - halved * 274743187321) >> 41
    h = (q + ((-k * 913124641741) >> 38) + 2).astype(np.uint64)
    g1, g0 = _G[0].take(k + 324), _G[1].take(k + 324)
    y1, y0 = _mul(g1, c << (h + _U(2)))
    x1, x0 = _mul(g0, c << (h + _U(2)))
    z = (y0 >> _U(1)) + x1
    H, r = y1 + (z >> _U(63)), z & _M63
    vb = H | (r != 0)

    def shifted(s):  # g 2**s as Q's units above 2**63, below it, and below Q's
        return g1 >> (_U(64) - s), ((g1 << (s - _U(1))) & _M63) | (g0 >> (_U(64) - s)), g0 << s

    th, tr, tl = shifted(h + _U(1) - halved)
    rr = r - tr - (x0 < tl)
    vbl = ((H - th - (rr >> _U(63))) | ((rr & _M63) != 0)) + (c & _U(1))  # an odd c leaves its bounds out
    th, tr, tl = shifted(h + _U(1))
    rr = r + tr + (x0 + tl < x0)
    vbr = ((H + th + (rr >> _U(63))) | ((rr & _M63) != 0)) - (c & _U(1))
    s = vb >> _U(2)
    sp10 = s // _U(10) * _U(10)
    upin, wpin = vbl <= sp10 << _U(2), (sp10 + _U(10)) << _U(2) <= vbr
    uin, win = vbl <= s << _U(2), (s + _U(1)) << _U(2) <= vbr
    cmp = (vb - (s << _U(2)) - _U(2)).view(np.int64)
    up = win & (~uin | (cmp > 0) | ((cmp == 0) & (s & _U(1) == 1)))  # w alone, or the closer of both
    return np.where(upin != wpin, sp10 + _U(10) * wpin, s + up), k - tiny


def _words(flat, special):
    # each float of flat as four words of ASCII with NUL gaps: the sign and a
    # prefix 0.000, digits 0-7, digits 8-15, digits 16-17 and e+XXX LF; or, where
    # special is not 0, the text _SPECIAL[special] and LF
    bits, ok = flat.view(np.uint64), flat != 0.0
    f, e = _digits(bits & _M63)
    f *= ok  # 0.0 is written from f = 0
    for d in (16, 8, 4, 2, 1):  # strip trailing zeros
        q = f // _P10[d]
        strip = q * _P10[d] == f
        if strip.any():
            f, e = np.where(strip, q, f), e + strip * d
    n = np.maximum(np.searchsorted(_P10, f, side="right"), 1)
    decpt = n + e * ok  # the value is 0.ddd times 10**decpt
    sci = (decpt < -3) | (decpt > 16)
    small = (decpt <= 0) & ~sci  # written 0.000ddd
    pad = ((decpt >= n) & ~sci) * (decpt - n + 1)  # an integral value gets its zeros and ".0"
    p = np.where(sci, 1, np.where(small, n, decpt))  # digits before the point
    kept = n + pad + 1 - (small | (sci & (n == 1)))  # bytes kept of the digits and point
    f *= _P10[pad]
    pm = _P10[n + pad - p]
    f = (f + f // pm * (pm * _U(9))) * _P10[17 - n - pad]  # a 0 after digit p, 18 digits in all
    words = np.zeros((4, len(flat)), dtype="<u8")
    for j, power in enumerate(_P10[[14, 10, 6, 2]]):  # four digits at a time into words 1 and 2
        quad = f // power
        f -= quad * power
        words[1 + j // 2] |= _DIG4[quad] << _U(32 * (j % 2))
    words[3] = _DIG4[f] >> _U(16)  # the last two digits
    point, end = p.astype(np.uint64) * _U(8), kept * 8  # in bits
    for j, word in enumerate(words[1:]):
        word -= _U(2) << (point - _U(64 * j))  # the 0 becomes "."; shifts past 63 give 0
        word &= ~(_ALL << np.minimum(np.maximum(end - 64 * j, 0), 64).astype(np.uint64))
    exp = np.abs(decpt - 1).astype(np.uint64)
    exp = _DIG4[exp] >> (_U(8) << (exp < _U(100)))  # two digits at least
    words[3] |= ((_U(0x2B65) + (decpt < 1) * _U(0x200) + (exp << _U(16))) * sci << _U(16)) | _U(10 << 56)
    words[0] = (bits >> _U(63)) * _U(0x2D) | _PREFIX[small * (1 - decpt)]
    if special.any():
        words[:, special > 0] = [[0], [0], [0], [10 << 56]]
        words[0] |= _SPECIAL[special]
    return words.T


def float_text(values, nan_empty) -> list[list[str]]:
    """Each row of the 2-D float array values as repr's strings, with nan
    as "" in the rows where nan_empty (one bool per row) holds."""
    x = np.ascontiguousarray(values, dtype=float)
    special = np.where(np.isnan(x), 2 - np.asarray(nan_empty, dtype=bool)[:, None], 3 + (x < 0)) * ~np.isfinite(x)
    flat, special, cells = np.where(special > 0, 1.0, x).ravel(), special.ravel(), []
    for start in range(0, len(flat), _CHUNK):  # each chunk's text at once, so the block's is never all held
        words = _words(flat[start : start + _CHUNK], special[start : start + _CHUNK])
        cells += words.tobytes().translate(None, b"\0").decode("ascii").split("\n")[:-1]
    return [cells[i * x.shape[1] : (i + 1) * x.shape[1]] for i in range(len(x))]
