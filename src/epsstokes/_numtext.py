"""Numbers as ASCII text, written by numpy kernels: the VTK writer's rows.

sci12 writes each double exactly as '%.12e' % v does and decimal each
non-negative integer as '%d' % i does, without formatting the numbers one
at a time in Python.  Each fills the rows of a uint32 array with ASCII,
four bytes a word and 0 bytes as padding; rows joins such blocks and
literal columns into the text of a file section.
"""

import numpy as np


def _words(strings, width):
    """ASCII strings as rows of `width` uint32 words, 0-padded at the end."""
    return np.array(strings, f"S{4 * width}").view(np.uint32).reshape(-1, width)


def _digit_words():
    """("0000".."9999", the same without leading zeros) as uint32 words,
    built with no temporary larger than the tables: a freed temporary would
    stay in the heap of the writing process."""
    pairs = np.frombuffer("".join(f"{i:02d}" for i in range(100)).encode(), np.uint8)
    digits = np.empty((100, 100, 4), np.uint8)
    digits[:, :, :2] = pairs.reshape(100, 1, 2)
    digits[:, :, 2:] = pairs.reshape(100, 2)
    digits = digits.reshape(10000, 4)
    leading = digits.copy()
    leading[:1000, 0] = leading[:100, 1] = leading[:10, 2] = 0
    return digits.view(np.uint32)[:, 0], leading.view(np.uint32)[:, 0]


# The kernels' tables: the 4-digit groups, the head "d." or "-d." of a first
# digit d, "e+dd" or "e-ddd" of an exponent, and 10**k correctly rounded
# (float() of "1e{k}" is, 10.0**k need not be), read-only, since every
# writer in the process shares them
_DIGITS4, _LEADING4 = _digit_words()
_HEAD = _words([f"{sign}{d}." for sign in ("", "-") for d in range(10)], 1)[:, 0]
_TABLE_MIN = -300
_EXP = _words([f"e{e:+03d}" for e in range(_TABLE_MIN, 301)], 2).view(np.uint64)[:, 0]
_POW10 = np.array([float(f"1e{k}") for k in range(_TABLE_MIN, 309)])
for _table in (_DIGITS4, _LEADING4, _HEAD, _EXP, _POW10):
    _table.setflags(write=False)
del _table


def sci12(values):
    """'%.12e' % v of each value as a row of 6 uint32 words, 0-padded.

    e = floor(log10|v|), moved by one where y = |v| 10^(12-e) falls outside
    [10^12, 10^13).  y is off the exact value by at most 2 * 2^-53 * 10^13
    < 2.3e-3, so N = rint(y) is the exact 13-digit rounding where y is in
    that range and |y - N| < 0.49; N = 10^13 carries into e.  A zero has
    the fixed digits of N = 0 and e = 0, and np.signbit gives every sign,
    that of -0.0 too.  Every other value (near a tie, non-finite or outside
    [1e-290, 1e290]) is formatted by '%.12e' itself.
    """
    v = np.asarray(values, dtype=float)
    a = np.abs(v)
    fast = (a >= 1e-290) & (a <= 1e290)
    a[~fast] = 1.0
    e = np.floor(np.log10(a)).astype(np.intp)
    y = a * _POW10[12 - e - _TABLE_MIN]
    e += y >= 1e13
    e -= y < 1e12
    y = a * _POW10[12 - e - _TABLE_MIN]
    n = np.rint(y)
    fast &= (np.abs(y - n) < 0.49) & (y >= 1e12) & (y < 1e13)
    carry = n == 1e13
    n[carry] = 1e12
    e += carry
    zero = v == 0.0
    n[zero] = 0.0
    e[zero] = 0
    fast |= zero
    hi, lo = np.divmod(n.astype(np.int64), 10 ** 8)
    first, g1 = np.divmod(hi, 10 ** 4)
    g2, g3 = np.divmod(lo, 10 ** 4)
    out = np.empty((len(v), 6), np.uint32)
    out[:, 0] = _HEAD[first + 10 * np.signbit(v)]
    out[:, 1] = _DIGITS4[g1]
    out[:, 2] = _DIGITS4[g2]
    out[:, 3] = _DIGITS4[g3]
    out[:, 4:] = _EXP[e - _TABLE_MIN].view(np.uint32).reshape(-1, 2)
    slow = np.flatnonzero(~fast)
    if slow.size:
        out[slow] = _words(["%.12e" % x for x in v[slow].tolist()], 6)
    return out


def decimal(values):
    """'%d' % i of each non-negative value as a row of uint32 words, 4
    digits a word, as many words as the largest value needs, 0-padded."""
    rest = np.asarray(values, dtype=np.int64)
    out = np.empty((len(rest), -(-len(str(rest.max(initial=0))) // 4)), np.uint32)
    for k in range(out.shape[1] - 1, -1, -1):
        upper, group = np.divmod(rest, 10000)
        word = np.where(upper > 0, _DIGITS4[group], _LEADING4[group])
        out[:, k] = word if k == out.shape[1] - 1 else np.where(rest > 0, word, 0)
        rest = upper
    return out


def rows(*columns):
    """The text of rows whose columns are given in order: a float or integer
    array holds one number a row, a bytes literal is the same on every row.
    Each row's words, without their 0 padding, are its text."""
    n = next(len(c) for c in columns if not isinstance(c, bytes))
    blocks = []
    for c in columns:
        if isinstance(c, bytes):
            word = _words([c], -(-len(c) // 4))
            blocks.append(np.broadcast_to(word, (n, word.shape[1])))
        else:
            blocks.append(sci12(c) if c.dtype.kind == "f" else decimal(c))
    return np.concatenate(blocks, axis=1).tobytes().translate(None, b"\0")
