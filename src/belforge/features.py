"""Character n-gram feature hashing, vectorized over a batch of texts.

Each n-gram is hashed with FNV-1a 64-bit over its UTF-8 bytes, modulo the
bucket count. The hashes of all texts in a batch are computed together in
numpy: the texts are concatenated into one UTF-8 buffer, characters are
located by their lead bytes, and the hash of every n-gram is extended from
the hash of its (n-1)-gram prefix one character at a time.
"""

import numpy as np

from .errors import UnencodableTextError

BOUNDARY_START = "^"
BOUNDARY_END = "$"

_FNV_OFFSET = np.uint64(0xCBF29CE484222325)
_FNV_PRIME = np.uint64(0x100000001B3)


def prepare(text, lowercase):
    """The string whose n-grams are hashed: ``text`` trimmed, optionally
    lowercased, and wrapped with boundary markers.

    Raises UnencodableTextError if the text is empty after trimming.
    """
    stripped = text.strip()
    if not stripped:
        raise UnencodableTextError("empty text cannot be featurized")
    if lowercase:
        stripped = stripped.lower()
    return BOUNDARY_START + stripped + BOUNDARY_END


def utf8(text):
    """The UTF-8 bytes of ``text``; a lone surrogate, which has none, raises
    UnencodableTextError."""
    try:
        return text.encode("utf-8")
    except UnicodeEncodeError as e:
        raise UnencodableTextError(f"text is not encodable as UTF-8: {e}") from e


def featurize_batch(texts, n_min, n_max, buckets, lowercase):
    """Hash the char n-grams of every text into a sparse count vector.

    Each text is first passed through ``prepare``. Returns one
    (indices, counts) pair per text: sorted int64 bucket indices and their
    float64 counts.

    Raises UnencodableTextError if any text is empty after trimming or
    holds a lone surrogate, which has no UTF-8 encoding.
    """
    wrapped = [prepare(t, lowercase) for t in texts]
    data = np.frombuffer(utf8("".join(wrapped)), dtype=np.uint8)
    # byte offset of every character, plus the end of the buffer
    offsets = np.append(np.flatnonzero((data & 0xC0) != 0x80), data.size)
    char_bytes = np.diff(offsets)
    widest = int(char_bytes.max(initial=1))
    lengths = np.fromiter(map(len, wrapped), dtype=np.int64, count=len(wrapped))
    text_of = np.repeat(np.arange(len(wrapped), dtype=np.int64), lengths)
    nchars = offsets.size - 1
    # characters from c to the end of its text, c included
    room = np.repeat(np.cumsum(lengths), lengths) - np.arange(nchars)
    modulus = np.uint64(buckets)

    keys = [np.zeros(0, dtype=np.int64)]
    h = np.full(nchars, _FNV_OFFSET, dtype=np.uint64)
    for n in range(1, min(n_max, nchars) + 1):  # none longer than nchars
        # h[c] extends to the n-gram that starts at character c
        h = h[:max(nchars - n + 1, 0)]
        last = slice(n - 1, nchars)
        lo = offsets[last]
        h ^= data[lo]
        h *= _FNV_PRIME
        for k in range(1, widest):
            more = np.flatnonzero(char_bytes[last] > k)
            h[more] = (h[more] ^ data[lo[more] + k]) * _FNV_PRIME
        if n >= n_min:
            inside = np.flatnonzero(room[:h.size] >= n)
            keys.append(text_of[inside] * buckets
                        + (h[inside] % modulus).astype(np.int64))

    # buckets is at most the W1 column count, so text * buckets fits int64
    keys, counts = np.unique(np.concatenate(keys), return_counts=True)
    text_ids = keys // buckets
    indices = keys - text_ids * buckets
    values = counts.astype(np.float64)
    bounds = np.searchsorted(text_ids, np.arange(len(wrapped) + 1))
    return [(indices[a:b], values[a:b]) for a, b in zip(bounds[:-1], bounds[1:])]
