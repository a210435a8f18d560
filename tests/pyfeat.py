"""Pure-Python character n-gram hashing: the reference that
belforge.features.featurize_batch must reproduce bit for bit.

FNV-1a 64-bit over the UTF-8 bytes of each character n-gram, modulo the
bucket count, one n-gram at a time.
"""

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK = 0xFFFFFFFFFFFFFFFF


def fnv1a_64(data: bytes) -> int:
    h = _FNV_OFFSET
    for byte in data:
        h = ((h ^ byte) * _FNV_PRIME) & _MASK
    return h


def ngram_hash_counts(text: str, n_min: int, n_max: int, buckets: int) -> dict:
    """Return {bucket: count} for all char n-grams of lengths n_min..n_max."""
    counts = {}
    nchars = len(text)
    for n in range(max(n_min, 1), n_max + 1):
        for start in range(nchars - n + 1):
            key = fnv1a_64(text[start:start + n].encode("utf-8")) % buckets
            counts[key] = counts.get(key, 0.0) + 1.0
    return counts
