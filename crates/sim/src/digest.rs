//! FNV-1a (64-bit), the one fingerprint behind every determinism check:
//! the FtJournal stream digest, the FtPulse window digest, the merged
//! per-shard digest of a parallel run and the golden-artifact digests.
//!
//! Integer-only by construction; f4tlint's `float_in_digest` rule roots
//! at these functions (their names carry `fnv`/`digest`) and rejects any
//! float reachable from them.
//!
//! # Examples
//!
//! ```
//! use f4t_sim::digest::{fnv1a, fnv1a_u64, fold_digests, FNV_OFFSET};
//! assert_eq!(fnv1a(FNV_OFFSET, b""), FNV_OFFSET);
//! assert_eq!(fnv1a(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
//! // A u64 folds as its little-endian bytes; shards fold in fixed order.
//! assert_eq!(fnv1a_u64(FNV_OFFSET, 7), fnv1a(FNV_OFFSET, &7u64.to_le_bytes()));
//! assert_eq!(fold_digests([7, 9]), fnv1a_u64(fnv1a_u64(FNV_OFFSET, 7), 9));
//! ```

/// FNV-1a offset basis: the digest of the empty stream.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into the FNV-1a accumulator `h`.
#[inline]
pub fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Folds `v`'s little-endian bytes into the FNV-1a accumulator `h`.
#[inline]
pub fn fnv1a_u64(h: u64, v: u64) -> u64 {
    fnv1a(h, &v.to_le_bytes())
}

/// Folds per-shard digests into one merged digest in the given (fixed)
/// order, so "one digest for the whole run" is well defined and
/// independent of the worker-pool size.
pub fn fold_digests(parts: impl IntoIterator<Item = u64>) -> u64 {
    parts.into_iter().fold(FNV_OFFSET, fnv1a_u64)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fold_digests_is_order_sensitive_and_stable() {
        let a = fold_digests([1, 2, 3]);
        assert_eq!(a, fold_digests([1, 2, 3]), "stable");
        assert_ne!(a, fold_digests([3, 2, 1]), "fixed shard order matters");
        assert_eq!(fold_digests([]), FNV_OFFSET);
        assert_ne!(fold_digests([]), fold_digests([0]), "empty differs from zero");
    }

    #[test]
    fn byte_folds_chain() {
        assert_eq!(fnv1a(fnv1a(FNV_OFFSET, b"ab"), b"cd"), fnv1a(FNV_OFFSET, b"abcd"));
    }
}
