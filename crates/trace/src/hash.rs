//! The workspace's canonical FNV-1a content hashing.
//!
//! One 64-bit FNV-1a implementation, [`content_hash`], which the
//! incremental analysis database keys per-definition results on. It is
//! unkeyed and deterministic, which is what change detection needs: the
//! hash of an unchanged definition is the same in every run. Keys built
//! from user input that a hit is served on alone need a keyed hasher
//! instead; `csp serve` hashes its requests with a per-server
//! `RandomState`.

/// The FNV-1a offset basis.
const OFFSET_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

/// The FNV-1a prime.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// 64-bit FNV-1a of one byte string — tiny, dependency-free, and plenty
/// for change detection on definition-sized inputs.
pub fn content_hash(bytes: &[u8]) -> u64 {
    let mut h = OFFSET_BASIS;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn content_hash_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(content_hash(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(content_hash(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(content_hash(b"foobar"), 0x85944171f73967e8);
    }
}
