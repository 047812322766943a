//! Dependency-free content checksums shared by the durability layers.
//!
//! Both checksummed on-disk formats in this workspace — the fleet
//! checkpoint journal (`pacer-harness`) and the binary trace encoding
//! (`pacer-trace`) — frame their payloads with an FNV-1a 64-bit digest.
//! The function lives here, below both crates in the dependency graph, so
//! the two formats are guaranteed to agree on the checksum definition.
//!
//! FNV-1a is not cryptographic; it guards against torn writes, truncation,
//! and bit rot, not adversaries. It was chosen for the same reasons as in
//! the journal: one multiply and one xor per byte, zero dependencies, and
//! a well-known reference specification.
//!
//! # Examples
//!
//! ```
//! use pacer_collections::fnv1a64;
//!
//! // Reference vectors from the FNV specification.
//! assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
//! assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
//! ```

/// FNV-1a 64-bit offset basis.
pub const FNV1A64_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// FNV-1a 64-bit prime.
pub const FNV1A64_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of `bytes`.
///
/// This is the frame checksum of both the checkpoint journal
/// (`P1 <len> <fnv1a64-hex> <json>`) and the binary trace format
/// (TRACE_FORMAT.md).
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_extend(FNV1A64_OFFSET, bytes)
}

/// Folds `bytes` into a running FNV-1a 64-bit digest: `fnv1a64(a ++ b)`
/// is `fnv1a64_extend(fnv1a64(a), b)`, so a reader can hash a payload in
/// pieces as it walks it.
#[inline]
pub fn fnv1a64_extend(hash: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(hash, |hash, &b| fnv1a64_byte(hash, b))
}

/// Folds one byte into a running FNV-1a 64-bit digest: the one step
/// every other function here repeats.
#[inline(always)]
pub fn fnv1a64_byte(hash: u64, byte: u8) -> u64 {
    (hash ^ u64::from(byte)).wrapping_mul(FNV1A64_PRIME)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_vectors() {
        // Published FNV-1a-64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn extend_folds_pieces_into_the_whole_digest() {
        let bytes = b"pacer binary trace frame payload";
        for cut in 0..=bytes.len() {
            let (a, b) = bytes.split_at(cut);
            assert_eq!(fnv1a64_extend(fnv1a64(a), b), fnv1a64(bytes), "cut {cut}");
            if let Some((&first, rest)) = b.split_first() {
                let folded = fnv1a64_byte(fnv1a64(a), first);
                assert_eq!(fnv1a64_extend(folded, rest), fnv1a64(bytes), "cut {cut}");
            }
        }
    }

    #[test]
    fn single_bit_flips_change_the_digest() {
        let base = b"pacer binary trace frame payload".to_vec();
        let digest = fnv1a64(&base);
        for i in 0..base.len() {
            for bit in 0..8 {
                let mut flipped = base.clone();
                flipped[i] ^= 1 << bit;
                assert_ne!(fnv1a64(&flipped), digest, "flip byte {i} bit {bit}");
            }
        }
    }
}
