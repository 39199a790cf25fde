//! First-party CRC32C (Castagnoli, reflected polynomial `0x82F63B78`)
//! for the payload data plane.
//!
//! [`crc32c_append`] picks its kernel at run time. On x86_64 CPUs with
//! SSE4.2 it runs the `crc32` instruction over 8-byte words (one
//! instruction per word, ~3-cycle latency); [`kernel`] names the choice.
//! Everywhere else it runs a portable slice-by-8 kernel: eight 256-entry
//! tables (built at compile time by a `const fn`, so there is no runtime
//! init and no lazy statics) let the inner loop fold eight input bytes
//! per iteration with eight independent table loads. Both kernels
//! produce the same value for every input — the tests pin each against
//! `bitwise_append`, a textbook bit-at-a-time oracle, and against each
//! other over randomized lengths, alignments and starting values.
//!
//! The crate is dependency-free and `#![deny(unsafe_code)]`. The one
//! exception is the call into the SSE4.2 kernel, which is `unsafe` only
//! because the caller must prove the CPU feature is present; the runtime
//! check on the line before it does.
//!
//! # Examples
//!
//! ```
//! // Known-answer vector from RFC 3720 (iSCSI).
//! assert_eq!(pc_crc::crc32c(b"123456789"), 0xE306_9283);
//! // Streaming: split input gives the same digest.
//! let whole = pc_crc::crc32c(b"hello world");
//! let part = pc_crc::crc32c_append(pc_crc::crc32c(b"hello "), b"world");
//! assert_eq!(whole, part);
//! ```

#![deny(unsafe_code)]
#![warn(missing_docs)]

/// The CRC32C (Castagnoli) generator polynomial, reflected.
pub const POLY: u32 = 0x82F6_3B78;

/// Slice-by-8 lookup tables. `TABLES[0]` is the classic byte-at-a-time
/// table; `TABLES[k][b]` is the CRC contribution of byte `b` positioned
/// `k` bytes before the end of an 8-byte group.
static TABLES: [[u32; 256]; 8] = build_tables();

const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0usize;
    while b < 256 {
        let mut crc = b as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut t = 1usize;
    while t < 8 {
        let mut b = 0usize;
        while b < 256 {
            let prev = tables[t - 1][b];
            tables[t][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        t += 1;
    }
    tables
}

/// CRC32C of `data` (initial value 0, final XOR applied — the common
/// "one-shot" convention shared by iSCSI, ext4 and friends).
#[inline]
pub fn crc32c(data: &[u8]) -> u32 {
    crc32c_append(0, data)
}

/// Extends a previously computed [`crc32c`] digest with more bytes, as
/// if the concatenated input had been hashed in one call. Runs the
/// kernel [`kernel`] names.
#[inline]
pub fn crc32c_append(crc: u32, data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        // SAFETY: `sse42_append`'s only requirement is that the CPU
        // supports SSE4.2, which the runtime check above just confirmed.
        #[allow(unsafe_code)]
        let crc = unsafe { sse42_append(crc, data) };
        return crc;
    }
    slice_by_8_append(crc, data)
}

/// The kernel [`crc32c_append`] runs on this CPU: `"sse4.2"` (the
/// hardware `crc32` instruction) or `"portable"` (slice-by-8 tables).
#[must_use]
pub fn kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        return "sse4.2";
    }
    "portable"
}

/// The hardware kernel: one `crc32` instruction per 8-byte word, then
/// one per tail byte. A single dependency chain is enough — at 4 KiB
/// blocks it already runs several times faster than the table kernel.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn sse42_append(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let mut crc = u64::from(!crc);
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        crc = _mm_crc32_u64(crc, u64::from_le_bytes(chunk.try_into().unwrap()));
    }
    // The instruction zero-extends its 32-bit result, so this is lossless.
    let mut crc = crc as u32;
    for &byte in chunks.remainder() {
        crc = _mm_crc32_u8(crc, byte);
    }
    !crc
}

/// The portable kernel: slice-by-8 over the compile-time tables.
fn slice_by_8_append(crc: u32, data: &[u8]) -> u32 {
    let mut crc = !crc;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        // One 8-byte load, then fold the running CRC into the low half
        // and look up all eight byte contributions independently: no
        // per-byte serial dependency, which is the whole point of
        // slice-by-8. (`try_into` on an exact chunk compiles to a
        // single unaligned u64 load, not eight byte loads.)
        let word = u64::from_le_bytes(chunk.try_into().unwrap());
        let lo = crc ^ (word as u32);
        let hi = (word >> 32) as u32;
        crc = TABLES[7][(lo & 0xFF) as usize]
            ^ TABLES[6][((lo >> 8) & 0xFF) as usize]
            ^ TABLES[5][((lo >> 16) & 0xFF) as usize]
            ^ TABLES[4][(lo >> 24) as usize]
            ^ TABLES[3][(hi & 0xFF) as usize]
            ^ TABLES[2][((hi >> 8) & 0xFF) as usize]
            ^ TABLES[1][((hi >> 16) & 0xFF) as usize]
            ^ TABLES[0][(hi >> 24) as usize];
    }
    for &byte in chunks.remainder() {
        crc = (crc >> 8) ^ TABLES[0][((crc ^ u32::from(byte)) & 0xFF) as usize];
    }
    !crc
}

/// Textbook bit-at-a-time CRC32C. The correctness oracle both kernels'
/// tests compare against.
#[cfg(test)]
fn bitwise_append(crc: u32, data: &[u8]) -> u32 {
    let mut crc = !crc;
    for &byte in data {
        crc ^= u32::from(byte);
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
        }
    }
    !crc
}

#[cfg(test)]
mod tests {
    use super::*;

    type Kernel = fn(u32, &[u8]) -> u32;

    /// Every way the crate can compute a CRC: the dispatcher (the
    /// hardware kernel wherever [`kernel`] says `"sse4.2"`), the portable
    /// fallback, and the oracle.
    const KERNELS: [(&str, Kernel); 3] = [
        ("dispatched", crc32c_append),
        ("slice-by-8", slice_by_8_append),
        ("bitwise", bitwise_append),
    ];

    /// Tiny deterministic generator for randomized cross-checks —
    /// splitmix64, no external RNG needed.
    struct Mix(u64);
    impl Mix {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn known_answer_vectors() {
        // RFC 3720 B.4 test patterns plus the classic check value.
        let ascending: Vec<u8> = (0..32u8).collect();
        let descending: Vec<u8> = (0..32u8).rev().collect();
        let vectors: [(&[u8], u32); 6] = [
            (b"", 0),
            (b"123456789", 0xE306_9283),
            (&[0u8; 32], 0x8A91_36AA),
            (&[0xFFu8; 32], 0x62A8_AB43),
            (&ascending, 0x46DD_794E),
            (&descending, 0x113F_DB5C),
        ];
        for (name, kernel) in KERNELS {
            for (data, want) in vectors {
                assert_eq!(kernel(0, data), want, "{name} on {data:?}");
            }
        }
    }

    #[test]
    fn every_kernel_matches_bitwise_over_randomized_lengths_alignments_and_seeds() {
        let mut rng = Mix(42);
        let mut backing = vec![0u8; 8200 + 64];
        for byte in backing.iter_mut() {
            *byte = rng.next() as u8;
        }
        // Every short length (each word/tail boundary), then random
        // lengths up to two 4 KiB blocks.
        let lengths: Vec<usize> = (0..=80)
            .chain((0..200).map(|_| (rng.next() % 8201) as usize))
            .collect();
        for len in lengths {
            let start = (rng.next() % 64) as usize;
            let seed = (rng.next() as u32).max(1);
            let slice = &backing[start..start + len];
            let want = bitwise_append(seed, slice);
            for (name, kernel) in KERNELS {
                assert_eq!(
                    kernel(seed, slice),
                    want,
                    "{name}: start={start} len={len} seed={seed:#x}"
                );
            }
        }
    }

    #[test]
    fn append_is_equivalent_to_one_shot_at_every_split_point() {
        let data: Vec<u8> = (0..255u8).collect();
        let whole = crc32c(&data);
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            // Kernels chain: any kernel can continue any other's digest.
            for (first, head) in KERNELS {
                for (second, tail) in KERNELS {
                    assert_eq!(
                        tail(head(0, a), b),
                        whole,
                        "{first} then {second}, split at {split}"
                    );
                }
            }
        }
    }

    #[test]
    fn single_bit_flips_always_change_the_digest() {
        let data = vec![0xA5u8; 512];
        let clean = crc32c(&data);
        let mut rng = Mix(7);
        for _ in 0..64 {
            let mut corrupt = data.clone();
            let bit = (rng.next() % (512 * 8)) as usize;
            corrupt[bit / 8] ^= 1 << (bit % 8);
            assert_ne!(crc32c(&corrupt), clean, "flip of bit {bit} went undetected");
        }
    }
}
