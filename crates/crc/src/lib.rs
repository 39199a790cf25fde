//! First-party CRC32C (Castagnoli, reflected polynomial `0x82F63B78`)
//! for the payload data plane.
//!
//! [`crc32c_append`] picks its kernel at run time. On x86_64 CPUs with
//! SSE4.2 it runs the `crc32` instruction over 8-byte words in three
//! independent streams: each `3·L`-byte span is hashed as three
//! consecutive `L`-byte thirds, one dependency chain each, so the
//! instruction's 3-cycle latency is hidden behind its 1-cycle
//! throughput. The three partial CRCs are then joined with a
//! zeros-operator table (Gopal et al., *Fast CRC Computation for iSCSI
//! Polynomial Using CRC32 Instruction*, Intel 2011; the join as in
//! Adler's `crc32c.c`). Spans come in two sizes, so a 4 KiB block and a
//! `.pct` chunk both run three streams; the tail runs one chain.
//! [`kernel`] names the choice. Everywhere else it runs a portable
//! slice-by-8 kernel: eight 256-entry tables let the inner loop fold
//! eight input bytes per iteration with eight independent table loads.
//! Every table, the join's included, is built at compile time by a
//! `const fn`, so there is no runtime init and no lazy statics. Both
//! kernels produce the same value for every input — the tests pin each
//! against `bitwise_append`, a textbook bit-at-a-time oracle, and
//! against each other over randomized lengths, alignments and starting
//! values.
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

/// Bytes per stream in the three-stream kernel's long and short spans:
/// a 4 KiB block runs one long span (3 KiB), one short span (768 B) and
/// a 256-byte single-chain tail.
const LONG: usize = 1024;
const SHORT: usize = 256;

/// Zeros operators for the three-stream join: `shift(&ZEROS_LONG, c)`
/// is the raw CRC register `c` after `LONG` zero bytes.
static ZEROS_LONG: [[u32; 256]; 4] = zeros_tables(LONG);
static ZEROS_SHORT: [[u32; 256]; 4] = zeros_tables(SHORT);

/// `mat · vec` over GF(2): the XOR of the columns `mat[i]` for each set
/// bit `i` of `vec`.
const fn gf2_times(mat: &[u32; 32], mut vec: u32) -> u32 {
    let mut sum = 0;
    let mut i = 0;
    while vec != 0 {
        if vec & 1 != 0 {
            sum ^= mat[i];
        }
        vec >>= 1;
        i += 1;
    }
    sum
}

/// The product `a · b` of two GF(2) operators, column by column.
const fn gf2_product(a: &[u32; 32], b: &[u32; 32]) -> [u32; 32] {
    let mut out = [0u32; 32];
    let mut n = 0;
    while n < 32 {
        out[n] = gf2_times(a, b[n]);
        n += 1;
    }
    out
}

/// The operator that advances a raw (un-inverted) CRC register over
/// `bytes` zero bytes, by repeated squaring as zlib's `crc32_combine`
/// does.
const fn zeros_operator(bytes: usize) -> [u32; 32] {
    // One zero bit: shift right, folding the polynomial in when bit 0
    // falls off.
    let mut op = [0u32; 32];
    op[0] = POLY;
    let mut n = 1;
    while n < 32 {
        op[n] = 1 << (n - 1);
        n += 1;
    }
    // Then raise it to the power `8 · bytes`, one per zero bit.
    let mut result = [0u32; 32];
    let mut n = 0;
    while n < 32 {
        result[n] = 1 << n;
        n += 1;
    }
    let mut left = 8 * bytes;
    while left != 0 {
        if left & 1 != 0 {
            result = gf2_product(&op, &result);
        }
        op = gf2_product(&op, &op);
        left >>= 1;
    }
    result
}

/// The zeros operator for `bytes` as four byte-indexed tables, one per
/// byte of the register, so applying it is four loads and three XORs.
const fn zeros_tables(bytes: usize) -> [[u32; 256]; 4] {
    let op = zeros_operator(bytes);
    let mut tables = [[0u32; 256]; 4];
    let mut k = 0;
    while k < 4 {
        let mut b = 0;
        while b < 256 {
            tables[k][b] = gf2_times(&op, (b as u32) << (8 * k));
            b += 1;
        }
        k += 1;
    }
    tables
}

/// Advances the raw CRC register `crc` over the zero bytes `zeros` was
/// built for.
#[inline]
fn shift(zeros: &[[u32; 256]; 4], crc: u32) -> u32 {
    zeros[0][(crc & 0xFF) as usize]
        ^ zeros[1][((crc >> 8) & 0xFF) as usize]
        ^ zeros[2][((crc >> 16) & 0xFF) as usize]
        ^ zeros[3][(crc >> 24) as usize]
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
/// hardware `crc32` instruction, three streams) or `"portable"`
/// (slice-by-8 tables).
#[must_use]
pub fn kernel() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("sse4.2") {
        return "sse4.2";
    }
    "portable"
}

/// The hardware kernel: three `crc32` chains over the thirds of each
/// long span, then of each short span, joined by the zeros tables; one
/// chain over the tail, one instruction per 8-byte word and then per
/// byte.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.2")]
fn sse42_append(crc: u32, data: &[u8]) -> u32 {
    use std::arch::x86_64::{_mm_crc32_u64, _mm_crc32_u8};
    let word = |bytes: &[u8], at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
    let mut crc = !crc;
    let mut data = data;
    for (span, zeros) in [(LONG, &ZEROS_LONG), (SHORT, &ZEROS_SHORT)] {
        while data.len() >= 3 * span {
            let (a, rest) = data.split_at(span);
            let (b, rest) = rest.split_at(span);
            let (c, rest) = rest.split_at(span);
            let (mut c0, mut c1, mut c2) = (u64::from(crc), 0, 0);
            let mut at = 0;
            while at < span {
                c0 = _mm_crc32_u64(c0, word(a, at));
                c1 = _mm_crc32_u64(c1, word(b, at));
                c2 = _mm_crc32_u64(c2, word(c, at));
                at += 8;
            }
            // The register is linear in its start value: running `b`
            // from `c0` is `c0` shifted over `span` zeros, XOR `b` run
            // from zero. The instruction zero-extends its 32-bit
            // result, so the truncations are lossless.
            crc = shift(zeros, shift(zeros, c0 as u32) ^ c1 as u32) ^ c2 as u32;
            data = rest;
        }
    }
    let mut chain = u64::from(crc);
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        chain = _mm_crc32_u64(chain, u64::from_le_bytes(chunk.try_into().unwrap()));
    }
    let mut crc = chain as u32;
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
    /// hardware kernel wherever [`kernel`] says `"sse4.2"`), the
    /// three-stream hardware kernel called directly, the portable
    /// fallback, and the oracle.
    const KERNELS: [(&str, Kernel); 4] = [
        ("dispatched", crc32c_append),
        ("three-stream", three_stream),
        ("slice-by-8", slice_by_8_append),
        ("bitwise", bitwise_append),
    ];

    /// The SSE4.2 kernel where this CPU runs it. Elsewhere it defers to
    /// the oracle, so its rows there check nothing new.
    fn three_stream(crc: u32, data: &[u8]) -> u32 {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("sse4.2") {
            // SAFETY: `sse42_append` only requires SSE4.2, which the
            // check above just confirmed.
            #[allow(unsafe_code)]
            let crc = unsafe { sse42_append(crc, data) };
            return crc;
        }
        bitwise_append(crc, data)
    }

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

    /// Lengths on each side of every span boundary: one long span,
    /// one long and one short, one short alone, each ±1 byte and with a
    /// partial word left over; at every start offset within a word and
    /// from random non-zero initial CRCs.
    #[test]
    fn every_kernel_matches_bitwise_at_span_boundaries() {
        let mut rng = Mix(11);
        let mut backing = vec![0u8; 3 * LONG + 3 * SHORT + 16];
        for byte in backing.iter_mut() {
            *byte = rng.next() as u8;
        }
        let mut lengths = Vec::new();
        for span in [3 * LONG, 3 * LONG + 3 * SHORT, 3 * SHORT] {
            lengths.extend([span - 1, span, span + 1, span + 3]);
        }
        for len in lengths {
            for start in 0..8 {
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
    }

    /// The split-chain property over a buffer longer than a long span
    /// and a short span together, so a split can land anywhere in
    /// either: a prefix hashed by one kernel, the rest appended by
    /// another, at every split.
    #[test]
    fn long_append_is_equivalent_to_one_shot_at_every_split_point() {
        let mut rng = Mix(3);
        let data: Vec<u8> = (0..3 * LONG + 3 * SHORT + 13)
            .map(|_| rng.next() as u8)
            .collect();
        let whole = bitwise_append(0, &data);
        // The oracle is too slow to run 4 000 times; it is pinned against
        // the others above, and `whole` comes from it.
        let fast = &KERNELS[..3];
        for split in 0..=data.len() {
            let (a, b) = data.split_at(split);
            for (first, head) in fast {
                for (second, tail) in fast {
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
