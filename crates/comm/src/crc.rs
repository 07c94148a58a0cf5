//! CRC-32 (IEEE 802.3 polynomial, reflected) for wire and on-disk
//! integrity: halo message headers ([`crate::world`]) and the v2
//! checkpoint format in `gw-core` both append this checksum so that
//! truncated or corrupted payloads are *detected* instead of silently
//! evolving garbage.
//!
//! [`update`] is table-driven slicing-by-16: sixteen 256-entry tables,
//! built at compile time from the bytewise `TABLE`, fold sixteen input
//! bytes per step into the register. It returns exactly the CRC of the
//! bytewise loop for every input (DESIGN.md §20). [`CrcBuf`] serializes
//! and checksums in one pass, so each byte of a message or shard is read
//! by the checksum once, while it is still in cache.

/// Reflected CRC-32 polynomial (same parameters as zlib's `crc32`).
const POLY: u32 = 0xedb8_8320;

/// Byte-at-a-time table, built at compile time.
const TABLE: [u32; 256] = {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { POLY ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
};

/// Slicing tables: `SLICES[k][b]` is the register contribution of byte
/// `b` followed by `k` zero bytes, so `SLICES[0]` is [`TABLE`] and each
/// table is the previous one advanced by one zero byte.
static SLICES: [[u32; 256]; 16] = {
    let mut t = [[0u32; 256]; 16];
    t[0] = TABLE;
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ TABLE[(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-32 of `data` (zlib-compatible: init `0xffff_ffff`, final XOR).
pub fn crc32(data: &[u8]) -> u32 {
    update(0xffff_ffff, data) ^ 0xffff_ffff
}

/// Streaming update: feed chunks, then XOR with `0xffff_ffff` at the end
/// (or use [`crc32`] for one-shot data). Splitting the input anywhere
/// gives the same result.
pub fn update(state: u32, data: &[u8]) -> u32 {
    let mut c = state;
    let mut chunks = data.chunks_exact(16);
    for chunk in &mut chunks {
        c = step16(c, chunk.try_into().expect("16-byte chunk"));
    }
    for &b in chunks.remainder() {
        c = TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
    }
    c
}

/// Fold 16 bytes into the register. Byte `i` is followed by `15 − i`
/// more bytes of this chunk, so it looks up `SLICES[15 − i]`; the
/// register enters through the first four. The three words that do not
/// depend on the register are combined first, which keeps the loop-carried
/// chain to one lookup and two XORs.
#[inline(always)]
fn step16(c: u32, x: &[u8; 16]) -> u32 {
    let t = &SLICES;
    let word = |i: usize| u32::from_le_bytes([x[4 * i], x[4 * i + 1], x[4 * i + 2], x[4 * i + 3]]);
    let fold = |w: u32, k: usize| {
        (t[k + 3][(w & 0xff) as usize] ^ t[k + 2][((w >> 8) & 0xff) as usize])
            ^ (t[k + 1][((w >> 16) & 0xff) as usize] ^ t[k][(w >> 24) as usize])
    };
    let rest = fold(word(1), 8) ^ fold(word(2), 4) ^ fold(word(3), 0);
    rest ^ fold(word(0) ^ c, 12)
}

/// A byte buffer that keeps the CRC-32 of everything appended to it:
/// each append is checksummed right after it is written, while its bytes
/// are still in cache, so serializing and checksumming are one pass.
#[derive(Clone, Debug)]
pub struct CrcBuf {
    bytes: Vec<u8>,
    state: u32,
}

impl CrcBuf {
    /// An empty buffer with room for `bytes` bytes.
    pub fn with_capacity(bytes: usize) -> Self {
        Self { bytes: Vec::with_capacity(bytes), state: 0xffff_ffff }
    }

    /// Append raw bytes.
    pub fn put(&mut self, bytes: &[u8]) {
        self.bytes.extend_from_slice(bytes);
        self.state = update(self.state, bytes);
    }

    /// Append `words` as little-endian f64s, 4 KB at a time, so the
    /// checksum reads each piece from L1 right after writing it.
    pub fn put_f64s(&mut self, words: &[f64]) {
        self.bytes.reserve(8 * words.len());
        for piece in words.chunks(512) {
            let start = self.bytes.len();
            self.bytes.resize(start + 8 * piece.len(), 0);
            for (b, w) in self.bytes[start..].chunks_exact_mut(8).zip(piece) {
                b.copy_from_slice(&w.to_le_bytes());
            }
            self.state = update(self.state, &self.bytes[start..]);
        }
    }

    /// [`crc32`] of the bytes appended so far.
    pub fn crc(&self) -> u32 {
        self.state ^ 0xffff_ffff
    }

    /// The bytes and their [`crc32`].
    pub fn into_parts(self) -> (Vec<u8>, u32) {
        let crc = self.crc();
        (self.bytes, crc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// The bytewise loop [`update`] replaced: the reference every input
    /// is checked against.
    fn update_bytewise(state: u32, data: &[u8]) -> u32 {
        let mut c = state;
        for &b in data {
            c = TABLE[((c ^ b as u32) & 0xff) as usize] ^ (c >> 8);
        }
        c
    }

    /// `len` pseudo-random bytes from `seed` (xorshift).
    fn bytes(seed: u64, len: usize) -> Vec<u8> {
        let mut s = seed | 1;
        (0..len)
            .map(|_| {
                s ^= s << 13;
                s ^= s >> 7;
                s ^= s << 17;
                (s >> 24) as u8
            })
            .collect()
    }

    #[test]
    fn known_vectors() {
        // Standard zlib/IEEE test vectors.
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
        assert_eq!(crc32(b"The quick brown fox jumps over the lazy dog"), 0x414f_a339);
    }

    #[test]
    fn streaming_matches_one_shot() {
        let data = b"halo exchange payload 0123456789";
        let mut st = 0xffff_ffffu32;
        for chunk in data.chunks(7) {
            st = update(st, chunk);
        }
        assert_eq!(st ^ 0xffff_ffff, crc32(data));
    }

    #[test]
    fn detects_single_bit_flips() {
        let mut data = vec![0u8; 64];
        data[10] = 0xab;
        let good = crc32(&data);
        for byte in 0..64 {
            for bit in 0..8 {
                data[byte] ^= 1 << bit;
                assert_ne!(crc32(&data), good, "flip at {byte}:{bit} undetected");
                data[byte] ^= 1 << bit;
            }
        }
    }

    #[test]
    fn slicing_matches_bytewise_at_every_short_length() {
        // Every length up to a few chunks, from every start state class:
        // covers each tail length with and without whole chunks.
        let data = bytes(7, 80);
        for len in 0..=data.len() {
            for state in [0, 0xffff_ffff, 0x1234_5678] {
                assert_eq!(update(state, &data[..len]), update_bytewise(state, &data[..len]));
            }
        }
    }

    #[test]
    fn sealed_body_residue_is_constant() {
        // Appending a body's CRC (little-endian) makes the CRC of the
        // whole a constant, whatever the body: a checksum over a sealed
        // file binds nothing, so the shard manifest records the trailer.
        for len in [0usize, 1, 17, 1000, 4099] {
            let mut sealed = bytes(len as u64 + 3, len);
            let crc = crc32(&sealed);
            sealed.extend_from_slice(&crc.to_le_bytes());
            assert_eq!(crc32(&sealed), 0x2144_df1c, "length {len}");
        }
    }

    #[test]
    fn crcbuf_matches_one_shot() {
        let words: Vec<f64> = (0..1300).map(|i| i as f64 * 0.37 - 11.0).collect();
        let mut buf = CrcBuf::with_capacity(8 + 8 * words.len());
        buf.put(b"head");
        buf.put_f64s(&words[..123]);
        buf.put_f64s(&words[123..]);
        buf.put(b"tail");
        let mut flat = b"head".to_vec();
        flat.extend(words.iter().flat_map(|w| w.to_le_bytes()));
        flat.extend_from_slice(b"tail");
        assert_eq!(buf.crc(), crc32(&flat));
        assert_eq!(buf.into_parts(), (flat.clone(), crc32(&flat)));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn slicing_matches_bytewise(
            seed in 0u64..u64::MAX,
            len in 0usize..5000,
            offset in 0usize..64,
            split in 0usize..5000,
        ) {
            // A buffer read from a random start offset (every alignment),
            // checksummed whole and streamed in two pieces.
            let buf = bytes(seed, offset + len);
            let data = &buf[offset..];
            let want = update_bytewise(0xffff_ffff, data);
            prop_assert_eq!(update(0xffff_ffff, data), want);
            let (a, b) = data.split_at(split.min(len));
            prop_assert_eq!(update(update(0xffff_ffff, a), b), want);
        }
    }
}
