//! AES-128 (FIPS 197) in CTR mode.
//!
//! The paper's prototype "use\[s\] AES-ECB mode as a symmetric key operation
//! with 128-bit key using polarssl" (§5). Nothing in the workspace encrypts
//! in ECB mode: every symmetric operation is CTR + HMAC, which runs the
//! same forward block function once per 16 bytes.

use crate::error::CryptoError;
use crate::Result;

/// AES block size in bytes.
pub const BLOCK_LEN: usize = 16;
/// AES-128 key size in bytes.
pub const KEY_LEN: usize = 16;

const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

const RCON: [u8; 10] = [0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1b, 0x36];

fn xtime(b: u8) -> u8 {
    (b << 1) ^ (((b >> 7) & 1) * 0x1b)
}

/// An AES-128 cipher instance with an expanded key schedule.
#[derive(Clone)]
pub struct Aes128 {
    round_keys: [[u8; 16]; 11],
}

impl Aes128 {
    /// Expands the 16-byte key into the 11 round keys.
    pub fn new(key: &[u8]) -> Result<Self> {
        if key.len() != KEY_LEN {
            return Err(CryptoError::InvalidLength {
                what: "AES-128 key",
                got: key.len(),
                expected: KEY_LEN,
            });
        }
        let mut w = [[0u8; 4]; 44];
        for i in 0..4 {
            w[i].copy_from_slice(&key[i * 4..i * 4 + 4]);
        }
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                temp.rotate_left(1);
                for b in temp.iter_mut() {
                    *b = SBOX[*b as usize];
                }
                temp[0] ^= RCON[i / 4 - 1];
            }
            for j in 0..4 {
                w[i][j] = w[i - 4][j] ^ temp[j];
            }
        }
        let mut round_keys = [[0u8; 16]; 11];
        for r in 0..11 {
            for c in 0..4 {
                round_keys[r][c * 4..c * 4 + 4].copy_from_slice(&w[r * 4 + c]);
            }
        }
        Ok(Aes128 { round_keys })
    }

    /// Encrypts a single 16-byte block in place.
    pub fn encrypt_block(&self, block: &mut [u8; BLOCK_LEN]) {
        add_round_key(block, &self.round_keys[0]);
        for round in 1..10 {
            sub_bytes(block);
            shift_rows(block);
            mix_columns(block);
            add_round_key(block, &self.round_keys[round]);
        }
        sub_bytes(block);
        shift_rows(block);
        add_round_key(block, &self.round_keys[10]);
    }

    /// CTR-mode keystream application (encrypt == decrypt).
    ///
    /// `nonce` is the 16-byte initial counter block; the low 32 bits are
    /// incremented per block (big-endian), as in NIST SP 800-38A.
    pub fn ctr_apply(&self, nonce: &[u8; BLOCK_LEN], data: &mut [u8]) {
        let mut counter = *nonce;
        for chunk in data.chunks_mut(BLOCK_LEN) {
            let mut keystream = counter;
            self.encrypt_block(&mut keystream);
            for (d, k) in chunk.iter_mut().zip(keystream.iter()) {
                *d ^= k;
            }
            // Increment low 32 bits big-endian.
            let mut ctr32 =
                u32::from_be_bytes([counter[12], counter[13], counter[14], counter[15]]);
            ctr32 = ctr32.wrapping_add(1);
            counter[12..16].copy_from_slice(&ctr32.to_be_bytes());
        }
    }
}

fn add_round_key(state: &mut [u8; 16], key: &[u8; 16]) {
    for i in 0..16 {
        state[i] ^= key[i];
    }
}

fn sub_bytes(state: &mut [u8; 16]) {
    for b in state.iter_mut() {
        *b = SBOX[*b as usize];
    }
}

// State is column-major: state[col * 4 + row].
fn shift_rows(state: &mut [u8; 16]) {
    let s = *state;
    for row in 1..4 {
        for col in 0..4 {
            state[col * 4 + row] = s[((col + row) % 4) * 4 + row];
        }
    }
}

fn mix_columns(state: &mut [u8; 16]) {
    for col in 0..4 {
        let a = [
            state[col * 4],
            state[col * 4 + 1],
            state[col * 4 + 2],
            state[col * 4 + 3],
        ];
        state[col * 4] = xtime(a[0]) ^ (xtime(a[1]) ^ a[1]) ^ a[2] ^ a[3];
        state[col * 4 + 1] = a[0] ^ xtime(a[1]) ^ (xtime(a[2]) ^ a[2]) ^ a[3];
        state[col * 4 + 2] = a[0] ^ a[1] ^ xtime(a[2]) ^ (xtime(a[3]) ^ a[3]);
        state[col * 4 + 3] = (xtime(a[0]) ^ a[0]) ^ a[1] ^ a[2] ^ xtime(a[3]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    // The inverse cipher: no production path decrypts a block (CTR
    // only runs the forward one), so it lives here, for the FIPS-197
    // round trips.
    const INV_SBOX: [u8; 256] = {
        let mut inv = [0u8; 256];
        let mut i = 0;
        while i < 256 {
            inv[SBOX[i] as usize] = i as u8;
            i += 1;
        }
        inv
    };

    fn gmul(a: u8, b: u8) -> u8 {
        let mut result = 0u8;
        let mut a = a;
        let mut b = b;
        while b != 0 {
            if b & 1 == 1 {
                result ^= a;
            }
            a = xtime(a);
            b >>= 1;
        }
        result
    }

    impl Aes128 {
        /// Decrypts a single 16-byte block in place.
        fn decrypt_block(&self, block: &mut [u8; BLOCK_LEN]) {
            add_round_key(block, &self.round_keys[10]);
            inv_shift_rows(block);
            inv_sub_bytes(block);
            for round in (1..10).rev() {
                add_round_key(block, &self.round_keys[round]);
                inv_mix_columns(block);
                inv_shift_rows(block);
                inv_sub_bytes(block);
            }
            add_round_key(block, &self.round_keys[0]);
        }
    }

    fn inv_sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = INV_SBOX[*b as usize];
        }
    }

    fn inv_shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for row in 1..4 {
            for col in 0..4 {
                state[((col + row) % 4) * 4 + row] = s[col * 4 + row];
            }
        }
    }

    fn inv_mix_columns(state: &mut [u8; 16]) {
        for col in 0..4 {
            let a = [
                state[col * 4],
                state[col * 4 + 1],
                state[col * 4 + 2],
                state[col * 4 + 3],
            ];
            state[col * 4] =
                gmul(a[0], 0x0e) ^ gmul(a[1], 0x0b) ^ gmul(a[2], 0x0d) ^ gmul(a[3], 0x09);
            state[col * 4 + 1] =
                gmul(a[0], 0x09) ^ gmul(a[1], 0x0e) ^ gmul(a[2], 0x0b) ^ gmul(a[3], 0x0d);
            state[col * 4 + 2] =
                gmul(a[0], 0x0d) ^ gmul(a[1], 0x09) ^ gmul(a[2], 0x0e) ^ gmul(a[3], 0x0b);
            state[col * 4 + 3] =
                gmul(a[0], 0x0b) ^ gmul(a[1], 0x0d) ^ gmul(a[2], 0x09) ^ gmul(a[3], 0x0e);
        }
    }

    fn unhex(s: &str) -> Vec<u8> {
        (0..s.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
            .collect()
    }

    // FIPS-197 Appendix B.
    #[test]
    fn fips197_appendix_b() {
        let key = unhex("2b7e151628aed2a6abf7158809cf4f3c");
        let cipher = Aes128::new(&key).unwrap();
        let mut block: [u8; 16] = unhex("3243f6a8885a308d313198a2e0370734")
            .try_into()
            .unwrap();
        cipher.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), unhex("3925841d02dc09fbdc118597196a0b32"));
        cipher.decrypt_block(&mut block);
        assert_eq!(block.to_vec(), unhex("3243f6a8885a308d313198a2e0370734"));
    }

    // FIPS-197 Appendix C.1.
    #[test]
    fn fips197_appendix_c1() {
        let key = unhex("000102030405060708090a0b0c0d0e0f");
        let cipher = Aes128::new(&key).unwrap();
        let mut block: [u8; 16] = unhex("00112233445566778899aabbccddeeff")
            .try_into()
            .unwrap();
        cipher.encrypt_block(&mut block);
        assert_eq!(block.to_vec(), unhex("69c4e0d86a7b0430d8cdb78070b4c55a"));
    }

    // NIST SP 800-38A F.1.1 (ECB-AES128 encrypt, first two blocks): ECB
    // is the block function applied per block.
    #[test]
    fn sp800_38a_ecb() {
        let key = unhex("2b7e151628aed2a6abf7158809cf4f3c");
        let cipher = Aes128::new(&key).unwrap();
        let plain = unhex("6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51");
        let mut data = plain.clone();
        for block in data.chunks_exact_mut(BLOCK_LEN) {
            cipher.encrypt_block(block.try_into().unwrap());
        }
        assert_eq!(
            data,
            unhex("3ad77bb40d7a3660a89ecaf32466ef97f5d3d58503b9699de785895a96fdbaaf")
        );
        for block in data.chunks_exact_mut(BLOCK_LEN) {
            cipher.decrypt_block(block.try_into().unwrap());
        }
        assert_eq!(data, plain);
    }

    // NIST SP 800-38A F.5.1 (CTR-AES128 encrypt, first two blocks).
    #[test]
    fn sp800_38a_ctr() {
        let key = unhex("2b7e151628aed2a6abf7158809cf4f3c");
        let cipher = Aes128::new(&key).unwrap();
        let nonce: [u8; 16] = unhex("f0f1f2f3f4f5f6f7f8f9fafbfcfdfeff")
            .try_into()
            .unwrap();
        let mut data = unhex("6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51");
        cipher.ctr_apply(&nonce, &mut data);
        assert_eq!(
            data,
            unhex("874d6191b620e3261bef6864990db6ce9806f66b7970fdff8617187bb9fffdff")
        );
        // CTR is its own inverse.
        // teenet-analyze: allow(seal-nonce-reuse) -- round-trip against the NIST vector: the test decrypts what it just encrypted, which requires the same nonce by definition
        cipher.ctr_apply(&nonce, &mut data);
        assert_eq!(
            data,
            unhex("6bc1bee22e409f96e93d7e117393172aae2d8a571e03ac9c9eb76fac45af8e51")
        );
    }

    #[test]
    fn rejects_bad_key_length() {
        assert!(Aes128::new(&[0u8; 15]).is_err());
        assert!(Aes128::new(&[0u8; 32]).is_err());
    }

    #[test]
    fn ctr_handles_partial_final_block() {
        let cipher = Aes128::new(&[1u8; 16]).unwrap();
        let nonce = [0u8; 16];
        let mut data = b"seventeen bytes!!".to_vec();
        let orig = data.clone();
        cipher.ctr_apply(&nonce, &mut data);
        assert_ne!(data, orig);
        // teenet-analyze: allow(seal-nonce-reuse) -- round-trip test: decrypting the buffer requires re-applying the same keystream
        cipher.ctr_apply(&nonce, &mut data);
        assert_eq!(data, orig);
    }

    proptest! {
        #[test]
        fn prop_block_roundtrip(key in proptest::array::uniform16(any::<u8>()),
                                block in proptest::array::uniform16(any::<u8>())) {
            let cipher = Aes128::new(&key).unwrap();
            let mut b = block;
            cipher.encrypt_block(&mut b);
            cipher.decrypt_block(&mut b);
            prop_assert_eq!(b, block);
        }

        #[test]
        fn prop_ctr_roundtrip(key in proptest::array::uniform16(any::<u8>()),
                              nonce in proptest::array::uniform16(any::<u8>()),
                              data in proptest::collection::vec(any::<u8>(), 0..200)) {
            let cipher = Aes128::new(&key).unwrap();
            let mut buf = data.clone();
            cipher.ctr_apply(&nonce, &mut buf);
            // teenet-analyze: allow(seal-nonce-reuse) -- property under test IS the involution: applying the same nonce twice must restore the plaintext
            cipher.ctr_apply(&nonce, &mut buf);
            prop_assert_eq!(buf, data);
        }
    }
}
