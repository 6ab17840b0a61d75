//! CRC-32 (IEEE 802.3 polynomial) — the checksum in every sealed file's
//! trailer, implemented in-tree because the workspace builds offline.

/// The reflected IEEE polynomial used by zlib, PNG, and Ethernet.
const POLY: u32 = 0xEDB8_8320;

const fn build_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ POLY
            } else {
                crc >> 1
            };
            bit += 1;
        }
        table[i] = crc;
        i += 1;
    }
    table
}

static TABLE: [u32; 256] = build_table();

/// The CRC-32 of `data` (IEEE, reflected, init/final-xor `0xFFFF_FFFF`).
pub fn crc32(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ TABLE[((crc ^ b as u32) & 0xFF) as usize];
    }
    crc ^ 0xFFFF_FFFF
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vectors() {
        // Standard check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn sensitive_to_single_bit_flips() {
        let a = crc32(b"small 16 cafebabe (ct 2 8)");
        let b = crc32(b"small 16 cafebabf (ct 2 8)");
        assert_ne!(a, b);
    }
}
