//! The binary field format.
//!
//! Layout of one sub-file (all integers little-endian):
//!
//! ```text
//! 0    8   magic "AP3ESMIO"
//! 8    4   version (= 1)
//! 12   4   number of dimensions (1..=3)
//! 16   24  global dims (3 × u64; unused dims = 1)
//! 40   4   sub-file index (which partition this file holds)
//! 44   4   total number of sub-files
//! 48   8   start element (inclusive, into the flattened global field)
//! 56   8   element count in this sub-file
//! 64   4   CRC-32 of the payload bytes
//! 68   4   CRC-32 of header bytes 0..68
//! 72   …   payload: count × f64 little-endian
//! ```
//!
//! The header checksum makes every single-byte corruption of a sub-file
//! detectable: a flipped payload byte fails the payload CRC, a flipped
//! header byte fails the magic/version check or the header CRC. The
//! checkpoint-recovery path relies on this to tell a good checkpoint from
//! a damaged one.

use bytes::{Buf, BufMut, Bytes, BytesMut};

use crate::IoError;

/// Format magic bytes.
pub const MAGIC: &[u8; 8] = b"AP3ESMIO";
const VERSION: u32 = 1;
/// Header size in bytes.
pub const HEADER_LEN: usize = 72;

/// Parsed sub-file header.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FieldHeader {
    pub dims: [u64; 3],
    pub ndims: u32,
    pub subfile_index: u32,
    pub subfile_count: u32,
    pub start: u64,
    pub count: u64,
    pub crc: u32,
}

impl FieldHeader {
    /// Serialise to the fixed 72-byte header. The final word is the
    /// CRC-32 of the preceding 68 bytes, so header corruption is
    /// detectable independently of the payload checksum.
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(HEADER_LEN);
        b.put_slice(MAGIC);
        b.put_u32_le(VERSION);
        b.put_u32_le(self.ndims);
        for d in self.dims {
            b.put_u64_le(d);
        }
        b.put_u32_le(self.subfile_index);
        b.put_u32_le(self.subfile_count);
        b.put_u64_le(self.start);
        b.put_u64_le(self.count);
        b.put_u32_le(self.crc);
        let header_crc = crc32(&b);
        b.put_u32_le(header_crc);
        debug_assert_eq!(b.len(), HEADER_LEN);
        b.freeze()
    }

    /// Parse from the first [`HEADER_LEN`] bytes of a file. The trailing
    /// word must match the CRC-32 of the first 68 bytes: every writer
    /// stamps it, so a zeroed word is a torn header, not an old file.
    pub fn decode(buf: &[u8]) -> Result<Self, IoError> {
        if buf.len() < HEADER_LEN {
            return Err(IoError::Inconsistent("truncated header".into()));
        }
        let mut head = &buf[..HEADER_LEN - 4];
        let mut magic = [0u8; 8];
        head.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(IoError::BadMagic);
        }
        let version = head.get_u32_le();
        if version != VERSION {
            return Err(IoError::BadVersion(version));
        }
        let stored_header_crc =
            u32::from_le_bytes(buf[HEADER_LEN - 4..HEADER_LEN].try_into().expect("4 bytes"));
        let actual = crc32(&buf[..HEADER_LEN - 4]);
        if actual != stored_header_crc {
            return Err(IoError::CrcMismatch {
                expected: stored_header_crc,
                actual,
            });
        }
        let mut buf = head;
        let ndims = buf.get_u32_le();
        let dims = [buf.get_u64_le(), buf.get_u64_le(), buf.get_u64_le()];
        let subfile_index = buf.get_u32_le();
        let subfile_count = buf.get_u32_le();
        let start = buf.get_u64_le();
        let count = buf.get_u64_le();
        let crc = buf.get_u32_le();
        Ok(FieldHeader {
            dims,
            ndims,
            subfile_index,
            subfile_count,
            start,
            count,
            crc,
        })
    }
}

/// CRC-32 (IEEE 802.3, reflected) — table-driven, no external dependency.
pub fn crc32(data: &[u8]) -> u32 {
    static TABLE: std::sync::OnceLock<[u32; 256]> = std::sync::OnceLock::new();
    let table = TABLE.get_or_init(|| {
        let mut t = [0u32; 256];
        for (i, slot) in t.iter_mut().enumerate() {
            let mut c = i as u32;
            for _ in 0..8 {
                c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            }
            *slot = c;
        }
        t
    });
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = table[((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc ^ 0xFFFF_FFFF
}

/// Encode an f64 slice as little-endian payload bytes.
pub fn encode_payload(data: &[f64]) -> Bytes {
    let mut b = BytesMut::with_capacity(data.len() * 8);
    for &v in data {
        b.put_f64_le(v);
    }
    b.freeze()
}

/// Decode a little-endian payload back to f64s.
pub fn decode_payload(mut buf: &[u8]) -> Result<Vec<f64>, IoError> {
    if !buf.len().is_multiple_of(8) {
        return Err(IoError::Inconsistent("payload not a multiple of 8".into()));
    }
    let mut out = Vec::with_capacity(buf.len() / 8);
    while buf.has_remaining() {
        out.push(buf.get_f64_le());
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_roundtrip() {
        let h = FieldHeader {
            dims: [100, 50, 3],
            ndims: 3,
            subfile_index: 2,
            subfile_count: 8,
            start: 1234,
            count: 5678,
            crc: 0xDEAD_BEEF,
        };
        let bytes = h.encode();
        assert_eq!(bytes.len(), HEADER_LEN);
        let h2 = FieldHeader::decode(&bytes).unwrap();
        assert_eq!(h, h2);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = FieldHeader {
            dims: [1, 1, 1],
            ndims: 1,
            subfile_index: 0,
            subfile_count: 1,
            start: 0,
            count: 0,
            crc: 0,
        }
        .encode()
        .to_vec();
        bytes[0] = b'X';
        assert!(matches!(
            FieldHeader::decode(&bytes),
            Err(IoError::BadMagic)
        ));
    }

    #[test]
    fn header_crc_detects_any_corrupted_byte() {
        let h = FieldHeader {
            dims: [100, 50, 3],
            ndims: 3,
            subfile_index: 2,
            subfile_count: 8,
            start: 1234,
            count: 5678,
            crc: 0xDEAD_BEEF,
        };
        let clean = h.encode().to_vec();
        assert!(FieldHeader::decode(&clean).is_ok());
        for pos in 0..HEADER_LEN {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0x01;
            assert!(
                FieldHeader::decode(&bytes).is_err(),
                "flip at byte {pos} went undetected"
            );
        }
    }

    #[test]
    fn zeroed_header_crc_is_rejected() {
        let h = FieldHeader {
            dims: [4, 1, 1],
            ndims: 1,
            subfile_index: 0,
            subfile_count: 1,
            start: 0,
            count: 4,
            crc: 7,
        };
        let mut bytes = h.encode().to_vec();
        bytes[HEADER_LEN - 4..].fill(0); // a torn header
        assert!(matches!(
            FieldHeader::decode(&bytes),
            Err(IoError::CrcMismatch { expected: 0, .. })
        ));
    }

    #[test]
    fn crc32_known_vector() {
        // Standard test vector: CRC-32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn payload_roundtrip() {
        let data = vec![0.0, -1.5, f64::MAX, f64::MIN_POSITIVE, 3.25];
        let bytes = encode_payload(&data);
        let back = decode_payload(&bytes).unwrap();
        assert_eq!(data, back);
    }

    #[test]
    fn truncated_payload_rejected() {
        let bytes = encode_payload(&[1.0, 2.0]);
        assert!(matches!(
            decode_payload(&bytes[..9]),
            Err(IoError::Inconsistent(_))
        ));
    }
}
