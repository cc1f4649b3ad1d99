//! Versioned, checksummed binary container format for ECRPQ snapshots.
//!
//! Every on-disk artifact in this workspace — `GraphDb` snapshots and the
//! statement sidecars that ride next to them — shares one container
//! layout defined here:
//!
//! ```text
//! [magic: 8 bytes][format version: u32][section count: u32]
//! then per section:
//! [tag: u32][payload length: u64][payload bytes][FNV-1a 64 checksum: u64]
//! ```
//!
//! All integers are little-endian. Each section's payload is covered by its
//! own checksum, so a bit flip anywhere in a payload is caught before any
//! decoded value is trusted. The header fields are validated structurally:
//! a wrong magic, an unknown format version, or a section length that runs
//! past the end of the file each produce a distinct [`StorageError`].
//!
//! Decoding is *bounded*: [`Decoder`] validates every length and element
//! count against the bytes actually present before allocating, so a
//! corrupted count field can never trigger an unbounded allocation — the
//! worst case is an `Err`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

use std::fmt;

/// Offset basis of FNV-1a 64.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// Prime of FNV-1a 64.
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a 64-bit hash of `bytes`. Used for statement-text keys and snapshot
/// identity digests — short inputs where byte-at-a-time is fine.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h = FNV_OFFSET;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(FNV_PRIME);
    }
    h
}

/// Multiplier for [`chunk_hash64`]: an odd constant, so every multiply is a
/// bijection on `u64` and a single flipped bit can never cancel out.
const CHUNK_MUL: u64 = 0x2545_f491_4f6c_dd1d;

/// Word-at-a-time 64-bit hash used for section checksums. Section payloads
/// run to megabytes (CSR arrays), where byte-serial FNV-1a becomes the
/// dominant cost of a warm open; this digest processes four independent
/// 64-bit lanes per step (~an order of magnitude faster) while keeping the
/// property that matters for a checksum: every step is a bijection per lane
/// and the final combine is injective in each lane, so any single-bit change
/// in the payload changes the digest deterministically.
pub fn chunk_hash64(bytes: &[u8]) -> u64 {
    #[inline]
    fn mix(h: u64, w: u64) -> u64 {
        let h = (h ^ w).wrapping_mul(CHUNK_MUL);
        h ^ (h >> 29)
    }
    let mut lanes = [
        FNV_OFFSET,
        FNV_OFFSET ^ 0x9e37_79b9_7f4a_7c15,
        FNV_OFFSET.rotate_left(17),
        FNV_OFFSET.rotate_left(43),
    ];
    let mut chunks = bytes.chunks_exact(32);
    for c in &mut chunks {
        for (i, lane) in lanes.iter_mut().enumerate() {
            let w = u64::from_le_bytes(c[i * 8..i * 8 + 8].try_into().expect("8B"));
            *lane = mix(*lane, w);
        }
    }
    // Fold the remainder into lane 0, zero-padded with the true length mixed
    // in below so padding cannot alias a shorter payload.
    let rem = chunks.remainder();
    if !rem.is_empty() {
        let mut tail = [0u8; 32];
        tail[..rem.len()].copy_from_slice(rem);
        for (i, lane) in lanes.iter_mut().enumerate() {
            let w = u64::from_le_bytes(tail[i * 8..i * 8 + 8].try_into().expect("8B"));
            *lane = mix(*lane, w);
        }
    }
    let mut h = bytes.len() as u64;
    for lane in lanes {
        h = mix(h, lane);
    }
    h
}

/// A structured decode/IO failure. Every way a snapshot can be unreadable —
/// wrong file type, newer format version, truncation, bit rot, or a
/// semantically impossible value — maps to a distinct variant so callers can
/// report (and tests can assert) the precise failure mode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StorageError {
    /// An underlying filesystem error (open/read/write/rename).
    Io(String),
    /// The file does not start with the expected magic bytes.
    BadMagic,
    /// The file's format version is not the one this build reads.
    VersionMismatch {
        /// Version recorded in the file header.
        found: u32,
        /// Version this build reads.
        expected: u32,
    },
    /// A section's payload hash does not match its recorded checksum.
    ChecksumMismatch {
        /// Tag of the failing section.
        section: u32,
    },
    /// The file ends before a declared length is satisfied.
    Truncated(String),
    /// A value decoded cleanly but is semantically impossible
    /// (e.g. an edge target beyond the node count).
    Corrupt(String),
    /// A section the format requires is absent.
    MissingSection(u32),
}

impl fmt::Display for StorageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StorageError::Io(e) => write!(f, "io error: {e}"),
            StorageError::BadMagic => write!(f, "bad magic: not a recognized snapshot file"),
            StorageError::VersionMismatch { found, expected } => {
                write!(f, "format version mismatch: file is v{found}, this build reads v{expected}")
            }
            StorageError::ChecksumMismatch { section } => {
                write!(f, "checksum mismatch in section {section}")
            }
            StorageError::Truncated(what) => write!(f, "truncated file: {what}"),
            StorageError::Corrupt(what) => write!(f, "corrupt data: {what}"),
            StorageError::MissingSection(tag) => write!(f, "missing section {tag}"),
        }
    }
}

impl std::error::Error for StorageError {}

impl From<std::io::Error> for StorageError {
    fn from(e: std::io::Error) -> StorageError {
        StorageError::Io(e.to_string())
    }
}

/// Reads a whole file, mapping IO failures into [`StorageError::Io`].
pub fn read_file(path: &std::path::Path) -> Result<Vec<u8>, StorageError> {
    std::fs::read(path).map_err(|e| StorageError::Io(format!("{}: {e}", path.display())))
}

/// Writes `bytes` to `path`, mapping IO failures into [`StorageError::Io`].
pub fn write_file(path: &std::path::Path, bytes: &[u8]) -> Result<(), StorageError> {
    std::fs::write(path, bytes).map_err(|e| StorageError::Io(format!("{}: {e}", path.display())))
}

// ------------------------------------------------------------------ encoding

/// An append-only little-endian byte encoder for one section payload.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// An empty encoder.
    pub fn new() -> Encoder {
        Encoder { buf: Vec::new() }
    }

    /// An empty encoder with `capacity` bytes preallocated.
    pub fn with_capacity(capacity: usize) -> Encoder {
        Encoder { buf: Vec::with_capacity(capacity) }
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian IEEE-754 `f64`.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32` length prefix followed by the UTF-8 bytes of `s`.
    pub fn str(&mut self, s: &str) {
        self.u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Appends raw bytes with no length prefix.
    pub fn raw(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Appends a `u64` element count followed by each element little-endian.
    pub fn slice_u32(&mut self, v: &[u32]) {
        self.u64(v.len() as u64);
        self.buf.reserve(v.len() * 4);
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Appends a `u64` element count followed by each element little-endian.
    pub fn slice_u64(&mut self, v: &[u64]) {
        self.u64(v.len() as u64);
        self.buf.reserve(v.len() * 8);
        for &x in v {
            self.buf.extend_from_slice(&x.to_le_bytes());
        }
    }

    /// Bytes encoded so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Whether nothing has been encoded.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Consumes the encoder and returns the payload bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }
}

/// Builds one container file: header plus tagged, checksummed sections.
#[derive(Debug)]
pub struct Writer {
    magic: [u8; 8],
    version: u32,
    sections: Vec<(u32, Vec<u8>)>,
}

impl Writer {
    /// A writer for a file identified by `magic` at format `version`.
    pub fn new(magic: [u8; 8], version: u32) -> Writer {
        Writer { magic, version, sections: Vec::new() }
    }

    /// Appends a section with `tag` and the given payload.
    pub fn section(&mut self, tag: u32, payload: Encoder) {
        self.sections.push((tag, payload.into_bytes()));
    }

    /// Serializes the header and all sections into the final byte image.
    pub fn finish(self) -> Vec<u8> {
        let total: usize = 16 + self.sections.iter().map(|(_, p)| 20 + p.len()).sum::<usize>();
        let mut out = Vec::with_capacity(total);
        out.extend_from_slice(&self.magic);
        out.extend_from_slice(&self.version.to_le_bytes());
        out.extend_from_slice(&(self.sections.len() as u32).to_le_bytes());
        for (tag, payload) in &self.sections {
            out.extend_from_slice(&tag.to_le_bytes());
            out.extend_from_slice(&(payload.len() as u64).to_le_bytes());
            out.extend_from_slice(payload);
            out.extend_from_slice(&chunk_hash64(payload).to_le_bytes());
        }
        out
    }
}

// ------------------------------------------------------------------ decoding

/// A bounds-checked little-endian reader over one section payload.
///
/// Every accessor validates that the requested bytes are actually present
/// before reading, and the `vec_*` accessors validate `count × width`
/// against the remaining bytes before allocating — a hostile count field
/// costs an `Err`, never memory.
#[derive(Debug)]
pub struct Decoder<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Decoder<'a> {
    /// A decoder over `buf`.
    pub fn new(buf: &'a [u8]) -> Decoder<'a> {
        Decoder { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], StorageError> {
        if self.remaining() < n {
            return Err(StorageError::Truncated(format!(
                "{what}: need {n} bytes, have {}",
                self.remaining()
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &str) -> Result<u8, StorageError> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, StorageError> {
        let b = self.take(4, what)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, StorageError> {
        let b = self.take(8, what)?;
        Ok(u64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Reads a little-endian IEEE-754 `f64`.
    pub fn f64(&mut self, what: &str) -> Result<f64, StorageError> {
        let b = self.take(8, what)?;
        Ok(f64::from_le_bytes(b.try_into().expect("8-byte slice")))
    }

    /// Reads a `u32`-length-prefixed UTF-8 string.
    pub fn str(&mut self, what: &str) -> Result<String, StorageError> {
        let len = self.u32(what)? as usize;
        self.str_body(len, what)
    }

    /// Reads the UTF-8 body of a string whose `u32` length prefix the caller
    /// already consumed (e.g. because a sentinel value shares the slot).
    pub fn str_body(&mut self, len: usize, what: &str) -> Result<String, StorageError> {
        Ok(self.str_slice(len, what)?.to_string())
    }

    /// Borrowing variant of [`str_body`](Self::str_body): validates the
    /// UTF-8 in place and returns a slice of the underlying buffer, so bulk
    /// string decoding (e.g. a node-name arena) allocates nothing per call.
    pub fn str_slice(&mut self, len: usize, what: &str) -> Result<&'a str, StorageError> {
        let bytes = self.take(len, what)?;
        std::str::from_utf8(bytes)
            .map_err(|_| StorageError::Corrupt(format!("{what}: invalid UTF-8")))
    }

    /// Reads a `u64` element count, then that many `u32`s. The count is
    /// validated against the remaining bytes before any allocation.
    pub fn vec_u32(&mut self, what: &str) -> Result<Vec<u32>, StorageError> {
        let count = self.counted(4, what)?;
        let body = &self.buf[self.pos..self.pos + count * 4];
        self.pos += count * 4;
        Ok(body.chunks_exact(4).map(|b| u32::from_le_bytes(b.try_into().expect("4B"))).collect())
    }

    /// Reads a `u64` element count, then that many `u64`s (bounds-validated).
    pub fn vec_u64(&mut self, what: &str) -> Result<Vec<u64>, StorageError> {
        let count = self.counted(8, what)?;
        let body = &self.buf[self.pos..self.pos + count * 8];
        self.pos += count * 8;
        Ok(body.chunks_exact(8).map(|b| u64::from_le_bytes(b.try_into().expect("8B"))).collect())
    }

    /// Validates an element count of `width`-byte items against the bytes
    /// remaining, returning it as a `usize`.
    fn counted(&mut self, width: usize, what: &str) -> Result<usize, StorageError> {
        let count = self.u64(what)?;
        let need = (count as u128) * (width as u128);
        if need > self.remaining() as u128 {
            return Err(StorageError::Truncated(format!(
                "{what}: {count} elements of {width} bytes exceed the {} bytes present",
                self.remaining()
            )));
        }
        Ok(count as usize)
    }

    /// Asserts that the payload has been fully consumed.
    pub fn finish(&self, what: &str) -> Result<(), StorageError> {
        if self.remaining() != 0 {
            return Err(StorageError::Corrupt(format!(
                "{what}: {} trailing bytes after the last field",
                self.remaining()
            )));
        }
        Ok(())
    }
}

/// A parsed container: header validated, sections located and
/// checksum-verified lazily on access.
#[derive(Debug)]
pub struct Container<'a> {
    sections: Vec<(u32, &'a [u8], u64)>,
}

impl<'a> Container<'a> {
    /// Parses the container structure of `bytes`, validating the magic, the
    /// format version, and that every declared section length fits inside
    /// the file. Section payload checksums are verified by
    /// [`section`](Self::section).
    pub fn open(
        bytes: &'a [u8],
        magic: [u8; 8],
        version: u32,
    ) -> Result<Container<'a>, StorageError> {
        if bytes.len() < 16 {
            return Err(StorageError::Truncated(format!(
                "header: need 16 bytes, have {}",
                bytes.len()
            )));
        }
        if bytes[..8] != magic {
            return Err(StorageError::BadMagic);
        }
        let found = u32::from_le_bytes(bytes[8..12].try_into().expect("4-byte slice"));
        if found != version {
            return Err(StorageError::VersionMismatch { found, expected: version });
        }
        let count = u32::from_le_bytes(bytes[12..16].try_into().expect("4-byte slice"));
        let mut sections = Vec::new();
        let mut pos = 16usize;
        for i in 0..count {
            if bytes.len() - pos < 12 {
                return Err(StorageError::Truncated(format!(
                    "section {i} header: need 12 bytes, have {}",
                    bytes.len() - pos
                )));
            }
            let tag = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4-byte slice"));
            let len =
                u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("8-byte slice"));
            pos += 12;
            let need = (len as u128) + 8;
            if need > (bytes.len() - pos) as u128 {
                return Err(StorageError::Truncated(format!(
                    "section {tag}: declared {len} payload bytes, {} remain",
                    bytes.len() - pos
                )));
            }
            let len = len as usize;
            let payload = &bytes[pos..pos + len];
            pos += len;
            let checksum =
                u64::from_le_bytes(bytes[pos..pos + 8].try_into().expect("8-byte slice"));
            pos += 8;
            sections.push((tag, payload, checksum));
        }
        if pos != bytes.len() {
            return Err(StorageError::Corrupt(format!(
                "{} trailing bytes after the last section",
                bytes.len() - pos
            )));
        }
        Ok(Container { sections })
    }

    /// The checksum-verified payload of the first section tagged `tag`.
    pub fn section(&self, tag: u32) -> Result<&'a [u8], StorageError> {
        let (_, payload, checksum) = self
            .sections
            .iter()
            .find(|(t, _, _)| *t == tag)
            .ok_or(StorageError::MissingSection(tag))?;
        if chunk_hash64(payload) != *checksum {
            return Err(StorageError::ChecksumMismatch { section: tag });
        }
        Ok(payload)
    }

    /// Like [`section`](Self::section) but `Ok(None)` when the tag is absent
    /// (still `Err` on a checksum failure).
    pub fn optional_section(&self, tag: u32) -> Result<Option<&'a [u8]>, StorageError> {
        match self.section(tag) {
            Ok(p) => Ok(Some(p)),
            Err(StorageError::MissingSection(_)) => Ok(None),
            Err(e) => Err(e),
        }
    }
}

// A compile-time check that the error type stays thread-portable.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<StorageError>();
};

#[cfg(test)]
mod tests {
    use super::*;

    const MAGIC: [u8; 8] = *b"ECRPQTST";

    fn sample() -> Vec<u8> {
        let mut w = Writer::new(MAGIC, 3);
        let mut e = Encoder::new();
        e.u32(7);
        e.str("hello");
        e.slice_u32(&[1, 2, 3]);
        w.section(10, e);
        let mut e = Encoder::new();
        e.u64(5);
        e.f64(0.25);
        w.section(11, e);
        w.finish()
    }

    #[test]
    fn roundtrip() {
        let bytes = sample();
        let c = Container::open(&bytes, MAGIC, 3).unwrap();
        let mut d = Decoder::new(c.section(10).unwrap());
        assert_eq!(d.u32("x").unwrap(), 7);
        assert_eq!(d.str("s").unwrap(), "hello");
        assert_eq!(d.vec_u32("v").unwrap(), vec![1, 2, 3]);
        d.finish("s10").unwrap();
        let mut d = Decoder::new(c.section(11).unwrap());
        assert_eq!(d.u64("u").unwrap(), 5);
        assert_eq!(d.f64("f").unwrap(), 0.25);
        d.finish("s11").unwrap();
        assert_eq!(c.optional_section(99).unwrap(), None);
    }

    #[test]
    fn bad_magic_and_version() {
        let bytes = sample();
        assert_eq!(Container::open(&bytes, *b"WRONGMAG", 3).unwrap_err(), StorageError::BadMagic);
        assert_eq!(
            Container::open(&bytes, MAGIC, 4).unwrap_err(),
            StorageError::VersionMismatch { found: 3, expected: 4 }
        );
    }

    #[test]
    fn every_truncation_is_a_structured_error() {
        let bytes = sample();
        for len in 0..bytes.len() {
            let err = match Container::open(&bytes[..len], MAGIC, 3) {
                Err(e) => e,
                Ok(c) => match (c.section(10), c.section(11)) {
                    (Err(e), _) | (_, Err(e)) => e,
                    _ => panic!("truncation to {len} bytes decoded cleanly"),
                },
            };
            let _ = err.to_string();
        }
    }

    #[test]
    fn every_bit_flip_is_caught() {
        let bytes = sample();
        for i in 0..bytes.len() {
            for bit in 0..8 {
                let mut flipped = bytes.clone();
                flipped[i] ^= 1 << bit;
                let decoded = Container::open(&flipped, MAGIC, 3)
                    .and_then(|c| Ok((c.section(10)?.to_vec(), c.section(11)?.to_vec())));
                if let Ok((s10, s11)) = decoded {
                    // A flip inside a payload must be caught by the checksum;
                    // reaching here means decode succeeded, so the payloads
                    // must be byte-identical to the originals (impossible for
                    // a real flip — this asserts the checksum has no gaps).
                    let c = Container::open(&bytes, MAGIC, 3).unwrap();
                    assert_eq!(s10, c.section(10).unwrap());
                    assert_eq!(s11, c.section(11).unwrap());
                    panic!("bit flip at byte {i} bit {bit} went unnoticed");
                }
            }
        }
    }

    #[test]
    fn hostile_count_does_not_allocate() {
        let mut e = Encoder::new();
        e.u64(u64::MAX); // claims 2^64-1 elements
        let bytes = e.into_bytes();
        let mut d = Decoder::new(&bytes);
        assert!(matches!(d.vec_u64("v").unwrap_err(), StorageError::Truncated(_)));
    }

    #[test]
    fn error_display_is_stable() {
        let e = StorageError::VersionMismatch { found: 9, expected: 1 };
        assert_eq!(e.to_string(), "format version mismatch: file is v9, this build reads v1");
        assert_eq!(StorageError::BadMagic.to_string(), "bad magic: not a recognized snapshot file");
        assert_eq!(
            StorageError::ChecksumMismatch { section: 4 }.to_string(),
            "checksum mismatch in section 4"
        );
    }
}
