//! Little-endian binary primitives of the snapshot codec, plus the FNV-1a fingerprint.
//! Everything is length-prefixed and fixed-width so the encodings are canonical: equal values
//! produce equal bytes, which is what makes the fingerprint a usable identity.

/// FNV-1a chained over 64-bit little-endian lanes (trailing bytes fold in one at a time, like
/// byte-chained FNV-1a): the payload fingerprint of a snapshot, one multiply per eight bytes
/// instead of one per byte. Payloads carry the derived in-adjacency and reachability arrays,
/// so the byte-chained hash — a serial dependency of ~3 cycles *per
/// byte* — would tax every open with more time than the decode it guards. Not cryptographic:
/// it guards against *mistakes* (opening a truncated or bit-flipped snapshot), not against
/// adversaries.
pub(crate) fn fnv64_words(bytes: &[u8]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    let mut lanes = bytes.chunks_exact(8);
    for lane in &mut lanes {
        hash ^= u64::from_le_bytes(lane.try_into().unwrap());
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    for &b in lanes.remainder() {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Append-only encoder for the snapshot payload.
#[derive(Default)]
pub(crate) struct Writer {
    buf: Vec<u8>,
    /// The first value [`Self::len`] could not fit into its `u32` field.
    overflow: Option<usize>,
}

impl Writer {
    pub(crate) fn new() -> Self {
        Writer::default()
    }

    /// The encoded bytes, or the first value that did not fit its `u32` field.
    pub(crate) fn into_bytes(self) -> Result<Vec<u8>, usize> {
        match self.overflow {
            None => Ok(self.buf),
            Some(value) => Err(value),
        }
    }

    pub(crate) fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    pub(crate) fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    pub(crate) fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    pub(crate) fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Collection lengths, statement positions and node ids: encoded as `u32`. A value beyond
    /// `u32::MAX` does not fit the format; the first one is kept, and [`Self::into_bytes`]
    /// returns it instead of the bytes.
    pub(crate) fn len(&mut self, v: usize) {
        let fitted = u32::try_from(v).unwrap_or_else(|_| {
            self.overflow.get_or_insert(v);
            u32::MAX
        });
        self.u32(fitted);
    }

    pub(crate) fn str(&mut self, v: &str) {
        self.len(v.len());
        self.buf.extend_from_slice(v.as_bytes());
    }

    pub(crate) fn opt_u64(&mut self, v: Option<u64>) {
        match v {
            None => self.u8(0),
            Some(bits) => {
                self.u8(1);
                self.u64(bits);
            }
        }
    }

    /// A raw `u32` array, little-endian, no length prefix (the caller's schema implies it).
    pub(crate) fn u32_slice(&mut self, vs: &[u32]) {
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// A raw `u64` array, little-endian, no length prefix.
    pub(crate) fn u64_slice(&mut self, vs: &[u64]) {
        for &v in vs {
            self.buf.extend_from_slice(&v.to_le_bytes());
        }
    }
}

/// Bounds-checked decoder over a payload slice. Every method fails with a message instead of
/// panicking, so corrupted or truncated files surface as errors.
pub(crate) struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Self {
        Reader { buf, pos: 0 }
    }

    pub(crate) fn is_at_end(&self) -> bool {
        self.pos == self.buf.len()
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self
            .pos
            .checked_add(n)
            .filter(|&end| end <= self.buf.len())
            .ok_or_else(|| {
                format!(
                    "truncated payload: wanted {n} bytes at offset {}, {} available",
                    self.pos,
                    self.buf.len() - self.pos
                )
            })?;
        let slice = &self.buf[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    pub(crate) fn u8(&mut self) -> Result<u8, String> {
        Ok(self.take(1)?[0])
    }

    pub(crate) fn bool(&mut self) -> Result<bool, String> {
        match self.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            other => Err(format!("invalid bool byte {other}")),
        }
    }

    pub(crate) fn u16(&mut self) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    pub(crate) fn u32(&mut self) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    /// A length prefix, sanity-bounded by the remaining payload so corrupted lengths fail
    /// instead of attempting absurd allocations.
    pub(crate) fn len(&mut self) -> Result<usize, String> {
        let len = self.u32()? as usize;
        if len > self.buf.len() - self.pos {
            return Err(format!(
                "implausible list length {len} with only {} payload bytes left",
                self.buf.len() - self.pos
            ));
        }
        Ok(len)
    }

    pub(crate) fn str(&mut self) -> Result<String, String> {
        let len = self.len()?;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| "invalid UTF-8 in string".to_string())
    }

    pub(crate) fn opt_u64(&mut self) -> Result<Option<u64>, String> {
        match self.u8()? {
            0 => Ok(None),
            1 => Ok(Some(self.u64()?)),
            other => Err(format!("invalid Option tag {other}")),
        }
    }

    /// The current payload offset (bytes consumed so far).
    pub(crate) fn position(&self) -> usize {
        self.pos
    }

    /// The not-yet-consumed tail of the payload — how the snapshot decoder compares an
    /// upcoming section against the encoded span of one it already decoded (equal bytes
    /// decode to equal values, so a byte-identical section can be skipped and its decoded
    /// value cloned instead of re-parsed).
    pub(crate) fn remaining(&self) -> &'a [u8] {
        &self.buf[self.pos..]
    }

    /// A raw little-endian `u32` array of `len` elements, decoded into an owned vector.
    pub(crate) fn u32_slice(&mut self, len: usize) -> Result<Vec<u32>, String> {
        let bytes = self.take(len.checked_mul(4).ok_or("u32 array length overflow")?)?;
        Ok(bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// A raw little-endian `u64` array of `len` elements, decoded into an owned vector.
    pub(crate) fn u64_slice(&mut self, len: usize) -> Result<Vec<u64>, String> {
        let bytes = self.take(len.checked_mul(8).ok_or("u64 array length overflow")?)?;
        Ok(bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect())
    }

    /// Skips `bytes` bytes — how the snapshot decoder walks past a section whose decoded
    /// value it already holds.
    pub(crate) fn skip_raw(&mut self, bytes: usize) -> Result<(), String> {
        self.take(bytes).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_every_primitive() {
        let mut w = Writer::new();
        w.u8(7);
        w.bool(true);
        w.bool(false);
        w.u16(65535);
        w.u32(123_456);
        w.u64(u64::MAX - 1);
        w.len(3);
        w.str("héllo");
        w.opt_u64(None);
        w.opt_u64(Some(42));
        w.u32_slice(&[1, 2, 3]);
        w.u64_slice(&[u64::MAX, 7]);
        let bytes = w.into_bytes().unwrap();

        let mut r = Reader::new(&bytes);
        assert_eq!(r.u8().unwrap(), 7);
        assert!(r.bool().unwrap());
        assert!(!r.bool().unwrap());
        assert_eq!(r.u16().unwrap(), 65535);
        assert_eq!(r.u32().unwrap(), 123_456);
        assert_eq!(r.u64().unwrap(), u64::MAX - 1);
        assert_eq!(r.len().unwrap(), 3);
        assert_eq!(r.str().unwrap(), "héllo");
        assert_eq!(r.opt_u64().unwrap(), None);
        assert_eq!(r.opt_u64().unwrap(), Some(42));
        assert_eq!(r.u32_slice(3).unwrap(), vec![1, 2, 3]);
        assert_eq!(r.u64_slice(2).unwrap(), vec![u64::MAX, 7]);
        assert!(r.is_at_end());
    }

    #[test]
    fn truncation_and_garbage_are_errors_not_panics() {
        let mut r = Reader::new(&[1]);
        assert!(r.u64().is_err());

        let mut r = Reader::new(&[2]);
        assert!(r.bool().is_err());

        // Truncated raw arrays.
        assert!(Reader::new(&[0; 15]).u64_slice(2).is_err());
        assert!(Reader::new(&[]).u32_slice(1).is_err());

        // A length prefix claiming more bytes than remain is rejected up front.
        let mut w = Writer::new();
        w.u32(1000);
        let bytes = w.into_bytes().unwrap();
        let mut r = Reader::new(&bytes);
        assert!(r.len().is_err());

        // Invalid UTF-8 is an error.
        let mut w = Writer::new();
        w.len(2);
        let mut bytes = w.into_bytes().unwrap();
        bytes.extend_from_slice(&[0xff, 0xfe]);
        let mut r = Reader::new(&bytes);
        assert!(r.str().is_err());
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn values_beyond_u32_are_an_error_not_a_panic() {
        let mut w = Writer::new();
        w.len(7);
        w.len(u32::MAX as usize + 1);
        w.len(usize::MAX);
        assert_eq!(w.into_bytes(), Err(u32::MAX as usize + 1));
    }

    /// Byte-chained FNV-1a, 64-bit: the reference that [`fnv64_words`] must equal on inputs
    /// shorter than one lane.
    fn fnv64(bytes: &[u8]) -> u64 {
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for &b in bytes {
            hash ^= u64::from(b);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
        hash
    }

    #[test]
    fn fnv64_matches_known_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_ne!(fnv64(b"workload-a"), fnv64(b"workload-b"));
    }

    #[test]
    fn fnv64_words_is_lane_chained_with_byte_tail() {
        // Empty input: the offset basis, like the byte variant.
        assert_eq!(fnv64_words(b""), 0xcbf2_9ce4_8422_2325);
        // Inputs shorter than a lane degenerate to the byte chain.
        assert_eq!(fnv64_words(b"a"), fnv64(b"a"));
        assert_eq!(fnv64_words(b"edbt"), fnv64(b"edbt"));
        // One full lane: exactly one xor-multiply round over the LE word.
        let lane = u64::from_le_bytes(*b"workload");
        let expected = (0xcbf2_9ce4_8422_2325u64 ^ lane).wrapping_mul(0x0000_0100_0000_01b3);
        assert_eq!(fnv64_words(b"workload"), expected);
        // Lanes + tail differ from the pure byte chain and spot corruption anywhere.
        let payload = b"workload-a with a tail";
        assert_ne!(fnv64_words(payload), fnv64(payload));
        let mut flipped = payload.to_vec();
        flipped[3] ^= 0x10;
        assert_ne!(fnv64_words(payload), fnv64_words(&flipped));
        let mut tail_flipped = payload.to_vec();
        let last = tail_flipped.len() - 1;
        tail_flipped[last] ^= 0x10;
        assert_ne!(fnv64_words(payload), fnv64_words(&tail_flipped));
    }
}
