//! The workspace's one FNV-1a implementation: record and file checksums
//! here, and every structural content key upstream (trace requests,
//! workload models, machine configurations, cells, run configurations).
//!
//! [`Fnv64`] is a minimal FNV-1a accumulator. Raw bytes go in through
//! [`Fnv64::write_bytes`]; structured keys feed the *bit patterns* of
//! their fields — `f64`s through [`f64::to_bits`], integers as
//! little-endian words — so two values hash equally exactly when their
//! fields are bitwise equal, with no intermediate `String` rendering and
//! no allocation. Collisions are always resolved by a full `PartialEq`
//! comparison at the lookup site, so a key only needs to spread well.

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// An incremental FNV-1a (64-bit) hasher.
///
/// # Examples
///
/// ```
/// use pipedepth_store::{fnv1a, Fnv64};
///
/// let mut a = Fnv64::new();
/// a.write_u64(7).write_f64(1.5);
/// let mut b = Fnv64::new();
/// b.write_u64(7).write_f64(1.5);
/// assert_eq!(a.finish(), b.finish());
/// b.write_bool(true);
/// assert_ne!(a.finish(), b.finish());
/// // Words are fed as their little-endian bytes.
/// assert_eq!(Fnv64::new().write_u64(7).finish(), fnv1a(&7u64.to_le_bytes()));
/// ```
#[derive(Debug, Clone)]
pub struct Fnv64 {
    state: u64,
}

impl Fnv64 {
    /// A fresh hasher at the FNV-1a offset basis.
    #[inline]
    pub fn new() -> Self {
        Fnv64 { state: FNV_OFFSET }
    }

    /// Feeds a byte slice.
    #[inline]
    pub fn write_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        for &byte in bytes {
            self.state ^= u64::from(byte);
            self.state = self.state.wrapping_mul(FNV_PRIME);
        }
        self
    }

    /// Feeds one 64-bit word as its little-endian bytes.
    #[inline]
    pub fn write_u64(&mut self, v: u64) -> &mut Self {
        self.write_bytes(&v.to_le_bytes())
    }

    /// Feeds a 32-bit word, widened to 64 bits.
    #[inline]
    pub fn write_u32(&mut self, v: u32) -> &mut Self {
        self.write_u64(u64::from(v))
    }

    /// Feeds a boolean as a full word (keeps adjacent fields unambiguous).
    #[inline]
    pub fn write_bool(&mut self, v: bool) -> &mut Self {
        self.write_u64(u64::from(v))
    }

    /// Feeds an `f64` through its IEEE-754 bit pattern. Note that `-0.0`
    /// and `0.0` hash differently; callers relying on `PartialEq`
    /// collision resolution (which treats them as equal) merely get two
    /// cache entries, never a wrong answer.
    #[inline]
    pub fn write_f64(&mut self, v: f64) -> &mut Self {
        self.write_u64(v.to_bits())
    }

    /// The current hash value.
    #[inline]
    pub fn finish(&self) -> u64 {
        self.state
    }
}

impl Default for Fnv64 {
    fn default() -> Self {
        Fnv64::new()
    }
}

/// FNV-1a 64-bit hash of a byte slice — the integrity checksum used for
/// every record payload and for the whole file image.
#[inline]
pub fn fnv1a(bytes: &[u8]) -> u64 {
    Fnv64::new().write_bytes(bytes).finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_and_order_sensitive() {
        let mut a = Fnv64::new();
        a.write_u64(1).write_u64(2);
        let mut b = Fnv64::new();
        b.write_u64(2).write_u64(1);
        assert_ne!(a.finish(), b.finish(), "field order must matter");
    }

    #[test]
    fn f64_uses_bit_pattern() {
        let mut a = Fnv64::new();
        a.write_f64(1.0);
        let mut b = Fnv64::new();
        b.write_f64(1.0 + f64::EPSILON);
        assert_ne!(a.finish(), b.finish());
    }

    #[test]
    fn bool_and_u32_spread() {
        let mut t = Fnv64::new();
        t.write_bool(true);
        let mut f = Fnv64::new();
        f.write_bool(false);
        assert_ne!(t.finish(), f.finish());
        let mut x = Fnv64::new();
        x.write_u32(5);
        let mut y = Fnv64::new();
        y.write_u64(5);
        assert_eq!(x.finish(), y.finish(), "u32 widens to u64");
    }

    #[test]
    fn empty_hash_is_offset_basis() {
        assert_eq!(Fnv64::new().finish(), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn byte_writes_compose() {
        let mut split = Fnv64::new();
        split.write_bytes(b"foo").write_bytes(b"bar");
        assert_eq!(split.finish(), fnv1a(b"foobar"));
    }
}
