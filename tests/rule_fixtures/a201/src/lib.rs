//! Fixture: an `unsafe` block with no adjacent SAFETY comment (A201).

pub fn as_text(bytes: &[u8]) -> &str {
    unsafe { std::str::from_utf8_unchecked(bytes) }
}
