//! Fixture: a well-formed waiver with nothing to suppress (A002).

#[expect(clippy::panic, reason = "nothing in this function panics")]
pub fn noop() {}
