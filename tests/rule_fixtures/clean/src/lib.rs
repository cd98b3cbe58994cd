//! Fixture: a file that passes every rule. Each hazard carries a scoped
//! `#[expect(lint, reason = "...")]`, is guarded the way the rules
//! require, or is confined to test code.

use std::time::Instant;

#[expect(clippy::disallowed_types, reason = "order never reaches output")]
pub fn lookup(keys: &[&'static str]) -> std::collections::HashMap<&'static str, usize> {
    keys.iter().enumerate().map(|(i, &k)| (k, i)).collect()
}

#[expect(clippy::disallowed_methods, reason = "a deliberate raw clock read")]
pub fn stamp() -> Instant {
    Instant::now()
}

#[expect(clippy::disallowed_methods, reason = "guarded by the debug_assert!")]
pub fn first_byte(bytes: &[u8]) -> u8 {
    debug_assert!(!bytes.is_empty());
    // SAFETY: callers guarantee `bytes` is nonempty (DESIGN.md §17).
    unsafe { *bytes.get_unchecked(0) }
}

#[expect(clippy::panic, reason = "a documented contract panic")]
pub fn checked(ok: bool) {
    if !ok {
        panic!("contract violated");
    }
}

#[expect(clippy::unreachable, reason = "callers normalize n to zero first")]
pub fn explained(n: u8) -> bool {
    match n {
        0 => false,
        _ => unreachable!("callers normalize n to zero first"),
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests may read the clock")]
mod tests {
    #[test]
    fn test_code_may_panic_freely() {
        let started = std::time::Instant::now();
        assert!(started.elapsed().as_secs() < 60);
        panic!("test code may panic");
    }
}
