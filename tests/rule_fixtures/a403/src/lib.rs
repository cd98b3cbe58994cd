//! Fixture: `unreachable!` in a library path (A403).

pub fn pick(n: u8) -> u8 {
    match n {
        0 => 1,
        1 => 0,
        _ => unreachable!(),
    }
}
