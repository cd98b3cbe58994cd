//! Fixture: a lint waiver without a reason (A001).

#[expect(dead_code)]
fn unused() {}
