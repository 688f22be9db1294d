// Seeded violation: a call to a function this file declares
// deprecated.
#[deprecated(note = "call fresh_decide instead")]
pub fn legacy_decide(x: u32) -> u32 {
    x
}

pub fn caller() -> u32 {
    legacy_decide(3)
}
