// Constructs the workspace lint wall must reject in `core`, `queueing`
// and the bench measurement loop: no panicking call or macro, no bare
// numeric `as` cast, no undocumented public item. CI's lint job appends
// this file to a source file of each of those crates in turn and expects
// `cargo clippy -p <crate> --lib -- -D warnings` to fail, naming each lint
// below. The file belongs to no module tree, so nothing compiles it on
// its own.

/// Rejected by `clippy::unwrap_used`.
pub fn seed_unwrap(x: Option<u32>) -> u32 {
    x.unwrap()
}

/// Rejected by `clippy::expect_used`.
pub fn seed_expect(x: Option<u32>) -> u32 {
    x.expect("seeded")
}

/// Rejected by `clippy::panic`.
pub fn seed_panic() {
    panic!("seeded");
}

/// Rejected by `clippy::unreachable`.
pub fn seed_unreachable() {
    unreachable!("seeded");
}

/// Rejected by `clippy::todo`.
pub fn seed_todo() {
    todo!();
}

/// Rejected by `clippy::unimplemented`.
pub fn seed_unimplemented() {
    unimplemented!();
}

/// `f64 as u32`: `clippy::as_conversions`, `cast_possible_truncation`
/// and `cast_sign_loss`.
pub fn seed_f64_as_u32(x: f64) -> u32 {
    x as u32
}

/// A cast split across lines: the same three lints.
pub fn seed_split_cast(x: f64) -> u64 {
    (x * 2.0) as
        u64
}

/// `u32 as f64`: `clippy::as_conversions`.
pub fn seed_u32_as_f64(x: u32) -> f64 {
    x as f64
}

/// `usize as u64`: `clippy::as_conversions`.
pub fn seed_usize_as_u64(x: usize) -> u64 {
    x as u64
}

/// `u32 as i32`: `clippy::as_conversions`.
pub fn seed_u32_as_i32(x: u32) -> i32 {
    x as i32
}

/// `u64 as f64`: `clippy::as_conversions`.
pub fn seed_u64_as_f64(x: u64) -> f64 {
    x as f64
}

// An undocumented public function: `missing_docs`.
pub fn seed_undocumented() {}

/// A private type whose public method has no documentation:
/// `unreachable_pub`.
struct SeedPrivate;

impl SeedPrivate {
    pub fn seed_undocumented_method(&self) {}
}
