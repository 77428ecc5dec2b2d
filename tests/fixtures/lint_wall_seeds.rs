// Constructs the workspace lint wall must reject in `core`, `queueing`
// and the bench measurement loop: no panicking call or macro, no bare
// numeric `as` cast, no undocumented public item, and nothing
// `clippy.toml` bans (a NaN-unsafe comparison, a clock, environment or
// thread-identity read, a hash container, a thread or shared mutable
// state). CI's lint job appends this file to a source file of each of
// those crates in turn and expects `cargo clippy -p <crate> --lib -- -D
// warnings` to fail, naming each lint below and reporting every banned
// item. The file belongs to no module tree, so nothing compiles it on its
// own; its seeds use full paths or fn-local `use`, so it appends cleanly.

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

/// A `partial_cmp` pivot: `clippy::disallowed_methods` (NaN-safety).
pub fn seed_partial_cmp(a: f64, b: f64) -> bool {
    a.partial_cmp(&b).unwrap() == std::cmp::Ordering::Less
}

/// The same with its fallback on a later line.
pub fn seed_partial_cmp_split(a: f64, b: f64) -> std::cmp::Ordering {
    a.partial_cmp(&b)
        .unwrap_or(std::cmp::Ordering::Equal)
}

/// A derived `PartialOrd` calls `partial_cmp` on the float.
#[derive(PartialEq, PartialOrd)]
pub struct SeedDerivedOrder(pub f64);

/// Hash-ordered keys: `clippy::disallowed_types` (determinism).
pub fn seed_hash_map_keys(m: &std::collections::HashMap<String, f64>) -> Vec<String> {
    m.keys().cloned().collect()
}

/// A fold over a hash set.
pub fn seed_hash_set_fold(s: &std::collections::HashSet<u32>) -> u32 {
    s.iter().fold(0, |acc, v| acc.wrapping_add(*v))
}

/// A float sum in hash order (float-order).
pub fn seed_hash_float_sum(m: &std::collections::HashMap<String, f64>) -> f64 {
    m.values().sum::<f64>()
}

/// A float fold in hash order.
pub fn seed_hash_float_fold(m: &std::collections::HashMap<String, f64>) -> f64 {
    m.values().fold(0.0, |acc, v| acc + v)
}

/// A per-process random hash seed.
pub fn seed_random_state() -> std::hash::RandomState {
    std::hash::RandomState::new()
}

/// A wall-clock read: `clippy::disallowed_methods` (determinism).
pub fn seed_instant() -> u64 {
    std::time::Instant::now().elapsed().as_secs()
}

/// A renamed clock is the same clock.
pub fn seed_renamed_clock() -> u64 {
    use std::time::Instant as Clock;
    Clock::now().elapsed().as_secs()
}

/// A system-clock read.
pub fn seed_system_time() -> std::time::SystemTime {
    std::time::SystemTime::now()
}

/// A wall-clock read through a stored instant.
pub fn seed_instant_elapsed(start: std::time::Instant) -> std::time::Duration {
    start.elapsed()
}

/// A system-clock read through the epoch.
pub fn seed_system_time_elapsed() -> bool {
    std::time::SystemTime::UNIX_EPOCH.elapsed().is_ok()
}

/// A process-environment read.
pub fn seed_env() -> bool {
    std::env::var("CHAMULTEON_FAST").is_ok()
}

/// Thread-identity dependence.
pub fn seed_thread_identity() -> std::thread::ThreadId {
    std::thread::current().id()
}

/// A lock imported by name: `clippy::disallowed_types` (concurrency).
pub fn seed_mutex() -> u32 {
    use std::sync::Mutex;
    Mutex::new(7).into_inner().unwrap_or(0)
}

/// A lock by its full path.
pub fn seed_rwlock() -> u32 {
    std::sync::RwLock::new(7).into_inner().unwrap_or(0)
}

/// Locks taken per item.
pub fn seed_locks_per_item(slots: &[std::sync::Mutex<u32>]) -> u32 {
    slots.iter().map(|s| s.lock().map(|v| *v).unwrap_or(0)).sum()
}

/// A condition variable.
pub fn seed_condvar() -> std::sync::Condvar {
    std::sync::Condvar::new()
}

/// An atomic cursor.
pub fn seed_atomic() -> usize {
    std::sync::atomic::AtomicUsize::new(0).into_inner()
}

/// A lazily initialised global.
pub fn seed_once_lock() -> Option<u32> {
    std::sync::OnceLock::<u32>::new().get().copied()
}

/// A spawned thread: `clippy::disallowed_methods` (concurrency).
pub fn seed_spawn() -> u32 {
    std::thread::spawn(|| 2 + 2).join().unwrap_or(0)
}

/// Scoped worker threads.
pub fn seed_scope() {
    std::thread::scope(|_| {});
}

/// A channel between threads.
pub fn seed_channel() -> bool {
    std::sync::mpsc::channel::<u32>().0.send(1).is_ok()
}
