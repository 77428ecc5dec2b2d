//! Reproduces the paper's §I motivation and §V-A observation: deploying
//! an independent single-service auto-scaler per service causes
//! **bottleneck shifting** — each tier only scales after its predecessor
//! stopped throttling the traffic, so a load step ripples tier by tier —
//! while Chamulteon scales all tiers in the same decision round.
//!
//! Prints the load-step section of the paper's evaluation, the text
//! `chamulteon-exp paper` writes to `experiments/bottleneck_shifting.txt`.
//!
//! Run with: `cargo run --release --example bottleneck_shifting`

use chamulteon_repro::bench::{default_threads, paper};

fn main() {
    print!("{}", paper::load_step(default_threads()));
}
