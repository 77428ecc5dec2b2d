//! The analytic M/M/n fluid approximation behind the hybrid regime.
//!
//! A fluid station replaces per-request events with a single mass value
//! `x` — the mean number of requests in the system — advanced by the
//! M/M/n mean-drift ODE:
//!
//! * saturated (`x ≥ n`):   `dx/dt = λ − n·μ` (linear),
//! * unsaturated (`x < n`): `dx/dt = λ − μ·x`, whose solution is
//!   `x(t) = λ/μ + (x₀ − λ/μ)·e^(−μt)`.
//!
//! [`advance`] integrates this *piecewise exactly*: it finds the branch
//! crossing analytically and chains the closed forms, so the step size
//! never affects accuracy — a 60 s monitoring interval is one step, not
//! sixty Euler steps. Completed mass falls out of conservation
//! (`out = λ·dt − Δx`) and the busy-server integral `∫min(x, n)dt` comes
//! from the same closed forms, which is what the utilization statistics
//! are built from.
//!
//! [`SojournLaw`] synthesizes per-request response times from the
//! analytic stationary law: with probability Erlang-C(n, a) the request
//! waits an `Exp(nμ − λ)` time, otherwise zero, plus an `Exp(μ)` service
//! time. Above saturation, where no stationary law exists, the wait is
//! the deterministic backlog drain time `(x − n)/(n·μ)`. Where a
//! closed-form bound certifies that Erlang-C lies below the sampler's
//! draw grid, the law skips the O(n) recurrence (see [`SojournLaw`]).

use chamulteon_queueing::erlang::erlang_c;
use rand::rngs::StdRng;
use rand::Rng;

/// Waiting time reported when a station has zero capacity (no servers at
/// all): effectively "never", but finite so downstream accounting stays
/// NaN-free.
const STARVED_WAIT: f64 = 1.0e6;

/// One integrated fluid step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct FluidStep {
    /// Mass in the system at the end of the step.
    pub x_end: f64,
    /// Mass that completed service during the step (`λ·dt − Δx`, ≥ 0).
    pub completed: f64,
    /// `∫ min(x, n) dt` over the step — busy-server seconds.
    pub busy_integral: f64,
}

/// Advances the M/M/n mean-drift ODE by `dt` seconds under constant
/// arrival rate `lambda`, `servers` servers and per-server rate `mu`,
/// chaining the closed forms of the two branches across the `x = n`
/// crossing. Degenerate inputs (non-finite or non-positive `dt`/`mu`)
/// return a zero step.
pub(crate) fn advance(x0: f64, lambda: f64, servers: u32, mu: f64, dt: f64) -> FluidStep {
    let mut x = x0.max(0.0);
    if !(dt > 0.0) || !dt.is_finite() || !(mu > 0.0) || !mu.is_finite() {
        return FluidStep {
            x_end: x,
            completed: 0.0,
            busy_integral: 0.0,
        };
    }
    let lambda = lambda.max(0.0);
    let n = f64::from(servers);
    let mut remaining = dt;
    let mut busy_integral = 0.0;
    // At most one branch crossing per direction; 4 bounds float jitter.
    for _ in 0..4 {
        if !(remaining > 0.0) {
            break;
        }
        if servers == 0 {
            // No capacity: pure accumulation.
            x += lambda * remaining;
            break;
        }
        if x >= n {
            // Saturated: linear drift, all n servers busy.
            let slope = lambda - n * mu;
            if slope >= 0.0 {
                busy_integral += n * remaining;
                x += slope * remaining;
                remaining = 0.0;
            } else {
                let t_cross = (x - n) / -slope;
                if t_cross >= remaining {
                    busy_integral += n * remaining;
                    x += slope * remaining;
                    remaining = 0.0;
                } else {
                    busy_integral += n * t_cross;
                    remaining -= t_cross;
                    // Nudge below n so the next iteration takes the
                    // unsaturated branch.
                    x = n - f64::EPSILON * n.max(1.0);
                }
            }
        } else {
            // Unsaturated: exponential relaxation toward λ/μ.
            let x_inf = lambda / mu;
            if x_inf <= n {
                let decay = (-mu * remaining).exp();
                let x1 = x_inf + (x - x_inf) * decay;
                busy_integral += x_inf * remaining + (x - x_inf) * (1.0 - decay) / mu;
                x = x1;
                remaining = 0.0;
            } else {
                // Rising past n: find the crossing time analytically.
                let ratio = (n - x_inf) / (x - x_inf);
                let t_cross = if ratio > 0.0 && ratio < 1.0 {
                    -ratio.ln() / mu
                } else {
                    0.0
                };
                if t_cross >= remaining {
                    let decay = (-mu * remaining).exp();
                    busy_integral += x_inf * remaining + (x - x_inf) * (1.0 - decay) / mu;
                    x = x_inf + (x - x_inf) * decay;
                    remaining = 0.0;
                } else {
                    let decay = (-mu * t_cross).exp();
                    busy_integral += x_inf * t_cross + (x - x_inf) * (1.0 - decay) / mu;
                    x = n;
                    remaining -= t_cross;
                }
            }
        }
    }
    let completed = (lambda * dt - (x - x0.max(0.0))).max(0.0);
    FluidStep {
        x_end: x,
        completed,
        busy_integral,
    }
}

/// Spacing of the grid `rng.gen::<f64>()` draws from: every uniform draw
/// is a multiple of 2⁻⁵³ in `[0, 1)`.
const DRAW_GRID: f64 = f64::EPSILON / 2.0;

/// Log of the Erlang-B bound that certifies a negligible wait:
/// `ln 2⁻⁶³ ≈ −43.67`, less a margin for rounding in the closed form
/// [`wait_is_negligible`] evaluates. Under the stable-region guard
/// `a < 0.999·n`, `C = n·B/(n − a(1 − B)) < n·B/(0.001·n) = 1000·B <
/// 1024·B`, so `B < 2⁻⁶³` gives `C < 2⁻⁵³`.
const LN_NEGLIGIBLE_BLOCKING: f64 = -44.0;

/// The precomputed stationary law of a fluid M/M/n station: everything
/// about the sojourn distribution that does not depend on the RNG or the
/// instantaneous mass. Callers that synthesize many sojourns under the
/// same `(λ, n, μ)` build the law once and
/// [`sample`](SojournLaw::sample) from it; sampling is O(1).
///
/// Building a stable law first tries to certify, in O(1), that the
/// Erlang-C waiting probability `c` is below [`DRAW_GRID`] (2⁻⁵³). Run
/// the Erlang-B step `b ← a·b/(k + a·b)` from `b = 1` at `k = ⌈a⌉`: the
/// step increases with `b`, so this `b` bounds `B(k, a)` from above, and
/// it is at most `(a/k)·b`. Hence the product bound
/// `B(n, a) ≤ ∏_{k=⌈a⌉}^{n} a/k = a^(n−⌈a⌉+1)·Γ(⌈a⌉)/Γ(n+1)`. Binet's
/// bound `lnΓ(x) = (x − ½)·ln x − x + ½·ln 2π + θ/(12x)`, `0 < θ < 1`,
/// bounds the log of that product from above in three `ln` calls
/// ([`wait_is_negligible`]). Once it is below −44
/// ([`LN_NEGLIGIBLE_BLOCKING`]: `ln 2⁻⁶³` less a rounding margin), the
/// guard `a < 0.999·n` bounds `c < 1000·B(n, a) < 2⁻⁵³`. A certified law
/// is [`NegligibleWait`](SojournLaw::NegligibleWait): since every uniform
/// draw is a multiple of 2⁻⁵³, only the draw `u = 0` can fall below `c`,
/// and on that draw alone the law evaluates the exact Erlang-C. The
/// product's log is about `−(n − a)²/(2a)`, so a law that is not
/// certified has a load within about 9.4·√a of n; it still runs the
/// O(n) Erlang-C recurrence, which is why the engine memoizes laws.
///
/// Each variant burns exactly the draws the corresponding branch of the
/// original inline sampler burned, so the synthesis RNG stream stays
/// bit-identical regardless of which branch a sample takes, and a
/// `NegligibleWait` law samples exactly the stream of the `Stationary`
/// law with the exact `c`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) enum SojournLaw {
    /// Per-server rate was non-finite or non-positive: no draws, the
    /// starved sentinel wait.
    Starved,
    /// Zero servers: one burnt draw, the starved sentinel wait.
    NoServers,
    /// Stable stationary law: wait `Exp(n·μ − λ)` with probability
    /// Erlang-C `c`, else zero, plus an `Exp(μ)` service time.
    Stationary {
        /// Per-server service rate μ.
        mu: f64,
        /// Erlang-C waiting probability.
        c: f64,
        /// Conditional-wait drain rate `n·μ − λ`.
        drain: f64,
    },
    /// Stable stationary law whose Erlang-C probability is certified below
    /// 2⁻⁵³: samples as `Stationary`, evaluating `c` only on a zero draw.
    NegligibleWait {
        /// Per-server service rate μ.
        mu: f64,
        /// Conditional-wait drain rate `n·μ − λ`.
        drain: f64,
        /// Server count n.
        servers: u32,
        /// Offered load `a = λ/μ`, in Erlangs.
        a: f64,
    },
    /// Saturated (or Erlang-C rejected the inputs): the wait is the
    /// deterministic backlog drain time `(x − n)/(n·μ)`.
    Saturated {
        /// Per-server service rate μ.
        mu: f64,
        /// Server count n.
        n: f64,
    },
}

impl SojournLaw {
    /// Builds the law for arrival rate `lambda`, `servers` servers and
    /// per-server rate `mu`. O(1) when the wait is certified negligible,
    /// else the expensive step: an O(n) Erlang-C recurrence.
    pub(crate) fn new(lambda: f64, servers: u32, mu: f64) -> Self {
        if !(mu > 0.0) || !mu.is_finite() {
            return SojournLaw::Starved;
        }
        if servers == 0 {
            return SojournLaw::NoServers;
        }
        let n = f64::from(servers);
        let lambda = lambda.max(0.0);
        let a = lambda / mu;
        // Stable region with a small guard band: use the stationary law.
        if a < n * 0.999 {
            let drain = n * mu - lambda;
            if wait_is_negligible(n, a) {
                return SojournLaw::NegligibleWait {
                    mu,
                    drain,
                    servers,
                    a,
                };
            }
            if let Ok(c) = erlang_c(servers, a) {
                return SojournLaw::Stationary { mu, c, drain };
            }
        }
        SojournLaw::Saturated { mu, n }
    }

    /// Whether a request whose uniform wait draw is `u` waits: `u < c`.
    /// A `NegligibleWait` law knows `c < 2⁻⁵³`, so it answers `false` for
    /// every `u` at or above 2⁻⁵³ without evaluating `c`; on the draw grid
    /// that leaves only `u = 0`. Laws without a stationary wait never
    /// wait.
    fn waits(&self, u: f64) -> bool {
        match *self {
            SojournLaw::Stationary { c, .. } => u < c,
            // `new` builds this variant only for a stable `a < n`, where
            // Erlang-C cannot fail.
            SojournLaw::NegligibleWait { servers, a, .. } => {
                u < DRAW_GRID && erlang_c(servers, a).is_ok_and(|c| u < c)
            }
            SojournLaw::Starved | SojournLaw::NoServers | SojournLaw::Saturated { .. } => false,
        }
    }

    /// Draws one analytic sojourn (wait + service); `x` is the current
    /// mass, used for the backlog drain time above saturation.
    /// Deterministic in the RNG state.
    pub(crate) fn sample(&self, x: f64, rng: &mut StdRng) -> f64 {
        match *self {
            SojournLaw::Starved => STARVED_WAIT,
            SojournLaw::NoServers => {
                // Burn one draw so the stream stays aligned across
                // branches.
                let _: f64 = rng.gen();
                STARVED_WAIT
            }
            SojournLaw::Stationary { mu, drain, .. }
            | SojournLaw::NegligibleWait { mu, drain, .. } => {
                let service = exp_draw(rng, 1.0 / mu);
                let u: f64 = rng.gen();
                let wait = if self.waits(u) {
                    exp_draw(rng, 1.0 / drain)
                } else {
                    // Burn the draw the waiting branch would have used.
                    let _: f64 = rng.gen();
                    0.0
                };
                wait + service
            }
            SojournLaw::Saturated { mu, n } => {
                let service = exp_draw(rng, 1.0 / mu);
                let backlog = (x - n).max(0.0);
                let _: f64 = rng.gen();
                let _: f64 = rng.gen();
                backlog / (n * mu) + service
            }
        }
    }
}

/// Whether Erlang-C(n, a) is certified below 2⁻⁵³ for a stable load
/// `a < 0.999·n`, by the product bound [`SojournLaw`] describes: with
/// `k = max(⌈a⌉, 1)`, `ln ∏ a/k = (n − k + 1)·ln a + lnΓ(k) − lnΓ(n + 1)`,
/// taking Binet's upper bound for `lnΓ(k)` and its lower bound (θ = 0)
/// for `lnΓ(n + 1)`; their `½·ln 2π` terms cancel. `a = 0` gives
/// `ln a = −∞`, a certificate, and indeed `B(n, 0) = 0`. The terms reach
/// about 10¹¹ at `n = 2³²`, whose rounding moves the sum by far less than
/// the 0.33 margin in [`LN_NEGLIGIBLE_BLOCKING`]. O(1).
fn wait_is_negligible(n: f64, a: f64) -> bool {
    let k = a.ceil().max(1.0);
    if k > n {
        return false;
    }
    let ln_bound = (n - k + 1.0) * a.ln() + (k - 0.5) * k.ln() - k + 1.0 / (12.0 * k)
        - (n + 0.5) * (n + 1.0).ln()
        + (n + 1.0);
    ln_bound < LN_NEGLIGIBLE_BLOCKING
}

/// Draws one analytic sojourn (wait + service) at a fluid M/M/n station
/// with arrival rate `lambda`, `servers` servers, per-server rate `mu`
/// and current mass `x` (used for the backlog drain time above
/// saturation). Deterministic in the RNG state. One-shot convenience
/// over [`SojournLaw`] — pays the Erlang-C cost on every call, so hot
/// paths cache the law instead.
#[cfg(test)]
pub(crate) fn sample_sojourn(lambda: f64, servers: u32, mu: f64, x: f64, rng: &mut StdRng) -> f64 {
    SojournLaw::new(lambda, servers, mu).sample(x, rng)
}

/// One exponential draw with the given mean, via inverse transform
/// (`1 − U ∈ (0, 1]` avoids `ln(0)`).
fn exp_draw(rng: &mut StdRng, mean: f64) -> f64 {
    let u: f64 = rng.gen();
    -(1.0 - u).ln() * mean
}

/// Carry-rounding accumulator turning a stream of fractional amounts into
/// a stream of integer counts whose running sum never drifts from the
/// running sum of the inputs by more than one.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub(crate) struct Carry(f64);

impl Carry {
    /// Adds `amount` (clamped to ≥ 0, NaN treated as 0) and returns the
    /// whole units accumulated so far, keeping the fractional remainder.
    #[allow(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "the carry is finite and non-negative, and its whole part saturates at `u64::MAX` \
                  before the cast"
    )]
    pub(crate) fn take(&mut self, amount: f64) -> u64 {
        let amount = if amount.is_finite() {
            amount.max(0.0)
        } else {
            0.0
        };
        self.0 += amount;
        let whole = self.0.floor();
        self.0 -= whole;
        if whole >= 1.8446744073709552e19 {
            u64::MAX
        } else {
            whole as u64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    #[test]
    fn conservation_of_mass() {
        // out = λ·dt − Δx exactly, whatever the branch structure.
        for &(x0, lambda, n, mu, dt) in &[
            (0.0, 50.0, 10u32, 10.0, 60.0),
            (25.0, 50.0, 10, 10.0, 60.0),
            (5.0, 500.0, 10, 10.0, 2.0),
            (100.0, 1.0, 10, 10.0, 30.0),
            (0.0, 0.0, 3, 5.0, 10.0),
        ] {
            let step = advance(x0, lambda, n, mu, dt);
            let balance = lambda * dt - (step.x_end - x0);
            assert!(
                (step.completed - balance).abs() < 1e-6,
                "x0={x0} λ={lambda} n={n}: completed {} vs balance {balance}",
                step.completed
            );
            assert!(step.busy_integral >= -1e-9);
            assert!(step.busy_integral <= f64::from(n) * dt + 1e-6);
        }
    }

    #[test]
    fn relaxes_to_the_stationary_mean() {
        // Stable M/M/n drift settles at x = λ/μ.
        let step = advance(0.0, 40.0, 10, 8.0, 1000.0);
        assert!((step.x_end - 5.0).abs() < 1e-9, "x_end {}", step.x_end);
    }

    #[test]
    fn saturated_queue_grows_linearly() {
        // λ = 100, capacity n·μ = 50: backlog grows at 50/s.
        let step = advance(10.0, 100.0, 10, 5.0, 10.0);
        assert!((step.x_end - 510.0).abs() < 1e-9, "x_end {}", step.x_end);
        assert!((step.busy_integral - 100.0).abs() < 1e-9);
        assert!((step.completed - 500.0).abs() < 1e-6);
    }

    #[test]
    fn drains_across_the_branch_crossing() {
        // Start saturated with λ = 0: drains at n·μ until x = n, then
        // exponentially. Mass must keep falling and stay non-negative.
        let step = advance(50.0, 0.0, 10, 2.0, 100.0);
        assert!(
            step.x_end >= 0.0 && step.x_end < 1e-3,
            "x_end {}",
            step.x_end
        );
        assert!((step.completed - (50.0 - step.x_end)).abs() < 1e-6);
    }

    #[test]
    fn degenerate_inputs_are_inert() {
        let step = advance(3.0, 10.0, 2, 0.0, 60.0);
        assert_eq!(step.x_end, 3.0);
        assert_eq!(step.completed, 0.0);
        let step = advance(3.0, 10.0, 2, 5.0, f64::NAN);
        assert_eq!(step.x_end, 3.0);
        let step = advance(-7.0, 0.0, 2, 5.0, 1.0);
        assert!(step.x_end >= 0.0, "negative mass clamped");
    }

    #[test]
    fn zero_servers_accumulate() {
        let step = advance(0.0, 10.0, 0, 5.0, 3.0);
        assert!((step.x_end - 30.0).abs() < 1e-9);
        assert_eq!(step.busy_integral, 0.0);
    }

    #[test]
    fn sojourn_sampling_matches_the_analytic_mean() {
        use chamulteon_queueing::MmnQueue;
        let (lambda, demand, servers) = (50.0, 0.1, 7u32);
        let mu = 1.0 / demand;
        let analytic = MmnQueue::new(lambda, demand, servers)
            .unwrap()
            .mean_response_time()
            .unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let samples = 200_000;
        let mean: f64 = (0..samples)
            .map(|_| sample_sojourn(lambda, servers, mu, 5.0, &mut rng))
            .sum::<f64>()
            / f64::from(samples);
        assert!(
            (mean - analytic).abs() < 0.01 * analytic.max(0.01),
            "sampled {mean} vs analytic {analytic}"
        );
    }

    #[test]
    fn saturated_sojourn_uses_the_backlog() {
        // n·μ = 10, backlog = 90 above n: drain time 9 s dominates.
        let mut rng = StdRng::seed_from_u64(1);
        let s = sample_sojourn(100.0, 5, 2.0, 95.0, &mut rng);
        assert!(s >= 9.0, "sojourn {s}");
        // Zero capacity reports the starved sentinel.
        let s = sample_sojourn(10.0, 0, 2.0, 5.0, &mut rng);
        assert!(s >= STARVED_WAIT);
    }

    /// The Erlang-B walk the closed form replaced, kept as its oracle:
    /// from `b = 1` at `k = ⌈a⌉`, one step per server until `b < 2⁻⁶³`
    /// (a certificate) or `k > n` (none).
    fn walk_certifies(n: f64, a: f64) -> bool {
        let mut b = 1.0_f64;
        let mut k = a.ceil().max(1.0);
        while k <= n {
            b = a * b / (k + a * b);
            if b < DRAW_GRID / 1024.0 {
                return true;
            }
            k += 1.0;
        }
        false
    }

    #[test]
    fn the_closed_form_certifies_only_what_the_walk_certifies() {
        // The bound's slack hides a threshold above ln 2⁻⁶³ from the
        // walk, so the margin is pinned on its own.
        assert!(LN_NEGLIGIBLE_BLOCKING < (DRAW_GRID / 1024.0).ln());
        // The octave grid of `certified_waits_are_below_the_draw_grid`.
        let mut rng = StdRng::seed_from_u64(12);
        let (mut walked, mut missed) = (0u32, 0u32);
        for _ in 0..20_000 {
            let octave = 1u32 << rng.gen_range(0..18);
            let n = (octave + rng.gen_range(0..octave)).min(200_000);
            let a = f64::from(n) * rng.gen_range(0.0..0.999);
            let closed = wait_is_negligible(f64::from(n), a);
            if !walk_certifies(f64::from(n), a) {
                assert!(
                    !closed,
                    "n={n} a={a}: the walk rejects what the bound certifies"
                );
                continue;
            }
            walked += 1;
            missed += u32::from(!closed);
        }
        // The bound's slack may send at most 2 % of the walk's
        // certificates to the exact path.
        assert!(
            walked > 5_000 && missed * 50 <= walked,
            "{missed} of {walked} walk certificates missed"
        );
    }

    #[test]
    fn the_headline_day_never_falls_back_to_the_exact_path() {
        // The stations of the des-scale headline day (`headline_case`),
        // sized for ρ = 0.7 at its 10⁶ req/s peak, over every rate up to
        // the peak.
        for (demand, n) in [(0.059, 84_286u32), (0.1, 142_858), (0.04, 57_143)] {
            for step in 0..=10_000u32 {
                let lambda = f64::from(step) * 100.0;
                let law = SojournLaw::new(lambda, n, 1.0 / demand);
                assert!(
                    matches!(law, SojournLaw::NegligibleWait { .. }),
                    "demand {demand} s, λ = {lambda}: {law:?}"
                );
            }
        }
    }

    #[test]
    fn certified_waits_are_below_the_draw_grid() {
        // n ≤ 2×10⁵, spread over octaves so that small stations count too,
        // and a/n ∈ [0, 0.999).
        let mut rng = StdRng::seed_from_u64(11);
        let (mut positive, mut zero, mut uncertified) = (0, 0, 0);
        for _ in 0..2_000 {
            let octave = 1u32 << rng.gen_range(0..18);
            let n = (octave + rng.gen_range(0..octave)).min(200_000);
            let a = f64::from(n) * rng.gen_range(0.0..0.999);
            if !wait_is_negligible(f64::from(n), a) {
                uncertified += 1;
                continue;
            }
            let c = erlang_c(n, a).unwrap();
            assert!(c < DRAW_GRID, "n={n} a={a}: certified but c = {c:e}");
            if c > 0.0 {
                positive += 1;
            } else {
                zero += 1;
            }
        }
        // The grid reaches every outcome: no certificate, and certified
        // waits that end on a positive c and on c = 0.
        assert!(
            positive > 100 && zero > 100 && uncertified > 100,
            "{positive} positive, {zero} zero, {uncertified} uncertified"
        );
    }

    #[test]
    fn a_zero_draw_waits_exactly_when_erlang_c_is_positive() {
        // Production-scale stations whose certified wait ends on a
        // positive subnormal c and on c = 0: the zero draw must follow
        // the exact value either way.
        for (a, positive) in [(100_000.0, true), (30_000.0, false)] {
            let n = 142_858;
            let law = SojournLaw::new(a, n, 1.0);
            let certified = SojournLaw::NegligibleWait {
                mu: 1.0,
                drain: f64::from(n) - a,
                servers: n,
                a,
            };
            assert_eq!(law, certified);
            let c = erlang_c(n, a).unwrap();
            assert_eq!(c > 0.0, positive, "a={a}: c = {c:e}");
            assert_eq!(law.waits(0.0), 0.0 < c, "a={a}");
            assert!(!law.waits(DRAW_GRID), "a={a}");
        }
    }

    #[test]
    fn a_certified_law_samples_the_exact_stationary_stream() {
        let mut cases = StdRng::seed_from_u64(5);
        let mut certified = 0;
        for i in 0..24 {
            // Every fourth station at production scale.
            let n: u32 = if i % 4 == 0 {
                cases.gen_range(100_000..=142_858)
            } else {
                cases.gen_range(1..5_000)
            };
            let mu = cases.gen_range(1.0..30.0);
            let lambda = f64::from(n) * mu * cases.gen_range(0.0..0.999);
            let x = cases.gen_range(0.0..f64::from(n));
            let law = SojournLaw::new(lambda, n, mu);
            if !matches!(law, SojournLaw::NegligibleWait { .. }) {
                continue;
            }
            certified += 1;
            let exact = SojournLaw::Stationary {
                mu,
                c: erlang_c(n, lambda / mu).unwrap(),
                drain: f64::from(n) * mu - lambda,
            };
            let (mut r1, mut r2) = (StdRng::seed_from_u64(i), StdRng::seed_from_u64(i));
            for _ in 0..2_000 {
                let (s1, s2) = (law.sample(x, &mut r1), exact.sample(x, &mut r2));
                assert_eq!(s1.to_bits(), s2.to_bits(), "n={n} λ={lambda} μ={mu}");
            }
            assert_eq!(r1.gen::<u64>(), r2.gen::<u64>(), "streams drifted apart");
        }
        assert!(certified >= 8, "only {certified} certified cases");
    }

    #[test]
    fn carry_rounding_never_drifts() {
        let mut carry = Carry::default();
        let mut total_int = 0u64;
        let mut total_f = 0.0;
        for i in 0..10_000 {
            let amount = 0.37 + f64::from(i % 7) * 0.11;
            total_f += amount;
            total_int += carry.take(amount);
        }
        assert!((total_f - total_int as f64).abs() <= 1.0 + 1e-6);
        // NaN and negative amounts are inert.
        let before = carry;
        assert_eq!(carry.take(f64::NAN), 0);
        assert_eq!(carry.take(-5.0), 0);
        assert_eq!(carry, before);
    }
}
