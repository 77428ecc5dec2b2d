//! Scaling decisions and the conflict resolution of §III-C.

/// Which cycle produced a decision, and — for proactive decisions — which
/// forecast generation it came from and whether that forecast was deemed
/// trustable.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DecisionOrigin {
    /// Produced by the reactive cycle from measured data.
    Reactive,
    /// Produced by the proactive cycle from a forecast.
    Proactive {
        /// Monotonically increasing forecast counter; newer forecasts
        /// supersede older ones for the same period (time resolution).
        generation: u64,
        /// Whether the underlying forecast's accuracy was at or below the
        /// trust threshold (scope resolution).
        trusted: bool,
    },
}

/// A scaling decision: a target instance count for one service, valid for
/// a time window. "Each decision for a service has a valid period in which
/// no other decision is executed" (§III-C1).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScalingDecision {
    /// The service the decision applies to.
    pub service: usize,
    /// The target instance count.
    pub target: u32,
    /// Start of the validity window, seconds.
    pub start: f64,
    /// End of the validity window, seconds (exclusive).
    pub end: f64,
    /// Which cycle produced it.
    pub origin: DecisionOrigin,
}

impl ScalingDecision {
    /// Whether the decision's validity window covers time `t`.
    pub fn covers(&self, t: f64) -> bool {
        self.start <= t && t < self.end
    }

    /// Whether this is a trusted proactive decision.
    pub fn is_trusted_proactive(&self) -> bool {
        matches!(self.origin, DecisionOrigin::Proactive { trusted: true, .. })
    }
}

/// Stores proactive decisions and implements both resolution rules of
/// §III-C:
///
/// * **Time resolution**: "there may be proactive decisions with different
///   underlying forecasts for the same time period. Assuming that
///   decisions based on the newest forecast contain more up-to-date
///   information, all proactive events for the same time period [from
///   older forecasts] are skipped" — adding a newer generation evicts
///   overlapping older-generation decisions per service
///   ([`add_proactive`](DecisionStore::add_proactive), one pass over the
///   store per batch).
/// * **Scope resolution**: "If the proactive decision is trustable and
///   wants to scale up or down, the reactive decision is omitted.
///   Otherwise, the proactive decision is skipped" — implemented by
///   [`DecisionStore::resolve`] on the candidate that
///   [`candidates_at`](DecisionStore::candidates_at) finds for every
///   service in one pass over the store.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DecisionStore {
    proactive: Vec<ScalingDecision>,
}

/// Time resolution's eviction rule: `newer` supersedes `old` when both
/// are proactive decisions for the same service, their windows overlap,
/// and `old` comes from a strictly older generation. Reactive decisions
/// neither evict nor are evicted.
fn evicts(newer: &ScalingDecision, old: &ScalingDecision) -> bool {
    let (
        DecisionOrigin::Proactive {
            generation: newer_generation,
            ..
        },
        DecisionOrigin::Proactive {
            generation: old_generation,
            ..
        },
    ) = (newer.origin, old.origin)
    else {
        return false;
    };
    old.service == newer.service
        && old.start < newer.end
        && newer.start < old.end
        && old_generation < newer_generation
}

/// The generation a lookup ranks a decision by; reactive decisions rank
/// as generation 0.
fn generation(decision: &ScalingDecision) -> u64 {
    match decision.origin {
        DecisionOrigin::Proactive { generation, .. } => generation,
        DecisionOrigin::Reactive => 0,
    }
}

impl DecisionStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        DecisionStore::default()
    }

    /// The stored proactive decisions (for inspection).
    pub fn proactive(&self) -> &[ScalingDecision] {
        &self.proactive
    }

    /// Rebuilds a store from a previously captured decision list,
    /// preserving the exact vector order (ties between equal generations
    /// resolve by position, so order is observable state). Used by the
    /// controller's crash-recovery snapshot.
    pub(crate) fn restore(proactive: Vec<ScalingDecision>) -> Self {
        DecisionStore { proactive }
    }

    /// Adds a batch of proactive decisions, applying time resolution: a
    /// batch decision evicts every stored or earlier batch decision of the
    /// same service whose window overlaps its own and whose generation is
    /// strictly older. Reactive batch entries are skipped.
    ///
    /// The result is that of inserting the batch one decision at a time
    /// (evict, then push), in one pass over the store: first the stored
    /// decisions no batch decision evicts, in their old order, then the
    /// proactive batch decisions no *later* batch decision evicts, in
    /// batch order. Each decision is checked only against the batch
    /// decisions of its own service — the horizon's worth in the
    /// controller's batches, which share one generation and so never
    /// evict each other.
    pub fn add_proactive(&mut self, batch: &[ScalingDecision]) {
        // `(service, batch index)` of every proactive batch decision. The
        // stable sort keeps each service's run in batch order and binary
        // search finds it, so every step's order is fixed by the input.
        let mut runs: Vec<(usize, usize)> = batch
            .iter()
            .enumerate()
            .filter(|(_, d)| matches!(d.origin, DecisionOrigin::Proactive { .. }))
            .map(|(index, d)| (d.service, index))
            .collect();
        runs.sort_by_key(|&(service, _)| service);
        let run = |service: usize| {
            let lo = runs.partition_point(|&(s, _)| s < service);
            let hi = runs.partition_point(|&(s, _)| s <= service);
            &runs[lo..hi]
        };
        self.proactive.retain(|old| {
            !run(old.service)
                .iter()
                .any(|&(_, i)| evicts(&batch[i], old))
        });
        self.proactive.extend(
            batch
                .iter()
                .enumerate()
                .filter(|&(index, d)| {
                    if !matches!(d.origin, DecisionOrigin::Proactive { .. }) {
                        return false;
                    }
                    let own = run(d.service);
                    let later = &own[own.partition_point(|&(_, i)| i <= index)..];
                    !later.iter().any(|&(_, i)| evicts(&batch[i], d))
                })
                .map(|(_, d)| *d),
        );
    }

    /// Drops decisions whose validity ended before `t`.
    pub fn evict_expired(&mut self, t: f64) {
        self.proactive.retain(|d| d.end > t);
    }

    /// Every service's proactive candidate at time `t`, from one pass
    /// over the store. Slot `s` (for `s < services`) holds the stored
    /// decision for service `s` covering `t` with the newest generation —
    /// on a tie the later entry — or `None` when no decision covers `t`.
    pub fn candidates_at(&self, t: f64, services: usize) -> Vec<Option<ScalingDecision>> {
        let mut candidates = vec![None; services];
        for decision in self.proactive.iter().filter(|d| d.covers(t)) {
            if let Some(slot) = candidates.get_mut(decision.service) {
                if slot
                    .as_ref()
                    .is_none_or(|held| generation(held) <= generation(decision))
                {
                    *slot = Some(*decision);
                }
            }
        }
        candidates
    }

    /// Scope resolution: picks between a service's proactive candidate
    /// (from [`candidates_at`](DecisionStore::candidates_at)) and its
    /// reactive decision.
    ///
    /// The proactive decision wins iff it exists, is trustable, and *wants
    /// to scale* (its target differs from `current_instances`); otherwise
    /// the reactive decision wins. When no reactive decision exists (the
    /// reactive cycle is disabled, as in the proactive-only ablation), the
    /// proactive decision applies regardless of trust — there is nothing
    /// to fall back to and stale supply is strictly worse.
    pub fn resolve(
        proactive: Option<ScalingDecision>,
        current_instances: u32,
        reactive: Option<ScalingDecision>,
    ) -> Option<ScalingDecision> {
        match (proactive, reactive) {
            (Some(p), Some(r)) => {
                if p.is_trusted_proactive() && p.target != current_instances {
                    Some(p)
                } else {
                    Some(r)
                }
            }
            (Some(p), None) => Some(p),
            (None, r) => r,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn proactive(
        service: usize,
        target: u32,
        start: f64,
        end: f64,
        generation: u64,
        trusted: bool,
    ) -> ScalingDecision {
        ScalingDecision {
            service,
            target,
            start,
            end,
            origin: DecisionOrigin::Proactive {
                generation,
                trusted,
            },
        }
    }

    fn reactive(service: usize, target: u32, start: f64, end: f64) -> ScalingDecision {
        ScalingDecision {
            service,
            target,
            start,
            end,
            origin: DecisionOrigin::Reactive,
        }
    }

    #[test]
    fn covers_is_half_open() {
        let d = reactive(0, 2, 10.0, 20.0);
        assert!(!d.covers(9.9));
        assert!(d.covers(10.0));
        assert!(d.covers(19.99));
        assert!(!d.covers(20.0));
    }

    /// Service `service`'s candidate at `t` through the one-pass lookup.
    fn candidate(store: &DecisionStore, service: usize, t: f64) -> Option<ScalingDecision> {
        store.candidates_at(t, service + 1)[service]
    }

    #[test]
    fn trusted_proactive_that_scales_overrides_reactive() {
        let mut store = DecisionStore::new();
        store.add_proactive(&[proactive(0, 5, 0.0, 60.0, 1, true)]);
        let r = reactive(0, 3, 0.0, 60.0);
        let chosen = DecisionStore::resolve(candidate(&store, 0, 30.0), 2, Some(r)).unwrap();
        assert_eq!(chosen.target, 5);
        assert!(chosen.is_trusted_proactive());
    }

    #[test]
    fn untrusted_proactive_is_skipped() {
        let mut store = DecisionStore::new();
        store.add_proactive(&[proactive(0, 5, 0.0, 60.0, 1, false)]);
        let r = reactive(0, 3, 0.0, 60.0);
        let chosen = DecisionStore::resolve(candidate(&store, 0, 30.0), 2, Some(r)).unwrap();
        assert_eq!(chosen.target, 3);
        assert_eq!(chosen.origin, DecisionOrigin::Reactive);
    }

    #[test]
    fn proactive_noop_defers_to_reactive() {
        // Trusted but target == current: it does not "want to scale".
        let mut store = DecisionStore::new();
        store.add_proactive(&[proactive(0, 2, 0.0, 60.0, 1, true)]);
        let r = reactive(0, 4, 0.0, 60.0);
        let chosen = DecisionStore::resolve(candidate(&store, 0, 30.0), 2, Some(r)).unwrap();
        assert_eq!(chosen.target, 4);
    }

    #[test]
    fn newer_generation_evicts_overlapping_older() {
        let mut store = DecisionStore::new();
        store.add_proactive(&[proactive(0, 5, 0.0, 120.0, 1, true)]);
        store.add_proactive(&[proactive(0, 8, 60.0, 180.0, 2, true)]);
        // The gen-1 decision overlapped [60, 120) and is gone entirely.
        assert_eq!(store.proactive().len(), 1);
        assert_eq!(candidate(&store, 0, 70.0).unwrap().target, 8);
        assert!(candidate(&store, 0, 10.0).is_none());
    }

    #[test]
    fn non_overlapping_generations_coexist() {
        // Touching windows, [0, 60) then [60, 120), do not overlap.
        let mut store = DecisionStore::new();
        store.add_proactive(&[proactive(0, 5, 0.0, 60.0, 1, true)]);
        store.add_proactive(&[proactive(0, 8, 60.0, 120.0, 2, true)]);
        assert_eq!(store.proactive().len(), 2);
        assert_eq!(candidate(&store, 0, 30.0).unwrap().target, 5);
        assert_eq!(candidate(&store, 0, 90.0).unwrap().target, 8);
    }

    #[test]
    fn different_services_do_not_conflict() {
        let mut store = DecisionStore::new();
        store.add_proactive(&[proactive(0, 5, 0.0, 60.0, 1, true)]);
        store.add_proactive(&[proactive(1, 9, 0.0, 60.0, 2, true)]);
        assert_eq!(store.proactive().len(), 2);
        let candidates = store.candidates_at(10.0, 3);
        assert_eq!(candidates[0].unwrap().target, 5);
        assert_eq!(candidates[1].unwrap().target, 9);
        assert!(candidates[2].is_none());
    }

    #[test]
    fn equal_generations_tie_to_the_later_entry() {
        let mut store = DecisionStore::new();
        store.add_proactive(&[
            proactive(0, 5, 0.0, 120.0, 1, true),
            proactive(0, 6, 60.0, 180.0, 1, true),
        ]);
        assert_eq!(
            store.proactive().len(),
            2,
            "one generation never evicts itself"
        );
        assert_eq!(candidate(&store, 0, 30.0).unwrap().target, 5);
        assert_eq!(candidate(&store, 0, 90.0).unwrap().target, 6);
    }

    #[test]
    fn later_batch_decisions_evict_earlier_ones_of_an_older_generation() {
        let mut store = DecisionStore::new();
        store.add_proactive(&[proactive(1, 4, 0.0, 60.0, 1, true)]);
        store.add_proactive(&[
            proactive(0, 5, 0.0, 60.0, 2, true),
            proactive(1, 6, 0.0, 60.0, 3, true),
            proactive(0, 7, 30.0, 90.0, 3, true),
            proactive(0, 8, 0.0, 60.0, 1, true),
        ]);
        // Gen 3 evicts the stored gen-1 decision of service 1 and the
        // earlier gen-2 batch decision of service 0; the trailing gen-1
        // decision evicts nothing, and nothing after it evicts it.
        let targets: Vec<u32> = store.proactive().iter().map(|d| d.target).collect();
        assert_eq!(targets, vec![6, 7, 8]);
        assert_eq!(candidate(&store, 0, 45.0).unwrap().target, 7);
    }

    #[test]
    fn evict_expired_drops_past_decisions() {
        let mut store = DecisionStore::new();
        store.add_proactive(&[
            proactive(0, 5, 0.0, 60.0, 1, true),
            proactive(0, 6, 60.0, 120.0, 1, true),
        ]);
        store.evict_expired(90.0);
        assert_eq!(store.proactive().len(), 1);
        assert_eq!(store.proactive()[0].target, 6);
    }

    #[test]
    fn resolve_without_reactive_uses_proactive_regardless_of_trust() {
        let mut store = DecisionStore::new();
        store.add_proactive(&[proactive(0, 5, 0.0, 60.0, 1, true)]);
        let chosen = DecisionStore::resolve(candidate(&store, 0, 30.0), 2, None);
        assert_eq!(chosen.unwrap().target, 5);
        // Untrusted but no alternative: still applied.
        let mut store2 = DecisionStore::new();
        store2.add_proactive(&[proactive(0, 5, 0.0, 60.0, 1, false)]);
        let chosen = DecisionStore::resolve(candidate(&store2, 0, 30.0), 2, None);
        assert_eq!(chosen.unwrap().target, 5);
        // Nothing at all: no decision.
        let empty = DecisionStore::new();
        assert!(DecisionStore::resolve(candidate(&empty, 0, 30.0), 2, None).is_none());
    }

    #[test]
    fn reactive_decisions_not_stored() {
        let mut store = DecisionStore::new();
        store.add_proactive(&[reactive(0, 3, 0.0, 60.0)]);
        assert!(store.proactive().is_empty());
    }
}
