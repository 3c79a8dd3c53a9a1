//! Property tests for power-of-two-choices page placement: random
//! provider fleets, page counts and replication factors; the plan must
//! never oversubscribe any provider's projected capacity and never place
//! two replicas of one page on the same provider.

use blobseer_proto::messages::ProviderStats;
use blobseer_proto::ProviderId;
use blobseer_provider::ProviderManagerService;
use blobseer_simnet::ServiceCosts;
use proptest::prelude::*;

const PAGE_BYTES: u64 = 4096;

fn arb_capacities() -> impl Strategy<Value = Vec<u64>> {
    // 2..=12 providers, each fitting 0..=64 pages of projected capacity.
    proptest::collection::vec((0u64..=64).prop_map(|pages| pages * PAGE_BYTES), 2..13)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn p2c_respects_capacity_and_replica_distinctness(
        capacities in arb_capacities(),
        pages in 1u64..48,
        replication in 1u32..4,
        seed in any::<u64>(),
        reported_pages in 0u64..16,
    ) {
        let m = ProviderManagerService::new(seed, ServiceCosts::zero());
        m.set_page_size_hint(PAGE_BYTES);
        for (i, &cap) in capacities.iter().enumerate() {
            m.register(ProviderId(i as u32), cap);
        }
        // Some providers report pre-existing usage via heartbeat.
        m.heartbeat(
            ProviderId(0),
            ProviderStats {
                pages: reported_pages,
                bytes: reported_pages * PAGE_BYTES,
                heap_bytes: reported_pages * PAGE_BYTES,
                mapped_bytes: 0,
                dead_bytes: 0,
            },
        );

        let total_free: u64 = (0..capacities.len())
            .map(|i| m.projection(ProviderId(i as u32)).unwrap())
            .map(|p| p.capacity.saturating_sub(p.reported))
            .sum();

        match m.plan_write(pages, replication) {
            Ok(plan) => {
                prop_assert_eq!(plan.targets.len(), pages as usize);
                let repl = (replication as usize).min(capacities.len());
                for t in &plan.targets {
                    // Replication clamped to the fleet size, replicas
                    // pairwise distinct.
                    prop_assert_eq!(t.len(), repl);
                    let mut u = t.clone();
                    u.sort();
                    u.dedup();
                    prop_assert_eq!(u.len(), repl, "duplicate replica in {:?}", t);
                }
                // No provider's projection may exceed its capacity:
                // every reservation was CAS-checked.
                for (i, _) in capacities.iter().enumerate() {
                    let p = m.projection(ProviderId(i as u32)).unwrap();
                    prop_assert!(
                        p.in_flight <= p.capacity.saturating_sub(p.reported),
                        "provider {} oversubscribed: {:?}",
                        i,
                        p
                    );
                }
            }
            Err(_) => {
                // With replication 1 a refusal is only legitimate when
                // the demand could not have fit in the fleet's total
                // projected capacity. (With replication > 1 the
                // per-page distinctness constraint can make a plan
                // infeasible even below total capacity, so no such
                // bound holds.)
                if replication == 1 {
                    let demanded = pages * PAGE_BYTES;
                    prop_assert!(
                        demanded > total_free,
                        "refused a plan that fits: demanded {} of {} free",
                        demanded,
                        total_free
                    );
                }
                // Even a refused plan must leave every projection sane.
                for (i, _) in capacities.iter().enumerate() {
                    let p = m.projection(ProviderId(i as u32)).unwrap();
                    prop_assert!(p.in_flight <= p.capacity.saturating_sub(p.reported));
                }
            }
        }
    }

    #[test]
    fn p2c_prefers_the_freer_provider(seed in any::<u64>()) {
        // Two providers, one nearly full: the plan must lean heavily on
        // the free one (two-choice sampling sees both every time).
        let m = ProviderManagerService::new(seed, ServiceCosts::zero());
        m.set_page_size_hint(PAGE_BYTES);
        m.register(ProviderId(0), 1024 * PAGE_BYTES);
        m.register(ProviderId(1), 1024 * PAGE_BYTES);
        m.heartbeat(
            ProviderId(1),
            ProviderStats {
                pages: 1000,
                bytes: 1000 * PAGE_BYTES,
                heap_bytes: 1000 * PAGE_BYTES,
                mapped_bytes: 0,
                dead_bytes: 0,
            },
        );
        let plan = m.plan_write(16, 1).unwrap();
        let on_free = plan
            .targets
            .iter()
            .filter(|t| t[0] == ProviderId(0))
            .count();
        prop_assert!(
            on_free >= 12,
            "free provider should dominate placement: {} of 16",
            on_free
        );
    }
}
