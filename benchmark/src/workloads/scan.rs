//! `scan` — detector reads over data that is already there.
//!
//! Each rep: a fresh canonical deployment whose set-up prefills 128 MiB
//! with 2 clients × 64 writes of 1 MiB (the only writes this workload
//! does — they are its write samples); the metadata cache (2^20 nodes)
//! holds the whole tree. Cold pass: 1 client × 64 reads of 1 MiB with
//! the shared cache cleared before each one, outside the timer. Warm
//! pass: 2 clients × 256 reads (4 reshuffled passes over disjoint halves). The
//! `rpc` receive path, page fetch and assembly dominate; the cold/warm
//! pair isolates the metadata descent. Nothing writes during the passes,
//! so a write-path change must leave the read numbers alone.

use super::{canonical_geometry, record_region, record_space};
use crate::gen::{check_segment, fill_segment, shuffled, SplitMix64};
use crate::harness::{
    run_clients, timed, Counters, Recorder, Rig, RunCfg, Session, CLIENTS, MIB, PAGE, SEG,
};
use crate::probes;
use crate::stats;
use blobseer_proto::Segment;

const PREFILL: u64 = 128 * MIB;
const SLOTS: u64 = PREFILL / SEG;
const COLD_READS: usize = 64;
/// Each client reads its half this many times over, reshuffled.
const WARM_PASSES: usize = 4;

pub fn run(cfg: &RunCfg, rec: &mut Recorder) {
    let half = SLOTS / CLIENTS as u64;
    let mut cold_ms: Vec<f64> = Vec::new();
    let mut rep = 0;
    while cfg.more_reps(rep) {
        let traced = cfg.rep_is_traced(rep);
        let ((rig, mut sessions, blob), setup_s) = timed(|| {
            let rig = Rig::canonical(1 << 20);
            let mut sessions: Vec<Session> = (0..CLIENTS as u32)
                .map(|i| Session::new(&rig.d, traced, i, rep))
                .collect();
            let s0 = &mut sessions[0];
            let blob = s0
                .client
                .alloc(&mut s0.ctx, PREFILL, PAGE)
                .expect("alloc the scan blob")
                .blob;
            run_clients(&mut sessions, |i, s| {
                let mut buf = vec![0u8; SEG as usize];
                for slot in 0..half {
                    let offset = (i as u64 * half + slot) * SEG;
                    fill_segment(&mut buf, PAGE as usize, cfg.seed, offset / PAGE, 1);
                    s.write(blob, offset, &buf);
                }
            });
            (rig, sessions, blob)
        });
        let prefill = rec.absorb(&mut sessions, traced);

        // Cold pass: every descent misses the cache and goes to the DHT.
        let cache = rig.d.meta_cache.as_ref().expect("scan runs with a cache");
        let mut rng = SplitMix64::stream(cfg.seed, u64::from(rep) * 16 + 8);
        let mut buf = vec![0u8; SEG as usize];
        for &slot in shuffled(SLOTS, &mut rng).iter().take(COLD_READS) {
            cache.clear();
            let s = &mut sessions[0];
            if s.read(blob, Segment::new(slot * SEG, SEG), &mut buf)
                .is_some()
            {
                s.check(check_segment(
                    &buf,
                    PAGE as usize,
                    cfg.seed,
                    slot * SEG / PAGE,
                    1,
                ));
            }
        }
        // The cold samples are their own metric, not part of the warm pool.
        // (Their spans are dropped for the same reason.)
        let (mut cold, _cold_spans) = sessions[0].take();
        rec.tally(&mut cold);
        if !traced {
            cold_ms.extend(stats::ns_to_ms(&cold.read_ns));
        }

        // One untimed pass re-warms the cache the cold pass kept clearing.
        run_clients(&mut sessions, |i, s| {
            let mut buf = vec![0u8; SEG as usize];
            for slot in 0..half {
                let seg = Segment::new((i as u64 * half + slot) * SEG, SEG);
                s.client
                    .read_into(&mut s.ctx, blob, None, seg, &mut buf)
                    .expect("re-warm read");
            }
        });

        let warm_before = Counters::sample(&rig.d);
        run_clients(&mut sessions, |i, s| {
            let mut rng = SplitMix64::stream(cfg.seed, u64::from(rep) * 16 + i as u64);
            let mut buf = vec![0u8; SEG as usize];
            for _pass in 0..WARM_PASSES {
                for slot in shuffled(half, &mut rng) {
                    let offset = (i as u64 * half + slot) * SEG;
                    if s.read(blob, Segment::new(offset, SEG), &mut buf).is_some() {
                        s.check(check_segment(
                            &buf,
                            PAGE as usize,
                            cfg.seed,
                            offset / PAGE,
                            1,
                        ));
                    }
                }
            }
        });
        let after = Counters::sample(&rig.d);
        let warm = rec.absorb(&mut sessions, traced);
        record_region(rec, &after.since(&warm_before), &warm);
        record_space(rec, &after, PREFILL, after.stored_bytes(), PREFILL);
        if !traced {
            rec.put("setup_s", setup_s);
            rec.put("write_mib_s", prefill.write_mib_s);
            rec.put("read_mib_s", warm.read_mib_s);
        } else if rep == 1 {
            // (A blob twice the prefill: the probes need room for 200 ops.)
            probes::run(&rig.d, canonical_geometry(2 * PREFILL), SEG / PAGE, rec);
        }
        rep += 1;
    }
    if let Some(p50) = stats::percentile(&mut cold_ms, 0.5) {
        rec.put("core.read_cold_p50_ms", p50);
    }
    rec.reps = rep;
}
