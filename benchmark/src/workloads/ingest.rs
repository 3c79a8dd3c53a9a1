//! `ingest` — telescope ingest, the write regime of the paper's Fig. 3c.
//!
//! Each rep: a fresh canonical deployment, 2 clients × 192 disjoint
//! aligned 1 MiB writes in seeded order (16 untimed warm-up writes each),
//! then each client reads back a seeded sample of what it wrote. The
//! `rpc` send path and the `provider` append/commit do most of the work;
//! metadata does little (4 leaves and a short path per write).

use super::{canonical_geometry, record_region, record_space};
use crate::gen::{check_segment, fill_segment, shuffled, SplitMix64};
use crate::harness::{
    run_clients, timed, Counters, Recorder, Rig, RunCfg, Session, CLIENTS, PAGE, SEG,
};
use crate::probes;
use blobseer_proto::Segment;

const WRITES_PER_CLIENT: u64 = 192;
const WARMUP_PER_CLIENT: u64 = 16;
const READBACK_PER_CLIENT: usize = 64;

pub fn run(cfg: &RunCfg, rec: &mut Recorder) {
    let region = (WRITES_PER_CLIENT + WARMUP_PER_CLIENT) * SEG;
    let total = (region * CLIENTS as u64).next_power_of_two();
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
                .alloc(&mut s0.ctx, total, PAGE)
                .expect("alloc the ingest blob")
                .blob;
            // Warm clients: geometry cached, connections dialled.
            run_clients(&mut sessions, |i, s| {
                let mut buf = vec![0u8; SEG as usize];
                for k in 0..WARMUP_PER_CLIENT {
                    let offset = i as u64 * region + (WRITES_PER_CLIENT + k) * SEG;
                    fill_segment(&mut buf, PAGE as usize, cfg.seed, offset / PAGE, 1);
                    s.client
                        .write(&mut s.ctx, blob, offset, &buf)
                        .expect("warm-up write");
                }
            });
            (rig, sessions, blob)
        });

        let before = Counters::sample(&rig.d);
        run_clients(&mut sessions, |i, s| {
            let stream = u64::from(rep) * 16 + i as u64;
            let mut rng = SplitMix64::stream(cfg.seed, stream);
            let order = shuffled(WRITES_PER_CLIENT, &mut rng);
            let mut buf = vec![0u8; SEG as usize];
            for &slot in &order {
                let offset = i as u64 * region + slot * SEG;
                fill_segment(&mut buf, PAGE as usize, cfg.seed, offset / PAGE, 1);
                s.write(blob, offset, &buf);
            }
        });
        // Read back a seeded sample, byte-verified outside the timer. Only
        // once both clients are done: a write returns when *it* is
        // complete, but versions publish in order, so while the other
        // client still has an older version in flight a latest-version
        // read may not see this client's newest writes yet.
        run_clients(&mut sessions, |i, s| {
            let stream = u64::from(rep) * 16 + i as u64;
            let order = shuffled(WRITES_PER_CLIENT, &mut SplitMix64::stream(cfg.seed, stream));
            let mut buf = vec![0u8; SEG as usize];
            for &slot in order.iter().rev().take(READBACK_PER_CLIENT) {
                let offset = i as u64 * region + slot * SEG;
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
        });
        let after = Counters::sample(&rig.d);
        let totals = rec.absorb(&mut sessions, traced);
        record_region(rec, &after.since(&before), &totals);
        let written = (WRITES_PER_CLIENT + WARMUP_PER_CLIENT) * SEG * CLIENTS as u64;
        record_space(rec, &after, written, after.stored_bytes(), written);
        if !traced {
            rec.put("setup_s", setup_s);
            rec.put("write_mib_s", totals.write_mib_s);
            rec.put("read_mib_s", totals.read_mib_s);
        } else if rep == 1 {
            probes::run(&rig.d, canonical_geometry(total), SEG / PAGE, rec);
        }
        rep += 1;
    }
    rec.reps = rep;
}
