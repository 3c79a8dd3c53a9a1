//! `sim_paper` — the canonical cell on the virtual clock:
//! `DeploymentConfig::grid5000(8)`, 256 KiB pages, one client, one
//! thread, 256 × `write_with_stats` of aligned 1 MiB segments in seeded
//! order, then 256 × `read_with_stats` of 1 MiB at seeded page-aligned
//! offsets — most reads straddle two writes, so their descents differ.
//!
//! Every latency and rate of this workload is on the simulator's clock —
//! the paper's own cost model, what a client of that Grid'5000 cluster
//! would wait (see [`Session`]). The numbers depend on the schedule, so
//! on the seed, and on nothing else: the same for every rep of a run and
//! for every run of a seed, moved only by protocol changes (message
//! counts, aggregation), never by host noise. Every rep replays the same
//! schedule, and the run checks that its virtual totals repeat bit for
//! bit — across reps, and across the traced and the untraced client.
//! Only `setup_s` is wall time here; what the protocol costs this host's
//! CPU shows in the traced pass (`core.*_self_us`, the probes).

use super::{canonical_geometry, record_region, record_space};
use crate::gen::{check_segment, fill_segment, shuffled, SplitMix64};
use crate::harness::{timed, Counters, Recorder, Rig, RunCfg, Session, PAGE, SEG};
use crate::probes;
use blobseer_proto::Segment;

const OPS: u64 = 256;
const BLOB: u64 = OPS * SEG;
/// Reps are short here; past this one a traced run stops tracing, which
/// bounds the spans it keeps in memory and writes out.
const MAX_TRACED_REPS: u32 = 24;

pub fn run(cfg: &RunCfg, rec: &mut Recorder) {
    let mut rng = SplitMix64::stream(cfg.seed, 0x51);
    let write_order = shuffled(OPS, &mut rng);
    let read_pages: Vec<u64> = (0..OPS)
        .map(|_| rng.below((BLOB - SEG) / PAGE + 1))
        .collect();
    let mut virtual_totals: Option<(u64, u64)> = None;
    let mut rep = 0;
    while cfg.more_reps(rep) {
        let traced = cfg.rep_is_traced(rep) && rep < MAX_TRACED_REPS;
        let ((rig, mut s, blob), setup_s) = timed(|| {
            let rig = Rig::grid5000();
            let mut s = Session::new(&rig.d, traced, 0, rep);
            let blob = s
                .client
                .alloc(&mut s.ctx, BLOB, PAGE)
                .expect("alloc the sim blob")
                .blob;
            (rig, s, blob)
        });

        let before = Counters::sample(&rig.d);
        let mut buf = vec![0u8; SEG as usize];
        for &slot in &write_order {
            let offset = slot * SEG;
            fill_segment(&mut buf, PAGE as usize, cfg.seed, offset / PAGE, 1);
            s.write(blob, offset, &buf);
        }
        let written = Counters::sample(&rig.d);
        for &page in &read_pages {
            if let Some((data, _)) = s.read_vec(blob, None, Segment::new(page * PAGE, SEG)) {
                s.check(check_segment(&data, PAGE as usize, cfg.seed, page, 1));
            }
        }
        let after = Counters::sample(&rig.d);

        let totals = rec.absorb(std::slice::from_mut(&mut s), traced);
        let sums = totals.sums;
        record_region(rec, &after.since(&before), &totals);
        record_space(rec, &after, BLOB, after.stored_bytes(), BLOB);

        // The product's stage clocks must add up to its op totals, and
        // the totals must repeat: same schedule, same virtual time.
        let write_stages: u64 = sums.write_stage_ns.iter().sum();
        let read_stages: u64 = sums.read_stage_ns.iter().sum();
        rec.check(
            if write_stages == sums.write_vt_ns && read_stages == sums.read_vt_ns {
                Ok(())
            } else {
                Err(format!(
                "stages sum to {write_stages}/{read_stages} ns, ops took {}/{} ns of virtual time",
                sums.write_vt_ns, sums.read_vt_ns
            ))
            },
        );
        let this = (sums.write_vt_ns, sums.read_vt_ns);
        match virtual_totals {
            None => virtual_totals = Some(this),
            Some(first) => rec.check(if first == this {
                Ok(())
            } else {
                Err(format!(
                    "rep {rep} ({}) took {this:?} ns of virtual time, rep 0 took {first:?}",
                    if traced { "traced" } else { "untraced" }
                ))
            }),
        }

        let per_op = |ns: u64| ns as f64 / 1e3 / OPS as f64;
        let [plan, pages, ticket, meta, publish] = sums.write_stage_ns;
        let [latest, descent, data] = sums.read_stage_ns;
        rec.put("simnet.write_plan_vt_us", per_op(plan));
        rec.put("simnet.write_pages_vt_us", per_op(pages));
        rec.put("simnet.write_ticket_vt_us", per_op(ticket));
        rec.put("simnet.write_meta_vt_us", per_op(meta));
        rec.put("simnet.write_publish_vt_us", per_op(publish));
        rec.put("simnet.read_latest_vt_us", per_op(latest));
        rec.put("simnet.read_meta_vt_us", per_op(descent));
        rec.put("simnet.read_data_vt_us", per_op(data));
        rec.put("simnet.write_vt_ms", per_op(sums.write_vt_ns) / 1e3);
        rec.put("simnet.read_vt_ms", per_op(sums.read_vt_ns) / 1e3);
        let write_msgs = written.since(&before).messages;
        let read_msgs = after.since(&written).messages;
        rec.put("simnet.msgs_per_write", write_msgs as f64 / OPS as f64);
        rec.put("simnet.msgs_per_read", read_msgs as f64 / OPS as f64);
        if !traced {
            rec.put("setup_s", setup_s);
            rec.put("write_mib_s", totals.write_mib_s);
            rec.put("read_mib_s", totals.read_mib_s);
        } else if rep == 1 {
            probes::run(&rig.d, canonical_geometry(BLOB), SEG / PAGE, rec);
        }
        rep += 1;
    }
    rec.reps = rep;
}
