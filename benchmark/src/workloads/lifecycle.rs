//! `lifecycle` — the storage-system triple (read cost, write cost,
//! space) over a blob's whole life, and the boundedness of what piles up.
//!
//! Each rep, one client (so every count repeats exactly): a 64 MiB blob
//! overwritten 4 times over with 1 MiB writes (256 versions) → 3 ×
//! whole-cluster cold restart (median; restart is idempotent) → full
//! byte-verify by a fresh client → `gc(keep_from = latest)` →
//! `compact_storage(i)` on every node → size accounting → restart →
//! full verify again. The reads are the two verify passes.

use super::{canonical_geometry, record_region, record_space};
use crate::gen::{check_segment, fill_segment};
use crate::harness::{
    timed, Counters, Recorder, RegionTotals, Rig, RunCfg, Samples, Session, MIB, PAGE, PROVIDERS,
    SEG,
};
use crate::probes;
use crate::stats;
use blobseer_core::Deployment;
use blobseer_proto::{BlobId, Segment};

const BLOB: u64 = 64 * MIB;
const SLOTS: u64 = BLOB / SEG;
const PASSES: u64 = 4;
const RESTARTS: usize = 3;

/// Read the whole blob through a fresh client of the (restarted)
/// deployment, timed, and byte-verify that every page carries the last
/// pass's generation.
fn verify(
    rec: &mut Recorder,
    d: &Deployment,
    blob: BlobId,
    seed: u64,
    traced: bool,
    rep: u32,
    id: u32,
) -> RegionTotals {
    let mut s = Session::new(d, traced, id, rep);
    let mut buf = vec![0u8; SEG as usize];
    for slot in 0..SLOTS {
        let offset = slot * SEG;
        if s.read(blob, Segment::new(offset, SEG), &mut buf).is_some() {
            s.check(check_segment(
                &buf,
                PAGE as usize,
                seed,
                offset / PAGE,
                PASSES,
            ));
        }
    }
    rec.absorb(std::slice::from_mut(&mut s), traced)
}

pub fn run(cfg: &RunCfg, rec: &mut Recorder) {
    let mut rep = 0;
    while cfg.more_reps(rep) {
        let traced = cfg.rep_is_traced(rep);
        let ((mut rig, mut writer, blob), setup_s) = timed(|| {
            let rig = Rig::canonical(1 << 20);
            let mut writer = Session::new(&rig.d, traced, 0, rep);
            let blob = writer
                .client
                .alloc(&mut writer.ctx, BLOB, PAGE)
                .expect("alloc the lifecycle blob")
                .blob;
            (rig, writer, blob)
        });

        // Life: sequential overwrites, generation = pass number.
        let before = Counters::sample(&rig.d);
        let mut buf = vec![0u8; SEG as usize];
        for pass in 1..=PASSES {
            for slot in 0..SLOTS {
                let offset = slot * SEG;
                fill_segment(&mut buf, PAGE as usize, cfg.seed, offset / PAGE, pass);
                writer.write(blob, offset, &buf);
            }
        }
        let full = Counters::sample(&rig.d);
        if !traced {
            // One rate sample per pass: a rep is long here, so a run has
            // few of them, and its median wants more than a handful.
            for pass in writer.samples.write_ns.chunks(SLOTS as usize) {
                rec.put("write_mib_s", Samples::mib_s(pass.len() as u64 * SEG, pass));
            }
        }
        let totals = rec.absorb(std::slice::from_mut(&mut writer), traced);

        // Cold restarts over the full history.
        let mut restart_s = Vec::new();
        for _ in 0..RESTARTS {
            let (res, secs) = timed(|| rig.d.restart_cluster());
            rec.check(res.map_err(|e| format!("cold restart: {e:?}")));
            restart_s.push(secs);
        }
        let first_verify = verify(rec, &rig.d, blob, cfg.seed, traced, rep, 1);

        // Reclaim: drop every version but the latest, compact every log.
        let latest = writer
            .client
            .latest(&mut writer.ctx, blob)
            .expect("latest after restart");
        rec.check(if latest == PASSES * SLOTS {
            Ok(())
        } else {
            Err(format!(
                "restart surfaced version {latest}, wrote {}",
                PASSES * SLOTS
            ))
        });
        let (gc, gc_s) = timed(|| writer.client.gc(&mut writer.ctx, blob, latest));
        rec.check(gc.map(|_| ()).map_err(|e| format!("gc: {e:?}")));
        let dead = Counters::sample(&rig.d);
        let mut rewritten = 0;
        let ((), compact_s) = timed(|| {
            for i in 0..PROVIDERS {
                match rig.d.compact_storage(i) {
                    Ok(Some(report)) => rewritten += report.new_log_bytes,
                    Ok(None) => {}
                    Err(e) => rec.check(Err(format!("compact node {i}: {e:?}"))),
                }
            }
        });
        let compacted = Counters::sample(&rig.d);

        let (res, restart_compacted_s) = timed(|| rig.d.restart_cluster());
        rec.check(res.map_err(|e| format!("restart after compaction: {e:?}")));
        let second_verify = verify(rec, &rig.d, blob, cfg.seed, traced, rep, 2);

        // The counters bracket the overwrites only.
        record_region(rec, &full.since(&before), &totals);
        let written = PASSES * BLOB;
        record_space(
            rec,
            &compacted,
            BLOB,
            full.stored_bytes() + rewritten,
            written,
        );
        rec.put(
            "provider.dead_bytes_ratio",
            dead.dead_bytes as f64 / dead.page_log_bytes.max(1) as f64,
        );
        rec.put(
            "provider.compactions",
            (compacted.background_compactions - before.background_compactions) as f64,
        );
        if !traced {
            rec.put("setup_s", setup_s);
            rec.put("read_mib_s", first_verify.read_mib_s);
            rec.put("read_mib_s", second_verify.read_mib_s);
            rec.put("core.restart_s", stats::median(&restart_s).unwrap_or(0.0));
            rec.put("core.restart_compacted_s", restart_compacted_s);
            rec.put("core.gc_s", gc_s);
            rec.put("provider.compact_s", compact_s);
        } else if rep == 1 {
            probes::run(&rig.d, canonical_geometry(BLOB * 4), SEG / PAGE, rec);
        }
        rep += 1;
    }
    rec.reps = rep;
}
