//! `finegrain_mix` — the paper's title case: small accesses to a huge
//! blob, reads beside writes.
//!
//! Each rep: a fresh canonical-cell deployment holding a 1 TiB logical
//! blob of **64 KiB pages** (the paper's geometry: a tree 25 levels
//! deep), a 128 MiB hot window (2048 pages) prefilled with 16 MiB
//! writes, and a 512-node metadata cache — smaller than the hot
//! window's tree (~4 k nodes), so descents keep missing. 2 clients ×
//! 768 single-page ops each, seeded 70 % read-latest / 30 % write,
//! pages drawn Zipf(0.99). A write is ~5 small RPCs and a cold read ~25
//! DHT round trips, so `dht`/`version`/`meta` and per-RPC latency
//! dominate and bytes barely matter — the inverse of `ingest`/`scan`.
//! Readers and writers share one tree and one cache, which exposes a
//! gain for one that costs the other.

use super::{record_region, record_space};
use crate::gen::{check_page, fill_page, fill_segment, mix_schedule, MixOp};
use crate::harness::{
    run_clients, timed, Counters, Recorder, Rig, RunCfg, Session, CLIENTS, KIB, MIB,
};
use crate::probes;
use blobseer_proto::{Geometry, Segment, Version};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

const TOTAL: u64 = 1 << 40;
const PAGE: u64 = 64 * KIB;
const HOT_PAGES: u64 = 2048;
const PREFILL_WRITE: u64 = 16 * MIB;
const CACHE_NODES: usize = 512;
const OPS_PER_CLIENT: usize = 768;
const ZIPF_S: f64 = 0.99;
const READ_SHARE: f64 = 0.7;
/// Hot pages read back after the clients stop, to check the end state.
const FINAL_CHECKS: usize = 128;

/// What the clients agree on about one hot page.
#[derive(Default)]
struct PageState {
    /// Generations handed out so far (0 = only the prefill wrote it).
    issued: AtomicU64,
    /// The write with the highest version, and its generation: what the
    /// latest snapshot must hold once everything is published.
    winner: Mutex<(Version, u64)>,
}

pub fn run(cfg: &RunCfg, rec: &mut Recorder) {
    // The hot window sits at a seeded, window-aligned place in the blob.
    let window = HOT_PAGES * PAGE;
    let base = (crate::gen::mix64(cfg.seed) % (TOTAL / window)) * window;
    let base_page = base / PAGE;
    let mut rep = 0;
    while cfg.more_reps(rep) {
        let traced = cfg.rep_is_traced(rep);
        let ((rig, mut sessions, blob), setup_s) = timed(|| {
            let rig = Rig::canonical(CACHE_NODES);
            let mut sessions: Vec<Session> = (0..CLIENTS as u32)
                .map(|i| Session::new(&rig.d, traced, i, rep))
                .collect();
            let s0 = &mut sessions[0];
            let blob = s0
                .client
                .alloc(&mut s0.ctx, TOTAL, PAGE)
                .expect("alloc the 1 TiB blob")
                .blob;
            let chunks = window / PREFILL_WRITE;
            run_clients(&mut sessions, |i, s| {
                let mut buf = vec![0u8; PREFILL_WRITE as usize];
                for chunk in (i as u64..chunks).step_by(CLIENTS) {
                    let offset = base + chunk * PREFILL_WRITE;
                    fill_segment(&mut buf, PAGE as usize, cfg.seed, offset / PAGE, 0);
                    s.client
                        .write(&mut s.ctx, blob, offset, &buf)
                        .expect("prefill write");
                }
            });
            (rig, sessions, blob)
        });

        let pages: Vec<PageState> = (0..HOT_PAGES).map(|_| PageState::default()).collect();
        let before = Counters::sample(&rig.d);
        run_clients(&mut sessions, |i, s| {
            let stream = u64::from(rep) * 16 + i as u64;
            let schedule = mix_schedule(
                cfg.seed,
                stream,
                OPS_PER_CLIENT,
                HOT_PAGES,
                ZIPF_S,
                READ_SHARE,
            );
            let mut buf = vec![0u8; PAGE as usize];
            for op in schedule {
                match op {
                    MixOp::Read { page } => {
                        let index = base_page + page;
                        let seg = Segment::new(index * PAGE, PAGE);
                        if s.read(blob, seg, &mut buf).is_some() {
                            // Any generation a writer was handed so far is
                            // a legal latest; its bytes must be exact.
                            let issued = pages[page as usize].issued.load(Ordering::SeqCst);
                            let outcome = check_page(&buf, cfg.seed, index).and_then(|g| {
                                if g <= issued {
                                    Ok(())
                                } else {
                                    Err(format!("page {index}: generation {g} was never written"))
                                }
                            });
                            s.check(outcome);
                        }
                    }
                    MixOp::Write { page } => {
                        let index = base_page + page;
                        let state = &pages[page as usize];
                        let generation = state.issued.fetch_add(1, Ordering::SeqCst) + 1;
                        fill_page(&mut buf, cfg.seed, index, generation);
                        if let Some(version) = s.write(blob, index * PAGE, &buf) {
                            let mut winner = state.winner.lock().expect("page state");
                            if version > winner.0 {
                                *winner = (version, generation);
                            }
                        }
                    }
                }
            }
        });
        let after = Counters::sample(&rig.d);
        let totals = rec.absorb(&mut sessions, traced);
        record_region(rec, &after.since(&before), &totals);

        // End state: with every write published, each written page must
        // hold the generation of its highest-versioned write.
        let mut buf = vec![0u8; PAGE as usize];
        let written = pages
            .iter()
            .enumerate()
            .filter(|(_, p)| p.issued.load(Ordering::SeqCst) > 0);
        for (page, state) in written.take(FINAL_CHECKS) {
            let index = base_page + page as u64;
            let s = &mut sessions[0];
            let want = state.winner.lock().expect("page state").1;
            let outcome = s
                .client
                .read_into(
                    &mut s.ctx,
                    blob,
                    None,
                    Segment::new(index * PAGE, PAGE),
                    &mut buf,
                )
                .map_err(|e| format!("final read of page {index}: {e:?}"))
                .and_then(|_| check_page(&buf, cfg.seed, index))
                .and_then(|g| {
                    if g == want {
                        Ok(())
                    } else {
                        Err(format!(
                            "page {index}: final generation {g}, expected {want}"
                        ))
                    }
                });
            rec.check(outcome);
        }

        let user = window + totals.sums.write_bytes;
        record_space(rec, &after, user, after.stored_bytes(), user);
        if !traced {
            rec.put("setup_s", setup_s);
            rec.put("write_mib_s", totals.write_mib_s);
            rec.put("read_mib_s", totals.read_mib_s);
        } else if rep == 1 {
            let geom = Geometry::new(TOTAL, PAGE).expect("paper geometry");
            probes::run(&rig.d, geom, 1, rec);
        }
        rep += 1;
    }
    rec.reps = rep;
}
