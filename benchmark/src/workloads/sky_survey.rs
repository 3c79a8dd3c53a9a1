//! `sky_survey` — the application on the canonical cell: the paper's
//! supernova survey over a real `Deployment`, not the embedded engine.
//!
//! Each rep: a seeded sky of 4 × 4 tiles of 512 × 512 16-bit pixels
//! (512 KiB per tile, two 256 KiB pages), 8 epochs, 6 injected
//! transients. 2 `Telescope` threads ingest half the sky each, epoch by
//! epoch (one write per tile); then 2 `Detector` threads difference
//! epochs 1..8 against the epoch-0 template (two reads per tile).
//! `score()` must find every injected transient: recall 1.0 is the
//! output check. The only workload where the application's own compute
//! (`sky`) shares the cores with the storage system.

use super::{canonical_geometry, record_region, record_space};
use crate::harness::{timed, Counters, Recorder, Rig, RunCfg, Session, CLIENTS, KIB, SEG};
use crate::probes;
use blobseer_proto::{BlobError, BlobId, Segment, Version};
use blobseer_sky::{
    score, DetectConfig, Detector, SkyBackend, SkyGeometry, SkyModel, SynthConfig, Telescope,
};
use std::sync::{Arc, Mutex};

const TILES_X: u32 = 4;
const TILES_Y: u32 = 4;
const TILE_PX: u32 = 512;
const PAGE: u64 = 256 * KIB;
const EPOCHS: u32 = 8;
const TRANSIENTS: usize = 6;
/// Transients start early enough to rise and fade within the survey.
const LAST_ONSET: u32 = 4;

/// Timing decorator over the public `SkyBackend` seam: every storage
/// call of the application goes through one closed-loop [`Session`].
struct TimedSky {
    session: Mutex<Session>,
    blob: BlobId,
}

impl TimedSky {
    fn session(&self) -> std::sync::MutexGuard<'_, Session> {
        self.session.lock().expect("a sky actor panicked")
    }
}

impl SkyBackend for TimedSky {
    fn write(&self, offset: u64, data: &[u8]) -> Result<Version, BlobError> {
        self.session()
            .write(self.blob, offset, data)
            .ok_or(BlobError::Internal("benchmark: tile write failed"))
    }

    fn read(
        &self,
        version: Option<Version>,
        seg: Segment,
    ) -> Result<(Vec<u8>, Version), BlobError> {
        self.session()
            .read_vec(self.blob, version, seg)
            .ok_or(BlobError::Internal("benchmark: tile read failed"))
    }

    fn latest(&self) -> Result<Version, BlobError> {
        let mut s = self.session();
        let s = &mut *s;
        s.client.latest(&mut s.ctx, self.blob)
    }
}

pub fn run(cfg: &RunCfg, rec: &mut Recorder) {
    let geom = SkyGeometry::new(TILES_X, TILES_Y, TILE_PX, PAGE);
    let model = SkyModel::new(
        geom,
        SynthConfig::default(),
        cfg.seed,
        TRANSIENTS,
        LAST_ONSET,
    );
    let detect = DetectConfig::default();
    let share = geom.tiles() / CLIENTS as u32;
    let mut rep = 0;
    while cfg.more_reps(rep) {
        let traced = cfg.rep_is_traced(rep);
        let ((rig, actors), setup_s) = timed(|| {
            let rig = Rig::canonical(1 << 20);
            let mut first = Session::new(&rig.d, traced, 0, rep);
            let blob = first
                .client
                .alloc(&mut first.ctx, geom.blob_size(EPOCHS), PAGE)
                .expect("alloc the sky blob")
                .blob;
            let mut sessions = vec![first];
            sessions.extend((1..CLIENTS as u32).map(|i| Session::new(&rig.d, traced, i, rep)));
            let actors: Vec<Arc<TimedSky>> = sessions
                .into_iter()
                .map(|mut s| {
                    s.client.info(&mut s.ctx, blob).expect("open the sky blob");
                    Arc::new(TimedSky {
                        session: Mutex::new(s),
                        blob,
                    })
                })
                .collect();
            (rig, actors)
        });

        let before = Counters::sample(&rig.d);
        let (ingest, ingest_s) = timed(|| {
            std::thread::scope(|scope| {
                let handles: Vec<_> = actors
                    .iter()
                    .enumerate()
                    .map(|(k, actor)| {
                        let telescope = Telescope {
                            model: &model,
                            backend: Arc::clone(actor) as Arc<dyn SkyBackend>,
                        };
                        scope.spawn(move || {
                            (0..EPOCHS).try_for_each(|e| {
                                telescope
                                    .capture_epoch_tiles(e, k as u32 * share, share)
                                    .map(|_| ())
                            })
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .try_for_each(|h| h.join().expect("telescope thread"))
            })
        });
        rec.check(ingest.map_err(|e| format!("ingest: {e:?}")));

        let (scanned, scan_s) = timed(|| {
            std::thread::scope(|scope| {
                let handles: Vec<_> = actors
                    .iter()
                    .enumerate()
                    .map(|(k, actor)| {
                        let detector = Detector {
                            geom,
                            config: detect,
                            backend: Arc::clone(actor) as Arc<dyn SkyBackend>,
                        };
                        scope.spawn(move || {
                            let mut found = Vec::new();
                            for e in 1..EPOCHS {
                                found.extend(detector.scan_epoch_tiles(
                                    None,
                                    e,
                                    k as u32 * share,
                                    share,
                                )?);
                            }
                            Ok::<_, BlobError>(found)
                        })
                    })
                    .collect();
                let mut all = Vec::new();
                for h in handles {
                    all.extend(h.join().expect("detector thread")?);
                }
                Ok::<_, BlobError>(all)
            })
        });
        let after = Counters::sample(&rig.d);
        let recall = match scanned {
            Ok(candidates) => {
                let report = score(&model, &detect, candidates);
                rec.check(if report.missed == 0 {
                    Ok(())
                } else {
                    Err(format!(
                        "survey missed {} of {} injected transients",
                        report.missed, TRANSIENTS
                    ))
                });
                report.recall()
            }
            Err(e) => {
                rec.check(Err(format!("scan: {e:?}")));
                0.0
            }
        };

        let mut sessions: Vec<Session> = actors
            .into_iter()
            .map(|a| {
                Arc::into_inner(a)
                    .expect("every actor thread has ended")
                    .session
                    .into_inner()
                    .expect("a sky actor panicked")
            })
            .collect();
        let storage_ns: u64 = sessions
            .iter()
            .map(|s| {
                s.samples
                    .write_ns
                    .iter()
                    .chain(&s.samples.read_ns)
                    .sum::<u64>()
            })
            .sum();
        let totals = rec.absorb(&mut sessions, traced);
        record_region(rec, &after.since(&before), &totals);
        let written = geom.epoch_bytes() * u64::from(EPOCHS);
        record_space(rec, &after, written, after.stored_bytes(), written);
        if !traced {
            // Per actor: the wall it spent waiting on storage, and the rest.
            let storage_s = storage_ns as f64 / 1e9 / CLIENTS as f64;
            rec.put("setup_s", setup_s);
            rec.put("write_mib_s", totals.write_mib_s);
            rec.put("read_mib_s", totals.read_mib_s);
            rec.put("sky.ingest_s", ingest_s);
            rec.put("sky.scan_s", scan_s);
            rec.put("sky.survey_s", ingest_s + scan_s);
            rec.put("sky.storage_s", storage_s);
            rec.put("sky.compute_s", ingest_s + scan_s - storage_s);
            rec.put("sky.recall", recall);
        } else if rep == 1 {
            let total = geom.blob_size(EPOCHS).max(256 * SEG);
            probes::run(
                &rig.d,
                canonical_geometry(total),
                geom.tile_slot() / PAGE,
                rec,
            );
        }
        rep += 1;
    }
    rec.reps = rep;
}
