//! The end-to-end survey pipeline over the blob store.
//!
//! This is the paper's workload, faithfully: telescope writers append new
//! epochs of the sky as new blob versions **while** detector clients read
//! older versions with fine-grain (one-tile) accesses — the read/write and
//! write/write concurrency story of §I, plus the snapshot semantics the
//! reference-template differencing needs.

use crate::detect::{build_light_curves, detect_tile, Candidate, DetectConfig, LightCurve};
use crate::sky::{decode_tile, encode_tile, SkyGeometry};
use crate::synth::SkyModel;
use blobseer_core::BlobClient;
use blobseer_proto::{BlobError, BlobId, Segment, Version};
use blobseer_rpc::Ctx;
use parking_lot::Mutex;
use rayon::prelude::*;
use std::sync::Arc;

/// Storage backend abstraction: the versioned blob the telescopes write
/// and the detectors read. [`SimBackend`] implements it over any
/// [`BlobClient`]; the trait lets a harness wrap that with its own
/// instrumentation.
pub trait SkyBackend: Send + Sync {
    /// Page-aligned versioned write; returns the produced version.
    fn write(&self, offset: u64, data: &[u8]) -> Result<Version, BlobError>;

    /// Versioned read (`None` = latest); returns bytes + latest witness.
    fn read(&self, version: Option<Version>, seg: Segment)
        -> Result<(Vec<u8>, Version), BlobError>;

    /// Latest published version.
    fn latest(&self) -> Result<Version, BlobError>;
}

/// A blob behind any [`BlobClient`] — over a simulated deployment
/// (functional or costed) or a tcp one. Its virtual clock is guarded by
/// a mutex, so each logical actor owns one backend.
pub struct SimBackend {
    client: BlobClient,
    blob: BlobId,
    ctx: Mutex<Ctx>,
}

impl SimBackend {
    /// Wrap an existing client/blob pair.
    pub fn new(client: BlobClient, blob: BlobId) -> Self {
        Self {
            client,
            blob,
            ctx: Mutex::new(Ctx::start()),
        }
    }

    /// Wrap with the actor's clock starting at `vt` (use the cluster's
    /// horizon for actors that are causally after earlier phases).
    pub fn at(client: BlobClient, blob: BlobId, vt: u64) -> Self {
        Self {
            client,
            blob,
            ctx: Mutex::new(Ctx::at(vt)),
        }
    }

    /// The current virtual time of this actor.
    pub fn vt(&self) -> u64 {
        self.ctx.lock().vt
    }
}

impl SkyBackend for SimBackend {
    fn write(&self, offset: u64, data: &[u8]) -> Result<Version, BlobError> {
        let mut ctx = self.ctx.lock();
        self.client.write(&mut ctx, self.blob, offset, data)
    }

    fn read(
        &self,
        version: Option<Version>,
        seg: Segment,
    ) -> Result<(Vec<u8>, Version), BlobError> {
        let mut ctx = self.ctx.lock();
        self.client.read(&mut ctx, self.blob, version, seg)
    }

    fn latest(&self) -> Result<Version, BlobError> {
        let mut ctx = self.ctx.lock();
        self.client.latest(&mut ctx, self.blob)
    }
}

/// A telescope: captures epochs and writes them tile by tile.
pub struct Telescope<'a> {
    /// The sky being observed.
    pub model: &'a SkyModel,
    /// Storage backend.
    pub backend: Arc<dyn SkyBackend>,
}

impl<'a> Telescope<'a> {
    /// Capture and store one epoch; every tile is its own WRITE (this is
    /// what drives write/write concurrency when several telescopes cover
    /// different tile ranges). Returns the last version produced.
    pub fn capture_epoch(&self, epoch: u32) -> Result<Version, BlobError> {
        self.capture_epoch_tiles(epoch, 0, self.model.geom.tiles())
    }

    /// Capture a contiguous tile range `[first, first + count)` of one
    /// epoch (one telescope's share of the sky).
    pub fn capture_epoch_tiles(
        &self,
        epoch: u32,
        first: u32,
        count: u32,
    ) -> Result<Version, BlobError> {
        let geom = &self.model.geom;
        // Render in parallel (rayon), write sequentially per telescope
        // (each write is an independent version).
        let tiles: Vec<(u32, u32)> = (first..first + count)
            .map(|i| (i % geom.tiles_x, i / geom.tiles_x))
            .collect();
        let rendered: Vec<Vec<u16>> = tiles
            .par_iter()
            .map(|&(tx, ty)| self.model.render_tile(epoch, tx, ty))
            .collect();
        let mut last = 0;
        for ((tx, ty), pixels) in tiles.into_iter().zip(rendered) {
            let bytes = encode_tile(geom, &pixels);
            let off = geom.tile_offset(epoch, tx, ty);
            last = self.backend.write(off, &bytes)?;
        }
        Ok(last)
    }
}

/// A detector client: differences tiles of an epoch against the epoch-0
/// reference template, at a *pinned* blob version.
pub struct Detector {
    /// Sky geometry.
    pub geom: SkyGeometry,
    /// Detection parameters.
    pub config: DetectConfig,
    /// Storage backend.
    pub backend: Arc<dyn SkyBackend>,
}

impl Detector {
    /// Scan tiles `[first, first + count)` of `epoch` at blob version `v`
    /// (`None` = latest published).
    pub fn scan_epoch_tiles(
        &self,
        v: Option<Version>,
        epoch: u32,
        first: u32,
        count: u32,
    ) -> Result<Vec<Candidate>, BlobError> {
        let mut out = Vec::new();
        for i in first..first + count {
            let (tx, ty) = (i % self.geom.tiles_x, i / self.geom.tiles_x);
            let ref_seg = self.geom.tile_segment(0, tx, ty);
            let cur_seg = self.geom.tile_segment(epoch, tx, ty);
            let (ref_bytes, _) = self.backend.read(v, ref_seg)?;
            let (cur_bytes, _) = self.backend.read(v, cur_seg)?;
            let reference = decode_tile(&self.geom, &ref_bytes);
            let current = decode_tile(&self.geom, &cur_bytes);
            out.extend(detect_tile(
                &self.geom,
                &self.config,
                tx,
                ty,
                epoch,
                &reference,
                &current,
            ));
        }
        Ok(out)
    }

    /// Scan a whole epoch.
    pub fn scan_epoch(&self, v: Option<Version>, epoch: u32) -> Result<Vec<Candidate>, BlobError> {
        self.scan_epoch_tiles(v, epoch, 0, self.geom.tiles())
    }
}

/// Result of a full survey run.
#[derive(Debug)]
pub struct SurveyReport {
    /// All per-epoch candidates.
    pub candidates: Vec<Candidate>,
    /// Associated light curves.
    pub curves: Vec<LightCurve>,
    /// Curves classified as supernovae.
    pub supernovae: Vec<LightCurve>,
    /// Ground-truth transients that were recovered.
    pub recovered: usize,
    /// Ground-truth transients missed.
    pub missed: usize,
    /// Classified supernovae with no matching injected transient.
    pub false_positives: usize,
}

impl SurveyReport {
    /// Recall against the injected ground truth.
    pub fn recall(&self) -> f64 {
        let total = self.recovered + self.missed;
        if total == 0 {
            1.0
        } else {
            self.recovered as f64 / total as f64
        }
    }
}

/// Score detections against a model's injected transients.
pub fn score(model: &SkyModel, cfg: &DetectConfig, candidates: Vec<Candidate>) -> SurveyReport {
    let curves = build_light_curves(cfg, &candidates);
    let supernovae: Vec<LightCurve> = curves
        .iter()
        .filter(|c| c.is_supernova(cfg))
        .cloned()
        .collect();
    let mut recovered = 0;
    let mut missed = 0;
    for t in &model.transients {
        let hit = supernovae.iter().any(|c| {
            c.tx == t.tx
                && c.ty == t.ty
                && ((c.x - t.x).powi(2) + (c.y - t.y).powi(2)).sqrt() <= 3.0
        });
        if hit {
            recovered += 1;
        } else {
            missed += 1;
        }
    }
    let false_positives = supernovae
        .iter()
        .filter(|c| {
            !model.transients.iter().any(|t| {
                c.tx == t.tx
                    && c.ty == t.ty
                    && ((c.x - t.x).powi(2) + (c.y - t.y).powi(2)).sqrt() <= 3.0
            })
        })
        .count();
    SurveyReport {
        candidates,
        curves,
        supernovae,
        recovered,
        missed,
        false_positives,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::SynthConfig;
    use blobseer_core::{Deployment, DeploymentConfig};

    fn small_model(n_transients: usize, epochs: u32) -> SkyModel {
        let geom = SkyGeometry::new(2, 2, 64, 4096);
        SkyModel::new(geom, SynthConfig::default(), 1234, n_transients, epochs)
    }

    /// A blob sized for `epochs` epochs of `geom` on a functional
    /// deployment (handlers run inline on the caller's thread).
    fn functional_blob(geom: &SkyGeometry, epochs: u32) -> (Deployment, BlobId) {
        let d = Deployment::build(DeploymentConfig::functional(4));
        let blob = d
            .client()
            .alloc(&mut Ctx::start(), geom.blob_size(epochs), geom.page_size)
            .unwrap()
            .blob;
        (d, blob)
    }

    /// One actor's backend: its own client and clock on the shared blob,
    /// so actors on different threads run their calls in parallel.
    fn actor(d: &Deployment, blob: BlobId) -> Arc<dyn SkyBackend> {
        Arc::new(SimBackend::new(d.client(), blob))
    }

    #[test]
    fn survey_end_to_end_on_functional_deployment() {
        // Onsets are confined to the first few epochs so every transient
        // has enough post-peak samples to classify (min_epochs = 3).
        let epochs = 10;
        let model = small_model(3, 4);
        let (d, blob) = functional_blob(&model.geom, epochs);
        let backend = actor(&d, blob);

        let telescope = Telescope {
            model: &model,
            backend: Arc::clone(&backend),
        };
        for e in 0..epochs {
            telescope.capture_epoch(e).unwrap();
        }

        let cfg = DetectConfig::default();
        let detector = Detector {
            geom: model.geom,
            config: cfg,
            backend: Arc::clone(&backend),
        };
        let mut cands = Vec::new();
        for e in 1..epochs {
            cands.extend(detector.scan_epoch(None, e).unwrap());
        }
        let report = score(&model, &cfg, cands);
        assert!(
            report.recall() >= 0.66,
            "recall {} (recovered {}, missed {})",
            report.recall(),
            report.recovered,
            report.missed
        );
        assert_eq!(report.false_positives, 0, "{:?}", report.supernovae);
    }

    #[test]
    fn detectors_run_against_live_writers() {
        // Read/write concurrency: writers append epochs while a detector
        // scans a pinned version — results must be identical to a quiet
        // scan of the same version.
        let epochs = 6;
        let model = Arc::new(small_model(2, epochs - 2));
        let (d, blob) = functional_blob(&model.geom, epochs + 4);

        // Seed epochs 0..3 and remember the version.
        let telescope = Telescope {
            model: &model,
            backend: actor(&d, blob),
        };
        let mut pinned = 0;
        for e in 0..3 {
            pinned = telescope.capture_epoch(e).unwrap();
        }

        let cfg = DetectConfig::default();
        let quiet = Detector {
            geom: model.geom,
            config: cfg,
            backend: actor(&d, blob),
        }
        .scan_epoch(Some(pinned), 2)
        .unwrap();

        // Writer thread appends epochs 3.. while detector rescans; each
        // has its own backend, so the scans overlap the writes.
        let writer = {
            let model = Arc::clone(&model);
            let backend = actor(&d, blob);
            std::thread::spawn(move || {
                let t = Telescope {
                    model: &model,
                    backend,
                };
                for e in 3..epochs {
                    t.capture_epoch(e).unwrap();
                }
            })
        };
        let detector = Detector {
            geom: model.geom,
            config: cfg,
            backend: actor(&d, blob),
        };
        for _ in 0..5 {
            let live = detector.scan_epoch(Some(pinned), 2).unwrap();
            assert_eq!(
                live.len(),
                quiet.len(),
                "pinned-version scan must be stable"
            );
        }
        writer.join().unwrap();
    }

    #[test]
    fn multi_telescope_partition_covers_sky() {
        let model = small_model(0, 2);
        let (d, blob) = functional_blob(&model.geom, 4);
        let backend = actor(&d, blob);
        let t = Telescope {
            model: &model,
            backend: Arc::clone(&backend),
        };
        // Two telescopes each cover half the tiles of epoch 0.
        t.capture_epoch_tiles(0, 0, 2).unwrap();
        t.capture_epoch_tiles(0, 2, 2).unwrap();
        // Every tile readable and matches a direct render.
        let d = Detector {
            geom: model.geom,
            config: DetectConfig::default(),
            backend: Arc::clone(&backend),
        };
        let _ = d; // detector construction sanity
        for i in 0..4u32 {
            let (tx, ty) = (i % 2, i / 2);
            let seg = model.geom.tile_segment(0, tx, ty);
            let (bytes, _) = backend.read(None, seg).unwrap();
            assert_eq!(
                decode_tile(&model.geom, &bytes),
                model.render_tile(0, tx, ty)
            );
        }
    }
}
