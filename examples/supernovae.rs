//! The paper's motivating application end to end: telescopes write sky
//! epochs into a versioned blob while detector clients difference old
//! snapshots to find supernovae.
//!
//! ```sh
//! cargo run --release --example supernovae
//! ```

use blobseer::sky::{
    score, DetectConfig, Detector, SimBackend, SkyGeometry, SkyModel, SynthConfig, Telescope,
};
use blobseer::{Ctx, Deployment, DeploymentConfig};
use std::sync::Arc;
use std::time::Instant;

fn main() {
    // An 8x8-tile sky of 128x128-pixel images, 12 monthly epochs,
    // 10 injected supernovae with onsets in the first 5 epochs.
    let geom = SkyGeometry::new(8, 8, 128, 4096);
    let epochs = 12u32;
    let model = SkyModel::new(geom, SynthConfig::default(), 0xa57e0, 10, 5);
    println!(
        "sky: {}x{} tiles of {}x{} px, {} epochs, {} injected transients",
        geom.tiles_x,
        geom.tiles_y,
        geom.tile_px,
        geom.tile_px,
        epochs,
        model.transients.len()
    );
    println!(
        "epoch size: {}",
        blobseer::util::stats::fmt_bytes(geom.epoch_bytes())
    );

    // A 4-provider deployment on the zero-cost in-process transport
    // (wall-clock run); every actor gets its own client on the one blob.
    let d = Deployment::build(DeploymentConfig::functional(4));
    let blob = d
        .client()
        .alloc(&mut Ctx::start(), geom.blob_size(epochs), geom.page_size)
        .unwrap()
        .blob;
    let actor = || Arc::new(SimBackend::new(d.client(), blob));

    // Two telescopes split the sky and write concurrently; a detector
    // scans each published epoch while later epochs are still arriving —
    // the read/write concurrency the paper is about.
    let t0 = Instant::now();
    let half = geom.tiles() / 2;
    std::thread::scope(|s| {
        let model = &model;
        let b1 = actor();
        let b2 = actor();
        s.spawn(move || {
            let t = Telescope { model, backend: b1 };
            for e in 0..epochs {
                t.capture_epoch_tiles(e, 0, half).unwrap();
            }
        });
        s.spawn(move || {
            let t = Telescope { model, backend: b2 };
            for e in 0..epochs {
                t.capture_epoch_tiles(e, half, geom.tiles() - half).unwrap();
            }
        });
    });
    let ingest = t0.elapsed();
    let total_bytes = geom.epoch_bytes() * epochs as u64;
    println!(
        "ingest: {} in {:.2?} ({:.1} MB/s)",
        blobseer::util::stats::fmt_bytes(total_bytes),
        ingest,
        total_bytes as f64 / 1e6 / ingest.as_secs_f64()
    );

    // Detection: scan every epoch against the epoch-0 template.
    let cfg = DetectConfig::default();
    let detector = Detector {
        geom,
        config: cfg,
        backend: actor(),
    };
    let t1 = Instant::now();
    let mut candidates = Vec::new();
    for e in 1..epochs {
        candidates.extend(detector.scan_epoch(None, e).unwrap());
    }
    let scan = t1.elapsed();
    let report = score(&model, &cfg, candidates);
    println!(
        "detection: {} candidates, {} light curves, {} classified supernovae in {:.2?}",
        report.candidates.len(),
        report.curves.len(),
        report.supernovae.len(),
        scan
    );
    println!(
        "ground truth: {} recovered / {} missed (recall {:.0}%), {} false positives",
        report.recovered,
        report.missed,
        report.recall() * 100.0,
        report.false_positives
    );
    for (i, sn) in report.supernovae.iter().enumerate() {
        println!(
            "  SN {}: tile ({},{}) at ({:.1},{:.1}), {} epochs observed",
            i,
            sn.tx,
            sn.ty,
            sn.x,
            sn.y,
            sn.samples.len()
        );
    }
}
