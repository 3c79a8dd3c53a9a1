//! Workspace-level integration tests: every crate exercised together
//! through the public facade, the way a downstream user would.

use blobseer::sky::{
    score, DetectConfig, Detector, SimBackend, SkyBackend, SkyGeometry, SkyModel, SynthConfig,
    Telescope,
};
use blobseer::{
    AggregationPolicy, BlobError, Ctx, Deployment, DeploymentConfig, ReferenceStore, Segment,
};
use std::sync::Arc;

const PAGE: u64 = 4096;
const TOTAL: u64 = PAGE * 64;

#[test]
fn facade_quickstart_compiles_and_runs() {
    let d = Deployment::build(DeploymentConfig::functional(3));
    let client = d.client();
    let mut ctx = Ctx::start();
    let blob = client.alloc(&mut ctx, TOTAL, PAGE).unwrap().blob;
    let v = client
        .write(&mut ctx, blob, 0, &vec![1u8; PAGE as usize])
        .unwrap();
    let (data, latest) = client
        .read(&mut ctx, blob, Some(v), Segment::new(0, PAGE))
        .unwrap();
    assert_eq!((v, latest), (1, 1));
    assert!(data.iter().all(|&b| b == 1));
}

#[test]
fn distributed_engine_agrees_with_reference() {
    // The distributed deployment and the single-threaded reference store
    // must agree bit-for-bit on every version.
    let d = Deployment::build(DeploymentConfig::functional(4));
    let dist = d.client();
    let mut ctx = Ctx::start();
    let blob = dist.alloc(&mut ctx, TOTAL, PAGE).unwrap().blob;

    let geom = blobseer::Geometry::new(TOTAL, PAGE).unwrap();
    let mut oracle = ReferenceStore::new(geom);

    let writes: Vec<(u64, u64, u8)> = vec![
        (0, 4, 11),
        (8, 8, 22),
        (4, 2, 33),
        (0, 1, 44),
        (60, 4, 55),
        (30, 10, 66),
    ];
    for (page, len, fill) in writes {
        let seg = Segment::new(page * PAGE, len * PAGE);
        let data = vec![fill; seg.size as usize];
        let got = dist.write(&mut ctx, blob, seg.offset, &data).unwrap();
        let want = oracle.write(seg, &data).unwrap();
        assert_eq!(got, want);
    }
    for v in 0..=oracle.latest() {
        let want = oracle.read(v, Segment::new(0, TOTAL)).unwrap();
        let (got, _) = dist
            .read(&mut ctx, blob, Some(v), Segment::new(0, TOTAL))
            .unwrap();
        assert_eq!(got, want, "distributed v{v}");
    }
}

#[test]
fn snapshot_isolation_under_interleaved_writers_and_gc() {
    let d = Deployment::build(DeploymentConfig::functional(4));
    let c = d.client();
    let mut ctx = Ctx::start();
    let blob = c.alloc(&mut ctx, TOTAL, PAGE).unwrap().blob;

    // Build 10 versions; remember version 5's full content.
    let mut v5_content = Vec::new();
    let mut model = vec![0u8; TOTAL as usize];
    for i in 1..=10u64 {
        let off = ((i * 7) % 32) * PAGE;
        let data = vec![i as u8; (2 * PAGE) as usize];
        c.write(&mut ctx, blob, off, &data).unwrap();
        model[off as usize..off as usize + data.len()].copy_from_slice(&data);
        if i == 5 {
            v5_content = model.clone();
        }
    }
    let (got, _) = c
        .read(&mut ctx, blob, Some(5), Segment::new(0, TOTAL))
        .unwrap();
    assert_eq!(got, v5_content);

    // GC keeping >= 5; version 5 must still read exactly the same.
    c.gc(&mut ctx, blob, 5).unwrap();
    let (got, _) = c
        .read(&mut ctx, blob, Some(5), Segment::new(0, TOTAL))
        .unwrap();
    assert_eq!(got, v5_content, "GC must not disturb kept snapshots");
    // Collected versions fail loudly, not silently: their roots are gone.
    for v in 1..5 {
        let got = c
            .read(&mut ctx, blob, Some(v), Segment::new(0, TOTAL))
            .map(|(_, latest)| latest);
        assert!(
            matches!(got, Err(BlobError::MissingMetadata { blob: b, version }) if b == blob && version == v),
            "v{v} must be collected, got {got:?}"
        );
    }
}

#[test]
fn costed_deployment_behaves_like_functional() {
    // The Grid'5000-calibrated deployment must be functionally identical
    // to the zero-cost one (costs shape time, never results).
    let d = Deployment::build(DeploymentConfig::grid5000(5));
    let c = d.client();
    let mut ctx = Ctx::start();
    let blob = c.alloc(&mut ctx, TOTAL, PAGE).unwrap().blob;
    let data: Vec<u8> = (0..TOTAL / 2).map(|i| (i % 253) as u8).collect();
    c.write(&mut ctx, blob, 0, &data).unwrap();
    let (got, _) = c
        .read(&mut ctx, blob, None, Segment::new(0, TOTAL / 2))
        .unwrap();
    assert_eq!(got, data);
    assert!(ctx.vt > 0, "costed transport must consume virtual time");
}

#[test]
fn aggregation_policies_are_functionally_identical() {
    let mut results = Vec::new();
    for policy in [AggregationPolicy::Batch, AggregationPolicy::PerCall] {
        let mut cfg = DeploymentConfig::functional(4);
        cfg.aggregation = policy;
        let d = Deployment::build(cfg);
        let c = d.client();
        let mut ctx = Ctx::start();
        let blob = c.alloc(&mut ctx, TOTAL, PAGE).unwrap().blob;
        c.write(&mut ctx, blob, 0, &vec![9u8; (8 * PAGE) as usize])
            .unwrap();
        c.write(&mut ctx, blob, 4 * PAGE, &vec![7u8; (8 * PAGE) as usize])
            .unwrap();
        let (got, _) = c
            .read(&mut ctx, blob, None, Segment::new(0, 16 * PAGE))
            .unwrap();
        results.push(got);
    }
    assert_eq!(results[0], results[1]);
}

#[test]
fn replicated_survey_survives_node_loss() {
    // The application keeps detecting through a storage-node failure when
    // replication is on — sky pipeline + fault injection + failover.
    let mut cfg = DeploymentConfig::functional(5);
    cfg.replication = 2;
    cfg.meta_replication = 2;
    let d = Arc::new(Deployment::build(cfg));

    let geom = SkyGeometry::new(2, 2, 64, 4096);
    let epochs = 8u32;
    let model = SkyModel::new(geom, SynthConfig::default(), 42, 2, 3);

    let setup = d.client();
    let mut sctx = Ctx::start();
    let blob = setup
        .alloc(&mut sctx, geom.blob_size(epochs), geom.page_size)
        .unwrap()
        .blob;

    let backend: Arc<dyn SkyBackend> = Arc::new(SimBackend::new(d.client(), blob));
    let telescope = Telescope {
        model: &model,
        backend: Arc::clone(&backend),
    };
    for e in 0..epochs {
        telescope.capture_epoch(e).unwrap();
    }

    // Kill a storage node mid-survey.
    d.kill_storage(1);

    let cfg_det = DetectConfig::default();
    let detector = Detector {
        geom,
        config: cfg_det,
        backend: Arc::clone(&backend),
    };
    let mut candidates = Vec::new();
    for e in 1..epochs {
        candidates.extend(
            detector
                .scan_epoch(None, e)
                .expect("replicas must cover the loss"),
        );
    }
    let report = score(&model, &cfg_det, candidates);
    assert!(
        report.recall() > 0.4,
        "detection still works: {:?}",
        report.recall()
    );
    assert_eq!(report.false_positives, 0);
}

#[test]
fn many_threads_one_deployment_stress() {
    let d = Arc::new(Deployment::build(DeploymentConfig::functional(6)));
    let setup = d.client();
    let mut ctx = Ctx::start();
    let blob = setup.alloc(&mut ctx, TOTAL, PAGE).unwrap().blob;
    setup
        .write(&mut ctx, blob, 0, &vec![1u8; TOTAL as usize])
        .unwrap();

    let threads: Vec<_> = (0..6)
        .map(|t| {
            let d = Arc::clone(&d);
            std::thread::spawn(move || {
                let c = d.client();
                let mut ctx = Ctx::start();
                for i in 0..20u64 {
                    if t % 2 == 0 {
                        let off = ((t as u64 * 20 + i) % 60) * PAGE;
                        c.write(&mut ctx, blob, off, &vec![t as u8 + 2; PAGE as usize])
                            .unwrap();
                    } else {
                        // Version 1 is immutable.
                        let (buf, _) = c
                            .read(&mut ctx, blob, Some(1), Segment::new(0, TOTAL))
                            .unwrap();
                        assert!(buf.iter().all(|&b| b == 1));
                    }
                }
            })
        })
        .collect();
    for t in threads {
        t.join().unwrap();
    }
    // 3 writer threads x 20 writes each, all published.
    let mut ctx2 = Ctx::start();
    assert_eq!(setup.latest(&mut ctx2, blob).unwrap(), 1 + 60);
}
