//! Crash-recovery of the persistent provider backend, end to end: a
//! provider killed mid-workload and *restarted on the same directory*
//! must re-serve every page it acknowledged, byte-identical — while
//! replication keeps the cluster serving through the outage window.
//! The memory backend run alongside shows the contrast: its restart is
//! a cold, empty provider.

use blobseer_core::{BackendKind, Deployment, DeploymentConfig, TransportKind};
use blobseer_proto::messages::method;
use blobseer_proto::{BlobError, BlobId, Segment};
use blobseer_rpc::{Ctx, RpcClient};
use blobseer_util::recordlog::Format;
use std::sync::Arc;

const PAGE: u64 = 1024;
const PAGES: u64 = 32;
const TOTAL: u64 = PAGE * PAGES;

fn seg(o: u64, s: u64) -> Segment {
    Segment::new(o, s)
}

/// The full scenario over either transport: write, kill provider 0
/// mid-workload, survive the outage on replicas, restart the provider
/// on its directory, verify the replayed index byte-for-byte.
fn crash_recovery_scenario(transport: TransportKind) {
    let mut cfg = DeploymentConfig::functional(4)
        .tune()
        .transport(transport)
        .backend(BackendKind::Mmap)
        .build();
    cfg.replication = 2;
    cfg.meta_replication = 2;
    let mut d = Deployment::build(cfg);
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();

    // Phase 1: acknowledged writes land pages on every provider.
    let mut model = vec![0u8; TOTAL as usize];
    let data_a: Vec<u8> = (0..TOTAL / 2).map(|i| (i % 251) as u8).collect();
    c.write(&mut ctx, info.blob, 0, &data_a).unwrap();
    model[..data_a.len()].copy_from_slice(&data_a);

    // Snapshot what provider 0 acknowledged before the crash.
    let victim = d.storage[0].data();
    let acked: Vec<_> = victim
        .keys()
        .into_iter()
        .map(|k| (k, victim.page(&k).expect("indexed page")))
        .collect();
    assert!(
        !acked.is_empty(),
        "workload must have landed pages on the victim"
    );
    drop(victim);

    // Mid-workload kill. The outage window: reads fail over to the
    // surviving replica, writes plan around the dead provider.
    d.kill_storage(0);
    let (got, _) = c
        .read(&mut ctx, info.blob, None, seg(0, TOTAL))
        .expect("replication failover during the outage");
    assert_eq!(got, model);
    let data_b: Vec<u8> = (0..TOTAL / 2).map(|i| (i % 241) as u8).collect();
    c.write(&mut ctx, info.blob, TOTAL / 2, &data_b)
        .expect("writes continue during the outage");
    model[TOTAL as usize / 2..].copy_from_slice(&data_b);

    // Restart: a fresh provider process on the same directory replays
    // its page log and re-registers.
    d.restart_storage(0).unwrap();
    let restarted = d.storage[0].data();
    assert_eq!(
        restarted.page_count(),
        acked.len(),
        "every acknowledged page is re-indexed"
    );
    for (key, page) in &acked {
        let replayed = restarted
            .page(key)
            .unwrap_or_else(|| panic!("acknowledged page {key:?} lost by restart"));
        assert_eq!(&replayed, page, "page {key:?} byte-identical after restart");
        assert!(
            replayed.is_mapped(),
            "replayed pages are served from the log mapping"
        );
    }

    // The whole blob still reads correctly, and the restarted provider
    // takes new writes again.
    let (got, _) = c.read(&mut ctx, info.blob, None, seg(0, TOTAL)).unwrap();
    assert_eq!(got, model);
    let before = d.storage[0].data().page_count();
    for round in 0..8u64 {
        c.write(
            &mut ctx,
            info.blob,
            (round % 4) * 4 * PAGE,
            &vec![7u8; (4 * PAGE) as usize],
        )
        .unwrap();
    }
    assert!(
        d.storage[0].data().page_count() > before,
        "restarted provider receives new placements"
    );
}

#[test]
fn mmap_provider_crash_recovery_over_sim() {
    crash_recovery_scenario(TransportKind::Sim);
}

#[test]
fn mmap_provider_crash_recovery_over_tcp() {
    crash_recovery_scenario(TransportKind::Tcp);
}

#[test]
fn memory_provider_restart_is_data_loss() {
    // The negative control the persistent backend exists for: restart a
    // RAM provider and its pages are gone; an unreplicated read fails.
    let mut d = Deployment::build(DeploymentConfig::functional(2));
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    c.write(&mut ctx, info.blob, 0, &vec![3u8; TOTAL as usize])
        .unwrap();
    assert!(d.storage[0].data().page_count() > 0);
    d.kill_storage(0);
    d.restart_storage(0).unwrap();
    assert_eq!(
        d.storage[0].data().page_count(),
        0,
        "memory restart is a cold provider"
    );
    let res = c.read(&mut ctx, info.blob, Some(1), seg(0, TOTAL));
    assert!(res.is_err(), "unreplicated pages died with the provider");
}

#[test]
fn mmap_restart_preserves_capacity_accounting() {
    // After a restart the replayed provider's heartbeat must report the
    // log's true footprint, so the manager cannot over-assign it.
    let mut d = Deployment::build(DeploymentConfig::functional_mmap(2));
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    c.write(&mut ctx, info.blob, 0, &vec![9u8; TOTAL as usize])
        .unwrap();
    let mapped_before = d.storage[0].data().stats().mapped_bytes;
    d.kill_storage(0);
    d.restart_storage(0).unwrap();
    let stats = d.storage[0].data().stats();
    assert_eq!(
        stats.mapped_bytes, mapped_before,
        "replayed log footprint matches what was acknowledged"
    );
    assert_eq!(stats.heap_bytes, 0);
    assert!(stats.reserved_bytes() >= stats.bytes, "headers included");
    d.heartbeat(0);
    let p = d
        .manager
        .projection(blobseer_proto::ProviderId(d.storage_nodes[0].0))
        .unwrap();
    assert_eq!(p.reported, stats.mapped_bytes);
}

/// Overwrite the head of every log file in `dir` with `head`: the file
/// now reads as a log another build wrote.
fn patch_heads(dir: &std::path::Path, head: &[u8]) {
    use std::io::{Seek, SeekFrom, Write};
    let mut patched = 0;
    for entry in std::fs::read_dir(dir).unwrap() {
        let path = entry.unwrap().path();
        let is_log = path.extension().is_some_and(|e| e == "log");
        if is_log && std::fs::metadata(&path).unwrap().len() >= head.len() as u64 {
            let mut file = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
            file.seek(SeekFrom::Start(0)).unwrap();
            file.write_all(head).unwrap();
            patched += 1;
        }
    }
    assert!(
        patched > 0,
        "{}: no log with a record to retire",
        dir.display()
    );
}

/// The format header of the next format number of `format`'s client:
/// the head a later (or an earlier) record format would write.
fn next_format(format: Format) -> Vec<u8> {
    Format {
        number: format.number + 1,
        ..format
    }
    .header()
    .to_vec()
}

/// A durable cluster whose every storage node holds pages and tree
/// nodes.
fn written_mmap_cluster() -> Deployment {
    let d = Deployment::build(DeploymentConfig::functional_mmap(2));
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    c.write(&mut ctx, info.blob, 0, &vec![5u8; TOTAL as usize])
        .unwrap();
    d
}

#[test]
fn a_cluster_restart_over_a_metadata_journal_of_another_format_is_a_typed_error() {
    // meta-0's journal now opens as one of another format number, or as
    // one written before format headers (whose first record began with
    // the magic `BSMTPUT3`): the restart refuses it with a typed error
    // and leaves the cluster down instead of panicking.
    let heads = [
        next_format(blobseer_dht::wal::FORMAT),
        0x4253_4d54_5055_5433u64.to_le_bytes().to_vec(),
    ];
    for head in heads {
        let mut d = written_mmap_cluster();
        patch_heads(&d.meta_dir(0).unwrap(), &head);
        let restarted = d.restart_cluster();
        assert!(
            matches!(restarted, Err(BlobError::Recovery { .. })),
            "{restarted:?}"
        );
        let c = d.client();
        let down = c.info(&mut Ctx::start(), BlobId(0));
        assert!(matches!(down, Err(BlobError::Unreachable(_))), "{down:?}");
    }
}

#[test]
fn a_failed_cluster_restart_binds_no_fresh_service() {
    // The last storage node's metadata journal refuses: every fresh
    // service is opened before any is bound, so even the first node
    // keeps the data provider it had, and the cluster stays down.
    let mut d = written_mmap_cluster();
    let last = d.storage.len() - 1;
    patch_heads(
        &d.meta_dir(last).unwrap(),
        &next_format(blobseer_dht::wal::FORMAT),
    );
    let data_0 = d.storage[0].data();
    let restarted = d.restart_cluster();
    assert!(
        matches!(restarted, Err(BlobError::Recovery { .. })),
        "{restarted:?}"
    );
    assert!(
        Arc::ptr_eq(&data_0, &d.storage[0].data()),
        "data-0 was replaced by a restart that failed"
    );
    let down = stats_of(&d, 0);
    assert!(matches!(down, Err(BlobError::Unreachable(_))), "{down:?}");
}

/// Storage node `i`'s provider stats, asked over the transport.
fn stats_of(
    d: &Deployment,
    i: usize,
) -> Result<blobseer_proto::messages::ProviderStats, BlobError> {
    let rpc = RpcClient::new(d.cluster.transport(), d.cluster.add_node());
    rpc.call(
        &mut Ctx::start(),
        d.storage_nodes[i],
        method::PROVIDER_STATS,
        &(),
    )
}

/// The files of the version journal's generations, with their sizes.
fn version_logs(d: &Deployment) -> Vec<(String, u64)> {
    let dir = d.version_shard_dir(0).unwrap();
    let mut logs: Vec<(String, u64)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| {
            let path = e.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            (name, std::fs::metadata(&path).unwrap().len())
        })
        .collect();
    logs.sort();
    logs
}

#[test]
fn a_fresh_deployment_does_not_checkpoint_its_empty_version_journal() {
    // Nothing to collapse and no stale tail to drop: the fresh journal
    // is opened as it is — its format header alone — with no snapshot
    // generation written.
    let mut d = Deployment::build(DeploymentConfig::functional_mmap(2));
    let header = blobseer_version::wal::FORMAT.start().durable;
    assert_eq!(version_logs(&d), [("version.g0.log".to_string(), header)]);
    let c = d.client();
    let mut ctx = Ctx::start();
    let info = c.alloc(&mut ctx, TOTAL, PAGE).unwrap();
    c.write(&mut ctx, info.blob, 0, &vec![7u8; TOTAL as usize])
        .unwrap();
    let journaled = version_logs(&d);
    assert_eq!(journaled.len(), 1);
    assert!(
        journaled[0].1 > header,
        "the create and the publish are journaled"
    );
    // A journal that holds records still checkpoints: the restart
    // collapses it into one snapshot generation, and a second restart
    // leaves the same bytes.
    d.restart_cluster().unwrap();
    let once = version_logs(&d);
    assert_eq!(once.len(), 1);
    assert_eq!(once[0].0, "version.g1.log");
    d.restart_cluster().unwrap();
    let twice = version_logs(&d);
    assert_eq!(twice[0].0, "version.g2.log");
    assert_eq!(twice[0].1, once[0].1, "restarting twice equals once");
    let (got, latest) = c
        .read(&mut ctx, info.blob, None, Segment::new(0, TOTAL))
        .unwrap();
    assert_eq!(latest, 1);
    assert!(got.iter().all(|&b| b == 7));
}

#[test]
fn a_provider_restart_over_a_page_log_of_another_format_is_a_typed_error() {
    // provider-0's page log now opens as one of the next format number:
    // the restart refuses it with a typed error, and the killed provider
    // stays down.
    let mut d = written_mmap_cluster();
    d.kill_storage(0);
    patch_heads(
        &d.backend_dir(0).unwrap(),
        &next_format(blobseer_provider::backend::FORMAT),
    );
    let restarted = d.restart_storage(0);
    assert!(
        matches!(restarted, Err(BlobError::Recovery { .. })),
        "{restarted:?}"
    );
    let down = stats_of(&d, 0);
    assert!(matches!(down, Err(BlobError::Unreachable(_))), "{down:?}");
}
