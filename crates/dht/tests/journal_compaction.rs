//! The metadata journal's rewrite under load and across crashes:
//! writers put batches and a remover removes while another thread
//! compacts over and over; then the journal is reopened, also from a
//! directory holding an interrupted rewrite's debris.

use blobseer_dht::DhtNodeService;
use blobseer_proto::messages::{
    method, MetaGetBatch, MetaGetBatchResp, MetaPutBatch, MetaRemoveBatch,
};
use blobseer_proto::tree::{NodeBody, NodeKey, PageKey, PageLoc, TreeNode};
use blobseer_proto::{BlobId, ProviderId, WriteId};
use blobseer_rpc::{parse_response, Frame, ServerCtx, Service};
use blobseer_simnet::ServiceCosts;
use blobseer_util::recordlog::{CompactTrigger, RecordLogOptions};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

const WRITERS: u64 = 3;
const BATCHES: u64 = 150;
const BATCH: u64 = 8;
/// Nodes put before the run, which the remover then removes.
const DOOMED: u64 = 600;

fn tmp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dht-compaction-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// A leaf of blob `blob` at page `index`, its body distinct per node.
fn leaf(blob: u64, index: u64) -> TreeNode {
    TreeNode {
        key: NodeKey {
            blob: BlobId(blob),
            version: 1,
            offset: index * 1024,
            size: 1024,
        },
        body: NodeBody::Leaf {
            page: PageLoc {
                key: PageKey {
                    blob: BlobId(blob),
                    write: WriteId(index + 1),
                    index,
                },
                replicas: vec![ProviderId((blob * 1000 + index % 7) as u32)],
            },
        },
    }
}

/// Compaction only on request: every rewrite in these tests is the
/// compactor thread's.
fn open(dir: &Path) -> DhtNodeService {
    let never = CompactTrigger {
        dead_ratio: 0.0,
        min_dead_bytes: 0,
    };
    DhtNodeService::open_durable(
        dir,
        RecordLogOptions::default(),
        never,
        ServiceCosts::zero(),
    )
    .unwrap()
}

fn put(svc: &DhtNodeService, nodes: Vec<TreeNode>) {
    let mut ctx = ServerCtx::new(0);
    let frame = Frame::from_msg(method::META_PUT_BATCH, &MetaPutBatch { nodes });
    parse_response::<()>(&svc.handle(&mut ctx, &frame)).unwrap();
}

fn remove(svc: &DhtNodeService, keys: Vec<NodeKey>) -> u64 {
    let mut ctx = ServerCtx::new(0);
    let frame = Frame::from_msg(method::META_REMOVE_BATCH, &MetaRemoveBatch { keys });
    parse_response::<u64>(&svc.handle(&mut ctx, &frame)).unwrap()
}

fn get(svc: &DhtNodeService, keys: Vec<NodeKey>) -> Vec<Option<TreeNode>> {
    let mut ctx = ServerCtx::new(0);
    let frame = Frame::from_msg(method::META_GET_BATCH, &MetaGetBatch { keys });
    parse_response::<MetaGetBatchResp>(&svc.handle(&mut ctx, &frame))
        .unwrap()
        .nodes
}

/// Every written node, and every doomed one, as the reopened node must
/// serve them: present and byte-identical, or gone.
fn assert_serves(svc: &DhtNodeService, what: &str) {
    for w in 1..=WRITERS {
        let nodes: Vec<TreeNode> = (0..BATCHES * BATCH).map(|i| leaf(w, i)).collect();
        let got = get(svc, nodes.iter().map(|n| n.key).collect());
        for (want, got) in nodes.into_iter().zip(got) {
            assert_eq!(got, Some(want), "{what}: an acknowledged put is lost");
        }
    }
    let doomed: Vec<NodeKey> = (0..DOOMED).map(|i| leaf(0, i).key).collect();
    assert!(
        get(svc, doomed).iter().all(Option::is_none),
        "{what}: a removed node came back"
    );
    assert_eq!(svc.len() as u64, WRITERS * BATCHES * BATCH, "{what}");
}

#[test]
fn a_rewrite_racing_puts_and_removes_loses_nothing_and_resurrects_nothing() {
    let dir = tmp_dir("race");
    let svc = Arc::new(open(&dir));
    put(&svc, (0..DOOMED).map(|i| leaf(0, i)).collect());

    let done = Arc::new(AtomicBool::new(false));
    let compactor = {
        let (svc, done) = (Arc::clone(&svc), Arc::clone(&done));
        std::thread::spawn(move || {
            let mut rewrites = 0;
            while !done.load(Ordering::Acquire) {
                match svc.compact().unwrap() {
                    Some(_) => rewrites += 1,
                    None => std::thread::yield_now(),
                }
            }
            rewrites
        })
    };
    let mut workers: Vec<_> = (1..=WRITERS)
        .map(|w| {
            let svc = Arc::clone(&svc);
            std::thread::spawn(move || {
                for b in 0..BATCHES {
                    put(
                        &svc,
                        (b * BATCH..(b + 1) * BATCH).map(|i| leaf(w, i)).collect(),
                    );
                    // A retried put of the same batch: superseded records
                    // land in the middle of a rewrite too.
                    if b % 10 == 0 {
                        put(
                            &svc,
                            (b * BATCH..(b + 1) * BATCH).map(|i| leaf(w, i)).collect(),
                        );
                    }
                }
            })
        })
        .collect();
    workers.push({
        let svc = Arc::clone(&svc);
        std::thread::spawn(move || {
            for chunk in (0..DOOMED).collect::<Vec<_>>().chunks(4) {
                let keys = chunk.iter().map(|&i| leaf(0, i).key).collect();
                assert_eq!(remove(&svc, keys), chunk.len() as u64);
            }
        })
    });
    for w in workers {
        w.join().unwrap();
    }
    done.store(true, Ordering::Release);
    let rewrites = compactor.join().unwrap();
    assert!(rewrites > 0, "the compactor ran against the load");
    assert_eq!(svc.compactions(), rewrites);
    assert_serves(&svc, "live");

    // One more rewrite leaves the live index alone on disk, and the
    // reopened node counts it the same.
    svc.compact().unwrap();
    let (live, bytes) = (svc.live_bytes(), svc.log_bytes());
    assert_eq!(svc.dead_bytes(), 0);
    drop(svc);
    let svc = open(&dir);
    assert_serves(&svc, "reopened");
    assert_eq!(
        (svc.live_bytes(), svc.dead_bytes(), svc.log_bytes()),
        (live, 0, bytes)
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// The one `meta.g<N>.log` under `dir`, and `N`.
fn generation(dir: &Path) -> (u64, PathBuf) {
    let mut found: Vec<(u64, PathBuf)> = std::fs::read_dir(dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter_map(|p| {
            let name = p.file_name()?.to_str()?.to_string();
            let n = name
                .strip_prefix("meta.g")?
                .strip_suffix(".log")?
                .parse()
                .ok()?;
            Some((n, p))
        })
        .collect();
    assert_eq!(found.len(), 1, "one generation file: {found:?}");
    found.pop().unwrap()
}

#[test]
fn an_interrupted_rewrite_reopens_to_the_same_index() {
    let dir = tmp_dir("debris");
    let svc = open(&dir);
    for w in 1..=WRITERS {
        put(&svc, (0..BATCHES * BATCH).map(|i| leaf(w, i)).collect());
    }
    put(&svc, (0..DOOMED).map(|i| leaf(0, i)).collect());
    remove(&svc, (0..DOOMED).map(|i| leaf(0, i).key).collect());
    let (old_n, old_path) = generation(&dir);
    let old_image = std::fs::read(&old_path).unwrap();
    svc.compact().unwrap().expect("dead bytes compact");
    drop(svc);
    let (new_n, new_path) = generation(&dir);
    assert_eq!(new_n, old_n + 1);
    let new_image = std::fs::read(&new_path).unwrap();

    // Crash after the rename, before the unlink: both generations.
    std::fs::write(&old_path, &old_image).unwrap();
    assert_serves(&open(&dir), "both generations");
    assert_eq!(
        generation(&dir),
        (new_n, new_path.clone()),
        "the old one is removed"
    );

    // Crash while the next rewrite was staging: a torn `.tmp`.
    let tmp = dir.join(format!("meta.g{}.log.tmp", new_n + 1));
    std::fs::write(&tmp, &new_image[..new_image.len() / 2]).unwrap();
    assert_serves(&open(&dir), "a staged .tmp");
    assert!(!tmp.exists(), "the .tmp is removed");
    assert_eq!(std::fs::read(&new_path).unwrap(), new_image, "untouched");

    // Crash during the first rewrite: the old generation and its `.tmp`.
    std::fs::remove_file(&new_path).unwrap();
    std::fs::write(&old_path, &old_image).unwrap();
    std::fs::write(dir.join(format!("meta.g{new_n}.log.tmp")), &new_image).unwrap();
    let svc = open(&dir);
    assert_serves(&svc, "the old generation and a .tmp");
    assert_eq!(generation(&dir).0, old_n);
    assert!(
        svc.dead_bytes() > 0,
        "the old generation still holds its dead bytes"
    );
    drop(svc);
    let _ = std::fs::remove_dir_all(&dir);
}
