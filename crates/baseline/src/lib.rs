//! # blobseer-baseline
//!
//! Lock-based comparators for the paper's motivating claim: that locking
//! the string — globally or even per page — collapses under concurrent
//! fine-grain access, while the versioned lock-free design does not
//! (paper §I: "without locking the string itself").
//!
//! Three stores implement the common [`ConcurrentBlob`] trait:
//!
//! * [`GlobalLockStore`] — one `RwLock` over the whole string: the
//!   strawman a naive shared file/buffer gives you. Readers block writers
//!   and vice versa for the *entire* blob.
//! * [`ShardedLockStore`] — one `RwLock` per page: the strongest
//!   practical locking design (no versioning, in-place updates). Writers
//!   block readers only on overlapping pages — but *do* block them, and
//!   snapshots are impossible: a reader spanning several pages observes
//!   torn states across pages unless it locks them all (which this store
//!   does, in order, to stay deadlock-free and comparable).
//! * [`LockFreeStore`] — the shipped `BlobClient` on a one-node
//!   functional `Deployment`, adapted to the trait: the paper's design
//!   in the same process, its handlers running inline on the caller's
//!   thread. Unlike the two stores above it pays the protocol's framing
//!   and metadata hops, so the comparison is against the system we
//!   ship, not a reimplementation of it.
//!
//! The `ablate_lock` bench drives identical mixed read/write workloads
//! through all three.

#![deny(unsafe_code)]
#![warn(missing_docs)]

use blobseer_core::{BlobClient, Deployment, DeploymentConfig};
use blobseer_proto::{BlobError, BlobId, Segment};
use blobseer_rpc::Ctx;
use parking_lot::RwLock;

/// A concurrent blob store able to serve reads and writes from many
/// threads. `version` semantics differ by design: lock-based stores have
/// no snapshots — they always read the current state and ignore the
/// version argument (documented deviation, part of the point being made).
pub trait ConcurrentBlob: Send + Sync {
    /// Patch `data` at `offset`, returning a monotone write counter.
    fn write(&self, offset: u64, data: &[u8]) -> Result<u64, BlobError>;

    /// Read `seg`, optionally at a specific snapshot version (honoured
    /// only by versioned stores).
    fn read(&self, version: Option<u64>, seg: Segment) -> Result<Vec<u8>, BlobError>;

    /// Latest write counter / version.
    fn latest(&self) -> u64;

    /// Short name for bench tables.
    fn name(&self) -> &'static str;
}

/// One `RwLock` around the whole string.
pub struct GlobalLockStore {
    data: RwLock<(Vec<u8>, u64)>,
    size: u64,
}

impl GlobalLockStore {
    /// Allocate an all-zero string of `size` bytes.
    pub fn new(size: u64) -> Self {
        Self {
            data: RwLock::new((vec![0u8; size as usize], 0)),
            size,
        }
    }
}

impl ConcurrentBlob for GlobalLockStore {
    fn write(&self, offset: u64, data: &[u8]) -> Result<u64, BlobError> {
        let seg = Segment::new(offset, data.len() as u64);
        if seg.end() > self.size {
            return Err(BlobError::BadSegment {
                segment: seg,
                reason: "out of bounds",
            });
        }
        let mut g = self.data.write();
        g.0[offset as usize..offset as usize + data.len()].copy_from_slice(data);
        g.1 += 1;
        Ok(g.1)
    }

    fn read(&self, _version: Option<u64>, seg: Segment) -> Result<Vec<u8>, BlobError> {
        if seg.end() > self.size {
            return Err(BlobError::BadSegment {
                segment: seg,
                reason: "out of bounds",
            });
        }
        let g = self.data.read();
        Ok(g.0[seg.offset as usize..seg.end() as usize].to_vec())
    }

    fn latest(&self) -> u64 {
        self.data.read().1
    }

    fn name(&self) -> &'static str {
        "global-rwlock"
    }
}

/// One `RwLock` per page; multi-page operations lock their page range in
/// ascending order (two-phase, deadlock-free).
pub struct ShardedLockStore {
    pages: Vec<RwLock<Box<[u8]>>>,
    page_size: u64,
    size: u64,
    counter: parking_lot::Mutex<u64>,
}

impl ShardedLockStore {
    /// Allocate with the given geometry.
    pub fn new(size: u64, page_size: u64) -> Self {
        assert!(size.is_multiple_of(page_size));
        let n = (size / page_size) as usize;
        Self {
            pages: (0..n)
                .map(|_| RwLock::new(vec![0u8; page_size as usize].into_boxed_slice()))
                .collect(),
            page_size,
            size,
            counter: parking_lot::Mutex::new(0),
        }
    }

    fn page_range(&self, seg: &Segment) -> (usize, usize) {
        let first = (seg.offset / self.page_size) as usize;
        let last = ((seg.end() - 1) / self.page_size) as usize;
        (first, last)
    }
}

impl ConcurrentBlob for ShardedLockStore {
    fn write(&self, offset: u64, data: &[u8]) -> Result<u64, BlobError> {
        let seg = Segment::new(offset, data.len() as u64);
        if seg.is_empty() || seg.end() > self.size {
            return Err(BlobError::BadSegment {
                segment: seg,
                reason: "out of bounds",
            });
        }
        let (first, last) = self.page_range(&seg);
        // Lock all touched pages in ascending order (atomic multi-page
        // patch; without this, readers observe torn writes).
        let guards: Vec<_> = (first..=last).map(|i| self.pages[i].write()).collect();
        let mut guards = guards;
        for (gi, page_idx) in (first..=last).enumerate() {
            let page_start = page_idx as u64 * self.page_size;
            let copy_start = seg.offset.max(page_start);
            let copy_end = seg.end().min(page_start + self.page_size);
            let dst_off = (copy_start - page_start) as usize;
            let src_off = (copy_start - seg.offset) as usize;
            let len = (copy_end - copy_start) as usize;
            guards[gi][dst_off..dst_off + len].copy_from_slice(&data[src_off..src_off + len]);
        }
        let mut c = self.counter.lock();
        *c += 1;
        Ok(*c)
    }

    fn read(&self, _version: Option<u64>, seg: Segment) -> Result<Vec<u8>, BlobError> {
        if seg.is_empty() || seg.end() > self.size {
            return Err(BlobError::BadSegment {
                segment: seg,
                reason: "out of bounds",
            });
        }
        let (first, last) = self.page_range(&seg);
        let guards: Vec<_> = (first..=last).map(|i| self.pages[i].read()).collect();
        let mut out = vec![0u8; seg.size as usize];
        for (gi, page_idx) in (first..=last).enumerate() {
            let page_start = page_idx as u64 * self.page_size;
            let copy_start = seg.offset.max(page_start);
            let copy_end = seg.end().min(page_start + self.page_size);
            let src_off = (copy_start - page_start) as usize;
            let dst_off = (copy_start - seg.offset) as usize;
            let len = (copy_end - copy_start) as usize;
            out[dst_off..dst_off + len].copy_from_slice(&guards[gi][src_off..src_off + len]);
        }
        Ok(out)
    }

    fn latest(&self) -> u64 {
        *self.counter.lock()
    }

    fn name(&self) -> &'static str {
        "per-page-rwlock"
    }
}

/// The paper's design behind the same trait (versioned, lock-free): the
/// shipped [`BlobClient`] on a one-node functional [`Deployment`].
pub struct LockFreeStore {
    // Owns the in-process cluster the client talks to.
    _deployment: Deployment,
    client: BlobClient,
    blob: BlobId,
}

impl LockFreeStore {
    /// Allocate with the given geometry.
    pub fn new(size: u64, page_size: u64) -> Self {
        let deployment = Deployment::build(DeploymentConfig::functional(1));
        let client = deployment.client();
        let blob = client
            .alloc(&mut Ctx::start(), size, page_size)
            .expect("valid geometry")
            .blob;
        Self {
            _deployment: deployment,
            client,
            blob,
        }
    }

    /// The blob id.
    pub fn blob(&self) -> BlobId {
        self.blob
    }
}

// The functional deployment's clock is zero-cost, so every call starts
// a fresh context.
impl ConcurrentBlob for LockFreeStore {
    fn write(&self, offset: u64, data: &[u8]) -> Result<u64, BlobError> {
        self.client
            .write(&mut Ctx::start(), self.blob, offset, data)
    }

    fn read(&self, version: Option<u64>, seg: Segment) -> Result<Vec<u8>, BlobError> {
        Ok(self
            .client
            .read(&mut Ctx::start(), self.blob, version, seg)?
            .0)
    }

    fn latest(&self) -> u64 {
        self.client
            .latest(&mut Ctx::start(), self.blob)
            .unwrap_or(0)
    }

    fn name(&self) -> &'static str {
        "blobseer-lockfree"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    const PAGE: u64 = 256;
    const TOTAL: u64 = PAGE * 16;

    fn all_stores() -> Vec<Arc<dyn ConcurrentBlob>> {
        vec![
            Arc::new(GlobalLockStore::new(TOTAL)),
            Arc::new(ShardedLockStore::new(TOTAL, PAGE)),
            Arc::new(LockFreeStore::new(TOTAL, PAGE)),
        ]
    }

    #[test]
    fn functional_equivalence_on_latest_reads() {
        for store in all_stores() {
            let w1 = store.write(0, &vec![1u8; PAGE as usize]).unwrap();
            let w2 = store.write(PAGE, &vec![2u8; PAGE as usize]).unwrap();
            assert!(w2 > w1, "{}", store.name());
            let got = store.read(None, Segment::new(0, 2 * PAGE)).unwrap();
            assert!(
                got[..PAGE as usize].iter().all(|&b| b == 1),
                "{}",
                store.name()
            );
            assert!(
                got[PAGE as usize..].iter().all(|&b| b == 2),
                "{}",
                store.name()
            );
            assert_eq!(store.latest(), 2);
            assert!(store.read(None, Segment::new(TOTAL, 1)).is_err());
        }
    }

    #[test]
    fn lock_free_store_honours_versions_lock_stores_do_not() {
        let lf = LockFreeStore::new(TOTAL, PAGE);
        lf.write(0, &vec![1u8; PAGE as usize]).unwrap();
        lf.write(0, &vec![2u8; PAGE as usize]).unwrap();
        assert!(lf
            .read(Some(1), Segment::new(0, PAGE))
            .unwrap()
            .iter()
            .all(|&b| b == 1));
        assert!(lf
            .read(Some(2), Segment::new(0, PAGE))
            .unwrap()
            .iter()
            .all(|&b| b == 2));

        let gl = GlobalLockStore::new(TOTAL);
        gl.write(0, &vec![1u8; PAGE as usize]).unwrap();
        gl.write(0, &vec![2u8; PAGE as usize]).unwrap();
        // Lock-based stores always see the newest state.
        assert!(gl
            .read(Some(1), Segment::new(0, PAGE))
            .unwrap()
            .iter()
            .all(|&b| b == 2));
    }

    #[test]
    fn no_torn_multi_page_reads_under_concurrency() {
        // Writers alternate the whole region between two fills; readers
        // must never observe a mix (each store must make multi-page ops
        // atomic — the sharded store via ordered lock acquisition, the
        // lock-free store via snapshots).
        for store in all_stores() {
            let name = store.name();
            store.write(0, &vec![0u8; (4 * PAGE) as usize]).unwrap();
            let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
            let w = {
                let s = Arc::clone(&store);
                let stop = Arc::clone(&stop);
                thread::spawn(move || {
                    let mut x = 0u8;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        x = x.wrapping_add(1);
                        s.write(0, &vec![x; (4 * PAGE) as usize]).unwrap();
                    }
                })
            };
            let readers: Vec<_> = (0..3)
                .map(|_| {
                    let s = Arc::clone(&store);
                    thread::spawn(move || {
                        for _ in 0..300 {
                            let buf = s.read(None, Segment::new(0, 4 * PAGE)).unwrap();
                            let first = buf[0];
                            assert!(buf.iter().all(|&b| b == first), "torn read in {}", first);
                        }
                    })
                })
                .collect();
            for r in readers {
                r.join().unwrap();
            }
            stop.store(true, std::sync::atomic::Ordering::Relaxed);
            w.join().unwrap();
            let _ = name;
        }
    }

    #[test]
    fn sharded_store_partial_page_writes() {
        let s = ShardedLockStore::new(TOTAL, PAGE);
        // Unaligned write spanning a page boundary.
        s.write(PAGE - 10, &[7u8; 20]).unwrap();
        let got = s.read(None, Segment::new(PAGE - 10, 20)).unwrap();
        assert!(got.iter().all(|&b| b == 7));
        let before = s.read(None, Segment::new(0, PAGE - 10)).unwrap();
        assert!(before.iter().all(|&b| b == 0));
    }
}
