//! [`PageBuf`] — a cheap-clone immutable byte buffer, the unit of
//! zero-copy data movement across the workspace.
//!
//! The paper's pages are **immutable once written** (a WRITE always
//! creates fresh pages under a fresh write id), which makes
//! reference-counted sharing sound: a page entering the system is copied
//! into a `PageBuf` at most once, and every subsequent hand-off — replica
//! fan-out, RPC framing, batch aggregation, provider storage, read
//! responses — is a refcount bump plus an offset/length pair.
//!
//! `slice` is O(1): sub-buffers share the backing allocation. That is how
//! a client splits one write buffer into per-page send buffers without
//! copying, and how the wire codec lends out message payloads borrowed
//! from a received frame.
//!
//! Every *deliberate* copy of payload bytes into or out of a `PageBuf`
//! is accounted in [`copymeter`], so benchmarks can
//! report bytes-copied-per-operation instead of asserting zero-copy-ness.

use crate::copymeter;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::Arc;

/// The storage behind a [`PageBuf`]: a heap allocation or a mapped file
/// region. Both are immutable for the lifetime of the backing, which is
/// what makes refcounted sharing of either sound.
enum Backing {
    /// An owned heap allocation (the original PR 1 variant).
    Heap(Vec<u8>),
    /// A read-only memory-mapped file region, tagged with the log
    /// **generation** it maps (compaction swaps generations; the tag
    /// lets white-box tests tell a pre-swap slice from a post-swap
    /// one). Serving bytes out of it is a page-cache borrow — no heap
    /// copy ever happens, which is how a persistent provider lends
    /// pages straight out of its page log.
    Mapped { map: memmap2::Mmap, generation: u64 },
}

impl Backing {
    #[inline]
    fn as_bytes(&self) -> &[u8] {
        match self {
            Backing::Heap(v) => v,
            Backing::Mapped { map, .. } => map,
        }
    }
}

/// An immutable, reference-counted byte slice with O(1) `clone` and
/// O(1) `slice`.
///
/// The backing storage is either a heap allocation ([`PageBuf::from_vec`]
/// and friends) or a read-only mapped file region
/// ([`PageBuf::map_file`]) — the API and the copy discipline are
/// identical for both; [`PageBuf::is_mapped`] tells them apart for
/// white-box assertions.
#[derive(Clone)]
pub struct PageBuf {
    data: Arc<Backing>,
    start: usize,
    len: usize,
}

impl PageBuf {
    /// An empty buffer (no allocation shared).
    pub fn new() -> Self {
        static EMPTY: std::sync::OnceLock<Arc<Backing>> = std::sync::OnceLock::new();
        let data = Arc::clone(EMPTY.get_or_init(|| Arc::new(Backing::Heap(Vec::new()))));
        Self {
            data,
            start: 0,
            len: 0,
        }
    }

    /// Take ownership of a vector without copying its contents.
    pub fn from_vec(v: Vec<u8>) -> Self {
        let len = v.len();
        Self {
            data: Arc::new(Backing::Heap(v)),
            start: 0,
            len,
        }
    }

    /// Map `file` read-only at its current length and wrap the whole
    /// mapping as a buffer. Zero payload copies: the bytes stay in the
    /// page cache and every [`PageBuf::slice`] of the result is lent
    /// from the mapping by refcount (the mapping unmaps when the last
    /// slice drops).
    ///
    /// On unix the mapping is `MAP_SHARED`, so bytes appended to the
    /// file through its descriptor *after* mapping become visible at
    /// their offsets — the append-only page-log contract. Callers must
    /// never rewrite a byte range they have already handed out.
    pub fn map_file(file: &std::fs::File) -> std::io::Result<Self> {
        Self::map_file_tagged(file, 0)
    }

    /// [`PageBuf::map_file`], tagging the mapping with a log
    /// **generation** number. Compaction creates a fresh generation
    /// file and swaps the mapping; the tag (readable via
    /// [`PageBuf::mapping_generation`] on every slice) is how tests
    /// assert that pre-swap readers keep the old generation alive while
    /// new serves come from the new one.
    pub fn map_file_tagged(file: &std::fs::File, generation: u64) -> std::io::Result<Self> {
        // SAFETY: the workspace's mapped files are append-only page
        // logs — previously written ranges are immutable by protocol
        // (pages are immutable once acknowledged), upholding the map
        // invariant.
        let map = unsafe { memmap2::Mmap::map(file) }?;
        let len = map.len();
        Ok(Self {
            data: Arc::new(Backing::Mapped { map, generation }),
            start: 0,
            len,
        })
    }

    /// True when this buffer's backing is a mapped file region rather
    /// than a heap allocation (white-box metric for zero-copy
    /// assertions on the persistent provider path).
    pub fn is_mapped(&self) -> bool {
        matches!(*self.data, Backing::Mapped { .. })
    }

    /// The generation tag of the mapped backing (`None` for heap
    /// buffers). Shared by every slice of one mapping.
    pub fn mapping_generation(&self) -> Option<u64> {
        match *self.data {
            Backing::Heap(_) => None,
            Backing::Mapped { generation, .. } => Some(generation),
        }
    }

    /// Send the bytes from `skip` to the end of this buffer to the
    /// socket `sock` straight from the mapped file's page cache by
    /// `sendfile(2)` (see [`memmap2::Mmap::send_to`]; 64-bit Linux
    /// only), so the process never touches them. `None` for a heap
    /// buffer: the caller writes those itself. `Some` carries the
    /// kernel's count, which may be short, or its error — `WouldBlock`
    /// on a full nonblocking socket. Call it with `skip < len()`:
    /// `Ok(0)` means the socket accepts nothing more.
    ///
    /// The socket may keep referencing the page-cache pages after the
    /// call returns, until the peer acknowledges them. That is sound
    /// under [`PageBuf::map_file`]'s contract — a range once handed out
    /// is never rewritten — the same promise the mapping itself rests
    /// on. Like a gather-write, the kernel's transfer is not a payload
    /// copy and is not counted by [`copymeter`].
    ///
    /// # Panics
    /// If `skip` exceeds the buffer.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    pub fn send_to(
        &self,
        sock: std::os::fd::BorrowedFd<'_>,
        skip: usize,
    ) -> Option<std::io::Result<usize>> {
        assert!(skip <= self.len, "send_to skip out of range");
        match &*self.data {
            Backing::Heap(_) => None,
            Backing::Mapped { map, .. } => {
                Some(map.send_to(sock, self.start + skip, self.len - skip))
            }
        }
    }

    /// Copy a slice into a fresh buffer. This is the metered entry point
    /// for payload bytes: one copy here, zero copies downstream.
    pub fn copy_from_slice(s: &[u8]) -> Self {
        copymeter::record_copy(s.len());
        Self::from_vec(s.to_vec())
    }

    /// A buffer of `n` zero bytes.
    pub fn zeroed(n: usize) -> Self {
        Self::from_vec(vec![0u8; n])
    }

    /// Length in bytes.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the buffer holds no bytes.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The bytes.
    pub fn as_slice(&self) -> &[u8] {
        &self.data.as_bytes()[self.start..self.start + self.len]
    }

    /// O(1) sub-buffer sharing the backing allocation.
    ///
    /// # Panics
    /// If the range exceeds the buffer.
    pub fn slice(&self, range: std::ops::Range<usize>) -> Self {
        assert!(
            range.start <= range.end && range.end <= self.len,
            "slice out of range"
        );
        Self {
            data: Arc::clone(&self.data),
            start: self.start + range.start,
            len: range.end - range.start,
        }
    }

    /// Number of `PageBuf` handles sharing this allocation (white-box
    /// metric for sharing assertions in tests).
    pub fn ref_count(&self) -> usize {
        Arc::strong_count(&self.data)
    }

    /// True when `self` and `other` share the same backing allocation.
    pub fn same_allocation(&self, other: &PageBuf) -> bool {
        Arc::ptr_eq(&self.data, &other.data)
    }
}

impl Default for PageBuf {
    fn default() -> Self {
        Self::new()
    }
}

impl Deref for PageBuf {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for PageBuf {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl From<Vec<u8>> for PageBuf {
    fn from(v: Vec<u8>) -> Self {
        Self::from_vec(v)
    }
}

impl PartialEq for PageBuf {
    fn eq(&self, other: &Self) -> bool {
        self.as_slice() == other.as_slice()
    }
}

impl Eq for PageBuf {}

impl Hash for PageBuf {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.as_slice().hash(state);
    }
}

impl fmt::Debug for PageBuf {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PageBuf({} bytes @{}..)", self.len, self.start)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn from_vec_does_not_copy() {
        let before = copymeter::thread_snapshot();
        let b = PageBuf::from_vec(vec![1, 2, 3, 4]);
        assert_eq!(before.bytes_since(), 0, "from_vec must be zero-copy");
        assert_eq!(b.as_slice(), &[1, 2, 3, 4]);
    }

    #[test]
    fn copy_from_slice_is_metered() {
        let before = copymeter::thread_snapshot();
        let b = PageBuf::copy_from_slice(&[0u8; 100]);
        assert_eq!(before.bytes_since(), 100);
        assert_eq!(b.len(), 100);
    }

    #[test]
    fn slice_shares_allocation() {
        let b = PageBuf::from_vec((0..100u8).collect());
        let s = b.slice(10..20);
        assert_eq!(s.as_slice(), &(10..20u8).collect::<Vec<_>>()[..]);
        assert!(s.same_allocation(&b));
        assert_eq!(b.ref_count(), 2);
        let ss = s.slice(5..10);
        assert_eq!(ss.as_slice(), &[15, 16, 17, 18, 19]);
        assert!(ss.same_allocation(&b));
    }

    #[test]
    fn clone_is_refcount_bump() {
        let b = PageBuf::from_vec(vec![7; 1024]);
        let before = copymeter::thread_snapshot();
        let c = b.clone();
        assert_eq!(before.bytes_since(), 0);
        assert_eq!(b.ref_count(), 2);
        assert_eq!(b, c);
    }

    #[test]
    fn equality_is_by_content() {
        let a = PageBuf::from_vec(vec![1, 2, 3]);
        let b = PageBuf::from_vec(vec![0, 1, 2, 3, 4]).slice(1..4);
        assert_eq!(a, b);
        assert!(!a.same_allocation(&b));
    }

    #[test]
    #[should_panic(expected = "slice out of range")]
    fn out_of_range_slice_panics() {
        PageBuf::from_vec(vec![1]).slice(0..2);
    }

    #[test]
    fn map_file_lends_without_copying() {
        let path = std::env::temp_dir().join(format!("pagebuf-map-{}", std::process::id()));
        std::fs::write(&path, (0..64u8).collect::<Vec<_>>()).unwrap();
        let f = std::fs::File::open(&path).unwrap();
        let before = copymeter::thread_snapshot();
        let b = PageBuf::map_file(&f).unwrap();
        assert_eq!(before.bytes_since(), 0, "mapping is not a payload copy");
        assert!(b.is_mapped());
        assert_eq!(b.mapping_generation(), Some(0));
        assert!(!PageBuf::from_vec(vec![1]).is_mapped());
        assert_eq!(PageBuf::from_vec(vec![1]).mapping_generation(), None);
        let tagged = PageBuf::map_file_tagged(&f, 3).unwrap();
        assert_eq!(tagged.mapping_generation(), Some(3));
        assert_eq!(tagged.slice(1..5).mapping_generation(), Some(3));
        assert_eq!(b.len(), 64);
        let s = b.slice(16..32);
        assert!(s.is_mapped(), "slices of a mapping stay mapped");
        assert!(s.same_allocation(&b));
        assert_eq!(s.as_slice(), &(16..32u8).collect::<Vec<_>>()[..]);
        assert_eq!(b.ref_count(), 2);
        let _ = std::fs::remove_file(&path);
    }

    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    #[test]
    fn send_to_sends_what_the_mapping_holds() {
        use std::io::Read;
        use std::net::{TcpListener, TcpStream};
        use std::os::fd::AsFd;

        let path = std::env::temp_dir().join(format!("pagebuf-send-{}", std::process::id()));
        let bytes: Vec<u8> = (0..300_000u32).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &bytes).unwrap();
        let page = {
            let f = std::fs::File::open(&path).unwrap();
            PageBuf::map_file(&f).unwrap().slice(1000..300_000)
            // The caller's `File` closes here; the mapping keeps its own.
        };
        let _ = std::fs::remove_file(&path);

        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut rx, _) = listener.accept().unwrap();
        assert!(
            PageBuf::from_vec(vec![1; 4096])
                .send_to(tx.as_fd(), 0)
                .is_none(),
            "a heap buffer is the caller's to write"
        );

        let skips = [0, 1, 4095, 65_537, page.len() - 1];
        let expected: Vec<u8> = skips
            .iter()
            .flat_map(|&skip| page[skip..].iter().copied())
            .collect();
        let received = std::thread::spawn(move || {
            let mut got = Vec::new();
            rx.read_to_end(&mut got).unwrap();
            got
        });
        let before = copymeter::thread_snapshot();
        for skip in skips {
            // Short counts resume where the kernel stopped.
            let mut at = skip;
            while at < page.len() {
                let n = page.send_to(tx.as_fd(), at).expect("mapped").unwrap();
                assert!(n > 0, "a live socket takes bytes");
                at += n;
            }
        }
        assert_eq!(before.bytes_since(), 0, "sendfile is not a payload copy");
        drop(tx);
        assert!(received.join().unwrap() == expected, "byte-identical");
    }
}
