//! Minimal stand-in for the `memmap2` crate (offline build).
//!
//! Implements exactly what the workspace uses: mapping a file read-only
//! into memory ([`Mmap::map`]) with `Deref<Target = [u8]>`, `Send` and
//! `Sync`. The mapping is a real `mmap(2)` with `MAP_SHARED`, so bytes
//! later written to the file *through its descriptor* become visible in
//! the mapping without re-mapping (the kernel's unified page cache) —
//! the property the provider's append-only page log relies on.
//!
//! Like the real crate, [`Mmap::map`] is `unsafe`: the caller promises
//! the mapped region is not *mutated* underneath live `&[u8]` borrows.
//! Appending past already-borrowed offsets is fine; rewriting them is
//! not.
//!
//! One addition the real crate does not have, on 64-bit Linux only: a
//! map keeps its own handle to the file it maps (a duplicated
//! descriptor, so the caller may close theirs), and `Mmap::send_to`
//! hands a mapped range to a socket **from the file** by `sendfile(2)`,
//! so the kernel moves the bytes page cache → socket without the
//! user-space read a `write` from the mapping would make it do. The
//! page-cache pages may still be referenced by the socket after the call
//! returns (until the peer acknowledges them), so the no-mutation
//! promise of [`Mmap::map`] covers bytes in flight too: a range that was
//! ever sent must never be rewritten. Other targets have no `send_to`;
//! their callers write from the mapping.

#![warn(missing_docs)]

use std::fs::File;
use std::io;
use std::ops::Deref;

mod sys {
    use std::ffi::{c_int, c_void};

    pub const PROT_READ: c_int = 1;
    pub const MAP_SHARED: c_int = 1;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        pub fn sendfile(out_fd: c_int, in_fd: c_int, offset: *mut i64, count: usize) -> isize;
    }
}

/// An immutable memory map of a file: a `PROT_READ`/`MAP_SHARED`
/// mapping of the file's full length at map time (plus, on 64-bit
/// Linux, a handle to the file).
#[derive(Debug)]
pub struct Mmap {
    ptr: *const u8,
    len: usize,
    /// The mapped file; [`Mmap::send_to`] reads its page cache.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    file: File,
}

// SAFETY: the mapping (`ptr`, `len`) is never written through; `&Mmap`
// only hands out shared `&[u8]` views, which are as thread-safe as any
// shared slice. `file`, where there is one, is a `File`, itself `Send`.
unsafe impl Send for Mmap {}
// SAFETY: same argument as Send above — the mapped bytes are immutable
// through this type, so concurrent shared access is sound; `file` is
// only read from (by `sendfile`, at explicit offsets), and `File` is
// `Sync`.
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Map `file` read-only at its current length.
    ///
    /// # Safety
    /// The caller must ensure no byte of the mapped range is *mutated*
    /// for the lifetime of the map (growing the file and writing beyond
    /// previously read offsets is allowed — this is the append-only-log
    /// contract).
    pub unsafe fn map(file: &File) -> io::Result<Mmap> {
        use std::os::unix::io::AsRawFd;
        let len = file.metadata()?.len();
        #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
        let file = file.try_clone()?;
        if len == 0 {
            return Ok(Mmap {
                ptr: std::ptr::NonNull::<u8>::dangling().as_ptr(),
                len: 0,
                #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
                file,
            });
        }
        if len > usize::MAX as u64 {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "file too large to map",
            ));
        }
        let ptr = sys::mmap(
            std::ptr::null_mut(),
            len as usize,
            sys::PROT_READ,
            sys::MAP_SHARED,
            file.as_raw_fd(),
            0,
        );
        if ptr as isize == -1 {
            return Err(io::Error::last_os_error());
        }
        Ok(Mmap {
            ptr: ptr as *const u8,
            len: len as usize,
            #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
            file,
        })
    }

    /// Length of the mapped region in bytes.
    pub fn len(&self) -> usize {
        self.as_slice().len()
    }

    /// True when the mapped region is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Send the mapped bytes `offset..offset + len` to the socket `sock`
    /// from the file's page cache by `sendfile(2)` and return how many
    /// the kernel took. Like `write`, the count may be short; a full
    /// nonblocking socket fails with `WouldBlock`, and a socket send
    /// timeout with `WouldBlock` or `TimedOut`. `Ok(0)` for a nonzero
    /// `len` means nothing more can be sent.
    ///
    /// # Panics
    /// If the range exceeds the mapping.
    #[cfg(all(target_os = "linux", target_pointer_width = "64"))]
    pub fn send_to(
        &self,
        sock: std::os::fd::BorrowedFd<'_>,
        offset: usize,
        len: usize,
    ) -> io::Result<usize> {
        use std::os::fd::AsRawFd;
        assert!(
            offset.checked_add(len).is_some_and(|end| end <= self.len),
            "send_to out of range"
        );
        let mut at = i64::try_from(offset).map_err(|_| io::ErrorKind::InvalidInput)?;
        // SAFETY: `sendfile` reads `len` bytes of `self.file` at `at` and
        // writes them to `sock`; both descriptors are open for the whole
        // call (the file is owned, the socket borrowed), and the only
        // process memory it touches is `at`, a live local.
        let sent = unsafe { sys::sendfile(sock.as_raw_fd(), self.file.as_raw_fd(), &mut at, len) };
        usize::try_from(sent).map_err(|_| io::Error::last_os_error())
    }

    fn as_slice(&self) -> &[u8] {
        // SAFETY: `ptr..ptr+len` is a live PROT_READ mapping (or a
        // dangling pointer with len 0, a valid empty slice).
        unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        if self.len > 0 {
            // SAFETY: exactly the region mmap returned; errors at unmap
            // are unrecoverable and ignored, like the real crate.
            unsafe {
                sys::munmap(self.ptr as *mut _, self.len);
            }
        }
    }
}

impl Deref for Mmap {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl AsRef<[u8]> for Mmap {
    fn as_ref(&self) -> &[u8] {
        self.as_slice()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_path(name: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("memmap2-shim-{}-{name}", std::process::id()))
    }

    #[test]
    fn maps_file_contents() {
        let path = temp_path("basic");
        std::fs::write(&path, b"hello mapping").unwrap();
        let file = File::open(&path).unwrap();
        // SAFETY: the file is never written while the map is live.
        let map = unsafe { Mmap::map(&file) }.unwrap();
        assert_eq!(&map[..], b"hello mapping");
        assert_eq!(map.len(), 13);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mapping_a_file_twice_sees_the_same_bytes() {
        use std::io::{Read, Seek, SeekFrom};
        let path = temp_path("twice");
        std::fs::write(&path, b"mapped twice, whole both times").unwrap();
        let mut file = File::open(&path).unwrap();
        // SAFETY: the file is never written while the maps are live.
        let first = unsafe { Mmap::map(&file) }.unwrap();
        // SAFETY: as above.
        let second = unsafe { Mmap::map(&file) }.unwrap();
        assert_eq!(&first[..], b"mapped twice, whole both times");
        assert_eq!(&second[..], &first[..]);
        // Nor does a cursor the caller moved itself.
        file.seek(SeekFrom::Start(7)).unwrap();
        file.read_exact(&mut [0u8; 4]).unwrap();
        // SAFETY: as above.
        let third = unsafe { Mmap::map(&file) }.unwrap();
        assert_eq!(&third[..], &first[..]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn empty_file_maps_empty() {
        let path = temp_path("empty");
        std::fs::write(&path, b"").unwrap();
        let file = File::open(&path).unwrap();
        // SAFETY: the file is never written while the map is live.
        let map = unsafe { Mmap::map(&file) }.unwrap();
        assert!(map.is_empty());
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn shared_mapping_sees_fd_writes() {
        use std::os::unix::fs::FileExt;
        let path = temp_path("shared");
        let file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)
            .unwrap();
        file.set_len(4096).unwrap();
        // SAFETY: the fd writes below only fill previously-unread holes
        // past the read offset — the append-only-log contract this shim
        // documents (and this test exists to verify).
        let map = unsafe { Mmap::map(&file) }.unwrap();
        assert_eq!(map[100], 0);
        file.write_all_at(b"appended later", 100).unwrap();
        assert_eq!(&map[100..114], b"appended later");
        let _ = std::fs::remove_file(&path);
    }
}
