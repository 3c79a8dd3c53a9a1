//! How a frame leaves a socket: [`write_frame_from`], the one writer
//! behind the reactor's nonblocking flush and the client's blocking
//! [`send_frame`](super::send_frame).
//!
//! A frame is the wire head followed by its body's segments. A mapped
//! segment of at least [`SENDFILE_MIN`] bytes — a page served out of a
//! provider's page log — goes by `sendfile(2)` from the log file
//! (`PageBuf::send_to`, 64-bit Linux only), so the kernel never copies
//! it out of the mapping into the socket; everything else (the head,
//! header tails, heap pages, short mapped slices, and every segment on
//! other targets) is gather-written with `writev`.
//! Neither path copies a payload byte in user space.

use blobseer_proto::wire::ByteChain;
use blobseer_proto::PageBuf;
use std::io::{self, IoSlice, Write};
use std::net::TcpStream;

/// The shortest mapped segment that leaves by `sendfile(2)`. Below it
/// the extra system call costs more than the copy it saves: on loopback
/// on a 2-vCPU host the CPU per op crossed over between 64 KiB (`writev` 26 µs,
/// `sendfile` 33 µs) and 128 KiB (52 µs and 41 µs), and with no floor
/// `finegrain_mix`'s 64 KiB reads lost ~7 % of their throughput.
pub(crate) const SENDFILE_MIN: usize = 128 * 1024;

/// Most iovecs one gather-write hands the kernel: Linux's `IOV_MAX`, the
/// cap std's `write_vectored` applies itself, so no run of segments
/// takes more `writev` calls than one whole-slice `write_vectored` would.
const MAX_IOV: usize = 1024;

/// Where a partly written frame resumes: `off` bytes into segment
/// `seg`, where segment 0 is the wire head and segment `i + 1` is body
/// segment `i`. The default is the start of a frame.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub(crate) struct FrameCursor {
    seg: usize,
    off: usize,
}

/// Write the frame `head` + `body` to `stream` from `cursor` on, and
/// return `Ok` once its last byte is written. Every byte the kernel
/// takes advances `cursor`, so after an error — `WouldBlock` on a
/// nonblocking socket, a send timeout, a reset — the cursor says
/// exactly what was sent, and a later call with it resumes there, in
/// the middle of a `sendfile` segment or a gather-write alike.
///
/// Each step writes from the cursor's segment: a `sendfile` of the rest
/// of a mapped segment of at least [`SENDFILE_MIN`] bytes, or a
/// `writev` of the rest of the current segment and the ones after it,
/// up to the next such mapped segment. No slice list for the whole frame
/// is built, and nothing before the cursor is walked again.
///
/// A socket that takes no bytes fails with `WriteZero`; `Interrupted`
/// is retried.
pub(crate) fn write_frame_from(
    stream: &TcpStream,
    head: &[u8],
    body: &ByteChain,
    cursor: &mut FrameCursor,
) -> io::Result<()> {
    let segs = body.segments();
    while cursor.seg <= segs.len() {
        let res = match send_mapped(stream, segs, *cursor) {
            Some(res) => res,
            None => gather(stream, head, segs, *cursor),
        };
        match res {
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::WriteZero,
                    "tcp peer stopped accepting bytes",
                ))
            }
            Ok(mut n) => {
                // Every segment is non-empty (a `ByteChain` drops empty
                // ones), so this stops on the segment that ends the write.
                while n > 0 {
                    let left = segment(head, segs, cursor.seg).len() - cursor.off;
                    if n < left {
                        cursor.off += n;
                        break;
                    }
                    n -= left;
                    cursor.seg += 1;
                    cursor.off = 0;
                }
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Segment `i` of a frame: the head, then the body's segments.
fn segment<'a>(head: &'a [u8], segs: &'a [PageBuf], i: usize) -> &'a [u8] {
    match i.checked_sub(1) {
        None => head,
        Some(s) => &segs[s],
    }
}

/// Whether `page` leaves by `sendfile`: never off 64-bit Linux, where
/// every segment is gather-written.
fn sends_mapped(page: &PageBuf) -> bool {
    cfg!(all(target_os = "linux", target_pointer_width = "64"))
        && page.is_mapped()
        && page.len() >= SENDFILE_MIN
}

/// `sendfile` the rest of the cursor's segment, if it is a body segment
/// that [`sends_mapped`]; `None` otherwise.
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
fn send_mapped(stream: &TcpStream, segs: &[PageBuf], at: FrameCursor) -> Option<io::Result<usize>> {
    use std::os::fd::AsFd;
    let page = segs.get(at.seg.checked_sub(1)?)?;
    if !sends_mapped(page) {
        return None;
    }
    page.send_to(stream.as_fd(), at.off)
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
fn send_mapped(_: &TcpStream, _: &[PageBuf], _: FrameCursor) -> Option<io::Result<usize>> {
    None
}

/// One `writev` from the cursor up to (not including) the next segment
/// that [`sends_mapped`], at most [`MAX_IOV`] slices.
fn gather(
    mut stream: &TcpStream,
    head: &[u8],
    segs: &[PageBuf],
    at: FrameCursor,
) -> io::Result<usize> {
    let mut iov = [IoSlice::new(&[]); MAX_IOV];
    let mut n = 0;
    for i in at.seg..=segs.len() {
        // `i > at.seg` means `i ≥ 1`: a body segment.
        if i > at.seg && sends_mapped(&segs[i - 1]) {
            break;
        }
        let skip = if i == at.seg { at.off } else { 0 };
        iov[n] = IoSlice::new(&segment(head, segs, i)[skip..]);
        n += 1;
        if n == MAX_IOV {
            break;
        }
    }
    stream.write_vectored(&iov[..n])
}

#[cfg(all(test, target_os = "linux", target_pointer_width = "64"))]
mod tests {
    use super::*;
    use std::io::Read;
    use std::net::TcpListener;

    /// Head, heap bytes, a `sendfile` page, heap bytes, a mapped page
    /// below the floor, each non-empty and of a distinct length.
    fn frame() -> ([u8; 26], ByteChain) {
        let path =
            std::env::temp_dir().join(format!("blobseer-send-cursor-{}", std::process::id()));
        let bytes: Vec<u8> = (0..400_000u32).map(|i| (i % 251) as u8).collect();
        std::fs::write(&path, &bytes).unwrap();
        let map = PageBuf::map_file(&std::fs::File::open(&path).unwrap()).unwrap();
        std::fs::remove_file(&path).unwrap();
        let mut body = ByteChain::new();
        body.push(PageBuf::from_vec(vec![0xA5; 700]));
        body.push(map.slice(7..7 + SENDFILE_MIN));
        body.push(PageBuf::from_vec(vec![0x5A; 3]));
        body.push(map.slice(200_001..200_001 + 64 * 1024));
        (std::array::from_fn(|i| i as u8), body)
    }

    /// Bytes this thread's system calls have read — a `sendfile`'s
    /// input included, a `writev`'s source not — from Linux task I/O
    /// accounting; `None` where the kernel does not keep it.
    fn read_chars() -> Option<usize> {
        let io = std::fs::read_to_string("/proc/thread-self/io").ok()?;
        io.lines()
            .find_map(|l| l.strip_prefix("rchar: ")?.parse().ok())
    }

    #[test]
    fn a_write_resumes_at_its_cursor_in_every_kind_of_segment() {
        let (head, body) = frame();
        let wire = [&head[..], &body.to_vec()].concat();
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let addr = listener.local_addr().unwrap();
        let lens: Vec<usize> = std::iter::once(head.len())
            .chain(body.segments().iter().map(|s| s.len()))
            .collect();
        for (seg, off) in [
            (0, 0),
            (0, 5),
            (1, 699),
            (2, 1),
            (2, 100_000),
            (3, 2),
            (4, 65_535),
        ] {
            let tx = TcpStream::connect(addr).unwrap();
            let (mut rx, _) = listener.accept().unwrap();
            let reader = std::thread::spawn(move || {
                let mut got = Vec::new();
                rx.read_to_end(&mut got).unwrap();
                got
            });
            let mut cursor = FrameCursor { seg, off };
            let before = read_chars();
            write_frame_from(&tx, &head, &body, &mut cursor).unwrap();
            if let (Some(before), Some(after)) = (before, read_chars()) {
                // Only the 128 KiB mapped page goes by `sendfile`; the
                // slack covers the accounting file's own reads.
                let by_sendfile = match seg {
                    0 | 1 => lens[2],
                    2 => lens[2] - off,
                    _ => 0,
                };
                let read = after - before;
                assert!(
                    (by_sendfile..by_sendfile + 4096).contains(&read),
                    "resumed at ({seg}, {off}): {read} bytes read, want {by_sendfile} by sendfile"
                );
            }
            let end = FrameCursor {
                seg: lens.len(),
                off: 0,
            };
            assert_eq!(cursor, end, "a finished write leaves the cursor at the end");
            drop(tx);
            let skip = lens[..seg].iter().sum::<usize>() + off;
            assert!(
                reader.join().unwrap() == wire[skip..],
                "resumed at ({seg}, {off}): the frame's rest, byte-identical"
            );
        }
    }

    #[test]
    fn a_frame_of_more_segments_than_one_writev_takes_arrives_whole() {
        let mut body = ByteChain::new();
        for i in 0..2 * MAX_IOV + 3 {
            body.push(PageBuf::from_vec(vec![i as u8; 1 + i % 5]));
        }
        let head = [7u8; 26];
        let wire = [&head[..], &body.to_vec()].concat();
        let listener = TcpListener::bind(("127.0.0.1", 0)).unwrap();
        let tx = TcpStream::connect(listener.local_addr().unwrap()).unwrap();
        let (mut rx, _) = listener.accept().unwrap();
        let reader = std::thread::spawn(move || {
            let mut got = Vec::new();
            rx.read_to_end(&mut got).unwrap();
            got
        });
        let mut cursor = FrameCursor::default();
        write_frame_from(&tx, &head, &body, &mut cursor).unwrap();
        assert_eq!(cursor.seg, body.segment_count() + 1);
        drop(tx);
        assert!(reader.join().unwrap() == wire, "byte-identical");
    }
}
