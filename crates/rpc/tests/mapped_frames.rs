//! Mapped buffers through the RPC framing path: a page served out of a
//! provider's log mapping must ride frames exactly like a heap page —
//! attached as a shared segment on encode (so the socket sends straight
//! out of the page cache; `sendfile_frames.rs` checks what reaches it),
//! preserved by batching, and lent by refcount on decode. No layer may
//! flatten or copy it.

use blobseer_proto::messages::{method, PutPage};
use blobseer_proto::tree::PageKey;
use blobseer_proto::wire::Wire;
use blobseer_proto::{BlobId, PageBuf, WriteId};
use blobseer_rpc::Frame;
use blobseer_util::copymeter;

const PAGE: usize = 4096; // ≥ SHARE_THRESHOLD: rides as a shared segment

fn mapped_page() -> (PageBuf, std::path::PathBuf) {
    let path = std::env::temp_dir().join(format!(
        "blobseer-rpc-mapped-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let bytes: Vec<u8> = (0..PAGE).map(|i| (i % 249) as u8).collect();
    std::fs::write(&path, &bytes).unwrap();
    let file = std::fs::File::open(&path).unwrap();
    let buf = PageBuf::map_file(&file).unwrap();
    assert!(buf.is_mapped());
    (buf, path)
}

fn key() -> PageKey {
    PageKey {
        blob: BlobId(7),
        write: WriteId(3),
        index: 1,
    }
}

#[test]
fn mapped_payloads_share_through_framing_and_batching() {
    let (page, path) = mapped_page();
    let msg = PutPage {
        key: key(),
        data: page.clone(),
    };

    let before = copymeter::thread_snapshot();
    let frame = Frame::from_msg(method::PUT_PAGE, &msg);
    assert_eq!(
        before.bytes_since(),
        0,
        "framing a mapped page copies nothing"
    );
    assert!(
        frame
            .body
            .segments()
            .iter()
            .any(|s| s.same_allocation(&page)),
        "the mapped page rides the frame as a shared segment"
    );

    // Batching (replica fan-out aggregation) keeps the sharing.
    let other = Frame::from_msg(method::GET_PAGE, &key());
    let before = copymeter::thread_snapshot();
    let batch = Frame::batch(vec![frame.clone(), other]).unwrap();
    assert_eq!(before.bytes_since(), 0, "batching copies nothing");
    assert!(
        batch
            .body
            .segments()
            .iter()
            .any(|s| s.same_allocation(&page)),
        "batched frames still share the mapped allocation"
    );

    let _ = std::fs::remove_file(&path);
}

#[test]
fn decode_lends_regardless_of_sender_backing() {
    let (page, path) = mapped_page();
    let frame = Frame::from_msg(
        method::PUT_PAGE,
        &PutPage {
            key: key(),
            data: page.clone(),
        },
    );

    // Model the receive side: the wire bytes land in one contiguous
    // receive buffer (this flatten is test scaffolding for the kernel's
    // copy, outside the assert window), then decode lends from it.
    let wire = frame.to_chain().to_vec();
    let rx = PageBuf::from_vec(wire);

    let before = copymeter::thread_snapshot();
    let mut r = blobseer_proto::wire::Reader::from_buf(&rx);
    let decoded = Frame::decode(&mut r).unwrap();
    let msg: PutPage = decoded.parse().unwrap();
    assert_eq!(before.bytes_since(), 0, "decode lends, never copies");
    assert_eq!(msg.data, page, "byte-identical across the wire");
    assert!(
        msg.data.same_allocation(&rx),
        "the received payload is a refcounted slice of the receive buffer"
    );

    let _ = std::fs::remove_file(&path);
}
