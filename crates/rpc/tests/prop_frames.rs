//! Property tests: frames and aggregated batch frames carrying payload
//! buffers round-trip through both the chain (in-process) and flat
//! (socket) representations, with payload sharing preserved on the
//! chain path.

use blobseer_proto::messages::{method, MetaGetBatch, MetaPutBatch};
use blobseer_proto::wire::{ByteChain, Wire, WireBuf, SHARE_THRESHOLD};
use blobseer_proto::{CodecError, PageBuf};
use blobseer_rpc::Frame;
use proptest::prelude::*;

/// Varint bytes: `values` in their canonical encoding.
fn varints(values: &[u64]) -> Vec<u8> {
    let mut out = WireBuf::new();
    for &v in values {
        out.put_varint(v);
    }
    out.finish().to_vec()
}

/// Tree-node encodings no encoder writes, each with the typed error it
/// must decode to. A leaf body is tag 4 over varints; a node key is four
/// varints, the first of which each varint case corrupts.
fn hostile_nodes() -> Vec<(&'static str, Vec<u8>, CodecError)> {
    let rest_of_key = varints(&[1, 0, 1024]);
    let leaf = |tail: &[u8]| [&varints(&[3, 1, 0, 1024])[..], &[4], tail].concat();
    let bad = |reason| CodecError::BadVarint { reason };
    let mut eleven = vec![0xff; 9];
    eleven.extend_from_slice(&[0x81, 0x01]);
    let mut overflow = vec![0xff; 9];
    overflow.push(0x02);
    vec![
        (
            "overlong",
            [&[0x83, 0x00][..], &rest_of_key].concat(),
            bad("overlong"),
        ),
        (
            "11 bytes",
            [&eleven[..], &rest_of_key].concat(),
            bad("longer than ten bytes"),
        ),
        (
            "overflowing 10th byte",
            [&overflow[..], &rest_of_key].concat(),
            bad("overflows u64"),
        ),
        (
            "truncated",
            vec![0x83, 0x80],
            // Both bytes continue the varint: it needs a third.
            CodecError::UnexpectedEof {
                needed: 3,
                remaining: 2,
            },
        ),
        (
            "replica count 2^40",
            leaf(&varints(&[3, 9, 1, 1 << 40])),
            CodecError::LengthOverflow { declared: 1 << 40 },
        ),
    ]
}

#[test]
fn hostile_varints_in_frames_are_typed_errors() {
    for (case, node, want) in hostile_nodes() {
        // A one-node `META_PUT_BATCH` (u32 count, then the node) and a
        // one-key `META_GET_BATCH` (u32 count, then the key's bytes), as
        // they would arrive on a socket, batched with a good frame.
        let body = [&1u32.to_le_bytes()[..], &node].concat();
        let put = Frame {
            method: method::META_PUT_BATCH,
            body: ByteChain::from(body.clone()),
        };
        let get = Frame {
            method: method::META_GET_BATCH,
            body: ByteChain::from(body),
        };
        let good = Frame::from_msg(method::META_PUT_BATCH, &MetaPutBatch { nodes: vec![] });
        let flat = Frame::batch(vec![good, put, get]).unwrap().to_wire();
        let frames = Frame::from_buf(&PageBuf::from_vec(flat))
            .unwrap()
            .unbatch()
            .unwrap()
            .unwrap();
        assert_eq!(frames[0].parse::<MetaPutBatch>().unwrap().nodes, vec![]);
        assert_eq!(frames[1].parse::<MetaPutBatch>(), Err(want), "{case}");
        if case != "replica count 2^40" {
            // The key alone is what corrupts the node.
            assert_eq!(frames[2].parse::<MetaGetBatch>(), Err(want), "{case}");
        }
    }
}

fn arb_payload() -> impl Strategy<Value = PageBuf> {
    proptest::collection::vec(any::<u8>(), 0..4096).prop_map(PageBuf::from_vec)
}

fn arb_frame() -> impl Strategy<Value = Frame> {
    (any::<u16>(), arb_payload()).prop_map(|(method, data)| Frame::from_msg(method, &data))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn frames_roundtrip_flat_and_chained(frame in arb_frame()) {
        // Socket path: flatten to contiguous bytes and decode.
        let flat = frame.to_wire();
        prop_assert_eq!(Frame::from_wire(&flat).unwrap(), frame.clone());
        // In-process path: decode from the chain.
        prop_assert_eq!(Frame::from_chain(&frame.to_chain()).unwrap(), frame);
    }

    #[test]
    fn batches_roundtrip_with_shared_payloads(
        payloads in proptest::collection::vec(arb_payload(), 0..12),
    ) {
        let frames: Vec<Frame> =
            payloads.iter().map(|p| Frame::from_msg(0x0101, p)).collect();
        let batch = Frame::batch(frames.clone()).unwrap();

        // Unbatching the in-process representation returns equal frames,
        // and large payloads come back sharing the original allocations.
        let unpacked = batch.unbatch().unwrap().unwrap();
        prop_assert_eq!(unpacked.len(), frames.len());
        for (orig, (got, payload)) in
            frames.iter().zip(unpacked.iter().zip(&payloads))
        {
            prop_assert_eq!(got, orig);
            let back: PageBuf = got.parse().unwrap();
            prop_assert_eq!(&back, payload);
            if payload.len() >= SHARE_THRESHOLD {
                prop_assert!(
                    back.same_allocation(payload),
                    "batched payload must be lent by refcount"
                );
            }
        }

        // The flattened batch (what a socket would carry) decodes to the
        // same frames.
        let flat = batch.to_wire();
        prop_assert_eq!(flat.len(), batch.wire_size());
        let reparsed = Frame::from_wire(&flat).unwrap();
        let unpacked2 = reparsed.unbatch().unwrap().unwrap();
        prop_assert_eq!(unpacked2, frames);
    }

    #[test]
    fn truncated_batches_fail_cleanly(
        payloads in proptest::collection::vec(arb_payload(), 1..6),
        cut in 1usize..64,
    ) {
        let frames: Vec<Frame> =
            payloads.iter().map(|p| Frame::from_msg(7, p)).collect();
        let mut flat = Frame::batch(frames).unwrap().to_wire();
        let cut = cut.min(flat.len() - 1);
        flat.truncate(flat.len() - cut);
        prop_assert!(Frame::from_wire(&flat).is_err());
    }

    #[test]
    fn nested_batches_roundtrip(
        inner_payload in arb_payload(),
        n_inner in 1usize..4,
    ) {
        // Batches of batches (a relay aggregating already-aggregated
        // traffic) keep working; sharing survives one more level.
        let leaf = Frame::from_msg(1, &inner_payload);
        let inner = Frame::batch(vec![leaf; n_inner]).unwrap();
        let outer = Frame::batch(vec![inner.clone(), inner.clone()]).unwrap();
        let unpacked = outer.unbatch().unwrap().unwrap();
        prop_assert_eq!(unpacked.len(), 2);
        let inner_back = unpacked[0].unbatch().unwrap().unwrap();
        prop_assert_eq!(inner_back.len(), n_inner);
        let payload_back: PageBuf = inner_back[0].parse().unwrap();
        prop_assert_eq!(&payload_back, &inner_payload);
        if inner_payload.len() >= SHARE_THRESHOLD {
            prop_assert!(payload_back.same_allocation(&inner_payload));
        }
    }

    #[test]
    fn truncated_socket_bytes_never_panic(
        payloads in proptest::collection::vec(arb_payload(), 0..6),
        keep in 0usize..8192,
    ) {
        // The socket receive path: bytes arrive in one PageBuf and are
        // decoded via Reader::from_buf. Every possible truncation point
        // must produce Err, never a panic-slice or an over-allocation.
        let frames: Vec<Frame> =
            payloads.iter().map(|p| Frame::from_msg(3, p)).collect();
        let flat = Frame::batch(frames).unwrap().to_wire();
        let keep = keep.min(flat.len().saturating_sub(1));
        let buf = PageBuf::from_vec(flat[..keep].to_vec());
        prop_assert!(Frame::from_buf(&buf).is_err());
    }

    #[test]
    fn bit_flipped_socket_bytes_never_panic(
        payloads in proptest::collection::vec(arb_payload(), 1..6),
        flips in proptest::collection::vec((0usize..8192, 0u8..8), 1..8),
    ) {
        // Corrupt-but-complete frames: flip bits anywhere (including
        // inside length prefixes). Decode may fail or may yield a
        // different but valid frame — it must never panic and never
        // read out of bounds.
        let frames: Vec<Frame> =
            payloads.iter().map(|p| Frame::from_msg(5, p)).collect();
        let mut flat = Frame::batch(frames).unwrap().to_wire();
        for (pos, bit) in flips {
            let pos = pos % flat.len();
            flat[pos] ^= 1 << bit;
        }
        let buf = PageBuf::from_vec(flat);
        if let Ok(frame) = Frame::from_buf(&buf) {
            // Whatever decoded must also survive its own unbatch/parse.
            if let Some(Ok(subs)) = frame.unbatch() {
                for s in subs {
                    let _ = s.parse::<PageBuf>();
                }
            }
        }
    }

    #[test]
    fn subchain_equals_flat_slicing(
        bytes in proptest::collection::vec(any::<u8>(), 1..2048),
        splits in proptest::collection::vec(1usize..2048, 0..4),
        window in (0usize..2048, 0usize..2048),
    ) {
        // A chain assembled from arbitrary splits of a byte string is
        // indistinguishable from the flat string under subchain/to_vec.
        let mut chain = ByteChain::new();
        let mut rest: &[u8] = &bytes;
        for s in splits {
            let cut = s.min(rest.len());
            let (a, b) = rest.split_at(cut);
            chain.push(PageBuf::copy_from_slice(a));
            rest = b;
        }
        chain.push(PageBuf::copy_from_slice(rest));
        prop_assert_eq!(chain.len(), bytes.len());
        prop_assert_eq!(chain.to_vec(), bytes.clone());
        let start = window.0.min(bytes.len());
        let len = window.1.min(bytes.len() - start);
        prop_assert_eq!(chain.subchain(start, len).to_vec(), bytes[start..start + len].to_vec());
    }
}
