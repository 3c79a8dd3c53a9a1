//! Property tests for the wire codec: arbitrary-value round trips and
//! robustness of the decoder against corrupted bytes.

use blobseer_proto::messages::*;
use blobseer_proto::tree::{ChildVersions, NodeBody, NodeKey, PageKey, PageLoc, TreeNode};
use blobseer_proto::PageBuf;
use blobseer_proto::{BlobId, ProviderId, Wire, WriteId};
use proptest::prelude::*;

/// A `u64` of any varint width: every bit length 0..=64 is as likely, so
/// one-byte values and ten-byte ones both turn up.
fn arb_varint() -> impl Strategy<Value = u64> {
    (0u32..=64, any::<u64>()).prop_map(|(bits, v)| match bits {
        0 => 0,
        64 => v,
        _ => v & ((1u64 << bits) - 1),
    })
}

fn arb_node_key() -> impl Strategy<Value = NodeKey> {
    (arb_varint(), arb_varint(), arb_varint(), arb_varint()).prop_map(|(b, v, o, s)| NodeKey {
        blob: BlobId(b),
        version: v,
        offset: o,
        size: s,
    })
}

fn arb_page_loc() -> impl Strategy<Value = PageLoc> {
    (
        arb_varint(),
        arb_varint(),
        arb_varint(),
        proptest::collection::vec(arb_varint().prop_map(|v| v as u32), 0..4),
    )
        .prop_map(|(b, w, i, reps)| PageLoc {
            key: PageKey {
                blob: BlobId(b),
                write: WriteId(w),
                index: i,
            },
            replicas: reps.into_iter().map(ProviderId).collect(),
        })
}

fn arb_tree_node() -> impl Strategy<Value = TreeNode> {
    (
        arb_node_key(),
        prop_oneof![
            proptest::collection::vec(arb_varint(), 2..33).prop_map(|versions| NodeBody::Inner {
                children: ChildVersions::new(&versions).unwrap(),
            }),
            arb_page_loc().prop_map(|page| NodeBody::Leaf { page }),
        ],
    )
        .prop_map(|(key, body)| TreeNode { key, body })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn page_keys_roundtrip_in_their_hinted_bytes(loc in arb_page_loc(), data in any::<u8>()) {
        // One encoding, in a page frame and in a leaf's locator alike:
        // three varints.
        let key = loc.key;
        let bytes = key.to_wire();
        prop_assert_eq!(bytes.len(), key.wire_hint());
        prop_assert!((3..=30).contains(&bytes.len()));
        prop_assert_eq!(PageKey::from_wire(&bytes).unwrap(), key);
        prop_assert_eq!(&loc.to_wire()[..bytes.len()], &bytes[..]);
        prop_assert_eq!(&GetPage { key }.to_wire()[..], &bytes[..]);
        let put = PutPage { key, data: PageBuf::from_vec(vec![data]) };
        prop_assert_eq!(&put.to_wire()[..bytes.len()], &bytes[..]);
        prop_assert_eq!(PutPage::from_wire(&put.to_wire()).unwrap(), put);
    }

    #[test]
    fn node_keys_roundtrip_in_their_hinted_bytes(key in arb_node_key()) {
        let bytes = key.to_wire();
        prop_assert_eq!(bytes.len(), key.wire_hint());
        prop_assert!((4..=40).contains(&bytes.len()));
        prop_assert_eq!(NodeKey::from_wire(&bytes).unwrap(), key);
    }

    #[test]
    fn tree_nodes_roundtrip(node in arb_tree_node()) {
        let bytes = node.to_wire();
        // Exact: the journal sizes every record from the hint.
        prop_assert_eq!(bytes.len(), node.wire_hint());
        prop_assert_eq!(bytes.len(), node.key.wire_hint() + node.body.wire_hint());
        prop_assert_eq!(TreeNode::from_wire(&bytes).unwrap(), node.clone());
        // Each value has one encoding: a decoded node re-encodes to the
        // same bytes.
        prop_assert_eq!(TreeNode::from_wire(&bytes).unwrap().to_wire(), bytes);
    }

    #[test]
    fn batches_roundtrip(nodes in proptest::collection::vec(arb_tree_node(), 0..20)) {
        let msg = MetaPutBatch { nodes };
        let bytes = msg.to_wire();
        prop_assert_eq!(bytes.len(), msg.wire_hint());
        prop_assert_eq!(MetaPutBatch::from_wire(&bytes).unwrap(), msg);
    }

    #[test]
    fn tickets_roundtrip(
        version in any::<u64>(),
        borders in proptest::collection::vec(any::<u64>(), 0..64)
    ) {
        let t = WriteTicket { version, borders };
        prop_assert_eq!(WriteTicket::from_wire(&t.to_wire()).unwrap(), t);
    }

    #[test]
    fn pages_roundtrip(data in proptest::collection::vec(any::<u8>(), 0..2048)) {
        let msg = PutPage {
            key: PageKey { blob: BlobId(1), write: WriteId(2), index: 3 },
            data: PageBuf::from_vec(data),
        };
        prop_assert_eq!(PutPage::from_wire(&msg.to_wire()).unwrap(), msg);
        // The zero-copy chain path must agree with the flat path.
        prop_assert_eq!(PutPage::from_chain(&msg.to_chain()).unwrap(), msg);
    }

    #[test]
    fn sliced_pages_roundtrip_shared(
        backing in proptest::collection::vec(any::<u8>(), 1..6000),
        start_frac in 0u64..1000,
        len_frac in 0u64..1000,
    ) {
        // A page that is an arbitrary sub-slice of a larger allocation
        // (the client splitting a write buffer) must round-trip through
        // the codec, and large slices must come back shared, not copied.
        let backing = PageBuf::from_vec(backing);
        let start = (start_frac as usize * backing.len() / 1000).min(backing.len());
        let len = (len_frac as usize * (backing.len() - start) / 1000).min(backing.len() - start);
        let page = backing.slice(start..start + len);
        let msg = PutPage {
            key: PageKey { blob: BlobId(9), write: WriteId(9), index: 0 },
            data: page.clone(),
        };
        let chain = msg.to_chain();
        let back = PutPage::from_chain(&chain).unwrap();
        prop_assert_eq!(&back, &msg);
        if len >= blobseer_proto::wire::SHARE_THRESHOLD {
            prop_assert!(
                back.data.same_allocation(&backing),
                "large payloads must be lent by refcount"
            );
        }
        // Flat (socket-style) bytes decode to the same value too.
        prop_assert_eq!(PutPage::from_wire(&chain.to_vec()).unwrap(), msg);
    }

    #[test]
    fn truncation_never_panics(node in arb_tree_node(), cut in 0usize..64) {
        // Decoding any prefix must fail cleanly, never panic or loop.
        let bytes = node.to_wire();
        let cut = cut.min(bytes.len());
        let prefix = &bytes[..bytes.len() - cut];
        let _ = TreeNode::from_wire(prefix); // Ok(_) only when cut == 0
        if cut > 0 {
            prop_assert!(TreeNode::from_wire(prefix).is_err());
        }
    }

    #[test]
    fn bit_flips_never_panic(node in arb_tree_node(), pos in any::<prop::sample::Index>(), bit in 0u8..8) {
        // A single flipped bit must at worst produce a decode error or a
        // different (valid) value — never a panic or huge allocation.
        let mut bytes = node.to_wire();
        let i = pos.index(bytes.len());
        bytes[i] ^= 1 << bit;
        let _ = TreeNode::from_wire(&bytes);
    }

    #[test]
    fn random_bytes_never_panic(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
        let _ = TreeNode::from_wire(&bytes);
        let _ = WriteTicket::from_wire(&bytes);
        let _ = MetaGetBatchResp::from_wire(&bytes);
        let _ = GcPlan::from_wire(&bytes);
        let _ = WritePlan::from_wire(&bytes);
    }
}
