//! The metadata tree's shape, pinned where it is exact: the costed
//! simulator with the paper's Grid'5000 costs and caching disabled (the
//! `sim_paper` cell). A 256 MiB blob of 256 KiB pages is 1,024 pages —
//! on the 32-way tree a root of 32 children over one full 32-way level,
//! 3 levels where the 16-way tree had 4 and the binary tree 11. Every
//! count here is a protocol fact: the same on every run and every host.

use blobseer_core::{Deployment, DeploymentConfig};
use blobseer_proto::{Geometry, Segment};
use blobseer_rpc::Ctx;

const MIB: u64 = 1 << 20;
const PAGE: u64 = 256 << 10;
const TOTAL: u64 = 256 * MIB;
const SEG: u64 = MIB;

/// Simulated messages of the two writes, then the read: a request and
/// a response per call (or batch of calls to one node). A write is the
/// plan, the pages, the ticket, its 6 nodes batched per DHT node, the
/// publish; the read is `latest`, 3 descent rounds batched per DHT node,
/// the pages. How many DHT nodes a level spans depends on where its
/// keys hash, which is fixed — so the counts are exact. The 16-way tree
/// sent [24, 22, 22] for the same writes and read. The second write's
/// lead, page 0, shares its provider with another page, so it is split
/// out of that batch: 2 messages more than when the lead was a page
/// whose provider took no other put (18).
const MSGS: [u64; 3] = [22, 20, 20];

#[test]
fn sim_paper_writes_build_six_nodes_and_reads_descend_three_levels() {
    // One descent round per level: the root plus 2 levels below it
    // (16-way: 1 + 3, binary: 1 + 10). `MSGS` pins what those rounds
    // send.
    assert_eq!(Geometry::new(TOTAL, PAGE).unwrap().tree_height() + 1, 3);
    let d = Deployment::build(DeploymentConfig::grid5000(8));
    assert_eq!(d.config.cache_nodes, 0, "the paper's worst case: no cache");
    let c = d.client();
    let mut ctx = Ctx::start();
    let blob = c.alloc(&mut ctx, TOTAL, PAGE).unwrap().blob;

    // Two aligned 1 MiB writes on either side of an 8 MiB boundary (the
    // size of a node one level up from the leaves).
    let mut msgs = Vec::new();
    for (i, offset) in [7 * MIB, 8 * MIB].into_iter().enumerate() {
        let data = vec![i as u8 + 1; SEG as usize];
        let before = d.cluster.message_count();
        let (_, stats) = c.write_with_stats(&mut ctx, blob, offset, &data).unwrap();
        msgs.push(d.cluster.message_count() - before);
        // Root, one 8 MiB node, 4 leaves (16-way: 7, binary: 15).
        assert_eq!(stats.nodes_built, 6, "write at {offset}");
    }

    // A page-aligned 1 MiB read straddling the two 8 MiB nodes.
    let seg = Segment::new(7 * MIB + 2 * PAGE, SEG);
    let before = d.cluster.message_count();
    let (data, _, stats) = c.read_with_stats(&mut ctx, blob, None, seg).unwrap();
    msgs.push(d.cluster.message_count() - before);
    let (first, second) = data.split_at(data.len() / 2);
    assert!(first.iter().all(|&b| b == 1) && second.iter().all(|&b| b == 2));
    // Root, two 8 MiB nodes, 4 leaves (16-way: 8, binary: 18).
    assert_eq!(stats.nodes_visited, 7);
    assert_eq!(msgs, MSGS);
}
