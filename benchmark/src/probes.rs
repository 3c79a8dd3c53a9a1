//! Instrument I2: direct timed calls on the live deployment's public
//! handles, after the measured region, with workload-shaped inputs on
//! scratch keys and a scratch blob.
//!
//! Each probe isolates one layer's handler from the transport around it:
//! `provider.put_rpc_us` (observed over the wire by I1) minus
//! `provider.put_handle_us` (the handler alone, here) is roughly the
//! transport's share. The `Echo` service does the converse — transport
//! round trips with no handler work.

use crate::harness::{Recorder, KIB};
use crate::stats;
use blobseer_core::Deployment;
use blobseer_meta::read::assemble_read;
use blobseer_meta::write::build_write_tree;
use blobseer_proto::messages::{
    method, BlobInfo, CompleteWrite, CreateBlob, GetPage, MetaGetBatch, MetaGetBatchResp,
    MetaPutBatch, PublishState, PutPage, RemovePage, RequestVersion, WriteTicket,
};
use blobseer_proto::{
    BlobId, Geometry, PageBuf, PageKey, PageLoc, ProviderId, Segment, TreeNode, WriteId,
};
use blobseer_rpc::{parse_response, respond, Ctx, Frame, RpcClient, ServerCtx, Service};
use std::sync::Arc;
use std::time::Instant;

const ITERS: u64 = 200;
/// Payload of the transport probes (the canonical page).
const ECHO_PAYLOAD: u64 = 256 * KIB;
/// Scratch ids no workload allocates.
const SCRATCH_BLOB: BlobId = BlobId(u64::MAX - 7);

const ECHO_SMALL: u16 = 0x7f01;
const ECHO_PUT: u16 = 0x7f02;
const ECHO_GET: u16 = 0x7f03;

/// A service that does no work: what remains is the transport.
struct Echo {
    page: PageBuf,
}

impl Service for Echo {
    fn name(&self) -> &'static str {
        "benchmark-echo"
    }

    fn handle(&self, _ctx: &mut ServerCtx, frame: &Frame) -> Frame {
        match frame.method {
            ECHO_PUT => respond(frame, |p: PageBuf| Ok(p.len() as u64)),
            ECHO_GET => respond(frame, |_: u64| Ok(self.page.clone())),
            _ => respond(frame, |x: u64| Ok(x)),
        }
    }
}

/// Median duration of `f` over [`ITERS`] calls, in µs.
fn median_us(mut f: impl FnMut(u64)) -> f64 {
    let samples: Vec<f64> = (0..ITERS)
        .map(|i| {
            let t0 = Instant::now();
            f(i);
            t0.elapsed().as_nanos() as f64 / 1e3
        })
        .collect();
    stats::median(&samples).unwrap_or(0.0)
}

fn handle<Resp: blobseer_proto::Wire>(svc: &dyn Service, frame: &Frame) -> Resp {
    let resp = svc.handle(&mut ServerCtx::new(0), frame);
    parse_response::<Resp>(&resp).expect("probe handler call")
}

/// Run every probe against `d`, shaped like the workload's ops:
/// `pages_per_op` pages of `geom.page_size` bytes in a blob of
/// `geom.total_size` (the tree depth the version manager and the tree
/// builder see).
pub fn run(d: &Deployment, geom: Geometry, pages_per_op: u64, rec: &mut Recorder) {
    let page_size = geom.page_size;
    let total = geom.total_size;
    let op_bytes = page_size * pages_per_op;
    assert!(op_bytes * ITERS <= total, "probe ops must fit the blob");
    let page = PageBuf::from_vec(vec![0x5a; page_size as usize]);
    let scratch_key = |i: u64| PageKey {
        blob: SCRATCH_BLOB,
        write: WriteId(u64::MAX - 7),
        index: i,
    };

    // proto: a PUT frame must stay O(1) in page size both ways.
    let put_msg = PutPage {
        key: scratch_key(0),
        data: page.clone(),
    };
    let encode = median_us(|_| {
        std::hint::black_box(Frame::from_msg(method::PUT_PAGE, &put_msg));
    });
    let frame = Frame::from_msg(method::PUT_PAGE, &put_msg);
    let decode = median_us(|_| {
        std::hint::black_box(frame.parse::<PutPage>().expect("decode PUT"));
    });
    rec.put("proto.encode_put_us", encode);
    rec.put("proto.decode_put_us", decode);

    // provider: the data half of storage node 0, handler only.
    let node = d.storage[0].as_ref();
    let put = median_us(|i| {
        let f = Frame::from_msg(
            method::PUT_PAGE,
            &PutPage {
                key: scratch_key(i),
                data: page.clone(),
            },
        );
        handle::<()>(node, &f);
    });
    let get = median_us(|i| {
        let f = Frame::from_msg(
            method::GET_PAGE,
            &GetPage {
                key: scratch_key(i),
            },
        );
        std::hint::black_box(handle::<PageBuf>(node, &f));
    });
    for i in 0..ITERS {
        let f = Frame::from_msg(
            method::REMOVE_PAGE,
            &RemovePage {
                key: scratch_key(i),
            },
        );
        handle::<bool>(node, &f);
    }
    rec.put("provider.put_handle_us", put);
    rec.put("provider.get_handle_us", get);

    // manager: planning one op's placement, no RPC.
    let plan = median_us(|_| {
        std::hint::black_box(
            d.manager
                .plan_write(pages_per_op, d.config.replication)
                .expect("probe plan"),
        );
    });
    rec.put("provider.plan_us", plan);

    // version + meta: one scratch blob, a run of op-shaped writes.
    let vm = d.vms[0].as_ref();
    let info: BlobInfo = handle(
        vm,
        &Frame::from_msg(
            method::CREATE_BLOB,
            &CreateBlob {
                total_size: total,
                page_size,
            },
        ),
    );
    let mut assign = Vec::new();
    let mut publish = Vec::new();
    let mut build = Vec::new();
    let mut trees: Vec<Vec<TreeNode>> = Vec::new();
    for i in 0..ITERS {
        let seg = Segment::new(i * op_bytes, op_bytes);
        let write = WriteId(u64::MAX - 1000 - i);
        let request = Frame::from_msg(
            method::REQUEST_VERSION,
            &RequestVersion {
                blob: info.blob,
                write,
                offset: seg.offset,
                size: seg.size,
            },
        );
        let t0 = Instant::now();
        let ticket: WriteTicket = handle(vm, &request);
        assign.push(t0.elapsed().as_nanos() as f64 / 1e3);

        let locs: Vec<PageLoc> = geom
            .pages_touching(&seg)
            .iter()
            .map(|index| PageLoc {
                key: PageKey {
                    blob: info.blob,
                    write,
                    index,
                },
                replicas: vec![ProviderId(d.storage_nodes[0].0)],
            })
            .collect();
        let t0 = Instant::now();
        let nodes =
            build_write_tree(&geom, info.blob, &seg, &locs, &ticket).expect("probe write tree");
        build.push(t0.elapsed().as_nanos() as f64 / 1e3);
        trees.push(nodes);

        let complete = Frame::from_msg(
            method::COMPLETE_WRITE,
            &CompleteWrite {
                blob: info.blob,
                version: ticket.version,
            },
        );
        let t0 = Instant::now();
        let _: PublishState = handle(vm, &complete);
        publish.push(t0.elapsed().as_nanos() as f64 / 1e3);
    }
    rec.put("version.assign_us", stats::median(&assign).unwrap_or(0.0));
    rec.put("version.publish_us", stats::median(&publish).unwrap_or(0.0));
    rec.put("meta.build_tree_us", stats::median(&build).unwrap_or(0.0));

    // dht: the metadata half of storage node 0, one op's tree per call.
    let dht_put = median_us(|i| {
        let f = Frame::from_msg(
            method::META_PUT_BATCH,
            &MetaPutBatch {
                nodes: trees[i as usize].clone(),
            },
        );
        handle::<()>(node, &f);
    });
    let dht_get = median_us(|i| {
        let keys = trees[i as usize].iter().map(|n| n.key).collect();
        let f = Frame::from_msg(method::META_GET_BATCH, &MetaGetBatch { keys });
        std::hint::black_box(handle::<MetaGetBatchResp>(node, &f));
    });
    rec.put("dht.put_handle_us", dht_put);
    rec.put("dht.get_handle_us", dht_get);

    // meta: stitching one op's pages into the caller's buffer.
    let seg = Segment::new(0, op_bytes);
    let pages: Vec<(PageLoc, Segment, PageBuf)> = geom
        .pages_touching(&seg)
        .iter()
        .map(|index| {
            let loc = PageLoc {
                key: scratch_key(index),
                replicas: Vec::new(),
            };
            (loc, geom.page_segment(index), page.clone())
        })
        .collect();
    let assemble = median_us(|_| {
        std::hint::black_box(assemble_read(&geom, &seg, &[], &pages).expect("probe assembly"));
    });
    rec.put("meta.assemble_us", assemble);

    // rpc: pure transport round trips to a service that does nothing.
    let echo_node = d.cluster.add_node();
    d.cluster.bind(
        echo_node,
        Arc::new(Echo {
            page: PageBuf::from_vec(vec![0xa5; ECHO_PAYLOAD as usize]),
        }),
    );
    let rpc = RpcClient::new(d.cluster.transport(), d.cluster.add_node());
    let payload = PageBuf::from_vec(vec![0xa5; ECHO_PAYLOAD as usize]);
    let mut ctx = Ctx::start();
    let _: u64 = rpc
        .call(&mut ctx, echo_node, ECHO_SMALL, &0u64)
        .expect("dial the echo node");
    let small = median_us(|i| {
        let _: u64 = rpc
            .call(&mut ctx, echo_node, ECHO_SMALL, &i)
            .expect("echo small");
    });
    let put_rtt = median_us(|_| {
        let _: u64 = rpc
            .call(&mut ctx, echo_node, ECHO_PUT, &payload)
            .expect("echo put");
    });
    let get_rtt = median_us(|i| {
        let p: PageBuf = rpc
            .call(&mut ctx, echo_node, ECHO_GET, &i)
            .expect("echo get");
        std::hint::black_box(p);
    });
    rec.put("rpc.echo_small_rtt_us", small);
    rec.put("rpc.echo_put256k_rtt_us", put_rtt);
    rec.put("rpc.echo_get256k_rtt_us", get_rtt);
}
