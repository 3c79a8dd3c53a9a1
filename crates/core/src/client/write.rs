//! WRITE (§III.B): provider-manager plan → version + border links from
//! the version manager, with the first page put riding the same burst →
//! the batched metadata puts and the other page puts → completion
//! report. Each page is copied into its own send buffer just before its
//! put leaves: page 0, the lead, while the plan is in flight, the rest
//! once the metadata frames have left. The client's other work rides the
//! round trips too: the metadata — built **in isolation** — has its
//! leaves, which name the planned replicas, woven while the version
//! request and the lead page are out; only the inner nodes wait for the
//! ticket's border links, and the metadata frames leave the moment they
//! are woven, first among the late frames that join the lead page's
//! burst. The write waits for the slower of its page upload and its
//! metadata round, not for both. The paper puts the pages first so that
//! a failed write burns no version; here a page that no replica
//! acknowledged is re-placed away from the providers that failed it, and
//! its leaf re-put, before the completion report, which keeps that
//! guarantee for page failures, and a write whose version request fails
//! takes its lead page back. [`WriteStats::metadata_ns`] still reports
//! the metadata round's own time, overlapped or not.

use super::BlobClient;
use blobseer_meta::write::{weave_inner, weave_leaves};
use blobseer_proto::messages::{
    method, CompleteWrite, PlanWrite, PublishState, PutPage, RemovePage, RequestVersion, WritePlan,
    WriteTicket,
};
use blobseer_proto::tree::{NodeBody, PageKey, PageLoc};
use blobseer_proto::{BlobError, BlobId, NodeId, PageBuf, ProviderId, Segment, Version};
use blobseer_rpc::{Ctx, Frame};
use std::ops::Range;
use std::sync::Arc;

/// Virtual-time breakdown of one WRITE (Figure 3(b)'s instrument).
///
/// The five stage fields partition the write's time, so they sum to
/// [`WriteStats::total_ns`]. Where two pieces of work run side by side —
/// a round trip and the client CPU that rides it, or the page and
/// metadata legs — the span goes to the stage whose work finished last.
/// On the paper's cell the plan outlasts page 0's copy, the only work
/// that may ride it (no page leaves before its placement), so `plan_ns`
/// holds the plan round trip; the leaf weave outlasts the ticket, so
/// `ticket_ns` is 0; the pages take longer than the metadata, so
/// `pages_ns` holds the upload.
/// `meta_leg_ns` holds the metadata leg's own duration whichever leg
/// finished last.
#[derive(Clone, Copy, Debug, Default)]
pub struct WriteStats {
    /// Provider-manager plan round trip, when it outlasted page 0's
    /// copy, which rides it.
    pub plan_ns: u64,
    /// Page 0's copy (the plan round trip included when it finished
    /// first); from the metadata frames' send on, the other pages' copies and the page
    /// leg — the lead put that left with the version request and the
    /// other puts — when it finished last; and any page retry or
    /// re-placement rounds.
    pub pages_ns: u64,
    /// Version + border-link round trip, when it outlasted the leaf weave
    /// that rides it.
    pub ticket_ns: u64,
    /// The leaf weave (the ticket round trip included when it finished
    /// first), the inner weave, the span from the metadata frames' send
    /// when the metadata leg finished last, any leaf re-put, and the
    /// cache warm.
    pub meta_ns: u64,
    /// Completion report round trip.
    pub publish_ns: u64,
    /// The metadata leg's own time, overlapped or not: from the version
    /// request's send to the last `META_PUT_BATCH` reply — the ticket
    /// round trip with the leaf weave that rides it (the longer of the
    /// two), the inner weave, the metadata frames' round, which may queue
    /// on the client's NIC behind the lead page — then any leaf re-put
    /// and the cache warm: the paper's "metadata write".
    pub meta_leg_ns: u64,
    /// Tree nodes this write created.
    pub nodes_built: u64,
}

/// Which [`WriteStats`] stage a span is charged to.
type Stage = fn(&mut WriteStats) -> &mut u64;

impl WriteStats {
    /// The metadata share (the metadata leg, ticket included, + publish)
    /// — what Fig. 3(b) plots. It counts the ticket once, inside the
    /// leg, and counts the leg's own time even where the page leg hid
    /// it, so it is not a share of `total_ns`.
    pub fn metadata_ns(&self) -> u64 {
        self.meta_leg_ns + self.publish_ns
    }

    /// Total time.
    pub fn total_ns(&self) -> u64 {
        self.plan_ns + self.pages_ns + self.ticket_ns + self.meta_ns + self.publish_ns
    }

    /// Charge the virtual time from `mark` to `at` to one stage and move
    /// the mark, returning the time charged: consecutive laps partition
    /// the write's time.
    fn lap(&mut self, at: u64, mark: &mut u64, stage: Stage) -> u64 {
        let ns = at - *mark;
        *stage(self) += ns;
        *mark = at;
        ns
    }

    /// [`WriteStats::lap`] over a span in which two pieces of work ran
    /// side by side, each given as (when it finished, its stage): the
    /// span goes to the one that finished last, `b` on a tie.
    fn lap_to_last(&mut self, at: u64, mark: &mut u64, a: (u64, Stage), b: (u64, Stage)) -> u64 {
        let stage = if a.0 > b.0 { a.1 } else { b.1 };
        self.lap(at, mark, stage)
    }
}

impl BlobClient {
    /// `WRITE(id, buffer, offset, size)` for page-aligned segments.
    /// Returns the snapshot version this write produced (`vw`).
    ///
    /// Each page is copied **once**, into its own [`PageBuf`], just
    /// before its put leaves (see [`BlobClient::write_buf`]); every
    /// replica's put shares that buffer. A segment the blob's geometry
    /// refuses is refused before any copy. Callers that already hold a
    /// `PageBuf` should use [`BlobClient::write_buf`], which performs
    /// zero copies.
    pub fn write(
        &self,
        ctx: &mut Ctx,
        blob: BlobId,
        offset: u64,
        data: &[u8],
    ) -> Result<Version, BlobError> {
        Ok(self.write_with_stats(ctx, blob, offset, data)?.0)
    }

    /// [`BlobClient::write`] with per-phase virtual-time breakdown — the
    /// instrument behind Figure 3(b), which reports the *metadata* share
    /// of a write.
    pub fn write_with_stats(
        &self,
        ctx: &mut Ctx,
        blob: BlobId,
        offset: u64,
        data: &[u8],
    ) -> Result<(Version, WriteStats), BlobError> {
        self.write_data(ctx, blob, offset, data.len() as u64, |r| {
            PageBuf::copy_from_slice(&data[r])
        })
    }

    /// Zero-copy `WRITE`: the caller's buffer is shared, never copied.
    /// Returns the version and the per-phase breakdown.
    ///
    /// The write is four rounds — plan; `REQUEST_VERSION` with the lead
    /// page put; the metadata frames and the other page puts; then
    /// `COMPLETE_WRITE` — and the client's own work rides them instead of
    /// waiting for them. Each page's send buffer (a slice here, a copy
    /// for a borrowed buffer) is made just before its put leaves: page 0
    /// while the plan is in flight, the others once the metadata frames
    /// have left. The lead is page 0's put to its first replica, split
    /// out of that destination's batch when it takes more puts: its
    /// bytes, copied under the plan, leave the moment the plan lands and
    /// are on the wire while the ticket returns and the tree's leaves,
    /// which need only the plan's placement, are woven. Once the inner
    /// nodes have the ticket's links, the third round leaves — as late
    /// frames of the second, whose lead put may still be uploading —
    /// with the `META_PUT_BATCH` frames first, so the write waits for
    /// the slower of its two legs, not for both.
    ///
    /// The pages are the idempotent part (pages are immutable: re-putting
    /// a key re-stores identical bytes). A page no replica acknowledged
    /// is put again under the client's retry policy; once the policy
    /// gives up, the page is re-planned away from every provider that
    /// failed it (`PlanWrite::exclude`), put there, and its leaf re-put
    /// naming where it now lives. A leaf that lost some of its replicas
    /// is re-put naming the ones that acked. All of it happens before
    /// `COMPLETE_WRITE`, so a failed page burns no version, and no reader
    /// sees a leaf of this version before it is published. The shared
    /// cache is warmed only once the publish succeeded. The write still
    /// fails after its ticket, leaving its version unpublished, if no
    /// provider will take a page or a tree node reaches no metadata
    /// replica; `COMPLETE_WRITE` never retries. A write whose version
    /// request fails removes its acknowledged lead page (best effort)
    /// before it returns the error, so it leaves no page behind, and has
    /// made no page buffer but the lead's, page 0.
    pub fn write_buf(
        &self,
        ctx: &mut Ctx,
        blob: BlobId,
        offset: u64,
        data: PageBuf,
    ) -> Result<(Version, WriteStats), BlobError> {
        self.write_data(ctx, blob, offset, data.len() as u64, |r| data.slice(r))
    }

    /// The write pipeline behind every `write*` method (see
    /// [`BlobClient::write_buf`]), for `len` bytes at `offset`. `page`
    /// hands over the bytes at a range of them as one page's send
    /// buffer, which every replica's put shares — a copy of a borrowed
    /// slice, a slice of a shared one — and is called once per page,
    /// after the segment is validated, just before that page's put is
    /// framed; `write_page_ns` is charged with each call.
    fn write_data(
        &self,
        ctx: &mut Ctx,
        blob: BlobId,
        offset: u64,
        len: u64,
        page: impl Fn(Range<usize>) -> PageBuf,
    ) -> Result<(Version, WriteStats), BlobError> {
        let mut mark = ctx.vt;
        let seg = Segment::new(offset, len);
        let (known, _) = self.entry(ctx, blob)?;
        let geom = known.geom;
        let range = geom.validate_aligned(&seg)?;
        let mut stats = WriteStats {
            nodes_built: blobseer_meta::node_count_for_write(&geom, &seg),
            ..WriteStats::default()
        };
        let size = geom.page_size as usize;
        let make = |c: &mut Ctx, i: usize| {
            c.advance(self.costs.write_page_ns);
            page(i * size..(i + 1) * size)
        };

        // Step 1: the provider-manager plan (write id + page placement).
        // While it travels, page 0 — the lead — gets its send buffer.
        let request = PlanWrite {
            blob,
            pages: range.count(),
            replication: self.replication,
            exclude: Vec::new(),
        };
        let mut planning = self.rpc.burst();
        let plan = planning.call(
            ctx,
            (self.pm, Frame::from_msg(method::PLAN_WRITE, &request)),
        );
        let lead_buf = make(ctx, 0);
        let made = ctx.vt;
        let plan = placed(planning.wait(ctx, plan), range.count())?;
        stats.lap_to_last(
            ctx.vt,
            &mut mark,
            (ctx.vt, |s| &mut s.plan_ns),
            (made, |s| &mut s.pages_ns),
        );

        // Step 2: the lead put — page 0 to its first replica, split out
        // of that destination's batch if it takes more puts — travels
        // with the request for the version number + precomputed border
        // links, so page bytes are on the wire while the ticket returns.
        // A lead of more pages would hold the metadata frames behind its
        // bytes on the client's NIC.
        let mut pages: Vec<PageLoc> = range
            .iter()
            .zip(plan.targets)
            .map(|(index, replicas)| PageLoc {
                key: PageKey {
                    blob,
                    write: plan.write,
                    index,
                },
                replicas,
            })
            .collect();
        let lead = (0, pages[0].replicas[0]);
        let request = RequestVersion {
            blob,
            write: plan.write,
            offset: seg.offset,
            size: seg.size,
        };
        let put = PutPage {
            key: pages[0].key,
            data: lead_buf.clone(),
        };
        let mut burst = self.rpc.burst();
        let version = Frame::from_msg(method::REQUEST_VERSION, &request);
        let ticket = burst.call::<WriteTicket>(ctx, (self.vm_for(blob), version));
        let lead_put = burst.call(
            ctx,
            (NodeId(lead.1 .0), Frame::from_msg(method::PUT_PAGE, &put)),
        );

        // Step 3: while that burst travels, the leaves are woven, naming
        // the planned replicas; the inner nodes wait for the ticket's
        // links. The metadata is woven in complete isolation either way.
        ctx.advance(self.costs.build_node_ns * pages.len() as u64);
        let leaves = weave_leaves(&geom, blob, &seg, &pages);
        let woven = ctx.vt;
        let mut granted = Ctx::at(mark);
        let ticket = burst.wait(&mut granted, ticket);
        ctx.join(granted);
        let built =
            ticket.and_then(|ticket| Ok((weave_inner(&geom, &seg, leaves?, &ticket)?, ticket)));
        let (mut nodes, ticket) = match built {
            Ok(built) => built,
            Err(e) => {
                // No version, or no tree for it: take the lead page back,
                // best effort, so the failed write leaves no page behind.
                let lead_acked = burst.wait(ctx, lead_put).is_ok();
                burst.finish(ctx);
                if lead_acked {
                    let removal = RemovePage { key: pages[0].key };
                    let _: Result<bool, _> =
                        self.rpc
                            .call(ctx, NodeId(lead.1 .0), method::REMOVE_PAGE, &removal);
                }
                return Err(e);
            }
        };
        stats.meta_leg_ns += stats.lap_to_last(
            ctx.vt,
            &mut mark,
            (granted.vt, |s| &mut s.ticket_ns),
            (woven, |s| &mut s.meta_ns),
        );
        ctx.advance(self.costs.build_node_ns * (nodes.len() - pages.len()) as u64);
        stats.meta_leg_ns += stats.lap(ctx.vt, &mut mark, |s| &mut s.meta_ns);

        // Then the metadata frames join the burst as late frames, and
        // after them the other pages, each copied just before: the small
        // batches go ahead of the other pages.
        let (put, frames) = self.dht.put_frames(&nodes);
        let metas = burst.send(ctx, frames);
        let mut bufs = vec![lead_buf];
        bufs.extend((1..pages.len()).map(|i| make(ctx, i)));
        let (frames, page_of) = page_puts(&bufs, &pages, |i, p| (i, p) != lead);
        let puts = burst.send(ctx, frames);

        // The rest is charged to the leg that finished last, the lead's
        // page leg included; the metadata leg's own share is kept apart.
        let (mut meta_leg, mut page_leg) = (Ctx::at(mark), Ctx::at(mark));
        let stored = burst.wait_all(&mut meta_leg, metas);
        let lead_acked = burst.wait(&mut page_leg, lead_put);
        let acks = burst.wait_all(&mut page_leg, puts);
        burst.finish(ctx);
        stats.meta_leg_ns += meta_leg.vt - mark;
        stats.lap_to_last(
            ctx.vt,
            &mut mark,
            (meta_leg.vt, |s| &mut s.meta_ns),
            (page_leg.vt, |s| &mut s.pages_ns),
        );
        let mut acked: Vec<Vec<ProviderId>> = vec![Vec::new(); pages.len()];
        let lead_err = absorb_puts(&[lead], [lead_acked], &mut acked);
        self.dht.finish_put(put, stored)?;

        // Every page needs one acknowledged replica before the publish.
        let mut last_err = absorb_puts(&page_of, acks, &mut acked).or(lead_err);
        let mut excluded: Vec<ProviderId> = Vec::new();
        let mut attempt = 0u32;
        while acked.iter().any(Vec::is_empty) {
            let err = last_err.unwrap_or(BlobError::Internal("page put failed"));
            if self.backoff(ctx, attempt, &err).is_some() {
                attempt += 1;
            } else {
                // The policy gave up on these placements: re-place the
                // lost pages away from every provider that failed one.
                let lost: Vec<usize> = (0..pages.len()).filter(|&i| acked[i].is_empty()).collect();
                for &i in &lost {
                    for p in &pages[i].replicas {
                        if !excluded.contains(p) {
                            excluded.push(*p);
                        }
                    }
                }
                let request = PlanWrite {
                    blob,
                    pages: lost.len() as u64,
                    replication: self.replication,
                    exclude: excluded.clone(),
                };
                let plan = self.rpc.call(ctx, self.pm, method::PLAN_WRITE, &request);
                let Ok(plan) = placed(plan, request.pages) else {
                    return Err(err);
                };
                for (&i, targets) in lost.iter().zip(plan.targets) {
                    pages[i].replicas = targets;
                }
            }
            let (frames, page_of) = page_puts(&bufs, &pages, |i, _| acked[i].is_empty());
            let acks = self.rpc.call_all(ctx, frames);
            last_err = absorb_puts(&page_of, acks, &mut acked);
        }
        stats.lap(ctx.vt, &mut mark, |s| &mut s.pages_ns);

        // A leaf names the replicas that hold its page: re-put any whose
        // replicas changed, before the version is visible.
        let mut moved = Vec::new();
        for node in &mut nodes {
            if let NodeBody::Leaf { page } = &mut node.body {
                let holders = &mut acked[(page.key.index - range.start) as usize];
                if page.replicas != *holders {
                    page.replicas = std::mem::take(holders);
                    moved.push(node.clone());
                }
            }
        }
        self.dht.put_nodes(ctx, &moved)?;
        stats.meta_leg_ns += stats.lap(ctx.vt, &mut mark, |s| &mut s.meta_ns);

        // Report success; the version manager publishes in order.
        let publish: PublishState = self.rpc.call(
            ctx,
            self.vm_for(blob),
            method::COMPLETE_WRITE,
            &CompleteWrite {
                blob,
                version: ticket.version,
            },
        )?;
        stats.lap(ctx.vt, &mut mark, |s| &mut s.publish_ns);
        known.observe(publish.latest);
        if let Some(cache) = &self.cache {
            // Best effort: a writer never blocks on a contended cache
            // shard just to pre-warm readers — a skipped insert costs at
            // most one DHT fetch later.
            ctx.advance(self.costs.cache_ns * nodes.len() as u64);
            for n in nodes {
                cache.try_insert(n.key, Arc::new(n.body));
            }
            stats.meta_leg_ns += stats.lap(ctx.vt, &mut mark, |s| &mut s.meta_ns);
        }
        Ok((ticket.version, stats))
    }
}

/// A `PLAN_WRITE` reply for `pages` pages, refused unless it places
/// every one of them.
pub(super) fn placed(
    plan: Result<WritePlan, BlobError>,
    pages: u64,
) -> Result<WritePlan, BlobError> {
    let plan = plan?;
    if plan.targets.len() as u64 != pages {
        return Err(BlobError::Internal("write plan page count mismatch"));
    }
    if plan.targets.iter().any(Vec::is_empty) {
        return Err(BlobError::Internal("write plan leaves a page unplaced"));
    }
    Ok(plan)
}

/// One round of page puts: a `PUT_PAGE` to every replica of every page
/// that `wanted` names (by page and replica), each carrying that page's
/// send buffer from `bufs` (the burst moves refcounts, not bytes), and
/// the (page, replica) each frame is for.
#[allow(clippy::type_complexity)]
fn page_puts(
    bufs: &[PageBuf],
    pages: &[PageLoc],
    wanted: impl Fn(usize, ProviderId) -> bool,
) -> (Vec<(NodeId, Frame)>, Vec<(usize, ProviderId)>) {
    let mut frames = Vec::new();
    let mut page_of = Vec::new();
    for (i, (loc, data)) in pages.iter().zip(bufs).enumerate() {
        let put = PutPage {
            key: loc.key,
            data: data.clone(),
        };
        for &target in loc.replicas.iter().filter(|&&p| wanted(i, p)) {
            frames.push((NodeId(target.0), Frame::from_msg(method::PUT_PAGE, &put)));
            page_of.push((i, target));
        }
    }
    (frames, page_of)
}

/// Record the replicas that acknowledged a round of [`page_puts`];
/// returns the last failure, if any.
fn absorb_puts(
    page_of: &[(usize, ProviderId)],
    acks: impl IntoIterator<Item = Result<(), BlobError>>,
    acked: &mut [Vec<ProviderId>],
) -> Option<BlobError> {
    let mut last_err = None;
    for (&(i, target), ack) in page_of.iter().zip(acks) {
        match ack {
            Ok(()) => acked[i].push(target),
            Err(e) => last_err = Some(e),
        }
    }
    last_err
}
