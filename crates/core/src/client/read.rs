//! READ (§III.B): a level-by-level descent of the segment tree with
//! *batched, parallel* metadata fetches, then *parallel* page downloads
//! — no lock anywhere, no interaction with any writer. Each step waits
//! only for the reply it consumes: each metadata message is decoded as
//! it lands, each leaf's page fetch leaves the moment that leaf is
//! decoded, and each page is stitched as its reply lands. The version
//! check rides the read's first fetch (see `read_once`).

use super::land::{Dest, Out};
use super::{BlobClient, KnownBlob};
use blobseer_meta::read::{expand, root_key, Visit};
use blobseer_proto::messages::{method, GetLatest, GetPage};
use blobseer_proto::tree::{NodeBody, NodeKey, PageKey, PageLoc};
use blobseer_proto::{BlobError, BlobId, Geometry, NodeId, PageBuf, ProviderId, Segment, Version};
use blobseer_rpc::{Burst, Ctx, Frame, Slot};
use blobseer_util::FxHashMap;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Virtual-time breakdown of one READ (Figure 3(a)'s instrument).
///
/// The stages partition the read's time. The version check travels in
/// the same burst as the read's first metadata or page fetch, and a
/// burst is charged to the stage of the work it carried: a read whose
/// frontier floor was already the latest version has `latest_ns == 0`.
/// The leaf burst carries both the leaves and the pages, so it is split
/// where the last leaf was decoded: the descent before, the pages —
/// downloads and stitches — after.
#[derive(Clone, Copy, Debug, Default)]
pub struct ReadStats {
    /// The version check, when it cost time of its own: a blob
    /// descriptor fetched by this read, or a `GET_LATEST` with nothing
    /// to ride with (no floor yet, a pinned version above the floor, a
    /// version-0 or all-zero range).
    pub latest_ns: u64,
    /// Tree descent with batched metadata fetches — what Fig. 3(a)
    /// plots: each level up to its last node decoded (or its last reply,
    /// the version check's included, if that came later), the leaf level
    /// up to its last leaf decoded, plus any replica rounds for leaves
    /// missing on their primary.
    pub meta_ns: u64,
    /// Parallel page downloads, each page stitched into the result as it
    /// lands: from the last leaf decoded to the last page's stitch, one
    /// `page_ns` after that page's arrival when it arrives last,
    /// whichever pages had already left with earlier leaves.
    pub data_ns: u64,
    /// Tree nodes visited in the version the read returned.
    pub nodes_visited: u64,
    /// Burst fetches dropped because the frontier moved: tree nodes and
    /// pages fetched for the floor's version that the newer version's
    /// tree did not use. Zero on a confirmed read.
    pub refetched: u64,
}

impl ReadStats {
    /// The metadata share (latest + descent).
    pub fn metadata_ns(&self) -> u64 {
        self.latest_ns + self.meta_ns
    }

    /// Total time.
    pub fn total_ns(&self) -> u64 {
        self.latest_ns + self.meta_ns + self.data_ns
    }
}

/// A leaf a READ resolved: the page it names, the bytes of the read
/// that page serves, and the replica the page's fetch starts at.
#[derive(Clone)]
struct LeafPage {
    loc: PageLoc,
    range: Segment,
    start: usize,
}

impl LeafPage {
    /// The page's `GET_PAGE`, to the replica its fetch starts at.
    /// Well-formed leaves always carry at least one replica; a malformed
    /// one routes to an impossible node and surfaces as `MissingPage`
    /// through the normal failover path.
    fn get(&self) -> (NodeId, Frame) {
        let first = self.loc.replicas.get(self.start).copied();
        let to = NodeId(first.unwrap_or(ProviderId(u32::MAX)).0);
        (
            to,
            Frame::from_msg(method::GET_PAGE, &GetPage { key: self.loc.key }),
        )
    }
}

/// A read's version check.
enum Check {
    /// Still owed: `GET_LATEST` rides the read's next fetch, and its
    /// answer raises the blob's floor.
    Owed { vm: NodeId, known: Arc<KnownBlob> },
    /// The latest published version, as this read observed it.
    Answered(Version),
}

/// One READ in progress: what it asked for and what it has learned.
struct ReadState {
    blob: BlobId,
    geom: Geometry,
    seg: Segment,
    /// The pinned version, if any.
    version: Option<Version>,
    /// The version whose tree the read is descending.
    target: Version,
    check: Check,
    /// Pages a dropped burst brought, by key. Pages are immutable per
    /// key, so the newer tree reuses any it names.
    spare: FxHashMap<PageKey, PageBuf>,
    stats: ReadStats,
    /// Where the stats' last lap ended.
    mark: u64,
}

impl ReadState {
    /// Charge the virtual time from the mark to `at` to one stage and
    /// move the mark there: consecutive laps partition the read's time.
    fn lap(&mut self, at: u64, stage: fn(&mut ReadStats) -> &mut u64) {
        *stage(&mut self.stats) += at - self.mark;
        self.mark = at;
    }

    /// Send `GET_LATEST` in `burst`, if the read still owes its version
    /// check.
    fn ask(&self, ctx: &Ctx, burst: &mut Burst<'_>) -> Option<Slot<Version>> {
        let Check::Owed { vm, .. } = &self.check else {
            return None;
        };
        let check = Frame::from_msg(method::GET_LATEST, &GetLatest { blob: self.blob });
        Some(burst.call(ctx, (*vm, check)))
    }

    /// Take the version check's answer: it raises the blob's floor, and
    /// may move the target ([`ReadState::settle`]). Returns whether it
    /// did.
    fn answer(&mut self, latest: Result<Version, BlobError>) -> Result<bool, BlobError> {
        let latest = latest?;
        if let Check::Owed { known, .. } = &self.check {
            known.observe(latest);
        }
        self.check = Check::Answered(latest);
        self.settle(latest)
    }

    /// Judge the descended target against `latest`: a pinned version
    /// above it is not published; a `read(None)` whose floor was not the
    /// latest version moves to it. Returns whether the target moved.
    fn settle(&mut self, latest: Version) -> Result<bool, BlobError> {
        match self.version {
            Some(v) if v > latest => Err(BlobError::VersionNotPublished {
                requested: v,
                latest,
            }),
            Some(_) => Ok(false),
            None => Ok(std::mem::replace(&mut self.target, latest) != latest),
        }
    }
}

impl BlobClient {
    /// `READ(id, v, buffer, offset, size)`.
    ///
    /// * `version: None` reads the latest published snapshot.
    /// * `version: Some(v)` fails with
    ///   [`BlobError::VersionNotPublished`] if `v` has not been published —
    ///   exactly the paper's semantics.
    ///
    /// Returns the bytes and `vr`, the latest published version observed
    /// (`vr >= v` always holds). Each page is copied exactly once, from
    /// the (shared) fetched buffer into the result, the moment its reply
    /// lands.
    pub fn read(
        &self,
        ctx: &mut Ctx,
        blob: BlobId,
        version: Option<Version>,
        seg: Segment,
    ) -> Result<(Vec<u8>, Version), BlobError> {
        let (data, latest, _) = self.read_with_stats(ctx, blob, version, seg)?;
        Ok((data, latest))
    }

    /// [`BlobClient::read`] with a virtual-time breakdown — the instrument
    /// behind Figure 3(a), which reports the *metadata* share of a read.
    pub fn read_with_stats(
        &self,
        ctx: &mut Ctx,
        blob: BlobId,
        version: Option<Version>,
        seg: Segment,
    ) -> Result<(Vec<u8>, Version, ReadStats), BlobError> {
        let mut out = Out::Owned(Vec::new());
        let (latest, stats) = self.read_retrying(ctx, blob, version, seg, &mut out)?;
        match out {
            Out::Owned(data) => Ok((data, latest, stats)),
            Out::Caller(_) | Out::Page(_) => Err(BlobError::Internal("read landed elsewhere")),
        }
    }

    /// Scatter-assembling `READ` into a caller-provided buffer of exactly
    /// `seg.size` bytes: each page is copied exactly once, directly into
    /// `out`, the moment its reply lands; no intermediate result buffer
    /// exists. A read that fails leaves `out` all zero, whatever pages
    /// it had already copied.
    pub fn read_into(
        &self,
        ctx: &mut Ctx,
        blob: BlobId,
        version: Option<Version>,
        seg: Segment,
        out: &mut [u8],
    ) -> Result<Version, BlobError> {
        if out.len() as u64 != seg.size {
            return Err(BlobError::BadSegment {
                segment: seg,
                reason: "buffer size mismatch",
            });
        }
        let read = self.read_retrying(ctx, blob, version, seg, &mut Out::Caller(out));
        if read.is_err() {
            out.fill(0);
        }
        Ok(read?.0)
    }

    /// Zero-copy `READ` of a single-page-aligned segment: returns the
    /// fetched page buffer itself (a refcount borrow of the provider's
    /// stored page under the in-process transports) — **zero** page
    /// copies end to end. Non-aligned or multi-page segments are
    /// assembled with exactly one copy per page.
    pub fn read_buf(
        &self,
        ctx: &mut Ctx,
        blob: BlobId,
        version: Option<Version>,
        seg: Segment,
    ) -> Result<(PageBuf, Version), BlobError> {
        let mut out = Out::Page(None);
        let (latest, _) = self.read_retrying(ctx, blob, version, seg, &mut out)?;
        match out {
            Out::Page(page) => Ok((
                page.unwrap_or_else(|| PageBuf::zeroed(seg.size as usize)),
                latest,
            )),
            Out::Owned(data) => Ok((PageBuf::from_vec(data), latest)),
            Out::Caller(_) => Err(BlobError::Internal("read landed elsewhere")),
        }
    }

    /// [`BlobClient::read_once`] under the retry loop: reads are
    /// idempotent end to end, so a shed or unreachable attempt is
    /// replayed whole under the client's retry policy until it succeeds
    /// or the policy caps out. A later attempt overwrites or zeroes
    /// whatever an earlier one landed in `out`.
    fn read_retrying(
        &self,
        ctx: &mut Ctx,
        blob: BlobId,
        version: Option<Version>,
        seg: Segment,
        out: &mut Out<'_>,
    ) -> Result<(Version, ReadStats), BlobError> {
        let mut attempt = 0u32;
        loop {
            match self.read_once(ctx, blob, version, seg, out) {
                Ok(read) => return Ok(read),
                Err(e) => {
                    self.backoff(ctx, attempt, &e).ok_or(e)?;
                    attempt += 1;
                }
            }
        }
    }

    /// The shared READ engine: version resolution, cached level-by-level
    /// tree descent, and the leaf burst, in which each leaf's page fetch
    /// leaves the moment the leaf is decoded and each page lands in
    /// `out` the moment its reply does. Returns the latest published
    /// version observed and the read's stats; a version-0 read lands
    /// nothing, and the gap pass zeroes it all.
    ///
    /// The version check costs no round trip of its own. A read that had
    /// to fetch the blob descriptor already holds a fresh `latest`.
    /// Otherwise it descends a *target* — `v` if pinned, else the
    /// client's frontier floor — and sends `GET_LATEST` in the burst of
    /// its first fetch ([`ReadState::ask`]): last in the first inner tree
    /// level that misses the cache, whose decode does not need the
    /// answer, or else first in the leaf burst, whose every stitch does. If `latest` shows the
    /// floor was behind, the read descends `latest`'s tree instead,
    /// reusing any burst page the new tree still names and dropping
    /// everything else the burst brought, errors included; no page lands
    /// before the check has answered. The target is always a version
    /// known to be published when its fetches leave — the floor is one
    /// by definition — so nothing a burst fetched raced its writer.
    fn read_once(
        &self,
        ctx: &mut Ctx,
        blob: BlobId,
        version: Option<Version>,
        seg: Segment,
        out: &mut Out<'_>,
    ) -> Result<(Version, ReadStats), BlobError> {
        let mark = ctx.vt;
        let (known, fresh) = self.entry(ctx, blob)?;
        let geom = known.geom;
        geom.validate_bounds(&seg)?;
        let mut dest = Dest::new(out, geom, seg, self.costs.page_ns);
        let floor = fresh.unwrap_or_else(|| known.floor.load(Ordering::Relaxed));
        let target = version.unwrap_or(floor);
        let mut st = ReadState {
            blob,
            geom,
            seg,
            version,
            target,
            check: match fresh {
                Some(latest) => Check::Answered(latest),
                None => Check::Owed {
                    vm: self.vm_for(blob),
                    known,
                },
            },
            spare: FxHashMap::default(),
            stats: ReadStats::default(),
            mark,
        };
        if let Some(latest) = fresh {
            st.settle(latest)?;
        } else if target > floor {
            // A pinned version above the floor may not exist yet, so no
            // fetch can ride with the check: it goes first, alone.
            self.check_alone(ctx, &mut st)?;
        }
        st.lap(ctx.vt, |s| &mut s.latest_ns);

        // A pass per target: a second one only if the check moved it.
        loop {
            let descent = self.descend(ctx, &mut st)?;
            st.lap(ctx.vt, |s| &mut s.meta_ns);
            let Some(leaves) = descent else {
                continue;
            };
            if !self.fetch_leaves(ctx, &mut st, &leaves, &mut dest)? {
                break;
            }
        }
        dest.finish();
        st.stats.refetched += st.spare.len() as u64;
        let Check::Answered(latest) = st.check else {
            return Err(BlobError::Internal(
                "read finished without its version check",
            ));
        };
        Ok((latest, st.stats))
    }

    /// The version check with no fetch to ride: `GET_LATEST` alone, if
    /// the read still owes it. Returns whether it moved the target.
    fn check_alone(&self, ctx: &mut Ctx, st: &mut ReadState) -> Result<bool, BlobError> {
        let mut burst = self.rpc.burst();
        match st.ask(ctx, &mut burst) {
            Some(check) => st.answer(burst.wait(ctx, check)),
            None => Ok(false),
        }
    }

    /// Descend `st.target`'s tree level by level down to the level above
    /// its leaves, through the cache, with batched parallel metadata
    /// fetches; cache hits and misses alike hand out refcounted bodies,
    /// never deep clones. Each metadata message is decoded
    /// (`read_node_ns` per node) inside its burst, the moment it lands,
    /// so a level's decode overlaps the rest of its burst — the version
    /// check riding it included. Returns the leaves' keys — the tree is
    /// aligned, so a level holds leaves only or none, and the zero
    /// subtrees it skips are left to the gap pass — or `None` if the
    /// check moved the target.
    fn descend(
        &self,
        ctx: &mut Ctx,
        st: &mut ReadState,
    ) -> Result<Option<Vec<NodeKey>>, BlobError> {
        let (geom, blob, seg) = (st.geom, st.blob, st.seg);
        st.stats.nodes_visited = 0;
        let mut level = if st.target == 0 {
            Vec::new()
        } else {
            vec![root_key(&geom, blob, st.target)]
        };
        while level.first().is_some_and(|key| key.size > geom.page_size) {
            let bodies = self.cached(ctx, &level);
            let keys: Vec<NodeKey> = level
                .iter()
                .zip(&bodies)
                .filter_map(|(key, body)| body.is_none().then_some(*key))
                .collect();
            let mut fetched = Vec::new().into_iter();
            if !keys.is_empty() {
                let (mut fetch, frames) = self.dht.fetch_frames(&keys);
                let mut burst = self.rpc.burst();
                let metas = burst.send(ctx, frames);
                let check = st.ask(ctx, &mut burst);
                let mut decoded = 0;
                for (m, slot) in metas.into_iter().enumerate() {
                    let resolved = fetch.absorb(m, burst.wait(ctx, slot)).len();
                    ctx.advance(self.costs.read_node_ns * resolved as u64);
                    decoded += resolved;
                }
                if let Some(check) = check {
                    if st.answer(burst.wait(ctx, check))? {
                        st.stats.refetched += keys.len() as u64;
                        return Ok(None);
                    }
                }
                fetched = self.dht.finish_fetch(ctx, fetch)?.into_iter();
                // Nodes only a replica round resolved are decoded now.
                ctx.advance(self.costs.read_node_ns * (keys.len() - decoded) as u64);
            }
            // Every node in key order, each fetched one cached.
            let mut next = Vec::new();
            st.stats.nodes_visited += level.len() as u64;
            let bodies = level
                .iter()
                .zip(bodies)
                .map(|(key, body)| match body {
                    Some(body) => Ok(body),
                    None => {
                        let node = fetched.next().flatten().ok_or(BlobError::MissingMetadata {
                            blob,
                            version: key.version,
                        })?;
                        let body = Arc::new(node.body);
                        if let Some(cache) = &self.cache {
                            cache.insert(node.key, Arc::clone(&body));
                        }
                        Ok(body)
                    }
                })
                .collect::<Result<Vec<_>, BlobError>>()?;
            for (key, body) in level.iter().zip(bodies) {
                for visit in expand(&geom, key, &body, &seg)? {
                    match visit {
                        Visit::Descend(k) => next.push(k),
                        Visit::Zeros(_) => {}
                        Visit::Page { .. } => {
                            return Err(BlobError::Internal("page above the leaf level"))
                        }
                    }
                }
            }
            level = next;
        }
        Ok(Some(level))
    }

    /// The leaf burst: fetch the leaves `keys` and their pages in one
    /// burst, whose pages leave as their leaves are decoded and land in
    /// `dest` as their replies do. Returns whether the check moved the
    /// target; a read that did not move has landed every page.
    ///
    /// The burst carries, if still owed, `GET_LATEST` first, then a
    /// `META_GET_BATCH` per metadata provider for the leaves the cache
    /// lacks and a `GET_PAGE` for every cached leaf — known at the
    /// start, so they coalesce by provider. While it is out, the read
    /// waits for each leaf message in turn and decodes it leaf by leaf
    /// (`read_node_ns` each), sending each leaf's `GET_PAGE` as a late
    /// frame of its own the moment that leaf is decoded: the first pages
    /// are on the wire while later leaves are still being decoded or
    /// arriving. The descent's stage ends at the last leaf message
    /// decoded.
    /// Then, once the check (if it rode along) has answered and not
    /// moved the target, the read waits for each page reply in call
    /// order and stitches it into place at once, `page_ns` charged
    /// there: only the last page's stitch follows the last byte.
    ///
    /// After the burst: leaves missing on their primary go through the
    /// metadata replica rounds, then one more burst fetches and lands
    /// their pages; pages that failed on their first replica fail over
    /// ([`BlobClient::page_failover`]), and pages a dropped burst already
    /// brought are reused, each landing as it is in hand. If the check
    /// moved the target, nothing landed: the burst's nodes are dropped
    /// and its pages kept as spare for the newer tree. Successful fetches
    /// feed the shared heat tracker (when enabled); a page crossing the
    /// promotion threshold is fanned out onto one more provider right
    /// here, best-effort.
    fn fetch_leaves(
        &self,
        ctx: &mut Ctx,
        st: &mut ReadState,
        keys: &[NodeKey],
        dest: &mut Dest<'_, '_>,
    ) -> Result<bool, BlobError> {
        if keys.is_empty() {
            // Nothing to fetch: the burst, if any, is the version check
            // alone.
            let moved = self.check_alone(ctx, st)?;
            st.lap(ctx.vt, |s| &mut s.latest_ns);
            return Ok(moved);
        }
        let (geom, seg) = (st.geom, st.seg);
        st.stats.nodes_visited += keys.len() as u64;
        let mut leaves: Vec<Option<LeafPage>> = vec![None; keys.len()];
        let mut missing = Vec::new();
        for (i, body) in self.cached(ctx, keys).into_iter().enumerate() {
            match body {
                Some(body) => leaves[i] = Some(self.leaf_page(&geom, &seg, &keys[i], &body)?),
                None => missing.push(i),
            }
        }

        // The burst: the check if owed — every stitch needs its answer,
        // so it leads instead of queueing behind the pages — then the
        // leaf fetches, then the cached leaves' pages. `gets` pairs each
        // page fetch with its leaf, and `got` holds each leaf's page once
        // its reply is in hand.
        let mut spare = std::mem::take(&mut st.spare);
        let wanted = |leaf: &LeafPage| !spare.contains_key(&leaf.loc.key);
        let missing_keys: Vec<NodeKey> = missing.iter().map(|&i| keys[i]).collect();
        let (mut fetch, frames) = self.dht.fetch_frames(&missing_keys);
        let mut burst = self.rpc.burst();
        let check = st.ask(ctx, &mut burst);
        let metas = burst.send(ctx, frames);
        let cached: Vec<usize> = (0..keys.len())
            .filter(|&i| leaves[i].as_ref().is_some_and(wanted))
            .collect();
        let frames = cached
            .iter()
            .filter_map(|&i| leaves[i].as_ref().map(LeafPage::get))
            .collect();
        let mut gets: Vec<_> = cached.into_iter().zip(burst.send(ctx, frames)).collect();
        let mut decoded = ctx.vt;
        let mut failed = None;
        'decode: for (m, slot) in metas.into_iter().enumerate() {
            for j in fetch.absorb(m, burst.wait(ctx, slot)) {
                ctx.advance(self.costs.read_node_ns);
                let i = missing[j];
                let node = fetch
                    .node(j)
                    .ok_or(BlobError::Internal("resolved leaf absent"));
                match node.and_then(|node| self.leaf_page(&geom, &seg, &keys[i], &node.body)) {
                    Ok(leaf) => {
                        if wanted(&leaf) {
                            gets.push((i, burst.call(ctx, leaf.get())));
                        }
                        leaves[i] = Some(leaf);
                    }
                    Err(e) => {
                        failed = Some(e);
                        break 'decode;
                    }
                }
            }
            decoded = ctx.vt;
        }

        // No page lands before the check has answered: if it moves the
        // target, the pages belong to a dropped tree, and are kept as
        // spare where the newer tree may name them again.
        let moved = match check {
            Some(check) => st.answer(burst.wait(ctx, check)),
            None => Ok(false),
        };
        let mut got: Vec<Option<Result<PageBuf, BlobError>>> = vec![None; keys.len()];
        let landed = match moved {
            Ok(false) if failed.is_none() => {
                land_pages(ctx, &mut burst, gets, &leaves, dest, &mut got)
            }
            Ok(true) => {
                st.stats.refetched += missing.len() as u64;
                for (i, slot) in gets {
                    match (burst.wait(ctx, slot), &leaves[i]) {
                        (Ok(page), Some(leaf)) => {
                            spare.insert(leaf.loc.key, page);
                        }
                        _ => st.stats.refetched += 1,
                    }
                }
                Ok(())
            }
            _ => Ok(()),
        };
        burst.finish(ctx);
        let moved = moved?;
        st.lap(decoded, |s| &mut s.meta_ns);
        st.lap(ctx.vt, |s| &mut s.data_ns);
        if moved {
            st.spare = spare;
            return Ok(true);
        }
        failed.map_or(landed, Err)?;

        // Leaves missing on their primary: the replica rounds, then one
        // more burst for their pages, each landing as it arrives.
        let mut late = Vec::new();
        for (j, node) in self.dht.finish_fetch(ctx, fetch)?.into_iter().enumerate() {
            let i = missing[j];
            let node = node.ok_or(BlobError::MissingMetadata {
                blob: st.blob,
                version: keys[i].version,
            })?;
            if leaves[i].is_none() {
                leaves[i] = Some(self.leaf_page(&geom, &seg, &keys[i], &node.body)?);
                late.push(i);
            }
            if let Some(cache) = &self.cache {
                cache.insert(node.key, Arc::new(node.body));
            }
        }
        if !late.is_empty() {
            ctx.advance(self.costs.read_node_ns * late.len() as u64);
            st.lap(ctx.vt, |s| &mut s.meta_ns);
            late.retain(|&i| {
                let leaf = leaves[i].as_ref();
                leaf.is_some_and(|leaf| !spare.contains_key(&leaf.loc.key))
            });
            let frames = late
                .iter()
                .filter_map(|&i| leaves[i].as_ref().map(LeafPage::get))
                .collect();
            let mut burst = self.rpc.burst();
            let gets = late.into_iter().zip(burst.send(ctx, frames)).collect();
            let landed = land_pages(ctx, &mut burst, gets, &leaves, dest, &mut got);
            burst.finish(ctx);
            landed?;
        }

        // The pages still to land: those whose first replica failed, and
        // those a dropped burst brought.
        for ((leaf_key, leaf), got) in keys.iter().zip(&leaves).zip(got) {
            let leaf = leaf
                .as_ref()
                .ok_or(BlobError::Internal("leaf not resolved"))?;
            let data = match got {
                Some(Ok(data)) => data,
                Some(Err(first_err)) => {
                    let data = self.page_failover(ctx, &leaf.loc, leaf.start, first_err)?;
                    dest.land(ctx, &leaf.range, &data)?;
                    data
                }
                None => {
                    let data = spare
                        .remove(&leaf.loc.key)
                        .ok_or(BlobError::Internal("page not fetched"))?;
                    dest.land(ctx, &leaf.range, &data)?;
                    data
                }
            };
            if let Some(heat) = &self.heat {
                if heat.record_read(leaf.loc.key)
                    && leaf.loc.replicas.len() < heat.options().max_replicas
                {
                    self.promote_page(ctx, *leaf_key, &leaf.loc, &data);
                }
            }
        }
        st.spare = spare;
        st.lap(ctx.vt, |s| &mut s.data_ns);
        Ok(false)
    }

    /// The bodies of `keys` the cache holds, in key order (`cache_ns`
    /// charged per key); all `None` without a cache.
    fn cached(&self, ctx: &mut Ctx, keys: &[NodeKey]) -> Vec<Option<Arc<NodeBody>>> {
        let Some(cache) = &self.cache else {
            return vec![None; keys.len()];
        };
        ctx.advance(self.costs.cache_ns * keys.len() as u64);
        keys.iter().map(|key| cache.get(key)).collect()
    }

    /// The page the leaf `key` names and the bytes of the read it
    /// serves, and the replica its fetch starts at: round-robin over a
    /// multi-replica page's holders, so a hot page's read load spreads.
    fn leaf_page(
        &self,
        geom: &Geometry,
        seg: &Segment,
        key: &NodeKey,
        body: &NodeBody,
    ) -> Result<LeafPage, BlobError> {
        let Some(Visit::Page { page, blob_range }) = expand(geom, key, body, seg)?.pop() else {
            return Err(BlobError::Internal("leaf level node is not a leaf"));
        };
        let holders = page.replicas.len() as u64;
        let start = if holders > 1 {
            (self.rr.fetch_add(1, Ordering::Relaxed) % holders) as usize
        } else {
            0
        };
        Ok(LeafPage {
            loc: page,
            range: blob_range,
            start,
        })
    }

    /// A page whose first replica failed with `first_err`: try the
    /// remaining replicas, in rotation order after `start`. If every
    /// replica fails, a typed `Overload` among the failures wins over
    /// `MissingPage`: the page exists, the system is shedding, and the
    /// caller's retry policy should see that.
    fn page_failover(
        &self,
        ctx: &mut Ctx,
        loc: &PageLoc,
        start: usize,
        first_err: BlobError,
    ) -> Result<PageBuf, BlobError> {
        let mut last_shed = first_err.retry_after_hint_ms();
        let n = loc.replicas.len();
        for k in 1..n {
            let replica = loc.replicas[(start + k) % n];
            let r: Result<PageBuf, BlobError> = self.rpc.call(
                ctx,
                NodeId(replica.0),
                method::GET_PAGE,
                &GetPage { key: loc.key },
            );
            match r {
                Ok(data) => return Ok(data),
                Err(e) => {
                    if let Some(hint) = e.retry_after_hint_ms() {
                        last_shed = Some(last_shed.unwrap_or(0).max(hint));
                    }
                }
            }
        }
        Err(match last_shed {
            // Every replica failed and at least one shed: the page is
            // there, the system is overloaded — keep the typed Overload
            // so retry policies see it (never demote to
            // MissingPage/Unreachable).
            Some(hint) => BlobError::Overload {
                retry_after_hint: hint,
            },
            None => BlobError::MissingPage {
                tried: loc.replicas.clone(),
            },
        })
    }
}

/// Wait for each page of `gets` — (leaf, slot) pairs — in turn and land
/// it in `dest` the moment it is in hand, on `ctx`'s clock. Each leaf's
/// reply, page or error, goes to `got`; a failed one lands after the
/// burst, through the failover.
fn land_pages(
    ctx: &mut Ctx,
    burst: &mut Burst<'_>,
    gets: Vec<(usize, Slot<PageBuf>)>,
    leaves: &[Option<LeafPage>],
    dest: &mut Dest<'_, '_>,
    got: &mut [Option<Result<PageBuf, BlobError>>],
) -> Result<(), BlobError> {
    for (i, slot) in gets {
        let page = burst.wait(ctx, slot);
        if let (Ok(data), Some(leaf)) = (&page, &leaves[i]) {
            dest.land(ctx, &leaf.range, data)?;
        }
        got[i] = Some(page);
    }
    Ok(())
}
