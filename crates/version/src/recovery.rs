//! Version-manager snapshot & recovery (paper §VI: "we plan to also
//! include fault-tolerance mechanisms for the entities that currently
//! represent single points of failure (version manager, provider
//! manager)").
//!
//! The version manager's durable state is tiny: per blob, the geometry
//! and the history of published writes (segment + write id per version).
//! Everything else (the version index, the publish watermark) is
//! recomputable. A [`snapshot`] serializes exactly that; [`restore`]
//! rebuilds a registry whose observable behaviour — latest version,
//! border links for the next write, GC plans — is identical.
//!
//! In-flight (assigned but unpublished) writes at snapshot time are *not*
//! included: on a real failover they would never complete (their clients
//! retry against the recovered manager), which is safe precisely because
//! unpublished versions were never readable.
//!
//! Since PR 7 this module is the *checkpoint half* of the version
//! manager's durability story: [`crate::wal::VersionLog`] journals
//! creates and publishes write-ahead (incremental records), and on
//! every open it replays then collapses the whole journal into a
//! single [`snapshot`] record — snapshot + incremental log, the
//! classic pairing. [`restore`] is what replay bootstraps from.

use crate::state::{RegistryConfig, VersionRegistry};
use blobseer_proto::wire::{Reader, Wire, WireBuf};
use blobseer_proto::{BlobError, CodecError, Geometry, Segment, Version, WriteId};

/// Serialized form of one blob's durable state.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct BlobSnapshot {
    /// Blob id.
    pub blob: u64,
    /// Geometry.
    pub total_size: u64,
    /// Geometry.
    pub page_size: u64,
    /// Published writes in version order: `(write_id, offset, size)`.
    pub writes: Vec<(u64, u64, u64)>,
}

/// Varints: blob, total size, page size, the write count, then each
/// write's id, offset and size.
impl Wire for BlobSnapshot {
    fn encode(&self, out: &mut WireBuf) {
        for field in [self.blob, self.total_size, self.page_size] {
            out.put_varint(field);
        }
        out.put_varint(self.writes.len() as u64);
        for &(write, offset, size) in &self.writes {
            for field in [write, offset, size] {
                out.put_varint(field);
            }
        }
    }

    fn decode(r: &mut Reader<'_>) -> Result<Self, CodecError> {
        let (blob, total_size, page_size) = (r.take_varint()?, r.take_varint()?, r.take_varint()?);
        let count = r.take_varint_count()?;
        let mut writes = Vec::with_capacity(count.min(r.remaining()));
        for _ in 0..count {
            writes.push((r.take_varint()?, r.take_varint()?, r.take_varint()?));
        }
        Ok(Self {
            blob,
            total_size,
            page_size,
            writes,
        })
    }
}

/// Serialize the durable state of every blob (published prefix only):
/// the blob count, then each [`BlobSnapshot`], all varints. The
/// snapshot carries no format number of its own: the version journal's
/// format header names it.
pub fn snapshot(registry: &VersionRegistry) -> Vec<u8> {
    let mut out = WireBuf::new();
    let states = registry.states();
    out.put_varint(states.len() as u64);
    for state in states {
        let published = state.latest();
        let mut writes = Vec::with_capacity(published as usize);
        for v in 1..=published {
            // Published versions always have a record.
            if let Some(rec) = state.record(v) {
                writes.push((rec.write.0, rec.seg.offset, rec.seg.size));
            }
        }
        BlobSnapshot {
            blob: state.blob.0,
            total_size: state.geom.total_size,
            page_size: state.geom.page_size,
            writes,
        }
        .encode(&mut out);
    }
    out.finish().to_vec()
}

/// Rebuild a registry from a snapshot.
///
/// The restored registry reproduces: blob ids, geometries, the published
/// watermark, the version index (hence border links for subsequent
/// writes), and GC planning state.
pub fn restore(bytes: &[u8], window: usize) -> Result<VersionRegistry, BlobError> {
    restore_with(
        bytes,
        RegistryConfig {
            window,
            ..RegistryConfig::default()
        },
    )
}

/// [`restore`] into a registry under an explicit [`RegistryConfig`]
/// (shard membership, grant batching, publish window).
pub fn restore_with(bytes: &[u8], config: RegistryConfig) -> Result<VersionRegistry, BlobError> {
    let mut r = Reader::new(bytes);
    let count = r.take_varint_count().map_err(BlobError::Codec)?;
    let mut blobs = Vec::with_capacity(count.min(r.remaining()));
    for _ in 0..count {
        blobs.push(BlobSnapshot::decode(&mut r).map_err(BlobError::Codec)?);
    }
    r.finish().map_err(BlobError::Codec)?;

    let registry = VersionRegistry::with_config(config);
    for b in blobs {
        let geom = Geometry::new(b.total_size, b.page_size)?;
        let state = registry.create_blob_with_id(blobseer_proto::BlobId(b.blob), geom);
        // Replay the published history through the normal protocol: each
        // write is assigned and completed in order, which reconstructs the
        // version index and the watermark exactly.
        for (expect_v, (write, offset, size)) in b.writes.iter().enumerate() {
            let ticket = state.request_version(WriteId(*write), Segment::new(*offset, *size))?;
            debug_assert_eq!(ticket.version, expect_v as Version + 1);
            state.complete_write(ticket.version)?;
        }
    }
    Ok(registry)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> Geometry {
        Geometry::new(8192, 1024).unwrap()
    }

    #[test]
    fn snapshot_restore_roundtrip() {
        let reg = VersionRegistry::default();
        let b = reg.create_blob(geom());
        for (w, s) in [(1u64, (0u64, 8192u64)), (2, (0, 1024)), (3, (2048, 2048))] {
            let t = b
                .request_version(WriteId(w), Segment::new(s.0, s.1))
                .unwrap();
            b.complete_write(t.version).unwrap();
        }
        let bytes = snapshot(&reg);
        let restored = restore(&bytes, 1 << 10).unwrap();
        let rb = restored.get(b.blob).unwrap();
        assert_eq!(rb.latest(), 3);
        assert_eq!(rb.geom, b.geom);

        // Border links for the next write must match on both registries.
        let t_orig = b
            .request_version(WriteId(9), Segment::new(1024, 1024))
            .unwrap();
        let t_rest = rb
            .request_version(WriteId(9), Segment::new(1024, 1024))
            .unwrap();
        assert_eq!(t_orig.version, t_rest.version);
        assert_eq!(t_orig.borders, t_rest.borders);
    }

    #[test]
    fn in_flight_writes_are_dropped() {
        let reg = VersionRegistry::default();
        let b = reg.create_blob(geom());
        let t1 = b
            .request_version(WriteId(1), Segment::new(0, 1024))
            .unwrap();
        b.complete_write(t1.version).unwrap();
        // v2 assigned but never completed.
        let _t2 = b
            .request_version(WriteId(2), Segment::new(1024, 1024))
            .unwrap();

        let restored = restore(&snapshot(&reg), 1 << 10).unwrap();
        let rb = restored.get(b.blob).unwrap();
        assert_eq!(rb.latest(), 1, "unpublished writes do not survive failover");
        // The recovered manager hands out version 2 afresh.
        let t = rb
            .request_version(WriteId(3), Segment::new(0, 1024))
            .unwrap();
        assert_eq!(t.version, 2);
    }

    #[test]
    fn multiple_blobs_and_ids_survive() {
        let reg = VersionRegistry::default();
        let b1 = reg.create_blob(geom());
        let b2 = reg.create_blob(Geometry::new(4096, 512).unwrap());
        let t = b2
            .request_version(WriteId(5), Segment::new(0, 512))
            .unwrap();
        b2.complete_write(t.version).unwrap();

        let restored = restore(&snapshot(&reg), 1 << 10).unwrap();
        assert_eq!(restored.len(), 2);
        assert_eq!(restored.get(b1.blob).unwrap().latest(), 0);
        assert_eq!(restored.get(b2.blob).unwrap().latest(), 1);
        assert_eq!(restored.get(b2.blob).unwrap().geom.page_size, 512);
        // New blob allocation continues past the restored ids.
        let b3 = restored.create_blob(geom());
        assert!(b3.blob > b2.blob);
    }

    #[test]
    fn gc_plans_match_after_restore() {
        let reg = VersionRegistry::default();
        let b = reg.create_blob(geom());
        for (w, s) in [(1u64, (0u64, 8192u64)), (2, (0, 1024)), (3, (0, 1024))] {
            let t = b
                .request_version(WriteId(w), Segment::new(s.0, s.1))
                .unwrap();
            b.complete_write(t.version).unwrap();
        }
        let bytes = snapshot(&reg);
        let plan_orig = b.gc_plan(3);
        let restored = restore(&bytes, 1 << 10).unwrap();
        let plan_rest = restored.get(b.blob).unwrap().gc_plan(3);
        let mut a = plan_orig.dead_nodes.clone();
        let mut c = plan_rest.dead_nodes.clone();
        a.sort_by_key(|k| (k.version, k.offset, k.size));
        c.sort_by_key(|k| (k.version, k.offset, k.size));
        assert_eq!(a, c);
    }

    #[test]
    fn corrupt_snapshots_rejected() {
        assert!(restore(b"garbage", 16).is_err());
        let reg = VersionRegistry::default();
        reg.create_blob(geom());
        let mut bytes = snapshot(&reg);
        bytes[0] ^= 0xFF;
        assert!(restore(&bytes, 16).is_err());
        let mut bytes2 = snapshot(&reg);
        let n = bytes2.len();
        bytes2.truncate(n - 1);
        assert!(restore(&bytes2, 16).is_err());
    }
}
