//! Sky geometry: the 2-D → 1-D mapping of the paper's §I.
//!
//! "Let us consider a very simple abstraction of this problem, in which
//! the view of the sky is a very long string of bytes (blob), obtained by
//! concatenating the images in binary form. Assuming all images have a
//! fixed size, a specific part of the sky is accessible by providing the
//! corresponding offset in the string."
//!
//! Layout: the sky is `tiles_x × tiles_y` tiles of `tile_px × tile_px`
//! 16-bit pixels; one epoch concatenates all tiles row-major; epochs are
//! concatenated in time order. Every tile slot is padded to a multiple of
//! the page size so a tile is always a page-aligned segment — exactly the
//! fine-grain access unit the storage layer optimizes.

use blobseer_proto::Segment;

/// Bytes per pixel (16-bit intensity).
pub const BYTES_PER_PX: u64 = 2;

/// Static shape of the sky survey.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SkyGeometry {
    /// Tiles per row.
    pub tiles_x: u32,
    /// Tiles per column.
    pub tiles_y: u32,
    /// Tile side length in pixels (square tiles).
    pub tile_px: u32,
    /// Storage page size the tile slots are padded to.
    pub page_size: u64,
}

impl SkyGeometry {
    /// Construct and validate.
    pub fn new(tiles_x: u32, tiles_y: u32, tile_px: u32, page_size: u64) -> Self {
        assert!(tiles_x > 0 && tiles_y > 0 && tile_px > 0);
        assert!(page_size.is_power_of_two());
        Self {
            tiles_x,
            tiles_y,
            tile_px,
            page_size,
        }
    }

    /// Number of tiles per epoch.
    pub fn tiles(&self) -> u32 {
        self.tiles_x * self.tiles_y
    }

    /// Pixels per tile.
    pub fn tile_pixels(&self) -> usize {
        (self.tile_px as usize) * (self.tile_px as usize)
    }

    /// Raw (unpadded) bytes of one tile image.
    pub fn tile_bytes(&self) -> u64 {
        self.tile_pixels() as u64 * BYTES_PER_PX
    }

    /// Padded byte size of one tile slot (page multiple).
    pub fn tile_slot(&self) -> u64 {
        self.tile_bytes().div_ceil(self.page_size) * self.page_size
    }

    /// Bytes of one full epoch.
    pub fn epoch_bytes(&self) -> u64 {
        self.tile_slot() * self.tiles() as u64
    }

    /// Blob offset of tile `(tx, ty)` at `epoch`.
    pub fn tile_offset(&self, epoch: u32, tx: u32, ty: u32) -> u64 {
        assert!(tx < self.tiles_x && ty < self.tiles_y);
        let tile_index = (ty as u64) * self.tiles_x as u64 + tx as u64;
        (epoch as u64) * self.epoch_bytes() + tile_index * self.tile_slot()
    }

    /// The segment storing tile `(tx, ty)` at `epoch` (padded slot).
    pub fn tile_segment(&self, epoch: u32, tx: u32, ty: u32) -> Segment {
        Segment::new(self.tile_offset(epoch, tx, ty), self.tile_slot())
    }

    /// Smallest power-of-two blob size holding `epochs` epochs.
    pub fn blob_size(&self, epochs: u32) -> u64 {
        (self.epoch_bytes() * epochs as u64).next_power_of_two()
    }
}

/// Encode a tile image (u16 intensities) into its padded slot bytes.
pub fn encode_tile(geom: &SkyGeometry, pixels: &[u16]) -> Vec<u8> {
    assert_eq!(pixels.len(), geom.tile_pixels());
    let mut out = vec![0u8; geom.tile_slot() as usize];
    for (i, p) in pixels.iter().enumerate() {
        out[2 * i..2 * i + 2].copy_from_slice(&p.to_le_bytes());
    }
    out
}

/// Decode a padded slot back into pixels.
pub fn decode_tile(geom: &SkyGeometry, bytes: &[u8]) -> Vec<u16> {
    assert!(bytes.len() as u64 >= geom.tile_bytes());
    (0..geom.tile_pixels())
        .map(|i| u16::from_le_bytes([bytes[2 * i], bytes[2 * i + 1]]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom() -> SkyGeometry {
        SkyGeometry::new(4, 3, 64, 4096)
    }

    #[test]
    fn sizes_and_padding() {
        let g = geom();
        assert_eq!(g.tiles(), 12);
        assert_eq!(g.tile_bytes(), 64 * 64 * 2);
        assert_eq!(g.tile_slot(), 8192, "8 KiB raw pads to two 4 KiB pages");
        assert_eq!(g.epoch_bytes(), 8192 * 12);
    }

    #[test]
    fn offsets_are_disjoint_and_ordered() {
        let g = geom();
        let mut offs = Vec::new();
        for e in 0..2 {
            for ty in 0..3 {
                for tx in 0..4 {
                    offs.push(g.tile_offset(e, tx, ty));
                }
            }
        }
        for w in offs.windows(2) {
            assert_eq!(w[1] - w[0], g.tile_slot(), "contiguous slots");
        }
        // Page alignment of every slot.
        for o in offs {
            assert_eq!(o % g.page_size, 0);
        }
    }

    #[test]
    fn blob_size_is_power_of_two_and_sufficient() {
        let g = geom();
        let size = g.blob_size(10);
        assert!(size.is_power_of_two());
        assert!(size >= g.epoch_bytes() * 10);
        let last = g.tile_segment(9, 3, 2);
        assert!(last.end() <= size);
    }

    #[test]
    fn tile_codec_roundtrip() {
        let g = geom();
        let pixels: Vec<u16> = (0..g.tile_pixels() as u32)
            .map(|i| (i * 7 % 65521) as u16)
            .collect();
        let bytes = encode_tile(&g, &pixels);
        assert_eq!(bytes.len() as u64, g.tile_slot());
        assert_eq!(decode_tile(&g, &bytes), pixels);
    }

    #[test]
    #[should_panic]
    fn out_of_range_tile_panics() {
        geom().tile_offset(0, 4, 0);
    }
}
