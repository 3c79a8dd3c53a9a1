//! A READ's landing: where its bytes go, as its caller asked ([`Out`]),
//! and one attempt's pages stitched into place there the moment each is
//! in hand, then the gap pass ([`Dest`]).

use blobseer_meta::read::{stitch_page, zero_gaps};
use blobseer_proto::{BlobError, Geometry, PageBuf, Segment};
use blobseer_rpc::Ctx;

/// Where a READ's bytes go, as its caller asked.
pub(super) enum Out<'a> {
    /// The caller's buffer, exactly `seg.size` bytes (`read_into`).
    Caller(&'a mut [u8]),
    /// A buffer of the read's own (`read`, `read_with_stats`, and a
    /// `read_buf` of anything but one whole page), zero-allocated once
    /// the segment is validated.
    Owned(Vec<u8>),
    /// A `read_buf`, until the segment shows whether it is one whole
    /// aligned page: then the fetched buffer itself, never copied.
    Page(Option<PageBuf>),
}

/// One attempt's landing of its pages in the read's [`Out`]: each page
/// is stitched into place the moment its reply is in hand, `page_ns`
/// charged with the copy, and the gap pass zeroes what no page covered.
pub(super) struct Dest<'o, 'a> {
    out: &'o mut Out<'a>,
    geom: Geometry,
    seg: Segment,
    page_ns: u64,
    /// The blob ranges this attempt landed, for the gap pass.
    covered: Vec<Segment>,
}

impl<'o, 'a> Dest<'o, 'a> {
    /// Ready `out` for an attempt at the validated `seg`: a `read_buf`
    /// keeps its page only if `seg` is exactly one aligned page, and a
    /// buffer of the read's own is allocated on the first attempt.
    pub(super) fn new(out: &'o mut Out<'a>, geom: Geometry, seg: Segment, page_ns: u64) -> Self {
        let size = seg.size as usize;
        let whole = seg.size == geom.page_size && seg.offset.is_multiple_of(geom.page_size);
        match out {
            Out::Page(page) if whole => *page = None,
            Out::Page(_) => *out = Out::Owned(vec![0; size]),
            Out::Owned(buf) if buf.len() != size => *buf = vec![0; size],
            Out::Owned(_) | Out::Caller(_) => {}
        }
        Self {
            out,
            geom,
            seg,
            page_ns,
            covered: Vec::new(),
        }
    }

    /// Land one fetched page, which serves the read's bytes `range`, on
    /// `c`'s clock: copy that share into the buffer, or keep a whole
    /// page's buffer itself.
    pub(super) fn land(
        &mut self,
        c: &mut Ctx,
        range: &Segment,
        data: &PageBuf,
    ) -> Result<(), BlobError> {
        c.advance(self.page_ns);
        match &mut *self.out {
            Out::Caller(buf) => stitch_page(&self.geom, &self.seg, range, data, buf)?,
            Out::Owned(buf) => stitch_page(&self.geom, &self.seg, range, data, buf)?,
            Out::Page(page) => {
                if *range != self.seg {
                    return Err(BlobError::Internal("page range outside read"));
                }
                if data.len() as u64 != self.geom.page_size {
                    return Err(BlobError::Internal("short page"));
                }
                *page = Some(data.clone());
            }
        }
        self.covered.push(*range);
        Ok(())
    }

    /// The gap pass: zero every byte no landed page covered.
    pub(super) fn finish(self) {
        match self.out {
            Out::Caller(buf) => zero_gaps(&self.seg, &self.covered, buf),
            Out::Owned(buf) => zero_gaps(&self.seg, &self.covered, buf),
            Out::Page(_) => {}
        }
    }
}
