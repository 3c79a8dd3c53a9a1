//! Seeded generators — the only source of randomness in the benchmark.
//!
//! `--seed` drives everything here (op schedules, Zipf draws, read/write
//! mixes, payload bytes); the product only ever receives the generated
//! inputs. The generators are the benchmark's own so that a change to a
//! product crate's RNG cannot silently change the workloads.

/// SplitMix64: tiny, fast, and good enough to decorrelate streams.
#[derive(Clone, Debug)]
pub struct SplitMix64(u64);

const GOLDEN: u64 = 0x9E37_79B9_7F4A_7C15;

/// One SplitMix64 output step as a pure function (also the page-stream
/// mixer).
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl SplitMix64 {
    /// An independent generator for sub-stream `stream` of `seed`
    /// (one per client thread, per phase).
    pub fn stream(seed: u64, stream: u64) -> Self {
        Self(mix64(seed ^ mix64(stream.wrapping_add(GOLDEN))))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(GOLDEN);
        mix64(self.0)
    }

    /// Uniform in `[0, n)` (`n > 0`), without modulo bias.
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0, "empty range");
        let zone = u64::MAX - (u64::MAX % n);
        loop {
            let x = self.next_u64();
            if x < zone {
                return x % n;
            }
        }
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

/// `0..n` in a seeded random order.
pub fn shuffled(n: u64, rng: &mut SplitMix64) -> Vec<u64> {
    let mut v: Vec<u64> = (0..n).collect();
    rng.shuffle(&mut v);
    v
}

/// Zipfian popularity over `n` ranks (rank 0 most popular), sampled by
/// inverse CDF: exact, and the same on every host.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Ranks `0..n` with exponent `s` (`s = 0` is uniform).
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "empty popularity");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 1..=n {
            acc += 1.0 / (k as f64).powf(s);
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Self { cdf }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// One operation of a mixed single-page schedule.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MixOp {
    /// Read the latest version of hot page `page`.
    Read { page: u64 },
    /// Overwrite hot page `page`.
    Write { page: u64 },
}

/// A client's schedule for `finegrain_mix`: `ops` single-page operations,
/// `read_share` of them reads, pages drawn Zipf(`s`) over `hot_pages`
/// ranks that a seeded permutation scatters over the hot window (so the
/// popular pages do not share one subtree).
pub fn mix_schedule(
    seed: u64,
    client: u64,
    ops: usize,
    hot_pages: u64,
    s: f64,
    read_share: f64,
) -> Vec<MixOp> {
    let scatter = shuffled(hot_pages, &mut SplitMix64::stream(seed, 0x5ca7));
    let zipf = Zipf::new(hot_pages as usize, s);
    let mut rng = SplitMix64::stream(seed, 0x1000 + client);
    (0..ops)
        .map(|_| {
            let page = scatter[zipf.sample(&mut rng)];
            if rng.unit() < read_share {
                MixOp::Read { page }
            } else {
                MixOp::Write { page }
            }
        })
        .collect()
}

/// Bytes of the self-describing stamp at the head of every page.
pub const STAMP_BYTES: usize = 16;

fn page_base(seed: u64, page: u64, generation: u64) -> u64 {
    mix64(seed ^ mix64(page ^ mix64(generation.wrapping_add(GOLDEN))))
}

/// Fill one page with its self-describing payload: the page index and a
/// generation stamp, then a word stream only `(seed, page, generation)`
/// can produce. `buf.len()` must be a multiple of 8 and at least
/// [`STAMP_BYTES`].
pub fn fill_page(buf: &mut [u8], seed: u64, page: u64, generation: u64) {
    assert!(buf.len() >= STAMP_BYTES && buf.len().is_multiple_of(8));
    buf[..8].copy_from_slice(&page.to_le_bytes());
    buf[8..16].copy_from_slice(&generation.to_le_bytes());
    let base = page_base(seed, page, generation);
    for (i, word) in buf[STAMP_BYTES..].chunks_exact_mut(8).enumerate() {
        let w = base.wrapping_add((i as u64).wrapping_mul(GOLDEN));
        word.copy_from_slice(&w.to_le_bytes());
    }
}

/// Fill a multi-page segment starting at blob page `first_page`.
pub fn fill_segment(buf: &mut [u8], page_size: usize, seed: u64, first_page: u64, generation: u64) {
    for (i, page) in buf.chunks_exact_mut(page_size).enumerate() {
        fill_page(page, seed, first_page + i as u64, generation);
    }
}

/// Byte-verify one page read back from the system. Returns the
/// generation its stamp carries; every byte must be what
/// [`fill_page`] wrote for that `(seed, page, generation)`.
pub fn check_page(buf: &[u8], seed: u64, page: u64) -> Result<u64, String> {
    if buf.len() < STAMP_BYTES || !buf.len().is_multiple_of(8) {
        return Err(format!("page {page}: bad length {}", buf.len()));
    }
    let got_page = u64::from_le_bytes(buf[..8].try_into().expect("8 bytes"));
    let generation = u64::from_le_bytes(buf[8..16].try_into().expect("8 bytes"));
    if got_page != page {
        return Err(format!("page {page}: stamp names page {got_page}"));
    }
    let base = page_base(seed, page, generation);
    for (i, word) in buf[STAMP_BYTES..].chunks_exact(8).enumerate() {
        let want = base.wrapping_add((i as u64).wrapping_mul(GOLDEN));
        if word != want.to_le_bytes() {
            return Err(format!(
                "page {page} generation {generation}: wrong bytes at offset {}",
                STAMP_BYTES + 8 * i
            ));
        }
    }
    Ok(generation)
}

/// Byte-verify a multi-page segment whose every page must carry
/// `generation`.
pub fn check_segment(
    buf: &[u8],
    page_size: usize,
    seed: u64,
    first_page: u64,
    generation: u64,
) -> Result<(), String> {
    for (i, page) in buf.chunks_exact(page_size).enumerate() {
        let index = first_page + i as u64;
        let got = check_page(page, seed, index)?;
        if got != generation {
            return Err(format!(
                "page {index}: generation {got}, expected {generation}"
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let a = mix_schedule(7, 0, 512, 4096, 0.99, 0.7);
        let b = mix_schedule(7, 0, 512, 4096, 0.99, 0.7);
        let c = mix_schedule(8, 0, 512, 4096, 0.99, 0.7);
        let other_client = mix_schedule(7, 1, 512, 4096, 0.99, 0.7);
        assert_eq!(a, b, "same seed must give the same op schedule");
        assert_ne!(a, c, "another seed must give another schedule");
        assert_ne!(a, other_client, "clients draw from separate streams");
        assert_eq!(
            shuffled(100, &mut SplitMix64::stream(3, 1)),
            shuffled(100, &mut SplitMix64::stream(3, 1))
        );
        assert_ne!(
            shuffled(100, &mut SplitMix64::stream(3, 1)),
            shuffled(100, &mut SplitMix64::stream(4, 1))
        );
    }

    #[test]
    fn mix_respects_read_share_and_window() {
        let ops = mix_schedule(1, 0, 20_000, 1024, 0.99, 0.7);
        let reads = ops
            .iter()
            .filter(|o| matches!(o, MixOp::Read { .. }))
            .count() as f64;
        assert!((reads / ops.len() as f64 - 0.7).abs() < 0.02);
        assert!(ops.iter().all(|o| match o {
            MixOp::Read { page } | MixOp::Write { page } => *page < 1024,
        }));
    }

    #[test]
    fn zipf_is_skewed_and_uniform_when_flat() {
        let mut rng = SplitMix64::stream(9, 0);
        let z = Zipf::new(1000, 0.99);
        let n = 50_000;
        let top10 = (0..n).filter(|_| z.sample(&mut rng) < 10).count() as f64 / n as f64;
        assert!(top10 > 0.3 && top10 < 0.5, "top-10 share {top10}");
        let flat = Zipf::new(1000, 0.0);
        let top10 = (0..n).filter(|_| flat.sample(&mut rng) < 10).count() as f64 / n as f64;
        assert!((top10 - 0.01).abs() < 0.005, "uniform top-10 share {top10}");
    }

    #[test]
    fn payload_roundtrips_and_detects_damage() {
        let mut buf = vec![0u8; 4 * 4096];
        fill_segment(&mut buf, 4096, 5, 100, 3);
        check_segment(&buf, 4096, 5, 100, 3).expect("intact payload verifies");
        assert_eq!(check_page(&buf[4096..8192], 5, 101), Ok(3));
        assert!(
            check_segment(&buf, 4096, 5, 100, 2).is_err(),
            "stale generation"
        );
        assert!(check_segment(&buf, 4096, 6, 100, 3).is_err(), "other seed");
        assert!(check_page(&buf[..4096], 5, 101).is_err(), "misplaced page");
        buf[9000] ^= 1;
        assert!(check_segment(&buf, 4096, 5, 100, 3).is_err(), "flipped bit");
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = SplitMix64::stream(1, 0);
        assert!((0..10_000).all(|_| rng.below(7) < 7));
    }
}
