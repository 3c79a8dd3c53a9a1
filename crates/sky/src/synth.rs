//! Synthetic sky image generation.
//!
//! No telescope feed ships with this offline build, so we synthesize
//! one with the components that matter to a difference-imaging pipeline:
//! a static star field (Gaussian point-spread functions from a
//! deterministic catalog), Gaussian sky background noise per exposure,
//! and injected **transients** (our supernovae) whose brightness follows
//! a rise/decay light curve across epochs. Everything derives from an
//! explicit seed, so detection recall/precision is exactly measurable.

use crate::sky::SkyGeometry;
use blobseer_util::rng::rng_for;
use rand::Rng;

/// A static star in the catalog (tile-local coordinates).
#[derive(Clone, Copy, Debug)]
pub struct Star {
    /// X position within the tile, pixels.
    pub x: f32,
    /// Y position within the tile, pixels.
    pub y: f32,
    /// Peak intensity above background.
    pub peak: f32,
    /// PSF sigma, pixels.
    pub sigma: f32,
}

/// An injected transient event (ground truth for detection scoring).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Transient {
    /// Tile x index.
    pub tx: u32,
    /// Tile y index.
    pub ty: u32,
    /// Position within the tile, pixels.
    pub x: f32,
    /// Position within the tile, pixels.
    pub y: f32,
    /// Epoch at which the transient first brightens.
    pub onset: u32,
    /// Peak intensity above background.
    pub peak: f32,
    /// Epochs from onset to peak.
    pub rise: u32,
    /// Exponential decay scale after the peak, epochs.
    pub decay: f32,
}

impl Transient {
    /// Brightness multiplier at `epoch` (0 before onset, 1 at peak).
    pub fn brightness(&self, epoch: u32) -> f32 {
        if epoch < self.onset {
            return 0.0;
        }
        let t = (epoch - self.onset) as f32;
        let rise = self.rise.max(1) as f32;
        if t <= rise {
            t / rise
        } else {
            (-(t - rise) / self.decay.max(0.5)).exp()
        }
    }
}

/// Synthesis parameters.
#[derive(Clone, Copy, Debug)]
pub struct SynthConfig {
    /// Mean sky background level (ADU).
    pub background: f32,
    /// Per-exposure Gaussian noise sigma (ADU).
    pub noise_sigma: f32,
    /// Stars per tile (Poisson-ish, fixed count for determinism).
    pub stars_per_tile: u32,
    /// Star peak intensity range.
    pub star_peak: (f32, f32),
    /// PSF sigma range, pixels.
    pub psf_sigma: (f32, f32),
}

impl Default for SynthConfig {
    fn default() -> Self {
        Self {
            background: 1000.0,
            noise_sigma: 25.0,
            stars_per_tile: 40,
            star_peak: (500.0, 8000.0),
            psf_sigma: (1.2, 2.4),
        }
    }
}

/// The deterministic model of one simulated sky.
pub struct SkyModel {
    /// Geometry of the survey.
    pub geom: SkyGeometry,
    /// Synthesis parameters.
    pub config: SynthConfig,
    /// World seed.
    pub seed: u64,
    /// Injected transients (ground truth).
    pub transients: Vec<Transient>,
}

impl SkyModel {
    /// Build a model with `n_transients` events injected at deterministic
    /// pseudo-random positions/epochs within `[1, max_epoch)`.
    pub fn new(
        geom: SkyGeometry,
        config: SynthConfig,
        seed: u64,
        n_transients: usize,
        max_epoch: u32,
    ) -> Self {
        let mut rng = rng_for(seed, 0xee);
        let margin = 6.0;
        let span = geom.tile_px as f32 - 2.0 * margin;
        let transients = (0..n_transients)
            .map(|_| Transient {
                tx: rng.gen_range(0..geom.tiles_x),
                ty: rng.gen_range(0..geom.tiles_y),
                x: margin + rng.gen::<f32>() * span,
                y: margin + rng.gen::<f32>() * span,
                onset: rng.gen_range(1..max_epoch.max(2)),
                peak: rng.gen_range(1500.0..6000.0),
                rise: rng.gen_range(1..=2),
                decay: rng.gen_range(2.0..5.0),
            })
            .collect();
        Self {
            geom,
            config,
            seed,
            transients,
        }
    }

    /// The fixed star catalog of one tile (derived from the world seed,
    /// identical across epochs — that is what makes differencing work).
    pub fn catalog(&self, tx: u32, ty: u32) -> Vec<Star> {
        let stream = ((ty as u64) << 32) | tx as u64;
        let mut rng = rng_for(self.seed, stream);
        (0..self.config.stars_per_tile)
            .map(|_| Star {
                x: rng.gen::<f32>() * self.geom.tile_px as f32,
                y: rng.gen::<f32>() * self.geom.tile_px as f32,
                peak: rng.gen_range(self.config.star_peak.0..self.config.star_peak.1),
                sigma: rng.gen_range(self.config.psf_sigma.0..self.config.psf_sigma.1),
            })
            .collect()
    }

    /// Render tile `(tx, ty)` as observed at `epoch`.
    pub fn render_tile(&self, epoch: u32, tx: u32, ty: u32) -> Vec<u16> {
        let n = self.geom.tile_px as usize;
        let mut img = vec![0f32; n * n];

        // Static stars.
        for star in self.catalog(tx, ty) {
            splat_gaussian(&mut img, n, star.x, star.y, star.peak, star.sigma);
        }
        // Transients active this epoch.
        for t in self.transients.iter().filter(|t| t.tx == tx && t.ty == ty) {
            let b = t.brightness(epoch);
            if b > 0.0 {
                splat_gaussian(&mut img, n, t.x, t.y, t.peak * b, 1.8);
            }
        }
        // Background + per-exposure noise (new stream every epoch).
        let stream = 0xbad0_0000u64 ^ ((epoch as u64) << 40) ^ ((ty as u64) << 20) ^ tx as u64;
        let mut rng = rng_for(self.seed, stream);
        img.iter()
            .map(|&v| {
                let noise = gaussian(&mut rng) * self.config.noise_sigma;
                (v + self.config.background + noise).clamp(0.0, 65535.0) as u16
            })
            .collect()
    }
}

/// Add a clipped 2-D Gaussian to the image.
fn splat_gaussian(img: &mut [f32], n: usize, cx: f32, cy: f32, peak: f32, sigma: f32) {
    let r = (4.0 * sigma).ceil() as i64;
    let x0 = (cx.floor() as i64 - r).max(0);
    let x1 = (cx.floor() as i64 + r).min(n as i64 - 1);
    let y0 = (cy.floor() as i64 - r).max(0);
    let y1 = (cy.floor() as i64 + r).min(n as i64 - 1);
    let inv2s2 = 1.0 / (2.0 * sigma * sigma);
    for y in y0..=y1 {
        for x in x0..=x1 {
            let dx = x as f32 - cx;
            let dy = y as f32 - cy;
            img[y as usize * n + x as usize] += peak * (-(dx * dx + dy * dy) * inv2s2).exp();
        }
    }
}

/// Standard normal via Box–Muller.
fn gaussian(rng: &mut impl Rng) -> f32 {
    let u1: f32 = rng.gen_range(f32::EPSILON..1.0);
    let u2: f32 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (std::f32::consts::TAU * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> SkyModel {
        let geom = SkyGeometry::new(2, 2, 64, 4096);
        SkyModel::new(geom, SynthConfig::default(), 99, 3, 8)
    }

    #[test]
    fn rendering_is_deterministic() {
        let m = model();
        assert_eq!(m.render_tile(2, 0, 0), m.render_tile(2, 0, 0));
        assert_eq!(m.catalog(1, 1).len(), 40);
    }

    #[test]
    fn noise_differs_across_epochs_but_stars_stay() {
        let m = model();
        let a = m.render_tile(0, 0, 0);
        let b = m.render_tile(1, 0, 0);
        assert_ne!(a, b, "per-exposure noise must differ");
        // But the difference should be small everywhere without a
        // transient: bounded by ~8 noise sigmas.
        let has_transient_here = m
            .transients
            .iter()
            .any(|t| t.tx == 0 && t.ty == 0 && t.brightness(1) > 0.05);
        if !has_transient_here {
            let max_diff = a
                .iter()
                .zip(&b)
                .map(|(&x, &y)| (x as i32 - y as i32).abs())
                .max()
                .unwrap();
            assert!(max_diff < (8.0 * m.config.noise_sigma) as i32, "{max_diff}");
        }
    }

    #[test]
    fn transient_light_curve_shape() {
        let t = Transient {
            tx: 0,
            ty: 0,
            x: 10.0,
            y: 10.0,
            onset: 3,
            peak: 1000.0,
            rise: 2,
            decay: 3.0,
        };
        assert_eq!(t.brightness(0), 0.0);
        assert_eq!(t.brightness(2), 0.0);
        assert!(t.brightness(4) > 0.0 && t.brightness(4) < 1.0);
        assert!((t.brightness(5) - 1.0).abs() < 1e-6, "peak at onset+rise");
        assert!(t.brightness(6) < 1.0);
        assert!(t.brightness(8) < t.brightness(6), "monotone decay");
    }

    #[test]
    fn transient_brightens_its_tile() {
        let m = model();
        let t = m.transients[0];
        let peak_epoch = t.onset + t.rise;
        let before = m.render_tile(t.onset - 1, t.tx, t.ty);
        let at_peak = m.render_tile(peak_epoch, t.tx, t.ty);
        let n = m.geom.tile_px as usize;
        let idx = (t.y.round() as usize) * n + t.x.round() as usize;
        let delta = at_peak[idx] as f32 - before[idx] as f32;
        assert!(
            delta > 5.0 * m.config.noise_sigma,
            "transient must rise above noise: delta={delta}"
        );
    }
}
