//! # blobseer-sky
//!
//! The paper's motivating application (§I): searching for supernovae in a
//! stream of sky images stored as one huge versioned blob.
//!
//! * [`sky`] — the 2-D → 1-D mapping: tiles, epochs, page-aligned slots;
//! * [`synth`] — deterministic synthetic sky: star field, per-exposure
//!   noise, injected transients with rise/decay light curves (the ground
//!   truth);
//! * [`detect`] — reference-template difference imaging, robust
//!   thresholding, connected components, light-curve classification;
//! * [`pipeline`] — telescope writers + detector readers over any
//!   `BlobClient` (a functional, costed or tcp deployment), with
//!   recall/precision scoring against the injected ground truth.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod detect;
pub mod pipeline;
pub mod sky;
pub mod synth;

pub use detect::{build_light_curves, detect_tile, Candidate, DetectConfig, LightCurve};
pub use pipeline::{score, Detector, SimBackend, SkyBackend, SurveyReport, Telescope};
pub use sky::{decode_tile, encode_tile, SkyGeometry};
pub use synth::{SkyModel, SynthConfig, Transient};
