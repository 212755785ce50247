//! Deterministic synthetic input generators.
//!
//! The paper uses PARSEC native inputs, a 600-frame webcam video, and a
//! 1,050-frame video (§IV-C) — none of which ship with a library. These
//! generators produce statistically equivalent streams: moving targets
//! with measurement noise and clutter for the trackers, drifting labeled
//! Gaussian clusters for the stream benchmarks, and interest-rate batch
//! descriptors for the pricer. Every stream is a pure function of its
//! seed, and output quality is scored without external references: frames
//! carry their true pose and labeled batches their classes, swaptions
//! prices against a fixed-seed oracle, and streamcluster scores its
//! clustering cost against the generator's spread (point batches carry no
//! ground truth).

mod image;
mod points;
mod rates;

pub use image::{Frame, ImageStreamConfig};
pub use points::{LabeledBatch, PointBatch, PointStreamConfig};
pub use rates::{RateBatch, RateStreamConfig};
