//! Compact binary serialization of synthetic input streams.
//!
//! Native-scale streams are cheap to regenerate, but pinning a generated
//! dataset to disk makes experiment artifacts self-contained (the same
//! role PARSEC's `native` input archives play for the paper). The format
//! is a minimal little-endian framing with a magic/version header —
//! deliberately simple, round-trip property-tested.

use crate::synth::{Frame, LabeledBatch, PointBatch, RateBatch};
use bytes::{Buf, BufMut, Bytes, BytesMut};
use std::fmt;

const MAGIC: u32 = 0x5754_5301; // "STW" + version 1

/// Decoding failures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CodecError {
    /// The buffer does not start with the expected magic/version.
    BadMagic,
    /// The buffer ended before the declared payload.
    Truncated,
    /// The kind tag does not match the requested stream type.
    WrongKind {
        /// Tag found in the header.
        found: u8,
        /// Tag required by the decoder.
        expected: u8,
    },
    /// The rows of a point batch (its points and, for unlabeled batches,
    /// its centers) do not share one positive length, or there are none,
    /// so they cannot form one row-major buffer.
    RaggedBatch {
        /// Index of the batch in the stream.
        batch: usize,
    },
}

impl fmt::Display for CodecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CodecError::BadMagic => write!(f, "not a stats-workbench stream (bad magic)"),
            CodecError::Truncated => write!(f, "stream truncated"),
            CodecError::WrongKind { found, expected } => {
                write!(f, "wrong stream kind {found} (expected {expected})")
            }
            CodecError::RaggedBatch { batch } => write!(
                f,
                "batch {batch}: rows must all have one positive length, and there must be at least one row"
            ),
        }
    }
}

impl std::error::Error for CodecError {}

const KIND_FRAMES: u8 = 1;
const KIND_POINTS: u8 = 2;
const KIND_LABELED: u8 = 3;
const KIND_RATES: u8 = 4;

fn put_header(buf: &mut BytesMut, kind: u8, count: usize) {
    buf.put_u32_le(MAGIC);
    buf.put_u8(kind);
    buf.put_u64_le(count as u64);
}

fn take_header(buf: &mut Bytes, expected: u8) -> Result<usize, CodecError> {
    if buf.remaining() < 13 {
        return Err(CodecError::Truncated);
    }
    if buf.get_u32_le() != MAGIC {
        return Err(CodecError::BadMagic);
    }
    let kind = buf.get_u8();
    if kind != expected {
        return Err(CodecError::WrongKind {
            found: kind,
            expected,
        });
    }
    Ok(buf.get_u64_le() as usize)
}

fn put_vec(buf: &mut BytesMut, v: &[f64]) {
    buf.put_u32_le(v.len() as u32);
    for x in v {
        buf.put_f64_le(*x);
    }
}

/// Read a `put_vec` length and check that its payload follows.
fn take_len(buf: &mut Bytes) -> Result<usize, CodecError> {
    if buf.remaining() < 4 {
        return Err(CodecError::Truncated);
    }
    let n = buf.get_u32_le() as usize;
    if buf.remaining() < n * 8 {
        return Err(CodecError::Truncated);
    }
    Ok(n)
}

fn take_vec(buf: &mut Bytes) -> Result<Vec<f64>, CodecError> {
    let n = take_len(buf)?;
    Ok((0..n).map(|_| buf.get_f64_le()).collect())
}

/// Append one `put_vec` row of batch `batch` to `coords`. The first row
/// fixes `dims`; every later one must match it.
fn take_row(
    buf: &mut Bytes,
    batch: usize,
    dims: &mut Option<usize>,
    coords: &mut Vec<f64>,
) -> Result<(), CodecError> {
    let n = take_len(buf)?;
    if n == 0 || dims.is_some_and(|d| d != n) {
        return Err(CodecError::RaggedBatch { batch });
    }
    *dims = Some(n);
    coords.extend((0..n).map(|_| buf.get_f64_le()));
    Ok(())
}

/// Encode a frame stream (the tracker benchmarks' inputs).
pub fn encode_frames(frames: &[Frame]) -> Bytes {
    let mut buf = BytesMut::new();
    put_header(&mut buf, KIND_FRAMES, frames.len());
    for f in frames {
        put_vec(&mut buf, &f.truth);
        put_vec(&mut buf, &f.observation);
        put_vec(&mut buf, &f.distractor);
        buf.put_f64_le(f.clutter);
        buf.put_u8(u8::from(f.occluded));
    }
    buf.freeze()
}

/// Decode a frame stream.
///
/// # Errors
///
/// See [`CodecError`].
pub fn decode_frames(mut buf: Bytes) -> Result<Vec<Frame>, CodecError> {
    let count = take_header(&mut buf, KIND_FRAMES)?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let truth = take_vec(&mut buf)?;
        let observation = take_vec(&mut buf)?;
        let distractor = take_vec(&mut buf)?;
        if buf.remaining() < 9 {
            return Err(CodecError::Truncated);
        }
        let clutter = buf.get_f64_le();
        let occluded = buf.get_u8() != 0;
        out.push(Frame {
            truth,
            observation,
            distractor,
            clutter,
            occluded,
        });
    }
    Ok(out)
}

/// Encode a point-batch stream (streamcluster's inputs).
pub fn encode_points(batches: &[PointBatch]) -> Bytes {
    let mut buf = BytesMut::new();
    put_header(&mut buf, KIND_POINTS, batches.len());
    for b in batches {
        buf.put_u32_le(b.len() as u32);
        for p in b.points() {
            put_vec(&mut buf, p);
        }
        buf.put_u32_le(b.true_centers().len() as u32);
        for c in b.true_centers() {
            put_vec(&mut buf, c);
        }
    }
    buf.freeze()
}

/// Decode a point-batch stream.
///
/// # Errors
///
/// See [`CodecError`].
pub fn decode_points(mut buf: Bytes) -> Result<Vec<PointBatch>, CodecError> {
    let count = take_header(&mut buf, KIND_POINTS)?;
    let mut out = Vec::with_capacity(count);
    for batch in 0..count {
        let mut dims = None;
        if buf.remaining() < 4 {
            return Err(CodecError::Truncated);
        }
        let np = buf.get_u32_le() as usize;
        let mut coords = Vec::new();
        for _ in 0..np {
            take_row(&mut buf, batch, &mut dims, &mut coords)?;
        }
        if buf.remaining() < 4 {
            return Err(CodecError::Truncated);
        }
        let nc = buf.get_u32_le() as usize;
        let mut true_centers = Vec::new();
        for _ in 0..nc {
            take_row(&mut buf, batch, &mut dims, &mut true_centers)?;
        }
        let dims = dims.ok_or(CodecError::RaggedBatch { batch })?;
        out.push(PointBatch::new(dims, coords, true_centers));
    }
    Ok(out)
}

/// Encode a labeled-batch stream (streamclassifier's inputs).
pub fn encode_labeled(batches: &[LabeledBatch]) -> Bytes {
    let mut buf = BytesMut::new();
    put_header(&mut buf, KIND_LABELED, batches.len());
    for b in batches {
        buf.put_u32_le(b.len() as u32);
        for (p, label) in b.points().zip(b.labels()) {
            put_vec(&mut buf, p);
            buf.put_u32_le(*label as u32);
        }
    }
    buf.freeze()
}

/// Decode a labeled-batch stream.
///
/// # Errors
///
/// See [`CodecError`].
pub fn decode_labeled(mut buf: Bytes) -> Result<Vec<LabeledBatch>, CodecError> {
    let count = take_header(&mut buf, KIND_LABELED)?;
    let mut out = Vec::with_capacity(count);
    for batch in 0..count {
        let mut dims = None;
        if buf.remaining() < 4 {
            return Err(CodecError::Truncated);
        }
        let np = buf.get_u32_le() as usize;
        let mut coords = Vec::new();
        let mut labels = Vec::new();
        for _ in 0..np {
            take_row(&mut buf, batch, &mut dims, &mut coords)?;
            if buf.remaining() < 4 {
                return Err(CodecError::Truncated);
            }
            labels.push(buf.get_u32_le() as usize);
        }
        let dims = dims.ok_or(CodecError::RaggedBatch { batch })?;
        out.push(LabeledBatch::new(dims, coords, labels));
    }
    Ok(out)
}

/// Encode a rate-batch stream (swaptions' inputs).
pub fn encode_rates(batches: &[RateBatch]) -> Bytes {
    let mut buf = BytesMut::new();
    put_header(&mut buf, KIND_RATES, batches.len());
    for b in batches {
        buf.put_u32_le(b.swaption as u32);
        buf.put_u64_le(b.simulations);
        buf.put_f64_le(b.strike);
        buf.put_f64_le(b.maturity);
        buf.put_f64_le(b.rate0);
        buf.put_f64_le(b.volatility);
    }
    buf.freeze()
}

/// Decode a rate-batch stream.
///
/// # Errors
///
/// See [`CodecError`].
pub fn decode_rates(mut buf: Bytes) -> Result<Vec<RateBatch>, CodecError> {
    let count = take_header(&mut buf, KIND_RATES)?;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        if buf.remaining() < 4 + 8 + 4 * 8 {
            return Err(CodecError::Truncated);
        }
        out.push(RateBatch {
            swaption: buf.get_u32_le() as usize,
            simulations: buf.get_u64_le(),
            strike: buf.get_f64_le(),
            maturity: buf.get_f64_le(),
            rate0: buf.get_f64_le(),
            volatility: buf.get_f64_le(),
        });
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::synth::{ImageStreamConfig, PointStreamConfig, RateStreamConfig};

    #[test]
    fn frames_round_trip() {
        let frames = ImageStreamConfig::face().generate(64, 7);
        let bytes = encode_frames(&frames);
        let back = decode_frames(bytes).unwrap();
        assert_eq!(frames, back);
    }

    #[test]
    fn points_round_trip() {
        let batches = PointStreamConfig::cluster_stream().generate(16, 3);
        assert_eq!(decode_points(encode_points(&batches)).unwrap(), batches);
    }

    #[test]
    fn labeled_round_trip() {
        let batches = PointStreamConfig::classifier_stream().generate_labeled(16, 3);
        assert_eq!(decode_labeled(encode_labeled(&batches)).unwrap(), batches);
    }

    #[test]
    fn rates_round_trip() {
        let batches = RateStreamConfig::paper().generate(32, 9);
        assert_eq!(decode_rates(encode_rates(&batches)).unwrap(), batches);
    }

    #[test]
    fn bad_magic_and_kind_are_rejected() {
        let frames = ImageStreamConfig::face().generate(4, 1);
        let good = encode_frames(&frames);
        // Wrong kind: decode frames as points.
        assert_eq!(
            decode_points(good.clone()),
            Err(CodecError::WrongKind {
                found: KIND_FRAMES,
                expected: KIND_POINTS
            })
        );
        // Corrupt magic.
        let mut corrupt = BytesMut::from(&good[..]);
        corrupt[0] ^= 0xFF;
        assert_eq!(decode_frames(corrupt.freeze()), Err(CodecError::BadMagic));
    }

    #[test]
    fn truncation_is_detected_at_every_cut() {
        let frames = ImageStreamConfig::face().generate(6, 5);
        let bytes = encode_frames(&frames);
        // Every strict prefix must fail cleanly, never panic.
        for cut in 0..bytes.len() {
            let prefix = bytes.slice(0..cut);
            assert!(
                decode_frames(prefix).is_err(),
                "prefix of {cut} bytes decoded successfully?!"
            );
        }
    }

    #[test]
    fn empty_streams_round_trip() {
        assert_eq!(
            decode_frames(encode_frames(&[])).unwrap(),
            Vec::<Frame>::new()
        );
        assert_eq!(
            decode_rates(encode_rates(&[])).unwrap(),
            Vec::<RateBatch>::new()
        );
    }

    /// One batch of hand-framed rows: `points` then `centers`.
    fn framed_points(points: &[&[f64]], centers: &[&[f64]]) -> Bytes {
        let mut buf = BytesMut::new();
        put_header(&mut buf, KIND_POINTS, 1);
        for rows in [points, centers] {
            buf.put_u32_le(rows.len() as u32);
            for row in rows {
                put_vec(&mut buf, row);
            }
        }
        buf.freeze()
    }

    #[test]
    fn ragged_batches_are_rejected_not_rechunked() {
        let ragged = Err(CodecError::RaggedBatch { batch: 0 });
        // Points of different lengths.
        assert_eq!(
            decode_points(framed_points(&[&[1.0, 2.0], &[3.0, 4.0, 5.0]], &[])),
            ragged
        );
        // Centers whose length differs from the points'.
        assert_eq!(
            decode_points(framed_points(&[&[1.0, 2.0]], &[&[0.0, 0.0, 0.0]])),
            ragged
        );
        // Rows of length 0, and a batch with no rows at all.
        assert_eq!(decode_points(framed_points(&[&[]], &[])), ragged);
        assert_eq!(decode_points(framed_points(&[], &[])), ragged);
        // Labeled points of different lengths, in the second batch.
        let mut buf = BytesMut::new();
        put_header(&mut buf, KIND_LABELED, 2);
        for rows in [&[&[1.0][..]][..], &[&[1.0], &[2.0, 3.0]]] {
            buf.put_u32_le(rows.len() as u32);
            for row in rows {
                put_vec(&mut buf, row);
                buf.put_u32_le(0);
            }
        }
        let err = decode_labeled(buf.freeze()).unwrap_err();
        assert_eq!(err, CodecError::RaggedBatch { batch: 1 });
        assert!(err.to_string().starts_with("batch 1: rows must all have"));
        // A well-formed hand-framed batch decodes to the same rows.
        let good = decode_points(framed_points(&[&[1.0, 2.0], &[3.0, 4.0]], &[&[0.5, 0.5]]));
        assert_eq!(
            good.unwrap(),
            [PointBatch::new(2, vec![1.0, 2.0, 3.0, 4.0], vec![0.5, 0.5])]
        );
    }

    fn fnv1a(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
        })
    }

    #[test]
    fn point_streams_encode_to_pinned_bytes() {
        // FNV-1a digests of the encoded streams, recorded when each point
        // was still its own `Vec<f64>`: they pin both the generators' draw
        // order and the byte format across layout changes.
        let pinned = [
            (1, 0xf13b_efb1_7b58_7e78, 0x52f0_1f8c_e30f_758b),
            (7, 0x4c4f_f727_c475_ae91, 0xee78_5114_9ade_60d7),
        ];
        for (seed, points, labeled) in pinned {
            let p = encode_points(&PointStreamConfig::cluster_stream().generate(64, seed));
            let l =
                encode_labeled(&PointStreamConfig::classifier_stream().generate_labeled(64, seed));
            assert_eq!(p.len(), 331_277, "seed {seed}");
            assert_eq!(l.len(), 418_061, "seed {seed}");
            assert_eq!(fnv1a(&p), points, "seed {seed}: points");
            assert_eq!(fnv1a(&l), labeled, "seed {seed}: labeled");
        }
    }
}
