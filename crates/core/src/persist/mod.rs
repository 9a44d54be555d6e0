//! Bespoke binary save/load for trained classifiers.
//!
//! The workspace builds offline against a no-op serde shim (see
//! `vendor/serde`), so `#[derive(Serialize)]` produces nothing at runtime.
//! Model persistence therefore uses its own byte formats, versioned by a
//! magic string and selected at save time through [`ModelFormat`]:
//!
//! * **`POETBIN1`** (`v1`) — the original flat little-endian dump.
//!   Fixed-width everywhere: feature indices cost 8 bytes, output weights
//!   4 bytes even when zero.
//! * **`POETBIN2`** (`v2`) — the compact sectioned format. A section
//!   table up front (kind, offset, length, CRC-32 per section) frames four
//!   byte-aligned sections — header, RINC bank, MAT units, output layer —
//!   so corruption is localised to a section and a reader can seek
//!   straight to the one it wants. Inside the sections, tree arities and
//!   feature indices are LEB-style varints, output weights are
//!   zigzag-signed varints behind a sparsity bit, and truth tables travel
//!   as raw bit payloads ([`poetbin_bits::BitWriter`] does the packing).
//!
//! [`load_classifier`] sniffs the magic and decodes either format; both
//! reproduce the classifier bit-exactly (MAT vote LUTs are re-folded from
//! their weights on load, which is deterministic).
//!
//! # Example
//!
//! ```no_run
//! use poetbin_core::persist::{load_classifier, save_classifier, ModelFormat};
//! # let classifier: poetbin_core::PoetBinClassifier = unimplemented!();
//!
//! let bytes = save_classifier(&classifier, ModelFormat::PoetBin2);
//! let back = load_classifier(&bytes).expect("round-trip");
//! assert_eq!(back, classifier);
//! ```

use std::fmt;
use std::fs;
use std::io;
use std::path::Path;

use poetbin_bits::{BitReadError, TruthTable, TruthTableBytesError};

use crate::classifier::PoetBinClassifier;

mod v1;
mod v2;

pub use v1::MAGIC_V1;
pub use v2::{MAGIC_V2, SEC_HEADER, SEC_MAT, SEC_OUTPUT, SEC_RINC};

/// On-disk format to serialise a classifier into.
///
/// Loading never needs this — [`load_classifier`] dispatches on the magic
/// string — but saving does: `POETBIN1` stays writable so the migration
/// tooling and the conformance fixtures can pin legacy bytes.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ModelFormat {
    /// The original flat fixed-width format (`POETBIN1`).
    PoetBin1,
    /// The compact sectioned varlen format (`POETBIN2`).
    PoetBin2,
}

impl ModelFormat {
    /// The 8-byte magic string opening a file of this format.
    pub fn magic(self) -> &'static [u8; 8] {
        match self {
            ModelFormat::PoetBin1 => MAGIC_V1,
            ModelFormat::PoetBin2 => MAGIC_V2,
        }
    }

    /// Identifies the format of `bytes` from its magic string, if any.
    pub fn sniff(bytes: &[u8]) -> Option<ModelFormat> {
        if bytes.starts_with(MAGIC_V1) {
            Some(ModelFormat::PoetBin1)
        } else if bytes.starts_with(MAGIC_V2) {
            Some(ModelFormat::PoetBin2)
        } else {
            None
        }
    }
}

impl fmt::Display for ModelFormat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ModelFormat::PoetBin1 => "POETBIN1",
            ModelFormat::PoetBin2 => "POETBIN2",
        })
    }
}

/// Errors raised while decoding a persisted classifier.
#[derive(Debug)]
pub enum PersistError {
    /// The buffer ended before the structure it promised.
    UnexpectedEof,
    /// The magic string is missing or belongs to an unknown version.
    BadMagic,
    /// An unknown node tag was encountered (`POETBIN1`).
    BadTag(u8),
    /// An embedded truth table failed to decode (`POETBIN1`).
    Table(TruthTableBytesError),
    /// A `POETBIN2` section's bit stream was truncated or malformed.
    Bits(BitReadError),
    /// A `POETBIN2` section table entry is unusable (out-of-range offset,
    /// duplicate kind, trailing data inside the section, …).
    Section {
        /// The section kind the entry claimed.
        kind: u8,
        /// What was wrong with it.
        reason: String,
    },
    /// A `POETBIN2` section's CRC-32 does not match its bytes — the
    /// corruption is localised to this section.
    ChecksumMismatch {
        /// The damaged section's kind.
        kind: u8,
    },
    /// A section every `POETBIN2` model must carry is absent.
    MissingSection {
        /// The absent section's kind.
        kind: u8,
    },
    /// The bytes decoded but describe an inconsistent model.
    Invalid(String),
    /// Underlying I/O failure (file helpers only).
    Io(io::Error),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::UnexpectedEof => write!(f, "model bytes truncated"),
            PersistError::BadMagic => {
                write!(f, "not a POETBIN1 or POETBIN2 model file")
            }
            PersistError::BadTag(t) => write!(f, "unknown RINC node tag {t}"),
            PersistError::Table(e) => write!(f, "embedded truth table: {e}"),
            PersistError::Bits(e) => write!(f, "section bit stream: {e}"),
            PersistError::Section { kind, reason } => {
                write!(f, "section {}: {reason}", section_name(*kind))
            }
            PersistError::ChecksumMismatch { kind } => {
                write!(f, "section {} fails its checksum", section_name(*kind))
            }
            PersistError::MissingSection { kind } => {
                write!(f, "section {} is missing", section_name(*kind))
            }
            PersistError::Invalid(msg) => write!(f, "inconsistent model: {msg}"),
            PersistError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

/// Human name of a `POETBIN2` section kind, for error messages.
fn section_name(kind: u8) -> String {
    match kind {
        SEC_HEADER => "header".into(),
        SEC_RINC => "rinc-bank".into(),
        SEC_MAT => "mat-units".into(),
        SEC_OUTPUT => "output-layer".into(),
        other => format!("#{other}"),
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Table(e) => Some(e),
            PersistError::Bits(e) => Some(e),
            PersistError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<TruthTableBytesError> for PersistError {
    fn from(e: TruthTableBytesError) -> Self {
        PersistError::Table(e)
    }
}

impl From<BitReadError> for PersistError {
    fn from(e: BitReadError) -> Self {
        PersistError::Bits(e)
    }
}

impl From<io::Error> for PersistError {
    fn from(e: io::Error) -> Self {
        PersistError::Io(e)
    }
}

/// The reflected CRC-32 polynomial of IEEE 802.3.
const CRC32_POLY: u32 = 0xEDB8_8320;

/// Slicing-by-8 tables: `CRC32_TABLES[0][b]` is the CRC register after
/// shifting byte `b` through eight rounds of the polynomial, and
/// `CRC32_TABLES[k][b]` the same followed by `k` zero bytes, so eight
/// input bytes fold into the register with eight independent lookups.
/// Built at compile time.
const CRC32_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut crc = b as u32;
        let mut round = 0;
        while round < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ CRC32_POLY
            } else {
                crc >> 1
            };
            round += 1;
        }
        tables[0][b] = crc;
        b += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = tables[k - 1][b];
            tables[k][b] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            b += 1;
        }
        k += 1;
    }
    tables
};

/// CRC-32 (IEEE 802.3, reflected) over a byte slice — the per-section
/// checksum of `POETBIN2`. Public so tests (and external tooling) can
/// craft or re-seal section tables. Table-driven, eight bytes per step
/// (slicing-by-8); the checksums are those of the bitwise definition.
pub fn section_crc(bytes: &[u8]) -> u32 {
    let t = &CRC32_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut chunks = bytes.chunks_exact(8);
    for c in &mut chunks {
        let lo = crc ^ u32::from_le_bytes([c[0], c[1], c[2], c[3]]);
        let hi = u32::from_le_bytes([c[4], c[5], c[6], c[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][(lo >> 8 & 0xFF) as usize]
            ^ t[5][(lo >> 16 & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][(hi >> 8 & 0xFF) as usize]
            ^ t[1][(hi >> 16 & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ u32::from(b)) & 0xFF) as usize];
    }
    !crc
}

/// Structural checks shared by both codecs: a decoded tree's table must
/// match its feature list.
fn validate_tree(features: &[usize], table: &TruthTable) -> Result<(), PersistError> {
    if table.inputs() != features.len() {
        return Err(PersistError::Invalid(format!(
            "tree with {} features but a {}-input table",
            features.len(),
            table.inputs()
        )));
    }
    Ok(())
}

/// Structural checks shared by both codecs: MAT weights must be usable
/// before the vote LUT is re-folded (folding materialises `2^fan-in`
/// entries and would panic or blow up memory on bad input).
fn validate_mat(weights: &[f64], threshold: f64, children: usize) -> Result<(), PersistError> {
    if weights.is_empty() || weights.iter().any(|w| !w.is_finite()) || !threshold.is_finite() {
        return Err(PersistError::Invalid("degenerate MAT weights".into()));
    }
    if weights.len() > poetbin_bits::MAX_LUT_INPUTS {
        return Err(PersistError::Invalid(format!(
            "MAT fan-in {} exceeds the {}-input LUT limit",
            weights.len(),
            poetbin_bits::MAX_LUT_INPUTS
        )));
    }
    if weights.len() != children {
        return Err(PersistError::Invalid(format!(
            "MAT fan-in {} but {} children",
            weights.len(),
            children
        )));
    }
    Ok(())
}

/// Structural checks shared by both codecs: the output layer's header
/// fields must be in range.
fn validate_output_header(classes: usize, q_bits: u8) -> Result<(), PersistError> {
    if classes == 0 || !(1..=16).contains(&q_bits) {
        return Err(PersistError::Invalid(format!(
            "output layer with {classes} classes, q={q_bits}"
        )));
    }
    Ok(())
}

/// Serialises a trained classifier into the chosen byte format.
pub fn save_classifier(clf: &PoetBinClassifier, format: ModelFormat) -> Vec<u8> {
    match format {
        ModelFormat::PoetBin1 => v1::save(clf),
        ModelFormat::PoetBin2 => v2::save(clf),
    }
}

/// Decodes a classifier previously produced by [`save_classifier`],
/// dispatching on the magic string — both formats load transparently.
///
/// # Errors
///
/// Returns [`PersistError`] on truncation, a bad magic string, damaged
/// sections (`POETBIN2` checksums localise the damage), malformed
/// payloads, or structurally inconsistent contents.
pub fn load_classifier(bytes: &[u8]) -> Result<PoetBinClassifier, PersistError> {
    if bytes.len() < 8 {
        return Err(PersistError::UnexpectedEof);
    }
    match ModelFormat::sniff(bytes) {
        Some(ModelFormat::PoetBin1) => v1::load(bytes),
        Some(ModelFormat::PoetBin2) => v2::load(bytes),
        None => Err(PersistError::BadMagic),
    }
}

/// Writes a classifier to a file in the chosen format.
///
/// # Errors
///
/// Returns [`PersistError::Io`] on filesystem failure.
pub fn save_classifier_to(
    path: impl AsRef<Path>,
    clf: &PoetBinClassifier,
    format: ModelFormat,
) -> Result<(), PersistError> {
    fs::write(path, save_classifier(clf, format))?;
    Ok(())
}

/// Reads a classifier from a file in either format.
///
/// # Errors
///
/// Returns [`PersistError`] on I/O failure or malformed content.
pub fn load_classifier_from(path: impl AsRef<Path>) -> Result<PoetBinClassifier, PersistError> {
    load_classifier(&fs::read(path)?)
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::output_layer::QuantizedSparseOutput;
    use crate::rinc_bank::RincBank;
    use poetbin_bits::{BitVec, FeatureMatrix};
    use poetbin_boost::RincConfig;
    use rand::prelude::*;
    use rand::rngs::StdRng;

    /// A small but structurally complete classifier: RINC-2 hierarchy so
    /// both node shapes and nested modules appear in the byte stream.
    pub(crate) fn trained_classifier() -> (PoetBinClassifier, FeatureMatrix) {
        let n = 240;
        let f = 20;
        let (classes, p) = (2usize, 2usize);
        let mut rng = StdRng::seed_from_u64(41);
        let rows: Vec<BitVec> = (0..n)
            .map(|_| BitVec::from_fn(f, |_| rng.random::<bool>()))
            .collect();
        let features = FeatureMatrix::from_rows(rows);
        let labels: Vec<usize> = (0..n)
            .map(|e| usize::from((0..7).filter(|&j| features.bit(e, j)).count() >= 4))
            .collect();
        let targets =
            FeatureMatrix::from_fn(n, classes * p, |e, j| (j / p == 1) == (labels[e] == 1));
        let bank = RincBank::train(&features, &targets, &RincConfig::new(2, 2));
        let inter = bank.predict_bits(&features);
        let output = QuantizedSparseOutput::train(&inter, &labels, classes, 8, 10);
        (PoetBinClassifier::new(bank, output), features)
    }

    const BOTH: [ModelFormat; 2] = [ModelFormat::PoetBin1, ModelFormat::PoetBin2];

    #[test]
    fn classifier_roundtrip_is_exact_in_both_formats() {
        let (clf, features) = trained_classifier();
        for format in BOTH {
            let bytes = save_classifier(&clf, format);
            assert_eq!(ModelFormat::sniff(&bytes), Some(format));
            let back = load_classifier(&bytes).expect("round-trip");
            assert_eq!(back, clf, "{format}");
            assert_eq!(back.predict(&features), clf.predict(&features), "{format}");
        }
    }

    #[test]
    fn poetbin2_is_substantially_smaller() {
        let (clf, _) = trained_classifier();
        let v1 = save_classifier(&clf, ModelFormat::PoetBin1);
        let v2 = save_classifier(&clf, ModelFormat::PoetBin2);
        assert!(
            (v2.len() as f64) < 0.7 * v1.len() as f64,
            "POETBIN2 {} bytes vs POETBIN1 {} bytes",
            v2.len(),
            v1.len()
        );
    }

    #[test]
    fn file_roundtrip_works_in_both_formats() {
        let (clf, _) = trained_classifier();
        for format in BOTH {
            let path = std::env::temp_dir().join(format!("poetbin_persist_test_{format}.bin"));
            save_classifier_to(&path, &clf, format).expect("save");
            let back = load_classifier_from(&path).expect("load");
            assert_eq!(back, clf, "{format}");
            let _ = std::fs::remove_file(&path);
        }
    }

    #[test]
    fn rejects_truncation_at_every_prefix_length() {
        let (clf, _) = trained_classifier();
        for format in BOTH {
            let bytes = save_classifier(&clf, format);
            // Every strict prefix must fail cleanly — never panic, never
            // succeed.
            for cut in (0..bytes.len()).step_by(7) {
                assert!(
                    load_classifier(&bytes[..cut]).is_err(),
                    "{format}: prefix of {cut} bytes decoded"
                );
            }
        }
    }

    #[test]
    fn rejects_bad_magic() {
        assert!(matches!(
            load_classifier(b"NOTPBIN1rest"),
            Err(PersistError::BadMagic)
        ));
        assert!(matches!(
            load_classifier(b"POET"),
            Err(PersistError::UnexpectedEof)
        ));
    }

    #[test]
    fn crc_matches_known_vectors() {
        // The IEEE 802.3 check value for "123456789".
        assert_eq!(section_crc(b"123456789"), 0xCBF4_3926);
        assert_eq!(section_crc(b""), 0);
    }

    #[test]
    fn table_crc_matches_the_bitwise_definition() {
        // The shift-and-xor loop the table folds, one bit per round.
        fn bitwise(bytes: &[u8]) -> u32 {
            let mut crc = 0xFFFF_FFFFu32;
            for &b in bytes {
                crc ^= u32::from(b);
                for _ in 0..8 {
                    crc = if crc & 1 != 0 {
                        (crc >> 1) ^ CRC32_POLY
                    } else {
                        crc >> 1
                    };
                }
            }
            !crc
        }
        let bytes: Vec<u8> = (0..4096u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for len in [0, 1, 2, 3, 7, 8, 9, 15, 16, 17, 63, 64, 65, 1000, 4096] {
            assert_eq!(
                section_crc(&bytes[..len]),
                bitwise(&bytes[..len]),
                "len {len}"
            );
        }
        assert_eq!(bitwise(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn error_display_is_informative() {
        let e = PersistError::Invalid("bank has 3 modules".into());
        assert!(e.to_string().contains("3 modules"));
        assert!(PersistError::BadMagic.to_string().contains("POETBIN1"));
        assert!(PersistError::ChecksumMismatch { kind: SEC_RINC }
            .to_string()
            .contains("rinc-bank"));
        assert!(PersistError::MissingSection { kind: SEC_OUTPUT }
            .to_string()
            .contains("output-layer"));
        assert!(PersistError::Section {
            kind: 0xEE,
            reason: "offset out of range".into()
        }
        .to_string()
        .contains("#238"));
    }
}
