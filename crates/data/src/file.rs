//! File-backed splits and the RandomRecordReader of Appendix B.
//!
//! The in-memory [`crate::Dataset`] is the workhorse of the experiment
//! harness, but the paper's sampling mappers read *files*: they seek to
//! `p·n_j` random record offsets inside an HDFS split and read only those
//! records. This module implements that over local files of
//! **fixed-length records** (Appendix B, first part): the reader computes
//! `n_j` from the file size, draws `p·n_j` distinct record indices, and
//! visits them in ascending offset order. It reports exactly how many
//! bytes it touched, so IO accounting stays honest when these splits feed
//! the cost model.
//!
//! The file is input from outside the program: a size that is not a whole
//! number of records, or a file that shrinks after [`FixedSplitReader::open`],
//! is an `io::Error`, never a panic. Reached today by `tests/file_backed.rs`
//! only; ROADMAP item 10 decides whether builders read through it.

use std::fs::File;
use std::io::{BufReader, BufWriter, Error, ErrorKind, Read, Seek, SeekFrom, Write};
use std::path::Path;

use crate::draw::floyd;
use crate::rng::SplitMix64;

/// Writes `keys` as fixed-length records of `record_bytes` each: an 8-byte
/// little-endian key followed by zero padding.
///
/// # Panics
///
/// Panics when `record_bytes < 8`.
pub fn write_fixed(path: &Path, keys: &[u64], record_bytes: u32) -> std::io::Result<()> {
    assert!(
        record_bytes >= 8,
        "fixed records need at least the 8-byte key"
    );
    let mut out = BufWriter::new(File::create(path)?);
    let pad = vec![0u8; record_bytes as usize - 8];
    for &k in keys {
        out.write_all(&k.to_le_bytes())?;
        out.write_all(&pad)?;
    }
    out.flush()
}

/// A sampling read over a file split: sampled keys plus IO accounting.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SampleRead {
    /// Keys of the sampled records, in file order.
    pub keys: Vec<u64>,
    /// Bytes actually read from the file.
    pub bytes_read: u64,
}

/// Reader over a fixed-record-length file split.
#[derive(Debug)]
pub struct FixedSplitReader {
    file: File,
    record_bytes: u32,
    num_records: u64,
}

impl FixedSplitReader {
    /// Opens `path`; derives `n_j` from the file size. A `record_bytes`
    /// too small to hold the 8-byte key is `InvalidInput`; a file whose
    /// size is not a multiple of `record_bytes` is `InvalidData`.
    pub fn open(path: &Path, record_bytes: u32) -> std::io::Result<Self> {
        if record_bytes < 8 {
            return Err(Error::new(
                ErrorKind::InvalidInput,
                format!("record size {record_bytes} cannot hold the 8-byte key"),
            ));
        }
        let file = File::open(path)?;
        let len = file.metadata()?.len();
        if len % u64::from(record_bytes) != 0 {
            return Err(Error::new(
                ErrorKind::InvalidData,
                format!("file size {len} not a multiple of record size {record_bytes}"),
            ));
        }
        Ok(Self {
            file,
            record_bytes,
            num_records: len / u64::from(record_bytes),
        })
    }

    /// Records in the split (`n_j`).
    pub fn num_records(&self) -> u64 {
        self.num_records
    }

    /// Sequentially scans all keys.
    pub fn scan(&mut self) -> std::io::Result<Vec<u64>> {
        self.file.seek(SeekFrom::Start(0))?;
        let mut reader = BufReader::new(&self.file);
        let mut keys = Vec::with_capacity(self.num_records as usize);
        let mut rec = vec![0u8; self.record_bytes as usize];
        for _ in 0..self.num_records {
            reader.read_exact(&mut rec)?;
            keys.push(u64::from_le_bytes(rec[..8].try_into().expect("8-byte key")));
        }
        Ok(keys)
    }

    /// The Appendix-B RandomRecordReader: draws `count` distinct record
    /// indices with [`floyd`] seeded by `seed`, seeks to each in ascending
    /// order, and reads only those records. The draw's bitset takes
    /// `⌈n_j/64⌉` words: at most 1/64 of the file's bytes, since a record
    /// holds at least its 8-byte key.
    pub fn sample(&mut self, count: u64, seed: u64) -> std::io::Result<SampleRead> {
        let offsets = floyd(SplitMix64::new(seed), self.num_records, count);
        let mut keys = Vec::with_capacity(offsets.len());
        let mut buf = [0u8; 8];
        for idx in &offsets {
            self.file
                .seek(SeekFrom::Start(idx * u64::from(self.record_bytes)))?;
            self.file.read_exact(&mut buf)?;
            keys.push(u64::from_le_bytes(buf));
        }
        Ok(SampleRead {
            keys,
            bytes_read: offsets.len() as u64 * u64::from(self.record_bytes),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("wh-data-file-tests");
        std::fs::create_dir_all(&dir).expect("temp dir");
        dir.join(name)
    }

    fn test_keys(n: u64) -> Vec<u64> {
        (0..n).map(|i| i.wrapping_mul(2654435761) % 1000).collect()
    }

    #[test]
    fn fixed_roundtrip_scan() {
        let path = tmp("fixed_scan.bin");
        let keys = test_keys(500);
        write_fixed(&path, &keys, 16).expect("write");
        let mut r = FixedSplitReader::open(&path, 16).expect("open");
        assert_eq!(r.num_records(), 500);
        assert_eq!(r.scan().expect("scan"), keys);
    }

    #[test]
    fn fixed_sample_without_replacement() {
        let path = tmp("fixed_sample.bin");
        let keys = test_keys(1000);
        write_fixed(&path, &keys, 32).expect("write");
        let mut r = FixedSplitReader::open(&path, 32).expect("open");
        let s = r.sample(100, 7).expect("sample");
        assert_eq!(s.keys.len(), 100);
        assert_eq!(s.bytes_read, 100 * 32);
        // Every sampled key is a real key (multiset membership check via
        // sampling everything).
        let all = r.sample(1000, 9).expect("full sample");
        assert_eq!(all.keys, keys, "sampling all positions = scan");
    }

    #[test]
    fn fixed_sample_deterministic_per_seed() {
        let path = tmp("fixed_det.bin");
        write_fixed(&path, &test_keys(200), 16).expect("write");
        let mut r = FixedSplitReader::open(&path, 16).expect("open");
        let a = r.sample(50, 1).expect("sample");
        let b = r.sample(50, 1).expect("sample");
        let c = r.sample(50, 2).expect("sample");
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn empty_file_sample_is_empty() {
        let path = tmp("empty.bin");
        write_fixed(&path, &[], 16).expect("write");
        let mut r = FixedSplitReader::open(&path, 16).expect("open");
        assert_eq!(r.sample(10, 1).expect("sample").keys.len(), 0);
    }
}
