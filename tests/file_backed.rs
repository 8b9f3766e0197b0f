//! Integration of the file-backed split reader (Appendix B) with the
//! sampling machinery: materialise a dataset to disk, sample it through
//! the RandomRecordReader, and check the statistics line up with the
//! in-memory path — and that hostile bytes (a file that is not a whole
//! number of records, or that shrinks under the reader) are an
//! `io::Error`, never a panic.

use std::path::PathBuf;

use std::io::ErrorKind;

use wavelet_hist::data::draw::floyd;
use wavelet_hist::data::file::{write_fixed, FixedSplitReader};
use wavelet_hist::data::{Dataset, SplitMix64};
use wavelet_hist::sampling::SamplingConfig;

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("wh-file-integration");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

/// Materialises one split of a lazy dataset to a fixed-record file.
fn materialise_split(ds: &Dataset, j: u32, name: &str, record_bytes: u32) -> PathBuf {
    let path = tmp(name);
    let keys: Vec<u64> = ds.scan_split(j).map(|r| r.key).collect();
    write_fixed(&path, &keys, record_bytes).expect("write split");
    path
}

#[test]
fn file_scan_matches_lazy_scan() {
    let ds = Dataset::zipf(10, 1.1, 20_000, 4);
    let path = materialise_split(&ds, 2, "scan.bin", 16);
    let mut reader = FixedSplitReader::open(&path, 16).expect("open");
    let from_file = reader.scan().expect("scan");
    let from_memory: Vec<u64> = ds.scan_split(2).map(|r| r.key).collect();
    assert_eq!(from_file, from_memory);
}

#[test]
fn file_sampler_draws_the_configured_fraction() {
    let ds = Dataset::zipf(10, 1.1, 40_000, 4);
    let path = materialise_split(&ds, 0, "fraction.bin", 16);
    let mut reader = FixedSplitReader::open(&path, 16).expect("open");
    let cfg = SamplingConfig::new(0.02, ds.num_splits(), ds.num_records());
    let t_j = cfg.split_sample_size_seeded(reader.num_records(), 9);
    let sample = reader.sample(t_j, 9).expect("sample");
    assert_eq!(sample.keys.len() as u64, t_j);
    // IO accounting: only the sampled records were read.
    assert_eq!(sample.bytes_read, t_j * 16);
    assert!(sample.bytes_read < reader.num_records() * 16 / 10);
}

#[test]
fn file_sampler_reads_exactly_the_drawn_positions() {
    // Record i holds key i, so the sampled keys are the positions read.
    for (n, count, seed, record_bytes) in [
        (0, 10, 1, 16),      // an empty split
        (100, 500, 2, 16),   // more than the split: every record
        (1_000, 100, 3, 24), // 1000 = 15·64 + 40: a partial last word
        (65, 64, 4, 16),     // all but one, one record past a word
        (4_096, 256, 5, 8),  // whole words only
    ] {
        let path = tmp(&format!("drawn-{n}-{count}.bin"));
        write_fixed(&path, &(0..n).collect::<Vec<u64>>(), record_bytes).expect("write");
        let mut reader = FixedSplitReader::open(&path, record_bytes).expect("open");
        let drawn = floyd(SplitMix64::new(seed), n, count);
        assert_eq!(drawn.len() as u64, count.min(n));
        let sample = reader.sample(count, seed).expect("sample");
        assert_eq!(sample.keys, drawn, "n = {n}, count = {count}");
        assert_eq!(
            sample.bytes_read,
            drawn.len() as u64 * u64::from(record_bytes)
        );
    }
}

#[test]
fn file_sample_key_distribution_tracks_source() {
    // The sampled keys' empirical head mass should be close to the file's.
    let ds = Dataset::zipf(8, 1.4, 50_000, 2);
    let path = materialise_split(&ds, 0, "dist.bin", 16);
    let mut reader = FixedSplitReader::open(&path, 16).expect("open");
    let all = reader.scan().expect("scan");
    let head_mass = all.iter().filter(|&&k| k < 8).count() as f64 / all.len() as f64;
    let sample = reader.sample(4_000, 3).expect("sample");
    let sample_head =
        sample.keys.iter().filter(|&&k| k < 8).count() as f64 / sample.keys.len() as f64;
    assert!(
        (head_mass - sample_head).abs() < 0.05,
        "head mass {head_mass:.3} vs sampled {sample_head:.3}"
    );
}

#[test]
fn empty_file_is_an_empty_split() {
    let path = tmp("hostile-empty.bin");
    std::fs::write(&path, []).expect("write");
    let mut reader = FixedSplitReader::open(&path, 16).expect("open");
    assert_eq!(reader.num_records(), 0);
    assert!(reader.scan().expect("scan").is_empty());
    let sample = reader.sample(10, 1).expect("sample");
    assert!(sample.keys.is_empty());
    assert_eq!(sample.bytes_read, 0);
}

#[test]
fn malformed_files_and_record_sizes_are_errors_not_panics() {
    let path = tmp("hostile-short.bin");
    // Ten 16-byte records, one byte short.
    std::fs::write(&path, vec![0u8; 159]).expect("write");
    let err = FixedSplitReader::open(&path, 16).expect_err("one byte short");
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    // A record too small to hold the key, on a file whose size it divides.
    std::fs::write(&path, vec![0u8; 7 * 20]).expect("write");
    let err = FixedSplitReader::open(&path, 7).expect_err("record_bytes = 7");
    assert_eq!(err.kind(), ErrorKind::InvalidInput);
    let err = FixedSplitReader::open(&tmp("hostile-absent.bin"), 16).expect_err("no file");
    assert_eq!(err.kind(), ErrorKind::NotFound);
}

#[test]
fn file_truncated_after_open_fails_scan_and_sample() {
    let path = tmp("hostile-truncated.bin");
    let keys: Vec<u64> = (0..1_000).collect();
    write_fixed(&path, &keys, 16).expect("write");
    let mut reader = FixedSplitReader::open(&path, 16).expect("open");
    assert_eq!(reader.num_records(), 1_000);
    // Someone else cuts the file mid-record while the reader holds it.
    let cut = std::fs::OpenOptions::new()
        .write(true)
        .open(&path)
        .expect("reopen");
    cut.set_len(500 * 16 + 3).expect("truncate");
    let err = reader.scan().expect_err("scan past the new end");
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
    // Sampling every record index must touch the missing half.
    let err = reader
        .sample(1_000, 5)
        .expect_err("sample past the new end");
    assert_eq!(err.kind(), ErrorKind::UnexpectedEof);
}
