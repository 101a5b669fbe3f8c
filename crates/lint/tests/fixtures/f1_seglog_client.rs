// Fixture: the same jobs as f1_raw_file_writes.rs done as a client of the
// segment log, plus the file reads the rule leaves alone (rule f1, clean).

use symphony_sim::seglog::{self, SegLog};

fn save_snapshot(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    SegLog::create(path, bytes).map(drop)
}

fn reopen(path: &std::path::Path) -> std::io::Result<SegLog> {
    let bytes = std::fs::read(path)?;
    let (_, valid_len, _) = seglog::scan(&bytes, |tag, _| Some(tag));
    let mut log = SegLog::open(path)?;
    log.truncate_to(valid_len as u64)?;
    Ok(log)
}

fn swap(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<SegLog> {
    // `offset_len` is not `set_len`: patterns match at word boundaries.
    let offset_len = bytes.len();
    SegLog::create(path, &bytes[..offset_len])
}
