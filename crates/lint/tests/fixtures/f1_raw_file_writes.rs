// Fixture: a durable file written around the segment log (rule f1).

use std::io::Write;

fn save_snapshot(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    // Truncates in place: killed here, the previous snapshot is gone.
    std::fs::write(path, bytes)
}

fn reopen(path: &std::path::Path, valid: u64) -> std::io::Result<std::fs::File> {
    let file = std::fs::OpenOptions::new().write(true).open(path)?;
    file.set_len(valid)?;
    Ok(file)
}

fn swap(path: &std::path::Path, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = path.with_extension("new");
    std::fs::File::create(&tmp)?.write_all(bytes)?;
    std::fs::rename(&tmp, path)
}

#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_set_up_files_however_they_like() {
        std::fs::write(std::env::temp_dir().join("f1_fixture"), b"torn on purpose").unwrap();
    }
}
