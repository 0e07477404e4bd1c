//! Process and disk accounting: peak resident memory, bytes read and
//! artifact bytes.

use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};

/// Bytes in one megabyte (decimal, as the metric's unit says).
pub const MB: f64 = 1e6;

/// Parses the `VmHWM` (peak resident set) line of a `/proc/<pid>/status`
/// text into bytes.
pub fn parse_peak_rss(status: &str) -> Option<u64> {
    let line = status.lines().find(|line| line.starts_with("VmHWM:"))?;
    let mut fields = line["VmHWM:".len()..].split_whitespace();
    let value: u64 = fields.next()?.parse().ok()?;
    match fields.next() {
        Some("kB") => value.checked_mul(1024),
        _ => None,
    }
}

/// This process's peak resident set size in bytes.
pub fn peak_rss_bytes() -> Option<u64> {
    parse_peak_rss(&std::fs::read_to_string("/proc/self/status").ok()?)
}

/// Parses the `rchar` line of a `/proc/<pid>/io` text: bytes this process
/// has read through `read`-family system calls, page-cache hits included.
pub fn parse_read_chars(io: &str) -> Option<u64> {
    io.lines()
        .find_map(|line| line.strip_prefix("rchar:"))?
        .trim()
        .parse()
        .ok()
}

/// Bytes of `/proc/self/io` that [`read_chars`] itself has read.
static OWN_READS: AtomicU64 = AtomicU64::new(0);

/// Bytes this process has read so far, all threads together, leaving out
/// the reads of `/proc/self/io` this function made. The artifact cache and
/// the shard grids read their files with `read` and `pread`, so the
/// difference across a load is exactly the bytes that load read.
pub fn read_chars() -> Result<u64, String> {
    let text = std::fs::read_to_string("/proc/self/io").map_err(|e| e.to_string())?;
    let total = parse_read_chars(&text).ok_or("no rchar in /proc/self/io")?;
    let own = OWN_READS.fetch_add(text.len() as u64, Ordering::Relaxed);
    Ok(total - own)
}

/// Total bytes of the regular files under `dir`, recursively. A missing
/// directory holds zero bytes.
pub fn dir_bytes(dir: &Path) -> std::io::Result<u64> {
    let entries = match std::fs::read_dir(dir) {
        Ok(entries) => entries,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(0),
        Err(e) => return Err(e),
    };
    let mut total = 0;
    for entry in entries {
        let entry = entry?;
        let kind = entry.file_type()?;
        if kind.is_dir() {
            total += dir_bytes(&entry.path())?;
        } else if kind.is_file() {
            total += entry.metadata()?.len();
        }
    }
    Ok(total)
}

/// Removes `dir` and everything under it; a missing directory is fine.
pub fn remove_dir(dir: &Path) -> std::io::Result<()> {
    match std::fs::remove_dir_all(dir) {
        Err(e) if e.kind() != std::io::ErrorKind::NotFound => Err(e),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_reads_the_high_water_mark_in_kib() {
        let status = "Name:\tperfbench\nVmPeak:\t  999 kB\nVmHWM:\t   2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_peak_rss(status), Some(2048 * 1024));
        assert_eq!(parse_peak_rss("VmRSS:\t1 kB\n"), None);
        assert_eq!(parse_peak_rss("VmHWM:\t12 MB\n"), None);
        let own = peak_rss_bytes().expect("Linux exposes VmHWM");
        assert!(own > 0);
    }

    #[test]
    fn read_chars_count_the_bytes_a_read_returns() {
        let io = "rchar: 3980\nwchar: 12\nsyscr: 9\nread_bytes: 0\n";
        assert_eq!(parse_read_chars(io), Some(3980));
        assert_eq!(parse_read_chars("wchar: 12\n"), None);
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("Cargo.toml");
        let size = std::fs::metadata(&path).unwrap().len();
        let before = read_chars().unwrap();
        std::fs::read(&path).unwrap();
        let read = read_chars().unwrap() - before;
        // The file once, plus whatever tests running alongside read.
        assert!(read >= size && read < size + (1 << 20), "{read} vs {size}");
    }

    #[test]
    fn dir_bytes_sums_nested_files() {
        let root = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("test-dir-bytes-{}", std::process::id()));
        remove_dir(&root).unwrap();
        std::fs::create_dir_all(root.join("nested")).unwrap();
        std::fs::write(root.join("a"), [0u8; 1000]).unwrap();
        std::fs::write(root.join("nested").join("b"), [0u8; 234]).unwrap();
        assert_eq!(dir_bytes(&root).unwrap(), 1234);
        remove_dir(&root).unwrap();
        assert_eq!(dir_bytes(&root).unwrap(), 0);
        remove_dir(&root).unwrap();
    }
}
