//! File shipping with a checksummed manifest.
//!
//! The ftp analogue of §1: extraction outputs (ASCII dumps, Export files,
//! archived WAL segments, Op-Delta logs) are copied into a destination
//! directory; a manifest records each file's size and checksum, and the
//! receiving side verifies before consuming. Optionally charges the transfer
//! to a [`crate::netsim::SimulatedConnection`] so end-to-end experiments can
//! account for network time.

use std::fs::{self, File};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};

use delta_storage::colbatch::{fnv1a, FNV1A_OFFSET};
use delta_storage::{StorageError, StorageResult};

use crate::netsim::SimulatedConnection;

/// A one-directional file channel into `dest_dir`.
pub struct FileTransport {
    dest_dir: PathBuf,
}

/// One shipped file, as recorded in the manifest.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShippedFile {
    pub name: String,
    pub bytes: u64,
    pub checksum: u64,
}

impl FileTransport {
    /// Create a transport delivering into `dest_dir` (created if needed).
    pub fn new(dest_dir: impl Into<PathBuf>) -> StorageResult<FileTransport> {
        let dest_dir = dest_dir.into();
        fs::create_dir_all(&dest_dir)?;
        Ok(FileTransport { dest_dir })
    }

    /// Destination directory.
    pub fn dest_dir(&self) -> &Path {
        &self.dest_dir
    }

    fn manifest_path(&self) -> PathBuf {
        self.dest_dir.join("MANIFEST")
    }

    /// Ship `src` into the destination directory, appending to the manifest.
    /// When `conn` is given, the transfer is charged to the simulated link.
    pub fn ship(
        &self,
        src: impl AsRef<Path>,
        conn: Option<&mut SimulatedConnection>,
    ) -> StorageResult<ShippedFile> {
        let src = src.as_ref();
        let mut bytes = Vec::new();
        File::open(src)?.read_to_end(&mut bytes)?;
        let name = src
            .file_name()
            .and_then(|n| n.to_str())
            .ok_or_else(|| StorageError::NotFound(format!("bad source path {}", src.display())))?
            .to_string();
        if let Some(conn) = conn {
            conn.send(bytes.len() as u64);
        }
        let dest = self.dest_dir.join(&name);
        let tmp = self.dest_dir.join(format!(".{name}.part"));
        fs::write(&tmp, &bytes)?;
        fs::rename(&tmp, &dest)?;
        let shipped = ShippedFile {
            name,
            bytes: bytes.len() as u64,
            checksum: fnv1a(FNV1A_OFFSET, &bytes),
        };
        let mut manifest = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.manifest_path())?;
        writeln!(
            manifest,
            "{}\t{}\t{}",
            shipped.name, shipped.bytes, shipped.checksum
        )?;
        Ok(shipped)
    }

    /// Parse the manifest (most recent entry wins per name).
    pub fn manifest(&self) -> StorageResult<Vec<ShippedFile>> {
        let path = self.manifest_path();
        if !path.exists() {
            return Ok(Vec::new());
        }
        let mut by_name: Vec<ShippedFile> = Vec::new();
        for line in fs::read_to_string(&path)?.lines() {
            let mut parts = line.split('\t');
            let (name, bytes, sum) = match (parts.next(), parts.next(), parts.next()) {
                (Some(a), Some(b), Some(c)) => (a, b, c),
                _ => return Err(StorageError::Corrupt(format!("bad manifest line '{line}'"))),
            };
            let entry = ShippedFile {
                name: name.to_string(),
                bytes: bytes
                    .parse()
                    .map_err(|_| StorageError::Corrupt("bad manifest size".into()))?,
                checksum: sum
                    .parse()
                    .map_err(|_| StorageError::Corrupt("bad manifest checksum".into()))?,
            };
            by_name.retain(|e| e.name != entry.name);
            by_name.push(entry);
        }
        Ok(by_name)
    }

    /// Verify a received file against the manifest and return its path.
    pub fn receive(&self, name: &str) -> StorageResult<PathBuf> {
        let entry = self
            .manifest()?
            .into_iter()
            .find(|e| e.name == name)
            .ok_or_else(|| StorageError::NotFound(format!("manifest entry '{name}'")))?;
        let path = self.dest_dir.join(name);
        let mut bytes = Vec::new();
        File::open(&path)?.read_to_end(&mut bytes)?;
        if bytes.len() as u64 != entry.bytes || fnv1a(FNV1A_OFFSET, &bytes) != entry.checksum {
            return Err(StorageError::Corrupt(format!(
                "shipped file '{name}' failed verification"
            )));
        }
        Ok(path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::netsim::{LinkProfile, VirtualClock};

    fn tmp(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "delta-ft-{}-{:?}-{name}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = fs::remove_dir_all(&d);
        fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn ship_and_receive_round_trip() {
        let dir = tmp("rt");
        let src = dir.join("delta.txt");
        fs::write(&src, b"1|a\n2|b\n").unwrap();
        let t = FileTransport::new(dir.join("inbox")).unwrap();
        let shipped = t.ship(&src, None).unwrap();
        assert_eq!(shipped.bytes, 8);
        let received = t.receive("delta.txt").unwrap();
        assert_eq!(fs::read(received).unwrap(), b"1|a\n2|b\n");
    }

    #[test]
    fn corruption_is_detected_on_receive() {
        let dir = tmp("corrupt");
        let src = dir.join("delta.txt");
        fs::write(&src, b"payload").unwrap();
        let t = FileTransport::new(dir.join("inbox")).unwrap();
        t.ship(&src, None).unwrap();
        fs::write(dir.join("inbox/delta.txt"), b"tampered").unwrap();
        assert!(t.receive("delta.txt").is_err());
    }

    #[test]
    fn missing_manifest_entry_errors() {
        let dir = tmp("missing");
        let t = FileTransport::new(dir.join("inbox")).unwrap();
        assert!(t.receive("nope.txt").is_err());
    }

    #[test]
    fn reship_updates_manifest() {
        let dir = tmp("reship");
        let src = dir.join("d.txt");
        let t = FileTransport::new(dir.join("inbox")).unwrap();
        fs::write(&src, b"v1").unwrap();
        t.ship(&src, None).unwrap();
        fs::write(&src, b"v2-longer").unwrap();
        t.ship(&src, None).unwrap();
        let m = t.manifest().unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m[0].bytes, 9);
        assert_eq!(fs::read(t.receive("d.txt").unwrap()).unwrap(), b"v2-longer");
    }

    #[test]
    fn simulated_link_is_charged() {
        let dir = tmp("sim");
        let src = dir.join("d.txt");
        fs::write(&src, vec![0u8; 125_000]).unwrap(); // 0.1 s at 10 Mb/s
        let clock = VirtualClock::new();
        let mut conn = SimulatedConnection::new(LinkProfile::lan_10mbps(), clock.clone());
        let t = FileTransport::new(dir.join("inbox")).unwrap();
        t.ship(&src, Some(&mut conn)).unwrap();
        assert!(clock.now() >= std::time::Duration::from_millis(100));
        assert_eq!(conn.stats().bytes, 125_000);
    }
}
