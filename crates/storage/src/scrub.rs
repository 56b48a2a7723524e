//! Online storage scrubbing: page CRCs and corrupt-unit quarantine.
//!
//! Silent corruption — a bit flip at rest, a misdirected write — is the one
//! failure the recovery path cannot see: a structurally plausible page parses
//! fine and simply holds wrong bytes. The scrubber closes that gap with a
//! whole-page CRC stamped into the page header's reserved word (bytes
//! `12..16`, untouched by every slotted-page operation) on each physical
//! write, and a background walk ([`scrub_page_file`]) that re-reads every
//! page and verifies both the CRC and the slotted-page structure.
//!
//! Verification happens **only** in the scrubber, never on the hot read
//! path: a torn page mid-recovery is the WAL's business (and torture-tested
//! there); the scrubber's business is the page nobody would otherwise read
//! again until its contents are served as query answers. A page reaches
//! disk one of two ways: through [`DiskFile::write_page`], stamped, or
//! through [`DiskFile::allocate_page`], all zero. So a zero CRC word means
//! "unstamped" only on an all-zero page; on any other page it is a damaged
//! stamp, and the page is corrupt.
//!
//! Corrupt pages are quarantined by listing them in a `<file>.quarantine`
//! sidecar ([`quarantine_pages`]) — the heap file itself is left untouched
//! for forensics and for the scoped audit-and-repair pass
//! (`delta-warehouse`'s anti-entropy subsystem, DESIGN.md §14) that the
//! scrub report triggers.

use std::path::{Path, PathBuf};

use crate::colbatch::{crc32, crc32_update};
use crate::error::StorageResult;
use crate::file::{DiskFile, PAGE_SIZE};
use crate::page::SlottedPage;

/// Byte offset of the page-CRC word inside the page header (the reserved
/// word of the slotted-page layout; see `page.rs`).
pub const PAGE_CRC_OFFSET: usize = 12;

/// Sentinel meaning "no CRC stamped": the CRC word of an all-zero page,
/// allocated and never written.
pub const PAGE_CRC_UNSTAMPED: u32 = 0;

/// CRC of a page image with its CRC word zeroed — the value
/// [`stamp_page_crc`] stores and [`check_page`] recomputes. The image is
/// folded in place as three spans (the bytes before the word, four zero
/// bytes, the bytes after it), never copied. A computed CRC that collides
/// with the unstamped sentinel is nudged to 1, trading an undetectable
/// one-in-4-billion corruption for an unambiguous sentinel.
pub fn page_content_crc(page: &[u8]) -> u32 {
    let page = &page[..page.len().min(PAGE_SIZE)];
    let crc = if page.len() >= PAGE_CRC_OFFSET + 4 {
        let head = crc32_update(crc32(&page[..PAGE_CRC_OFFSET]), &[0; 4]);
        crc32_update(head, &page[PAGE_CRC_OFFSET + 4..])
    } else {
        crc32(page)
    };
    if crc == PAGE_CRC_UNSTAMPED {
        1
    } else {
        crc
    }
}

/// Stamp the whole-page CRC into the header's reserved word. Called by
/// [`DiskFile::write_page`] on every physical page write.
pub fn stamp_page_crc(page: &mut [u8]) {
    if page.len() < PAGE_CRC_OFFSET + 4 {
        return;
    }
    let crc = page_content_crc(page);
    page[PAGE_CRC_OFFSET..PAGE_CRC_OFFSET + 4].copy_from_slice(&crc.to_le_bytes());
}

/// Verdict of checking one page image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PageCheck {
    /// An all-zero page: allocated, never written.
    Unstamped,
    /// Stored CRC matches the recomputed content CRC.
    Clean,
    /// Stored CRC disagrees with the content — silent corruption.
    Corrupt {
        /// CRC found in the header word.
        stored: u32,
        /// CRC recomputed over the page content.
        computed: u32,
    },
}

/// Verify the stamped CRC of one page image (structure is checked
/// separately by the scrub walk via [`SlottedPage::from_bytes`]).
pub fn check_page(page: &[u8]) -> PageCheck {
    if page.len() < PAGE_CRC_OFFSET + 4 {
        return PageCheck::Unstamped;
    }
    let mut word = [0u8; 4];
    word.copy_from_slice(&page[PAGE_CRC_OFFSET..PAGE_CRC_OFFSET + 4]);
    let stored = u32::from_le_bytes(word);
    if stored == PAGE_CRC_UNSTAMPED && page.iter().all(|&b| b == 0) {
        return PageCheck::Unstamped;
    }
    let computed = page_content_crc(page);
    if stored == computed {
        PageCheck::Clean
    } else {
        PageCheck::Corrupt { stored, computed }
    }
}

/// What one [`scrub_page_file`] walk found.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PageScrubOutcome {
    /// Pages read and inspected.
    pub scanned: u64,
    /// All-zero pages (allocated, never written), which carry no CRC.
    pub unstamped: u64,
    /// Page numbers that failed the CRC or the structural check.
    pub corrupt: Vec<u32>,
}

/// Walk every page of `file`, verifying the stamped CRC and the
/// slotted-page structure. Returns the corrupt page numbers; the caller
/// decides quarantine policy (see [`quarantine_pages`]).
pub fn scrub_page_file(file: &DiskFile) -> StorageResult<PageScrubOutcome> {
    let mut out = PageScrubOutcome::default();
    let mut buf = vec![0u8; PAGE_SIZE];
    for page_no in 0..file.page_count() {
        file.read_page(page_no, &mut buf)?;
        out.scanned += 1;
        match check_page(&buf) {
            PageCheck::Unstamped => out.unstamped += 1,
            PageCheck::Corrupt { .. } => {
                out.corrupt.push(page_no);
                continue;
            }
            PageCheck::Clean => {}
        }
        if SlottedPage::from_bytes(&buf).is_err() {
            out.corrupt.push(page_no);
        }
    }
    out.corrupt.dedup();
    Ok(out)
}

/// Record corrupt page numbers of the paged file at `path` in its
/// `<path>.quarantine` sidecar (one page number per line, whole-file
/// rewrite). The data file itself is left in place for forensics and
/// scoped repair. Returns the sidecar path.
pub fn quarantine_pages(path: &Path, pages: &[u32]) -> StorageResult<PathBuf> {
    let sidecar = quarantine_sidecar(path);
    let mut body = String::new();
    for p in pages {
        body.push_str(&p.to_string());
        body.push('\n');
    }
    std::fs::write(&sidecar, body)?;
    Ok(sidecar)
}

/// Path of the quarantine sidecar for the paged file at `path`.
pub fn quarantine_sidecar(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_os_string();
    name.push(".quarantine");
    PathBuf::from(name)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmpfile(name: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "delta-scrub-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&d).unwrap();
        let p = d.join(name);
        let _ = std::fs::remove_file(&p);
        p
    }

    fn page_with_record(payload: &[u8]) -> Vec<u8> {
        let mut page = SlottedPage::new();
        page.insert(payload).unwrap();
        page.as_bytes().to_vec()
    }

    #[test]
    fn stamp_then_check_is_clean_and_idempotent() {
        let mut page = page_with_record(b"hello");
        stamp_page_crc(&mut page);
        assert_eq!(check_page(&page), PageCheck::Clean);
        let once = page.clone();
        stamp_page_crc(&mut page);
        assert_eq!(page, once, "restamping an unchanged page is a no-op");
    }

    #[test]
    fn bit_flip_after_stamping_is_caught() {
        let mut page = page_with_record(b"payload");
        stamp_page_crc(&mut page);
        page[100] ^= 0x01;
        assert!(matches!(check_page(&page), PageCheck::Corrupt { .. }));
    }

    #[test]
    fn write_page_stamps_and_scrub_walk_verifies() {
        let p = tmpfile("scrub1.db");
        let f = DiskFile::open(&p).unwrap();
        for _ in 0..3 {
            f.allocate_page().unwrap();
        }
        for i in 0..3 {
            f.write_page(i, &mut page_with_record(format!("rec-{i}").as_bytes()))
                .unwrap();
        }
        let out = scrub_page_file(&f).unwrap();
        assert_eq!(out.scanned, 3);
        assert_eq!(out.unstamped, 0, "write_page stamps every page");
        assert!(out.corrupt.is_empty());
    }

    #[test]
    fn scrub_flags_silently_flipped_page_and_quarantines() {
        use std::io::{Seek, SeekFrom, Write};
        let p = tmpfile("scrub2.db");
        {
            let f = DiskFile::open(&p).unwrap();
            for _ in 0..2 {
                f.allocate_page().unwrap();
            }
            for i in 0..2 {
                f.write_page(i, &mut page_with_record(b"stable")).unwrap();
            }
            f.sync().unwrap();
        }
        // Flip one payload byte of page 1 behind the engine's back.
        {
            let mut raw = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(&p)
                .unwrap();
            raw.seek(SeekFrom::Start(PAGE_SIZE as u64 + 4000)).unwrap();
            raw.write_all(&[0xEE]).unwrap();
        }
        let f = DiskFile::open(&p).unwrap();
        let out = scrub_page_file(&f).unwrap();
        assert_eq!(out.corrupt, vec![1]);
        let sidecar = quarantine_pages(&p, &out.corrupt).unwrap();
        let body = std::fs::read_to_string(&sidecar).unwrap();
        assert_eq!(body, "1\n");
    }

    #[test]
    fn a_zero_crc_word_on_a_page_with_records_is_corrupt() {
        let mut page = page_with_record(b"hello");
        assert!(matches!(check_page(&page), PageCheck::Corrupt { .. }));
        stamp_page_crc(&mut page);
        page[PAGE_CRC_OFFSET..PAGE_CRC_OFFSET + 4].fill(0);
        assert_eq!(
            check_page(&page),
            PageCheck::Corrupt {
                stored: PAGE_CRC_UNSTAMPED,
                computed: page_content_crc(&page)
            }
        );
    }

    #[test]
    fn scrub_flags_a_stamped_page_whose_crc_word_was_zeroed() {
        use std::io::{Seek, SeekFrom, Write};
        let p = tmpfile("scrub4.db");
        {
            let f = DiskFile::open(&p).unwrap();
            for i in 0..2 {
                f.allocate_page().unwrap();
                f.write_page(i, &mut page_with_record(b"stable")).unwrap();
            }
            f.sync().unwrap();
        }
        // Zero page 1's CRC word behind the engine's back; its slots still
        // parse, so only the CRC can tell.
        {
            let mut raw = std::fs::OpenOptions::new()
                .read(true)
                .write(true)
                .open(&p)
                .unwrap();
            raw.seek(SeekFrom::Start((PAGE_SIZE + PAGE_CRC_OFFSET) as u64))
                .unwrap();
            raw.write_all(&[0; 4]).unwrap();
        }
        let f = DiskFile::open(&p).unwrap();
        let out = scrub_page_file(&f).unwrap();
        assert_eq!(out.scanned, 2);
        assert_eq!(out.unstamped, 0);
        assert_eq!(out.corrupt, vec![1]);
    }

    #[test]
    fn zeroed_fresh_pages_scrub_as_unstamped_not_corrupt() {
        let p = tmpfile("scrub3.db");
        let f = DiskFile::open(&p).unwrap();
        f.allocate_page().unwrap();
        let out = scrub_page_file(&f).unwrap();
        assert_eq!(out.scanned, 1);
        assert_eq!(out.unstamped, 1);
        assert!(out.corrupt.is_empty());
    }
}
