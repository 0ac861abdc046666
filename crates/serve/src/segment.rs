//! The persistent cache tier: an mmap-backed append-only segment.
//!
//! PR 5 persisted results as one file per key, which costs a
//! create/write/fsync/rename per insert and a directory scan to warm
//! up. This module replaces it with a single append-only segment file:
//!
//! * **records** are `[magic, key, len, payload-hash, payload]`,
//!   appended and fsynced before the in-memory index publishes them —
//!   a crash can only ever produce a torn *tail*, never a torn middle;
//! * **reads** go through an `mmap` of the file (raw FFI against the
//!   already-linked C library), so N daemon processes sharing one
//!   segment share one page-cache copy of the warm state;
//! * the **index** (key → offset) is rebuilt by a forward scan at open.
//!   The scan is corrupt-tolerant: the first record whose magic, bounds
//!   or payload hash fails validation marks the logical end of file —
//!   a writable open truncates the torn tail away, a read-only open
//!   just ignores it;
//! * **sharing**: a read-only segment can [`refresh`] against a file
//!   another daemon process is appending to — it remaps and scans only
//!   the new suffix. Writers are single-process (the serve daemon
//!   shards by architecture content-hash precisely so that each key
//!   range has one writer; see DESIGN.md §13).
//!
//! Values are opaque UTF-8 (rendered result JSON); a record whose
//! payload fails hash or UTF-8 validation reads as a miss, never an
//! error.
//!
//! [`refresh`]: SegmentStore::refresh

use cgra_dfg::ContentHasher;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// Segment file header: magic + format version, 16 bytes.
const HEADER: &[u8; 16] = b"cgra-seg\x01\x00\x00\x00\x00\x00\x00\x00";

/// Per-record magic, guarding the scan against torn appends.
const RECORD_MAGIC: u32 = 0x5345_4752; // "RGES"

/// Record header bytes: magic u32 + key u64 + len u32 + hash u64.
const RECORD_HEADER: usize = 4 + 8 + 4 + 8;

/// Records larger than this are rejected at append and treated as
/// corruption by the scan (a length field this big is a torn write).
const MAX_PAYLOAD: usize = 256 << 20;

fn payload_hash(bytes: &[u8]) -> u64 {
    let mut h = ContentHasher::new("cgra-serve-segment");
    h.write_bytes(bytes);
    h.finish()
}

// ---------------------------------------------------------------------
// Read view: mmap
// ---------------------------------------------------------------------

mod view {
    use std::fs::File;
    use std::io;
    use std::os::unix::io::AsRawFd;

    const PROT_READ: i32 = 0x1;
    const MAP_SHARED: i32 = 0x01;

    extern "C" {
        fn mmap(addr: *mut u8, len: usize, prot: i32, flags: i32, fd: i32, offset: i64) -> *mut u8;
        fn munmap(addr: *mut u8, len: usize) -> i32;
    }

    /// A read-only `MAP_SHARED` view of a file prefix. Pages are shared
    /// with every other process mapping the same segment.
    pub struct View {
        ptr: *mut u8,
        len: usize,
    }

    // SAFETY: the mapping is read-only and owned until Drop; raw
    // pointers are only dereferenced through `bytes`.
    unsafe impl Send for View {}

    impl std::fmt::Debug for View {
        fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
            f.debug_struct("View").field("len", &self.len).finish()
        }
    }

    impl View {
        /// Maps the first `len` bytes of `file` (len > 0).
        pub fn map(file: &File, len: usize) -> io::Result<View> {
            // SAFETY: length is positive and within the file (callers
            // pass a stat'd size); the fd stays open for the call.
            let ptr = unsafe {
                mmap(
                    std::ptr::null_mut(),
                    len,
                    PROT_READ,
                    MAP_SHARED,
                    file.as_raw_fd(),
                    0,
                )
            };
            if ptr as isize == -1 {
                return Err(io::Error::last_os_error());
            }
            Ok(View { ptr, len })
        }

        /// The mapped bytes.
        pub fn bytes(&self) -> &[u8] {
            // SAFETY: ptr/len come from a successful mmap.
            unsafe { std::slice::from_raw_parts(self.ptr, self.len) }
        }
    }

    impl Drop for View {
        fn drop(&mut self) {
            // SAFETY: exactly the region mapped above.
            unsafe { munmap(self.ptr, self.len) };
        }
    }
}

// ---------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------

/// Counters a [`SegmentStore`] accumulates (surfaced via the service's
/// `stats` command and the bench report).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SegmentStats {
    /// Records indexed (live keys; duplicates keep the newest).
    pub entries: usize,
    /// Bytes in the segment file up to the last valid record.
    pub bytes: u64,
    /// Records dropped by corrupt-tolerant scans (torn tails).
    pub torn_records: u64,
}

struct Slot {
    offset: u64,
    len: u32,
    hash: u64,
}

/// An append-only, mmap-read, crash-tolerant key→bytes store.
///
/// See the module docs for the format and sharing model.
pub struct SegmentStore {
    path: PathBuf,
    file: File,
    writable: bool,
    index: HashMap<u64, Slot>,
    /// Bytes covered by the index scan (== logical end of file).
    scanned: u64,
    view: Option<view::View>,
    torn: u64,
}

impl std::fmt::Debug for SegmentStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SegmentStore")
            .field("path", &self.path)
            .field("writable", &self.writable)
            .field("entries", &self.index.len())
            .field("scanned", &self.scanned)
            .finish()
    }
}

impl SegmentStore {
    /// Opens (creating if `writable` and absent) the segment at `path`.
    ///
    /// The open scans the whole file to rebuild the index, stopping at
    /// the first torn/corrupt record; with `writable` the torn tail is
    /// truncated away so later appends extend a clean file.
    pub fn open(path: &Path, writable: bool) -> std::io::Result<SegmentStore> {
        let file = if writable {
            if let Some(dir) = path.parent() {
                std::fs::create_dir_all(dir)?;
            }
            // Existing contents are scanned and kept (modulo a torn
            // tail) — never truncated wholesale.
            OpenOptions::new()
                .read(true)
                .write(true)
                .create(true)
                .truncate(false)
                .open(path)?
        } else {
            OpenOptions::new().read(true).open(path)?
        };
        let mut store = SegmentStore {
            path: path.to_owned(),
            file,
            writable,
            index: HashMap::new(),
            scanned: 0,
            view: None,
            torn: 0,
        };
        let len = store.file.metadata()?.len();
        if len < HEADER.len() as u64 {
            if !writable {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    "segment file has no header",
                ));
            }
            // Fresh (or torn-at-birth) file: write the header and make
            // it durable — including the directory entry, so the
            // segment survives a crash right after creation.
            store.file.set_len(0)?;
            store.file.seek(SeekFrom::Start(0))?;
            store.file.write_all(HEADER)?;
            store.file.sync_all()?;
            sync_parent_dir(path);
            store.scanned = HEADER.len() as u64;
            return Ok(store);
        }
        store.remap(len)?;
        let valid_header = store
            .view
            .as_ref()
            .is_some_and(|v| v.bytes()[..HEADER.len()] == HEADER[..]);
        if !valid_header {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("{} is not a cgra-serve segment", path.display()),
            ));
        }
        store.scanned = HEADER.len() as u64;
        store.scan_forward(len);
        if writable && store.scanned < len {
            // Torn tail from a crashed append: cut it off.
            store.file.set_len(store.scanned)?;
            store.file.sync_all()?;
        }
        Ok(store)
    }

    /// Re-maps the read view to cover `len` bytes of the file.
    fn remap(&mut self, len: u64) -> std::io::Result<()> {
        if len == 0 {
            self.view = None;
            return Ok(());
        }
        self.view = Some(view::View::map(&self.file, len as usize)?);
        Ok(())
    }

    fn mapped_len(&self) -> u64 {
        self.view.as_ref().map_or(0, |v| v.bytes().len() as u64)
    }

    /// Scans records in `[self.scanned, file_len)` into the index,
    /// stopping (and recording a torn tail) at the first invalid record.
    fn scan_forward(&mut self, file_len: u64) {
        let Some(view) = &self.view else { return };
        let bytes = view.bytes();
        let end = (file_len.min(bytes.len() as u64)) as usize;
        let mut at = self.scanned as usize;
        let mut invalid = false;
        while at + RECORD_HEADER <= end {
            let magic = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap());
            if magic != RECORD_MAGIC {
                invalid = true;
                break;
            }
            let key = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap());
            let len = u32::from_le_bytes(bytes[at + 12..at + 16].try_into().unwrap()) as usize;
            let hash = u64::from_le_bytes(bytes[at + 16..at + 24].try_into().unwrap());
            let payload_at = at + RECORD_HEADER;
            if len > MAX_PAYLOAD || payload_at + len > end {
                invalid = true;
                break;
            }
            let payload = &bytes[payload_at..payload_at + len];
            if payload_hash(payload) != hash {
                invalid = true;
                break;
            }
            self.index.insert(
                key,
                Slot {
                    offset: payload_at as u64,
                    len: len as u32,
                    hash,
                },
            );
            at = payload_at + len;
        }
        // A bad record, or trailing bytes too short to even hold a
        // record header, are one torn region ending the scan.
        if invalid || at < end {
            self.torn += 1;
        }
        self.scanned = at as u64;
    }

    /// Appends `text` under `key`. The record is written and fsynced
    /// before the index publishes it; on any I/O failure the index is
    /// untouched and the (possibly torn) bytes will be truncated by the
    /// next writable open.
    pub fn append(&mut self, key: u64, text: &str) -> std::io::Result<()> {
        if !self.writable {
            return Err(std::io::Error::new(
                std::io::ErrorKind::PermissionDenied,
                "segment opened read-only",
            ));
        }
        let payload = text.as_bytes();
        if payload.len() > MAX_PAYLOAD {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "payload exceeds segment record limit",
            ));
        }
        let hash = payload_hash(payload);
        let mut record = Vec::with_capacity(RECORD_HEADER + payload.len());
        record.extend_from_slice(&RECORD_MAGIC.to_le_bytes());
        record.extend_from_slice(&key.to_le_bytes());
        record.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        record.extend_from_slice(&hash.to_le_bytes());
        record.extend_from_slice(payload);

        let offset = self.file.seek(SeekFrom::Start(self.scanned))?;
        if crate::fault::tear_this_append() {
            // Chaos hook: simulate a crash mid-record — a durable torn
            // prefix reaches the disk, the index never publishes, and
            // `scanned` does not advance, exactly like a writer killed
            // between `write_all` and the index insert. Readers must
            // see only whole records; a writable re-open truncates.
            let keep = if payload.is_empty() {
                RECORD_HEADER / 2
            } else {
                RECORD_HEADER + payload.len() / 2
            };
            self.file.write_all(&record[..keep])?;
            self.file.sync_data()?;
            return Err(std::io::Error::other("fault-inject: torn append"));
        }
        self.file.write_all(&record)?;
        self.file.sync_data()?;
        self.index.insert(
            key,
            Slot {
                offset: offset + RECORD_HEADER as u64,
                len: payload.len() as u32,
                hash,
            },
        );
        self.scanned = offset + record.len() as u64;
        Ok(())
    }

    /// Looks up `key`, remapping lazily if the record lies beyond the
    /// current view (it was appended after the last map). Hash or UTF-8
    /// failures read as a miss.
    pub fn get(&mut self, key: u64) -> Option<String> {
        let slot = self.index.get(&key)?;
        let end = slot.offset + slot.len as u64;
        let (offset, len, hash) = (slot.offset, slot.len as usize, slot.hash);
        if end > self.mapped_len() && self.remap(self.scanned).is_err() {
            return None;
        }
        let bytes = self.view.as_ref()?.bytes();
        if end as usize > bytes.len() {
            return None;
        }
        let payload = &bytes[offset as usize..offset as usize + len];
        if payload_hash(payload) != hash {
            return None;
        }
        String::from_utf8(payload.to_vec()).ok()
    }

    /// Picks up records another process appended since open (or the
    /// last refresh): remaps and scans only the new suffix. Returns the
    /// number of records added. Cheap when nothing changed (one stat).
    pub fn refresh(&mut self) -> std::io::Result<usize> {
        let len = self.file.metadata()?.len();
        if len <= self.scanned {
            return Ok(0);
        }
        let before = self.index.len();
        self.remap(len)?;
        self.scan_forward(len);
        Ok(self.index.len() - before)
    }

    /// Current store counters.
    pub fn stats(&self) -> SegmentStats {
        SegmentStats {
            entries: self.index.len(),
            bytes: self.scanned,
            torn_records: self.torn,
        }
    }

    /// The segment file path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// Makes a just-created file's directory entry durable. Best-effort:
/// directories cannot be fsynced on every platform, and a failure only
/// re-opens the crash window the fsync was closing.
fn sync_parent_dir(path: &Path) {
    if let Some(dir) = path.parent() {
        if let Ok(d) = File::open(dir) {
            let _ = d.sync_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_seg(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("cgra-segment-{}-{}", std::process::id(), tag));
        let _ = std::fs::remove_dir_all(&dir);
        dir.join("cache.seg")
    }

    #[test]
    fn roundtrip_and_reopen() {
        let path = temp_seg("roundtrip");
        {
            let mut seg = SegmentStore::open(&path, true).unwrap();
            seg.append(1, "{\"a\":1}").unwrap();
            seg.append(2, "{\"b\":2}").unwrap();
            assert_eq!(seg.get(1).as_deref(), Some("{\"a\":1}"));
            // Overwrite: newest record wins.
            seg.append(1, "{\"a\":9}").unwrap();
            assert_eq!(seg.get(1).as_deref(), Some("{\"a\":9}"));
        }
        let mut seg = SegmentStore::open(&path, true).unwrap();
        assert_eq!(seg.stats().entries, 2);
        assert_eq!(seg.get(1).as_deref(), Some("{\"a\":9}"));
        assert_eq!(seg.get(2).as_deref(), Some("{\"b\":2}"));
        assert_eq!(seg.get(3), None);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn torn_tail_is_truncated_not_fatal() {
        let path = temp_seg("torn");
        {
            let mut seg = SegmentStore::open(&path, true).unwrap();
            seg.append(10, "first").unwrap();
            seg.append(11, "second").unwrap();
        }
        // Simulate a crash mid-append: chop bytes off the last record.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);

        let mut seg = SegmentStore::open(&path, true).unwrap();
        assert_eq!(seg.get(10).as_deref(), Some("first"));
        assert_eq!(seg.get(11), None, "torn record must not replay");
        assert_eq!(seg.stats().torn_records, 1);
        // The truncated store accepts fresh appends cleanly.
        seg.append(12, "third").unwrap();
        drop(seg);
        let mut seg = SegmentStore::open(&path, true).unwrap();
        assert_eq!(seg.get(12).as_deref(), Some("third"));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn garbage_in_the_middle_stops_the_scan_cleanly() {
        let path = temp_seg("garbage");
        {
            let mut seg = SegmentStore::open(&path, true).unwrap();
            seg.append(20, "keep me").unwrap();
        }
        // Append raw garbage (no valid record magic) after the records.
        let mut f = OpenOptions::new().append(true).open(&path).unwrap();
        f.write_all(b"\xde\xad\xbe\xef not a record").unwrap();
        drop(f);
        let mut seg = SegmentStore::open(&path, true).unwrap();
        assert_eq!(seg.get(20).as_deref(), Some("keep me"));
        assert_eq!(seg.stats().torn_records, 1);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn read_only_sharer_sees_appends_after_refresh() {
        let path = temp_seg("share");
        let mut writer = SegmentStore::open(&path, true).unwrap();
        writer.append(30, "early").unwrap();

        let mut reader = SegmentStore::open(&path, false).unwrap();
        assert_eq!(reader.get(30).as_deref(), Some("early"));
        assert_eq!(reader.get(31), None);
        assert!(reader.append(99, "nope").is_err());

        writer.append(31, "late").unwrap();
        assert_eq!(reader.refresh().unwrap(), 1);
        assert_eq!(reader.get(31).as_deref(), Some("late"));
        // No growth: refresh is a no-op.
        assert_eq!(reader.refresh().unwrap(), 0);
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    /// The ISSUE 9 torn-tail scenario end to end: a writer "killed"
    /// mid-record (via the fault-injection tear hook) leaves a durable
    /// partial record; a reader `refresh()`ing concurrently must see
    /// only whole records, and after the writer restarts (truncating
    /// the tail) the same reader converges on the clean replacement.
    #[cfg(feature = "fault-inject")]
    #[test]
    fn reader_refresh_never_sees_torn_records_from_killed_writer() {
        use crate::fault::{install, FaultPlan};
        let path = temp_seg("fault-torn");
        let mut writer = SegmentStore::open(&path, true).unwrap();
        writer.append(40, "before").unwrap();
        let mut reader = SegmentStore::open(&path, false).unwrap();
        assert_eq!(reader.get(40).as_deref(), Some("before"));

        let guard = install(FaultPlan {
            panic_solves: vec![],
            tear_appends: vec![0],
            drop_forwards: vec![],
        });
        // The kill: the first append tears mid-record and the writer
        // stops being used, as if SIGKILLed between write and publish.
        assert!(writer.append(41, "torn victim").is_err());
        drop(writer);
        drop(guard);

        // The concurrent reader refreshes against the torn tail: zero
        // new records, the torn key reads as a miss, old keys survive.
        assert_eq!(reader.refresh().unwrap(), 0);
        assert_eq!(reader.get(41), None, "torn record must not surface");
        assert_eq!(reader.get(40).as_deref(), Some("before"));
        assert_eq!(reader.stats().torn_records, 1);

        // Writer restart truncates the tail and retries the append;
        // the same reader picks up exactly the whole replacement.
        let mut writer = SegmentStore::open(&path, true).unwrap();
        writer.append(41, "after restart").unwrap();
        assert_eq!(reader.refresh().unwrap(), 1);
        assert_eq!(reader.get(41).as_deref(), Some("after restart"));
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }

    #[test]
    fn non_segment_file_is_rejected() {
        let path = temp_seg("reject");
        std::fs::create_dir_all(path.parent().unwrap()).unwrap();
        std::fs::write(&path, b"just some text, long enough to have a header").unwrap();
        assert!(SegmentStore::open(&path, true).is_err());
        assert!(SegmentStore::open(&path, false).is_err());
        let _ = std::fs::remove_dir_all(path.parent().unwrap());
    }
}
