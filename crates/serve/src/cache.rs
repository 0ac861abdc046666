//! Content-addressed result caching and warm session reuse.
//!
//! The cache key is a digest of everything that determines a mapping
//! answer: the command, the DFG's and architecture's stable
//! [`content_hash`](cgra_dfg::Dfg::content_hash)es (order-independent,
//! so a reformatted or reordered graph text still hits), the II bound,
//! and [`options_fingerprint`], a digest of every [`MapperOptions`] field
//! but `build_jobs` — two requests differing only in, say, `seed` or
//! `time_limit` are different keys. The fingerprint is generated from
//! the option table in [`crate::wire`], so an option cannot be left out.
//!
//! The stored value is the rendered `result` JSON text, not the typed
//! report: a hit replays the first response byte-for-byte, which is the
//! property the differential test pins (N identical requests must all
//! carry identical reports).
//!
//! Storage is **two-tier**:
//!
//! * tier 1 — a bounded in-memory LRU (eviction is least-recently-used
//!   over an entry count);
//! * tier 2 — an optional on-disk append-only segment
//!   ([`crate::segment::SegmentStore`], `<dir>/cache.seg` by
//!   convention), mmap'd for reads, fsync'd before a record is
//!   published, corrupt-tolerant at load. Tier-2 hits are promoted back
//!   into tier 1. A read-only tier 2 lets N daemon processes share one
//!   warm segment (one writer per shard; see DESIGN.md §13).

use crate::segment::{SegmentStats, SegmentStore};
use cgra_dfg::ContentHasher;
use cgra_mapper::MapperOptions;
use std::collections::HashMap;
use std::path::PathBuf;

pub use crate::wire::options_fingerprint;

/// Computes the content-addressed cache key for a request.
///
/// `cmd` is the wire command tag (`"map"` / `"min_ii"`); `ii` is the
/// fixed II or the `max_ii` bound respectively.
pub fn request_key(
    cmd: &str,
    dfg_hash: u64,
    arch_hash: u64,
    ii: u32,
    options: &MapperOptions,
) -> u64 {
    let mut h = ContentHasher::new("cgra-serve-request");
    h.write_str(cmd);
    h.write_u64(dfg_hash);
    h.write_u64(arch_hash);
    h.write_u64(ii as u64);
    h.write_u64(options_fingerprint(options));
    h.finish()
}

/// The raw-text fast key: a digest over the *unparsed* request texts.
/// Identical raw texts imply identical content hashes (the content
/// hash is a pure function of the parsed graph), so a memo from this
/// key to [`request_key`] lets the hot path skip graph parsing
/// entirely. The converse does not hold — differently-formatted texts
/// of the same graph get distinct raw keys and simply take the slow
/// (parse + content-hash) path once each.
pub fn raw_request_key(
    cmd: &str,
    dfg_text: &str,
    arch_text: &str,
    ii: u32,
    options: &MapperOptions,
) -> u64 {
    let mut h = ContentHasher::new("cgra-serve-raw");
    h.write_str(cmd);
    h.write_str(dfg_text);
    h.write_str(arch_text);
    h.write_u64(ii as u64);
    h.write_u64(options_fingerprint(options));
    h.finish()
}

struct Entry {
    text: String,
    last_used: u64,
}

/// Which tier answered a [`ResultCache::get`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheTier {
    /// In-memory LRU.
    Memory,
    /// On-disk segment.
    Disk,
}

/// A bounded LRU cache of rendered result texts, keyed by
/// [`request_key`], backed by an optional persistent segment tier.
pub struct ResultCache {
    entries: HashMap<u64, Entry>,
    capacity: usize,
    tick: u64,
    dir: Option<PathBuf>,
    segment: Option<SegmentStore>,
    read_only: bool,
    disk_hits: u64,
}

impl std::fmt::Debug for ResultCache {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ResultCache")
            .field("len", &self.entries.len())
            .field("capacity", &self.capacity)
            .field("dir", &self.dir)
            .field("read_only", &self.read_only)
            .finish()
    }
}

impl ResultCache {
    /// Creates a cache bounded to `capacity` in-memory entries, with an
    /// optional persistent tier under `disk` (segment `<disk>/cache.seg`).
    /// I/O failures degrade to a memory-only cache, never errors.
    pub fn new(capacity: usize, disk: Option<PathBuf>) -> Self {
        Self::with_mode(capacity, disk, false)
    }

    /// Like [`ResultCache::new`]; with `read_only` the segment is
    /// opened for reading only (inserts skip tier 2, and
    /// [`ResultCache::get`] refreshes against appends made by the
    /// owning writer process).
    pub fn with_mode(capacity: usize, disk: Option<PathBuf>, read_only: bool) -> Self {
        let segment = disk.as_ref().and_then(|dir| {
            let path = dir.join("cache.seg");
            match SegmentStore::open(&path, !read_only) {
                Ok(seg) => Some(seg),
                Err(e) => {
                    if !(read_only && e.kind() == std::io::ErrorKind::NotFound) {
                        eprintln!(
                            "cgra-serve: cannot open cache segment {}: {e}; persistence disabled",
                            path.display()
                        );
                    }
                    None
                }
            }
        });
        ResultCache {
            entries: HashMap::new(),
            capacity: capacity.max(1),
            tick: 0,
            dir: disk,
            segment,
            read_only,
            disk_hits: 0,
        }
    }

    /// Number of in-memory entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the in-memory cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Hits served from the persistent tier since start.
    pub fn disk_hits(&self) -> u64 {
        self.disk_hits
    }

    /// Persistent-tier counters, if a segment is attached.
    pub fn segment_stats(&self) -> Option<SegmentStats> {
        self.segment.as_ref().map(SegmentStore::stats)
    }

    /// Looks up a stored result text, consulting the segment on a memory
    /// miss. Reports which tier hit.
    pub fn get(&mut self, key: u64) -> Option<(String, CacheTier)> {
        self.tick += 1;
        if let Some(e) = self.entries.get_mut(&key) {
            e.last_used = self.tick;
            return Some((e.text.clone(), CacheTier::Memory));
        }
        let text = self.disk_get(key)?;
        self.disk_hits += 1;
        self.insert_memory(key, text.clone());
        Some((text, CacheTier::Disk))
    }

    fn disk_get(&mut self, key: u64) -> Option<String> {
        if self.segment.is_none() && self.read_only {
            // The writer may not have created the segment until after
            // this reader started.
            let path = self.dir.as_ref()?.join("cache.seg");
            self.segment = Some(SegmentStore::open(&path, false).ok()?);
        }
        let seg = self.segment.as_mut()?;
        if let Some(text) = seg.get(key) {
            return Some(text);
        }
        // A read-only sharer may simply not have seen the owning
        // writer's append yet.
        if self.read_only && seg.refresh().unwrap_or(0) > 0 {
            return seg.get(key);
        }
        None
    }

    /// Stores a rendered result text (written through to the segment —
    /// fsync before publish — unless the cache is read-only).
    pub fn insert(&mut self, key: u64, text: String) {
        if !self.read_only {
            if let Some(seg) = &mut self.segment {
                if let Err(e) = seg.append(key, &text) {
                    eprintln!("cgra-serve: cache segment append failed for {key:016x}: {e}");
                }
            }
        }
        self.insert_memory(key, text);
    }

    fn insert_memory(&mut self, key: u64, text: String) {
        self.tick += 1;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            // O(n) victim scan: capacities are small (hundreds), and the
            // scan only runs at the bound.
            if let Some(&victim) = self
                .entries
                .iter()
                .min_by_key(|(_, e)| e.last_used)
                .map(|(k, _)| k)
            {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(
            key,
            Entry {
                text,
                last_used: self.tick,
            },
        );
    }
}

/// A bounded LRU of values keyed by `u64` content hashes — used for the
/// per-architecture [`Session`](cgra_mapper::Session) pool and the
/// raw-text key memo.
#[derive(Debug)]
pub struct LruMap<V> {
    entries: HashMap<u64, (V, u64)>,
    capacity: usize,
    tick: u64,
}

impl<V: Clone> LruMap<V> {
    /// Creates a map bounded to `capacity` entries (minimum 1).
    pub fn new(capacity: usize) -> Self {
        LruMap {
            entries: HashMap::new(),
            capacity: capacity.max(1),
            tick: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up and touches an entry.
    pub fn get(&mut self, key: u64) -> Option<V> {
        self.tick += 1;
        let tick = self.tick;
        self.entries.get_mut(&key).map(|(v, used)| {
            *used = tick;
            v.clone()
        })
    }

    /// Iterates over the stored values (no touch, arbitrary order).
    pub fn values(&self) -> impl Iterator<Item = &V> {
        self.entries.values().map(|(v, _)| v)
    }

    /// Inserts an entry, evicting the least recently used at capacity.
    pub fn insert(&mut self, key: u64, value: V) {
        self.tick += 1;
        if self.entries.len() >= self.capacity && !self.entries.contains_key(&key) {
            if let Some(&victim) = self
                .entries
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .map(|(k, _)| k)
            {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(key, (value, self.tick));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    fn text_of(got: Option<(String, CacheTier)>) -> Option<String> {
        got.map(|(t, _)| t)
    }

    #[test]
    fn key_separates_every_dimension() {
        let base = MapperOptions::default();
        let k =
            |cmd: &str, d: u64, a: u64, ii: u32, o: &MapperOptions| request_key(cmd, d, a, ii, o);
        let reference = k("map", 1, 2, 1, &base);
        assert_ne!(reference, k("min_ii", 1, 2, 1, &base));
        assert_ne!(reference, k("map", 3, 2, 1, &base));
        assert_ne!(reference, k("map", 1, 3, 1, &base));
        assert_ne!(reference, k("map", 1, 2, 2, &base));
        let mut o = base;
        o.seed = 99;
        assert_ne!(reference, k("map", 1, 2, 1, &o));
        let mut o = base;
        o.time_limit = Some(Duration::from_secs(1));
        assert_ne!(reference, k("map", 1, 2, 1, &o));
        let mut o = base;
        o.threads = 4;
        assert_ne!(reference, k("map", 1, 2, 1, &o));
        assert_eq!(reference, k("map", 1, 2, 1, &base));
    }

    #[test]
    fn raw_key_separates_texts_and_options() {
        let base = MapperOptions::default();
        let reference = raw_request_key("map", "dfg-a", "arch-a", 1, &base);
        assert_eq!(
            reference,
            raw_request_key("map", "dfg-a", "arch-a", 1, &base)
        );
        assert_ne!(
            reference,
            raw_request_key("min_ii", "dfg-a", "arch-a", 1, &base)
        );
        assert_ne!(
            reference,
            raw_request_key("map", "dfg-b", "arch-a", 1, &base)
        );
        assert_ne!(
            reference,
            raw_request_key("map", "dfg-a", "arch-b", 1, &base)
        );
        assert_ne!(
            reference,
            raw_request_key("map", "dfg-a", "arch-a", 2, &base)
        );
        let mut o = base;
        o.seed = 3;
        assert_ne!(reference, raw_request_key("map", "dfg-a", "arch-a", 1, &o));
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = ResultCache::new(2, None);
        c.insert(1, "a".into());
        c.insert(2, "b".into());
        assert_eq!(text_of(c.get(1)).as_deref(), Some("a")); // touch 1
        c.insert(3, "c".into()); // evicts 2
        assert_eq!(c.len(), 2);
        assert!(c.get(2).is_none());
        assert_eq!(text_of(c.get(1)).as_deref(), Some("a"));
        assert_eq!(text_of(c.get(3)).as_deref(), Some("c"));
    }

    #[test]
    fn reinserting_existing_key_does_not_evict() {
        let mut c = ResultCache::new(2, None);
        c.insert(1, "a".into());
        c.insert(2, "b".into());
        c.insert(2, "b2".into());
        assert_eq!(text_of(c.get(1)).as_deref(), Some("a"));
        assert_eq!(text_of(c.get(2)).as_deref(), Some("b2"));
    }

    #[test]
    fn segment_persistence_survives_a_new_cache() {
        let dir = std::env::temp_dir().join(format!("cgra-serve-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let mut c = ResultCache::new(4, Some(dir.clone()));
            c.insert(7, "{\"x\":1}".into());
        }
        let mut fresh = ResultCache::new(4, Some(dir.clone()));
        assert_eq!(fresh.disk_hits(), 0);
        let (text, tier) = fresh.get(7).expect("persisted entry survives restart");
        assert_eq!(text, "{\"x\":1}");
        assert_eq!(tier, CacheTier::Disk);
        assert_eq!(fresh.disk_hits(), 1);
        // Promoted to tier 1: the second read is a memory hit.
        assert_eq!(fresh.get(7).unwrap().1, CacheTier::Memory);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn read_only_cache_sees_writer_appends() {
        let dir = std::env::temp_dir().join(format!("cgra-serve-ro-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut writer = ResultCache::new(4, Some(dir.clone()));
        let mut reader = ResultCache::with_mode(4, Some(dir.clone()), true);
        writer.insert(11, "{\"z\":3}".into());
        assert_eq!(text_of(reader.get(11)).as_deref(), Some("{\"z\":3}"));
        // Inserts on the read-only side stay in memory only.
        reader.insert(12, "{\"w\":4}".into());
        let mut third = ResultCache::new(4, Some(dir.clone()));
        assert!(third.get(12).is_none());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn lru_map_bounds_sessions() {
        let mut m: LruMap<u32> = LruMap::new(2);
        m.insert(1, 10);
        m.insert(2, 20);
        assert_eq!(m.get(1), Some(10));
        m.insert(3, 30);
        assert_eq!(m.len(), 2);
        assert_eq!(m.get(2), None);
        assert_eq!(m.get(3), Some(30));
    }
}
