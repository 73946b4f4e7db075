//! Disk-persisted canonical-solution store: the solve cache, across processes.
//!
//! PR 4 made every solve a pure function of its [`CanonicalKey`] — the
//! canonical structure modulo variable renaming — which is exactly the
//! property that makes *cross-process* reuse sound: a stored canonical
//! solution is valid for any isomorphic model in any later process, and
//! instantiating it reproduces the solver's output byte-for-byte (exact
//! rationals; floats persisted as raw bit patterns, so even NaN payloads
//! survive).  [`SolveStore`] persists the `CanonicalKey → canonical solution`
//! map of a [`SolveCache`](crate::SolveCache) into a directory of append-only
//! **segment files**, so the 163 distinct structures of the 38-kernel
//! registry are solved once per *store*, not once per process.
//!
//! ## On-disk format (`soap-solve-store/1`)
//!
//! A store is a directory of segment files named
//! `seg-<nanos>-<pid>-<seq>.soapstore`.  Each segment is line-oriented text:
//!
//! ```text
//! soap-solve-store/1                          ← format-version header
//! <16-hex fnv1a-64> <record JSON>\n           ← one record per line
//! ...
//! ```
//!
//! * **Versioned**: the header names the format; a segment with any other
//!   header is rejected whole (counted, never a panic), so a future format
//!   bump cannot be misread as garbage records.
//! * **Integrity-checked per record**: the leading FNV-1a-64 digest covers
//!   the record's JSON payload; a truncated or bit-flipped line fails the
//!   check and is skipped with a counted note while the rest of the segment
//!   still loads — the failure mode of a crashed writer is a short final
//!   line, not a poisoned store.
//! * **Last-writer-wins merge**: every flush writes a *new* uniquely named
//!   segment (never appends into another process's file), and the loader
//!   folds segments in filename order (timestamp-prefixed), later records
//!   overwriting earlier ones per key.  Concurrent processes sharing one
//!   store directory therefore converge to the union of their solves; for
//!   records produced by this workspace the duplicates are byte-identical
//!   anyway (solutions are pure functions of the key).
//!
//! Records store the full solve outcome, *including failures*: a structure
//! that failed to solve fails identically in every process, and persisting
//! the failure is what lets a warm run report zero misses.
//!
//! ## Hydration and inspection
//!
//! Opening a cache over a store ([`SolveCache::with_store`](crate::SolveCache::with_store))
//! reads each segment once and checks its record lines in parallel on the
//! worker pool, under the process's worker budget (`SOAP_THREADS` /
//! `--threads`).  A solve record is digest-checked and decoded there; a
//! report record is only digest-checked and has its key read from the fixed
//! `{"key":N,` prefix of its payload, and the loading thread keeps the
//! payload itself, so no report is decoded at open.  A report payload is
//! shape-checked when a replay decodes it: one that does not decode is
//! dropped and answered as a miss, and the cold analysis records a fresh one
//! for the next flush.
//! The per-line work is a pure function of the line and the pool keeps line
//! order, so the merge, the counts and the notes are the same under any
//! budget.  Only hydration repairs: a segment with corrupt records has its
//! good records salvaged into a fresh segment and is then renamed
//! `*.quarantined`.  The inspection passes [`SolveStore::stat`] and
//! [`SolveStore::report_stat`] (`soap-cli cache stat`) count and note the
//! same corruption — digest failures, for report records — but write and
//! rename nothing.
//!
//! ## Report records (`soap-report-store/1`)
//!
//! The same directory can additionally hold a second record family: finished
//! [`ProgramAnalysis`](crate::ProgramAnalysis) **reports** keyed by a
//! structural program hash
//! ([`structural_program_key`](crate::structural_program_key)).  Report
//! segments live in `rpt-*.soapstore` files with their own format header, so
//! a store written before this family existed (only `seg-*` solve segments)
//! loads unchanged, and an older reader's `seg-*` filter never sees them.
//! Report records follow the identical discipline — FNV-1a checksum per
//! line, versioned header, staged-rename writes, last-writer-wins merge,
//! floats as raw bit patterns — and degraded reports are never stored, so a
//! warm hit replays a complete cold analysis byte-for-byte while skipping
//! enumeration, merge, instantiation *and* solving.  A cache holds each
//! report as the payload of its record line — encoded once, straight from
//! the finished analysis, decoded only on a replay, and written by a flush
//! behind its digest — so a retained report costs about its line length.

use crate::analysis::{ArrayBound, SubgraphIntensity};
use crate::cache::{
    CanonicalAtom, CanonicalDominator, CanonicalKey, CanonicalRow, CanonicalSolution,
};
use crate::faults::FaultPlan;
use rayon::prelude::*;
use serde::{DeError, Deserialize, Serialize, Value};
use soap_core::{AnalysisError, IntensityResult};
use soap_symbolic::{Expr, Monomial, Polynomial, Rational};
use std::collections::HashMap;
use std::hash::Hash;
use std::io::{self, Write as _};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// The format-version header every solve segment of the current format
/// starts with.
pub const STORE_HEADER: &str = "soap-solve-store/1";

/// The format-version header every report segment starts with.
pub const REPORT_HEADER: &str = "soap-report-store/1";

/// File-name extension of segment files.
const SEGMENT_EXT: &str = "soapstore";

/// One record family within a store directory: its file-name prefix, its
/// format-version header, and the header stem that identifies a *future*
/// version of the same family (rejected with a version-mismatch note rather
/// than a generic missing-header one).
struct Family {
    prefix: &'static str,
    header: &'static str,
    stem: &'static str,
}

/// The canonical-solution records (`seg-*`, the original store format).
const SOLVE_FAMILY: Family = Family {
    prefix: "seg-",
    header: STORE_HEADER,
    stem: "soap-solve-store/",
};

/// The program-report records (`rpt-*`).
const REPORT_FAMILY: Family = Family {
    prefix: "rpt-",
    header: REPORT_HEADER,
    stem: "soap-report-store/",
};

/// What a load may do about a segment with corrupt records.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Repair {
    /// Hydration: salvage the good records into a fresh segment, then
    /// quarantine the corrupt file.
    Salvage,
    /// Inspection (`cache stat`): count and note the corruption, but write
    /// and rename nothing.
    ReadOnly,
}

/// Suffix appended to a segment's file name when it is quarantined.
const QUARANTINE_SUFFIX: &str = ".quarantined";

/// Store I/O attempts per operation (1 initial + bounded retries).  Transient
/// failures — a reader racing a writer's rename, NFS hiccups, injected test
/// faults — heal within the budget; persistent ones surface after it.
const STORE_IO_ATTEMPTS: u32 = 3;

/// Run `op` up to [`STORE_IO_ATTEMPTS`] times with a tiny linear backoff
/// between attempts.  `injected(attempt)` short-circuits the attempt with a
/// synthetic transient error when the store's fault plan says so, keeping the
/// injection point *inside* the retry loop so the heal path is the one the
/// production code actually takes.
fn retry_io<T>(
    segment: &str,
    injected: impl Fn(u32) -> bool,
    mut op: impl FnMut() -> io::Result<T>,
) -> io::Result<T> {
    let mut last_err = None;
    for attempt in 0..STORE_IO_ATTEMPTS {
        if attempt > 0 {
            std::thread::sleep(std::time::Duration::from_millis(u64::from(attempt)));
        }
        let result = if injected(attempt) {
            Err(io::Error::new(
                io::ErrorKind::Interrupted,
                format!("injected transient store fault (segment {segment}, attempt {attempt})"),
            ))
        } else {
            op()
        };
        match result {
            Ok(v) => return Ok(v),
            Err(e) => last_err = Some(e),
        }
    }
    // lint:allow(unwrap-expect): the retry loop always runs at least one attempt before reaching this line
    Err(last_err.expect("at least one attempt ran"))
}

/// Corrupt the digest of the first record line — the fault plan's segment
/// corruption, applied to the in-memory text *after* the read so the genuine
/// integrity-check / quarantine path downstream does all the work.
fn corrupt_first_record(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    let mut corrupted = false;
    for (i, line) in text.lines().enumerate() {
        if i > 0 && !corrupted && line.len() > 16 {
            out.push_str("faultfaultfaultt");
            out.push_str(&line[16..]);
            corrupted = true;
        } else {
            out.push_str(line);
        }
        out.push('\n');
    }
    out
}

/// One persisted entry: the canonical key and the stored solve outcome.
pub(crate) type StoreEntry = (CanonicalKey, Result<CanonicalSolution, AnalysisError>);

/// Every hydrated solve outcome, by canonical key.
pub(crate) type StoredSolutions = HashMap<CanonicalKey, Result<CanonicalSolution, AnalysisError>>;

/// A replayed report: the persisted portion of a finished, non-degraded
/// [`ProgramAnalysis`](crate::ProgramAnalysis), decoded from its record line.
/// Everything here is a pure function of the structural program key.  The
/// program *name*, phase timings, and solver accounting measure the run (and
/// are respliced by the warm path); `degraded` is always `false` by
/// construction — degraded reports are never recorded.
#[derive(Clone, Debug)]
pub(crate) struct StoredReport {
    /// Per-array Theorem-1 contributions.
    pub per_array: Vec<ArrayBound>,
    /// Every solved subgraph's intensity.
    pub subgraphs: Vec<SubgraphIntensity>,
    /// The composed program bound.
    pub bound: Expr,
    /// Human-readable analysis notes, replayed verbatim.
    pub notes: Vec<String>,
}

/// One persisted report entry: the structural program key and the report.
pub(crate) type ReportEntry = (u64, StoredReport);

/// The parts of a finished analysis that a report record persists, borrowed
/// from it: what [`encode_report_payload`] writes.
#[derive(Clone, Copy)]
pub(crate) struct ReportParts<'a> {
    pub per_array: &'a [ArrayBound],
    pub subgraphs: &'a [SubgraphIntensity],
    pub bound: &'a Expr,
    pub notes: &'a [String],
}

/// A report as a cache holds it: the JSON payload of its record line, byte
/// for byte, and whether a segment of the store already holds that record.
#[derive(Clone, Debug)]
pub(crate) struct HeldReport {
    pub payload: Box<str>,
    pub on_disk: bool,
}

/// Accounting of one store load (hydration at
/// [`SolveCache::with_store`](crate::SolveCache::with_store) open, or a
/// [`SolveStore::stat`] inspection pass).
#[derive(Clone, Debug, Default, PartialEq)]
pub struct StoreLoadStats {
    /// Segment files read successfully.
    pub segments: usize,
    /// Segment files rejected whole (unreadable, or format-version mismatch).
    pub segments_rejected: usize,
    /// Valid records read (counting later duplicates of the same key).
    pub records: usize,
    /// Records skipped by the per-record integrity check or record parse
    /// (truncated tail of a crashed writer, bit rot, hand-edited files).
    pub records_skipped: usize,
    /// Segments quarantined by this load: a segment with skipped records is
    /// renamed to `<name>.quarantined` after its good records are merged, so
    /// the corruption is reported once and then set aside for inspection
    /// instead of re-parsed and re-warned on every later hydration.  Always
    /// 0 for the read-only [`SolveStore::stat`] passes.
    pub quarantined: usize,
    /// Distinct keys after the last-writer-wins merge.
    pub entries: usize,
    /// Total size of all segment files in bytes.
    pub bytes: u64,
    /// Human-readable notes for everything counted in
    /// `segments_rejected`/`records_skipped` (one note per affected segment).
    pub notes: Vec<String>,
}

/// Accounting of one [`SolveCache::flush_store`](crate::SolveCache::flush_store).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct StoreFlushStats {
    /// Solve entries persisted by this flush (0 when everything was already
    /// stored).
    pub appended: usize,
    /// The solve segment file written, when `appended > 0`.
    pub segment: Option<PathBuf>,
    /// Finished-program reports persisted by this flush.
    pub reports_appended: usize,
}

/// A canonical-solution store directory.  See the module docs for the format.
#[derive(Debug)]
pub struct SolveStore {
    dir: PathBuf,
    /// The fault plan of the [`SolveCache`](crate::SolveCache) that opened
    /// this store; fault-free for every public constructor.
    pub(crate) faults: FaultPlan,
}

/// Process-wide sequence number making segment names unique even when two
/// flushes — possibly from *different* `SolveStore` instances over the same
/// directory — land in the same `SystemTime` tick.  A per-instance counter
/// would let two instances compute the identical segment name and the later
/// rename silently replace the earlier segment.
// lint:allow(global-state): segment-name uniqueness must hold across every SolveStore of the process (see above)
static SEGMENT_SEQ: AtomicU64 = AtomicU64::new(0);

impl SolveStore {
    /// Open (creating if necessary) a store directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<SolveStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(SolveStore {
            dir,
            faults: FaultPlan::default(),
        })
    }

    /// Open a store directory that must already exist — for inspection
    /// tooling (`soap-cli cache stat|list|clear`), where auto-creating the
    /// directory would turn a typo'd path into a convincing empty store
    /// instead of an error.
    pub fn open_existing(dir: impl Into<PathBuf>) -> io::Result<SolveStore> {
        let dir = dir.into();
        if !dir.is_dir() {
            return Err(io::Error::new(
                io::ErrorKind::NotFound,
                format!("store directory {} does not exist", dir.display()),
            ));
        }
        Ok(SolveStore {
            dir,
            faults: FaultPlan::default(),
        })
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// All files of one record family, in load order (sorted by file name —
    /// names are timestamp-prefixed, so this is write order up to clock skew,
    /// which the last-writer-wins merge tolerates).
    fn family_files(&self, prefix: &str) -> io::Result<Vec<PathBuf>> {
        let mut files: Vec<PathBuf> = std::fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.extension().and_then(|e| e.to_str()) == Some(SEGMENT_EXT)
                    && p.file_name()
                        .and_then(|n| n.to_str())
                        .is_some_and(|n| n.starts_with(prefix))
            })
            .collect();
        files.sort();
        Ok(files)
    }

    /// All solve-record segment files of the store, in load order.
    pub fn segment_files(&self) -> io::Result<Vec<PathBuf>> {
        self.family_files(SOLVE_FAMILY.prefix)
    }

    /// All report-record segment files of the store, in load order.
    pub fn report_files(&self) -> io::Result<Vec<PathBuf>> {
        self.family_files(REPORT_FAMILY.prefix)
    }

    /// Load every segment of one family, checking records with `decode` and
    /// handing each good one to `keep` with its line, under the retry /
    /// fault-injection / header-check discipline shared by both record
    /// families; under [`Repair::Salvage`] a segment with corrupt records is
    /// also salvaged and quarantined.  Records reach `keep` in segment order
    /// (the caller merges last-writer-wins); `stats.entries` is left for the
    /// caller to fill after its merge.
    ///
    /// `decode` runs on the worker pool: it is a pure function of the line,
    /// and the pool's collect keeps line order, so the records, counts and
    /// notes do not depend on the worker budget.  `keep` runs on the loading
    /// thread, so whatever it retains is allocated there.  Everything that
    /// touches the file system stays serial, one segment at a time.
    fn load_family<T: Send>(
        &self,
        family: &Family,
        decode: impl Fn(&str) -> Option<T> + Sync,
        mut keep: impl FnMut(T, &str),
        repair: Repair,
    ) -> io::Result<StoreLoadStats> {
        let mut stats = StoreLoadStats::default();
        for path in self.family_files(family.prefix)? {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            let injected = |attempt: u32| self.faults.store_read_fails(&name, attempt);
            let text = match retry_io(&name, injected, || std::fs::read_to_string(&path)) {
                Ok(t) => t,
                Err(e) => {
                    stats.segments_rejected += 1;
                    stats.notes.push(format!("segment {name}: unreadable: {e}"));
                    continue;
                }
            };
            let text = if self.faults.corrupts_segment(&name) {
                corrupt_first_record(&text)
            } else {
                text
            };
            stats.bytes += text.len() as u64;
            let mut lines = text.lines();
            match lines.next() {
                Some(header) if header == family.header => {}
                Some(other) if other.starts_with(family.stem) => {
                    stats.segments_rejected += 1;
                    stats.notes.push(format!(
                        "segment {name}: format-version mismatch (found '{other}', expected '{}'); segment ignored",
                        family.header
                    ));
                    continue;
                }
                _ => {
                    stats.segments_rejected += 1;
                    stats.notes.push(format!(
                        "segment {name}: missing '{}' header; segment ignored",
                        family.header
                    ));
                    continue;
                }
            }
            stats.segments += 1;
            let lines: Vec<&str> = lines.filter(|line| !line.is_empty()).collect();
            let records: Vec<Option<T>> = lines.par_iter().map(|line| decode(line)).collect();
            // Indices of the lines that failed, ascending.
            let mut skipped: Vec<usize> = Vec::new();
            for (i, (record, line)) in records.into_iter().zip(&lines).enumerate() {
                match record {
                    Some(record) => {
                        stats.records += 1;
                        keep(record, line);
                    }
                    None => skipped.push(i),
                }
            }
            if skipped.is_empty() {
                continue;
            }
            stats.records_skipped += skipped.len();
            let mut note = format!(
                "segment {name}: {} corrupt/truncated record(s) skipped (integrity check or parse failure)",
                skipped.len()
            );
            if repair == Repair::ReadOnly {
                note.push_str("; segment left in place (read-only inspection)");
                stats.notes.push(note);
                continue;
            }
            // Salvage the surviving records into a fresh segment, then
            // quarantine the corrupt file — rename it out of the segment
            // namespace so the corruption is diagnosed once (and surfaced by
            // `cache stat`) instead of re-warned forever.  Quarantine only
            // happens once the good records are durable again (or there were
            // none), so it never costs store entries; a failed salvage or
            // rename is only noted — both are hygiene, not a load
            // precondition.
            let good_lines: Vec<&str> = lines
                .iter()
                .enumerate()
                .filter(|(i, _)| skipped.binary_search(i).is_err())
                .map(|(_, line)| *line)
                .collect();
            let salvaged = if good_lines.is_empty() {
                Ok(())
            } else {
                self.write_segment(family, good_lines).map(|_| ())
            };
            match salvaged {
                Ok(()) => {
                    let mut quarantined_name = name.clone();
                    quarantined_name.push_str(QUARANTINE_SUFFIX);
                    match std::fs::rename(&path, path.with_file_name(&quarantined_name)) {
                        Ok(()) => {
                            stats.quarantined += 1;
                            note.push_str("; segment quarantined");
                        }
                        Err(e) => note.push_str(&format!("; quarantine rename failed: {e}")),
                    }
                }
                Err(e) => note.push_str(&format!("; salvage failed ({e}); segment left in place")),
            }
            stats.notes.push(note);
        }
        Ok(stats)
    }

    /// Load every segment of one family and fold its records, turned into
    /// map entries by `entry` on the loading thread, with the
    /// last-writer-wins merge (later records overwrite earlier ones per key).
    fn load_merged<T: Send, K: Eq + Hash, V>(
        &self,
        family: &Family,
        decode: impl Fn(&str) -> Option<T> + Sync,
        entry: impl Fn(T, &str) -> (K, V),
        repair: Repair,
    ) -> io::Result<(HashMap<K, V>, StoreLoadStats)> {
        let mut merged = HashMap::new();
        let mut stats = self.load_family(
            family,
            decode,
            |record, line| {
                let (key, value) = entry(record, line);
                merged.insert(key, value);
            },
            repair,
        )?;
        stats.entries = merged.len();
        Ok((merged, stats))
    }

    /// Hydrate every solve record (salvaging and quarantining corrupt
    /// segments), merged last-writer-wins.
    pub(crate) fn load(&self) -> io::Result<(StoredSolutions, StoreLoadStats)> {
        self.load_merged(
            &SOLVE_FAMILY,
            decode_record,
            |entry, _| entry,
            Repair::Salvage,
        )
    }

    /// Hydrate every report record (salvaging and quarantining segments with
    /// digest failures), merged last-writer-wins.  The payloads are kept as
    /// they are, marked as on disk; none is decoded.
    pub(crate) fn load_reports(&self) -> io::Result<(HashMap<u64, HeldReport>, StoreLoadStats)> {
        self.load_merged(
            &REPORT_FAMILY,
            report_line_key,
            |key, line| {
                let held = HeldReport {
                    payload: Box::from(&line[DIGEST_PREFIX..]),
                    on_disk: true,
                };
                (key, held)
            },
            Repair::Salvage,
        )
    }

    /// Load-time accounting of the solve records without keeping the entries
    /// (for `cache stat`).  Read-only: corrupt records are counted and noted,
    /// but no file is written or renamed.
    pub fn stat(&self) -> io::Result<StoreLoadStats> {
        self.load_merged(
            &SOLVE_FAMILY,
            decode_record,
            |(key, _), _| (key, ()),
            Repair::ReadOnly,
        )
        .map(|(_, stats)| stats)
    }

    /// Load-time accounting of the report records without keeping the
    /// entries (for `cache stat`).  Read-only, like [`SolveStore::stat`], and
    /// checking what hydration checks: digests and keys.
    pub fn report_stat(&self) -> io::Result<StoreLoadStats> {
        self.load_merged(
            &REPORT_FAMILY,
            report_line_key,
            |key, _| (key, ()),
            Repair::ReadOnly,
        )
        .map(|(_, stats)| stats)
    }

    /// Solve segments quarantined by earlier loads
    /// (`seg-*.soapstore.quarantined`), in name order — surfaced by
    /// `soap-cli cache stat` and removed by [`SolveStore::clear`].
    pub fn quarantined_files(&self) -> io::Result<Vec<PathBuf>> {
        self.quarantined_family_files(SOLVE_FAMILY.prefix)
    }

    /// Report segments quarantined by earlier loads
    /// (`rpt-*.soapstore.quarantined`), in name order.
    pub fn report_quarantined_files(&self) -> io::Result<Vec<PathBuf>> {
        self.quarantined_family_files(REPORT_FAMILY.prefix)
    }

    fn quarantined_family_files(&self, prefix: &str) -> io::Result<Vec<PathBuf>> {
        let mut files: Vec<PathBuf> = std::fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name().and_then(|n| n.to_str()).is_some_and(|n| {
                    n.starts_with(prefix)
                        && n.ends_with(&format!(".{SEGMENT_EXT}{QUARANTINE_SUFFIX}"))
                })
            })
            .collect();
        files.sort();
        Ok(files)
    }

    /// Persist entries as one new segment file.  Returns the segment path.
    ///
    /// The segment is staged under a dot-prefixed temp name and renamed into
    /// place, so concurrent loaders never observe a half-written segment
    /// under its final name (a crash mid-write leaves only an ignorable temp
    /// file behind).
    pub(crate) fn append(
        &self,
        entries: &[(&CanonicalKey, &Result<CanonicalSolution, AnalysisError>)],
    ) -> io::Result<PathBuf> {
        let lines: Vec<String> = entries
            .iter()
            .map(|(key, sol)| encode_record(key, sol))
            .collect();
        self.write_segment(&SOLVE_FAMILY, lines.iter().map(String::as_str).collect())
    }

    /// Persist report-record payloads, each behind its digest, as one new
    /// `rpt-` segment file.  Returns the segment path.  Same staging + rename
    /// discipline as solve segments.
    pub(crate) fn append_reports(&self, payloads: &[&str]) -> io::Result<PathBuf> {
        let lines: Vec<String> = payloads
            .iter()
            .map(|payload| record_line(payload))
            .collect();
        self.write_segment(&REPORT_FAMILY, lines.iter().map(String::as_str).collect())
    }

    /// Write already-encoded record lines as one new uniquely named segment
    /// of the given family (the shared tail of [`SolveStore::append`],
    /// [`SolveStore::append_reports`], and load-time salvage).
    fn write_segment(&self, family: &Family, mut lines: Vec<&str>) -> io::Result<PathBuf> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        let name = format!(
            "{}{nanos:020}-{}-{:04}.{SEGMENT_EXT}",
            family.prefix,
            std::process::id(),
            SEGMENT_SEQ.fetch_add(1, Ordering::Relaxed)
        );
        let tmp = self.dir.join(format!(".tmp-{name}"));
        let path = self.dir.join(&name);
        // Deterministic record order within a segment (callers often walk a
        // HashMap, whose order is arbitrary): sort the encoded lines.  Record
        // order never affects the merge result — keys within one segment are
        // distinct — it only keeps identical caches producing identical
        // segment bytes.
        lines.sort();
        let mut text = String::with_capacity(lines.iter().map(|l| l.len() + 1).sum::<usize>() + 32);
        text.push_str(family.header);
        text.push('\n');
        for line in lines {
            text.push_str(line);
            text.push('\n');
        }
        let injected = |attempt: u32| self.faults.store_write_fails(&name, attempt);
        retry_io(&name, injected, || {
            let mut f = std::fs::File::create(&tmp)?;
            f.write_all(text.as_bytes())?;
            f.sync_all()?;
            std::fs::rename(&tmp, &path)
        })?;
        Ok(path)
    }

    /// Delete all segment files of both record families (plus stale temp
    /// files and quarantined segments).  Returns how many segments were
    /// removed.  The directory itself is kept.
    pub fn clear(&self) -> io::Result<usize> {
        let mut removed = 0usize;
        for path in self
            .segment_files()?
            .into_iter()
            .chain(self.report_files()?)
            .chain(self.quarantined_files()?)
            .chain(self.report_quarantined_files()?)
        {
            std::fs::remove_file(&path)?;
            removed += 1;
        }
        for entry in std::fs::read_dir(&self.dir)?.filter_map(|e| e.ok()) {
            let p = entry.path();
            let is_tmp = p
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.starts_with(".tmp-seg-") || n.starts_with(".tmp-rpt-"));
            if is_tmp {
                std::fs::remove_file(&p)?;
            }
        }
        Ok(removed)
    }
}

// --- record codec -----------------------------------------------------------
//
// One record per line: `<16-hex fnv1a-64 of payload> <payload JSON>`.  The
// payload reuses the workspace serde stand-in's `Value` model; floats that
// must stay byte-identical across the round trip (`chi_coeff`, the tile
// coefficients) are stored as raw `f64::to_bits` integers, exact `i128`
// rationals as `[num, den]` pairs, and `ρ`/`X₀` in `Expr`'s existing serde
// wire format.

/// FNV-1a 64-bit digest (offset basis `0xcbf29ce484222325`, prime
/// `0x100000001b3`) — tiny, dependency-free, and ample as a corruption (not
/// security) check.  Must match the standard constants exactly: the format
/// docs name FNV-1a-64, so an external tool computing the real thing has to
/// agree with every committed store.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

/// Encode one record line (without the trailing newline).
pub(crate) fn encode_record(
    key: &CanonicalKey,
    sol: &Result<CanonicalSolution, AnalysisError>,
) -> String {
    let payload = Value::Object(vec![
        ("key".to_string(), key_to_value(key)),
        ("sol".to_string(), solution_to_value(sol)),
    ]);
    // lint:allow(unwrap-expect): record payloads are plain maps of strings and numbers; serialization cannot fail
    let json = serde_json::to_string(&payload).expect("record serializes");
    record_line(&json)
}

/// Length of the `<16-hex digest> ` prefix of every record line.
const DIGEST_PREFIX: usize = 17;

/// The record line (without the trailing newline) of a JSON payload: the
/// payload behind its digest.
fn record_line(json: &str) -> String {
    format!("{:016x} {json}", fnv1a64(json.as_bytes()))
}

/// The JSON payload of one record line of either family, after its digest
/// check; `None` when the line fails it.
fn checked_json(line: &str) -> Option<&str> {
    let (digest, json) = line.split_once(' ')?;
    let expected = u64::from_str_radix(digest, 16).ok()?;
    if digest.len() != 16 || fnv1a64(json.as_bytes()) != expected {
        return None;
    }
    Some(json)
}

/// Decode a solve record line; `None` on a digest or shape failure.
fn decode_record(line: &str) -> Option<StoreEntry> {
    solve_record_from_payload(&serde_json::from_str(checked_json(line)?).ok()?)
}

/// Decode a solve record's payload; `None` on any shape failure.
fn solve_record_from_payload(payload: &Value) -> Option<StoreEntry> {
    let key = key_from_value(payload.get("key")?).ok()?;
    let sol = solution_from_value(payload.get("sol")?).ok()?;
    Some((key, sol))
}

fn rational_to_value(r: Rational) -> Value {
    Value::Array(vec![Value::Int(r.numer()), Value::Int(r.denom())])
}

fn rational_from_value(v: &Value) -> Result<Rational, DeError> {
    let [num, den] = v
        .as_array()
        .and_then(|a| <&[Value; 2]>::try_from(a).ok())
        .ok_or_else(|| DeError::msg("rational: expected [num, den]"))?;
    let num = num
        .as_i128()
        .ok_or_else(|| DeError::msg("rational: non-integer numerator"))?;
    let den = den
        .as_i128()
        .filter(|&d| d != 0)
        .ok_or_else(|| DeError::msg("rational: bad denominator"))?;
    Ok(Rational::new(num, den))
}

/// `f64` as its raw bit pattern: the only representation that survives the
/// text round trip bit-exactly for every value, including NaN payloads and
/// signed zeros (the JSON layer would flatten non-finite floats to `null`).
fn f64_to_value(x: f64) -> Value {
    Value::Int(i128::from(x.to_bits()))
}

fn f64_from_value(v: &Value) -> Result<f64, DeError> {
    let bits = v
        .as_i128()
        .and_then(|n| u64::try_from(n).ok())
        .ok_or_else(|| DeError::msg("float: expected u64 bit pattern"))?;
    Ok(f64::from_bits(bits))
}

fn rows_to_value(rows: &[CanonicalRow]) -> Value {
    Value::Array(
        rows.iter()
            .map(|(exps, coeff)| Value::Array(vec![exps.to_value(), rational_to_value(*coeff)]))
            .collect(),
    )
}

fn rows_from_value(v: &Value) -> Result<Vec<CanonicalRow>, DeError> {
    v.as_array()
        .ok_or_else(|| DeError::msg("rows: expected array"))?
        .iter()
        .map(|row| {
            let [exps, coeff] = row
                .as_array()
                .and_then(|a| <&[Value; 2]>::try_from(a).ok())
                .ok_or_else(|| DeError::msg("row: expected [exps, rational]"))?;
            Ok((Vec::<i16>::from_value(exps)?, rational_from_value(coeff)?))
        })
        .collect()
}

fn key_to_value(key: &CanonicalKey) -> Value {
    let dominator = match &key.dominator {
        CanonicalDominator::Pure(rows) => {
            Value::Object(vec![("Pure".to_string(), rows_to_value(rows))])
        }
        CanonicalDominator::Max { terms, atoms } => {
            let terms = Value::Array(
                terms
                    .iter()
                    .map(|(exps, coeff, atom_ids)| {
                        Value::Array(vec![
                            exps.to_value(),
                            rational_to_value(*coeff),
                            atom_ids.to_value(),
                        ])
                    })
                    .collect(),
            );
            let atoms = Value::Array(
                atoms
                    .iter()
                    .map(|a| {
                        Value::Object(vec![
                            ("min".to_string(), Value::Bool(a.is_min)),
                            (
                                "branches".to_string(),
                                Value::Array(a.branches.iter().map(|b| rows_to_value(b)).collect()),
                            ),
                        ])
                    })
                    .collect(),
            );
            Value::Object(vec![(
                "Max".to_string(),
                Value::Object(vec![
                    ("terms".to_string(), terms),
                    ("atoms".to_string(), atoms),
                ]),
            )])
        }
    };
    Value::Object(vec![
        ("n".to_string(), key.n_vars.to_value()),
        ("obj".to_string(), rows_to_value(&key.objective)),
        ("dom".to_string(), dominator),
    ])
}

fn key_from_value(v: &Value) -> Result<CanonicalKey, DeError> {
    let n_vars = usize::from_value(v.get("n").ok_or_else(|| DeError::msg("key: missing 'n'"))?)?;
    let objective = rows_from_value(
        v.get("obj")
            .ok_or_else(|| DeError::msg("key: missing 'obj'"))?,
    )?;
    let dom = v
        .get("dom")
        .ok_or_else(|| DeError::msg("key: missing 'dom'"))?;
    let dominator = if let Some(rows) = dom.get("Pure") {
        CanonicalDominator::Pure(rows_from_value(rows)?)
    } else if let Some(max) = dom.get("Max") {
        let terms = max
            .get("terms")
            .and_then(Value::as_array)
            .ok_or_else(|| DeError::msg("key: Max missing 'terms'"))?
            .iter()
            .map(|t| {
                let [exps, coeff, atom_ids] = t
                    .as_array()
                    .and_then(|a| <&[Value; 3]>::try_from(a).ok())
                    .ok_or_else(|| DeError::msg("key: Max term shape"))?;
                Ok((
                    Vec::<i16>::from_value(exps)?,
                    rational_from_value(coeff)?,
                    Vec::<u32>::from_value(atom_ids)?,
                ))
            })
            .collect::<Result<Vec<_>, DeError>>()?;
        let atoms = max
            .get("atoms")
            .and_then(Value::as_array)
            .ok_or_else(|| DeError::msg("key: Max missing 'atoms'"))?
            .iter()
            .map(|a| {
                let is_min = bool::from_value(
                    a.get("min")
                        .ok_or_else(|| DeError::msg("key: atom missing 'min'"))?,
                )?;
                let branches = a
                    .get("branches")
                    .and_then(Value::as_array)
                    .ok_or_else(|| DeError::msg("key: atom missing 'branches'"))?
                    .iter()
                    .map(rows_from_value)
                    .collect::<Result<Vec<_>, DeError>>()?;
                Ok(CanonicalAtom { is_min, branches })
            })
            .collect::<Result<Vec<_>, DeError>>()?;
        CanonicalDominator::Max { terms, atoms }
    } else {
        return Err(DeError::msg("key: dominator is neither Pure nor Max"));
    };
    let key = CanonicalKey {
        n_vars,
        objective,
        dominator,
    };
    // Shape validation: a record whose matrices disagree with `n` would
    // poison the cache with a key no live model can produce.
    let row_ok = |rows: &[CanonicalRow]| rows.iter().all(|(e, _)| e.len() == n_vars);
    let shape_ok = row_ok(&key.objective)
        && match &key.dominator {
            CanonicalDominator::Pure(rows) => row_ok(rows),
            CanonicalDominator::Max { terms, atoms } => {
                terms.iter().all(|(e, _, ids)| {
                    e.len() == n_vars && ids.iter().all(|&j| (j as usize) < atoms.len())
                }) && atoms.iter().all(|a| a.branches.iter().all(|b| row_ok(b)))
            }
        };
    if !shape_ok {
        return Err(DeError::msg("key: matrix shape disagrees with 'n'"));
    }
    Ok(key)
}

fn error_to_value(e: &AnalysisError) -> Value {
    let (tag, msg) = match e {
        AnalysisError::InvalidStatement(m) => ("InvalidStatement", m),
        AnalysisError::NoInputs(m) => ("NoInputs", m),
        AnalysisError::NumericalFailure(m) => ("NumericalFailure", m),
        AnalysisError::Internal(m) => ("Internal", m),
        // Kept total for codec symmetry, but never reached from `flush_store`:
        // cancelled results carry the transient scope and are filtered out.
        AnalysisError::Cancelled(m) => ("Cancelled", m),
    };
    Value::Object(vec![(tag.to_string(), Value::Str(msg.clone()))])
}

fn error_from_value(v: &Value) -> Result<AnalysisError, DeError> {
    let Value::Object(fields) = v else {
        return Err(DeError::msg("error: expected single-key object"));
    };
    let [(tag, payload)] = fields.as_slice() else {
        return Err(DeError::msg("error: expected exactly one variant"));
    };
    let msg = String::from_value(payload)?;
    match tag.as_str() {
        "InvalidStatement" => Ok(AnalysisError::InvalidStatement(msg)),
        "NoInputs" => Ok(AnalysisError::NoInputs(msg)),
        "NumericalFailure" => Ok(AnalysisError::NumericalFailure(msg)),
        "Internal" => Ok(AnalysisError::Internal(msg)),
        "Cancelled" => Ok(AnalysisError::Cancelled(msg)),
        other => Err(DeError::msg(format!("error: unknown variant '{other}'"))),
    }
}

fn solution_to_value(sol: &Result<CanonicalSolution, AnalysisError>) -> Value {
    match sol {
        Ok(s) => Value::Object(vec![(
            "Ok".to_string(),
            Value::Object(vec![
                ("sigma".to_string(), rational_to_value(s.sigma)),
                ("chi".to_string(), f64_to_value(s.chi_coeff)),
                ("rho".to_string(), s.rho.to_value()),
                ("x0".to_string(), s.x0.to_value()),
                (
                    "exps".to_string(),
                    Value::Array(
                        s.tile_exponents
                            .iter()
                            .map(|r| rational_to_value(*r))
                            .collect(),
                    ),
                ),
                (
                    "coeffs".to_string(),
                    Value::Array(s.tile_coeffs.iter().map(|c| f64_to_value(*c)).collect()),
                ),
            ]),
        )]),
        Err(e) => Value::Object(vec![("Err".to_string(), error_to_value(e))]),
    }
}

fn solution_from_value(v: &Value) -> Result<Result<CanonicalSolution, AnalysisError>, DeError> {
    if let Some(err) = v.get("Err") {
        return Ok(Err(error_from_value(err)?));
    }
    let s = v
        .get("Ok")
        .ok_or_else(|| DeError::msg("solution: expected Ok or Err"))?;
    let field = |name: &str| {
        s.get(name)
            .ok_or_else(|| DeError::msg(format!("solution: missing '{name}'")))
    };
    let tile_exponents = field("exps")?
        .as_array()
        .ok_or_else(|| DeError::msg("solution: 'exps' not an array"))?
        .iter()
        .map(rational_from_value)
        .collect::<Result<Vec<_>, DeError>>()?;
    let tile_coeffs = field("coeffs")?
        .as_array()
        .ok_or_else(|| DeError::msg("solution: 'coeffs' not an array"))?
        .iter()
        .map(f64_from_value)
        .collect::<Result<Vec<_>, DeError>>()?;
    if tile_exponents.len() != tile_coeffs.len() {
        return Err(DeError::msg("solution: exps/coeffs length mismatch"));
    }
    Ok(Ok(CanonicalSolution {
        sigma: rational_from_value(field("sigma")?)?,
        chi_coeff: f64_from_value(field("chi")?)?,
        rho: Expr::from_value(field("rho")?)?,
        x0: Option::<Expr>::from_value(field("x0")?)?,
        tile_exponents,
        tile_coeffs,
    }))
}

// --- report-record codec -----------------------------------------------------
//
// Same line format and float/rational conventions as solve records; the
// payload is `{"key": <u64 structural program key>, "report": {...}}` with the
// finished per-array Theorem-1 terms, the evaluated subgraphs, and the total
// bound — everything a warm path needs to resplice a `ProgramAnalysis`
// without touching the SDG pipeline.  The writer (`JsonOut`) prints exactly
// the bytes `serde_json` prints for the payload's `Value` tree (`Expr` and
// the intensity's `x0` in their serde wire format, strings escaped the same
// way) without building the tree, and a replay reads that layout back the
// same way (`JsonIn`).

/// Encode the payload of a report record straight from the finished
/// analysis' parts.  Its record line — the payload behind its FNV-1a digest
/// — is built only when a flush writes it: the digest is a serial multiply
/// per byte, about as costly as writing the payload, and stays off the
/// request path.
pub(crate) fn encode_report_payload(key: u64, report: ReportParts<'_>) -> String {
    let mut w = JsonOut(Vec::with_capacity(4096));
    w.raw("{\"key\":");
    w.u64(key);
    w.raw(",\"report\":{\"per_array\":[");
    for (i, b) in report.per_array.iter().enumerate() {
        w.comma(i);
        w.raw("{\"array\":");
        w.str(&b.array);
        w.raw(",\"vertices\":");
        w.poly(&b.vertex_count);
        w.raw(",\"rho\":");
        w.expr(&b.rho);
        w.raw(",\"sigma\":");
        w.rational_pair(b.sigma);
        w.raw(",\"best\":");
        w.str_list(&b.best_subgraph);
        w.raw(",\"bound\":");
        w.expr(&b.bound);
        w.raw("}");
    }
    w.raw("],\"subgraphs\":[");
    for (i, s) in report.subgraphs.iter().enumerate() {
        w.comma(i);
        let r = &s.intensity;
        w.raw("{\"arrays\":");
        w.str_list(&s.arrays);
        w.raw(",\"intensity\":{\"name\":");
        w.str(&r.name);
        w.raw(",\"sigma\":");
        w.rational_pair(r.sigma);
        w.raw(",\"chi\":");
        w.u64(r.chi_coeff.to_bits());
        w.raw(",\"rho\":");
        w.expr(&r.rho);
        w.raw(",\"x0\":");
        match &r.x0 {
            Some(x0) => w.expr(x0),
            None => w.raw("null"),
        }
        w.raw(",\"exps\":[");
        for (j, (var, e)) in r.tile_exponents.iter().enumerate() {
            w.comma(j);
            w.raw("[");
            w.str(var);
            w.raw(",");
            w.rational_pair(*e);
            w.raw("]");
        }
        w.raw("],\"coeffs\":[");
        for (j, (var, c)) in r.tile_coeffs.iter().enumerate() {
            w.comma(j);
            w.raw("[");
            w.str(var);
            w.raw(",");
            w.u64(c.to_bits());
            w.raw("]");
        }
        w.raw("]},\"rho_ref\":");
        w.u64(s.rho_ref.to_bits());
        w.raw("}");
    }
    w.raw("],\"bound\":");
    w.expr(report.bound);
    w.raw(",\"notes\":");
    w.str_list(report.notes);
    w.raw("}}");
    // lint:allow(unwrap-expect): every byte written is ASCII or comes whole from a `&str`
    String::from_utf8(w.0).expect("report payloads are UTF-8")
}

/// Decode a report record's payload text; `None` on a parse or shape
/// failure.  The digest is not checked here: a held payload was checked when
/// it was hydrated, or encoded by this process.
pub(crate) fn decode_report_payload(payload: &str) -> Option<ReportEntry> {
    let r = &mut JsonIn {
        text: payload,
        pos: 0,
    };
    r.lit("{\"key\":")?;
    let key = r.u64()?;
    r.lit(",\"report\":{\"per_array\":")?;
    let per_array = r.list(|r| {
        r.lit("{\"array\":")?;
        let array = r.string()?;
        r.lit(",\"vertices\":")?;
        let vertex_count = r.poly()?;
        r.lit(",\"rho\":")?;
        let rho = r.expr()?;
        r.lit(",\"sigma\":")?;
        let sigma = r.rational_pair()?;
        r.lit(",\"best\":")?;
        let best_subgraph = r.list(JsonIn::string)?;
        r.lit(",\"bound\":")?;
        let bound = r.expr()?;
        r.lit("}")?;
        Some(ArrayBound {
            array,
            vertex_count,
            rho,
            sigma,
            best_subgraph,
            bound,
        })
    })?;
    r.lit(",\"subgraphs\":")?;
    let subgraphs = r.list(|r| {
        r.lit("{\"arrays\":")?;
        let arrays = r.list(JsonIn::string)?;
        r.lit(",\"intensity\":{\"name\":")?;
        let name = r.string()?;
        r.lit(",\"sigma\":")?;
        let sigma = r.rational_pair()?;
        r.lit(",\"chi\":")?;
        let chi_coeff = r.f64_bits()?;
        r.lit(",\"rho\":")?;
        let rho = r.expr()?;
        r.lit(",\"x0\":")?;
        let x0 = if r.lit("null").is_some() {
            None
        } else {
            Some(r.expr()?)
        };
        r.lit(",\"exps\":")?;
        let tile_exponents = r.list(|r| r.pair(JsonIn::rational_pair))?;
        r.lit(",\"coeffs\":")?;
        let tile_coeffs = r.list(|r| r.pair(JsonIn::f64_bits))?;
        r.lit("},\"rho_ref\":")?;
        let rho_ref = r.f64_bits()?;
        r.lit("}")?;
        let intensity = IntensityResult {
            name,
            sigma,
            chi_coeff,
            rho,
            x0,
            tile_exponents,
            tile_coeffs,
        };
        Some(SubgraphIntensity {
            arrays,
            intensity,
            rho_ref,
        })
    })?;
    r.lit(",\"bound\":")?;
    let bound = r.expr()?;
    r.lit(",\"notes\":")?;
    let notes = r.list(JsonIn::string)?;
    r.lit("}}")?;
    if r.pos != payload.len() {
        return None;
    }
    let report = StoredReport {
        per_array,
        subgraphs,
        bound,
        notes,
    };
    Some((key, report))
}

/// The structural key of a report record line, read from the fixed
/// `{"key":N,` prefix of its payload after the digest check, without parsing
/// the rest.  `None` on a digest failure or a malformed prefix.
fn report_line_key(line: &str) -> Option<u64> {
    let r = &mut JsonIn {
        text: checked_json(line)?,
        pos: 0,
    };
    r.lit("{\"key\":")?;
    let key = r.u64()?;
    r.lit(",")?;
    Some(key)
}

/// The two decimal digits of `n < 100`.
fn digit_pair(n: usize) -> &'static [u8] {
    const PAIRS: &[u8; 200] = b"0001020304050607080910111213141516171819\
        2021222324252627282930313233343536373839\
        4041424344454647484950515253545556575859\
        6061626364656667686970717273747576777879\
        8081828384858687888990919293949596979899";
    &PAIRS[2 * n..2 * n + 2]
}

/// JSON text under construction, appended byte by byte with no `Value`
/// tree: the same bytes `serde_json` prints for the equivalent tree.
struct JsonOut(Vec<u8>);

impl JsonOut {
    fn raw(&mut self, s: &str) {
        self.0.extend_from_slice(s.as_bytes());
    }

    /// The `,` before every item of a sequence but the first.
    fn comma(&mut self, index: usize) {
        if index > 0 {
            self.0.push(b',');
        }
    }

    /// `n` in decimal.  Four digits per division: raw `f64` bit patterns
    /// run to 19–20 digits, and one division per digit is a long serial
    /// chain.
    fn u64(&mut self, mut n: u64) {
        let mut digits = [0u8; 20];
        let mut at = digits.len();
        while n >= 10_000 {
            let four = (n % 10_000) as usize;
            n /= 10_000;
            at -= 4;
            digits[at..at + 2].copy_from_slice(digit_pair(four / 100));
            digits[at + 2..at + 4].copy_from_slice(digit_pair(four % 100));
        }
        let mut n = n as usize;
        while n >= 10 {
            at -= 2;
            digits[at..at + 2].copy_from_slice(digit_pair(n % 100));
            n /= 100;
        }
        if n > 0 || at == digits.len() {
            at -= 1;
            digits[at] = b'0' + n as u8;
        }
        self.0.extend_from_slice(&digits[at..]);
    }

    /// `n` in decimal, as `i128`'s `Display` prints it.
    fn i128(&mut self, n: i128) {
        const TEN_POW_19: u128 = 10_000_000_000_000_000_000;
        if n < 0 {
            self.0.push(b'-');
        }
        let m = n.unsigned_abs();
        match u64::try_from(m) {
            Ok(m) => self.u64(m),
            Err(_) => {
                // |n| ≤ 2^127 < 10^19 · 2^64: the high part fits a u64, and
                // the low part is the last 19 digits, zero-padded.
                self.u64((m / TEN_POW_19) as u64);
                let mut low = (m % TEN_POW_19) as u64;
                let mut digits = [b'0'; 19];
                for d in digits.iter_mut().rev() {
                    *d = b'0' + (low % 10) as u8;
                    low /= 10;
                }
                self.0.extend_from_slice(&digits);
            }
        }
    }

    /// `s` as a JSON string, escaped exactly as `serde_json` escapes it.
    fn str(&mut self, s: &str) {
        const HEX: &[u8; 16] = b"0123456789abcdef";
        let bytes = s.as_bytes();
        self.0.push(b'"');
        let mut start = 0;
        // Every byte that needs escaping is ASCII, so each cut below falls
        // on a char boundary.
        for (i, &b) in bytes.iter().enumerate() {
            let escaped: &[u8] = match b {
                b'"' => b"\\\"",
                b'\\' => b"\\\\",
                b'\n' => b"\\n",
                b'\r' => b"\\r",
                b'\t' => b"\\t",
                0..=0x1f => &[
                    b'\\',
                    b'u',
                    b'0',
                    b'0',
                    HEX[usize::from(b >> 4)],
                    HEX[usize::from(b & 0xf)],
                ],
                _ => continue,
            };
            self.0.extend_from_slice(&bytes[start..i]);
            self.0.extend_from_slice(escaped);
            start = i + 1;
        }
        self.0.extend_from_slice(&bytes[start..]);
        self.0.push(b'"');
    }

    fn str_list(&mut self, items: &[String]) {
        self.raw("[");
        for (i, item) in items.iter().enumerate() {
            self.comma(i);
            self.str(item);
        }
        self.raw("]");
    }

    /// A rational as the store's `[num, den]` pair.
    fn rational_pair(&mut self, r: Rational) {
        self.raw("[");
        self.i128(r.numer());
        self.raw(",");
        self.i128(r.denom());
        self.raw("]");
    }

    /// A rational in its serde wire format, `{"num":n,"den":d}`.
    fn rational_object(&mut self, r: Rational) {
        self.raw("{\"num\":");
        self.i128(r.numer());
        self.raw(",\"den\":");
        self.i128(r.denom());
        self.raw("}");
    }

    /// An `Expr` in its serde wire format (`{"Sym":"N"}`, `{"Add":[…]}`,
    /// `{"Pow":[…, {…}]}`).
    fn expr(&mut self, e: &Expr) {
        let (tag, items) = match e {
            Expr::Num(r) => {
                self.raw("{\"Num\":");
                self.rational_object(*r);
                self.raw("}");
                return;
            }
            Expr::Sym(s) => {
                self.raw("{\"Sym\":");
                self.str(s.as_str());
                self.raw("}");
                return;
            }
            Expr::Pow(base, exp) => {
                self.raw("{\"Pow\":[");
                self.expr(base);
                self.raw(",");
                self.rational_object(*exp);
                self.raw("]}");
                return;
            }
            Expr::Add(items) => ("{\"Add\":[", items),
            Expr::Mul(items) => ("{\"Mul\":[", items),
            Expr::Max(items) => ("{\"Max\":[", items),
            Expr::Min(items) => ("{\"Min\":[", items),
        };
        self.raw(tag);
        for (i, item) in items.iter().enumerate() {
            self.comma(i);
            self.expr(item);
        }
        self.raw("]}");
    }

    /// An exact-coefficient polynomial as
    /// `[[ [[var, pow], ...], [num, den] ], ...]`.  `Polynomial`'s terms are
    /// BTreeMap-ordered, so encoding is deterministic and the rebuilt value
    /// renders byte-identically.
    fn poly(&mut self, p: &Polynomial) {
        self.raw("[");
        for (i, (mono, coeff)) in p.terms().enumerate() {
            self.comma(i);
            self.raw("[[");
            for (j, (var, pow)) in mono.0.iter().enumerate() {
                self.comma(j);
                self.raw("[");
                self.str(var);
                self.raw(",");
                self.u64(u64::from(*pow));
                self.raw("]");
            }
            self.raw("],");
            self.rational_pair(*coeff);
            self.raw("]");
        }
        self.raw("]");
    }
}

/// A cursor over a report payload in the layout [`JsonOut`] writes —
/// compact JSON, fields in the writer's order — reading it straight into
/// the report's types with no `Value` tree.  It decodes strings, integers
/// and rationals as the `serde_json` stand-in and the `Value` decoders do;
/// anything outside that layout fails, and the replay answers it as a miss.
struct JsonIn<'a> {
    text: &'a str,
    pos: usize,
}

impl JsonIn<'_> {
    /// Consume `s` if the input continues with it.
    fn lit(&mut self, s: &str) -> Option<()> {
        let rest = self.text.get(self.pos..)?;
        if rest.starts_with(s) {
            self.pos += s.len();
            Some(())
        } else {
            None
        }
    }

    /// A JSON integer: an optional `-` and at least one digit.
    fn i128(&mut self) -> Option<i128> {
        let negative = self.lit("-").is_some();
        let start = self.pos;
        // Accumulated negatively, so `i128::MIN` parses too.
        let mut n: i128 = 0;
        while let Some(d) = self
            .text
            .as_bytes()
            .get(self.pos)
            .filter(|b| b.is_ascii_digit())
        {
            n = n.checked_mul(10)?.checked_sub(i128::from(d - b'0'))?;
            self.pos += 1;
        }
        if self.pos == start {
            return None;
        }
        if negative {
            Some(n)
        } else {
            n.checked_neg()
        }
    }

    fn u64(&mut self) -> Option<u64> {
        u64::try_from(self.i128()?).ok()
    }

    /// An `f64` stored as its raw bit pattern.
    fn f64_bits(&mut self) -> Option<f64> {
        self.u64().map(f64::from_bits)
    }

    /// A JSON string, unescaped.
    fn string(&mut self) -> Option<String> {
        self.lit("\"")?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash; both are
            // ASCII, so every cut falls on a char boundary.
            let rest = self.text.get(self.pos..)?;
            let run = rest.find(['"', '\\'])?;
            out.push_str(&rest[..run]);
            self.pos += run + 1;
            if rest.as_bytes()[run] == b'"' {
                return Some(out);
            }
            let unescaped = match *self.text.as_bytes().get(self.pos)? {
                b'"' => '"',
                b'\\' => '\\',
                b'/' => '/',
                b'n' => '\n',
                b'r' => '\r',
                b't' => '\t',
                b'b' => '\u{8}',
                b'f' => '\u{c}',
                b'u' => {
                    let hex = self.text.get(self.pos + 1..self.pos + 5)?;
                    let code = u32::from_str_radix(hex, 16).ok()?;
                    self.pos += 4;
                    char::from_u32(code).unwrap_or('\u{fffd}')
                }
                _ => return None,
            };
            out.push(unescaped);
            self.pos += 1;
        }
    }

    /// A JSON array of `item`s.
    fn list<T>(&mut self, mut item: impl FnMut(&mut Self) -> Option<T>) -> Option<Vec<T>> {
        self.lit("[")?;
        let mut out = Vec::new();
        if self.lit("]").is_some() {
            return Some(out);
        }
        loop {
            out.push(item(self)?);
            if self.lit("]").is_some() {
                return Some(out);
            }
            self.lit(",")?;
        }
    }

    /// A `[name, value]` pair.
    fn pair<T>(&mut self, value: impl FnOnce(&mut Self) -> Option<T>) -> Option<(String, T)> {
        self.lit("[")?;
        let name = self.string()?;
        self.lit(",")?;
        let value = value(self)?;
        self.lit("]")?;
        Some((name, value))
    }

    /// A rational as the store's `[num, den]` pair.
    fn rational_pair(&mut self) -> Option<Rational> {
        self.lit("[")?;
        let num = self.i128()?;
        self.lit(",")?;
        let den = self.i128()?;
        self.lit("]")?;
        (den != 0).then(|| Rational::new(num, den))
    }

    /// A rational in its serde wire format, `{"num":n,"den":d}`.
    fn rational_object(&mut self) -> Option<Rational> {
        self.lit("{\"num\":")?;
        let num = self.i128()?;
        self.lit(",\"den\":")?;
        let den = self.i128()?;
        self.lit("}")?;
        (den != 0).then(|| Rational::new(num, den))
    }

    /// An `Expr` in its serde wire format, rebuilt as `Expr::from_value`
    /// rebuilds it (variants as written, nothing re-simplified).
    fn expr(&mut self) -> Option<Expr> {
        self.lit("{\"")?;
        let e = if self.lit("Num\":").is_some() {
            Expr::Num(self.rational_object()?)
        } else if self.lit("Sym\":").is_some() {
            Expr::sym(self.string()?)
        } else if self.lit("Pow\":[").is_some() {
            let base = self.expr()?;
            self.lit(",")?;
            let exp = self.rational_object()?;
            self.lit("]")?;
            Expr::Pow(Box::new(base), exp)
        } else if self.lit("Add\":").is_some() {
            Expr::Add(self.list(Self::expr)?)
        } else if self.lit("Mul\":").is_some() {
            Expr::Mul(self.list(Self::expr)?)
        } else if self.lit("Max\":").is_some() {
            Expr::Max(self.list(Self::expr)?)
        } else if self.lit("Min\":").is_some() {
            Expr::Min(self.list(Self::expr)?)
        } else {
            return None;
        };
        self.lit("}")?;
        Some(e)
    }

    /// An exact-coefficient polynomial (see [`JsonOut::poly`]).
    fn poly(&mut self) -> Option<Polynomial> {
        let terms = self.list(|r| {
            r.lit("[")?;
            let vars = r.list(|r| r.pair(|r| u32::try_from(r.i128()?).ok()))?;
            let mut mono = Monomial::unit();
            for (name, pow) in vars {
                // `x^0` is the constant 1, and a repeated variable multiplies
                // out: the monomial `Polynomial::var(x).pow(e)` products give.
                if pow > 0 {
                    *mono.0.entry(name).or_insert(0) += pow;
                }
            }
            r.lit(",")?;
            let coeff = r.rational_pair()?;
            r.lit("]")?;
            Some((mono, coeff))
        })?;
        Some(Polynomial::from_terms(terms))
    }
}

#[cfg(test)]
#[path = "../tests/common/report_oracle.rs"]
mod report_oracle;

#[cfg(test)]
mod tests {
    use super::report_oracle::oracle_report_line;
    use super::*;
    use crate::cache::canonicalize;
    use soap_core::AccessModel;

    fn parts(report: &StoredReport) -> ReportParts<'_> {
        ReportParts {
            per_array: &report.per_array,
            subgraphs: &report.subgraphs,
            bound: &report.bound,
            notes: &report.notes,
        }
    }

    fn oracle_line(key: u64, report: &StoredReport) -> String {
        oracle_report_line(
            key,
            &report.per_array,
            &report.subgraphs,
            &report.bound,
            &report.notes,
        )
    }

    fn sample_key(max_form: bool) -> CanonicalKey {
        let dv = |v: &str| Expr::sym(v);
        let dominator = if max_form {
            dv("a")
                .mul(dv("b"))
                .max(dv("a").mul(dv("c")))
                .add(dv("b").mul(dv("c")))
        } else {
            dv("a").mul(dv("b")).add(dv("b").mul(dv("c")))
        };
        canonicalize(&AccessModel {
            name: "t".into(),
            tile_variables: vec!["a".into(), "b".into(), "c".into()],
            objective: dv("a").mul(dv("b")).mul(dv("c")),
            dominator,
            access_index_sets: vec![],
        })
        .expect("cacheable")
        .key
    }

    fn sample_solution() -> CanonicalSolution {
        CanonicalSolution {
            sigma: Rational::new(3, 2),
            chi_coeff: 2.0_f64.sqrt() * 0.1234567891234567,
            rho: Expr::sym("S").pow(Rational::new(1, 2)).mul(Expr::int(2)),
            x0: Some(Expr::int(3).mul(Expr::sym("S"))),
            tile_exponents: vec![Rational::new(1, 2); 3],
            tile_coeffs: vec![0.5, f64::NAN, -0.0],
        }
    }

    #[test]
    fn fnv1a64_matches_the_published_test_vectors() {
        // Standard FNV-1a-64 vectors (Noll's reference tables): the on-disk
        // format names this hash, so external tooling must reproduce it.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
        // The test support's oracle digests lines the same way.
        assert_eq!(super::report_oracle::fnv1a64(b"foobar"), fnv1a64(b"foobar"));
    }

    #[test]
    fn records_round_trip_bit_exactly() {
        for max_form in [false, true] {
            let key = sample_key(max_form);
            let line = encode_record(&key, &Ok(sample_solution()));
            let (back_key, back_sol) = decode_record(&line).expect("decodes");
            assert_eq!(back_key, key);
            let sol = back_sol.expect("ok solution");
            let orig = sample_solution();
            assert_eq!(sol.sigma, orig.sigma);
            assert_eq!(sol.chi_coeff.to_bits(), orig.chi_coeff.to_bits());
            assert_eq!(format!("{}", sol.rho), format!("{}", orig.rho));
            assert_eq!(
                sol.x0.map(|e| format!("{e}")),
                orig.x0.map(|e| format!("{e}"))
            );
            assert_eq!(sol.tile_exponents, orig.tile_exponents);
            for (a, b) in sol.tile_coeffs.iter().zip(&orig.tile_coeffs) {
                // Bit compare: NaN and -0.0 must survive the text round trip.
                assert_eq!(a.to_bits(), b.to_bits());
            }
        }
    }

    #[test]
    fn failures_round_trip() {
        let key = sample_key(false);
        let err = AnalysisError::NumericalFailure("model t: diverged".into());
        let line = encode_record(&key, &Err(err.clone()));
        let (_, back) = decode_record(&line).expect("decodes");
        assert_eq!(back.err(), Some(err));
    }

    #[test]
    fn corrupt_lines_are_rejected_not_panicked() {
        let key = sample_key(true);
        let line = encode_record(&key, &Ok(sample_solution()));
        // Truncation anywhere in the line fails the digest.
        for cut in [1, 17, line.len() / 2, line.len() - 1] {
            assert!(decode_record(&line[..cut]).is_none(), "cut at {cut}");
        }
        // A flipped payload byte fails the digest.
        let mut flipped = line.clone().into_bytes();
        let last = flipped.len() - 2;
        flipped[last] ^= 0x01;
        assert!(decode_record(std::str::from_utf8(&flipped).unwrap()).is_none());
        // A well-formed digest over a garbage payload fails the parse.
        let garbage = format!("{:016x} {{\"key\":1}}", fnv1a64(b"{\"key\":1}"));
        assert!(decode_record(&garbage).is_none());
        assert!(decode_record("").is_none());
        assert!(decode_record("nonsense").is_none());
    }

    fn sample_report() -> StoredReport {
        let s = sample_solution();
        let intensity = IntensityResult {
            name: "merged(A,B)".into(),
            sigma: s.sigma,
            chi_coeff: s.chi_coeff,
            rho: s.rho.clone(),
            x0: s.x0.clone(),
            tile_exponents: vec![
                ("i".into(), Rational::new(1, 2)),
                ("j".into(), Rational::new(1, 3)),
            ],
            tile_coeffs: vec![("i".into(), 0.5), ("j".into(), f64::NAN)],
        };
        let vertex_count = Polynomial::var("n")
            .mul(&Polynomial::var("m"))
            .add(&Polynomial::constant(Rational::new(-3, 2)).mul(&Polynomial::var("n").pow(2)));
        StoredReport {
            per_array: vec![ArrayBound {
                array: "C".into(),
                vertex_count,
                rho: s.rho.clone(),
                sigma: s.sigma,
                best_subgraph: vec!["A".into(), "B".into(), "C".into()],
                bound: Expr::sym("n").pow(Rational::new(3, 1)).mul(Expr::sym("S")),
            }],
            subgraphs: vec![SubgraphIntensity {
                arrays: vec!["A".into(), "B".into()],
                intensity,
                rho_ref: -0.0,
            }],
            bound: Expr::sym("n").pow(Rational::new(3, 1)),
            notes: vec!["note one".into()],
        }
    }

    #[test]
    fn report_records_round_trip_bit_exactly() {
        let report = sample_report();
        let payload = encode_report_payload(0xdead_beef_cafe_f00d, parts(&report));
        let line = record_line(&payload);
        assert_eq!(line, oracle_line(0xdead_beef_cafe_f00d, &report));
        let (key, back) = decode_report_payload(&payload).expect("decodes");
        assert_eq!(key, 0xdead_beef_cafe_f00d);
        assert_eq!(back.per_array.len(), 1);
        let (a, b) = (&back.per_array[0], &report.per_array[0]);
        assert_eq!(a.array, b.array);
        // Display equality is the contract the golden-bounds file depends on.
        assert_eq!(format!("{}", a.vertex_count), format!("{}", b.vertex_count));
        assert_eq!(format!("{}", a.rho), format!("{}", b.rho));
        assert_eq!(a.sigma, b.sigma);
        assert_eq!(a.best_subgraph, b.best_subgraph);
        assert_eq!(format!("{}", a.bound), format!("{}", b.bound));
        let (sa, sb) = (&back.subgraphs[0], &report.subgraphs[0]);
        assert_eq!(sa.arrays, sb.arrays);
        assert_eq!(sa.rho_ref.to_bits(), sb.rho_ref.to_bits());
        assert_eq!(
            sa.intensity.chi_coeff.to_bits(),
            sb.intensity.chi_coeff.to_bits()
        );
        assert_eq!(sa.intensity.tile_exponents, sb.intensity.tile_exponents);
        for ((va, ca), (vb, cb)) in sa
            .intensity
            .tile_coeffs
            .iter()
            .zip(&sb.intensity.tile_coeffs)
        {
            assert_eq!(va, vb);
            assert_eq!(ca.to_bits(), cb.to_bits());
        }
        assert_eq!(format!("{}", back.bound), format!("{}", report.bound));
        assert_eq!(back.notes, report.notes);
        // Corruption is rejected, never panicked.
        for cut in [1, 17, line.len() / 2, line.len() - 1] {
            assert!(report_line_key(&line[..cut]).is_none(), "cut at {cut}");
        }
        for cut in [1, 8, payload.len() / 2, payload.len() - 1] {
            assert!(
                decode_report_payload(&payload[..cut]).is_none(),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn report_segments_are_a_separate_family() {
        let dir = std::env::temp_dir().join(format!("soap-store-family-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SolveStore::open(&dir).unwrap();
        let key = sample_key(false);
        let sol = Ok(sample_solution());
        store.append(&[(&key, &sol)]).unwrap();
        let report = sample_report();
        let payload = encode_report_payload(7, parts(&report));
        store.append_reports(&[&payload]).unwrap();
        // Family listings never bleed into each other.
        assert_eq!(store.segment_files().unwrap().len(), 1);
        assert_eq!(store.report_files().unwrap().len(), 1);
        let solve_stats = store.stat().unwrap();
        assert_eq!((solve_stats.segments, solve_stats.entries), (1, 1));
        let report_stats = store.report_stat().unwrap();
        assert_eq!((report_stats.segments, report_stats.entries), (1, 1));
        let (entries, _) = store.load_reports().unwrap();
        assert_eq!(entries.len(), 1);
        // Hydration keeps the payload byte for byte, marked as on disk.
        assert_eq!(&*entries[&7].payload, payload);
        assert!(entries[&7].on_disk);
        // clear() removes both families.
        assert_eq!(store.clear().unwrap(), 2);
        assert!(store.report_files().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A report exercising the writer's escaping and float paths: names and
    /// notes with quotes, backslashes, every control character and
    /// non-ASCII text; NaN, -0.0, subnormal and infinite floats; an absent
    /// and a present `x0`; every `Expr` variant; rationals beyond `i64`.
    fn adversarial_report() -> StoredReport {
        let mut report = sample_report();
        let controls: String = (0u8..0x20).map(char::from).chain(['\u{7f}']).collect();
        let nasty = format!("q\"uote\\back/slash {controls} ünï 日本 🦀 \u{2028}");
        let big = Rational::new(i128::MAX, 3);
        let huge = Rational::new(i128::MIN + 1, i128::MAX);
        let nasty_sym = Expr::sym(&nasty);
        let every_variant = Expr::Add(vec![
            Expr::Num(big),
            Expr::Mul(vec![Expr::Num(huge), nasty_sym.clone()]),
            Expr::Pow(Box::new(Expr::sym("S")), Rational::new(-7, 9)),
            Expr::Max(vec![
                Expr::sym("a"),
                Expr::Min(vec![Expr::sym("b"), Expr::int(-3)]),
            ]),
        ]);
        report.per_array[0].array = nasty.clone();
        report.per_array[0].rho = every_variant.clone();
        report.per_array[0].best_subgraph = vec![nasty.clone(), String::new()];
        report.per_array[0].vertex_count = Polynomial::var(&nasty)
            .mul(&Polynomial::constant(big))
            .add(&Polynomial::constant(huge));
        let floats = [
            f64::NAN,
            -f64::NAN,
            f64::from_bits(0x7ff8_0000_dead_beef),
            -0.0,
            0.0,
            f64::MIN_POSITIVE / 2.0,
            f64::from_bits(1),
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MAX,
        ];
        let mut subgraphs = Vec::new();
        for (i, &x) in floats.iter().enumerate() {
            let mut s = report.subgraphs[0].clone();
            s.rho_ref = x;
            s.arrays = vec![nasty.clone(), format!("A{i}")];
            s.intensity.name = format!("{nasty}#{i}");
            s.intensity.chi_coeff = x;
            s.intensity.tile_coeffs = vec![(nasty.clone(), x), ("j".into(), -x)];
            s.intensity.tile_exponents = vec![(nasty.clone(), huge)];
            s.intensity.x0 = (i % 2 == 0).then(|| every_variant.clone());
            subgraphs.push(s);
        }
        report.subgraphs = subgraphs;
        report.bound = every_variant;
        report.notes = vec![nasty, String::new(), controls];
        report
    }

    #[test]
    fn direct_writer_matches_the_value_tree_encoder_byte_for_byte() {
        for (key, report) in [
            (0, sample_report()),
            (u64::MAX, sample_report()),
            (1, adversarial_report()),
            (
                42,
                StoredReport {
                    per_array: vec![],
                    subgraphs: vec![],
                    bound: Expr::zero(),
                    notes: vec![],
                },
            ),
        ] {
            let payload = encode_report_payload(key, parts(&report));
            let line = record_line(&payload);
            assert_eq!(line, oracle_line(key, &report));
            assert_eq!(report_line_key(&line), Some(key));
            // The payload decodes back to a report that re-encodes
            // identically.
            let (back_key, back) = decode_report_payload(&payload).expect("decodes");
            assert_eq!(back_key, key);
            assert_eq!(encode_report_payload(key, parts(&back)), payload);
        }
    }

    #[test]
    fn decoder_reads_strings_as_the_json_parser_does() {
        for literal in [
            r#""plain""#,
            r#""q\"b\\s\/ \b\f\n\r\t""#,
            r#""\u0000\u001f\u00e9\u2028\uFFFF \ud800""#,
            "\"ünï 日本 🦀\"",
            r#""""#,
        ] {
            let expected: String = serde_json::from_str(literal).expect("valid JSON string");
            let mut r = JsonIn {
                text: literal,
                pos: 0,
            };
            assert_eq!(r.string(), Some(expected), "{literal}");
            assert_eq!(r.pos, literal.len());
        }
        for bad in [r#""open"#, r#""\x""#, r#""\u12""#, "plain"] {
            let mut r = JsonIn { text: bad, pos: 0 };
            assert_eq!(r.string(), None, "{bad}");
        }
    }

    #[test]
    fn every_truncated_payload_is_rejected() {
        let payload = encode_report_payload(9, parts(&adversarial_report()));
        for cut in (0..payload.len()).filter(|&c| payload.is_char_boundary(c)) {
            assert!(
                decode_report_payload(&payload[..cut]).is_none(),
                "cut at {cut}"
            );
        }
        assert!(decode_report_payload(&format!("{payload} ")).is_none());
    }

    #[test]
    fn integers_print_as_display_does() {
        let mut cases: Vec<i128> = vec![
            0,
            1,
            -1,
            9,
            10,
            99,
            100,
            i128::MAX,
            i128::MIN,
            i128::MIN + 1,
        ];
        for p in 0..39 {
            let t = 10i128.pow(p);
            cases.extend([t - 1, t, t + 1, -t, -(t - 1)]);
        }
        cases.extend([
            i128::from(u64::MAX),
            i128::from(u64::MAX) + 1,
            -i128::from(u64::MAX),
        ]);
        for n in cases {
            let mut w = JsonOut(Vec::new());
            w.i128(n);
            assert_eq!(w.0, n.to_string().into_bytes());
        }
    }

    #[test]
    fn report_keys_come_from_the_checked_prefix_only() {
        let payload = "{\"key\":12,\"report\":garbage";
        let line = format!("{:016x} {payload}", fnv1a64(payload.as_bytes()));
        // The key is read without parsing the rest; the replay decode is
        // what rejects the shape.
        assert_eq!(report_line_key(&line), Some(12));
        assert!(decode_report_payload(payload).is_none());
        for bad in [
            "{\"key\":,\"report\":{}}",
            "{\"key\":-1,\"report\":{}}",
            "{\"key\":18446744073709551616,\"report\":{}}",
            "{\"key\":1}",
            "{\"kee\":1,\"report\":{}}",
        ] {
            let line = format!("{:016x} {bad}", fnv1a64(bad.as_bytes()));
            assert_eq!(report_line_key(&line), None, "{bad}");
        }
        let mut flipped = line.into_bytes();
        flipped[20] ^= 1;
        assert_eq!(
            report_line_key(std::str::from_utf8(&flipped).unwrap()),
            None
        );
    }

    #[test]
    fn store_clear_removes_segments() {
        let dir = std::env::temp_dir().join(format!("soap-store-clear-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = SolveStore::open(&dir).unwrap();
        let key = sample_key(false);
        let sol = Ok(sample_solution());
        store.append(&[(&key, &sol)]).unwrap();
        store.append(&[(&key, &sol)]).unwrap();
        assert_eq!(store.segment_files().unwrap().len(), 2);
        let stats = store.stat().unwrap();
        assert_eq!((stats.segments, stats.records, stats.entries), (2, 2, 1));
        assert_eq!(store.clear().unwrap(), 2);
        assert!(store.segment_files().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
