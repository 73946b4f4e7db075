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
//! reads each segment once and checks its record lines on the loading
//! thread, in line order, so the merge, the counts and the notes do not
//! depend on the worker budget (`SOAP_THREADS` / `--threads` governs the
//! analyses, not hydration), and everything a cache retains is allocated
//! there.  Both families share one codec: a direct writer and reader of the
//! payload layout, with no intermediate `Value` tree.  A solve record is
//! digest-checked and decoded at open; a report record is only
//! digest-checked and has its key read from the fixed `{"key":N,` prefix of
//! its payload, and the cache keeps the payload itself, so no report is
//! decoded at open.  A report payload is shape-checked when a replay
//! decodes it: one that does not decode is dropped and answered as a miss,
//! and the cold analysis records a fresh one for the next flush.
//! Only hydration repairs: a segment with corrupt records has its
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
const SEGMENT_EXT: &str = ".soapstore";

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

/// File-name ending of a quarantined segment: its name with
/// `.quarantined` appended.
const QUARANTINED_EXT: &str = ".soapstore.quarantined";

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

    /// The files named `<prefix>…<suffix>`, sorted by name.  For a family's
    /// segments that is load order: names are timestamp-prefixed, so this is
    /// write order up to clock skew, which the last-writer-wins merge
    /// tolerates.
    fn family_files(&self, prefix: &str, suffix: &str) -> io::Result<Vec<PathBuf>> {
        let mut files: Vec<PathBuf> = std::fs::read_dir(&self.dir)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with(prefix) && n.ends_with(suffix))
            })
            .collect();
        files.sort();
        Ok(files)
    }

    /// All solve-record segment files of the store, in load order.
    pub fn segment_files(&self) -> io::Result<Vec<PathBuf>> {
        self.family_files(SOLVE_FAMILY.prefix, SEGMENT_EXT)
    }

    /// All report-record segment files of the store, in load order.
    pub fn report_files(&self) -> io::Result<Vec<PathBuf>> {
        self.family_files(REPORT_FAMILY.prefix, SEGMENT_EXT)
    }

    /// Load every segment of one family and fold the records that `entry`
    /// turns into map entries with the last-writer-wins merge (later records
    /// overwrite earlier ones per key); a line `entry` rejects is skipped.
    /// Both record families share this retry / fault-injection / header-check
    /// discipline; under [`Repair::Salvage`] a segment with corrupt records is
    /// also salvaged and quarantined.  Everything runs on the loading thread,
    /// one segment at a time, so whatever the merged map retains is allocated
    /// there.
    fn load_merged<K: Eq + Hash, V>(
        &self,
        family: &Family,
        entry: impl Fn(&str) -> Option<(K, V)>,
        repair: Repair,
    ) -> io::Result<(HashMap<K, V>, StoreLoadStats)> {
        let mut merged = HashMap::new();
        let mut stats = StoreLoadStats::default();
        for path in self.family_files(family.prefix, SEGMENT_EXT)? {
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
            let mut good_lines: Vec<&str> = Vec::new();
            let mut skipped = 0;
            for line in lines.filter(|line| !line.is_empty()) {
                match entry(line) {
                    Some((key, value)) => {
                        merged.insert(key, value);
                        good_lines.push(line);
                    }
                    None => skipped += 1,
                }
            }
            stats.records += good_lines.len();
            if skipped == 0 {
                continue;
            }
            stats.records_skipped += skipped;
            let mut note = format!(
                "segment {name}: {skipped} corrupt/truncated record(s) skipped (integrity check or parse failure)"
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
            let salvaged = if good_lines.is_empty() {
                Ok(())
            } else {
                self.write_segment(family, good_lines).map(|_| ())
            };
            match salvaged {
                Ok(()) => {
                    let quarantined = path.with_file_name(format!("{name}.quarantined"));
                    match std::fs::rename(&path, quarantined) {
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
        stats.entries = merged.len();
        Ok((merged, stats))
    }

    /// Hydrate every solve record (salvaging and quarantining corrupt
    /// segments), merged last-writer-wins.
    pub(crate) fn load(&self) -> io::Result<(StoredSolutions, StoreLoadStats)> {
        self.load_merged(&SOLVE_FAMILY, decode_record, Repair::Salvage)
    }

    /// Hydrate every report record (salvaging and quarantining segments with
    /// digest failures), merged last-writer-wins.  The payloads are kept as
    /// they are, marked as on disk; none is decoded.
    pub(crate) fn load_reports(&self) -> io::Result<(HashMap<u64, HeldReport>, StoreLoadStats)> {
        self.load_merged(
            &REPORT_FAMILY,
            |line| {
                let key = report_line_key(line)?;
                let held = HeldReport {
                    payload: Box::from(&line[DIGEST_PREFIX..]),
                    on_disk: true,
                };
                Some((key, held))
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
            |line| decode_record(line).map(|(key, _)| (key, ())),
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
            |line| report_line_key(line).map(|key| (key, ())),
            Repair::ReadOnly,
        )
        .map(|(_, stats)| stats)
    }

    /// Solve segments quarantined by earlier loads
    /// (`seg-*.soapstore.quarantined`), in name order — surfaced by
    /// `soap-cli cache stat` and removed by [`SolveStore::clear`].
    pub fn quarantined_files(&self) -> io::Result<Vec<PathBuf>> {
        self.family_files(SOLVE_FAMILY.prefix, QUARANTINED_EXT)
    }

    /// Report segments quarantined by earlier loads
    /// (`rpt-*.soapstore.quarantined`), in name order.
    pub fn report_quarantined_files(&self) -> io::Result<Vec<PathBuf>> {
        self.family_files(REPORT_FAMILY.prefix, QUARANTINED_EXT)
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
            "{}{nanos:020}-{}-{:04}{SEGMENT_EXT}",
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
// One record per line, in both families: `<16-hex fnv1a-64 of payload>
// <payload JSON>`.  Floats that must stay byte-identical across the round
// trip (`chi`, the tile coefficients, `rho_ref`) are stored as raw
// `f64::to_bits` integers, exact `i128` rationals as `[num, den]` pairs, and
// `Expr`s in their serde wire format.  One direct writer (`JsonOut`) prints
// every payload with no `Value` tree — exactly the bytes the JSON stand-in
// prints for the equivalent tree — and one reader (`JsonIn`) reads that layout
// back the same way.
//
// A solve record's payload is
// `{"key":{"n":N,"obj":ROWS,"dom":DOM},"sol":SOL}`, where a row is
// `[[e_1,…,e_n],[num,den]]`, `DOM` is `{"Pure":ROWS}` or
// `{"Max":{"terms":[[exps,[num,den],[atom ids]],…],"atoms":[{"min":bool,
// "branches":[ROWS,…]},…]}}`, and `SOL` is `{"Ok":{"sigma":…,"chi":…,
// "rho":…,"x0":…,"exps":[…],"coeffs":[…]}}` or `{"Err":{"Variant":"msg"}}`.

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

/// The serde variant name and message of an analysis error.
fn error_parts(e: &AnalysisError) -> (&'static str, &str) {
    match e {
        AnalysisError::InvalidStatement(m) => ("InvalidStatement", m),
        AnalysisError::NoInputs(m) => ("NoInputs", m),
        AnalysisError::NumericalFailure(m) => ("NumericalFailure", m),
        AnalysisError::Internal(m) => ("Internal", m),
        // Kept total for codec symmetry, but never reached from `flush_store`:
        // cancelled results carry the transient scope and are filtered out.
        AnalysisError::Cancelled(m) => ("Cancelled", m),
    }
}

/// Encode one solve record line (without the trailing newline).
pub(crate) fn encode_record(
    key: &CanonicalKey,
    sol: &Result<CanonicalSolution, AnalysisError>,
) -> String {
    let mut w = JsonOut(Vec::with_capacity(512));
    w.raw("{\"key\":{\"n\":");
    w.u64(key.n_vars as u64);
    w.raw(",\"obj\":");
    w.rows(&key.objective);
    w.raw(",\"dom\":");
    match &key.dominator {
        CanonicalDominator::Pure(rows) => {
            w.raw("{\"Pure\":");
            w.rows(rows);
        }
        CanonicalDominator::Max { terms, atoms } => {
            w.raw("{\"Max\":{\"terms\":");
            w.seq(terms, |w, (exps, coeff, atom_ids)| {
                w.raw("[");
                w.seq(exps, |w, e| w.i128(i128::from(*e)));
                w.raw(",");
                w.rational_pair(*coeff);
                w.raw(",");
                w.seq(atom_ids, |w, id| w.u64(u64::from(*id)));
                w.raw("]");
            });
            w.raw(",\"atoms\":");
            w.seq(atoms, |w, atom| {
                w.raw(if atom.is_min {
                    "{\"min\":true,\"branches\":"
                } else {
                    "{\"min\":false,\"branches\":"
                });
                w.seq(&atom.branches, |w, rows| w.rows(rows));
                w.raw("}");
            });
            w.raw("}");
        }
    }
    w.raw("}},\"sol\":");
    match sol {
        Ok(s) => {
            w.raw("{\"Ok\":{\"sigma\":");
            w.rational_pair(s.sigma);
            w.raw(",\"chi\":");
            w.u64(s.chi_coeff.to_bits());
            w.raw(",\"rho\":");
            w.expr(&s.rho);
            w.raw(",\"x0\":");
            w.opt_expr(s.x0.as_ref());
            w.raw(",\"exps\":");
            w.seq(&s.tile_exponents, |w, e| w.rational_pair(*e));
            w.raw(",\"coeffs\":");
            w.seq(&s.tile_coeffs, |w, c| w.u64(c.to_bits()));
            w.raw("}}}");
        }
        Err(e) => {
            let (variant, message) = error_parts(e);
            w.raw("{\"Err\":{\"");
            w.raw(variant);
            w.raw("\":");
            w.str(message);
            w.raw("}}}");
        }
    }
    record_line(&w.into_string())
}

/// Decode a solve record line; `None` on a digest or shape failure.  A key
/// whose matrices disagree with its `n`, or that names an atom it does not
/// have, is rejected: no live model can produce it, so it would only poison
/// the cache.
fn decode_record(line: &str) -> Option<StoreEntry> {
    let r = &mut JsonIn::new(checked_json(line)?);
    r.lit("{\"key\":{\"n\":")?;
    let n_vars = usize::try_from(r.u64()?).ok()?;
    r.lit(",\"obj\":")?;
    let objective = r.rows(n_vars)?;
    r.lit(",\"dom\":{\"")?;
    let dominator = if r.lit("Pure\":").is_some() {
        CanonicalDominator::Pure(r.rows(n_vars)?)
    } else {
        r.lit("Max\":{\"terms\":")?;
        let terms = r.list(|r| {
            r.lit("[")?;
            let exps = r.exponents(n_vars)?;
            r.lit(",")?;
            let coeff = r.rational_pair()?;
            r.lit(",")?;
            let atom_ids = r.list(|r| u32::try_from(r.i128()?).ok())?;
            r.lit("]")?;
            Some((exps, coeff, atom_ids))
        })?;
        r.lit(",\"atoms\":")?;
        let atoms = r.list(|r| {
            r.lit("{\"min\":")?;
            let is_min = r.lit("true").is_some();
            if !is_min {
                r.lit("false")?;
            }
            r.lit(",\"branches\":")?;
            let branches = r.list(|r| r.rows(n_vars))?;
            r.lit("}")?;
            Some(CanonicalAtom { is_min, branches })
        })?;
        r.lit("}")?;
        if terms
            .iter()
            .flat_map(|(_, _, ids)| ids)
            .any(|&j| j as usize >= atoms.len())
        {
            return None;
        }
        CanonicalDominator::Max { terms, atoms }
    };
    r.lit("}},\"sol\":{\"")?;
    let sol = if r.lit("Ok\":{\"sigma\":").is_some() {
        let sigma = r.rational_pair()?;
        r.lit(",\"chi\":")?;
        let chi_coeff = r.f64_bits()?;
        r.lit(",\"rho\":")?;
        let rho = r.expr()?;
        r.lit(",\"x0\":")?;
        let x0 = r.opt_expr()?;
        r.lit(",\"exps\":")?;
        let tile_exponents = r.list(JsonIn::rational_pair)?;
        r.lit(",\"coeffs\":")?;
        let tile_coeffs = r.list(JsonIn::f64_bits)?;
        if tile_exponents.len() != tile_coeffs.len() {
            return None;
        }
        Ok(CanonicalSolution {
            sigma,
            chi_coeff,
            rho,
            x0,
            tile_exponents,
            tile_coeffs,
        })
    } else {
        r.lit("Err\":{")?;
        let variant = r.string()?;
        r.lit(":")?;
        let message = r.string()?;
        Err(match variant.as_str() {
            "InvalidStatement" => AnalysisError::InvalidStatement(message),
            "NoInputs" => AnalysisError::NoInputs(message),
            "NumericalFailure" => AnalysisError::NumericalFailure(message),
            "Internal" => AnalysisError::Internal(message),
            "Cancelled" => AnalysisError::Cancelled(message),
            _ => return None,
        })
    };
    r.lit("}}}")?;
    r.end()?;
    let key = CanonicalKey {
        n_vars,
        objective,
        dominator,
    };
    Some((key, sol))
}

// --- report-record codec -----------------------------------------------------
//
// The payload is `{"key": <u64 structural program key>, "report": {...}}`
// with the finished per-array Theorem-1 terms, the evaluated subgraphs, and
// the total bound — everything a warm path needs to resplice a
// `ProgramAnalysis` without touching the SDG pipeline.

/// Encode the payload of a report record straight from the finished
/// analysis' parts.  Its record line — the payload behind its FNV-1a digest
/// — is built only when a flush writes it: the digest is a serial multiply
/// per byte, about as costly as writing the payload, and stays off the
/// request path.
pub(crate) fn encode_report_payload(key: u64, report: ReportParts<'_>) -> String {
    let mut w = JsonOut(Vec::with_capacity(4096));
    w.raw("{\"key\":");
    w.u64(key);
    w.raw(",\"report\":{\"per_array\":");
    w.seq(report.per_array, |w, b| {
        w.raw("{\"array\":");
        w.str(&b.array);
        w.raw(",\"vertices\":");
        w.poly(&b.vertex_count);
        w.raw(",\"rho\":");
        w.expr(&b.rho);
        w.raw(",\"sigma\":");
        w.rational_pair(b.sigma);
        w.raw(",\"best\":");
        w.seq(&b.best_subgraph, |w, s| w.str(s));
        w.raw(",\"bound\":");
        w.expr(&b.bound);
        w.raw("}");
    });
    w.raw(",\"subgraphs\":");
    w.seq(report.subgraphs, |w, s| {
        let r = &s.intensity;
        w.raw("{\"arrays\":");
        w.seq(&s.arrays, |w, s| w.str(s));
        w.raw(",\"intensity\":{\"name\":");
        w.str(&r.name);
        w.raw(",\"sigma\":");
        w.rational_pair(r.sigma);
        w.raw(",\"chi\":");
        w.u64(r.chi_coeff.to_bits());
        w.raw(",\"rho\":");
        w.expr(&r.rho);
        w.raw(",\"x0\":");
        w.opt_expr(r.x0.as_ref());
        w.raw(",\"exps\":");
        w.seq(&r.tile_exponents, |w, (var, e)| {
            w.raw("[");
            w.str(var);
            w.raw(",");
            w.rational_pair(*e);
            w.raw("]");
        });
        w.raw(",\"coeffs\":");
        w.seq(&r.tile_coeffs, |w, (var, c)| {
            w.raw("[");
            w.str(var);
            w.raw(",");
            w.u64(c.to_bits());
            w.raw("]");
        });
        w.raw("},\"rho_ref\":");
        w.u64(s.rho_ref.to_bits());
        w.raw("}");
    });
    w.raw(",\"bound\":");
    w.expr(report.bound);
    w.raw(",\"notes\":");
    w.seq(report.notes, |w, s| w.str(s));
    w.raw("}}");
    w.into_string()
}

/// Decode a report record's payload text; `None` on a parse or shape
/// failure.  The digest is not checked here: a held payload was checked when
/// it was hydrated, or encoded by this process.
pub(crate) fn decode_report_payload(payload: &str) -> Option<ReportEntry> {
    let r = &mut JsonIn::new(payload);
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
        let x0 = r.opt_expr()?;
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
    r.end()?;
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
    let r = &mut JsonIn::new(checked_json(line)?);
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
/// tree: the same bytes the JSON stand-in prints for the equivalent tree.
struct JsonOut(Vec<u8>);

impl JsonOut {
    fn raw(&mut self, s: &str) {
        self.0.extend_from_slice(s.as_bytes());
    }

    /// `items` as a JSON array, each written by `item`.
    fn seq<I: IntoIterator>(&mut self, items: I, mut item: impl FnMut(&mut Self, I::Item)) {
        self.0.push(b'[');
        for (i, x) in items.into_iter().enumerate() {
            if i > 0 {
                self.0.push(b',');
            }
            item(self, x);
        }
        self.0.push(b']');
    }

    fn into_string(self) -> String {
        // lint:allow(unwrap-expect): every byte written is ASCII or comes whole from a `&str`
        String::from_utf8(self.0).expect("record payloads are UTF-8")
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

    /// `s` as a JSON string, escaped exactly as the JSON stand-in escapes it.
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

    /// A rational as the store's `[num, den]` pair.
    fn rational_pair(&mut self, r: Rational) {
        self.raw("[");
        self.i128(r.numer());
        self.raw(",");
        self.i128(r.denom());
        self.raw("]");
    }

    /// Canonical matrix rows, each as `[[e_1,…,e_n],[num,den]]`.
    fn rows(&mut self, rows: &[CanonicalRow]) {
        self.seq(rows, |w, (exps, coeff)| {
            w.raw("[");
            w.seq(exps, |w, e| w.i128(i128::from(*e)));
            w.raw(",");
            w.rational_pair(*coeff);
            w.raw("]");
        });
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
            Expr::Add(items) => ("{\"Add\":", items),
            Expr::Mul(items) => ("{\"Mul\":", items),
            Expr::Max(items) => ("{\"Max\":", items),
            Expr::Min(items) => ("{\"Min\":", items),
        };
        self.raw(tag);
        self.seq(items, |w, item| w.expr(item));
        self.raw("}");
    }

    /// An optional `Expr`: the expression, or `null`.
    fn opt_expr(&mut self, e: Option<&Expr>) {
        match e {
            Some(e) => self.expr(e),
            None => self.raw("null"),
        }
    }

    /// An exact-coefficient polynomial as
    /// `[[ [[var, pow], ...], [num, den] ], ...]`.  `Polynomial`'s terms are
    /// BTreeMap-ordered, so encoding is deterministic and the rebuilt value
    /// renders byte-identically.
    fn poly(&mut self, p: &Polynomial) {
        self.seq(p.terms(), |w, (mono, coeff)| {
            w.raw("[");
            w.seq(&mono.0, |w, (var, pow)| {
                w.raw("[");
                w.str(var);
                w.raw(",");
                w.u64(u64::from(*pow));
                w.raw("]");
            });
            w.raw(",");
            w.rational_pair(*coeff);
            w.raw("]");
        });
    }
}

/// A cursor over a record payload of either family in the layout
/// [`JsonOut`] writes — compact JSON, fields in the writer's order — reading
/// it straight into the record's types with no `Value` tree.  It decodes
/// strings, integers and rationals as the JSON stand-in and the serde
/// `Deserialize` impls do; anything outside that layout fails, and the
/// record is skipped (a solve line at hydration) or answered as a miss (a
/// report payload at replay).
struct JsonIn<'a> {
    text: &'a str,
    pos: usize,
}

impl<'a> JsonIn<'a> {
    fn new(text: &'a str) -> Self {
        JsonIn { text, pos: 0 }
    }

    /// `Some` when the whole input has been read.
    fn end(&self) -> Option<()> {
        (self.pos == self.text.len()).then_some(())
    }

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
        rational(num, den)
    }

    /// A rational in its serde wire format, `{"num":n,"den":d}`.
    fn rational_object(&mut self) -> Option<Rational> {
        self.lit("{\"num\":")?;
        let num = self.i128()?;
        self.lit(",\"den\":")?;
        let den = self.i128()?;
        self.lit("}")?;
        rational(num, den)
    }

    /// One exponent vector of a canonical matrix, which must have `n`
    /// entries.
    fn exponents(&mut self, n: usize) -> Option<Vec<i16>> {
        let exps = self.list(|r| i16::try_from(r.i128()?).ok())?;
        (exps.len() == n).then_some(exps)
    }

    /// Canonical matrix rows (see [`JsonOut::rows`]) over `n` variables.
    fn rows(&mut self, n: usize) -> Option<Vec<CanonicalRow>> {
        self.list(|r| {
            r.lit("[")?;
            let exps = r.exponents(n)?;
            r.lit(",")?;
            let coeff = r.rational_pair()?;
            r.lit("]")?;
            Some((exps, coeff))
        })
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

    /// An optional `Expr` (see [`JsonOut::opt_expr`]).
    fn opt_expr(&mut self) -> Option<Option<Expr>> {
        if self.lit("null").is_some() {
            Some(None)
        } else {
            self.expr().map(Some)
        }
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

/// `num/den` in lowest terms.  `None` for a zero denominator, and for
/// `i128::MIN` in either place, which `Rational::new` cannot normalize
/// without overflow: a hand-edited line must be skipped, not panic the
/// loading thread.
fn rational(num: i128, den: i128) -> Option<Rational> {
    (den != 0 && num != i128::MIN && den != i128::MIN).then(|| Rational::new(num, den))
}

#[cfg(test)]
#[path = "../tests/common/report_oracle.rs"]
mod report_oracle;

#[cfg(test)]
#[path = "../tests/common/solve_oracle.rs"]
mod solve_oracle;

#[cfg(test)]
#[path = "../tests/common/random_programs.rs"]
mod random_programs;

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

    /// A solve outcome as bit-exact text: floats as raw bits, `Expr`s as
    /// their variant trees.
    fn solution_text(sol: &Result<CanonicalSolution, AnalysisError>) -> String {
        match sol {
            Ok(s) => format!(
                "sigma={:?} chi={:016x} rho={:?} x0={:?} exps={:?} coeffs={:x?}",
                s.sigma,
                s.chi_coeff.to_bits(),
                s.rho,
                s.x0,
                s.tile_exponents,
                s.tile_coeffs
                    .iter()
                    .map(|c| c.to_bits())
                    .collect::<Vec<_>>()
            ),
            Err(e) => format!("{e:?}"),
        }
    }

    /// The direct writer prints the oracle's line for `(key, sol)`, and the
    /// direct reader gets back from it exactly what the oracle's reader does.
    fn assert_codec_matches_oracle(
        key: &CanonicalKey,
        sol: &Result<CanonicalSolution, AnalysisError>,
    ) {
        let line = encode_record(key, sol);
        assert_eq!(line, solve_oracle::encode_record(key, sol));
        let (oracle_key, oracle_sol) = solve_oracle::decode_record(&line).expect("oracle decodes");
        let (back_key, back_sol) = decode_record(&line).expect("decodes");
        assert_eq!(back_key, oracle_key);
        assert_eq!(back_key, *key);
        assert_eq!(solution_text(&back_sol), solution_text(&oracle_sol));
        assert_eq!(solution_text(&back_sol), solution_text(sol));
    }

    /// The record lines of every solve segment under `dir`.
    fn solve_lines(dir: &Path) -> Vec<String> {
        let store = SolveStore::open_existing(dir).unwrap();
        let mut lines = Vec::new();
        for path in store.segment_files().unwrap() {
            let text = std::fs::read_to_string(path).unwrap();
            lines.extend(text.lines().skip(1).map(str::to_string));
        }
        lines
    }

    #[test]
    fn solve_records_of_the_registry_and_random_programs_match_the_oracle() {
        let dir = std::env::temp_dir().join(format!("soap-store-oracle-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        {
            let cache = crate::SolveCache::with_store(&dir).unwrap();
            let registry = soap_kernels::registry().into_iter().map(|entry| {
                let opts = crate::SdgOptions {
                    assume_injective: entry.assume_injective,
                    ..crate::SdgOptions::default()
                };
                (entry.program, opts)
            });
            let random = random_programs::seeded_random_programs()
                .into_iter()
                .map(|program| (program, crate::SdgOptions::default()));
            for (program, opts) in registry.chain(random) {
                let _ = crate::analyze_program(&program, &opts, &cache, None);
            }
            cache.flush_store().unwrap();
        }
        let lines = solve_lines(&dir);
        // The registry alone persists 163 structures; the random programs
        // add more.
        assert!(lines.len() > 163, "only {} solve records", lines.len());
        let mut max_form = 0;
        for line in &lines {
            let (key, sol) = solve_oracle::decode_record(line).expect("oracle decodes");
            assert_eq!(&solve_oracle::encode_record(&key, &sol), line);
            assert_codec_matches_oracle(&key, &sol);
            max_form += usize::from(key.is_max_form());
        }
        assert!(max_form > 0, "no max-form key among the records");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A key with every shape the writer prints: extreme exponents and
    /// rationals in the objective, a max-form dominator with `min` and `max`
    /// atoms, a term naming no atom and a term naming two.
    fn extreme_key() -> CanonicalKey {
        let extremes = [
            Rational::new(i128::MAX, 1),
            Rational::new(i128::MIN + 1, 1),
            Rational::new(1, i128::MAX),
            Rational::new(i128::MIN + 1, i128::MAX),
            Rational::new(-7, 3),
        ];
        let objective = extremes
            .iter()
            .enumerate()
            .map(|(i, &c)| (vec![i16::MIN, i16::MAX, i as i16 - 2], c))
            .collect();
        let row = |e: i16, c: Rational| vec![(vec![e, 1, 0], c)];
        CanonicalKey {
            n_vars: 3,
            objective,
            dominator: CanonicalDominator::Max {
                terms: vec![
                    (vec![0, 0, 0], extremes[0], vec![]),
                    (vec![i16::MIN, 1, i16::MAX], extremes[3], vec![0, 1]),
                ],
                atoms: vec![
                    CanonicalAtom {
                        is_min: true,
                        branches: vec![row(1, extremes[1]), row(i16::MAX, extremes[2])],
                    },
                    CanonicalAtom {
                        is_min: false,
                        branches: vec![row(i16::MIN, extremes[4]), vec![]],
                    },
                ],
            },
        }
    }

    #[test]
    fn solve_codec_matches_the_oracle_on_adversarial_records() {
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
        let controls: String = (0u8..0x20).map(char::from).chain(['\u{7f}']).collect();
        let nasty = format!("q\"uote\\back/slash {controls} ünï 日本 🦀 \u{2028}");
        let nasty_expr = Expr::Add(vec![
            Expr::Num(Rational::new(i128::MAX, 3)),
            Expr::Mul(vec![Expr::sym(&nasty), Expr::int(-3)]),
            Expr::Pow(Box::new(Expr::sym("S")), Rational::new(-7, 9)),
            Expr::Max(vec![
                Expr::sym("a"),
                Expr::Min(vec![Expr::sym("b"), Expr::int(2)]),
            ]),
        ]);
        let keys = [sample_key(false), sample_key(true), extreme_key()];
        let mut solutions = Vec::new();
        for (i, &x) in floats.iter().enumerate() {
            let mut s = sample_solution();
            s.chi_coeff = x;
            s.tile_coeffs = vec![x, -x, floats[(i + 1) % floats.len()]];
            s.tile_exponents = vec![
                Rational::new(i128::MAX, 1),
                Rational::new(i128::MIN + 1, i128::MAX),
                Rational::new(-1, 2),
            ];
            s.sigma = [Rational::new(i128::MAX, 2), Rational::new(i128::MIN + 1, 7)][i % 2];
            s.rho = nasty_expr.clone();
            s.x0 = (i % 2 == 0).then(|| nasty_expr.clone());
            solutions.push(Ok(s));
        }
        let mut empty = sample_solution();
        empty.tile_exponents.clear();
        empty.tile_coeffs.clear();
        solutions.push(Ok(empty));
        for message in [nasty.clone(), String::new(), controls.clone()] {
            solutions.extend([
                Err(AnalysisError::InvalidStatement(message.clone())),
                Err(AnalysisError::NoInputs(message.clone())),
                Err(AnalysisError::NumericalFailure(message.clone())),
                Err(AnalysisError::Internal(message.clone())),
                Err(AnalysisError::Cancelled(message)),
            ]);
        }
        for key in &keys {
            for sol in &solutions {
                assert_codec_matches_oracle(key, sol);
            }
        }
    }

    #[test]
    fn solve_reader_rejects_truncations_and_bad_shapes() {
        let line = encode_record(&extreme_key(), &Ok(sample_solution()));
        let payload = &line[DIGEST_PREFIX..];
        // Every truncated payload fails the parse even behind a valid digest.
        for cut in (0..payload.len()).filter(|&c| payload.is_char_boundary(c)) {
            assert!(
                decode_record(&record_line(&payload[..cut])).is_none(),
                "cut at {cut}"
            );
        }
        assert!(decode_record(&record_line(&format!("{payload} "))).is_none());
        let err_line = encode_record(
            &sample_key(false),
            &Err(AnalysisError::NoInputs("no \"inputs\"".into())),
        );
        let err_payload = &err_line[DIGEST_PREFIX..];
        for cut in (0..err_payload.len()).filter(|&c| err_payload.is_char_boundary(c)) {
            assert!(
                decode_record(&record_line(&err_payload[..cut])).is_none(),
                "cut at {cut}"
            );
        }
        let sol = r#""sol":{"Err":{"NoInputs":"x"}}}"#;
        let shaped = |key: &str| record_line(&format!("{{\"key\":{key},{sol}"));
        // The well-formed baseline decodes with both codecs.
        let good = shaped(
            r#"{"n":2,"obj":[[[1,1],[1,1]]],"dom":{"Max":{"terms":[[[0,1],[1,1],[0]]],"atoms":[{"min":false,"branches":[[[[1,0],[1,1]]]]}]}}}"#,
        );
        assert!(decode_record(&good).is_some());
        assert!(solve_oracle::decode_record(&good).is_some());
        for bad in [
            // An objective row, a dominator row, a term, an atom branch row
            // whose length is not `n`.
            r#"{"n":3,"obj":[[[1,1],[1,1]]],"dom":{"Pure":[[[1,1,1],[1,1]]]}}"#,
            r#"{"n":2,"obj":[[[1,1],[1,1]]],"dom":{"Pure":[[[1],[1,1]]]}}"#,
            r#"{"n":2,"obj":[[[1,1],[1,1]]],"dom":{"Max":{"terms":[[[0],[1,1],[0]]],"atoms":[{"min":false,"branches":[[[[1,0],[1,1]]]]}]}}}"#,
            r#"{"n":2,"obj":[[[1,1],[1,1]]],"dom":{"Max":{"terms":[[[0,1],[1,1],[0]]],"atoms":[{"min":false,"branches":[[[[1,0,0],[1,1]]]]}]}}}"#,
            // A term naming an atom that does not exist.
            r#"{"n":2,"obj":[[[1,1],[1,1]]],"dom":{"Max":{"terms":[[[0,1],[1,1],[1]]],"atoms":[{"min":false,"branches":[[[[1,0],[1,1]]]]}]}}}"#,
            // An exponent outside `i16`, a zero denominator, and `i128::MIN`,
            // which `Rational::new` cannot normalize.
            r#"{"n":1,"obj":[[[32768],[1,1]]],"dom":{"Pure":[[[1],[1,1]]]}}"#,
            r#"{"n":1,"obj":[[[1],[1,0]]],"dom":{"Pure":[[[1],[1,1]]]}}"#,
            r#"{"n":1,"obj":[[[1],[-170141183460469231731687303715884105728,1]]],"dom":{"Pure":[[[1],[1,1]]]}}"#,
        ] {
            assert!(decode_record(&shaped(bad)).is_none(), "{bad}");
        }
        // An unknown error variant, and tile vectors of different lengths.
        let key = r#"{"key":{"n":1,"obj":[[[1],[1,1]]],"dom":{"Pure":[[[1],[1,1]]]}},"sol":"#;
        for bad_sol in [
            r#"{"Err":{"Timeout":"x"}}}"#,
            r#"{"Ok":{"sigma":[1,1],"chi":0,"rho":{"Sym":"S"},"x0":null,"exps":[[1,1]],"coeffs":[]}}}"#,
        ] {
            let line = record_line(&format!("{key}{bad_sol}"));
            assert!(decode_record(&line).is_none(), "{bad_sol}");
            assert!(solve_oracle::decode_record(&line).is_none(), "{bad_sol}");
        }
    }

    /// Solve records written by an earlier build of the store: `Pure` and
    /// `Max` keys with `x0` present and absent, and a `NoInputs` failure.
    const EARLIER_SEGMENT: &str = include_str!("../tests/fixtures/parent-solve-segment.soapstore");

    #[test]
    fn solve_records_of_an_earlier_build_hydrate_and_re_encode_identically() {
        let dir = std::env::temp_dir().join(format!("soap-store-earlier-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(
            dir.join("seg-00000000000000000000-0-0000.soapstore"),
            EARLIER_SEGMENT,
        )
        .unwrap();
        let (entries, stats) = SolveStore::open(&dir).unwrap().load().unwrap();
        let lines: Vec<&str> = EARLIER_SEGMENT.lines().skip(1).collect();
        assert_eq!(
            (
                stats.segments,
                stats.segments_rejected,
                stats.records,
                stats.records_skipped
            ),
            (1, 0, lines.len(), 0)
        );
        assert_eq!(entries.len(), lines.len());
        let (mut pure, mut max, mut err, mut x0, mut no_x0) = (0, 0, 0, 0, 0);
        for line in lines {
            let (key, sol) = decode_record(line).expect("decodes");
            assert_eq!(encode_record(&key, &sol), line);
            assert_eq!(solution_text(&entries[&key]), solution_text(&sol));
            if key.is_max_form() {
                max += 1;
            } else {
                pure += 1;
            }
            match &sol {
                Ok(s) if s.x0.is_some() => x0 += 1,
                Ok(_) => no_x0 += 1,
                Err(_) => err += 1,
            }
        }
        assert!(pure > 0 && max > 0 && err > 0 && x0 > 0 && no_x0 > 0);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
