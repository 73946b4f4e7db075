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
//! enumeration, merge, instantiation *and* solving.

use crate::analysis::{ArrayBound, SubgraphIntensity};
use crate::cache::{
    CanonicalAtom, CanonicalDominator, CanonicalKey, CanonicalRow, CanonicalSolution,
};
use serde::{DeError, Deserialize, Serialize, Value};
use soap_core::{AnalysisError, IntensityResult};
use soap_symbolic::{Expr, Polynomial, Rational};
use std::collections::HashMap;
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

/// Suffix appended to a segment's file name when it is quarantined.
const QUARANTINE_SUFFIX: &str = ".quarantined";

/// Store I/O attempts per operation (1 initial + bounded retries).  Transient
/// failures — a reader racing a writer's rename, NFS hiccups, injected test
/// faults — heal within the budget; persistent ones surface after it.
const STORE_IO_ATTEMPTS: u32 = 3;

/// Run `op` up to [`STORE_IO_ATTEMPTS`] times with a tiny linear backoff
/// between attempts.  `injected(attempt)` short-circuits the attempt with a
/// synthetic transient error when the active fault plan says so, keeping the
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

/// The persisted portion of a finished, non-degraded
/// [`ProgramAnalysis`](crate::ProgramAnalysis): everything that is a pure
/// function of the structural program key.  The program *name*, phase
/// timings, and solver accounting measure the run (and are respliced by the
/// warm path); `degraded` is always `false` by construction — degraded
/// reports are never recorded.
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
    /// instead of re-parsed and re-warned on every later hydration.
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
}

/// Process-wide sequence number making segment names unique even when two
/// flushes — possibly from *different* `SolveStore` instances over the same
/// directory — land in the same `SystemTime` tick.  A per-instance counter
/// would let two instances compute the identical segment name and the later
/// rename silently replace the earlier segment.
static SEGMENT_SEQ: AtomicU64 = AtomicU64::new(0);

impl SolveStore {
    /// Open (creating if necessary) a store directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<SolveStore> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(SolveStore { dir })
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
        Ok(SolveStore { dir })
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

    /// Load every segment of one family, decoding records with `decode` and
    /// applying the retry / fault-injection / header-check / salvage +
    /// quarantine discipline shared by both record families.  Decoded records
    /// are returned in segment order (the caller merges last-writer-wins);
    /// `stats.entries` is left for the caller to fill after its merge.
    fn load_family<T>(
        &self,
        family: &Family,
        decode: impl Fn(&str) -> Option<T>,
    ) -> io::Result<(Vec<T>, StoreLoadStats)> {
        let plan = crate::faults::active_plan();
        let mut stats = StoreLoadStats::default();
        let mut decoded: Vec<T> = Vec::new();
        for path in self.family_files(family.prefix)? {
            let name = path
                .file_name()
                .map(|n| n.to_string_lossy().into_owned())
                .unwrap_or_default();
            let injected = |attempt: u32| {
                plan.as_deref()
                    .is_some_and(|p| p.store_read_fails(&name, attempt))
            };
            let text = match retry_io(&name, injected, || std::fs::read_to_string(&path)) {
                Ok(t) => t,
                Err(e) => {
                    stats.segments_rejected += 1;
                    stats.notes.push(format!("segment {name}: unreadable: {e}"));
                    continue;
                }
            };
            let text = match plan.as_deref() {
                Some(p) if p.corrupts_segment(&name) => corrupt_first_record(&text),
                _ => text,
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
            let mut skipped_here = 0usize;
            let mut good_lines: Vec<String> = Vec::new();
            for line in lines {
                if line.is_empty() {
                    continue;
                }
                match decode(line) {
                    Some(record) => {
                        stats.records += 1;
                        decoded.push(record);
                        good_lines.push(line.to_string());
                    }
                    None => skipped_here += 1,
                }
            }
            if skipped_here > 0 {
                stats.records_skipped += skipped_here;
                let mut note = format!(
                    "segment {name}: {skipped_here} corrupt/truncated record(s) skipped (integrity check or parse failure)"
                );
                // Salvage the surviving records into a fresh segment, then
                // quarantine the corrupt file — rename it out of the segment
                // namespace so the corruption is diagnosed once (and surfaced
                // by `cache stat`) instead of re-warned forever.  Quarantine
                // only happens once the good records are durable again (or
                // there were none), so it never costs store entries; a failed
                // salvage or rename is only noted — both are hygiene, not a
                // load precondition.
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
                    Err(e) => {
                        note.push_str(&format!("; salvage failed ({e}); segment left in place"))
                    }
                }
                stats.notes.push(note);
            }
        }
        Ok((decoded, stats))
    }

    /// Load every solve segment, folding records with the last-writer-wins
    /// merge.
    pub(crate) fn load(&self) -> io::Result<(Vec<StoreEntry>, StoreLoadStats)> {
        let (records, mut stats) = self.load_family(&SOLVE_FAMILY, decode_record)?;
        let mut merged: HashMap<CanonicalKey, Result<CanonicalSolution, AnalysisError>> =
            HashMap::new();
        for (key, sol) in records {
            merged.insert(key, sol);
        }
        stats.entries = merged.len();
        Ok((merged.into_iter().collect(), stats))
    }

    /// Load every report segment, folding records with the last-writer-wins
    /// merge.
    pub(crate) fn load_reports(&self) -> io::Result<(Vec<ReportEntry>, StoreLoadStats)> {
        let (records, mut stats) = self.load_family(&REPORT_FAMILY, decode_report_record)?;
        let mut merged: HashMap<u64, StoredReport> = HashMap::new();
        for (key, report) in records {
            merged.insert(key, report);
        }
        stats.entries = merged.len();
        Ok((merged.into_iter().collect(), stats))
    }

    /// Load-time accounting of the solve records without keeping the entries
    /// (for `cache stat`).
    pub fn stat(&self) -> io::Result<StoreLoadStats> {
        self.load().map(|(_, stats)| stats)
    }

    /// Load-time accounting of the report records without keeping the
    /// entries (for `cache stat`).
    pub fn report_stat(&self) -> io::Result<StoreLoadStats> {
        self.load_reports().map(|(_, stats)| stats)
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
        self.write_segment(&SOLVE_FAMILY, lines)
    }

    /// Persist finished-report records as one new `rpt-` segment file.
    /// Returns the segment path.  Same staging + rename discipline as solve
    /// segments.
    pub(crate) fn append_reports(&self, entries: &[(u64, &StoredReport)]) -> io::Result<PathBuf> {
        let lines: Vec<String> = entries
            .iter()
            .map(|(key, report)| encode_report_record(*key, report))
            .collect();
        self.write_segment(&REPORT_FAMILY, lines)
    }

    /// Write already-encoded record lines as one new uniquely named segment
    /// of the given family (the shared tail of [`SolveStore::append`],
    /// [`SolveStore::append_reports`], and load-time salvage).
    fn write_segment(&self, family: &Family, mut lines: Vec<String>) -> io::Result<PathBuf> {
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
        for line in &lines {
            text.push_str(line);
            text.push('\n');
        }
        let plan = crate::faults::active_plan();
        let injected = |attempt: u32| {
            plan.as_deref()
                .is_some_and(|p| p.store_write_fails(&name, attempt))
        };
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
    format!("{:016x} {json}", fnv1a64(json.as_bytes()))
}

/// Decode one record line; `None` on any integrity or shape failure.
pub(crate) fn decode_record(line: &str) -> Option<StoreEntry> {
    let (digest, json) = line.split_once(' ')?;
    let expected = u64::from_str_radix(digest, 16).ok()?;
    if digest.len() != 16 || fnv1a64(json.as_bytes()) != expected {
        return None;
    }
    let payload: Value = serde_json::from_str(json).ok()?;
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
// without touching the SDG pipeline.

/// Encode a report-record line (without the trailing newline).
pub(crate) fn encode_report_record(key: u64, report: &StoredReport) -> String {
    let payload = Value::Object(vec![
        ("key".to_string(), Value::Int(i128::from(key))),
        ("report".to_string(), report_to_value(report)),
    ]);
    // lint:allow(unwrap-expect): record payloads are plain maps of strings and numbers; serialization cannot fail
    let json = serde_json::to_string(&payload).expect("report record serializes");
    format!("{:016x} {json}", fnv1a64(json.as_bytes()))
}

/// Decode one report-record line; `None` on any integrity or shape failure.
pub(crate) fn decode_report_record(line: &str) -> Option<ReportEntry> {
    let (digest, json) = line.split_once(' ')?;
    let expected = u64::from_str_radix(digest, 16).ok()?;
    if digest.len() != 16 || fnv1a64(json.as_bytes()) != expected {
        return None;
    }
    let payload: Value = serde_json::from_str(json).ok()?;
    let key = payload
        .get("key")?
        .as_i128()
        .and_then(|n| u64::try_from(n).ok())?;
    let report = report_from_value(payload.get("report")?).ok()?;
    Some((key, report))
}

/// An exact-coefficient polynomial as `[[ [[var, pow], ...], [num, den] ], ...]`.
/// `Polynomial`'s terms are BTreeMap-ordered, so encoding is deterministic and
/// the rebuilt value renders byte-identically.
fn poly_to_value(p: &Polynomial) -> Value {
    Value::Array(
        p.terms()
            .map(|(mono, coeff)| {
                let vars = Value::Array(
                    mono.0
                        .iter()
                        .map(|(v, e)| {
                            Value::Array(vec![Value::Str(v.clone()), Value::Int(i128::from(*e))])
                        })
                        .collect(),
                );
                Value::Array(vec![vars, rational_to_value(*coeff)])
            })
            .collect(),
    )
}

fn poly_from_value(v: &Value) -> Result<Polynomial, DeError> {
    let mut acc = Polynomial::zero();
    for term in v
        .as_array()
        .ok_or_else(|| DeError::msg("poly: expected array of terms"))?
    {
        let [vars, coeff] = term
            .as_array()
            .and_then(|a| <&[Value; 2]>::try_from(a).ok())
            .ok_or_else(|| DeError::msg("poly: term shape"))?;
        let mut mono = Polynomial::constant(rational_from_value(coeff)?);
        for pair in vars
            .as_array()
            .ok_or_else(|| DeError::msg("poly: vars not an array"))?
        {
            let [name, pow] = pair
                .as_array()
                .and_then(|a| <&[Value; 2]>::try_from(a).ok())
                .ok_or_else(|| DeError::msg("poly: var shape"))?;
            let name = String::from_value(name)?;
            let pow = pow
                .as_i128()
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| DeError::msg("poly: bad exponent"))?;
            mono = mono.mul(&Polynomial::var(&name).pow(pow));
        }
        acc = acc.add(&mono);
    }
    Ok(acc)
}

fn intensity_to_value(r: &IntensityResult) -> Value {
    Value::Object(vec![
        ("name".to_string(), Value::Str(r.name.clone())),
        ("sigma".to_string(), rational_to_value(r.sigma)),
        ("chi".to_string(), f64_to_value(r.chi_coeff)),
        ("rho".to_string(), r.rho.to_value()),
        ("x0".to_string(), r.x0.to_value()),
        (
            "exps".to_string(),
            Value::Array(
                r.tile_exponents
                    .iter()
                    .map(|(v, e)| Value::Array(vec![Value::Str(v.clone()), rational_to_value(*e)]))
                    .collect(),
            ),
        ),
        (
            "coeffs".to_string(),
            Value::Array(
                r.tile_coeffs
                    .iter()
                    .map(|(v, c)| Value::Array(vec![Value::Str(v.clone()), f64_to_value(*c)]))
                    .collect(),
            ),
        ),
    ])
}

fn intensity_from_value(v: &Value) -> Result<IntensityResult, DeError> {
    let field = |name: &str| {
        v.get(name)
            .ok_or_else(|| DeError::msg(format!("intensity: missing '{name}'")))
    };
    let tile_exponents = field("exps")?
        .as_array()
        .ok_or_else(|| DeError::msg("intensity: 'exps' not an array"))?
        .iter()
        .map(|pair| {
            let [name, e] = pair
                .as_array()
                .and_then(|a| <&[Value; 2]>::try_from(a).ok())
                .ok_or_else(|| DeError::msg("intensity: exps pair shape"))?;
            Ok((String::from_value(name)?, rational_from_value(e)?))
        })
        .collect::<Result<Vec<_>, DeError>>()?;
    let tile_coeffs = field("coeffs")?
        .as_array()
        .ok_or_else(|| DeError::msg("intensity: 'coeffs' not an array"))?
        .iter()
        .map(|pair| {
            let [name, c] = pair
                .as_array()
                .and_then(|a| <&[Value; 2]>::try_from(a).ok())
                .ok_or_else(|| DeError::msg("intensity: coeffs pair shape"))?;
            Ok((String::from_value(name)?, f64_from_value(c)?))
        })
        .collect::<Result<Vec<_>, DeError>>()?;
    Ok(IntensityResult {
        name: String::from_value(field("name")?)?,
        sigma: rational_from_value(field("sigma")?)?,
        chi_coeff: f64_from_value(field("chi")?)?,
        rho: Expr::from_value(field("rho")?)?,
        x0: Option::<Expr>::from_value(field("x0")?)?,
        tile_exponents,
        tile_coeffs,
    })
}

fn array_bound_to_value(b: &ArrayBound) -> Value {
    Value::Object(vec![
        ("array".to_string(), Value::Str(b.array.clone())),
        ("vertices".to_string(), poly_to_value(&b.vertex_count)),
        ("rho".to_string(), b.rho.to_value()),
        ("sigma".to_string(), rational_to_value(b.sigma)),
        ("best".to_string(), b.best_subgraph.to_value()),
        ("bound".to_string(), b.bound.to_value()),
    ])
}

fn array_bound_from_value(v: &Value) -> Result<ArrayBound, DeError> {
    let field = |name: &str| {
        v.get(name)
            .ok_or_else(|| DeError::msg(format!("array bound: missing '{name}'")))
    };
    Ok(ArrayBound {
        array: String::from_value(field("array")?)?,
        vertex_count: poly_from_value(field("vertices")?)?,
        rho: Expr::from_value(field("rho")?)?,
        sigma: rational_from_value(field("sigma")?)?,
        best_subgraph: Vec::<String>::from_value(field("best")?)?,
        bound: Expr::from_value(field("bound")?)?,
    })
}

fn subgraph_to_value(s: &SubgraphIntensity) -> Value {
    Value::Object(vec![
        ("arrays".to_string(), s.arrays.to_value()),
        ("intensity".to_string(), intensity_to_value(&s.intensity)),
        ("rho_ref".to_string(), f64_to_value(s.rho_ref)),
    ])
}

fn subgraph_from_value(v: &Value) -> Result<SubgraphIntensity, DeError> {
    let field = |name: &str| {
        v.get(name)
            .ok_or_else(|| DeError::msg(format!("subgraph: missing '{name}'")))
    };
    Ok(SubgraphIntensity {
        arrays: Vec::<String>::from_value(field("arrays")?)?,
        intensity: intensity_from_value(field("intensity")?)?,
        rho_ref: f64_from_value(field("rho_ref")?)?,
    })
}

fn report_to_value(r: &StoredReport) -> Value {
    Value::Object(vec![
        (
            "per_array".to_string(),
            Value::Array(r.per_array.iter().map(array_bound_to_value).collect()),
        ),
        (
            "subgraphs".to_string(),
            Value::Array(r.subgraphs.iter().map(subgraph_to_value).collect()),
        ),
        ("bound".to_string(), r.bound.to_value()),
        ("notes".to_string(), r.notes.to_value()),
    ])
}

fn report_from_value(v: &Value) -> Result<StoredReport, DeError> {
    let field = |name: &str| {
        v.get(name)
            .ok_or_else(|| DeError::msg(format!("report: missing '{name}'")))
    };
    let per_array = field("per_array")?
        .as_array()
        .ok_or_else(|| DeError::msg("report: 'per_array' not an array"))?
        .iter()
        .map(array_bound_from_value)
        .collect::<Result<Vec<_>, DeError>>()?;
    let subgraphs = field("subgraphs")?
        .as_array()
        .ok_or_else(|| DeError::msg("report: 'subgraphs' not an array"))?
        .iter()
        .map(subgraph_from_value)
        .collect::<Result<Vec<_>, DeError>>()?;
    Ok(StoredReport {
        per_array,
        subgraphs,
        bound: Expr::from_value(field("bound")?)?,
        notes: Vec::<String>::from_value(field("notes")?)?,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::canonicalize;
    use soap_core::AccessModel;

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
        let line = encode_report_record(0xdead_beef_cafe_f00d, &report);
        let (key, back) = decode_report_record(&line).expect("decodes");
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
            assert!(decode_report_record(&line[..cut]).is_none(), "cut at {cut}");
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
        store.append_reports(&[(7, &report)]).unwrap();
        // Family listings never bleed into each other.
        assert_eq!(store.segment_files().unwrap().len(), 1);
        assert_eq!(store.report_files().unwrap().len(), 1);
        let solve_stats = store.stat().unwrap();
        assert_eq!((solve_stats.segments, solve_stats.entries), (1, 1));
        let report_stats = store.report_stat().unwrap();
        assert_eq!((report_stats.segments, report_stats.entries), (1, 1));
        let (entries, _) = store.load_reports().unwrap();
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].0, 7);
        // clear() removes both families.
        assert_eq!(store.clear().unwrap(), 2);
        assert!(store.report_files().unwrap().is_empty());
        let _ = std::fs::remove_dir_all(&dir);
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
