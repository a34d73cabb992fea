// A write-ahead, checksummed journal of plan execution.
//
// A killed or crashed process forfeits every verdict it computed unless the
// verdicts were durable before the crash.  Journal makes them durable: the
// plan runner (ResilientRunner) appends one record per completed block —
// the full BlockResult plus the block's content digest and a *problem
// fingerprint* — and `resumePlan` replays those records on
// restart, skipping blocks whose recorded verdict is admissible under the
// exact predicate the incremental cache already enforces
// (`isResumableVerdict`: clean, full-strength passes only; inconclusive,
// faulted and degraded rows re-run, never trusted from disk).
//
// On-disk layout (two files derived from one base path):
//   <base>.hdr  — one JSON object {"format","version","plan"}, committed by
//                 write-tmp + fsync + atomic rename (fault site
//                 journal.commit); any version but 3 is a bad header, so
//                 an older journal cold-starts.  The rename is the
//                 "journal live" barrier: a crash before it leaves the
//                 previous header (or none) and an empty WAL — a cold
//                 start, never a lie.
//   <base>.wal  — append-only frames, one per record:
//                     <len> <crc32:8 hex> <payload>\n
//                 where len is the payload's byte length and the CRC is
//                 over the payload bytes only.  Appends write the whole
//                 frame then fsync (fault sites journal.append,
//                 journal.fsync); a frame is valid only when complete and
//                 checksum-clean.  The payload is
//                     {"digest","fingerprint","has_drc","result"}
//                 where "result" is the block's encodeBlockResult object
//                 (core/plan.h) — the same object the plan report writes,
//                 counters included as one generic "counters" map.
//
// Corruption is a first-class input, not an error path.  `load` classifies:
//   * torn tail — the file ends mid-frame (crash during append): the tail
//     is dropped, every earlier record stands;
//   * bad record — a complete frame fails its CRC, is not strict JSON, or
//     is not record-shaped: that record AND every frame after it are
//     dropped (nothing after unverifiable bytes is trusted);
//   * bad/missing header — the journal as a whole is disregarded.
// In every mode the failure direction is the safe one: blocks re-run.  A
// wrong or stale verdict can never surface, because admission additionally
// requires the record's digest AND fingerprint to match the live plan — a
// record from an edited design or a reconfigured runner cold-starts from
// that point (see ResilientRunner::resumePlan).
//
// Appends are mutex-serialized: a ParallelExecutor run's threads complete
// blocks concurrently and append from their own threads (raced under TSan
// via the `journal` ctest label).  Record identity is the block name, so
// WAL order is completion order and resume is order-independent per block.
#pragma once

#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/resilient.h"

namespace dfv::core {

/// One journaled block completion.
struct JournalRecord {
  std::uint64_t digest = 0;       ///< the block's content digest at run time
  std::uint64_t fingerprint = 0;  ///< problem fingerprint (see below)
  /// A block that ran DRC (including one the gate blocked) is never
  /// resumable: its diagnostics are written but never decoded, because DRC
  /// is re-evaluated live, not replayed from disk.
  bool hasDrc = false;
  BlockResult result;  ///< result.block names the block
};

/// What `Journal::load` found on disk.
enum class JournalDamage {
  kNone,       ///< header and every frame verified
  kMissing,    ///< no header file: no journal to resume from
  kBadHeader,  ///< header unreadable/malformed: journal disregarded
  kTornTail,   ///< WAL ends mid-frame; the torn tail was dropped
  kBadRecord,  ///< a complete frame failed CRC/JSON; it and all after dropped
};

const char* journalDamageName(JournalDamage d);

struct JournalLoaded {
  std::string planName;  ///< from the header (empty when damaged/missing)
  std::vector<JournalRecord> records;  ///< verified records, in WAL order
  JournalDamage damage = JournalDamage::kNone;
  std::size_t droppedBytes = 0;  ///< WAL bytes after the last good frame
  std::string note;              ///< human-readable damage description
};

/// The write side.  Constructing commits a fresh journal (truncates the WAL,
/// then atomically commits the header); `append` adds one fsync'd frame.
class Journal {
 public:
  /// Throws CheckError on I/O failure (including an injected
  /// journal.commit fault) — callers that must survive journal loss catch
  /// and run unjournaled.
  Journal(std::string basePath, const std::string& planName);
  ~Journal();
  Journal(const Journal&) = delete;
  Journal& operator=(const Journal&) = delete;

  /// Appends one record.  Thread-safe.  Throws CheckError on write/fsync
  /// failure (the frame is then absent or torn, never half-trusted).  After
  /// a torn write the journal is failed() and every later append is a
  /// silent no-op — the model is a crash, and a WAL with a torn frame
  /// mid-file must not grow past it.
  void append(const JournalRecord& rec);

  bool failed() const;
  std::uint64_t appended() const;  ///< clean frames appended so far
  const std::string& basePath() const { return base_; }

  /// Reads and verifies the journal at `basePath`.  Never throws for
  /// on-disk damage — damage is classified in the result.
  static JournalLoaded load(const std::string& basePath);

  /// Record payload codec, exposed for the corruption fuzz tests.
  /// decodeRecord throws CheckError on any shape violation.
  static std::string encodeRecord(const JournalRecord& rec);
  static JournalRecord decodeRecord(const common::JsonValue& v);

 private:
  void commitHeader(const std::string& planName);

  std::string base_;
  int fd_ = -1;  ///< the WAL, open for append
  bool failed_ = false;
  std::uint64_t appended_ = 0;
  mutable std::mutex mu_;
};

// ----- Problem fingerprints -------------------------------------------------
//
// A fingerprint is a stable (process- and machine-independent) hash of
// everything that shapes a block's recorded run: design identity (block
// name + content digest) and the verification configuration, DRC gate
// included.  Every SecOptions field that can change a verdict or a recorded
// counter is hashed: the toggles and budgets, and every scalar of the
// tuning structs (fraigOptions, sliceOptions, invOptions with its
// absintOptions).  Tuning moves counters, and the invariant miner's options
// can move a verdict (fewer candidates can leave an induction open).
// invOptions.extraCandidates enter by their printed text, so equal
// predicates hash equally across processes.  A resumed record whose
// fingerprint matches therefore reproduces what a live run of the same
// entry would report.

/// Fingerprint of a SEC block: name, digest, the verdict/telemetry-shaping
/// SecOptions fields, the retry policy and the DRC gate.
std::uint64_t secBlockFingerprint(const std::string& block,
                                  std::uint64_t digest,
                                  const sec::SecOptions& options,
                                  const RetryPolicy& policy,
                                  DrcPolicy drcPolicy, bool hasDrcRunner);

/// Fingerprint of a cosim block (stimulus seed included — a reseeded
/// fallback is a different experiment — and the DRC gate).
std::uint64_t cosimBlockFingerprint(const std::string& block,
                                    std::uint64_t digest,
                                    std::uint64_t cosimSeed,
                                    DrcPolicy drcPolicy, bool hasDrcRunner);

}  // namespace dfv::core
