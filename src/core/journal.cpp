#include "core/journal.h"

#include <fcntl.h>
#include <unistd.h>

#include <cctype>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "common/crc32.h"
#include "common/hash.h"
#include "fault/fault.h"
#include "ir/print.h"

namespace dfv::core {

using common::JsonValue;
using common::JsonWriter;

namespace {

constexpr const char* kFormat = "dfv-journal";
constexpr std::uint64_t kVersion = 3;
/// Sanity bound on one record payload; no real frame comes close, and the
/// cap keeps a corrupted length field from asking the loader to swallow the
/// address space.
constexpr std::size_t kMaxPayload = std::size_t{64} << 20;

void writeAll(int fd, const char* data, std::size_t n) {
  std::size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    DFV_CHECK_MSG(w > 0, "journal write failed");
    off += static_cast<std::size_t>(w);
  }
}

bool readFile(const std::string& path, std::string& out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  std::ostringstream os;
  os << in.rdbuf();
  out = os.str();
  return true;
}

}  // namespace

const char* journalDamageName(JournalDamage d) {
  switch (d) {
    case JournalDamage::kNone: return "none";
    case JournalDamage::kMissing: return "missing";
    case JournalDamage::kBadHeader: return "bad-header";
    case JournalDamage::kTornTail: return "torn-tail";
    case JournalDamage::kBadRecord: return "bad-record";
  }
  DFV_UNREACHABLE("bad journal damage");
}

// ----- Journal (write side) -------------------------------------------------

Journal::Journal(std::string basePath, const std::string& planName)
    : base_(std::move(basePath)) {
  // WAL first, header second: the header commit is the "journal live"
  // barrier, so a crash between the two leaves the old header (or none)
  // and a load that cold-starts — stale-looking, never wrong.
  fd_ = ::open((base_ + ".wal").c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  DFV_CHECK_MSG(fd_ >= 0, "cannot open journal WAL '" << base_ << ".wal'");
  try {
    commitHeader(planName);
  } catch (...) {
    ::close(fd_);
    fd_ = -1;
    throw;
  }
}

Journal::~Journal() {
  if (fd_ >= 0) ::close(fd_);
}

void Journal::commitHeader(const std::string& planName) {
  const fault::Policy p = fault::onSiteHit(fault::Site::kJournalCommit);
  if (p == fault::Policy::kThrowCheckError)
    fault::throwInjected(fault::Site::kJournalCommit);
  JsonWriter w;
  w.beginObject().field("format", kFormat).field("version", kVersion);
  std::string payload = w.field("plan", planName).endObject().str() + "\n";
  if (p == fault::Policy::kTornWrite) {
    // A crash mid-commit: half a header still gets renamed into place here
    // so the damage is reachable — load classifies it kBadHeader and
    // resumes nothing.  The journal itself is dead from now on.
    payload.resize(payload.size() / 2);
    failed_ = true;
  }
  const std::string tmp = base_ + ".hdr.tmp";
  const int hfd = ::open(tmp.c_str(), O_CREAT | O_WRONLY | O_TRUNC, 0644);
  DFV_CHECK_MSG(hfd >= 0, "cannot open journal header tmp '" << tmp << "'");
  writeAll(hfd, payload.data(), payload.size());
  const int frc = ::fsync(hfd);
  ::close(hfd);
  DFV_CHECK_MSG(frc == 0, "journal header fsync failed");
  DFV_CHECK_MSG(std::rename(tmp.c_str(), (base_ + ".hdr").c_str()) == 0,
                "journal header rename failed");
}

void Journal::append(const JournalRecord& rec) {
  std::lock_guard<std::mutex> lock(mu_);
  if (failed_) return;  // a torn journal is a crashed journal: stop writing
  const std::string payload = encodeRecord(rec);
  const std::uint32_t crc = common::crc32(payload);
  char head[48];
  std::snprintf(head, sizeof head, "%zu %08x ", payload.size(),
                static_cast<unsigned>(crc));
  std::string frame = std::string(head) + payload + "\n";
  const fault::Policy p = fault::onSiteHit(fault::Site::kJournalAppend);
  if (p == fault::Policy::kThrowCheckError)
    fault::throwInjected(fault::Site::kJournalAppend);  // nothing written
  if (p == fault::Policy::kTornWrite) {
    // Crash model: the frame stops mid-payload and the process "dies" —
    // the truncated bytes land on disk, no fsync, no further appends.
    frame.resize(frame.size() / 2);
    writeAll(fd_, frame.data(), frame.size());
    failed_ = true;
    return;
  }
  writeAll(fd_, frame.data(), frame.size());
  const fault::Policy pf = fault::onSiteHit(fault::Site::kJournalFsync);
  if (pf == fault::Policy::kThrowCheckError)
    fault::throwInjected(fault::Site::kJournalFsync);  // frame intact on disk
  DFV_CHECK_MSG(::fsync(fd_) == 0, "journal fsync failed");
  ++appended_;
}

bool Journal::failed() const {
  std::lock_guard<std::mutex> lock(mu_);
  return failed_;
}

std::uint64_t Journal::appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return appended_;
}

// ----- Record codec ---------------------------------------------------------

std::string Journal::encodeRecord(const JournalRecord& rec) {
  JsonWriter w;
  w.beginObject().field("digest", rec.digest);
  w.field("fingerprint", rec.fingerprint);
  w.field("has_drc", rec.hasDrc || rec.result.drc.has_value());
  encodeBlockResult(w.key("result"), rec.result);
  return w.endObject().str();
}

JournalRecord Journal::decodeRecord(const JsonValue& v) {
  JournalRecord rec;
  rec.digest = v.at("digest").asUint64();
  rec.fingerprint = v.at("fingerprint").asUint64();
  rec.hasDrc = v.at("has_drc").asBool();
  rec.result = decodeBlockResult(v.at("result"));
  return rec;
}

// ----- Loader ---------------------------------------------------------------

namespace {

enum class FrameStatus { kOk, kTorn, kBad };

/// Parses one frame starting at `pos`.  kTorn means the data ran out while
/// everything seen so far was still a valid frame prefix (crash during
/// append); kBad means a byte that cannot belong to a valid frame, a CRC
/// mismatch, or an unparseable payload (corruption).  On kOk, `pos` is
/// advanced past the frame and `rec` is filled.
FrameStatus parseFrame(const std::string& wal, std::size_t& pos,
                       JournalRecord& rec, std::string& why) {
  std::size_t i = pos;
  // <len>
  std::size_t digits = 0;
  std::size_t len = 0;
  while (i < wal.size() && std::isdigit(static_cast<unsigned char>(wal[i]))) {
    len = len * 10 + static_cast<std::size_t>(wal[i] - '0');
    ++digits;
    if (len > kMaxPayload || digits > 9) {
      why = "frame length out of range";
      return FrameStatus::kBad;
    }
    ++i;
  }
  if (i == wal.size()) {
    why = "file ends inside frame header";
    return FrameStatus::kTorn;
  }
  if (digits == 0 || wal[i] != ' ') {
    why = "malformed frame length";
    return FrameStatus::kBad;
  }
  ++i;
  // <crc32:8 hex>
  std::uint32_t crc = 0;
  for (unsigned h = 0; h < 8; ++h) {
    if (i == wal.size()) {
      why = "file ends inside frame checksum";
      return FrameStatus::kTorn;
    }
    const char c = wal[i++];
    crc <<= 4;
    if (c >= '0' && c <= '9')
      crc |= static_cast<std::uint32_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      crc |= static_cast<std::uint32_t>(c - 'a' + 10);
    else {
      why = "malformed frame checksum";
      return FrameStatus::kBad;
    }
  }
  if (i == wal.size()) {
    why = "file ends inside frame header";
    return FrameStatus::kTorn;
  }
  if (wal[i] != ' ') {
    why = "malformed frame header";
    return FrameStatus::kBad;
  }
  ++i;
  // <payload>\n
  if (i + len > wal.size()) {
    why = "file ends inside frame payload";
    return FrameStatus::kTorn;
  }
  const std::string_view payload(wal.data() + i, len);
  i += len;
  if (i == wal.size()) {
    why = "file ends before frame terminator";
    return FrameStatus::kTorn;
  }
  if (wal[i] != '\n') {
    why = "missing frame terminator";
    return FrameStatus::kBad;
  }
  ++i;
  if (common::crc32(payload) != crc) {
    why = "frame checksum mismatch";
    return FrameStatus::kBad;
  }
  JsonValue v;
  std::string error;
  if (!common::tryParseJson(payload, v, error)) {
    why = "frame payload is not strict JSON: " + error;
    return FrameStatus::kBad;
  }
  try {
    rec = Journal::decodeRecord(v);
  } catch (const CheckError& ex) {
    why = std::string("frame payload is not record-shaped: ") + ex.what();
    return FrameStatus::kBad;
  }
  pos = i;
  return FrameStatus::kOk;
}

}  // namespace

JournalLoaded Journal::load(const std::string& basePath) {
  JournalLoaded out;
  std::string header;
  if (!readFile(basePath + ".hdr", header)) {
    out.damage = JournalDamage::kMissing;
    out.note = "no journal header at '" + basePath + ".hdr'";
    return out;
  }
  {
    JsonValue h;
    std::string error;
    bool ok = common::tryParseJson(header, h, error);
    if (ok) {
      try {
        ok = h.at("format").asString() == kFormat &&
             h.at("version").asUint64() == kVersion;
        if (ok) out.planName = h.at("plan").asString();
      } catch (const CheckError&) {
        ok = false;
      }
    }
    if (!ok) {
      out.damage = JournalDamage::kBadHeader;
      out.note = "journal header unreadable or wrong format/version";
      return out;
    }
  }
  std::string wal;
  if (!readFile(basePath + ".wal", wal)) return out;  // header-only: empty
  std::size_t pos = 0;
  while (pos < wal.size()) {
    JournalRecord rec;
    std::string why;
    const std::size_t frameStart = pos;
    const FrameStatus st = parseFrame(wal, pos, rec, why);
    if (st == FrameStatus::kOk) {
      out.records.push_back(std::move(rec));
      continue;
    }
    // Nothing after an unverifiable frame is trusted: a torn tail loses
    // only itself (there is nothing after EOF), a bad record mid-file
    // invalidates everything downstream of it too.
    out.damage = st == FrameStatus::kTorn ? JournalDamage::kTornTail
                                          : JournalDamage::kBadRecord;
    out.droppedBytes = wal.size() - frameStart;
    std::ostringstream os;
    os << why << " (record " << out.records.size() << ", byte " << frameStart
       << "); dropped " << out.droppedBytes << " trailing bytes";
    out.note = os.str();
    break;
  }
  return out;
}

// ----- Problem fingerprints -------------------------------------------------

namespace {

void mixBudget(common::StableHasher& h, const sat::Budget& b) {
  h.mix(b.maxConflicts);
  h.mix(b.maxPropagations);
  h.mix(b.maxSeconds);
}

void mixSecOptions(common::StableHasher& h, const sec::SecOptions& o) {
  h.mix(o.boundTransactions);
  h.mix(o.tryInduction);
  h.mix(o.structuralAliasing);
  h.mix(o.fraig);
  h.mix(o.fraigOptions.seed);
  h.mix(o.fraigOptions.simWords);
  h.mix(o.fraigOptions.simRounds);
  mixBudget(h, o.fraigOptions.candidateBudget);
  h.mix(o.slice);
  h.mix(o.sliceOptions.coi);
  h.mix(o.sliceOptions.seqConst);
  h.mix(o.invariants);
  const inv::Options& io = o.invOptions;
  h.mix(io.mineAbsint);
  h.mix(io.absintOptions.widenAfter);
  h.mix(io.absintOptions.maxIterations);
  h.mix(io.absintOptions.refineBudget);
  h.mix(io.mineTernary);
  h.mix(io.maxCandidates);
  // Candidates by their full text, never by address: node pointers differ
  // between processes for the same predicate.  A null entry (rejected by
  // the run itself) hashes as the empty string.
  h.mix(static_cast<std::uint64_t>(io.extraCandidates.size()));
  for (ir::NodeRef p : io.extraCandidates)
    h.mix(std::string_view(
        p != nullptr ? ir::printExpr(p, std::numeric_limits<unsigned>::max())
                     : std::string()));
  mixBudget(h, o.bmcBudget);
  mixBudget(h, o.inductionBudget);
}

}  // namespace

std::uint64_t secBlockFingerprint(const std::string& block,
                                  std::uint64_t digest,
                                  const sec::SecOptions& options,
                                  const RetryPolicy& policy,
                                  DrcPolicy drcPolicy, bool hasDrcRunner) {
  common::StableHasher h;
  h.mix(std::string_view("sec"));
  h.mix(std::string_view(block));
  h.mix(digest);
  mixSecOptions(h, options);
  h.mix(policy.maxAttempts);
  h.mix(policy.budgetScale);
  h.mix(static_cast<std::uint64_t>(policy.rungs.size()));
  for (const RetryRung& r : policy.rungs) {
    h.mix(r.budgetScale);
    h.mix(r.fraig.has_value());
    h.mix(r.fraig.value_or(false));
    h.mix(r.invariants.has_value());
    h.mix(r.invariants.value_or(false));
  }
  h.mix(policy.retryInductionCutoff);
  h.mix(policy.cosimSeed);
  h.mix(static_cast<unsigned>(drcPolicy));
  h.mix(hasDrcRunner);
  return h.digest();
}

std::uint64_t cosimBlockFingerprint(const std::string& block,
                                    std::uint64_t digest,
                                    std::uint64_t cosimSeed,
                                    DrcPolicy drcPolicy, bool hasDrcRunner) {
  common::StableHasher h;
  h.mix(std::string_view("cosim"));
  h.mix(std::string_view(block));
  h.mix(digest);
  h.mix(cosimSeed);
  h.mix(static_cast<unsigned>(drcPolicy));
  h.mix(hasDrcRunner);
  return h.digest();
}

}  // namespace dfv::core
