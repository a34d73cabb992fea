// Tests for the write-ahead journal (core/journal.h) and its foundations:
// the CRC-32 and strict JSON/JSONL readers in common, the record codec, the
// corruption taxonomy (torn tails, flipped bytes, bad headers), resume
// admission (the SAME predicate the incremental cache uses — pinned here so
// the two policies cannot drift), fingerprint sensitivity, journal fault
// injection, concurrent appends, and the kill-mid-plan harness: a resumed
// run's report must match the uninterrupted run's bit-for-bit apart from
// explicit resumed=true provenance and wall-clock seconds.

#include "core/journal.h"

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
#include <limits>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/json.h"
#include "cosim/scoreboard.h"
#include "core/parallel.h"
#include "core/resilient.h"
#include "designs/gcd.h"
#include "designs/wrapcnt.h"
#include "fault/fault.h"
#include "ir/expr.h"

namespace dfv::core {
namespace {

using common::JsonValue;

// Unique per-process-per-call base paths: ctest runs test binaries in
// parallel from a shared cwd, so fixed filenames would collide.
std::string tempBase(const char* tag) {
  static std::atomic<unsigned> counter{0};
  std::ostringstream os;
  os << ::testing::TempDir() << "dfv_journal_" << tag << "_" << ::getpid()
     << "_" << counter++;
  return os.str();
}

std::string readFileOrDie(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.good()) << path;
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

void writeFileOrDie(const std::string& path, const std::string& data) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(data.data(), static_cast<std::streamsize>(data.size()));
  ASSERT_TRUE(out.good()) << path;
}

sec::SecResult verdictResult(sec::Verdict v) {
  sec::SecResult r;
  r.verdict = v;
  return r;
}

RetryPolicy attemptsPolicy(unsigned maxAttempts) {
  RetryPolicy p;
  p.maxAttempts = maxAttempts;
  return p;
}

// ----- CRC-32 ---------------------------------------------------------------

TEST(Crc32, MatchesIeeeCheckValues) {
  EXPECT_EQ(common::crc32(std::string_view("")), 0x00000000u);
  EXPECT_EQ(common::crc32(std::string_view("123456789")), 0xCBF43926u);
  EXPECT_EQ(common::crc32(std::string_view("a")), 0xE8B7BE43u);
  EXPECT_EQ(common::crc32(std::string_view("abc")), 0x352441C2u);
}

TEST(Crc32, DetectsEverySingleByteFlip) {
  const std::string msg = "the journal frame payload";
  const std::uint32_t good = common::crc32(msg);
  for (std::size_t i = 0; i < msg.size(); ++i) {
    for (unsigned bit = 0; bit < 8; ++bit) {
      std::string bad = msg;
      bad[i] = static_cast<char>(bad[i] ^ (1u << bit));
      EXPECT_NE(common::crc32(bad), good) << "byte " << i << " bit " << bit;
    }
  }
}

// ----- Strict JSON reader ---------------------------------------------------

TEST(Json, ParsesScalarsArraysAndObjects) {
  const JsonValue v = common::parseJson(
      R"({"s":"a\nb","n":-12.5e2,"t":true,"f":false,"z":null,)"
      R"("arr":[1,2,3],"obj":{"k":"v"}})");
  EXPECT_EQ(v.at("s").asString(), "a\nb");
  EXPECT_DOUBLE_EQ(v.at("n").asDouble(), -1250.0);
  EXPECT_TRUE(v.at("t").asBool());
  EXPECT_FALSE(v.at("f").asBool());
  EXPECT_TRUE(v.at("z").isNull());
  ASSERT_EQ(v.at("arr").items().size(), 3u);
  EXPECT_EQ(v.at("arr").items()[2].asUint64(), 3u);
  EXPECT_EQ(v.at("obj").at("k").asString(), "v");
  EXPECT_EQ(v.find("missing"), nullptr);
  EXPECT_THROW((void)v.at("missing"), CheckError);
}

TEST(Json, PreservesNumberLexemesExactly) {
  // Journal digests/fingerprints are uint64s that do NOT survive a double
  // round-trip; the lexeme must be kept and re-parsed exactly.
  const JsonValue v = common::parseJson(
      R"({"max":18446744073709551615,"neg":-9223372036854775808,"e":1e+06})");
  EXPECT_EQ(v.at("max").numberLexeme(), "18446744073709551615");
  EXPECT_EQ(v.at("max").asUint64(), 18446744073709551615ull);
  EXPECT_EQ(v.at("neg").asInt64(), INT64_MIN);
  EXPECT_DOUBLE_EQ(v.at("e").asDouble(), 1e6);
  // Strictness of the integer accessors.
  EXPECT_THROW((void)v.at("e").asUint64(), CheckError);   // exponent form
  EXPECT_THROW((void)v.at("neg").asUint64(), CheckError); // negative
  EXPECT_THROW((void)common::parseJson("1.5").asUint64(), CheckError);
  EXPECT_THROW((void)common::parseJson("18446744073709551616").asUint64(),
               CheckError);  // one past max
}

TEST(Json, DecodesEscapesAndSurrogatePairs) {
  const JsonValue v =
      common::parseJson(R"("\u0041\t\"\\\/\u00e9\ud83d\ude00")");
  EXPECT_EQ(v.asString(), "A\t\"\\/\xC3\xA9\xF0\x9F\x98\x80");
}

TEST(Json, RejectsMalformedDocuments) {
  JsonValue out;
  std::string error;
  const char* bad[] = {
      "",                      // no value
      "{",                     // unterminated
      "[1,2,]",                // trailing comma
      "{\"a\":1,}",            // trailing comma
      "{\"a\":1,\"a\":2}",     // duplicate key
      "{\"a\":1} x",           // trailing garbage
      "01",                    // leading zero
      "+1",                    // leading plus
      "1.",                    // bare fraction point
      "NaN",                   // not in the grammar
      "Infinity",              //
      "'a'",                   // single quotes
      "\"\x01\"",              // raw control character
      "\"\\ud800\"",           // lone high surrogate
      "\"\\ude00\"",           // lone low surrogate
      "\"\xC0\xAF\"",          // overlong UTF-8
      "\"\xFF\"",              // invalid UTF-8 byte
      "{\"a\" 1}",             // missing colon
      "[1 2]",                 // missing comma
  };
  for (const char* doc : bad) {
    EXPECT_FALSE(common::tryParseJson(doc, out, error)) << doc;
    EXPECT_FALSE(error.empty()) << doc;
    EXPECT_THROW((void)common::parseJson(doc), CheckError) << doc;
  }
}

TEST(Json, ParseLinesHandlesFinalUnterminatedLine) {
  const auto vals = common::parseJsonLines("{\"a\":1}\n[2]\n\"three\"");
  ASSERT_EQ(vals.size(), 3u);
  EXPECT_EQ(vals[0].at("a").asUint64(), 1u);
  EXPECT_EQ(vals[1].items()[0].asUint64(), 2u);
  EXPECT_EQ(vals[2].asString(), "three");
  EXPECT_TRUE(common::parseJsonLines("").empty());
}

TEST(Json, ParseLinesRejectsBlankAndMalformedLines) {
  EXPECT_THROW((void)common::parseJsonLines("{\"a\":1}\n\n[2]\n"), CheckError);
  try {
    (void)common::parseJsonLines("{\"a\":1}\n{broken\n");
  } catch (const CheckError& e) {
    EXPECT_NE(std::string(e.what()).find("line 2"), std::string::npos);
  }
}

// Everything the one writer emits, the strict reader accepts and decodes
// back: every control character, ill-formed UTF-8 (as U+FFFD per byte),
// the integer extremes, doubles bit-exact, non-finite doubles as null, and
// empty containers nested in each other.
TEST(Json, WriterOutputRoundTripsThroughTheStrictReader) {
  std::string controls;
  for (char c = 0; c < 0x20; ++c) controls += c;
  controls += "\"\\\x7f";
  const std::string badUtf8 = "a\x80" "b\xc0\xaf" "c\xed\xa0\x80"
                              "d\xf4\x90\x80\x80" "e\xe2\x82";
  common::JsonWriter w;
  w.beginObject()
      .field("controls", controls)
      .field("bad_utf8", badUtf8)
      .field("u64_max", std::numeric_limits<std::uint64_t>::max())
      .field("i64_min", std::numeric_limits<std::int64_t>::min())
      .field("tenth", 0.1)
      .field("third", 1.0 / 3)
      .field("nan", std::nan(""))
      .field("inf", std::numeric_limits<double>::infinity())
      .key("nested")
      .beginArray()
      .beginArray().endArray()
      .beginObject().endObject()
      .beginObject().key("e").beginArray().beginArray().endArray().endArray()
      .endObject()
      .endArray()
      .endObject();
  const std::string doc = w.str();
  EXPECT_EQ(doc.find(' '), std::string::npos);  // compact: "key":value
  const JsonValue v = common::parseJson(doc);
  EXPECT_EQ(v.at("controls").asString(), controls);
  const std::string r = "\xef\xbf\xbd";  // U+FFFD
  EXPECT_EQ(v.at("bad_utf8").asString(),
            "a" + r + "b" + r + r + "c" + r + r + r + "d" + r + r + r + r +
                "e" + r + r);
  EXPECT_EQ(v.at("u64_max").asUint64(),
            std::numeric_limits<std::uint64_t>::max());
  EXPECT_EQ(v.at("i64_min").asInt64(),
            std::numeric_limits<std::int64_t>::min());
  EXPECT_EQ(v.at("tenth").asDouble(), 0.1);  // bit-exact
  EXPECT_EQ(v.at("third").asDouble(), 1.0 / 3);
  EXPECT_TRUE(v.at("nan").isNull());
  EXPECT_TRUE(v.at("inf").isNull());
  const auto& nested = v.at("nested").items();
  ASSERT_EQ(nested.size(), 3u);
  EXPECT_TRUE(nested[0].items().empty());
  EXPECT_TRUE(nested[1].members().empty());
  ASSERT_EQ(nested[2].at("e").items().size(), 1u);
  EXPECT_TRUE(nested[2].at("e").items()[0].items().empty());
  // An unterminated document is a writer bug, not output.
  common::JsonWriter open;
  open.beginObject().key("k");
  EXPECT_THROW((void)open.str(), CheckError);
}

// The existing gap the reader closes: nothing in-repo ever PARSED the
// documents PlanReport::json emits.  Round-trip one through the strict
// parser and check the load-bearing fields.
TEST(Json, PlanReportJsonIsStrictlyParseable) {
  ResilientRunner plan("soc \"quoted\"", attemptsPolicy(1));
  plan.addSecBlock("alpha", 1, sec::SecOptions{}, [](const sec::SecOptions&) {
    return verdictResult(sec::Verdict::kProvenEquivalent);
  });
  plan.addCosimBlock("beta", 2, [](std::uint64_t) {
    return ResilientRunner::CosimOutcome{false, "mismatch @ cycle 3"};
  });
  const PlanReport report = plan.runAll();
  const JsonValue v = common::parseJson(report.json(plan.name()));
  EXPECT_EQ(v.at("plan").asString(), "soc \"quoted\"");
  EXPECT_EQ(v.at("summary").at("verified").asUint64(), 1u);
  EXPECT_EQ(v.at("summary").at("failed").asUint64(), 1u);
  EXPECT_FALSE(v.at("summary").at("all_passed").asBool());
  ASSERT_EQ(v.at("blocks").items().size(), 2u);
  const JsonValue& alpha = v.at("blocks").items()[0];
  EXPECT_EQ(alpha.at("name").asString(), "alpha");
  EXPECT_EQ(alpha.at("method").asString(), "sec");
  EXPECT_EQ(alpha.at("status").asString(), "pass");
  const JsonValue& beta = v.at("blocks").items()[1];
  EXPECT_EQ(beta.at("status").asString(), "fail");
  EXPECT_EQ(beta.at("detail").asString(), "mismatch @ cycle 3");
}

// ----- Record codec ---------------------------------------------------------

JournalRecord richRecord() {
  JournalRecord rec;
  rec.digest = 0xDEADBEEFCAFEF00Dull;
  rec.fingerprint = 18446744073709551615ull;  // max u64: lexeme round-trip
  BlockResult& b = rec.result;
  b.block = "block \"with\"\nescapes\t\\";
  b.method = Method::kSec;
  b.passed = true;
  b.attempts = 3;
  b.faultInjections = 7;
  b.resumed = true;
  b.counters = {{"slice_states_severed", 11}, {"inv_certified", 2}};
  b.seconds = 0.1;  // not exactly representable: must round-trip bit-exact
  b.detail = "proven equivalent";
  AttemptRecord a;
  a.rung = 2;
  a.maxConflicts = 400;
  a.maxPropagations = 1600;
  a.outcome = "inconclusive";
  a.seconds = 1.0 / 3.0;
  a.counters = sec::deterministicCounters(sec::SecStats{});
  std::uint64_t n = 0;
  for (auto& [name, value] : a.counters) value = ++n * 1000003;
  a.counters["sat_conflicts"] = 18446744073709551615ull;  // max u64
  b.attemptLog.push_back(a);
  a.rung = 0;
  a.faulted = true;
  a.outcome = "faulted: injected";
  b.attemptLog.push_back(a);
  return rec;
}

void expectSameRecord(const JournalRecord& x, const JournalRecord& y) {
  EXPECT_EQ(x.digest, y.digest);
  EXPECT_EQ(x.fingerprint, y.fingerprint);
  EXPECT_EQ(x.hasDrc, y.hasDrc);
  const BlockResult& a = x.result;
  const BlockResult& b = y.result;
  EXPECT_EQ(a.block, b.block);
  EXPECT_EQ(a.method, b.method);
  EXPECT_EQ(a.passed, b.passed);
  EXPECT_EQ(a.skippedUnchanged, b.skippedUnchanged);
  EXPECT_EQ(a.blockedByDrc, b.blockedByDrc);
  EXPECT_EQ(a.inconclusive, b.inconclusive);
  EXPECT_EQ(a.faulted, b.faulted);
  EXPECT_EQ(a.degraded, b.degraded);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_EQ(a.faultInjections, b.faultInjections);
  EXPECT_EQ(a.resumed, b.resumed);
  EXPECT_EQ(a.counters, b.counters);
  EXPECT_EQ(a.seconds, b.seconds);  // bit-exact: shortest round-trip form
  EXPECT_EQ(a.detail, b.detail);
  ASSERT_EQ(a.attemptLog.size(), b.attemptLog.size());
  for (std::size_t i = 0; i < a.attemptLog.size(); ++i) {
    const AttemptRecord& p = a.attemptLog[i];
    const AttemptRecord& q = b.attemptLog[i];
    EXPECT_EQ(p.rung, q.rung);
    EXPECT_EQ(p.maxConflicts, q.maxConflicts);
    EXPECT_EQ(p.maxPropagations, q.maxPropagations);
    EXPECT_EQ(p.outcome, q.outcome);
    EXPECT_EQ(p.faulted, q.faulted);
    EXPECT_EQ(p.seconds, q.seconds);
    EXPECT_EQ(p.counters, q.counters);
  }
}

TEST(RecordCodec, RoundTripsEveryField) {
  const JournalRecord rec = richRecord();
  const std::string payload = Journal::encodeRecord(rec);
  const JournalRecord back =
      Journal::decodeRecord(common::parseJson(payload));
  expectSameRecord(rec, back);
}

TEST(RecordCodec, RejectsWellFormedJsonThatIsNotARecord) {
  EXPECT_THROW((void)Journal::decodeRecord(common::parseJson("{\"x\":1}")),
               CheckError);
  // Right shape, one field patched: a wrong method string, integers that
  // parse as u64/i64 but do not fit their narrower fields (they must be
  // rejected, never wrapped: 2^32+3 attempts is not 3 attempts), and keys
  // this record shape does not have, at block and at attempt level (the
  // version-2 attempt fields member, winner and cancelled among them).
  const std::string good = Journal::encodeRecord(richRecord());
  const std::pair<std::string, std::string> patches[] = {
      {"\"method\":\"sec\"", "\"method\":\"hec\""},
      {"\"attempts\":3", "\"attempts\":4294967299"},
      {"\"rung\":2", "\"rung\":4294967298"},
      {"\"attempts\":3", "\"member_name\":\"m1\",\"attempts\":3"},
      {"\"rung\":2", "\"member\":1,\"rung\":2"},
      {"\"rung\":2", "\"winner\":true,\"rung\":2"},
      {"\"rung\":2", "\"cancelled\":false,\"rung\":2"},
  };
  for (const auto& [from, to] : patches) {
    std::string payload = good;
    const std::size_t at = payload.find(from);
    ASSERT_NE(at, std::string::npos) << from;
    payload.replace(at, from.size(), to);
    EXPECT_THROW((void)Journal::decodeRecord(common::parseJson(payload)),
                 CheckError)
        << to;
  }
}

// ----- Journal write/load and the damage taxonomy ---------------------------

TEST(JournalIo, AppendLoadRoundTrip) {
  const std::string base = tempBase("roundtrip");
  Journal j(base, "soc");
  const JournalRecord rec = richRecord();
  j.append(rec);
  JournalRecord rec2 = rec;
  rec2.result.block = "beta";
  rec2.hasDrc = true;
  j.append(rec2);
  EXPECT_EQ(j.appended(), 2u);
  EXPECT_FALSE(j.failed());
  const JournalLoaded loaded = Journal::load(base);
  EXPECT_EQ(loaded.damage, JournalDamage::kNone);
  EXPECT_EQ(loaded.planName, "soc");
  EXPECT_EQ(loaded.droppedBytes, 0u);
  ASSERT_EQ(loaded.records.size(), 2u);
  expectSameRecord(loaded.records[0], rec);
  expectSameRecord(loaded.records[1], rec2);
  EXPECT_TRUE(loaded.records[1].hasDrc);
}

TEST(JournalIo, MissingAndBadHeaders) {
  const std::string none = tempBase("missing");
  EXPECT_EQ(Journal::load(none).damage, JournalDamage::kMissing);

  const std::string garbled = tempBase("garbled");
  { Journal j(garbled, "soc"); j.append(richRecord()); }
  writeFileOrDie(garbled + ".hdr", "not json at all");
  JournalLoaded loaded = Journal::load(garbled);
  EXPECT_EQ(loaded.damage, JournalDamage::kBadHeader);
  EXPECT_TRUE(loaded.records.empty());  // a dead header disowns the WAL

  const std::string wrongVersion = tempBase("version");
  { Journal j(wrongVersion, "soc"); }
  writeFileOrDie(wrongVersion + ".hdr",
                 "{\"format\":\"dfv-journal\",\"version\":999,"
                 "\"plan\":\"soc\"}\n");
  EXPECT_EQ(Journal::load(wrongVersion).damage, JournalDamage::kBadHeader);

  // Version-1 (pre-counter-map) and version-2 (portfolio fields) journals
  // cold-start.
  for (int version : {1, 2}) {
    const std::string old = tempBase("old");
    { Journal j(old, "soc"); j.append(richRecord()); }
    writeFileOrDie(old + ".hdr",
                   "{\"format\":\"dfv-journal\",\"version\":" +
                       std::to_string(version) + ",\"plan\":\"soc\"}\n");
    loaded = Journal::load(old);
    EXPECT_EQ(loaded.damage, JournalDamage::kBadHeader) << version;
    EXPECT_TRUE(loaded.records.empty()) << version;
  }
}

TEST(JournalIo, ReconstructionOverwritesAStaleJournal) {
  const std::string base = tempBase("fresh");
  { Journal j(base, "soc"); j.append(richRecord()); }
  ASSERT_EQ(Journal::load(base).records.size(), 1u);
  // A new journal at the same base truncates the WAL and recommits the
  // header: no record from the previous generation can leak into this one.
  Journal j2(base, "soc");
  const JournalLoaded loaded = Journal::load(base);
  EXPECT_EQ(loaded.damage, JournalDamage::kNone);
  EXPECT_TRUE(loaded.records.empty());
}

TEST(JournalIo, DamageNamesAreStable) {
  EXPECT_STREQ(journalDamageName(JournalDamage::kNone), "none");
  EXPECT_STREQ(journalDamageName(JournalDamage::kMissing), "missing");
  EXPECT_STREQ(journalDamageName(JournalDamage::kBadHeader), "bad-header");
  EXPECT_STREQ(journalDamageName(JournalDamage::kTornTail), "torn-tail");
  EXPECT_STREQ(journalDamageName(JournalDamage::kBadRecord), "bad-record");
}

// Writes a 3-record journal and returns {base, original records}.
std::pair<std::string, std::vector<JournalRecord>> smallJournal(
    const char* tag) {
  const std::string base = tempBase(tag);
  std::vector<JournalRecord> recs;
  Journal j(base, "soc");
  for (int i = 0; i < 3; ++i) {
    JournalRecord rec;
    rec.digest = 100u + static_cast<unsigned>(i);
    rec.fingerprint = 0x1111111111111111ull * static_cast<unsigned>(i + 1);
    rec.result.block = std::string("blk") + char('a' + i);
    rec.result.passed = true;
    rec.result.detail = "proven equivalent";
    rec.result.seconds = 0.25 * (i + 1);
    j.append(rec);
    recs.push_back(rec);
  }
  return {base, recs};
}

// Every truncation of a valid WAL is a torn tail (or a clean boundary):
// the loader returns an exact prefix of the original records and NEVER a
// wrong one — this is the crash-during-append model swept exhaustively.
TEST(JournalCorruption, EveryTruncationYieldsAnExactPrefix) {
  const auto [base, recs] = smallJournal("trunc");
  const std::string wal = readFileOrDie(base + ".wal");
  ASSERT_GT(wal.size(), 0u);
  for (std::size_t len = 0; len < wal.size(); ++len) {
    SCOPED_TRACE("truncate to " + std::to_string(len));
    writeFileOrDie(base + ".wal", wal.substr(0, len));
    const JournalLoaded loaded = Journal::load(base);
    ASSERT_LE(loaded.records.size(), recs.size());
    EXPECT_LT(loaded.records.size(), recs.size());  // something was lost
    for (std::size_t i = 0; i < loaded.records.size(); ++i)
      expectSameRecord(loaded.records[i], recs[i]);
    if (len == 0) {
      EXPECT_EQ(loaded.damage, JournalDamage::kNone);  // clean empty WAL
    } else if (loaded.damage != JournalDamage::kNone) {
      EXPECT_EQ(loaded.damage, JournalDamage::kTornTail);
      EXPECT_GT(loaded.droppedBytes, 0u);
      EXPECT_FALSE(loaded.note.empty());
    }
  }
  writeFileOrDie(base + ".wal", wal);  // restore
  EXPECT_EQ(Journal::load(base).records.size(), recs.size());
}

// Every single-byte corruption anywhere in the WAL is detected: the loader
// returns an exact prefix that stops at or before the damaged frame.
TEST(JournalCorruption, EveryFlippedByteIsDetected) {
  const auto [base, recs] = smallJournal("flip");
  const std::string wal = readFileOrDie(base + ".wal");
  for (std::size_t pos = 0; pos < wal.size(); ++pos) {
    SCOPED_TRACE("flip byte " + std::to_string(pos));
    std::string mutated = wal;
    mutated[pos] = static_cast<char>(mutated[pos] ^ 0x01);
    writeFileOrDie(base + ".wal", mutated);
    const JournalLoaded loaded = Journal::load(base);
    // Never a wrong record: whatever survives is a true prefix...
    ASSERT_LE(loaded.records.size(), recs.size());
    for (std::size_t i = 0; i < loaded.records.size(); ++i)
      expectSameRecord(loaded.records[i], recs[i]);
    // ...and the mutation itself never goes unnoticed.
    EXPECT_LT(loaded.records.size(), recs.size());
    EXPECT_NE(loaded.damage, JournalDamage::kNone);
    EXPECT_GT(loaded.droppedBytes, 0u);
  }
}

// A seeded multi-byte fuzz pass over (position, xor-mask) pairs: same
// property, wider mutations, fully deterministic.
TEST(JournalCorruption, SeededMutationFuzzNeverSurfacesAWrongRecord) {
  const auto [base, recs] = smallJournal("fuzz");
  const std::string wal = readFileOrDie(base + ".wal");
  std::uint64_t rng = 0x5eedull;
  auto next = [&rng] {
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  };
  for (int round = 0; round < 200; ++round) {
    SCOPED_TRACE("round " + std::to_string(round));
    std::string mutated = wal;
    const unsigned edits = 1u + static_cast<unsigned>(next() % 4);
    for (unsigned e = 0; e < edits; ++e) {
      const std::size_t pos = next() % mutated.size();
      const auto mask = static_cast<unsigned char>(1u + next() % 255);
      mutated[pos] = static_cast<char>(mutated[pos] ^ mask);
    }
    writeFileOrDie(base + ".wal", mutated);
    const JournalLoaded loaded = Journal::load(base);
    ASSERT_LE(loaded.records.size(), recs.size());
    for (std::size_t i = 0; i < loaded.records.size(); ++i)
      expectSameRecord(loaded.records[i], recs[i]);
    EXPECT_LT(loaded.records.size(), recs.size());
  }
}

// ----- Resume admission = cache admission (the drift pin) -------------------

// Runs one scenario twice: (a) journaled run + incremental re-run to see
// whether the cache skips the block, (b) a fresh identical runner resuming
// from the journal to see whether resume admits the record.  The two answers
// must be EQUAL for every realizable outcome — that is the satellite's
// "policies cannot drift" guarantee, checked behaviorally end to end.
std::pair<bool, bool> cacheSkipVsResumeAdmit(
    const ResilientRunner::SecRunner& runner, bool withFallback) {
  const std::string base = tempBase("drift");
  auto build = [&](ResilientRunner& r) {
    r.addSecBlock("blk", 7, sec::SecOptions{}, runner);
    if (withFallback)
      r.setCosimFallback("blk", [](std::uint64_t) {
        return ResilientRunner::CosimOutcome{true, "fallback ok"};
      });
  };
  ResilientRunner first("drift", attemptsPolicy(2));
  build(first);
  Journal journal(base, "drift");
  first.setJournal(&journal);
  first.runAll();
  const PlanReport incr = first.runIncremental();
  const bool cacheSkipped = incr.blocks.at(0).skippedUnchanged;

  ResilientRunner second("drift", attemptsPolicy(2));
  build(second);
  const unsigned admitted = second.resumePlan(Journal::load(base));
  return {cacheSkipped, admitted == 1};
}

TEST(DriftPin, CacheSkipAndResumeAdmissionAgreeOnEveryOutcome) {
  struct Case {
    const char* name;
    ResilientRunner::SecRunner runner;
    bool withFallback;
    bool expectAdmit;
  };
  const Case cases[] = {
      {"clean pass",
       [](const sec::SecOptions&) {
         return verdictResult(sec::Verdict::kProvenEquivalent);
       },
       false, true},
      {"bounded pass",
       [](const sec::SecOptions&) {
         return verdictResult(sec::Verdict::kBoundedEquivalent);
       },
       false, true},
      {"failed",
       [](const sec::SecOptions&) {
         return verdictResult(sec::Verdict::kNotEquivalent);
       },
       false, false},
      {"inconclusive",
       [](const sec::SecOptions&) {
         return verdictResult(sec::Verdict::kInconclusive);
       },
       false, false},
      {"degraded",
       [](const sec::SecOptions&) {
         return verdictResult(sec::Verdict::kInconclusive);
       },
       true, false},
      {"faulted",
       [](const sec::SecOptions&) -> sec::SecResult {
         throw std::runtime_error("runner crash");
       },
       false, false},
  };
  for (const Case& c : cases) {
    SCOPED_TRACE(c.name);
    const auto [cacheSkipped, resumeAdmitted] =
        cacheSkipVsResumeAdmit(c.runner, c.withFallback);
    EXPECT_EQ(cacheSkipped, resumeAdmitted);  // the pin
    EXPECT_EQ(resumeAdmitted, c.expectAdmit);
  }
}

TEST(DriftPin, PredicateRejectsContradictoryCraftedRecords) {
  // Journal bytes are untrusted: passed=true alongside any disqualifying
  // flag must still be rejected (belt-and-braces conjuncts).
  BlockResult r;
  r.passed = true;
  EXPECT_TRUE(isResumableVerdict(r));
  for (int flag = 0; flag < 5; ++flag) {
    BlockResult bad = r;
    switch (flag) {
      case 0: bad.degraded = true; break;
      case 1: bad.faulted = true; break;
      case 2: bad.inconclusive = true; break;
      case 3: bad.blockedByDrc = true; break;
      case 4: bad.skippedUnchanged = true; break;
    }
    EXPECT_FALSE(isResumableVerdict(bad)) << flag;
  }
  r.passed = false;
  EXPECT_FALSE(isResumableVerdict(r));
}

// ----- Resume semantics -----------------------------------------------------

ResilientRunner makeAbcRunner(std::atomic<unsigned>* calls = nullptr,
                              sec::Verdict bVerdict =
                                  sec::Verdict::kProvenEquivalent) {
  ResilientRunner runner("soc", attemptsPolicy(2));
  auto stub = [calls](sec::Verdict v) {
    return [calls, v](const sec::SecOptions&) {
      if (calls != nullptr) ++*calls;
      return verdictResult(v);
    };
  };
  runner.addSecBlock("a", 1, sec::SecOptions{},
                     stub(sec::Verdict::kProvenEquivalent));
  runner.addSecBlock("b", 2, sec::SecOptions{}, stub(bVerdict));
  runner.addSecBlock("c", 3, sec::SecOptions{},
                     stub(sec::Verdict::kProvenEquivalent));
  return runner;
}

TEST(Resume, AdmittedRecordIsEmittedOnceWithProvenance) {
  const std::string base = tempBase("once");
  {
    ResilientRunner first = makeAbcRunner();
    Journal j(base, "soc");
    first.setJournal(&j);
    first.runAll();
  }
  std::atomic<unsigned> calls{0};
  ResilientRunner second = makeAbcRunner(&calls);
  EXPECT_EQ(second.resumePlan(Journal::load(base)), 3u);
  const PlanReport r1 = second.runAll();
  EXPECT_EQ(calls.load(), 0u);  // nothing re-ran
  EXPECT_EQ(r1.resumed, 3u);
  EXPECT_EQ(r1.verified, 3u);
  for (const BlockResult& b : r1.blocks) {
    EXPECT_TRUE(b.resumed);
    EXPECT_TRUE(b.passed);
    EXPECT_EQ(b.detail, sec::verdictName(sec::Verdict::kProvenEquivalent));
  }
  // Consumed once: the next run really runs.
  const PlanReport r2 = second.runAll();
  EXPECT_EQ(calls.load(), 3u);
  EXPECT_EQ(r2.resumed, 0u);
  for (const BlockResult& b : r2.blocks) EXPECT_FALSE(b.resumed);
}

TEST(Resume, VersionTwoJournalReRunsEveryBlock) {
  // A journal written under the version-2 record shape describes runs this
  // runner can no longer reproduce field for field: it admits nothing.
  const std::string base = tempBase("v2");
  {
    ResilientRunner first = makeAbcRunner();
    Journal j(base, "soc");
    first.setJournal(&j);
    first.runAll();
  }
  writeFileOrDie(base + ".hdr",
                 "{\"format\":\"dfv-journal\",\"version\":2,"
                 "\"plan\":\"soc\"}\n");
  std::atomic<unsigned> calls{0};
  ResilientRunner second = makeAbcRunner(&calls);
  EXPECT_EQ(second.resumePlan(Journal::load(base)), 0u);
  const PlanReport r = second.runAll();
  EXPECT_EQ(calls.load(), 3u);
  EXPECT_EQ(r.resumed, 0u);
  EXPECT_EQ(r.verified, 3u);
}

TEST(Resume, PlanNameMismatchAdmitsNothing) {
  const std::string base = tempBase("name");
  {
    ResilientRunner first = makeAbcRunner();
    Journal j(base, "soc");
    first.setJournal(&j);
    first.runAll();
  }
  ResilientRunner other("other-soc", attemptsPolicy(2));
  other.addSecBlock("a", 1, sec::SecOptions{}, [](const sec::SecOptions&) {
    return verdictResult(sec::Verdict::kProvenEquivalent);
  });
  EXPECT_EQ(other.resumePlan(Journal::load(base)), 0u);
}

TEST(Resume, DigestMismatchColdStartsFromThatRecord) {
  const std::string base = tempBase("digest");
  {
    ResilientRunner first = makeAbcRunner();
    Journal j(base, "soc");
    first.setJournal(&j);
    first.runAll();
  }
  // b's models were edited after the crash: its record AND c's are stale.
  ResilientRunner second = makeAbcRunner();
  second.touch("b", 22);
  EXPECT_EQ(second.resumePlan(Journal::load(base)), 1u);  // a only
  const PlanReport r = second.runAll();
  EXPECT_TRUE(r.blocks[0].resumed);
  EXPECT_FALSE(r.blocks[1].resumed);
  EXPECT_FALSE(r.blocks[2].resumed);
}

TEST(Resume, NonResumableRecordReRunsOnlyItsOwnBlock) {
  const std::string base = tempBase("middle");
  {
    ResilientRunner first = makeAbcRunner(nullptr,
                                          sec::Verdict::kNotEquivalent);
    Journal j(base, "soc");
    first.setJournal(&j);
    first.runAll();
  }
  // b failed in the recorded run — not admissible — but c's clean record
  // after it is still individually trusted (checksum + fingerprint hold).
  ResilientRunner second = makeAbcRunner(nullptr,
                                         sec::Verdict::kNotEquivalent);
  EXPECT_EQ(second.resumePlan(Journal::load(base)), 2u);  // a and c
  const PlanReport r = second.runAll();
  EXPECT_TRUE(r.blocks[0].resumed);
  EXPECT_FALSE(r.blocks[1].resumed);
  EXPECT_TRUE(r.blocks[2].resumed);
  EXPECT_EQ(r.failed, 1u);
}

TEST(Resume, FingerprintIsSensitiveToTheProblemConfiguration) {
  sec::SecOptions base;
  const RetryPolicy policy;
  const DrcPolicy warn = DrcPolicy::kWarn;
  auto secFp = [&](const std::string& block, std::uint64_t digest,
                   const sec::SecOptions& o, const RetryPolicy& p) {
    return secBlockFingerprint(block, digest, o, p, warn, false);
  };
  const std::uint64_t fp = secFp("blk", 1, base, policy);
  // Same inputs, same hash (stability), different inputs, different hash.
  EXPECT_EQ(secFp("blk", 1, base, policy), fp);
  EXPECT_NE(secFp("blk", 2, base, policy), fp);
  EXPECT_NE(secFp("alt", 1, base, policy), fp);
  sec::SecOptions noFraig = base;
  noFraig.fraig = false;
  EXPECT_NE(secFp("blk", 1, noFraig, policy), fp);
  sec::SecOptions capped = base;
  capped.bmcBudget.maxConflicts = 1000;
  EXPECT_NE(secFp("blk", 1, capped, policy), fp);
  RetryPolicy deeper;
  deeper.maxAttempts = 5;
  EXPECT_NE(secFp("blk", 1, base, deeper), fp);
  EXPECT_NE(cosimBlockFingerprint("blk", 1, 1, warn, false),
            cosimBlockFingerprint("blk", 1, 2, warn, false));
  // The DRC gate shapes the recorded run: the policy and whether a DRC
  // runner is attached both enter the sec and cosim fingerprints.
  EXPECT_NE(secBlockFingerprint("blk", 1, base, policy, DrcPolicy::kBlock,
                                false),
            fp);
  EXPECT_NE(secBlockFingerprint("blk", 1, base, policy, warn, true), fp);
  const std::uint64_t cfp = cosimBlockFingerprint("blk", 1, 1, warn, false);
  EXPECT_NE(cosimBlockFingerprint("blk", 1, 1, DrcPolicy::kStrict, false),
            cfp);
  EXPECT_NE(cosimBlockFingerprint("blk", 1, 1, warn, true), cfp);
}

TEST(Resume, TuningOptionsEnterTheFingerprint) {
  // wrapcnt at k = 3 closes induction only with the miner's absint
  // candidates, so a record of a default run must not be admitted by a
  // runner that mines less: it cold-starts and reports the live verdict.
  auto wrapcnt = [](const sec::SecOptions& o) {
    ir::Context ctx;
    designs::WrapcntSecSetup s = designs::makeWrapcntSecProblem(ctx);
    return sec::checkEquivalence(*s.problem, o);
  };
  sec::SecOptions mined;
  mined.boundTransactions = 3;
  sec::SecOptions unmined = mined;
  unmined.invOptions.mineAbsint = false;
  const std::string base = tempBase("tuning");
  {
    ResilientRunner first("soc", attemptsPolicy(1));
    first.addSecBlock("wrapcnt", 1, mined, wrapcnt);
    Journal j(base, "soc");
    first.setJournal(&j);
    const PlanReport r = first.runAll();
    ASSERT_EQ(r.blocks.size(), 1u);
    EXPECT_EQ(r.blocks[0].detail,
              sec::verdictName(sec::Verdict::kProvenEquivalent));
  }
  ResilientRunner second("soc", attemptsPolicy(1));
  second.addSecBlock("wrapcnt", 1, unmined, wrapcnt);
  EXPECT_EQ(second.resumePlan(Journal::load(base)), 0u);
  const PlanReport r = second.runAll();
  ASSERT_EQ(r.blocks.size(), 1u);
  EXPECT_FALSE(r.blocks[0].resumed);
  EXPECT_EQ(r.blocks[0].detail,
            sec::verdictName(sec::Verdict::kBoundedEquivalent));

  // Fraig and slice tuning move histo's recorded counters (fraig_sat_calls,
  // slice_seq_constants), so each must move its fingerprint too.
  const RetryPolicy policy;
  auto fp = [&](const sec::SecOptions& o) {
    return secBlockFingerprint("histo", 7, o, policy, DrcPolicy::kWarn, false);
  };
  sec::SecOptions histo;
  histo.boundTransactions = 4;
  const std::uint64_t ref = fp(histo);
  sec::SecOptions fraigTuned = histo;
  fraigTuned.fraigOptions.seed = 12345;
  fraigTuned.fraigOptions.simWords = 16;
  EXPECT_NE(fp(fraigTuned), ref);
  sec::SecOptions noSeqConst = histo;
  noSeqConst.sliceOptions.seqConst = false;
  EXPECT_NE(fp(noSeqConst), ref);
  sec::SecOptions widened = histo;
  widened.invOptions.absintOptions.widenAfter = 2;
  EXPECT_NE(fp(widened), ref);
  sec::SecOptions capped = histo;
  capped.fraigOptions.candidateBudget.maxConflicts = 50;
  EXPECT_NE(fp(capped), ref);

  // Extra candidates enter by their text: the same predicate built in two
  // contexts hashes equally, a different one does not.
  auto withCandidate = [&](ir::Context& ctx, std::uint64_t bound) {
    ir::TransitionSystem ts(ctx, "t");
    ir::NodeRef c = ts.addState("c", 8, 0);
    sec::SecOptions o = histo;
    o.invOptions.extraCandidates = {ctx.ule(c, ctx.constantUint(8, bound))};
    return fp(o);
  };
  ir::Context c1, c2, c3;
  EXPECT_EQ(withCandidate(c1, 10), withCandidate(c2, 10));
  EXPECT_NE(withCandidate(c3, 11), withCandidate(c1, 10));
  EXPECT_NE(withCandidate(c1, 10), ref);
}

TEST(Resume, ReconfiguredRunnerColdStartsOnFingerprint) {
  const std::string base = tempBase("reconf");
  {
    ResilientRunner first = makeAbcRunner();
    Journal j(base, "soc");
    first.setJournal(&j);
    first.runAll();
  }
  // Same blocks, same digests — but the retry policy differs, so the
  // recorded telemetry would not be what this runner reports live.
  std::atomic<unsigned> calls{0};
  ResilientRunner second("soc", attemptsPolicy(4));
  auto stub = [&calls](const sec::SecOptions&) {
    ++calls;
    return verdictResult(sec::Verdict::kProvenEquivalent);
  };
  second.addSecBlock("a", 1, sec::SecOptions{}, stub);
  second.addSecBlock("b", 2, sec::SecOptions{}, stub);
  second.addSecBlock("c", 3, sec::SecOptions{}, stub);
  EXPECT_EQ(second.resumePlan(Journal::load(base)), 0u);
  second.runAll();
  EXPECT_EQ(calls.load(), 3u);
}

TEST(Resume, DrcGatedBlocksAreJournaledButNeverReplayed) {
  const std::string base = tempBase("plan");
  auto build = [](ResilientRunner& plan) {
    auto pass = [](const sec::SecOptions&) {
      return verdictResult(sec::Verdict::kProvenEquivalent);
    };
    plan.addSecBlock("alpha", 1, sec::SecOptions{}, pass);
    plan.addSecBlock("gated", 2, sec::SecOptions{}, pass);
    plan.setBlockDrc("gated", [] { return drc::DrcReport{}; });  // clean
    plan.addSecBlock("dirty", 3, sec::SecOptions{}, pass);
    plan.setBlockDrc("dirty", [] {
      drc::DrcReport r;
      r.add(drc::Rule::kUndrivenNet, drc::Severity::kError, drc::Layer::kRtl,
            "dirty/net 'x'", "no driver");
      return r;
    });
    plan.setDrcPolicy(DrcPolicy::kBlock);
  };
  {
    ResilientRunner first("soc", attemptsPolicy(1));
    build(first);
    Journal j(base, "soc");
    first.setJournal(&j);
    const PlanReport r0 = first.runAll();
    EXPECT_EQ(r0.verified, 2u);
    EXPECT_EQ(r0.blocked, 1u);
    EXPECT_TRUE(r0.blocks[1].drc.has_value());
    // The fresh WAL covers the whole run, the blocked block included.
    EXPECT_EQ(j.appended(), 3u);
  }
  const JournalLoaded loaded = Journal::load(base);
  ASSERT_EQ(loaded.records.size(), 3u);
  for (const JournalRecord& rec : loaded.records) {
    SCOPED_TRACE(rec.result.block);
    EXPECT_EQ(rec.hasDrc, rec.result.block != "alpha");
    EXPECT_EQ(rec.result.blockedByDrc, rec.result.block == "dirty");
  }
  ResilientRunner second("soc", attemptsPolicy(1));
  build(second);
  // "gated" passed cleanly, but its record carried DRC diagnostics the
  // journal does not serialize: DRC re-evaluates live, never from disk.
  // "dirty" was blocked: no verdict, so it is never admitted either.
  EXPECT_EQ(second.resumePlan(loaded), 1u);
  const PlanReport r1 = second.runIncremental();
  EXPECT_TRUE(r1.blocks[0].resumed);
  EXPECT_FALSE(r1.blocks[1].resumed);
  EXPECT_TRUE(r1.blocks[1].drc.has_value());  // re-ran, DRC re-evaluated
  EXPECT_FALSE(r1.blocks[2].resumed);
  EXPECT_TRUE(r1.blocks[2].blockedByDrc);  // gate re-ran and blocked again
  EXPECT_EQ(r1.resumed, 1u);
  // Nor is a blocked block ever cached: an unchanged digest re-gates it.
  const PlanReport r2 = second.runIncremental();
  EXPECT_FALSE(r2.blocks[2].skippedUnchanged);
  EXPECT_TRUE(r2.blocks[2].blockedByDrc);
}

TEST(Resume, TotalSecondsIsTheResumedRunsWallTime) {
  // The recorded blocks each took >= 50 ms; replaying them takes almost
  // nothing, and total_seconds must say so while each resumed block keeps
  // its recorded seconds.
  constexpr double kBlockSeconds = 0.05;
  auto build = [](ResilientRunner& plan) {
    for (const char* name : {"a", "b", "c"})
      plan.addSecBlock(name, 1, sec::SecOptions{},
                       [](const sec::SecOptions&) {
                         std::this_thread::sleep_for(
                             std::chrono::milliseconds(50));
                         return verdictResult(
                             sec::Verdict::kProvenEquivalent);
                       });
  };
  const std::string base = tempBase("wall");
  {
    ResilientRunner first("soc", attemptsPolicy(1));
    build(first);
    Journal j(base, "soc");
    first.setJournal(&j);
    const PlanReport r0 = first.runAll();
    EXPECT_GE(r0.totalSeconds, 3 * kBlockSeconds);
  }
  ResilientRunner second("soc", attemptsPolicy(1));
  build(second);
  ASSERT_EQ(second.resumePlan(Journal::load(base)), 3u);
  const PlanReport r1 = second.runAll();
  EXPECT_EQ(r1.resumed, 3u);
  EXPECT_LT(r1.totalSeconds, kBlockSeconds);
  for (const BlockResult& b : r1.blocks) EXPECT_GE(b.seconds, kBlockSeconds);
  const JsonValue v = common::parseJson(r1.json("soc"));
  EXPECT_LT(v.at("summary").at("total_seconds").asDouble(), kBlockSeconds);
}

TEST(Resume, ResumedBlocksAreReJournaledIntoTheFreshWal) {
  const std::string baseA = tempBase("rewalA");
  {
    ResilientRunner first = makeAbcRunner();
    Journal j(baseA, "soc");
    first.setJournal(&j);
    first.runAll();
  }
  const std::string baseB = tempBase("rewalB");
  ResilientRunner second = makeAbcRunner();
  EXPECT_EQ(second.resumePlan(Journal::load(baseA)), 3u);
  Journal fresh(baseB, "soc");
  second.setJournal(&fresh);
  second.runAll();
  // The fresh WAL covers this run completely — a second crash right after
  // it would still resume all three blocks.
  const JournalLoaded reloaded = Journal::load(baseB);
  ASSERT_EQ(reloaded.records.size(), 3u);
  ResilientRunner third = makeAbcRunner();
  EXPECT_EQ(third.resumePlan(reloaded), 3u);
}

// ----- Journal fault injection ----------------------------------------------

TEST(JournalFaults, TornAppendTruncatesAndStopsTheJournal) {
  const std::string base = tempBase("torn");
  fault::ScopedInjector scoped;
  scoped.injector().arm(fault::Site::kJournalAppend, fault::Policy::kTornWrite,
                        2);  // second append dies mid-frame
  Journal j(base, "soc");
  j.append(richRecord());
  j.append(richRecord());  // torn: half a frame lands, journal is dead
  EXPECT_TRUE(j.failed());
  j.append(richRecord());  // silent no-op after the "crash"
  EXPECT_EQ(j.appended(), 1u);
  const JournalLoaded loaded = Journal::load(base);
  EXPECT_EQ(loaded.damage, JournalDamage::kTornTail);
  ASSERT_EQ(loaded.records.size(), 1u);
  expectSameRecord(loaded.records[0], richRecord());
  EXPECT_GT(loaded.droppedBytes, 0u);
}

TEST(JournalFaults, AppendThrowWritesNothing) {
  const std::string base = tempBase("appthrow");
  fault::ScopedInjector scoped;
  scoped.injector().arm(fault::Site::kJournalAppend,
                        fault::Policy::kThrowCheckError, 2);
  Journal j(base, "soc");
  j.append(richRecord());
  EXPECT_THROW(j.append(richRecord()), CheckError);  // before any write
  j.append(richRecord());  // the journal itself is still healthy
  EXPECT_EQ(j.appended(), 2u);
  const JournalLoaded loaded = Journal::load(base);
  EXPECT_EQ(loaded.damage, JournalDamage::kNone);
  EXPECT_EQ(loaded.records.size(), 2u);
}

TEST(JournalFaults, FsyncThrowLeavesTheFrameIntact) {
  const std::string base = tempBase("fsync");
  fault::ScopedInjector scoped;
  scoped.injector().arm(fault::Site::kJournalFsync,
                        fault::Policy::kThrowCheckError, 1);
  Journal j(base, "soc");
  // The frame was fully written before the fsync failed: durability is in
  // doubt, the bytes are not.
  EXPECT_THROW(j.append(richRecord()), CheckError);
  const JournalLoaded loaded = Journal::load(base);
  EXPECT_EQ(loaded.damage, JournalDamage::kNone);
  EXPECT_EQ(loaded.records.size(), 1u);
}

TEST(JournalFaults, TornCommitIsABadHeader) {
  const std::string base = tempBase("torncommit");
  fault::ScopedInjector scoped;
  scoped.injector().arm(fault::Site::kJournalCommit,
                        fault::Policy::kTornWrite, 1);
  Journal j(base, "soc");  // constructs, but half a header got renamed in
  EXPECT_TRUE(j.failed());
  j.append(richRecord());  // no-op on a dead journal
  const JournalLoaded loaded = Journal::load(base);
  EXPECT_EQ(loaded.damage, JournalDamage::kBadHeader);
  EXPECT_TRUE(loaded.records.empty());
}

TEST(JournalFaults, CommitThrowMeansNoJournalAtAll) {
  const std::string base = tempBase("nocommit");
  fault::ScopedInjector scoped;
  scoped.injector().arm(fault::Site::kJournalCommit,
                        fault::Policy::kThrowCheckError, 1);
  EXPECT_THROW(Journal(base, "soc"), CheckError);
  EXPECT_EQ(Journal::load(base).damage, JournalDamage::kMissing);
}

TEST(JournalFaults, RunnerVerdictsAreIdenticalJournaledOrNot) {
  auto run = [](bool journaled, bool withDisabledInjector) {
    std::unique_ptr<fault::ScopedInjector> scoped;
    if (withDisabledInjector)
      scoped = std::make_unique<fault::ScopedInjector>(1234);  // unarmed
    ResilientRunner runner = makeAbcRunner();
    std::unique_ptr<Journal> j;
    if (journaled) {
      j = std::make_unique<Journal>(tempBase("parity"), "soc");
      runner.setJournal(j.get());
    }
    return runner.runAll();
  };
  const PlanReport off = run(false, false);
  const PlanReport on = run(true, false);
  const PlanReport onDisabled = run(true, true);
  for (const PlanReport* r : {&on, &onDisabled}) {
    ASSERT_EQ(r->blocks.size(), off.blocks.size());
    for (std::size_t i = 0; i < off.blocks.size(); ++i) {
      EXPECT_EQ(r->blocks[i].passed, off.blocks[i].passed);
      EXPECT_EQ(r->blocks[i].detail, off.blocks[i].detail);
      EXPECT_EQ(r->blocks[i].attempts, off.blocks[i].attempts);
      EXPECT_EQ(r->blocks[i].faultInjections, 0u);
    }
    EXPECT_EQ(r->verified, off.verified);
    EXPECT_EQ(r->failed, off.failed);
  }
}

// ----- Concurrent appends (the TSan surface) --------------------------------

TEST(JournalParallel, WorkersAppendConcurrentlyWithoutLossOrTearing) {
  const std::string base = tempBase("parallel");
  ResilientRunner runner("soc", attemptsPolicy(1));
  constexpr unsigned kBlocks = 12;
  for (unsigned i = 0; i < kBlocks; ++i)
    runner.addSecBlock("blk" + std::to_string(i), i + 1, sec::SecOptions{},
                       [](const sec::SecOptions&) {
                         return verdictResult(sec::Verdict::kProvenEquivalent);
                       });
  ParallelExecutor exec(4);
  runner.setExecutor(&exec);
  Journal j(base, "soc");
  runner.setJournal(&j);
  const PlanReport report = runner.runAll();
  EXPECT_EQ(report.verified, kBlocks);
  EXPECT_EQ(j.appended(), kBlocks);
  const JournalLoaded loaded = Journal::load(base);
  EXPECT_EQ(loaded.damage, JournalDamage::kNone);
  ASSERT_EQ(loaded.records.size(), kBlocks);
  // WAL order is completion order (scheduling-dependent), but the SET of
  // records is exactly one clean pass per block.
  std::set<std::string> names;
  for (const JournalRecord& rec : loaded.records) {
    EXPECT_TRUE(rec.result.passed);
    names.insert(rec.result.block);
  }
  EXPECT_EQ(names.size(), kBlocks);
  // And resume admits every one of them, in any order.
  runner.setExecutor(nullptr);
  ResilientRunner fresh("soc", attemptsPolicy(1));
  for (unsigned i = 0; i < kBlocks; ++i)
    fresh.addSecBlock("blk" + std::to_string(i), i + 1, sec::SecOptions{},
                      [](const sec::SecOptions&) {
                        return verdictResult(sec::Verdict::kProvenEquivalent);
                      });
  EXPECT_EQ(fresh.resumePlan(loaded), kBlocks);
}

// ----- Kill-mid-plan harness ------------------------------------------------

// Structural JSON equality ignoring wall-clock keys and resume provenance.
void expectSameJsonIgnoring(const JsonValue& a, const JsonValue& b,
                            const std::string& path) {
  ASSERT_EQ(static_cast<int>(a.kind()), static_cast<int>(b.kind())) << path;
  switch (a.kind()) {
    case JsonValue::Kind::kNull:
      break;
    case JsonValue::Kind::kBool:
      EXPECT_EQ(a.asBool(), b.asBool()) << path;
      break;
    case JsonValue::Kind::kNumber:
      EXPECT_EQ(a.numberLexeme(), b.numberLexeme()) << path;
      break;
    case JsonValue::Kind::kString:
      EXPECT_EQ(a.asString(), b.asString()) << path;
      break;
    case JsonValue::Kind::kArray: {
      ASSERT_EQ(a.items().size(), b.items().size()) << path;
      for (std::size_t i = 0; i < a.items().size(); ++i)
        expectSameJsonIgnoring(a.items()[i], b.items()[i],
                               path + "[" + std::to_string(i) + "]");
      break;
    }
    case JsonValue::Kind::kObject: {
      auto ignored = [](const std::string& key) {
        return key == "seconds" || key == "total_seconds" || key == "resumed";
      };
      std::vector<std::pair<std::string, const JsonValue*>> am, bm;
      for (const auto& [k, v] : a.members())
        if (!ignored(k)) am.emplace_back(k, &v);
      for (const auto& [k, v] : b.members())
        if (!ignored(k)) bm.emplace_back(k, &v);
      ASSERT_EQ(am.size(), bm.size()) << path;
      for (std::size_t i = 0; i < am.size(); ++i) {
        ASSERT_EQ(am[i].first, bm[i].first) << path;
        expectSameJsonIgnoring(*am[i].second, *bm[i].second,
                               path + "." + am[i].first);
      }
      break;
    }
  }
}

// Byte offsets of the frame boundaries in a WAL (offset 0 included), found
// by walking the frame headers — used to emulate a kill after K blocks.
std::vector<std::size_t> frameBoundaries(const std::string& wal) {
  std::vector<std::size_t> bounds{0};
  std::size_t pos = 0;
  while (pos < wal.size()) {
    std::size_t len = 0, i = pos;
    while (i < wal.size() && wal[i] >= '0' && wal[i] <= '9')
      len = len * 10 + static_cast<std::size_t>(wal[i++] - '0');
    i += 1 + 8 + 1 + len + 1;  // " " crc " " payload "\n"
    EXPECT_LE(i, wal.size());
    pos = i;
    bounds.push_back(pos);
  }
  return bounds;
}

/// The harness plan: one real (budgeted) SEC problem, two stubs, one
/// scoreboard cosim block — deterministic end to end.
struct HarnessPlan {
  std::unique_ptr<ir::Context> ctx = std::make_unique<ir::Context>();
  designs::GcdSecSetup gcd;
  ResilientRunner runner{"harness", attemptsPolicy(2)};

  HarnessPlan() {
    gcd = designs::makeGcdSecProblem(*ctx);
    sec::SecOptions base;
    base.bmcBudget.maxConflicts = 100000;
    base.inductionBudget.maxConflicts = 100000;
    runner.addSecBlock("gcd", 1, base, [this](const sec::SecOptions& o) {
      return sec::checkEquivalence(*gcd.problem, o);
    });
    runner.addSecBlock("alpha", 2, sec::SecOptions{},
                       [](const sec::SecOptions&) {
                         return verdictResult(sec::Verdict::kProvenEquivalent);
                       });
    runner.addCosimBlock("stream", 3, [](std::uint64_t) {
      cosim::CycleExactScoreboard sb;
      for (std::uint64_t c = 0; c < 4; ++c)
        sb.expect(c, bv::BitVector::fromUint(8, c * 3));
      for (std::uint64_t c = 0; c < 4; ++c)
        sb.observe(c, bv::BitVector::fromUint(8, c * 3));
      const auto stats = sb.finish();
      return ResilientRunner::CosimOutcome{stats.clean(), "4 samples matched"};
    });
    runner.addSecBlock("omega", 4, sec::SecOptions{},
                       [](const sec::SecOptions&) {
                         return verdictResult(sec::Verdict::kBoundedEquivalent);
                       });
  }
};

TEST(KillMidPlan, ResumedReportsMatchTheUninterruptedRunBitForBit) {
  // The uninterrupted, fully journaled reference run.
  const std::string baseRef = tempBase("killref");
  std::string refJson;
  {
    HarnessPlan ref;
    Journal j(baseRef, "harness");
    ref.runner.setJournal(&j);
    const PlanReport r0 = ref.runner.runAll();
    ASSERT_TRUE(r0.allPassed()) << r0.summary();
    ASSERT_EQ(j.appended(), 4u);
    refJson = r0.json("harness");
  }
  const std::string refWal = readFileOrDie(baseRef + ".wal");
  const std::string refHdr = readFileOrDie(baseRef + ".hdr");
  const std::vector<std::size_t> bounds = frameBoundaries(refWal);
  ASSERT_EQ(bounds.size(), 5u);  // 4 frames

  // Kill after K completed blocks (clean boundary), plus a torn variant a
  // few bytes into the next frame — the crash-during-append case.
  for (std::size_t k = 0; k < bounds.size(); ++k) {
    for (bool torn : {false, true}) {
      const std::size_t cut =
          torn ? std::min(bounds[k] + 7, refWal.size()) : bounds[k];
      if (torn && cut == refWal.size()) continue;  // nothing to tear
      SCOPED_TRACE("killed after " + std::to_string(k) + " records" +
                   (torn ? " + torn tail" : ""));
      const std::string baseCut = tempBase("killcut");
      writeFileOrDie(baseCut + ".hdr", refHdr);
      writeFileOrDie(baseCut + ".wal", refWal.substr(0, cut));

      const JournalLoaded loaded = Journal::load(baseCut);
      EXPECT_EQ(loaded.records.size(), torn ? k : std::min(k, std::size_t{4}));

      HarnessPlan resumedPlan;
      const unsigned admitted = resumedPlan.runner.resumePlan(loaded);
      EXPECT_EQ(admitted, loaded.records.size());  // all records were clean
      Journal fresh(tempBase("killfresh"), "harness");
      resumedPlan.runner.setJournal(&fresh);
      const PlanReport r1 = resumedPlan.runner.runAll();
      EXPECT_EQ(r1.resumed, admitted);
      EXPECT_EQ(fresh.appended(), 4u);  // resumed + re-run, all re-journaled

      // The resumed report matches the reference bit-for-bit apart from
      // the resumed=true provenance keys and wall-clock seconds.
      expectSameJsonIgnoring(common::parseJson(refJson),
                             common::parseJson(r1.json("harness")), "$");
    }
  }
}

}  // namespace
}  // namespace dfv::core
