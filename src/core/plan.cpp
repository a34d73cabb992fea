#include "core/plan.h"

#include <algorithm>
#include <concepts>
#include <initializer_list>
#include <sstream>
#include <string_view>

namespace dfv::core {

using common::JsonValue;
using common::JsonWriter;

namespace {

const char* statusName(const BlockResult& b) {
  return b.skippedUnchanged ? "skipped"
         : b.blockedByDrc   ? "blocked"
         : b.faulted        ? "faulted"
         : b.inconclusive   ? "inconclusive"
         : b.passed         ? "pass"
                            : "fail";
}

// The fields the codec carries, each named once: encodeBlockResult and
// decodeBlockResult both walk these lists, so no field can be written
// under one key and read back under another.
template <typename F>
void attemptFields(F&& f) {
  f("rung", &AttemptRecord::rung);
  f("max_conflicts", &AttemptRecord::maxConflicts);
  f("max_propagations", &AttemptRecord::maxPropagations);
  f("outcome", &AttemptRecord::outcome);
  f("faulted", &AttemptRecord::faulted);
  f("seconds", &AttemptRecord::seconds);
  f("counters", &AttemptRecord::counters);
}

template <typename F>
void blockFields(F&& f) {
  f("passed", &BlockResult::passed);
  f("skipped_unchanged", &BlockResult::skippedUnchanged);
  f("blocked_by_drc", &BlockResult::blockedByDrc);
  f("inconclusive", &BlockResult::inconclusive);
  f("faulted", &BlockResult::faulted);
  f("degraded", &BlockResult::degraded);
  f("resumed", &BlockResult::resumed);
  f("attempts", &BlockResult::attempts);
  f("fault_injections", &BlockResult::faultInjections);
  f("seconds", &BlockResult::seconds);
  f("detail", &BlockResult::detail);
  f("counters", &BlockResult::counters);
  f("attempt_log", &BlockResult::attemptLog);
}

template <typename T>
void put(JsonWriter& w, const T& v) {
  w.value(v);
}

void put(JsonWriter& w, const std::map<std::string, std::uint64_t>& counters) {
  w.beginObject();
  for (const auto& [name, value] : counters) w.field(name, value);
  w.endObject();
}

void put(JsonWriter& w, const std::vector<AttemptRecord>& log) {
  w.beginArray();
  for (const AttemptRecord& a : log) {
    w.beginObject();
    attemptFields([&](const char* k, auto m) { put(w.key(k), a.*m); });
    w.endObject();
  }
  w.endArray();
}

// Readers are strict: JsonValue throws CheckError on a type mismatch, and
// asInteger on a value that does not fit the field.
void get(const JsonValue& v, bool& out) { out = v.asBool(); }
void get(const JsonValue& v, double& out) { out = v.asDouble(); }
void get(const JsonValue& v, std::string& out) { out = v.asString(); }

template <std::integral T>
void get(const JsonValue& v, T& out) {
  out = v.asInteger<T>();
}

void get(const JsonValue& v, std::map<std::string, std::uint64_t>& out) {
  for (const auto& [name, value] : v.members())
    out.emplace(name, value.asUint64());
}

// Strictness covers keys too: an object with a key its field list does
// not name (say, one written by an older record shape) is rejected, never
// half-read.
template <typename Fields>
void checkKeys(const JsonValue& v, Fields fields,
               std::initializer_list<std::string_view> extra = {}) {
  for (const auto& [key, value] : v.members()) {
    bool known = std::find(extra.begin(), extra.end(), key) != extra.end();
    fields([&](const char* k, auto) { known = known || key == k; });
    DFV_CHECK_MSG(known, "unknown field '" << key << "'");
  }
}

void get(const JsonValue& v, std::vector<AttemptRecord>& out) {
  for (const JsonValue& av : v.items()) {
    checkKeys(av, [](auto f) { attemptFields(f); });
    AttemptRecord& a = out.emplace_back();
    attemptFields([&](const char* k, auto m) { get(av.at(k), a.*m); });
  }
}

}  // namespace

bool isResumableVerdict(const BlockResult& r) {
  // The extra conjuncts beyond "passed and clean" are belt-and-braces for
  // journal records, which are untrusted bytes: a crafted record could set
  // passed alongside a contradictory flag, and it must still be rejected.
  return r.passed && !r.degraded && !r.faulted && !r.inconclusive &&
         !r.blockedByDrc && !r.skippedUnchanged;
}

std::vector<std::string> PlanReport::failingBlocks() const {
  std::vector<std::string> out;
  for (const auto& b : blocks)
    if (!b.passed && !b.inconclusive && !b.skippedUnchanged)
      out.push_back(b.block);
  return out;
}

std::string PlanReport::summary() const {
  std::ostringstream os;
  os << verified << " verified, " << skipped << " skipped, " << failed
     << " failed";
  if (inconclusive > 0) os << ", " << inconclusive << " inconclusive";
  os << " in " << totalSeconds << "s";
  if (blocked > 0) os << " (" << blocked << " blocked by DRC)";
  if (faulted > 0) os << " (" << faulted << " faulted)";
  if (degraded > 0) os << " (" << degraded << " degraded to cosim)";
  return os.str();
}

void encodeBlockResult(JsonWriter& w, const BlockResult& b) {
  w.beginObject()
      .field("name", b.block)
      .field("method", b.method == Method::kSec ? "sec" : "cosim")
      .field("status", statusName(b));
  blockFields([&](const char* k, auto m) { put(w.key(k), b.*m); });
  if (b.drc.has_value()) b.drc->writeJson(w.key("drc"));
  w.endObject();
}

BlockResult decodeBlockResult(const JsonValue& v) {
  BlockResult b;
  b.block = v.at("name").asString();
  const std::string& method = v.at("method").asString();
  DFV_CHECK_MSG(method == "sec" || method == "cosim",
                "bad block method '" << method << "'");
  b.method = method == "sec" ? Method::kSec : Method::kCosim;
  checkKeys(v, [](auto f) { blockFields(f); },
            {"name", "method", "status", "drc"});
  blockFields([&](const char* k, auto m) { get(v.at(k), b.*m); });
  return b;
}

std::string PlanReport::json(const std::string& planName) const {
  JsonWriter w;
  w.beginObject()
      .field("plan", planName)
      .key("summary")
      .beginObject()
      .field("verified", verified)
      .field("skipped", skipped)
      .field("failed", failed)
      .field("inconclusive", inconclusive)
      .field("blocked", blocked)
      .field("faulted", faulted)
      .field("degraded", degraded)
      .field("resumed", resumed)
      .field("workers", workers)
      .field("total_seconds", totalSeconds)
      .field("all_passed", allPassed())
      .endObject()
      .key("blocks")
      .beginArray();
  for (const BlockResult& b : blocks) encodeBlockResult(w, b);
  w.endArray().endObject();
  return w.str();
}

void PlanReport::tally(const BlockResult& r) {
  if (r.skippedUnchanged)
    ++skipped;
  else if (r.inconclusive)
    ++inconclusive;
  else
    ++(r.passed ? verified : failed);
  if (r.blockedByDrc) ++blocked;
  if (r.faulted) ++faulted;
  if (r.degraded) ++degraded;
  if (r.resumed) ++resumed;
}

}  // namespace dfv::core
