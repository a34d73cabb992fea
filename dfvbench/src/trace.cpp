#include "trace.h"

namespace dfvbench {

namespace {
// The open spans of the calling thread, innermost last.
thread_local std::vector<int> tOpen;
}  // namespace

int Trace::open(std::string name, int block, int parent) {
  if (parent < 0 && !tOpen.empty()) parent = tOpen.back();
  SpanRecord rec;
  rec.name = std::move(name);
  rec.parent = parent;
  rec.block = block;
  rec.startNs = nowNs();
  int id = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    id = static_cast<int>(spans_.size());
    spans_.push_back(std::move(rec));
  }
  tOpen.push_back(id);
  return id;
}

void Trace::close(int id) {
  const std::int64_t end = nowNs();
  DFV_CHECK_MSG(!tOpen.empty() && tOpen.back() == id,
                "trace spans must close innermost first");
  tOpen.pop_back();
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].endNs = end;
}

void Trace::counter(int id, std::string key, double value) {
  std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].counters.emplace_back(std::move(key),
                                                             value);
}

double Trace::seconds(int id) const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_[static_cast<std::size_t>(id)].seconds();
}

void Trace::clear() {
  std::lock_guard<std::mutex> lock(mu_);
  spans_.clear();
}

std::map<std::string, Trace::NameTotals> Trace::totalsByName() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<double> childSeconds(spans_.size(), 0.0);
  for (const SpanRecord& s : spans_)
    if (s.parent >= 0)
      childSeconds[static_cast<std::size_t>(s.parent)] += s.seconds();
  std::map<std::string, NameTotals> out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    NameTotals& t = out[spans_[i].name];
    ++t.count;
    t.totalS += spans_[i].seconds();
    t.selfS += spans_[i].seconds() - childSeconds[i];
  }
  return out;
}

std::map<std::string, double> Trace::sums() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::map<std::string, double> out;
  for (const SpanRecord& s : spans_) {
    out[s.name] += s.seconds();
    for (const auto& [k, v] : s.counters) out[k] += v;
  }
  return out;
}

void Trace::writeSpans(JsonWriter& w) const {
  std::lock_guard<std::mutex> lock(mu_);
  w.beginArray();
  for (const SpanRecord& s : spans_) {
    w.beginObject()
        .field("name", s.name)
        .field("start_ns", s.startNs)
        .field("end_ns", s.endNs)
        .field("parent", s.parent)
        .field("block", s.block);
    w.key("counters").beginObject();
    for (const auto& [k, v] : s.counters) w.field(k, v);
    w.endObject().endObject();
  }
  w.endArray();
}

}  // namespace dfvbench
