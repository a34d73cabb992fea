// Shared handling for the bench binaries' command-line flags.
//
// --smoke: run the same code paths with tiny parameters so the binary
// doubles as a wiring check (registered as `bench-smoke` labeled ctest
// entries).  Smoke output makes no timing claims — only the full runs
// produce the tables EXPERIMENTS.md quotes.
//
// --json <path>: in addition to the printed tables, dump the headline
// numbers as machine-readable JSON (one object with a "rows" array), so
// successive runs leave a perf trajectory that later changes can be
// compared against:
//
//   bench_sec_ablation --json BENCH_sec_ablation.json
#pragma once

#include <concepts>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "drc/diagnostics.h"

namespace dfv::benchutil {

inline bool smokeMode(int argc, char** argv) {
  for (int i = 1; i < argc; ++i)
    if (std::strcmp(argv[i], "--smoke") == 0) return true;
  return false;
}

inline const char* jsonPath(int argc, char** argv) {
  for (int i = 1; i + 1 < argc; ++i)
    if (std::strcmp(argv[i], "--json") == 0) return argv[i + 1];
  return nullptr;
}

/// For google-benchmark-based benches: translates --json <path> into the
/// library's native output flags.  Returns pointers with static storage
/// duration (the library keeps argv pointers beyond Initialize), empty when
/// --json was not given.
inline std::vector<char*> benchmarkJsonArgs(int argc, char** argv) {
  static std::string outFlag;
  static char fmtFlag[] = "--benchmark_out_format=json";
  std::vector<char*> extra;
  if (const char* p = jsonPath(argc, argv)) {
    outFlag = std::string("--benchmark_out=") + p;
    extra.push_back(outFlag.data());
    extra.push_back(fmtFlag);
  }
  return extra;
}

/// Collects table rows as flat key/value objects and writes them as one
/// JSON document.  A no-op unless --json was given, so benches can record
/// rows unconditionally.
class JsonReport {
 public:
  JsonReport(int argc, char** argv, std::string benchName)
      : name_(std::move(benchName)), smoke_(smokeMode(argc, argv)) {
    if (const char* p = jsonPath(argc, argv)) path_ = p;
  }

  bool enabled() const { return !path_.empty(); }

  /// Starts a row; `table` names which printed table it belongs to.
  JsonReport& beginRow(const std::string& table) {
    rows_.emplace_back("\"table\": " + quoted(table));
    return *this;
  }
  JsonReport& field(const std::string& key, const std::string& v) {
    return rawField(key, quoted(v));
  }
  JsonReport& field(const std::string& key, const char* v) {
    return rawField(key, quoted(v));
  }
  JsonReport& field(const std::string& key, double v) {
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.6g", v);
    return rawField(key, buf);
  }
  JsonReport& field(const std::string& key, bool v) {
    return rawField(key, v ? "true" : "false");
  }
  template <typename Int>
    requires std::integral<Int>
  JsonReport& field(const std::string& key, Int v) {
    return rawField(key, std::to_string(v));
  }

  /// Writes the document; prints a warning and returns false on IO failure.
  bool write() const {
    if (!enabled()) return true;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "warning: cannot write --json file %s\n",
                   path_.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": %s,\n  \"smoke\": %s,\n  \"rows\": [\n",
                 quoted(name_).c_str(), smoke_ ? "true" : "false");
    for (std::size_t i = 0; i < rows_.size(); ++i)
      std::fprintf(f, "    {%s}%s\n", rows_[i].c_str(),
                   i + 1 < rows_.size() ? "," : "");
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  static std::string quoted(const std::string& s) {
    return "\"" + drc::jsonEscape(s) + "\"";
  }
  JsonReport& rawField(const std::string& key, const std::string& json) {
    // field() before any beginRow() is a bench bug.
    if (rows_.empty()) {
      std::fprintf(stderr, "JsonReport misuse: field() before beginRow()\n");
      std::abort();
    }
    rows_.back() += ", " + quoted(key) + ": " + json;
    return *this;
  }

  std::string path_;
  std::string name_;
  bool smoke_;
  std::vector<std::string> rows_;
};

}  // namespace dfv::benchutil
