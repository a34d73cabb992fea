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

#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "common/json.h"

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
  JsonReport(int argc, char** argv, const std::string& benchName) {
    if (const char* p = jsonPath(argc, argv)) path_ = p;
    doc_.beginObject()
        .field("bench", benchName)
        .field("smoke", smokeMode(argc, argv))
        .key("rows")
        .beginArray();
  }

  /// Starts a row; `table` names which printed table it belongs to.
  JsonReport& beginRow(const std::string& table) {
    if (rowOpen_) doc_.endObject();
    doc_.beginObject().field("table", table);
    rowOpen_ = true;
    return *this;
  }
  /// Adds one field to the current row (string, bool, integer or double);
  /// before any beginRow() it throws, since the writer is not in an object.
  template <typename T>
  JsonReport& field(const std::string& key, const T& v) {
    doc_.field(key, v);
    return *this;
  }

  /// Writes the document; prints a warning and returns false on IO failure.
  bool write() const {
    if (path_.empty()) return true;
    common::JsonWriter doc = doc_;
    if (rowOpen_) doc.endObject();
    doc.endArray().endObject();
    std::FILE* f = std::fopen(path_.c_str(), "w");
    bool ok = f != nullptr && std::fprintf(f, "%s\n", doc.str().c_str()) > 0;
    if (f != nullptr) ok = std::fclose(f) == 0 && ok;
    if (!ok)
      std::fprintf(stderr, "warning: cannot write --json file %s\n",
                   path_.c_str());
    return ok;
  }

 private:
  std::string path_;
  common::JsonWriter doc_;
  bool rowOpen_ = false;
};

}  // namespace dfv::benchutil
