// JRNL — write-ahead journal overhead and recovery cost.
//
// The journal (core/journal.h) buys crash-durability for plan verdicts; this
// bench prices it and regenerates the tables EXPERIMENTS.md quotes:
//
//   1. append/load throughput — fsync'd frame appends per second on a
//      representative record (two attempt-log rows), and verified loads
//      (CRC + strict JSON + decode) per second on the resulting WAL.
//   2. plan overhead — the same real-SEC plan (gcd + FIR + a cosim block)
//      run journaled and unjournaled; the headline number is the journaled
//      run's wall-time overhead in percent, which must stay well under 5%:
//      a durability layer that taxes verification is a durability layer
//      nobody turns on.  Verdicts must be identical on both arms (exit
//      gate — the journal may never affect a result).
//   3. recovery cost — resume-from-journal (load + admit + emit recorded
//      verdicts) vs cold re-run of the same plan, plus the partial case
//      where only half the blocks were journaled before the "crash".
//      The resumed report must match the cold run block for block.
//
// Wall-clock timing here prices I/O, not solver work, so this bench keeps
// the machine-independence rule by gating only on verdict parity — the
// printed times are measurements, the parity checks are the contract.
//
// With --smoke: tiny repetition counts — a wiring check, no timing claims.

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "cosim/scoreboard.h"
#include "core/journal.h"
#include "core/resilient.h"
#include "designs/fir.h"
#include "designs/gcd.h"
#include "ir/expr.h"

using namespace dfv;
using Clock = std::chrono::steady_clock;

namespace {

double secsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

std::string tempBase(const char* tag) {
  static std::atomic<unsigned> counter{0};
  std::ostringstream os;
  os << "/tmp/dfv_bench_journal_" << tag << "_" << ::getpid() << "_"
     << counter++;
  return os.str();
}

/// A representative record: a passed SEC block with a two-rung attempt log.
core::JournalRecord sampleRecord(unsigned i) {
  core::JournalRecord rec;
  rec.digest = 0x9E3779B97F4A7C15ull * (i + 1);
  rec.fingerprint = 0xC2B2AE3D27D4EB4Full * (i + 1);
  core::BlockResult& b = rec.result;
  b.block = "block_" + std::to_string(i);
  b.passed = true;
  b.attempts = 2;
  b.seconds = 0.0421;
  b.detail = "proven-equivalent";
  core::AttemptRecord a;
  a.maxConflicts = 100000;
  a.outcome = "inconclusive";
  a.counters = sec::deterministicCounters(sec::SecStats{});
  a.counters["sat_conflicts"] = 104729;
  a.counters["sat_propagations"] = 1299709;
  a.counters["aig_nodes"] = 2048;
  b.counters = a.counters;
  b.attemptLog.push_back(a);
  a.rung = 1;
  a.maxConflicts = 400000;
  a.outcome = "proven-equivalent";
  b.attemptLog.push_back(a);
  return rec;
}

void runThroughput(benchutil::JsonReport& json, bool smoke) {
  const unsigned kRecords = smoke ? 64 : 4096;
  const std::string base = tempBase("throughput");
  std::printf("-- append/load throughput (%u records) --\n", kRecords);
  double appendSecs = 0.0;
  {
    core::Journal j(base, "throughput");
    const auto start = Clock::now();
    for (unsigned i = 0; i < kRecords; ++i) j.append(sampleRecord(i));
    appendSecs = secsSince(start);
  }
  const auto loadStart = Clock::now();
  const core::JournalLoaded loaded = core::Journal::load(base);
  const double loadSecs = secsSince(loadStart);
  const bool clean = loaded.damage == core::JournalDamage::kNone &&
                     loaded.records.size() == kRecords;
  std::printf("append: %8.0f records/s (fsync per record)\n",
              kRecords / appendSecs);
  std::printf("load:   %8.0f records/s (CRC + strict JSON + decode), "
              "clean=%s\n\n",
              kRecords / loadSecs, clean ? "yes" : "NO");
  json.beginRow("throughput")
      .field("records", kRecords)
      .field("append_per_sec", kRecords / appendSecs)
      .field("load_per_sec", kRecords / loadSecs)
      .field("load_clean", clean);
}

/// The measured plan: two real SEC problems and a scoreboard cosim block.
struct BenchPlan {
  std::unique_ptr<ir::Context> ctx = std::make_unique<ir::Context>();
  designs::GcdSecSetup gcd;
  designs::FirSecSetup fir;
  core::ResilientRunner runner{"journal_bench", {}};

  BenchPlan() {
    gcd = designs::makeGcdSecProblem(*ctx);
    fir = designs::makeFirSecProblem(*ctx, designs::FirBug::kNone);
    sec::SecOptions budgeted;
    budgeted.bmcBudget.maxConflicts = 1000000;
    budgeted.inductionBudget.maxConflicts = 1000000;
    runner.addSecBlock("gcd", 1, budgeted, [this](const sec::SecOptions& o) {
      return sec::checkEquivalence(*gcd.problem, o);
    });
    runner.addSecBlock("fir", 2, budgeted, [this](const sec::SecOptions& o) {
      return sec::checkEquivalence(*fir.problem, o);
    });
    runner.addCosimBlock("stream", 3, [](std::uint64_t) {
      cosim::CycleExactScoreboard sb;
      for (std::uint64_t c = 0; c < 16; ++c)
        sb.expect(c, bv::BitVector::fromUint(8, c * 7 + 1));
      for (std::uint64_t c = 0; c < 16; ++c)
        sb.observe(c, bv::BitVector::fromUint(8, c * 7 + 1));
      const auto stats = sb.finish();
      return core::ResilientRunner::CosimOutcome{stats.clean(),
                                                 "16 samples matched"};
    });
  }
};

/// Verdict parity: everything except wall-clock seconds.
bool sameVerdicts(const core::PlanReport& a, const core::PlanReport& b) {
  if (a.blocks.size() != b.blocks.size() || a.verified != b.verified ||
      a.failed != b.failed || a.inconclusive != b.inconclusive ||
      a.degraded != b.degraded)
    return false;
  for (std::size_t i = 0; i < a.blocks.size(); ++i) {
    const core::BlockResult& x = a.blocks[i];
    const core::BlockResult& y = b.blocks[i];
    if (x.block != y.block || x.passed != y.passed || x.detail != y.detail ||
        x.attempts != y.attempts || x.degraded != y.degraded ||
        x.faulted != y.faulted || x.inconclusive != y.inconclusive)
      return false;
  }
  return true;
}

bool runOverhead(benchutil::JsonReport& json, bool smoke) {
  const unsigned kReps = smoke ? 1 : 5;
  std::printf("-- plan overhead: journal on vs off (%u reps) --\n", kReps);
  double offSecs = 0.0, onSecs = 0.0, journalSecs = 0.0;
  std::uint64_t records = 0;
  bool parity = true;
  for (unsigned rep = 0; rep < kReps; ++rep) {
    core::PlanReport offReport, onReport;
    {
      BenchPlan plan;
      const auto start = Clock::now();
      offReport = plan.runner.runAll();
      offSecs += secsSince(start);
    }
    {
      BenchPlan plan;
      core::Journal j(tempBase("overhead"), "journal_bench");
      plan.runner.setJournal(&j);
      const auto start = Clock::now();
      onReport = plan.runner.runAll();
      onSecs += secsSince(start);
      records += j.appended();
      // Price the journal's own I/O directly: re-append this run's records
      // to a scratch journal and time just the encode+write+fsync.  Solver
      // wall time jitters more than the journal costs, so the on-vs-off
      // delta alone is noise-dominated on a fast plan; this isolates the
      // signal.
      core::Journal scratch(tempBase("scratch"), "journal_bench");
      const auto ioStart = Clock::now();
      for (std::size_t i = 0; i < onReport.blocks.size(); ++i) {
        core::JournalRecord rec;
        rec.digest = i + 1;
        rec.fingerprint = 0xFEEDull * (i + 1);
        rec.result = onReport.blocks[i];
        scratch.append(rec);
      }
      journalSecs += secsSince(ioStart);
    }
    parity = parity && sameVerdicts(offReport, onReport) &&
             offReport.allPassed();
  }
  const double deltaPct = (onSecs - offSecs) / offSecs * 100.0;
  const double ioPct = journalSecs / onSecs * 100.0;
  std::printf("unjournaled: %.3fs   journaled: %.3fs (%llu records)\n",
              offSecs, onSecs, static_cast<unsigned long long>(records));
  std::printf("journal I/O: %.2fms = %.2f%% of plan wall time "
              "(target < 5%%; on-vs-off delta %+.2f%% is solver noise)\n",
              journalSecs * 1e3, ioPct, deltaPct);
  std::printf("verdict parity on/off: %s\n\n", parity ? "yes" : "NO");
  json.beginRow("overhead")
      .field("reps", kReps)
      .field("unjournaled_seconds", offSecs)
      .field("journaled_seconds", onSecs)
      .field("records", records)
      .field("journal_io_seconds", journalSecs)
      .field("journal_io_pct", ioPct)
      .field("delta_pct", deltaPct)
      .field("parity", parity);
  return parity;
}

bool runRecovery(benchutil::JsonReport& json) {
  std::printf("-- recovery: resume-from-journal vs cold re-run --\n");
  // The "crashed" run, fully journaled.
  const std::string base = tempBase("recovery");
  core::PlanReport recorded;
  {
    BenchPlan plan;
    core::Journal j(base, "journal_bench");
    plan.runner.setJournal(&j);
    recorded = plan.runner.runAll();
  }
  // Cold: no journal, everything recomputed.
  double coldSecs = 0.0;
  core::PlanReport coldReport;
  {
    BenchPlan plan;
    const auto start = Clock::now();
    coldReport = plan.runner.runAll();
    coldSecs = secsSince(start);
  }
  bool parity = sameVerdicts(recorded, coldReport);
  struct Case {
    const char* name;
    std::size_t keepRecords;  // truncate the WAL to this many frames
  };
  for (const Case c : {Case{"full", 3}, Case{"half", 1}}) {
    // Emulate the kill by reloading and admitting only the first
    // keepRecords frames (the loader's prefix property makes a byte-level
    // truncation equivalent; journal_test sweeps that exhaustively).
    core::JournalLoaded loaded = core::Journal::load(base);
    if (loaded.records.size() > c.keepRecords)
      loaded.records.resize(c.keepRecords);
    BenchPlan plan;
    const auto start = Clock::now();
    const unsigned admitted = plan.runner.resumePlan(loaded);
    const core::PlanReport resumed = plan.runner.runAll();
    const double resumeSecs = secsSince(start);
    parity = parity && sameVerdicts(resumed, coldReport) &&
             resumed.resumed == admitted;
    std::printf("%-5s resume: admitted %u/3, %.4fs vs cold %.4fs "
                "(speedup x%.1f)\n",
                c.name, admitted, resumeSecs, coldSecs,
                coldSecs / resumeSecs);
    json.beginRow("recovery")
        .field("case", c.name)
        .field("admitted", admitted)
        .field("resume_seconds", resumeSecs)
        .field("cold_seconds", coldSecs)
        .field("speedup", coldSecs / resumeSecs);
  }
  std::printf("verdict parity resumed/cold: %s\n\n", parity ? "yes" : "NO");
  return parity;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = benchutil::smokeMode(argc, argv);
  benchutil::JsonReport json(argc, argv, "journal");
  std::printf("JRNL: write-ahead journal overhead and recovery%s\n\n",
              smoke ? " (smoke)" : "");
  runThroughput(json, smoke);
  bool ok = runOverhead(json, smoke);
  ok = runRecovery(json) && ok;
  json.beginRow("summary").field("parity", ok);
  // Exit gate: the journal must never affect a verdict.  (Timing is a
  // measurement, not a gate — see the header comment.)
  return json.write() && ok ? 0 : 1;
}
