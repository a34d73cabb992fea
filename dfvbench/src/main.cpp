// dfvbench — the DFV library's end-to-end benchmark.
//
//   dfvbench --workload prove-suite|bug-hunt|cosim-stream --seed N
//            --seconds S --trace 0|1 --workdir DIR
//
// Passes over the workload repeat until S seconds are used, each preceded
// by kSetupsPerPass timed set-ups (their median is setup_s).  After every
// pass each verdict and output is held against an independent answer, with
// the check outside the timed phases.  With --trace 0
// the last stdout line carries the end-to-end metrics; with --trace 1 passes
// alternate traced/untraced and it carries the per-layer metrics from the
// traced ones, plus the tracing overhead.  A full report (host record,
// blocks, per-span totals and self times, spans of the first traced pass)
// goes to DIR.  Every document emitted round-trips through common::json.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "jsonw.h"
#include "trace.h"
#include "workload.h"

#ifndef DFVBENCH_BUILD_TYPE
#define DFVBENCH_BUILD_TYPE "unknown"
#endif

using namespace dfvbench;

namespace {

constexpr int kSetupsPerPass = 3;

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string workDir = ".";
};

Args parseArgs(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string v = argv[i + 1];
    if (flag == "--workload")
      a.workload = v;
    else if (flag == "--seed")
      a.seed = std::stoull(v);
    else if (flag == "--seconds")
      a.seconds = std::stod(v);
    else if (flag == "--trace")
      a.trace = v == "1";
    else if (flag == "--workdir")
      a.workDir = v;
    else
      DFV_CHECK_MSG(false, "unknown flag " << flag);
  }
  DFV_CHECK_MSG(a.seconds > 0, "--seconds must be positive");
  return a;
}

double median(std::vector<double> v) {
  DFV_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/// Linear-interpolation percentile, q in [0, 1].
double percentile(std::vector<double> v, double q) {
  DFV_CHECK(!v.empty());
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

double peakRssMb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

struct Metric {
  std::string name;
  std::string unit;
  double value;
};

/// A per-layer metric: how it is computed from one traced pass's sums.
struct LayerDef {
  const char* name;
  const char* unit;
  std::function<double(std::map<std::string, double>&)> get;
};

std::function<double(std::map<std::string, double>&)> sumOf(
    std::vector<std::string> keys) {
  return [keys](std::map<std::string, double>& s) {
    double v = 0;
    for (const auto& k : keys) v += s[k];
    return v;
  };
}

std::function<double(std::map<std::string, double>&)> ratioOf(
    std::string num, std::string den) {
  return [num, den](std::map<std::string, double>& s) {
    return s[den] > 0 ? s[num] / s[den] : 0.0;
  };
}

/// Layers measured in the passes (per-pass totals).
const std::vector<LayerDef>& passLayers() {
  static const std::vector<LayerDef> defs = {
      {"aig.rewrite_s", "s", sumOf({"aig.rewrite_s"})},
      {"aig.fraig_s", "s", sumOf({"aig.fraig_s"})},
      {"aig.rewrite_nodes_before", "count",
       sumOf({"aig.rewrite_nodes_before"})},
      {"aig.fraig_sat_calls", "count", sumOf({"aig.fraig_sat_calls"})},
      {"aig.fraig_merge_ratio", "ratio",
       ratioOf("aig.fraig_merged_nodes", "aig.fraig_nodes_before")},
      {"sat.solve_s", "s", sumOf({"sat.solve_s"})},
      {"sat.conflicts", "count", sumOf({"sat.conflicts"})},
      {"sat.propagations", "count", sumOf({"sat.propagations"})},
      {"slice.s", "s", sumOf({"slice.s"})},
      {"absint.s", "s", sumOf({"absint.s"})},
      {"inv.cert_s", "s", sumOf({"inv.cert_s"})},
      {"inv.certified", "count", sumOf({"inv.certified"})},
      {"sec.check_s", "s", sumOf({"sec::checkEquivalence"})},
      {"sec.unattributed_s", "s", sumOf({"sec.unattributed_s"})},
      {"sec.bmc_aig_nodes", "count", sumOf({"sec.bmc_aig_nodes"})},
      {"sec.induction_aig_nodes", "count", sumOf({"sec.induction_aig_nodes"})},
      {"drc.s", "s", sumOf({"drc::runDrc"})},
      {"drc.diagnostics", "count", sumOf({"drc.diagnostics"})},
      {"core.runner_overhead_s", "s", sumOf({"core.runner_overhead_s"})},
      {"core.queue_wait_s", "s", sumOf({"core.queue_wait_s"})},
      {"core.worker_busy_frac", "ratio", sumOf({"core.worker_busy_frac"})},
      {"rtl.sim_s", "s",
       sumOf({"cosim::WrappedRtl::run", "designs::runCache"})},
      {"rtl.cycles_per_s", "1/s",
       [](std::map<std::string, double>& s) {
         const double t = s["cosim::WrappedRtl::run"] + s["designs::runCache"];
         return t > 0 ? s["rtl.cycles"] / t : 0.0;
       }},
      {"slm.golden_s", "s", sumOf({"slm::golden"})},
      {"slm.kernel_s", "s", sumOf({"slm::Kernel::run"})},
      {"slm.deltas", "count", sumOf({"slm.deltas"})},
      {"cosim.scoreboard_s", "s", sumOf({"cosim::InOrderScoreboard"})},
      {"ir.eval_s", "s", sumOf({"core::makeRandomCosimFallback()"})},
  };
  return defs;
}

/// Layers measured in set-up (per set-up totals).
const std::vector<LayerDef>& setupLayers() {
  static const std::vector<LayerDef> defs = {
      {"designs.build_s", "s", sumOf({"designs::make"})},
      {"rtl.mutate_s", "s", sumOf({"rtl::mutate"})},
      {"workload.gen_s", "s", sumOf({"workload::gen"})},
  };
  return defs;
}

/// Engine-reported SEC durations must fit inside the span measured around
/// the call: a negative remainder means the benchmark attributes time twice.
std::vector<std::string> attributionErrors(const Trace& trace) {
  std::vector<std::string> errors;
  for (const SpanRecord& s : trace.spans()) {
    if (s.name != "sec::checkEquivalence") continue;
    for (const auto& [k, v] : s.counters)
      if (k == "sec.unattributed_s" && v < -1e-3)
        errors.push_back("SEC call of block " + std::to_string(s.block) +
                         ": engine layer times exceed the call by " +
                         std::to_string(-v) + " s");
  }
  return errors;
}

void writeSecAttribution(JsonWriter& w, const Trace& trace) {
  static const char* kParts[] = {"slice.s",     "absint.s",      "inv.cert_s",
                                 "sat.solve_s", "aig.rewrite_s", "aig.fraig_s",
                                 "sec.unattributed_s"};
  w.beginArray();
  for (const SpanRecord& s : trace.spans()) {
    if (s.name != "sec::checkEquivalence") continue;
    // The parent is the "block:<name>" span the plan callback opened.
    const std::string parent =
        s.parent < 0 ? ""
                     : trace.spans()[static_cast<std::size_t>(s.parent)].name;
    w.beginObject()
        .field("block", parent.substr(parent.find(':') + 1))
        .field("sec.check_s", s.seconds());
    for (const char* part : kParts)
      for (const auto& [k, v] : s.counters)
        if (k == part) w.field(k, v);
    w.endObject();
  }
  w.endArray();
}

std::unique_ptr<Workload> makeWorkload(const Args& a, unsigned nproc) {
  if (a.workload == "prove-suite") return makeProveSuite(a.workDir);
  if (a.workload == "bug-hunt") return makeBugHunt(a.seed, nproc);
  if (a.workload == "cosim-stream") return makeCosimStream(a.seed);
  DFV_CHECK_MSG(false, "unknown workload '" << a.workload << "'");
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    const Args args = parseArgs(argc, argv);
    // Strict-JSON self-test: every control character must survive.
    {
      std::string nasty = "\"\\/";
      for (char c = 1; c < 0x20; ++c) nasty += c;
      JsonWriter w;
      w.beginObject().field(nasty, nasty).endObject();
      const auto parsed = dfv::common::parseJson(checkedJson(w.str()));
      DFV_CHECK(parsed.at(nasty).asString() == nasty);
    }
    const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
    std::unique_ptr<Workload> wl = makeWorkload(args, nproc);

    // Set-up runs kSetupsPerPass times before every pass (the pass uses the
    // last build), so the set-up samples span the whole run instead of one
    // burst of a few milliseconds at its start.
    Trace trace;
    Trace* tr = args.trace ? &trace : nullptr;
    std::vector<double> setupTimes;
    std::map<std::string, std::vector<double>> setupLayerValues;
    auto setUp = [&] {
      for (int i = 0; i < kSetupsPerPass; ++i) {
        trace.clear();
        const auto t0 = Clock::now();
        wl->setup(tr);
        setupTimes.push_back(secondsSince(t0));
        if (tr != nullptr) {
          auto sums = trace.sums();
          for (const LayerDef& d : setupLayers())
            setupLayerValues[d.name].push_back(d.get(sums));
        }
      }
    };

    // --- measured passes ----------------------------------------------------
    std::vector<double> walls, tracedWalls, untracedWalls;
    std::vector<BlockOutcome> blocks;
    std::vector<BlockOutcome> lastBlocks;
    std::map<std::string, std::vector<double>> layerValues;
    std::vector<std::string> errors;
    std::string firstTracedSpans;
    std::map<std::string, Trace::NameTotals> spanTotals;
    std::string secAttribution = "[]";
    const auto loopStart = Clock::now();
    for (unsigned pass = 0;; ++pass) {
      const bool traced = args.trace && pass % 2 == 0;
      setUp();
      trace.clear();
      PassResult pr = wl->runPass(traced ? &trace : nullptr);
      wl->check(pr);
      walls.push_back(pr.wall);
      for (const BlockOutcome& b : pr.blocks)
        if (!b.disagreement.empty())
          errors.push_back(b.name + ": " + b.disagreement);
      if (traced) {
        tracedWalls.push_back(pr.wall);
        for (const auto& e : attributionErrors(trace)) errors.push_back(e);
        auto sums = trace.sums();
        for (const auto& [k, v] : pr.layers) sums[k] += v;
        for (const LayerDef& d : passLayers())
          layerValues[d.name].push_back(d.get(sums));
        for (const auto& [name, t] : trace.totalsByName()) {
          Trace::NameTotals& acc = spanTotals[name];
          acc.count += t.count;
          acc.totalS += t.totalS;
          acc.selfS += t.selfS;
        }
        if (firstTracedSpans.empty()) {
          JsonWriter sw;
          trace.writeSpans(sw);
          firstTracedSpans = sw.str();
          JsonWriter aw;
          writeSecAttribution(aw, trace);
          secAttribution = aw.str();
        }
      } else {
        untracedWalls.push_back(pr.wall);
      }
      blocks.insert(blocks.end(), pr.blocks.begin(), pr.blocks.end());
      lastBlocks = std::move(pr.blocks);
      const unsigned minPasses = args.trace ? 2 : 1;
      if (pass + 1 >= minPasses &&
          secondsSince(loopStart) + median(walls) > args.seconds)
        break;
    }
    const double measured = secondsSince(loopStart);

    // --- metrics ---------------------------------------------------------
    std::uint64_t attempted = blocks.size();
    std::uint64_t failed = 0, decided = 0, items = 0;
    std::map<std::string, std::vector<double>> timesByBlock;
    for (const BlockOutcome& b : blocks) {
      failed += b.disagreement.empty() ? 0 : 1;
      decided += b.decisive ? 1 : 0;
      items += b.items;
      timesByBlock[b.name].push_back(b.seconds);
    }
    // A block's time to verdict is its median over the passes; the verdict
    // metrics summarize the workload's blocks.
    std::vector<double> times;
    double logSum = 0;
    for (const auto& [name, t] : timesByBlock) {
      times.push_back(median(t));
      logSum += std::log(std::max(times.back(), 1e-9));
    }
    double wallSum = 0;
    for (const double w : walls) wallSum += w;
    const double n = static_cast<double>(attempted);

    std::vector<Metric> metrics;
    if (!args.trace) {
      metrics = {
          {"setup_s", "s", median(setupTimes)},
          {"wall_s", "s", median(walls)},
          {"block_geomean_s", "s",
           std::exp(logSum / static_cast<double>(times.size()))},
          {"blocks_per_s", "1/s", n / wallSum},
          {"verdict_p50_s", "s", percentile(times, 0.50)},
          {"verdict_p75_s", "s", percentile(times, 0.75)},
          {"items_per_s", "1/s", static_cast<double>(items) / wallSum},
          {"decided_frac", "ratio", static_cast<double>(decided) / n},
          {"pass_frac", "ratio", static_cast<double>(attempted - failed) / n},
          {"peak_rss_mb", "MB", peakRssMb()},
      };
    } else {
      for (const LayerDef& d : passLayers())
        metrics.push_back({d.name, d.unit, median(layerValues[d.name])});
      for (const LayerDef& d : setupLayers())
        metrics.push_back({d.name, d.unit, median(setupLayerValues[d.name])});
      metrics.push_back({"trace.overhead_frac", "ratio",
                         median(tracedWalls) / median(untracedWalls) - 1.0});
    }

    // --- report file -----------------------------------------------------
    JsonWriter rep;
    rep.beginObject();
    rep.key("host")
        .beginObject()
        .field("nproc", nproc)
        .field("threads", wl->threads())
        .field("build_type", DFVBENCH_BUILD_TYPE)
        .field("compiler", __VERSION__)
        .field("seed", args.seed)
        .field("workload", args.workload)
        .field("trace", args.trace)
        .field("run_seconds", args.seconds)
        .endObject();
    auto writeMetrics = [&metrics](JsonWriter& w) {
      w.key("metrics").beginObject();
      for (const Metric& m : metrics)
        w.key(m.name)
            .beginObject()
            .field("value", m.value)
            .field("unit", m.unit)
            .endObject();
      w.endObject();
    };
    writeMetrics(rep);
    rep.field("attempted", attempted).field("failed", failed);
    rep.field("measured_s", measured);
    rep.key("setup_s").beginArray();
    for (const double t : setupTimes) rep.value(t);
    rep.endArray();
    rep.key("pass_wall_s").beginArray();
    for (const double w : walls) rep.value(w);
    rep.endArray();
    rep.key("errors").beginArray();
    for (const auto& e : errors) rep.value(e);
    rep.endArray();
    rep.key("last_pass_blocks").beginArray();
    for (const BlockOutcome& b : lastBlocks)
      rep.beginObject()
          .field("name", b.name)
          .field("seconds", b.seconds)
          .field("queue_wait_s", b.queueWait)
          .field("verdict", b.verdict)
          .field("items", b.items)
          .field("disagreement", b.disagreement)
          .endObject();
    rep.endArray();
    rep.key("descriptions").beginObject();
    for (const auto& [block, text] : wl->descriptions()) rep.field(block, text);
    rep.endObject();
    if (args.trace) {
      rep.key("span_totals").beginObject();
      for (const auto& [name, t] : spanTotals)
        rep.key(name)
            .beginObject()
            .field("count", t.count)
            .field("total_s", t.totalS)
            .field("self_s", t.selfS)
            .endObject();
      rep.endObject();
      rep.key("sec_attribution").embed(secAttribution);
      rep.key("first_traced_pass_spans").embed(firstTracedSpans);
    }
    rep.endObject();
    const std::string& report = rep.str();
    const std::string reportPath = args.workDir + "/report-" + args.workload +
                                   "-seed" + std::to_string(args.seed) +
                                   "-trace" + (args.trace ? "1" : "0") +
                                   ".json";
    {
      std::ofstream f(reportPath);
      f << checkedJson(report) << "\n";
      DFV_CHECK_MSG(f.good(), "cannot write " << reportPath);
    }

    // --- stdout ----------------------------------------------------------
    std::printf("host: nproc=%u threads=%u build=%s seed=%llu workload=%s "
                "trace=%d\n",
                nproc, wl->threads(), DFVBENCH_BUILD_TYPE,
                static_cast<unsigned long long>(args.seed),
                args.workload.c_str(), args.trace ? 1 : 0);
    std::printf("passes=%zu blocks=%llu measured=%.3f s report=%s\n",
                walls.size(), static_cast<unsigned long long>(attempted),
                measured, reportPath.c_str());
    std::printf("verdict percentiles over %zu blocks x %zu passes; "
                "fail_frac = %.6g ratio (%llu of %llu)\n",
                times.size(), walls.size(), static_cast<double>(failed) / n,
                static_cast<unsigned long long>(failed),
                static_cast<unsigned long long>(attempted));
    for (const auto& e : errors) std::printf("FAILED %s\n", e.c_str());
    for (const Metric& m : metrics)
      std::printf("%-28s %.6g %s\n", m.name.c_str(), m.value, m.unit.c_str());

    JsonWriter out;
    out.beginObject()
        .field("correct", errors.empty())
        .field("attempted", attempted)
        .field("failed",
               std::max<std::uint64_t>(failed, errors.empty() ? 0 : 1));
    writeMetrics(out);
    out.endObject();
    std::printf("%s\n", checkedJson(out.str()).c_str());
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dfvbench: %s\n", e.what());
    return 1;
  }
}
