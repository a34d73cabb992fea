// The two SEC workloads: one core::ResilientRunner plan of SEC blocks each.
//
// prove-suite runs every pair that should be equivalent serially, with a
// journal attached and drc::runDrc before each block, and holds each verdict
// against the answer the design's header documents.  bug-hunt runs every
// rtl::mutate mutant of the FIR and conv-window RTL plus the named bug pairs
// on a core::ParallelExecutor, and holds each verdict against the oracles in
// oracle.h.
#include <algorithm>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "aig/rewrite.h"
#include "core/journal.h"
#include "core/parallel.h"
#include "core/resilient.h"
#include "designs/conv.h"
#include "designs/fir.h"
#include "designs/fpadd.h"
#include "designs/gcd.h"
#include "designs/histo.h"
#include "designs/truncsum.h"
#include "designs/wrapcnt.h"
#include "drc/drc.h"
#include "oracle.h"
#include "rtl/lower.h"
#include "rtl/mutate.h"
#include "sec/engine.h"
#include "slmc/elaborate.h"
#include "workload.h"

namespace dfvbench {

using namespace dfv;

namespace {

/// Per-phase conflict cap of every SEC block: far above what any block
/// needs, so verdicts stay decisive, while a change that makes a solve run
/// away ends inconclusive and shows in decided_frac.
constexpr std::int64_t kConflictCap = 2'000'000;
/// Random co-simulation given to each mutant SEC proves equivalent.
constexpr std::size_t kOracleFirSamples = 4000;
constexpr std::size_t kOracleConvWindows = 4000;

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const char c : s) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ull;
  }
  return h;
}

/// A built SEC problem plus everything that must outlive it.
struct Built {
  std::shared_ptr<const void> keep;
  const sec::SecProblem* problem = nullptr;
  std::optional<rtl::Module> rtl;  ///< the checked netlist, when there is one
  std::string description;
};

template <typename Setup>
Built hold(Setup setup, std::optional<rtl::Module> rtl = std::nullopt,
           std::string description = "") {
  auto owned = std::make_shared<Setup>(std::move(setup));
  Built b;
  b.problem = owned->problem.get();
  b.keep = std::move(owned);
  b.rtl = std::move(rtl);
  b.description = std::move(description);
  return b;
}

/// The conv window block: SLM-C window function vs the window netlist.
struct ConvWinSetup {
  std::unique_ptr<ir::TransitionSystem> slm;
  std::unique_ptr<ir::TransitionSystem> rtl;
  std::unique_ptr<sec::SecProblem> problem;
};

ConvWinSetup makeConvWinProblem(ir::Context& ctx, const rtl::Module& window) {
  ConvWinSetup s;
  auto e = slmc::elaborate(
      designs::makeConvWindowSlm(designs::ConvKernel::sharpen()), ctx, "s.");
  DFV_CHECK(e.ok);
  s.slm = std::move(e.ts);
  s.rtl = std::make_unique<ir::TransitionSystem>(
      rtl::lowerToTransitionSystem(window, ctx, "r."));
  s.problem = std::make_unique<sec::SecProblem>(ctx, *s.slm, 1, *s.rtl, 1);
  for (unsigned i = 0; i < 9; ++i) {
    std::string p = "p";
    p += std::to_string(i);
    auto v = s.problem->declareTxnVar(p, 8);
    s.problem->bindInput(sec::Side::kSlm, "s." + p, 0, v);
    s.problem->bindInput(sec::Side::kRtl, "r." + p, 0, v);
  }
  s.problem->checkOutputs("ret", 0, "pix", 0);
  return s;
}

/// Returns "" when the verdict agrees with the independent answer.
using Judge = std::function<std::string(const sec::SecResult&, const Built&)>;

struct SecCase {
  std::string name;
  unsigned bound;
  std::function<Built(ir::Context&, Trace*)> build;
  Judge judge;
};

Judge expectVerdict(sec::Verdict documented) {
  return [documented](const sec::SecResult& r, const Built&) -> std::string {
    if (r.verdict == documented) return "";
    return std::string("verdict ") + sec::verdictName(r.verdict) +
           ", documented " + sec::verdictName(documented);
  };
}

/// Not-equivalent verdicts are replayed on the netlist; proven ones get
/// random co-simulation.  Bounded and inconclusive verdicts claim nothing a
/// finite run could contradict.
Judge mutantJudge(oracle::SlmGolden golden,
                  std::function<std::string(const rtl::Module&)> cosim) {
  return [golden, cosim](const sec::SecResult& r,
                         const Built& b) -> std::string {
    if (r.verdict == sec::Verdict::kNotEquivalent)
      return r.cex.has_value()
                 ? oracle::replayOnSimulator(*b.rtl, *b.problem, *r.cex, golden)
                 : "not-equivalent without a counterexample";
    if (r.verdict == sec::Verdict::kProvenEquivalent) return cosim(*b.rtl);
    return "";
  };
}

Judge expectBug(Judge replay) {
  return [replay](const sec::SecResult& r, const Built& b) -> std::string {
    if (r.verdict != sec::Verdict::kNotEquivalent)
      return std::string("documented bug not found: ") +
             sec::verdictName(r.verdict);
    return replay(r, b);
  };
}

template <typename Make>
std::function<Built(ir::Context&, Trace*)> design(Make make) {
  return [make](ir::Context& ctx, Trace* tr) {
    Span s(tr, "designs::make");
    return hold(make(ctx));
  };
}

/// Records the call and attaches the engine's SecStats as counters; the
/// part of the span they do not cover is sec.unattributed_s (unroll,
/// bit-blast, CNF, counterexample replay, glue).
sec::SecResult checkTraced(Trace* tr, const sec::SecProblem& problem,
                           const sec::SecOptions& options, int block) {
  Span span(tr, "sec::checkEquivalence", block);
  sec::SecResult r = sec::checkEquivalence(problem, options);
  if (!span.active()) return r;
  const double total = span.end();
  const sec::SecStats& st = r.stats;
  double solveS = 0, conflicts = 0, props = 0, rwBefore = 0, fraigBefore = 0,
         fraigMerged = 0;
  auto fold = [&](const sec::PhaseStats& p) {
    solveS += p.seconds;
    conflicts += static_cast<double>(p.conflicts);
    props += static_cast<double>(p.propagations);
    rwBefore += static_cast<double>(p.rewriteNodesBefore);
    fraigBefore += static_cast<double>(p.fraigNodesBefore);
    fraigMerged += static_cast<double>(p.fraigMergedNodes);
  };
  for (const sec::PhaseStats& p : st.bmcTransactions) fold(p);
  fold(st.induction);
  const double rewriteS = st.rewriteTimeMs * 1e-3;
  const double fraigS = st.fraigTimeMs * 1e-3;
  span.counter("slice.s", st.slice.seconds);
  span.counter("absint.s", st.absint.seconds);
  span.counter("inv.cert_s", st.inv.certSeconds);
  span.counter("inv.certified", static_cast<double>(st.inv.certified));
  span.counter("sat.solve_s", solveS);
  span.counter("sat.conflicts", conflicts);
  span.counter("sat.propagations", props);
  span.counter("aig.rewrite_s", rewriteS);
  span.counter("aig.rewrite_nodes_before", rwBefore);
  span.counter("aig.fraig_s", fraigS);
  span.counter("aig.fraig_sat_calls", static_cast<double>(st.fraigSatCalls));
  span.counter("aig.fraig_nodes_before", fraigBefore);
  span.counter("aig.fraig_merged_nodes", fraigMerged);
  span.counter("sec.bmc_aig_nodes", static_cast<double>(st.bmcAigNodes));
  span.counter("sec.induction_aig_nodes",
               static_cast<double>(st.inductionAigNodes));
  span.counter("sec.unattributed_s",
               total - (st.slice.seconds + st.absint.seconds +
                        st.inv.certSeconds + solveS + rewriteS + fraigS));
  return r;
}

class SecPlan final : public Workload {
 public:
  struct Config {
    std::string planName;
    bool drc = false;
    std::string journalPath;  ///< "" = no journal
    unsigned threads = 1;     ///< > 1 runs blocks on a ParallelExecutor
  };

  SecPlan(std::vector<SecCase> cases, Config config)
      : cases_(std::move(cases)), config_(std::move(config)) {
    // The submitting thread helps inside wait(), so threads-1 workers keep
    // at most `threads` blocks running at once.
    if (config_.threads > 1)
      exec_ = std::make_unique<core::ParallelExecutor>(config_.threads - 1);
  }

  unsigned threads() const override { return config_.threads; }

  void setup(Trace* tr) override {
    {
      Span warm(tr, "aig::npn::canonicalize");
      (void)aig::npn::canonicalize(0);  // builds the NPN table on first use
    }
    runner_.reset();
    blocks_.clear();
    blocks_.resize(cases_.size());
    core::RetryPolicy policy;
    policy.maxAttempts = 1;
    runner_ = std::make_unique<core::ResilientRunner>(config_.planName, policy);
    for (std::size_t i = 0; i < cases_.size(); ++i) {
      Block& b = blocks_[i];
      b.ctx = std::make_unique<ir::Context>();
      b.built = cases_[i].build(*b.ctx, tr);
      sec::SecOptions o;
      o.boundTransactions = cases_[i].bound;
      o.bmcBudget.maxConflicts = kConflictCap;
      o.inductionBudget.maxConflicts = kConflictCap;
      runner_->addSecBlock(
          cases_[i].name, fnv1a(cases_[i].name), o,
          [this, i](const sec::SecOptions& opts) { return runBlock(i, opts); });
    }
    runner_->setExecutor(exec_.get());
  }

  PassResult runPass(Trace* tr) override {
    PassResult pass;
    passTrace_ = tr;
    const auto t0 = Clock::now();
    Span plan(tr, "core::ResilientRunner::runAll");
    planSpan_ = plan.id();
    std::optional<core::Journal> journal;
    if (!config_.journalPath.empty()) {
      journal.emplace(config_.journalPath, config_.planName);
      runner_->setJournal(&*journal);
    }
    planStart_ = Clock::now();
    const core::PlanReport report = runner_->runAll();
    const double planWall = secondsSince(planStart_);
    runner_->setJournal(nullptr);
    journal.reset();
    plan.end();
    pass.wall = secondsSince(t0);

    double busy = 0.0;
    std::vector<double> waits;
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
      const Block& b = blocks_[i];
      const core::BlockResult& br = report.blocks[i];
      BlockOutcome o;
      o.name = cases_[i].name;
      o.seconds = b.seconds;
      o.queueWait = b.queueWait;
      o.faulted = br.faulted;
      o.verdict = br.faulted ? br.detail : sec::verdictName(b.result.verdict);
      o.decisive = !br.faulted &&
                   (b.result.verdict == sec::Verdict::kProvenEquivalent ||
                    b.result.verdict == sec::Verdict::kNotEquivalent);
      o.items = b.result.stats.transactionsChecked;
      busy += b.seconds;
      waits.push_back(b.queueWait);
      pass.blocks.push_back(std::move(o));
    }
    const double capacity = planWall * threads();
    pass.layers["core.runner_overhead_s"] = capacity - busy;
    pass.layers["core.worker_busy_frac"] = busy / capacity;
    std::sort(waits.begin(), waits.end());
    pass.layers["core.queue_wait_s"] = waits[waits.size() / 2];
    return pass;
  }

  void check(PassResult& pass) override {
    for (std::size_t i = 0; i < blocks_.size(); ++i) {
      BlockOutcome& o = pass.blocks[i];
      if (o.faulted)
        o.disagreement = "faulted: " + o.verdict;
      else
        o.disagreement = cases_[i].judge(blocks_[i].result, blocks_[i].built);
    }
  }

  std::vector<std::pair<std::string, std::string>> descriptions()
      const override {
    std::vector<std::pair<std::string, std::string>> out;
    for (std::size_t i = 0; i < blocks_.size(); ++i)
      if (!blocks_[i].built.description.empty())
        out.emplace_back(cases_[i].name, blocks_[i].built.description);
    return out;
  }

 private:
  struct Block {
    std::unique_ptr<ir::Context> ctx;  // outlives `built`
    Built built;
    sec::SecResult result;
    double seconds = 0.0;
    double queueWait = 0.0;
  };

  sec::SecResult runBlock(std::size_t i, const sec::SecOptions& options) {
    Block& b = blocks_[i];
    b.result = {};  // a runner that throws leaves no stale verdict behind
    const auto t0 = Clock::now();
    b.queueWait = secondsSince(planStart_, t0);
    const int block = static_cast<int>(i);
    {
      Span span(passTrace_, "block:" + cases_[i].name, block, planSpan_);
      if (config_.drc) {
        Span d(passTrace_, "drc::runDrc", block);
        const drc::DrcReport rep =
            drc::runDrc(*b.built.problem, cases_[i].name);
        d.counter("drc.diagnostics",
                  static_cast<double>(rep.diagnostics().size()));
      }
      b.result = checkTraced(passTrace_, *b.built.problem, options, block);
    }
    b.seconds = secondsSince(t0);
    return b.result;
  }

  std::vector<SecCase> cases_;
  Config config_;
  std::unique_ptr<core::ParallelExecutor> exec_;
  std::vector<Block> blocks_;
  std::unique_ptr<core::ResilientRunner> runner_;
  Trace* passTrace_ = nullptr;
  int planSpan_ = -1;
  Clock::time_point planStart_;
};

}  // namespace

std::unique_ptr<Workload> makeProveSuite(std::string workDir) {
  using sec::Verdict;
  const unsigned kDefaultBound = sec::SecOptions{}.boundTransactions;
  std::vector<SecCase> cases = {
      {"fir", designs::kFirTaps + 2,
       design([](ir::Context& c) {
         return designs::makeFirSecProblem(c, designs::FirBug::kNone);
       }),
       expectVerdict(Verdict::kProvenEquivalent)},
      {"gcd", kDefaultBound, design(designs::makeGcdSecProblem),
       expectVerdict(Verdict::kProvenEquivalent)},
      {"gcd_breakif", kDefaultBound, design(designs::makeGcdBreakIfSecProblem),
       expectVerdict(Verdict::kProvenEquivalent)},
      {"histo", kDefaultBound, design(designs::makeHistoSecProblem),
       expectVerdict(Verdict::kProvenEquivalent)},
      {"wrapcnt", kDefaultBound, design(designs::makeWrapcntSecProblem),
       expectVerdict(Verdict::kProvenEquivalent)},
      {"truncsum", kDefaultBound,
       design([](ir::Context& c) {
         return designs::makeTruncsumSecProblem(c, false);
       }),
       expectVerdict(Verdict::kProvenEquivalent)},
      {"fpadd8_safe", kDefaultBound,
       design([](ir::Context& c) {
         return designs::makeFpAddSecProblem(c, fp::Format::minifloat(), true);
       }),
       expectVerdict(Verdict::kProvenEquivalent)},
      {"conv_win", kDefaultBound,
       design([](ir::Context& c) {
         return makeConvWinProblem(
             c, designs::makeConvWindowRtl(designs::ConvKernel::sharpen()));
       }),
       expectVerdict(Verdict::kProvenEquivalent)},
  };
  return std::make_unique<SecPlan>(
      std::move(cases),
      SecPlan::Config{"prove-suite", true, workDir + "/prove-suite.journal",
                      1});
}

std::unique_ptr<Workload> makeBugHunt(std::uint64_t seed, unsigned threads) {
  using sec::Verdict;
  const unsigned kDefaultBound = sec::SecOptions{}.boundTransactions;
  const unsigned kFirBound = designs::kFirTaps + 2;
  const std::uint64_t cosimSeed = seed ^ 0xb06b06ull;
  auto firCosim = [cosimSeed](const rtl::Module& m) {
    return oracle::firRandomCosim(m, cosimSeed, kOracleFirSamples);
  };
  auto convCosim = [cosimSeed](const rtl::Module& m) {
    return oracle::convWindowRandomCosim(m, cosimSeed, kOracleConvWindows);
  };
  const Judge firJudge = mutantJudge(oracle::firGolden, firCosim);
  const Judge convJudge = mutantJudge(oracle::convWindowGolden, convCosim);

  std::vector<SecCase> cases;
  // Mutants of a golden netlist: rtl::mutate runs in set-up, per block.
  auto addMutants = [&](const std::string& prefix, const rtl::Module& golden,
                        unsigned bound, const Judge& judge, auto makeProblem) {
    const std::size_t sites = rtl::countMutationSites(golden);
    for (std::size_t i = 0; i < sites; ++i) {
      cases.push_back(
          {prefix + std::to_string(i), bound,
           [golden, i, makeProblem](ir::Context& ctx, Trace* tr) {
             std::optional<rtl::Mutation> m;
             {
               Span s(tr, "rtl::mutate");
               m = rtl::mutate(golden, i);
             }
             DFV_CHECK(m.has_value());
             Span s(tr, "designs::make");
             return hold(makeProblem(ctx, m->module), m->module,
                         m->description);
           },
           judge});
    }
  };
  // The longest blocks first, so the parallel plan's tail stays short.
  // The window is combinational: one transaction is its whole behaviour.
  addMutants("conv_win_m",
             designs::makeConvWindowRtl(designs::ConvKernel::sharpen()), 1,
             convJudge, makeConvWinProblem);
  addMutants("fir_m", designs::makeFirRtl(designs::FirBug::kNone), kFirBound,
             firJudge, designs::makeFirSecProblemFor);

  auto firBug = [&](const char* name, designs::FirBug bug) {
    cases.push_back({name, kFirBound,
                     [bug](ir::Context& ctx, Trace* tr) {
                       Span s(tr, "designs::make");
                       rtl::Module m = designs::makeFirRtl(bug);
                       return hold(designs::makeFirSecProblemFor(ctx, m), m);
                     },
                     expectBug(firJudge)});
  };
  firBug("fir_narrow", designs::FirBug::kNarrowAccumulator);
  firBug("fir_coef", designs::FirBug::kWrongCoefficient);
  firBug("fir_drop", designs::FirBug::kDroppedTap);
  cases.push_back(
      {"truncsum_narrow", kDefaultBound,
       [](ir::Context& ctx, Trace* tr) {
         Span s(tr, "designs::make");
         return hold(designs::makeTruncsumSecProblem(ctx, true),
                     designs::makeTruncsumRtl(true));
       },
       expectBug([](const sec::SecResult& r, const Built& b) {
         return oracle::replayOnSimulator(*b.rtl, *b.problem, *r.cex,
                                          oracle::truncsumGolden);
       })});
  cases.push_back(
      {"fpadd8_free", kDefaultBound,
       design([](ir::Context& c) {
         return designs::makeFpAddSecProblem(c, fp::Format::minifloat(), false);
       }),
       expectBug([](const sec::SecResult& r, const Built&) {
         return oracle::fpaddCounterexample(*r.cex);
       })});
  return std::make_unique<SecPlan>(
      std::move(cases), SecPlan::Config{"bug-hunt", false, "", threads});
}

}  // namespace dfvbench
