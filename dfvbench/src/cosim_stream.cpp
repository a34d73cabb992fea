// cosim-stream: co-simulation throughput, no SEC layer involved.
//
// Each pass runs seven blocks in sequence: the FIR sample stream, the conv3x3
// pixel stream and the memsys request trace through the RTL against their
// SLM goldens with in-order scoreboards; cycle-approximate FIR on
// slm::Kernel; and seeded random transactions through
// core::makeRandomCosimFallback on the fir, gcd and histo problems.  check()
// compares every RTL output with the golden directly, so a scoreboard that
// calls a wrong stream clean is caught too.
#include <memory>
#include <vector>

#include "core/resilient.h"
#include "cosim/scoreboard.h"
#include "cosim/wrapped_rtl.h"
#include "designs/conv.h"
#include "designs/fir.h"
#include "designs/gcd.h"
#include "designs/histo.h"
#include "designs/memsys.h"
#include "designs/slm_models.h"
#include "workload.h"
#include "workload/workload.h"

namespace dfvbench {

using namespace dfv;

namespace {

constexpr std::size_t kFirSamples = 200'000;
constexpr unsigned kImageWidth = 256;
constexpr unsigned kImageHeight = 192;
constexpr std::size_t kMemRequests = 20'000;
constexpr unsigned kFallbackTransactions = 4'000;

/// What one stream block produced, kept for check().
struct StreamRecord {
  std::vector<std::uint64_t> expected;
  std::vector<std::uint64_t> observed;
  cosim::ScoreboardStats stats;
};

class CosimStream final : public Workload {
 public:
  explicit CosimStream(std::uint64_t seed) : seed_(seed) {}

  void setup(Trace* tr) override {
    // Release the previous build first, so the peak footprint does not
    // depend on how many set-ups the run made.
    fallbacks_.clear();
    problems_.reset();
    firDut_.reset();
    convDut_.reset();
    firStream_ = {};
    firSamples_ = {};
    pixels_ = {};
    {
      Span s(tr, "workload::gen");
      firStream_ = workload::makeSampleStream(kFirSamples, seed_);
      for (const auto& v : firStream_)
        firSamples_.push_back(static_cast<std::int8_t>(v.toInt64()));
      image_ = workload::makeTestImage(kImageWidth, kImageHeight, seed_ + 1);
      for (const auto px : image_.pixels)
        pixels_.push_back(bv::BitVector::fromUint(8, px));
      memTrace_ = workload::makeMemTrace(kMemRequests, seed_ + 2);
    }
    Span s(tr, "designs::make");
    firDut_ = std::make_unique<cosim::WrappedRtl>(
        designs::makeFirRtl(designs::FirBug::kNone), cosim::StreamPorts{});
    convDut_ = std::make_unique<cosim::WrappedRtl>(
        designs::makeConvRtl(kImageWidth, designs::ConvKernel::sharpen()),
        cosim::StreamPorts{});
    problems_ = std::make_unique<Problems>();
    problems_->fir = designs::makeFirSecProblem(problems_->firCtx,
                                                designs::FirBug::kNone);
    problems_->gcd = designs::makeGcdSecProblem(problems_->gcdCtx);
    problems_->histo = designs::makeHistoSecProblem(problems_->histoCtx);
    fallbacks_.emplace_back("fallback_fir", core::makeRandomCosimFallback(
                                                *problems_->fir.problem,
                                                kFallbackTransactions));
    fallbacks_.emplace_back("fallback_gcd", core::makeRandomCosimFallback(
                                                *problems_->gcd.problem,
                                                kFallbackTransactions));
    fallbacks_.emplace_back("fallback_histo", core::makeRandomCosimFallback(
                                                  *problems_->histo.problem,
                                                  kFallbackTransactions));
  }

  PassResult runPass(Trace* tr) override {
    PassResult pass;
    const auto t0 = Clock::now();
    records_.clear();
    int block = 0;
    auto timed = [&](const char* name, auto body) {
      const auto b0 = Clock::now();
      BlockOutcome o;
      o.name = name;
      {
        Span span(tr, std::string("block:") + name, block);
        body(o, block);
      }
      o.seconds = secondsSince(b0);
      o.decisive = true;  // a stream ends clean or with a mismatch
      pass.blocks.push_back(std::move(o));
      ++block;
    };

    timed("fir_rtl", [&](BlockOutcome& o, int b) {
      std::vector<std::uint64_t> golden;
      {
        Span s(tr, "slm::golden", b);
        for (const auto& y : designs::firGoldenBitAccurate(firSamples_))
          golden.push_back(y.toBitVector().toUint64());
      }
      std::vector<cosim::StreamItem> outs;
      {
        Span s(tr, "cosim::WrappedRtl::run", b);
        outs = firDut_->run(firStream_);
        s.counter("rtl.cycles", static_cast<double>(firDut_->cyclesRun()));
      }
      score(tr, b, o, std::move(golden), outs, designs::kFirAccWidth);
    });

    timed("conv_rtl", [&](BlockOutcome& o, int b) {
      std::vector<std::uint64_t> golden;
      {
        Span s(tr, "slm::golden", b);
        for (const auto px :
             designs::convGolden(image_, designs::ConvKernel::sharpen()))
          golden.push_back(px);
      }
      std::vector<cosim::StreamItem> outs;
      {
        Span s(tr, "cosim::WrappedRtl::run", b);
        outs = convDut_->run(pixels_);
        s.counter("rtl.cycles", static_cast<double>(convDut_->cyclesRun()));
      }
      score(tr, b, o, std::move(golden), outs, 8);
    });

    timed("memsys", [&](BlockOutcome& o, int b) {
      std::vector<std::uint64_t> golden;
      {
        Span s(tr, "slm::golden", b);
        for (const auto v : designs::memGolden(memTrace_)) golden.push_back(v);
      }
      std::vector<cosim::StreamItem> outs;
      {
        Span s(tr, "designs::runCache", b);
        const designs::MemRunResult r = designs::runCache(memTrace_);
        s.counter("rtl.cycles", static_cast<double>(r.cyclesRun));
        for (std::size_t i = 0; i < r.responses.size(); ++i)
          outs.push_back({i, bv::BitVector::fromUint(8, r.responses[i])});
      }
      score(tr, b, o, std::move(golden), outs, 8);
    });

    timed("fir_kernel", [&](BlockOutcome& o, int b) {
      std::vector<std::uint64_t> golden;
      {
        Span s(tr, "slm::golden", b);
        for (const auto& y : designs::firGoldenBitAccurate(firSamples_))
          golden.push_back(y.toBitVector().toUint64());
      }
      std::vector<cosim::StreamItem> outs;
      outs.reserve(golden.size());
      {
        Span s(tr, "slm::Kernel::run", b);
        slm::Kernel kernel;
        slm::Clock clk(kernel, "clk", 10);
        slm::Fifo<bv::BitVector> in(kernel, "in", 4);
        slm::Fifo<bv::BitVector> out(kernel, "out", 64);
        designs::FirSlmModule fir(kernel, "fir", clk, in, out);
        auto producer = [&]() -> slm::Process {
          for (const auto& sample : firStream_) {
            co_await clk.rising();
            co_await in.put(sample);
          }
        };
        const std::size_t expected = golden.size();
        auto consumer = [&]() -> slm::Process {
          for (std::size_t i = 0; i < expected; ++i) {
            bv::BitVector y = co_await out.get();
            outs.push_back({kernel.now(), std::move(y)});
          }
        };
        kernel.spawn(producer(), "producer");
        kernel.spawn(consumer(), "consumer");
        kernel.run(10 * (firStream_.size() + 64));
        s.counter("slm.deltas", static_cast<double>(kernel.deltaCount()));
      }
      score(tr, b, o, std::move(golden), outs, designs::kFirAccWidth);
    });

    for (const auto& fallback : fallbacks_) {
      timed(fallback.first.c_str(), [&](BlockOutcome& o, int b) {
        Span s(tr, "core::makeRandomCosimFallback()", b);
        const auto outcome = fallback.second(seed_);
        o.verdict = outcome.passed ? "clean" : "mismatch: " + outcome.detail;
        o.items = outcome.passed ? kFallbackTransactions : 0;
        records_.push_back({});
        records_.back().stats.matched = o.items;
        records_.back().stats.mismatched = outcome.passed ? 0 : 1;
      });
    }
    pass.wall = secondsSince(t0);
    return pass;
  }

  void check(PassResult& pass) override {
    for (std::size_t i = 0; i < pass.blocks.size(); ++i) {
      const StreamRecord& r = records_[i];
      BlockOutcome& o = pass.blocks[i];
      if (!r.stats.clean())
        o.disagreement = "co-simulation of a correct design mismatched: " +
                         o.verdict;
      else if (r.observed != r.expected)
        o.disagreement = "scoreboard clean but the RTL stream differs from "
                         "the golden";
      else if (o.items == 0)
        o.disagreement = "no items compared";
    }
  }

 private:
  struct Problems {
    ir::Context firCtx, gcdCtx, histoCtx;  // outlive the setups below
    designs::FirSecSetup fir;
    designs::GcdSecSetup gcd;
    designs::HistoSecSetup histo;
  };

  /// In-order scoreboard of `outs` against `golden`; records both streams
  /// for check().
  void score(Trace* tr, int block, BlockOutcome& o,
             std::vector<std::uint64_t> golden,
             const std::vector<cosim::StreamItem>& outs, unsigned width) {
    StreamRecord rec;
    {
      Span s(tr, "cosim::InOrderScoreboard", block);
      cosim::InOrderScoreboard sb;
      for (std::size_t i = 0; i < golden.size(); ++i)
        sb.expect(bv::BitVector::fromUint(width, golden[i]), i);
      for (const auto& item : outs) sb.observe(item.value, item.cycle);
      rec.stats = sb.finish();
    }
    for (const auto& item : outs) rec.observed.push_back(item.value.toUint64());
    rec.expected = std::move(golden);
    o.items = rec.stats.matched;
    o.verdict = rec.stats.clean() ? "clean" : "mismatch";
    records_.push_back(std::move(rec));
  }

  std::uint64_t seed_;
  std::vector<bv::BitVector> firStream_, pixels_;
  std::vector<std::int8_t> firSamples_;
  workload::Image image_;
  std::vector<workload::MemRequest> memTrace_;
  std::unique_ptr<cosim::WrappedRtl> firDut_, convDut_;
  std::vector<std::pair<std::string, core::ResilientRunner::CosimRunner>>
      fallbacks_;
  std::unique_ptr<Problems> problems_;  // the fallbacks hold references
  std::vector<StreamRecord> records_;
};

}  // namespace

std::unique_ptr<Workload> makeCosimStream(std::uint64_t seed) {
  return std::make_unique<CosimStream>(seed);
}

}  // namespace dfvbench
