#include "src/workload/workload.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <map>
#include <optional>
#include <set>

#include "src/server/server.h"
#include "src/apps/app.h"

namespace karousos {
namespace {

TEST(WorkloadTest, DeterministicForFixedSeed) {
  WorkloadConfig config;
  config.app = "stacks";
  config.kind = WorkloadKind::kMixed;
  config.requests = 100;
  config.seed = 5;
  std::vector<Value> seed5 = GenerateWorkload(config);
  EXPECT_EQ(seed5, GenerateWorkload(config));
  config.seed = 6;
  EXPECT_NE(seed5, GenerateWorkload(config));
}

TEST(WorkloadTest, MotdMixRatiosApproximate) {
  WorkloadConfig config;
  config.app = "motd";
  config.kind = WorkloadKind::kWriteHeavy;
  config.requests = 1000;
  std::vector<Value> reqs = GenerateWorkload(config);
  int writes = 0;
  for (const Value& r : reqs) {
    if (r.Field("op") == Value("set")) {
      ++writes;
    }
  }
  EXPECT_GT(writes, 850);
  EXPECT_LT(writes, 950);
}

TEST(WorkloadTest, WikiMixRatiosApproximate) {
  WorkloadConfig config;
  config.app = "wiki";
  config.kind = WorkloadKind::kWikiMix;
  config.requests = 1000;
  config.connections = 16;
  std::vector<Value> reqs = GenerateWorkload(config);
  int creates = 0;
  int comments = 0;
  int renders = 0;
  for (const Value& r : reqs) {
    std::string op(r.Field("op").AsString());
    creates += op == "create_page";
    comments += op == "create_comment";
    renders += op == "render";
    EXPECT_LT(r.Field("conn").AsInt(), 16);
  }
  EXPECT_NEAR(creates, 250, 60);
  EXPECT_NEAR(comments, 150, 60);
  EXPECT_NEAR(renders, 600, 80);
}

TEST(WorkloadTest, StacksSubmitsAreMostlyRepeats) {
  WorkloadConfig config;
  config.app = "stacks";
  config.kind = WorkloadKind::kWriteHeavy;
  config.requests = 1000;
  std::vector<Value> reqs = GenerateWorkload(config);
  std::set<std::string> unique;
  int submits = 0;
  for (const Value& r : reqs) {
    if (r.Field("op") == Value("submit")) {
      ++submits;
      unique.insert(std::string(r.Field("dump").AsString()));
    }
  }
  ASSERT_GT(submits, 800);
  // ~10% of submits introduce a new dump.
  EXPECT_LT(unique.size(), static_cast<size_t>(submits) / 4);
  EXPECT_GT(unique.size(), static_cast<size_t>(submits) / 25);
}

TEST(WorkloadTest, AuctionMixRatiosAndShape) {
  WorkloadConfig config;
  config.app = "auction";
  config.kind = WorkloadKind::kAuctionMix;
  config.requests = 1000;
  config.connections = 12;
  config.hot_items = 4;
  std::vector<Value> reqs = GenerateWorkload(config);
  ASSERT_EQ(reqs.size(), 1000u);
  // Opens first, closes last, so the contended middle always hits live rows.
  for (int i = 0; i < 4; ++i) {
    EXPECT_EQ(reqs[static_cast<size_t>(i)].Field("op"), Value("open"));
    EXPECT_EQ(reqs[reqs.size() - 4 + static_cast<size_t>(i)].Field("op"), Value("close"));
  }
  int bids = 0;
  int queries = 0;
  int verifies = 0;
  int lists = 0;
  for (const Value& r : reqs) {
    std::string op(r.Field("op").AsString());
    bids += op == "bid";
    queries += op == "query";
    verifies += op == "verify";
    lists += op == "list";
    if (op == "bid") {
      EXPECT_GE(r.Field("amount").AsInt(), 1);
      EXPECT_LE(r.Field("amount").AsInt(), 1000);
    }
  }
  EXPECT_NEAR(bids, 620, 60);
  EXPECT_GT(queries, verifies);
  EXPECT_GT(verifies, lists);
  EXPECT_GT(lists, 0);
}

TEST(WorkloadTest, ZipfSamplerMatchesTheDistribution) {
  // Chi-square goodness of fit of 20k draws against the Zipf(0.9) pmf over 8
  // items. With 7 degrees of freedom the 99.9th percentile is 24.3; a fixed
  // seed makes the statistic deterministic, so the bound documents fit
  // rather than flaking.
  constexpr size_t kItems = 8;
  constexpr size_t kDraws = 20000;
  constexpr double kTheta = 0.9;
  ZipfSampler zipf(kItems, kTheta);
  Rng rng(42);
  size_t counts[kItems] = {};
  for (size_t i = 0; i < kDraws; ++i) {
    size_t k = zipf.Sample(rng);
    ASSERT_LT(k, kItems);
    ++counts[k];
  }
  double norm = 0;
  for (size_t k = 0; k < kItems; ++k) {
    norm += 1.0 / std::pow(static_cast<double>(k + 1), kTheta);
  }
  double chi2 = 0;
  for (size_t k = 0; k < kItems; ++k) {
    double expected =
        kDraws * (1.0 / std::pow(static_cast<double>(k + 1), kTheta)) / norm;
    double diff = static_cast<double>(counts[k]) - expected;
    chi2 += diff * diff / expected;
  }
  EXPECT_LT(chi2, 24.3) << "chi-square vs Zipf(0.9) pmf";
  // The skew is real: the hottest item beats the coldest by the pmf ratio
  // (8^0.9 ~ 6.5), well clear of sampling noise.
  EXPECT_GT(counts[0], 4 * counts[kItems - 1]);
}

TEST(WorkloadTest, ZipfThetaZeroIsUniform) {
  constexpr size_t kItems = 10;
  constexpr size_t kDraws = 20000;
  ZipfSampler zipf(kItems, 0.0);
  Rng rng(99);
  size_t counts[kItems] = {};
  for (size_t i = 0; i < kDraws; ++i) {
    ++counts[zipf.Sample(rng)];
  }
  double chi2 = 0;
  double expected = static_cast<double>(kDraws) / kItems;
  for (size_t count : counts) {
    double diff = static_cast<double>(count) - expected;
    chi2 += diff * diff / expected;
  }
  // 9 dof, 99.9th percentile = 27.9.
  EXPECT_LT(chi2, 27.9) << "chi-square vs uniform";
}

TEST(WorkloadTest, OpenLoopArrivalsAreMonotoneAndDeterministic) {
  WorkloadConfig config;
  config.app = "auction";
  config.kind = WorkloadKind::kAuctionMix;
  config.requests = 400;
  config.seed = 17;
  config.arrival = ArrivalPattern::kUniform;
  config.mean_rate = 1000.0;
  OpenLoopWorkload wl = GenerateOpenLoop(config);
  ASSERT_EQ(wl.inputs.size(), 400u);
  ASSERT_EQ(wl.arrival_seconds.size(), 400u);
  double prev = 0;
  for (double t : wl.arrival_seconds) {
    EXPECT_GE(t, prev);
    prev = t;
  }
  // Poisson at 1000 req/s: 400 arrivals span ~0.4s (generous 3x bounds).
  EXPECT_GT(prev, 0.4 / 3);
  EXPECT_LT(prev, 0.4 * 3);
  OpenLoopWorkload again = GenerateOpenLoop(config);
  EXPECT_EQ(wl.inputs, again.inputs);
  EXPECT_EQ(wl.arrival_seconds, again.arrival_seconds);
  // Closed-loop configs produce no timestamps.
  config.arrival = ArrivalPattern::kClosed;
  EXPECT_TRUE(GenerateOpenLoop(config).arrival_seconds.empty());
}

// Per-phase mean interarrival gap over consecutive windows of `phase` requests.
std::vector<double> PhaseMeanGaps(const std::vector<double>& times, size_t phase) {
  std::vector<double> gaps;
  for (size_t start = 0; start + phase <= times.size(); start += phase) {
    double lo = start == 0 ? 0.0 : times[start - 1];
    gaps.push_back((times[start + phase - 1] - lo) / static_cast<double>(phase));
  }
  return gaps;
}

TEST(WorkloadTest, BurstyArrivalsAlternateFastAndSlowPhases) {
  WorkloadConfig config;
  config.app = "motd";
  config.kind = WorkloadKind::kMixed;
  config.requests = 512;
  config.seed = 8;
  config.arrival = ArrivalPattern::kBursty;
  config.mean_rate = 1000.0;
  config.burst_factor = 8.0;
  config.phase_requests = 64;
  OpenLoopWorkload wl = GenerateOpenLoop(config);
  std::vector<double> gaps = PhaseMeanGaps(wl.arrival_seconds, 64);
  ASSERT_EQ(gaps.size(), 8u);
  // Even phases are bursts (rate*8), odd phases troughs (rate/8): a 64x rate
  // ratio, asserted with a slack factor of ~4 for exponential noise.
  for (size_t i = 0; i + 1 < gaps.size(); i += 2) {
    EXPECT_LT(gaps[i] * 16, gaps[i + 1])
        << "phase " << i << " should be much faster than phase " << i + 1;
  }
}

TEST(WorkloadTest, DiurnalArrivalsSwingAroundTheMean) {
  WorkloadConfig config;
  config.app = "motd";
  config.kind = WorkloadKind::kMixed;
  config.requests = 512;
  config.seed = 8;
  config.arrival = ArrivalPattern::kDiurnal;
  config.mean_rate = 1000.0;
  config.phase_requests = 64;  // One "day" = 256 requests.
  OpenLoopWorkload wl = GenerateOpenLoop(config);
  std::vector<double> gaps = PhaseMeanGaps(wl.arrival_seconds, 64);
  ASSERT_EQ(gaps.size(), 8u);
  double slowest = *std::max_element(gaps.begin(), gaps.end());
  double fastest = *std::min_element(gaps.begin(), gaps.end());
  // The sinusoid swings the rate between 1.8x and 0.2x the mean; the phase
  // means must clearly separate even with exponential noise.
  EXPECT_GT(slowest, 2.5 * fastest);
}

TEST(WorkloadTest, MixedAppsEnvelopesComposeAllFourApps) {
  WorkloadConfig config;
  config.app = "mixed";
  config.kind = WorkloadKind::kMixedApps;
  config.requests = 800;
  config.seed = 9;
  config.connections = 10;
  std::vector<Value> reqs = GenerateWorkload(config);
  ASSERT_EQ(reqs.size(), 800u);
  std::map<std::string, int> per_app;
  for (const Value& r : reqs) {
    std::string app(r.Field("app").AsString());
    ASSERT_TRUE(r.Field("req").is_map()) << r.ToString();
    ++per_app[app];
  }
  ASSERT_EQ(per_app.size(), 4u);
  // Shares: auction 40%, stacks 25%, wiki 20%, motd 15% (exact by
  // construction — the interleaving is a lottery but the totals are fixed).
  EXPECT_EQ(per_app["auction"], 320);
  EXPECT_EQ(per_app["stacks"], 200);
  EXPECT_EQ(per_app["wiki"], 160);
  EXPECT_EQ(per_app["motd"], 120);
  EXPECT_EQ(reqs, GenerateWorkload(config));
}

TEST(AppFactoryTest, EveryListedNameBuildsItsApp) {
  for (const char* name : {"motd", "stacks", "wiki", "auction", "mixed"}) {
    std::optional<AppSpec> app = MakeApp(name);
    ASSERT_TRUE(app.has_value()) << name;
    EXPECT_EQ(app->name, name);
    EXPECT_NE(app->program, nullptr) << name;
  }
  EXPECT_FALSE(MakeApp("pingpong").has_value());
  EXPECT_FALSE(MakeApp("").has_value());
  EXPECT_FALSE(MakeApp("Motd").has_value());
}

}  // namespace
}  // namespace karousos
