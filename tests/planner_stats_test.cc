/// Statistics-driven planning: the O(1) regression (planner entry
/// counts bounded whatever the hit count, serial and 4-threaded),
/// estimate provenance in ExecStats and Explain, the stats-driven
/// filtered order-walk switch, multi-field order_by semantics
/// (covered compound scans, SORT/TOPK fallbacks, MERGE_UNION
/// pagination), and a plan-quality differential harness comparing the
/// statistics planner against the pre-statistics exact-count planner
/// over randomized predicates (identical results, bounded cost ratio).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "query/planner.h"
#include "query/predicate.h"
#include "storage/collection.h"
#include "storage/index.h"
#include "storage/index_key.h"

namespace dt::query {
namespace {

using storage::Collection;
using storage::DocBuilder;
using storage::DocId;
using storage::DocValue;
using storage::IndexKey;

/// Multi-field ordering oracle: matching ids sorted by the tuple of
/// index keys at the comma-separated order paths (descending flips the
/// key comparison only; ties ascending id), then truncated.
std::vector<DocId> OracleOrdered(const Collection& coll,
                                 const PredicatePtr& p,
                                 const std::string& order_by, bool desc,
                                 int64_t limit) {
  const storage::CollectionView view = coll.GetView();
  std::vector<DocId> ids;
  view.ForEach([&](DocId id, const DocValue& doc) {
    if (p == nullptr || p->Matches(doc)) ids.push_back(id);
  });
  std::vector<std::string> paths = SplitOrderPaths(order_by);
  if (!paths.empty()) {
    auto keys_of = [&](DocId id) {
      const DocValue* doc = view.Get(id);
      std::vector<IndexKey> keys;
      for (const std::string& path : paths) {
        const DocValue* v = doc == nullptr ? nullptr : doc->FindPath(path);
        keys.push_back(v == nullptr ? IndexKey() : IndexKey::FromValue(*v));
      }
      return keys;
    };
    std::sort(ids.begin(), ids.end(), [&](DocId a, DocId b) {
      std::vector<IndexKey> ka = keys_of(a), kb = keys_of(b);
      if (ka < kb) return !desc;
      if (kb < ka) return desc;
      return a < b;
    });
  }
  if (limit >= 0 && static_cast<int64_t>(ids.size()) > limit) {
    ids.resize(static_cast<size_t>(limit));
  }
  return ids;
}

// ---------------------------------------------------------------------
// O(1) planning regression
// ---------------------------------------------------------------------

/// A point Find with order_by + limit over a 20k-hit bucket: whatever
/// the hit count, planning must examine a bounded number of index
/// entries (the bounded exact-count walks, <= kExactCountThreshold + 1
/// per candidate costed).
TEST(PlannerO1Test, PointFindEntryCountsBoundedSerialAndParallel) {
  Collection coll("dt.o1");
  ASSERT_TRUE(coll.CreateIndex("bucket").ok());
  ASSERT_TRUE(coll.CreateIndex("name").ok());
  for (int64_t i = 0; i < 20000; ++i) {
    coll.Insert(DocBuilder()
                    .Set("bucket", i < 2 ? "rare" : "hot")
                    .Set("name", "n" + std::to_string(i % 997))
                    .Build());
  }
  auto pred = Predicate::Eq("bucket", DocValue::Str("hot"));
  std::vector<DocId> serial_ids;
  ThreadPool pool(4);
  for (int threads : {1, 4}) {
    ExecStats stats;
    FindOptions opts;
    opts.order_by = "name";
    opts.limit = 10;
    opts.pool = threads > 1 ? &pool : nullptr;
    opts.stats = &stats;
    auto got = Find(coll.GetView(), pred, opts);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ASSERT_EQ(got->size(), 10u);
    if (threads == 1) {
      serial_ids = *got;
      EXPECT_EQ(*got, OracleOrdered(coll, pred, "name", false, 10));
    } else {
      EXPECT_EQ(*got, serial_ids);
    }
    // The regression: 20k hits, yet planning walked at most a few
    // bounded exact-count probes (candidate costing + the order-walk
    // selectivity estimate), nowhere near O(hits).
    EXPECT_LE(stats.plan_entries_counted, 512) << "threads=" << threads;
    EXPECT_GT(stats.plan_entries_counted, 0) << "threads=" << threads;
    EXPECT_GT(stats.planning_ns, 0) << "threads=" << threads;
    EXPECT_EQ(stats.estimate_exact, 0)
        << "20k hits must be histogram-estimated, threads=" << threads;
    EXPECT_GT(stats.estimated_rows, 0);
  }

  // The selective bucket stays exact: the bounded walk exhausts it.
  ExecStats stats;
  FindOptions opts;
  opts.stats = &stats;
  auto rare = Find(coll.GetView(),
                   Predicate::Eq("bucket", DocValue::Str("rare")), opts);
  ASSERT_TRUE(rare.ok());
  EXPECT_EQ(rare->size(), 2u);
  EXPECT_EQ(stats.estimate_exact, 1);
  EXPECT_EQ(stats.estimated_rows, 2);
  EXPECT_LE(stats.plan_entries_counted,
            storage::SecondaryIndex::kExactCountThreshold + 1);
}

/// Planning cost across three orders of magnitude of hit count on a
/// skewed corpus: a "bucket" whose values hit 1, 100 and 2,000 of
/// 2,101 documents, a unique "name" and a 50/50 "type" split. The
/// point find carries order_by + limit so the planner also prices the
/// filtered order walk, the estimate-hungry decision.
TEST(PlannerO1Test, SkewedBucketsPlanBoundedAndExactPlannerAgrees) {
  const int64_t n = 2101, warm = 100;
  Collection coll("dt.skew");
  for (int64_t i = 0; i < n; ++i) {
    char name[16];
    std::snprintf(name, sizeof(name), "n%07lld", static_cast<long long>(i));
    coll.Insert(DocBuilder()
                    .Set("bucket", i == 0 ? "cold" : i <= warm ? "warm" : "hot")
                    .Set("type", i % 2 == 0 ? "Movie" : "Person")
                    .Set("name", name)
                    .Build());
  }
  ASSERT_TRUE(coll.CreateIndex("bucket").ok());
  ASSERT_TRUE(coll.CreateIndex("name").ok());
  ASSERT_TRUE(coll.CreateIndex("type").ok());

  auto plan_entries = [&](const char* bucket, bool exact) {
    ExecStats stats;
    FindOptions opts;
    opts.order_by = "name";
    opts.limit = 10;
    opts.debug_exact_count_planning = exact;
    opts.stats = &stats;
    (void)PlanFind(coll.GetView(),
                   Predicate::Eq("bucket", DocValue::Str(bucket)), opts);
    return stats.plan_entries_counted;
  };
  int64_t max_entries = 0;
  for (const char* bucket : {"cold", "warm", "hot"}) {
    const int64_t entries = plan_entries(bucket, /*exact=*/false);
    EXPECT_LE(entries, 1024) << bucket;
    max_entries = std::max(max_entries, entries);
  }
  // The pre-statistics baseline walks every hit of the widest bucket.
  EXPECT_GT(plan_entries("hot", /*exact=*/true), max_entries);

  // The ordered Or: the exact planner counts every hit while planning
  // and scans; the statistics planner prices the filtered order walk
  // off the histograms and stops early. Same answer, half the work.
  auto pred_or =
      Predicate::Or({Predicate::Eq("type", DocValue::Str("Movie")),
                     Predicate::Eq("type", DocValue::Str("Person"))});
  auto work = [](const ExecStats& s) {
    return s.plan_entries_counted + s.index_entries_examined +
           s.docs_examined;
  };
  ExecStats exact_stats, stats_stats;
  FindOptions ordered;
  ordered.order_by = "name";
  ordered.limit = 10;
  ordered.debug_exact_count_planning = true;
  ordered.stats = &exact_stats;
  auto via_exact = Find(coll.GetView(), pred_or, ordered);
  ordered.debug_exact_count_planning = false;
  ordered.stats = &stats_stats;
  auto via_stats = Find(coll.GetView(), pred_or, ordered);
  ASSERT_TRUE(via_exact.ok() && via_stats.ok());
  EXPECT_FALSE(via_stats->empty());
  EXPECT_EQ(*via_exact, *via_stats);
  EXPECT_LE(2 * work(stats_stats), work(exact_stats))
      << "exact " << work(exact_stats) << " vs stats " << work(stats_stats);
}

TEST(PlannerO1Test, ExplainRendersEstimateProvenance) {
  Collection coll("dt.prov");
  ASSERT_TRUE(coll.CreateIndex("bucket").ok());
  for (int64_t i = 0; i < 2000; ++i) {
    coll.Insert(
        DocBuilder().Set("bucket", i < 5 ? "rare" : "hot").Build());
  }
  std::string exact = ExplainFind(
      coll.GetView(), Predicate::Eq("bucket", DocValue::Str("rare")));
  EXPECT_NE(exact.find("est=5 (exact)"), std::string::npos) << exact;
  std::string hist = ExplainFind(
      coll.GetView(), Predicate::Eq("bucket", DocValue::Str("hot")));
  EXPECT_NE(hist.find("(hist)"), std::string::npos) << hist;
  EXPECT_NE(hist.find("est=~"), std::string::npos) << hist;
}

/// The decision PR 4 punted: an uncovered order_by + limit over an
/// unselective predicate should walk the order index and filter,
/// not COLLSCAN + TOPK — and only the statistics planner (which can
/// afford the selectivity estimate) makes that switch.
TEST(PlannerO1Test, StatsEnableFilteredOrderWalkSwitch) {
  Collection coll("dt.walk");
  ASSERT_TRUE(coll.CreateIndex("type").ok());
  ASSERT_TRUE(coll.CreateIndex("name").ok());
  for (int64_t i = 0; i < 4000; ++i) {
    coll.Insert(DocBuilder()
                    .Set("type", i % 2 == 0 ? "Movie" : "Person")
                    .Set("name", "n" + std::to_string(9000 + i))
                    .Build());
  }
  auto pred = Predicate::Or({Predicate::Eq("type", DocValue::Str("Movie")),
                             Predicate::Eq("type", DocValue::Str("Person"))});
  FindOptions opts;
  opts.order_by = "name";
  opts.limit = 10;
  std::string with_stats = ExplainFind(coll.GetView(), pred, opts);
  EXPECT_NE(with_stats.find("IXSCAN(name)"), std::string::npos) << with_stats;
  EXPECT_NE(with_stats.find("FILTER"), std::string::npos) << with_stats;
  EXPECT_EQ(with_stats.find("TOPK"), std::string::npos) << with_stats;

  FindOptions legacy = opts;
  legacy.debug_exact_count_planning = true;
  std::string without = ExplainFind(coll.GetView(), pred, legacy);
  EXPECT_EQ(without.find("FILTER"), std::string::npos) << without;

  // Both planners return identical results, and the walk stops after
  // ~limit entries instead of touching all 4000 matches.
  ExecStats stats;
  opts.stats = &stats;
  auto a = Find(coll.GetView(), pred, opts);
  auto b = Find(coll.GetView(), pred, legacy);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
  EXPECT_EQ(*a, OracleOrdered(coll, pred, "name", false, 10));
  EXPECT_LE(stats.index_entries_examined, 64) << "order walk must stop early";
}

// ---------------------------------------------------------------------
// Multi-field order_by
// ---------------------------------------------------------------------

Collection MakeShows() {
  Collection coll("dt.shows");
  const char* types[] = {"Movie", "Person", "Venue"};
  const char* names[] = {"Wicked", "Matilda", "Annie", "Chicago"};
  for (int64_t i = 0; i < 90; ++i) {
    coll.Insert(DocBuilder()
                    .Set("type", types[i % 3])
                    .Set("name", names[(i / 3) % 4])
                    .Set("seq", (i * 37) % 90)
                    .Build());
  }
  return coll;
}

TEST(MultiFieldOrderTest, CompoundIndexCoversCommaSeparatedOrder) {
  Collection coll = MakeShows();
  ASSERT_TRUE(coll.CreateIndex({"type", "name"}).ok());
  auto pred = Predicate::And({});  // match everything
  for (bool desc : {false, true}) {
    FindOptions opts;
    opts.order_by = "type,name";
    opts.order_desc = desc;
    opts.limit = 25;
    std::string explain = ExplainFind(coll.GetView(), pred, opts);
    // Rendering shows the bound prefix only; coverage shows as the
    // order= marker with no SORT/TOPK operator.
    EXPECT_NE(explain.find("IXSCAN(type) { all }"), std::string::npos)
        << explain;
    EXPECT_NE(explain.find("order=type,name"), std::string::npos) << explain;
    EXPECT_EQ(explain.find("SORT"), std::string::npos) << explain;
    EXPECT_EQ(explain.find("TOPK"), std::string::npos) << explain;
    auto got = Find(coll.GetView(), pred, opts);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, OracleOrdered(coll, pred, "type,name", desc, 25))
        << "desc=" << desc;
  }
}

TEST(MultiFieldOrderTest, EqBoundPrefixPlusConsecutiveComponentsCover) {
  Collection coll = MakeShows();
  ASSERT_TRUE(coll.CreateIndex({"type", "name", "seq"}).ok());
  // type is equality-bound; name,seq ride the next scanned components.
  auto pred = Predicate::Eq("type", DocValue::Str("Movie"));
  FindOptions opts;
  opts.order_by = "name,seq";
  opts.limit = 12;
  std::string explain = ExplainFind(coll.GetView(), pred, opts);
  EXPECT_NE(explain.find("IXSCAN(type) { type == \"Movie\" }"),
            std::string::npos)
      << explain;
  EXPECT_NE(explain.find("order=name,seq"), std::string::npos) << explain;
  EXPECT_EQ(explain.find("SORT"), std::string::npos) << explain;
  EXPECT_EQ(explain.find("TOPK"), std::string::npos) << explain;
  auto got = Find(coll.GetView(), pred, opts);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, OracleOrdered(coll, pred, "name,seq", false, 12));
}

TEST(MultiFieldOrderTest, UncoveredMultiFieldOrderFallsBackToSortOrTopK) {
  Collection coll = MakeShows();
  ASSERT_TRUE(coll.CreateIndex("type").ok());
  auto pred = Predicate::Eq("type", DocValue::Str("Person"));
  // No limit: SORT over both paths.
  FindOptions opts;
  opts.order_by = "name,seq";
  std::string explain = ExplainFind(coll.GetView(), pred, opts);
  EXPECT_NE(explain.find("SORT(name,seq)"), std::string::npos) << explain;
  auto got = Find(coll.GetView(), pred, opts);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, OracleOrdered(coll, pred, "name,seq", false, -1));
  // With a limit: fused TOPK, same oracle truncated.
  opts.limit = 7;
  opts.order_desc = true;
  explain = ExplainFind(coll.GetView(), pred, opts);
  EXPECT_NE(explain.find("TOPK(name,seq desc, k=7)"), std::string::npos)
      << explain;
  got = Find(coll.GetView(), pred, opts);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, OracleOrdered(coll, pred, "name,seq", true, 7));
}

TEST(MultiFieldOrderTest, MergeUnionPaginatesUnderMultiFieldOrder) {
  Collection coll = MakeShows();
  ASSERT_TRUE(coll.CreateIndex({"type", "name", "seq"}).ok());
  auto pred = Predicate::Or({Predicate::Eq("type", DocValue::Str("Movie")),
                             Predicate::Eq("type", DocValue::Str("Venue"))});
  FindOptions opts;
  opts.order_by = "name,seq";
  std::string explain = ExplainFind(coll.GetView(), pred, opts);
  ASSERT_NE(explain.find("MERGE_UNION"), std::string::npos) << explain;

  auto oracle = OracleOrdered(coll, pred, "name,seq", false, -1);
  auto one_shot = Find(coll.GetView(), pred, opts);
  ASSERT_TRUE(one_shot.ok());
  EXPECT_EQ(*one_shot, oracle);

  // Stitched pages resume the merge mid-stream through the multi-field
  // checkpoint key and reproduce the one-shot result exactly.
  for (int64_t page_size : {1, 7}) {
    FindOptions paged = opts;
    paged.page_size = page_size;
    paged.resume_token.clear();
    std::vector<DocId> stitched;
    for (int pages = 0;; ++pages) {
      ASSERT_LT(pages, 500) << "pagination failed to terminate";
      auto page = FindPage(coll.GetView(), pred, paged);
      ASSERT_TRUE(page.ok()) << page.status().ToString();
      stitched.insert(stitched.end(), page->ids.begin(), page->ids.end());
      if (page->next_token.empty()) break;
      paged.resume_token = page->next_token;
    }
    EXPECT_EQ(stitched, oracle) << "page_size=" << page_size;
  }
}

// ---------------------------------------------------------------------
// Plan-quality differential harness
// ---------------------------------------------------------------------

/// Randomized predicates/orders/limits planned twice: once with the
/// statistics planner, once with `debug_exact_count_planning` (the
/// pre-statistics planner: exact O(hits) costing, no order-walk
/// switch). Results must be identical and the statistics plan's
/// executed cost must stay within a bounded factor of the exact
/// planner's — estimates may err, but never catastrophically.
TEST(PlanQualityDifferentialTest, StatsPlannerMatchesExactPlannerBoundedCost) {
  Rng rng(20140407);
  Collection coll("dt.diff");
  const char* types[] = {"Movie", "Person", "Venue", "Award"};
  for (int64_t i = 0; i < 6000; ++i) {
    // Skewed type distribution; name moderately selective; dense score.
    const char* type = types[i % 7 == 0 ? 1 + static_cast<int>(i % 3) : 0];
    coll.Insert(DocBuilder()
                    .Set("type", type)
                    .Set("name", "n" + std::to_string(rng.Uniform(300)))
                    .Set("score", static_cast<int64_t>(rng.Uniform(1000)))
                    .Build());
  }
  ASSERT_TRUE(coll.CreateIndex("type").ok());
  ASSERT_TRUE(coll.CreateIndex("score").ok());
  ASSERT_TRUE(coll.CreateIndex({"type", "name"}).ok());

  auto leaf = [&]() -> PredicatePtr {
    switch (rng.Uniform(3)) {
      case 0:
        return Predicate::Eq("type", DocValue::Str(types[rng.Uniform(4)]));
      case 1:
        return Predicate::Eq(
            "name", DocValue::Str("n" + std::to_string(rng.Uniform(300))));
      default: {
        int64_t lo = static_cast<int64_t>(rng.Uniform(900));
        return Predicate::Range(
            "score", DocValue::Int(lo),
            DocValue::Int(lo + 1 + static_cast<int64_t>(rng.Uniform(200))));
      }
    }
  };
  const char* kOrders[] = {"", "name", "score", "type,name"};
  const int64_t kLimits[] = {-1, 5, 50};

  int64_t stats_cost_total = 0, exact_cost_total = 0;
  for (int iter = 0; iter < 80; ++iter) {
    PredicatePtr pred;
    switch (rng.Uniform(4)) {
      case 0:
        pred = leaf();
        break;
      case 1:
        pred = Predicate::And({leaf(), leaf()});
        break;
      case 2:
        pred = Predicate::Or({leaf(), leaf()});
        break;
      default:
        pred = Predicate::And({leaf(), Predicate::Or({leaf(), leaf()})});
        break;
    }
    FindOptions opts;
    opts.order_by = kOrders[rng.Uniform(4)];
    opts.order_desc = rng.Bernoulli(0.5);
    opts.limit = kLimits[rng.Uniform(3)];

    ExecStats stats_run, exact_run;
    opts.stats = &stats_run;
    auto with_stats = Find(coll.GetView(), pred, opts);
    FindOptions legacy = opts;
    legacy.debug_exact_count_planning = true;
    legacy.stats = &exact_run;
    auto with_exact = Find(coll.GetView(), pred, legacy);
    ASSERT_TRUE(with_stats.ok()) << with_stats.status().ToString();
    ASSERT_TRUE(with_exact.ok()) << with_exact.status().ToString();
    ASSERT_EQ(*with_stats, *with_exact)
        << "iter=" << iter << " pred=" << pred->ToString()
        << " order_by=" << opts.order_by << " limit=" << opts.limit;

    // Executed cost, in the planner's own currency.
    const int64_t stats_cost =
        stats_run.index_entries_examined + 4 * stats_run.docs_examined;
    const int64_t exact_cost =
        exact_run.index_entries_examined + 4 * exact_run.docs_examined;
    // Exact counting examines zero executor-visible entries, so its
    // cost is the floor; the stats plan may differ in shape but must
    // stay within a constant factor (+ slack for tiny results).
    EXPECT_LE(stats_cost, 8 * exact_cost + 1024)
        << "iter=" << iter << " pred=" << pred->ToString()
        << " order_by=" << opts.order_by << " limit=" << opts.limit;
    stats_cost_total += stats_cost;
    exact_cost_total += exact_cost;

    // Exact-count planning pays O(hits) at plan time; the statistics
    // planner never walks far past the bounded threshold per candidate.
    EXPECT_LE(stats_run.plan_entries_counted, 4096) << "iter=" << iter;
  }
  // In aggregate the statistics planner must be at least as good as
  // the exact planner up to estimation noise.
  EXPECT_LE(stats_cost_total, 2 * exact_cost_total + 4096)
      << "stats=" << stats_cost_total << " exact=" << exact_cost_total;
}

}  // namespace
}  // namespace dt::query
