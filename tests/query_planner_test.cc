/// Unit and differential tests for the predicate tree, the cost-aware
/// query planner and the cursor executor: predicate semantics,
/// access-path choice (including compound indexes), order_by/limit
/// push-down (operator pipeline + ExecStats counters), index/scan
/// agreement, the bounded top-k aggregation, the DataTamer facade
/// surface (Find/Explain, counters, snapshots) and the work each
/// access path saves on the demo corpus (entries and documents
/// touched against the scan, sort or fallback it replaces).
///
/// The differential harnesses at the bottom run randomized predicate
/// trees over a datagen-generated corpus and assert the planner's
/// output is identical to a naive full-scan oracle — serial and
/// 4-threaded, with and without indexes present (1200 unordered
/// comparisons), plus randomized order_by/order_desc/limit and
/// compound-index configurations against a sort+truncate oracle
/// (1500 more).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "datagen/webtext_gen.h"
#include "fusion/data_tamer.h"
#include "query/planner.h"
#include "query/predicate.h"
#include "query/query.h"
#include "query/request.h"
#include "storage/collection.h"
#include "test_files.h"

namespace dt::query {
namespace {

using storage::Collection;
using storage::DocBuilder;
using storage::DocId;
using storage::DocValue;

// ---------------------------------------------------------------------
// Predicate semantics
// ---------------------------------------------------------------------

TEST(PredicateTest, EqUsesIndexKeyComparison) {
  DocValue doc = DocBuilder().Set("n", 2).Set("s", "x").Build();
  // Numbers compare as one numeric domain (like the index).
  EXPECT_TRUE(Predicate::Eq("n", DocValue::Int(2))->Matches(doc));
  EXPECT_TRUE(Predicate::Eq("n", DocValue::Double(2.0))->Matches(doc));
  EXPECT_FALSE(Predicate::Eq("n", DocValue::Int(3))->Matches(doc));
  EXPECT_TRUE(Predicate::Eq("s", DocValue::Str("x"))->Matches(doc));
  // Missing fields collapse to the null key, like index insertion.
  EXPECT_TRUE(Predicate::Eq("missing", DocValue::Null())->Matches(doc));
  EXPECT_FALSE(Predicate::Eq("s", DocValue::Null())->Matches(doc));
}

TEST(PredicateTest, RangeIsInclusiveAndTyped) {
  DocValue doc = DocBuilder().Set("v", 5).Build();
  EXPECT_TRUE(
      Predicate::Range("v", DocValue::Int(5), DocValue::Int(9))->Matches(doc));
  EXPECT_TRUE(
      Predicate::Range("v", DocValue::Int(1), DocValue::Int(5))->Matches(doc));
  EXPECT_FALSE(
      Predicate::Range("v", DocValue::Int(6), DocValue::Int(9))->Matches(doc));
  // Numeric range never captures strings (strings order after numbers).
  DocValue sdoc = DocBuilder().Set("v", "5").Build();
  EXPECT_FALSE(
      Predicate::Range("v", DocValue::Int(1), DocValue::Int(9))->Matches(sdoc));
}

TEST(PredicateTest, BooleanCombinators) {
  DocValue doc = DocBuilder().Set("a", 1).Set("b", 2).Build();
  auto a1 = Predicate::Eq("a", DocValue::Int(1));
  auto b9 = Predicate::Eq("b", DocValue::Int(9));
  EXPECT_TRUE(Predicate::And({a1})->Matches(doc));
  EXPECT_FALSE(Predicate::And({a1, b9})->Matches(doc));
  EXPECT_TRUE(Predicate::Or({a1, b9})->Matches(doc));
  EXPECT_FALSE(Predicate::Or({b9})->Matches(doc));
  // Vacuous truth / falsity.
  EXPECT_TRUE(Predicate::And({})->Matches(doc));
  EXPECT_FALSE(Predicate::Or({})->Matches(doc));
}

TEST(PredicateTest, TextContainsTokenSemantics) {
  DocValue doc =
      DocBuilder().Set("text", "Matilda opened at the Shubert!").Build();
  EXPECT_TRUE(Predicate::TextContains("text", "matilda")->Matches(doc));
  EXPECT_TRUE(Predicate::TextContains("text", "SHUBERT Matilda")->Matches(doc));
  EXPECT_FALSE(Predicate::TextContains("text", "matilda wicked")->Matches(doc));
  // Zero tokens: any document with a string at the path matches.
  EXPECT_TRUE(Predicate::TextContains("text", " ,;")->Matches(doc));
  DocValue nontext = DocBuilder().Set("text", 42).Build();
  EXPECT_FALSE(Predicate::TextContains("text", "matilda")->Matches(nontext));
  EXPECT_FALSE(Predicate::TextContains("text", "")->Matches(nontext));
}

TEST(PredicateTest, ToStringRendersTree) {
  auto p = Predicate::And(
      {Predicate::Eq("type", DocValue::Str("Movie")),
       Predicate::Or({Predicate::Range("year", DocValue::Int(1990),
                                       DocValue::Int(1999)),
                      Predicate::TextContains("text", "wicked matilda")})});
  std::string s = p->ToString();
  EXPECT_NE(s.find("type == \"Movie\""), std::string::npos);
  EXPECT_NE(s.find("year in [1990, 1999]"), std::string::npos);
  EXPECT_NE(s.find("text contains {matilda, wicked}"), std::string::npos);
  EXPECT_NE(s.find(" AND "), std::string::npos);
  EXPECT_NE(s.find(" OR "), std::string::npos);
}

// ---------------------------------------------------------------------
// Planner access-path choice
// ---------------------------------------------------------------------

Collection MakeEntities() {
  Collection coll("dt.entity");
  auto add = [&](const char* type, const char* name, double conf) {
    coll.Insert(
        DocBuilder().Set("type", type).Set("name", name).Set("confidence",
                                                             conf).Build());
  };
  for (int i = 0; i < 30; ++i) add("Movie", i < 5 ? "Matilda" : "Wicked", 0.9);
  for (int i = 0; i < 10; ++i) add("Person", "John Smith", 0.5);
  return coll;
}

TEST(PlannerTest, EqPrefersIndex) {
  Collection coll = MakeEntities();
  ASSERT_TRUE(coll.CreateIndex("name").ok());
  auto pred = Predicate::Eq("name", DocValue::Str("Matilda"));
  QueryPlan plan = PlanFind(coll.GetView(), pred);
  EXPECT_EQ(plan.access, AccessPath::kIndexEq);
  EXPECT_EQ(plan.estimated_rows, 5);
  EXPECT_FALSE(plan.residual);
  EXPECT_NE(ExplainFind(coll.GetView(), pred).find("IXSCAN"),
            std::string::npos);

  auto via_index = Find(coll.GetView(), pred);
  FindOptions scan;
  scan.use_indexes = false;
  auto via_scan = Find(coll.GetView(), pred, scan);
  ASSERT_TRUE(via_index.ok());
  ASSERT_TRUE(via_scan.ok());
  EXPECT_EQ(*via_index, *via_scan);
  EXPECT_EQ(via_index->size(), 5u);
}

TEST(PlannerTest, UnindexedFallsBackToScan) {
  Collection coll = MakeEntities();
  auto pred = Predicate::Eq("name", DocValue::Str("Matilda"));
  QueryPlan plan = PlanFind(coll.GetView(), pred);
  EXPECT_EQ(plan.access, AccessPath::kCollScan);
  EXPECT_NE(ExplainFind(coll.GetView(), pred).find("COLLSCAN"),
            std::string::npos);
  auto ids = Find(coll.GetView(), pred);
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids->size(), 5u);
}

TEST(PlannerTest, RangeUsesOrderedIndexScan) {
  Collection coll = MakeEntities();
  ASSERT_TRUE(coll.CreateIndex("confidence").ok());
  auto pred = Predicate::Range("confidence", DocValue::Double(0.4),
                               DocValue::Double(0.6));
  QueryPlan plan = PlanFind(coll.GetView(), pred);
  EXPECT_EQ(plan.access, AccessPath::kIndexRange);
  auto ids = Find(coll.GetView(), pred);
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids->size(), 10u);  // the Person rows at 0.5
  EXPECT_TRUE(std::is_sorted(ids->begin(), ids->end()));
}

TEST(PlannerTest, AndPicksMostSelectiveDriver) {
  Collection coll = MakeEntities();
  ASSERT_TRUE(coll.CreateIndex("type").ok());
  ASSERT_TRUE(coll.CreateIndex("name").ok());
  // type == "Movie" hits 30 rows; name == "Matilda" hits 5: the name
  // index must drive.
  auto pred = Predicate::And({Predicate::Eq("type", DocValue::Str("Movie")),
                              Predicate::Eq("name", DocValue::Str("Matilda"))});
  QueryPlan plan = PlanFind(coll.GetView(), pred);
  EXPECT_EQ(plan.access, AccessPath::kIndexEq);
  ASSERT_NE(plan.driver, nullptr);
  EXPECT_EQ(plan.driver->path(), "name");
  EXPECT_TRUE(plan.residual);
  auto ids = Find(coll.GetView(), pred);
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids->size(), 5u);
}

TEST(PlannerTest, ResidualCoveringWholeCollectionDemotesToScan) {
  Collection coll = MakeEntities();
  ASSERT_TRUE(coll.CreateIndex("confidence").ok());
  // Every document passes the indexable child: the driver saves
  // nothing, so the planner takes the straight scan.
  auto pred = Predicate::And(
      {Predicate::Range("confidence", DocValue::Double(0.0),
                        DocValue::Double(1.0)),
       Predicate::Eq("name", DocValue::Str("Matilda"))});
  EXPECT_EQ(PlanFind(coll.GetView(), pred).access, AccessPath::kCollScan);
}

TEST(PlannerTest, OrOfIndexablesUnions) {
  Collection coll = MakeEntities();
  ASSERT_TRUE(coll.CreateIndex("name").ok());
  auto pred = Predicate::Or({Predicate::Eq("name", DocValue::Str("Matilda")),
                             Predicate::Eq("name", DocValue::Str("Wicked"))});
  QueryPlan plan = PlanFind(coll.GetView(), pred);
  EXPECT_EQ(plan.access, AccessPath::kUnion);
  EXPECT_EQ(plan.branches.size(), 2u);
  auto ids = Find(coll.GetView(), pred);
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids->size(), 30u);
  EXPECT_TRUE(std::is_sorted(ids->begin(), ids->end()));
}

TEST(PlannerTest, OrWithUnindexedBranchScansOnce) {
  Collection coll = MakeEntities();
  ASSERT_TRUE(coll.CreateIndex("name").ok());
  auto pred =
      Predicate::Or({Predicate::Eq("name", DocValue::Str("Matilda")),
                     Predicate::Eq("type", DocValue::Str("Person"))});
  EXPECT_EQ(PlanFind(coll.GetView(), pred).access, AccessPath::kCollScan);
  auto ids = Find(coll.GetView(), pred);
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids->size(), 15u);
}

TEST(PlannerTest, TextContainsRoutesThroughInvertedIndex) {
  Collection coll("dt.instance");
  coll.Insert(DocBuilder().Set("text", "Matilda at the Shubert").Build());
  coll.Insert(DocBuilder().Set("text", "Wicked at the Gershwin").Build());
  coll.Insert(DocBuilder().Set("text", "Matilda and Wicked lead").Build());
  coll.Insert(DocBuilder().Set("other", 1).Build());
  auto pred = Predicate::TextContains("text", "matilda");
  // A view without the text index plans the scan.
  EXPECT_EQ(PlanFind(coll.GetView(), pred).access, AccessPath::kCollScan);
  const storage::CollectionView indexed = coll.GetViewWithTextIndex("text");

  QueryPlan plan = PlanFind(indexed, pred);
  EXPECT_EQ(plan.access, AccessPath::kTextIndex);
  auto via_index = Find(indexed, pred);
  FindOptions scan;
  scan.use_indexes = false;
  auto via_scan = Find(indexed, pred, scan);
  ASSERT_TRUE(via_index.ok());
  ASSERT_TRUE(via_scan.ok());
  EXPECT_EQ(*via_index, *via_scan);
  EXPECT_EQ(via_index->size(), 2u);

  // Unknown token: conjunction is empty, still via the text path.
  auto none = Find(indexed, Predicate::TextContains("text", "matilda zebra"));
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());

  // A text index on a different field does not serve this path.
  EXPECT_EQ(PlanFind(coll.GetViewWithTextIndex("body"), pred).access,
            AccessPath::kCollScan);
}

TEST(PlannerTest, LimitTruncatesAscendingIds) {
  Collection coll = MakeEntities();
  ASSERT_TRUE(coll.CreateIndex("type").ok());
  auto pred = Predicate::Eq("type", DocValue::Str("Movie"));
  FindOptions opts;
  opts.limit = 3;
  auto ids = Find(coll.GetView(), pred, opts);
  ASSERT_TRUE(ids.ok());
  ASSERT_EQ(ids->size(), 3u);
  EXPECT_EQ((*ids)[0], 1u);
  EXPECT_EQ((*ids)[2], 3u);
}

TEST(PlannerTest, NullPredicateIsAnError) {
  Collection coll = MakeEntities();
  EXPECT_TRUE(Find(coll.GetView(), nullptr).status().IsInvalidArgument());
}

TEST(PlannerTest, ParallelScanIdenticalToSerial) {
  Collection coll = MakeEntities();
  auto pred = Predicate::Or({Predicate::Eq("name", DocValue::Str("Matilda")),
                             Predicate::Eq("type", DocValue::Str("Person"))});
  FindOptions serial;
  serial.use_indexes = false;
  ThreadPool pool(4);
  FindOptions par = serial;
  par.pool = &pool;
  auto a = Find(coll.GetView(), pred, serial);
  auto b = Find(coll.GetView(), pred, par);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_EQ(*a, *b);
}

TEST(PlannerTest, CountersFeedCollectionStats) {
  Collection coll = MakeEntities();
  ASSERT_TRUE(coll.CreateIndex("name").ok());
  EXPECT_EQ(coll.index_scans(), 0);
  EXPECT_EQ(coll.coll_scans(), 0);
  const storage::CollectionView view = coll.GetView();
  ASSERT_TRUE(Find(view, Predicate::Eq("name", DocValue::Str("Matilda"))).ok());
  ASSERT_TRUE(Find(view, Predicate::Eq("type", DocValue::Str("Movie"))).ok());
  EXPECT_EQ(coll.index_scans(), 1);
  EXPECT_EQ(coll.coll_scans(), 1);
  auto st = coll.Stats();
  EXPECT_EQ(st.index_scans, 1);
  EXPECT_EQ(st.coll_scans, 1);
  std::string s = st.ToString();
  EXPECT_NE(s.find("\"indexScans\" : 1"), std::string::npos);
  EXPECT_NE(s.find("\"collScans\" : 1"), std::string::npos);
}

// ---------------------------------------------------------------------
// Compound indexes
// ---------------------------------------------------------------------

TEST(CompoundPlannerTest, MultiEqAndRoutesThroughCompoundIndex) {
  Collection coll = MakeEntities();
  ASSERT_TRUE(coll.CreateIndex({"type", "name"}).ok());
  auto pred = Predicate::And({Predicate::Eq("type", DocValue::Str("Movie")),
                              Predicate::Eq("name", DocValue::Str("Matilda"))});
  QueryPlan plan = PlanFind(coll.GetView(), pred);
  EXPECT_EQ(plan.access, AccessPath::kIndexEq);
  ASSERT_NE(plan.index, nullptr);
  EXPECT_EQ(plan.index->field_path(), "type,name");
  // Both children bind index components: the scan is exact.
  EXPECT_FALSE(plan.residual);
  EXPECT_EQ(plan.estimated_rows, 5);
  std::string explain = ExplainFind(coll.GetView(), pred);
  EXPECT_NE(explain.find("IXSCAN(type,name)"), std::string::npos) << explain;

  auto ids = Find(coll.GetView(), pred);
  FindOptions scan;
  scan.use_indexes = false;
  auto oracle = Find(coll.GetView(), pred, scan);
  ASSERT_TRUE(ids.ok());
  ASSERT_TRUE(oracle.ok());
  EXPECT_EQ(*ids, *oracle);
  EXPECT_EQ(ids->size(), 5u);
}

TEST(CompoundPlannerTest, EqPlusRangeBindsCompoundPrefix) {
  Collection coll = MakeEntities();
  ASSERT_TRUE(coll.CreateIndex({"type", "confidence"}).ok());
  auto pred = Predicate::And(
      {Predicate::Eq("type", DocValue::Str("Person")),
       Predicate::Range("confidence", DocValue::Double(0.4),
                        DocValue::Double(0.6))});
  QueryPlan plan = PlanFind(coll.GetView(), pred);
  EXPECT_EQ(plan.access, AccessPath::kIndexRange);
  EXPECT_FALSE(plan.residual);
  EXPECT_EQ(plan.estimated_rows, 10);
  auto ids = Find(coll.GetView(), pred);
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids->size(), 10u);
  EXPECT_TRUE(std::is_sorted(ids->begin(), ids->end()));
}

TEST(CompoundPlannerTest, BareEqRidesCompoundLeadingComponent) {
  Collection coll = MakeEntities();
  ASSERT_TRUE(coll.CreateIndex({"name", "confidence"}).ok());
  auto pred = Predicate::Eq("name", DocValue::Str("Matilda"));
  QueryPlan plan = PlanFind(coll.GetView(), pred);
  EXPECT_EQ(plan.access, AccessPath::kIndexEq);
  ASSERT_NE(plan.index, nullptr);
  EXPECT_EQ(plan.index->field_path(), "name,confidence");
  auto ids = Find(coll.GetView(), pred);
  ASSERT_TRUE(ids.ok());
  EXPECT_EQ(ids->size(), 5u);
  EXPECT_TRUE(std::is_sorted(ids->begin(), ids->end()));
}

TEST(CompoundPlannerTest, CompoundBeatsSingleFieldResidualOnSelectivity) {
  Collection coll = MakeEntities();
  ASSERT_TRUE(coll.CreateIndex("type").ok());
  ASSERT_TRUE(coll.CreateIndex({"type", "name"}).ok());
  // The single "type" index estimates 30 rows and needs a residual;
  // the compound pins both children at 5 exact rows.
  auto pred = Predicate::And({Predicate::Eq("type", DocValue::Str("Movie")),
                              Predicate::Eq("name", DocValue::Str("Matilda"))});
  QueryPlan plan = PlanFind(coll.GetView(), pred);
  ASSERT_NE(plan.index, nullptr);
  EXPECT_EQ(plan.index->field_path(), "type,name");
  EXPECT_FALSE(plan.residual);
  EXPECT_EQ(plan.estimated_rows, 5);
}

// ---------------------------------------------------------------------
// order_by / limit semantics and push-down
// ---------------------------------------------------------------------

/// The ordering oracle: matching ids sorted by (index key of the
/// order-by field, id) — descending flips the key comparison only —
/// then truncated. This is the contract Find must meet on every path.
std::vector<DocId> OracleOrdered(const Collection& coll,
                                 const PredicatePtr& p,
                                 const std::string& order_by, bool desc,
                                 int64_t limit) {
  const storage::CollectionView view = coll.GetView();
  std::vector<DocId> ids;
  view.ForEach([&](DocId id, const DocValue& doc) {
    if (p == nullptr || p->Matches(doc)) ids.push_back(id);
  });
  if (!order_by.empty()) {
    auto key_of = [&](DocId id) {
      const DocValue* doc = view.Get(id);
      const DocValue* v = doc == nullptr ? nullptr : doc->FindPath(order_by);
      return v == nullptr ? storage::IndexKey()
                          : storage::IndexKey::FromValue(*v);
    };
    std::sort(ids.begin(), ids.end(), [&](DocId a, DocId b) {
      storage::IndexKey ka = key_of(a), kb = key_of(b);
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

TEST(OrderLimitTest, OrderBySortsByKeyThenIdBothDirections) {
  Collection coll = MakeEntities();
  // A few docs missing "confidence" exercise the null-key placement.
  coll.Insert(DocBuilder().Set("type", "Venue").Set("name", "Shubert").Build());
  coll.Insert(DocBuilder().Set("type", "Venue").Set("name", "Gershwin").Build());
  auto pred = Predicate::And({});  // match everything
  for (bool desc : {false, true}) {
    FindOptions opts;
    opts.order_by = "confidence";
    opts.order_desc = desc;
    auto got = Find(coll.GetView(), pred, opts);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, OracleOrdered(coll, pred, "confidence", desc, -1))
        << "desc=" << desc;
  }
}

TEST(OrderLimitTest, IndexedOrderLimitStreamsOffIndexAndStopsEarly) {
  Collection coll("dt.ranked");
  // (i * 37) % 1000 is injective for i < 200: unique rank keys.
  for (int i = 0; i < 200; ++i) {
    coll.Insert(
        DocBuilder().Set("rank", (i * 37) % 1000).Set("v", i).Build());
  }
  ASSERT_TRUE(coll.CreateIndex("rank").ok());
  auto pred = Predicate::And({});  // match everything
  for (bool desc : {false, true}) {
    ExecStats stats;
    FindOptions opts;
    opts.order_by = "rank";
    opts.order_desc = desc;
    opts.limit = 10;
    opts.stats = &stats;
    std::string explain = ExplainFind(coll.GetView(), pred, opts);
    EXPECT_NE(explain.find("IXSCAN"), std::string::npos) << explain;
    EXPECT_NE(explain.find("LIMIT(10)"), std::string::npos) << explain;
    EXPECT_EQ(explain.find("SORT"), std::string::npos) << explain;
    EXPECT_EQ(explain.find("TOPK"), std::string::npos) << explain;

    auto got = Find(coll.GetView(), pred, opts);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, OracleOrdered(coll, pred, "rank", desc, 10));
    // The push-down promise: ~limit index entries examined (one run
    // plus a one-entry lookahead each), nothing close to 200 — and no
    // document ever fetched.
    EXPECT_LE(stats.index_entries_examined, 12) << "desc=" << desc;
    EXPECT_EQ(stats.docs_examined, 0);
    EXPECT_EQ(stats.docs_returned, 10);
  }
}

TEST(OrderLimitTest, EqPrefixOrderCoveredByCompoundIndex) {
  Collection coll = MakeEntities();
  ASSERT_TRUE(coll.CreateIndex({"type", "name"}).ok());
  auto pred = Predicate::Eq("type", DocValue::Str("Movie"));
  ExecStats stats;
  FindOptions opts;
  opts.order_by = "name";
  opts.limit = 4;
  opts.stats = &stats;
  std::string explain = ExplainFind(coll.GetView(), pred, opts);
  EXPECT_NE(explain.find("IXSCAN(type)"), std::string::npos) << explain;
  EXPECT_EQ(explain.find("SORT"), std::string::npos) << explain;
  EXPECT_EQ(explain.find("TOPK"), std::string::npos) << explain;
  auto got = Find(coll.GetView(), pred, opts);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, OracleOrdered(coll, pred, "name", false, 4));
  // The first name run ("Matilda", 5 entries) already covers limit 4:
  // nowhere near the 30 Movie entries.
  EXPECT_LE(stats.index_entries_examined, 7);
}

TEST(OrderLimitTest, UnindexedOrderLimitFusesIntoTopK) {
  Collection coll = MakeEntities();
  auto pred = Predicate::Eq("type", DocValue::Str("Movie"));
  FindOptions opts;
  opts.order_by = "name";
  opts.order_desc = true;
  opts.limit = 7;
  std::string explain = ExplainFind(coll.GetView(), pred, opts);
  EXPECT_NE(explain.find("COLLSCAN"), std::string::npos) << explain;
  EXPECT_NE(explain.find("TOPK(name desc, k=7)"), std::string::npos)
      << explain;
  EXPECT_EQ(explain.find("SORT"), std::string::npos) << explain;
  auto got = Find(coll.GetView(), pred, opts);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, OracleOrdered(coll, pred, "name", true, 7));
}

TEST(OrderLimitTest, UncoveredOrderWithoutLimitSorts) {
  Collection coll = MakeEntities();
  ASSERT_TRUE(coll.CreateIndex("name").ok());
  auto pred = Predicate::Eq("name", DocValue::Str("Wicked"));
  FindOptions opts;
  opts.order_by = "confidence";
  std::string explain = ExplainFind(coll.GetView(), pred, opts);
  EXPECT_NE(explain.find("IXSCAN"), std::string::npos) << explain;
  EXPECT_NE(explain.find("SORT(confidence)"), std::string::npos) << explain;
  auto got = Find(coll.GetView(), pred, opts);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, OracleOrdered(coll, pred, "confidence", false, -1));
}

TEST(OrderLimitTest, SerialCollScanLimitStopsEarly) {
  Collection coll = MakeEntities();
  auto pred = Predicate::Eq("type", DocValue::Str("Movie"));
  ExecStats stats;
  FindOptions opts;
  opts.limit = 3;
  opts.stats = &stats;
  auto got = Find(coll.GetView(), pred, opts);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, (std::vector<DocId>{1, 2, 3}));
  // Limit is honored inside execution: the serial scan stopped after
  // the third match instead of visiting all 40 documents.
  EXPECT_EQ(stats.docs_examined, 3);
}

// ---------------------------------------------------------------------
// Planner-backed aggregation
// ---------------------------------------------------------------------

TEST(CountAggregationTest, IndexOnlyCountMatchesScanCount) {
  Collection coll = MakeEntities();
  ASSERT_TRUE(coll.CreateIndex("name").ok());
  // Unfiltered count over an indexed path never touches a document.
  int64_t scans_before = coll.coll_scans();
  const storage::CollectionView view = coll.GetView();
  auto via_index = CountByField(view, "name", PredicatePtr());
  EXPECT_EQ(coll.coll_scans(), scans_before);
  FindOptions scan;
  scan.use_indexes = false;
  auto via_scan = CountByField(view, "name", PredicatePtr(), scan);
  ASSERT_EQ(via_index.size(), via_scan.size());
  for (size_t i = 0; i < via_index.size(); ++i) {
    EXPECT_EQ(via_index[i].key, via_scan[i].key);
    EXPECT_EQ(via_index[i].count, via_scan[i].count);
  }
  ASSERT_EQ(via_index.size(), 3u);
  EXPECT_EQ(via_index[0].key, "Wicked");
  EXPECT_EQ(via_index[0].count, 25);
}

TEST(CountAggregationTest, PredicateRestrictsGroups) {
  Collection coll = MakeEntities();
  ASSERT_TRUE(coll.CreateIndex("type").ok());
  auto rows = CountByField(coll.GetView(), "name",
                           Predicate::Eq("type", DocValue::Str("Movie")));
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].key, "Wicked");
  EXPECT_EQ(rows[1].key, "Matilda");
  EXPECT_EQ(rows[1].count, 5);
}

TEST(CountAggregationTest, BoundedTopKMatchesFullSortPrefix) {
  Collection coll = MakeEntities();
  const storage::CollectionView view = coll.GetView();
  auto all = CountByField(view, "name", PredicatePtr());
  for (int k : {0, 1, 2, 3, 99}) {
    auto top = TopKByCount(view, "name", k, PredicatePtr());
    size_t want = std::min<size_t>(all.size(), static_cast<size_t>(k));
    ASSERT_EQ(top.size(), want) << "k=" << k;
    for (size_t i = 0; i < want; ++i) {
      EXPECT_EQ(top[i].key, all[i].key) << "k=" << k << " i=" << i;
      EXPECT_EQ(top[i].count, all[i].count);
    }
  }
}

// ---------------------------------------------------------------------
// Facade surface: Find/Explain, counters, snapshot round trip
// ---------------------------------------------------------------------

struct FacadeCorpus {
  datagen::WebTextGenerator gen;
  textparse::Gazetteer gazetteer;
  std::vector<datagen::GeneratedFragment> fragments;

  explicit FacadeCorpus(int64_t num_fragments) : gen(MakeOpts(num_fragments)) {
    gazetteer = gen.BuildGazetteer();
    fragments = gen.Generate();
  }

  static datagen::WebTextGenOptions MakeOpts(int64_t n) {
    datagen::WebTextGenOptions o;
    o.num_fragments = n;
    return o;
  }

  void Ingest(fusion::DataTamer* tamer, bool with_indexes) const {
    tamer->SetGazetteer(&gazetteer);
    for (const auto& frag : fragments) {
      ASSERT_TRUE(
          tamer->IngestTextFragment(frag.text, frag.feed, frag.timestamp)
              .ok());
    }
    if (with_indexes) ASSERT_TRUE(tamer->CreateStandardIndexes().ok());
  }
};

/// A find-family request for `DataTamer::Execute`.
QueryRequest FindReq(QueryOp op, std::string collection, PredicatePtr pred) {
  QueryRequest req;
  req.op = op;
  req.collection = std::move(collection);
  req.predicate = std::move(pred);
  return req;
}

TEST(DataTamerFindTest, FindAndExplainRouteThroughIndexes) {
  FacadeCorpus corpus(150);
  fusion::DataTamer tamer;
  corpus.Ingest(&tamer, /*with_indexes=*/true);

  auto pred = Predicate::Eq("type", DocValue::Str("Movie"));
  QueryRequest req = FindReq(QueryOp::kExplain, "entity", pred);
  auto explain = tamer.Execute(req);
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->explain.find("IXSCAN"), std::string::npos)
      << explain->explain;

  req.op = QueryOp::kFind;
  auto ids = tamer.Execute(req);
  ASSERT_TRUE(ids.ok());
  EXPECT_GT(ids->ids.size(), 0u);
  req.use_indexes = false;
  auto scanned = tamer.Execute(req);
  ASSERT_TRUE(scanned.ok());
  EXPECT_EQ(ids->ids, scanned->ids);
  EXPECT_GT(tamer.entity_collection()->index_scans(), 0);

  // TextContains on the instance collection rides the fragment index.
  QueryRequest text = FindReq(QueryOp::kExplain, "instance",
                              Predicate::TextContains("text", "matilda"));
  auto text_explain = tamer.Execute(text);
  ASSERT_TRUE(text_explain.ok());
  EXPECT_NE(text_explain->explain.find("TEXT"), std::string::npos)
      << text_explain->explain;
  text.op = QueryOp::kFind;
  auto text_ids = tamer.Execute(text);
  text.use_indexes = false;
  auto text_scan = tamer.Execute(text);
  ASSERT_TRUE(text_ids.ok());
  ASSERT_TRUE(text_scan.ok());
  EXPECT_EQ(text_ids->ids, text_scan->ids);
  EXPECT_GT(text_ids->ids.size(), 0u);

  EXPECT_TRUE(tamer.Execute(FindReq(QueryOp::kFind, "no_such_coll", pred))
                  .status()
                  .IsNotFound());
}

TEST(DataTamerFindTest, SnapshotPreservesPlannerVisibleIndexes) {
  FacadeCorpus corpus(120);
  fusion::DataTamer tamer;
  corpus.Ingest(&tamer, /*with_indexes=*/true);

  auto eq = Predicate::Eq("type", DocValue::Str("Movie"));
  auto tree = Predicate::And(
      {Predicate::Eq("type", DocValue::Str("Movie")),
       Predicate::Eq("award_winning", DocValue::Str("true"))});
  auto text = Predicate::TextContains("text", "matilda");
  auto before_eq = tamer.Execute(FindReq(QueryOp::kFind, "entity", eq));
  auto before_tree = tamer.Execute(FindReq(QueryOp::kFind, "entity", tree));
  auto before_text = tamer.Execute(FindReq(QueryOp::kFind, "instance", text));
  ASSERT_TRUE(before_eq.ok());
  ASSERT_TRUE(before_tree.ok());
  ASSERT_TRUE(before_text.ok());
  ASSERT_GT(tamer.entity_collection()->index_scans(), 0);

  TempPath snap("planner_snapshot");
  ASSERT_TRUE(tamer.SaveSnapshot(snap.path()).ok());
  fusion::DataTamer loaded;
  loaded.SetGazetteer(&corpus.gazetteer);
  ASSERT_TRUE(loaded.LoadSnapshot(snap.path()).ok());

  // Counters are observational, not data: a loaded store starts fresh.
  EXPECT_EQ(loaded.entity_collection()->index_scans(), 0);
  EXPECT_EQ(loaded.entity_collection()->coll_scans(), 0);

  // The rebuilt indexes still drive the same plans...
  auto explain = loaded.Execute(FindReq(QueryOp::kExplain, "entity", eq));
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->explain.find("IXSCAN"), std::string::npos)
      << explain->explain;

  // ...and every query answers identically to the pre-save store.
  auto after_eq = loaded.Execute(FindReq(QueryOp::kFind, "entity", eq));
  auto after_tree = loaded.Execute(FindReq(QueryOp::kFind, "entity", tree));
  auto after_text = loaded.Execute(FindReq(QueryOp::kFind, "instance", text));
  ASSERT_TRUE(after_eq.ok());
  ASSERT_TRUE(after_tree.ok());
  ASSERT_TRUE(after_text.ok());
  EXPECT_EQ(before_eq->ids, after_eq->ids);
  EXPECT_EQ(before_tree->ids, after_tree->ids);
  EXPECT_EQ(before_text->ids, after_text->ids);
  EXPECT_GT(loaded.entity_collection()->index_scans(), 0);
}

TEST(DataTamerFindTest, FacadeFindPassesOrderAndLimitThrough) {
  FacadeCorpus corpus(120);
  fusion::DataTamer tamer;
  corpus.Ingest(&tamer, /*with_indexes=*/true);
  auto pred = Predicate::Eq("type", DocValue::Str("Movie"));
  QueryRequest req = FindReq(QueryOp::kFind, "entity", pred);
  req.order_by = "confidence";
  req.order_desc = true;
  req.limit = 5;
  auto got = tamer.Execute(req);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(got->ids, OracleOrdered(*tamer.entity_collection(), pred,
                                    "confidence", true, 5));
}

// ---------------------------------------------------------------------
// Differential harness: planner vs full-scan oracle
// ---------------------------------------------------------------------

/// The ground truth: evaluate the predicate against every document.
std::vector<DocId> OracleFind(const Collection& coll, const PredicatePtr& p) {
  std::vector<DocId> out;
  coll.GetView().ForEach([&](DocId id, const DocValue& doc) {
    if (p->Matches(doc)) out.push_back(id);
  });
  return out;
}

/// Random predicate trees over the entity collection's field space.
/// Values are sampled from live documents (hit-rich) or drawn random
/// (mostly-miss), so both selective and empty branches occur.
class PredicateGen {
 public:
  PredicateGen(const Collection& coll, Rng* rng) : rng_(rng) {
    coll.GetView().ForEach([&](DocId, const DocValue& doc) {
      if (samples_.size() < 400) samples_.push_back(doc);
    });
  }

  PredicatePtr Random(int depth) {
    if (depth <= 0 || rng_->Bernoulli(0.55)) return Leaf();
    int n = 2 + static_cast<int>(rng_->Uniform(2));
    std::vector<PredicatePtr> children;
    for (int i = 0; i < n; ++i) children.push_back(Random(depth - 1));
    return rng_->Bernoulli(0.5) ? Predicate::And(std::move(children))
                                : Predicate::Or(std::move(children));
  }

 private:
  static constexpr const char* kPaths[] = {
      "type",        "name",          "surface", "confidence",
      "instance_id", "award_winning", "source",  "no_such_field"};

  DocValue SampleValue(const std::string& path) {
    switch (rng_->Uniform(5)) {
      case 0:
        return DocValue::Str("miss-" + std::to_string(rng_->Uniform(100)));
      case 1:
        return DocValue::Int(rng_->UniformInt(-5, 2000000));
      case 2:
        return DocValue::Double(rng_->NextDouble());
      default: {
        if (samples_.empty()) return DocValue::Null();
        const DocValue* v =
            samples_[rng_->Uniform(samples_.size())].FindPath(path);
        return v == nullptr ? DocValue::Null() : *v;
      }
    }
  }

  PredicatePtr Leaf() {
    const std::string path = kPaths[rng_->Uniform(8)];
    if (rng_->Bernoulli(0.6)) return Predicate::Eq(path, SampleValue(path));
    // Unordered bound sampling on purpose: inverted ranges must come
    // back empty from both the planner and the oracle.
    return Predicate::Range(path, SampleValue(path), SampleValue(path));
  }

  Rng* rng_;
  std::vector<DocValue> samples_;
};

TEST(PlannerOracleDifferentialTest, RandomTreesMatchOracle) {
  FacadeCorpus corpus(300);
  fusion::DataTamer indexed;
  corpus.Ingest(&indexed, /*with_indexes=*/true);
  fusion::DataTamer unindexed;
  corpus.Ingest(&unindexed, /*with_indexes=*/false);

  ThreadPool pool(4);
  int64_t comparisons = 0;
  for (bool with_indexes : {true, false}) {
    const fusion::DataTamer& tamer = with_indexes ? indexed : unindexed;
    const Collection& coll = *tamer.entity_collection();
    Rng rng(with_indexes ? 4242 : 2424);
    PredicateGen gen(coll, &rng);
    for (int trial = 0; trial < 300; ++trial) {
      PredicatePtr pred = gen.Random(3);
      std::vector<DocId> expected = OracleFind(coll, pred);
      for (int threads : {1, 4}) {
        FindOptions opts;
        opts.pool = threads > 1 ? &pool : nullptr;
        auto got = Find(coll.GetView(), pred, opts);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_EQ(*got, expected)
            << "indexes=" << with_indexes << " threads=" << threads
            << " trial=" << trial << "\npred: " << pred->ToString()
            << "\nplan: " << ExplainFind(coll.GetView(), pred, opts);
        ++comparisons;
      }
    }
  }
  // The acceptance bar for this harness: >= 1000 clean comparisons.
  EXPECT_GE(comparisons, 1200);
}

TEST(PlannerOracleDifferentialTest, RandomOrdersLimitsAndCompoundIndexes) {
  FacadeCorpus corpus(300);
  fusion::DataTamer unindexed;
  corpus.Ingest(&unindexed, /*with_indexes=*/false);
  fusion::DataTamer indexed;
  corpus.Ingest(&indexed, /*with_indexes=*/true);
  // Third configuration: the standard single-field set plus compound
  // indexes the And-matcher can prefer (and order-covering prefixes).
  fusion::DataTamer compound;
  corpus.Ingest(&compound, /*with_indexes=*/true);
  ThreadPool pool(4);
  auto* compound_coll = compound.entity_collection();
  ASSERT_TRUE(compound_coll->CreateIndex({"type", "name"}).ok());
  ASSERT_TRUE(
      compound_coll->CreateIndex({"type", "award_winning", "confidence"})
          .ok());
  ASSERT_TRUE(compound_coll->CreateIndex({"confidence", "instance_id"}).ok());

  constexpr const char* kOrderPaths[] = {"confidence", "name", "instance_id",
                                         "no_such_field"};
  const fusion::DataTamer* tamers[] = {&unindexed, &indexed, &compound};
  constexpr uint64_t kSeeds[] = {1717, 2828, 3939};
  int64_t comparisons = 0;
  for (int cfg = 0; cfg < 3; ++cfg) {
    const Collection& coll = *tamers[cfg]->entity_collection();
    Rng rng(kSeeds[cfg]);
    PredicateGen gen(coll, &rng);
    for (int trial = 0; trial < 250; ++trial) {
      PredicatePtr pred = gen.Random(3);
      std::string order_by;
      bool desc = false;
      if (rng.Bernoulli(0.66)) {
        order_by = kOrderPaths[rng.Uniform(4)];
        desc = rng.Bernoulli(0.5);
      }
      int64_t limit = -1;
      switch (rng.Uniform(4)) {
        case 0:
          limit = -1;
          break;
        case 1:
          limit = 0;
          break;
        case 2:
          limit = static_cast<int64_t>(rng.Uniform(25));
          break;
        default:
          limit = 100000;  // larger than any result set
      }
      std::vector<DocId> expected =
          OracleOrdered(coll, pred, order_by, desc, limit);
      for (int threads : {1, 4}) {
        FindOptions opts;
        opts.pool = threads > 1 ? &pool : nullptr;
        opts.order_by = order_by;
        opts.order_desc = desc;
        opts.limit = limit;
        auto got = Find(coll.GetView(), pred, opts);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_EQ(*got, expected)
            << "cfg=" << cfg << " threads=" << threads << " trial=" << trial
            << " order_by=" << order_by << " desc=" << desc
            << " limit=" << limit << "\npred: " << pred->ToString()
            << "\nplan: " << ExplainFind(coll.GetView(), pred, opts);
        ++comparisons;
      }
    }
  }
  // The acceptance bar: >= 1000 randomized comparisons including
  // order/limit/compound cases.
  EXPECT_GE(comparisons, 1500);
}

// ---------------------------------------------------------------------
// Resumable pagination: stitched pages vs one-shot, token safety
// ---------------------------------------------------------------------

/// Fetches every page of `pred` at `page_size`, chaining continuation
/// tokens, and returns the concatenation. Asserts token discipline on
/// the way: pages never exceed the requested size and a token only
/// ever follows a completely full page.
std::vector<DocId> StitchPages(const Collection& coll, const PredicatePtr& pred,
                               FindOptions opts, int64_t page_size) {
  opts.page_size = page_size;
  opts.resume_token.clear();
  std::vector<DocId> out;
  for (int pages = 0;; ++pages) {
    EXPECT_LT(pages, 5000) << "pagination failed to terminate";
    if (pages >= 5000) break;
    auto page = FindPage(coll.GetView(), pred, opts);
    EXPECT_TRUE(page.ok()) << page.status().ToString();
    if (!page.ok()) break;
    EXPECT_LE(static_cast<int64_t>(page->ids.size()), page_size);
    out.insert(out.end(), page->ids.begin(), page->ids.end());
    if (page->next_token.empty()) break;
    EXPECT_EQ(static_cast<int64_t>(page->ids.size()), page_size);
    opts.resume_token = page->next_token;
  }
  return out;
}

TEST(PaginationTest, PageSizeValidationAndUnpagedBehavior) {
  Collection coll = MakeEntities();
  auto pred = Predicate::Eq("type", DocValue::Str("Movie"));
  FindOptions opts;
  opts.page_size = 0;
  EXPECT_TRUE(
      FindPage(coll.GetView(), pred, opts).status().IsInvalidArgument());
  opts.page_size = -7;
  EXPECT_TRUE(
      FindPage(coll.GetView(), pred, opts).status().IsInvalidArgument());
  // Unpaged: the whole result, no token.
  opts.page_size = -1;
  auto all = FindPage(coll.GetView(), pred, opts);
  ASSERT_TRUE(all.ok());
  EXPECT_EQ(all->ids.size(), 30u);
  EXPECT_TRUE(all->next_token.empty());
  // A page covering the whole result mints no token either (the probe
  // found nothing): clients never chase an empty trailing page.
  opts.page_size = 30;
  auto exact = FindPage(coll.GetView(), pred, opts);
  ASSERT_TRUE(exact.ok());
  EXPECT_EQ(exact->ids.size(), 30u);
  EXPECT_TRUE(exact->next_token.empty());
}

TEST(PaginationTest, StitchedPagesMatchOneShotOnEveryAccessPath) {
  Collection coll = MakeEntities();
  ASSERT_TRUE(coll.CreateIndex("name").ok());
  ASSERT_TRUE(coll.CreateIndex({"type", "name"}).ok());
  ThreadPool pool(4);
  struct Case {
    const char* label;
    PredicatePtr pred;
    std::string order_by;
    bool desc;
    int64_t limit;
    int threads;
    bool use_indexes;
  };
  const auto movie = Predicate::Eq("type", DocValue::Str("Movie"));
  const auto matilda = Predicate::Eq("name", DocValue::Str("Matilda"));
  std::vector<Case> cases = {
      {"ixscan eq", matilda, "", false, -1, 1, true},
      {"ixscan order covered", movie, "name", false, -1, 1, true},
      {"ixscan order covered desc limit", movie, "name", true, 9, 1, true},
      {"collscan serial", movie, "", false, -1, 1, false},
      {"collscan parallel", movie, "", false, -1, 4, false},
      {"collscan sort", movie, "confidence", false, -1, 1, false},
      {"collscan topk", movie, "name", true, 8, 1, false},
      {"union", Predicate::Or({matilda,
                               Predicate::Eq("name", DocValue::Str("Wicked"))}),
       "", false, -1, 1, true},
      {"merge union",
       Predicate::Or({movie, Predicate::Eq("type", DocValue::Str("Person"))}),
       "name", false, 11, 1, true},
  };
  for (const Case& c : cases) {
    FindOptions opts;
    opts.order_by = c.order_by;
    opts.order_desc = c.desc;
    opts.limit = c.limit;
    opts.pool = c.threads > 1 ? &pool : nullptr;
    opts.use_indexes = c.use_indexes;
    std::vector<DocId> expected =
        OracleOrdered(coll, c.pred, c.order_by, c.desc, c.limit);
    for (int64_t page_size : {1, 3, 7, 1000}) {
      EXPECT_EQ(StitchPages(coll, c.pred, opts, page_size), expected)
          << c.label << " page_size=" << page_size
          << "\nplan: " << ExplainFind(coll.GetView(), c.pred, opts);
    }
  }
}

TEST(PaginationTest, LimitSpansPagesAndPageSizeMayChangeMidStream) {
  Collection coll = MakeEntities();
  ASSERT_TRUE(coll.CreateIndex("type").ok());
  auto pred = Predicate::Eq("type", DocValue::Str("Movie"));
  FindOptions opts;
  opts.limit = 10;
  opts.page_size = 3;
  std::vector<DocId> stitched;
  auto page = FindPage(coll.GetView(), pred, opts);
  for (int pages = 1;; ++pages) {
    ASSERT_TRUE(page.ok());
    stitched.insert(stitched.end(), page->ids.begin(), page->ids.end());
    if (page->next_token.empty()) {
      // 10 results at page size 3: 3 + 3 + 3 + 1.
      EXPECT_EQ(pages, 4);
      break;
    }
    opts.resume_token = page->next_token;
    page = FindPage(coll.GetView(), pred, opts);
  }
  FindOptions one_shot;
  one_shot.limit = 10;
  EXPECT_EQ(stitched, *Find(coll.GetView(), pred, one_shot));

  // The fingerprint covers the query, not the page geometry: a client
  // may fetch the next page at a different size.
  opts.resume_token.clear();
  opts.page_size = 4;
  auto first = FindPage(coll.GetView(), pred, opts);
  ASSERT_TRUE(first.ok());
  opts.resume_token = first->next_token;
  opts.page_size = 6;
  auto rest = FindPage(coll.GetView(), pred, opts);
  ASSERT_TRUE(rest.ok());
  std::vector<DocId> spliced = first->ids;
  spliced.insert(spliced.end(), rest->ids.begin(), rest->ids.end());
  EXPECT_EQ(spliced, stitched);
}

TEST(PaginationTest, ResumeExaminesPageEntriesNotOffset) {
  Collection coll("dt.ranked");
  // (i * 37) % 10000 is injective for i < 400: unique rank keys, so
  // each order-grouped run holds one entry.
  for (int i = 0; i < 400; ++i) {
    coll.Insert(DocBuilder()
                    .Set("type", "frag")
                    .Set("rank", (i * 37) % 10000)
                    .Set("v", i)
                    .Build());
  }
  ASSERT_TRUE(coll.CreateIndex({"type", "rank"}).ok());
  auto pred = Predicate::Eq("type", DocValue::Str("frag"));
  ExecStats stats;
  FindOptions opts;
  opts.order_by = "rank";
  opts.page_size = 10;
  opts.stats = &stats;
  std::vector<DocId> stitched;
  int resumes = 0;
  for (;;) {
    auto page = FindPage(coll.GetView(), pred, opts);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    stitched.insert(stitched.end(), page->ids.begin(), page->ids.end());
    // The acceptance bar: every page — page 2 as much as page 39, i.e.
    // at any consumed offset — examines O(page_size) index entries
    // (one per unique-key run, plus the lookahead, the probe and the
    // checkpoint run's suppressed entry), never O(offset).
    EXPECT_LE(stats.index_entries_examined, 14)
        << "resume #" << resumes << " re-walked the consumed offset";
    EXPECT_EQ(stats.docs_examined, 0);
    if (page->next_token.empty()) break;
    opts.resume_token = page->next_token;
    ++resumes;
  }
  EXPECT_EQ(resumes, 39);  // 400 ids at page size 10
  EXPECT_EQ(stitched, OracleOrdered(coll, pred, "rank", false, -1));
}

TEST(PaginationTest, TamperedTokensAreRejected) {
  Collection coll = MakeEntities();
  ASSERT_TRUE(coll.CreateIndex("type").ok());
  auto pred = Predicate::Eq("type", DocValue::Str("Movie"));
  FindOptions opts;
  opts.page_size = 5;
  auto page = FindPage(coll.GetView(), pred, opts);
  ASSERT_TRUE(page.ok());
  const std::string token = page->next_token;
  ASSERT_FALSE(token.empty());

  // Any byte flip anywhere in the token fails the seal.
  const size_t step = std::max<size_t>(1, token.size() / 17);
  for (size_t i = 0; i < token.size(); i += step) {
    std::string bent = token;
    bent[i] = static_cast<char>(bent[i] ^ 0x5A);
    opts.resume_token = bent;
    EXPECT_TRUE(
        FindPage(coll.GetView(), pred, opts).status().IsInvalidArgument())
        << "flipped byte " << i << " was accepted";
  }
  // Truncations, suffix growth and garbage too.
  opts.resume_token = token.substr(0, token.size() - 3);
  EXPECT_TRUE(
      FindPage(coll.GetView(), pred, opts).status().IsInvalidArgument());
  opts.resume_token = token + "x";
  EXPECT_TRUE(
      FindPage(coll.GetView(), pred, opts).status().IsInvalidArgument());
  opts.resume_token = "definitely not a token";
  EXPECT_TRUE(
      FindPage(coll.GetView(), pred, opts).status().IsInvalidArgument());
  // The untouched token still works.
  opts.resume_token = token;
  auto resumed = FindPage(coll.GetView(), pred, opts);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->ids.size(), 5u);
}

TEST(PaginationTest, ResumeAfterMutationServesPinnedVersion) {
  // Minting a token retains the storage version the page executed
  // against: later mutations publish new versions, but the resumed
  // stream continues on the pinned one, so the stitched result is
  // byte-identical to the pre-mutation one-shot answer — no skipped or
  // duplicated ids, whatever the writer did in between.
  auto pred = Predicate::Eq("type", DocValue::Str("Movie"));
  auto run = [&](const std::function<void(Collection*)>& mutate) {
    Collection coll = MakeEntities();
    auto expected = Find(coll.GetView(), pred, FindOptions{});
    ASSERT_TRUE(expected.ok());
    FindOptions opts;
    opts.page_size = 5;
    auto page = FindPage(coll.GetView(), pred, opts);
    ASSERT_TRUE(page.ok());
    std::vector<DocId> stitched = page->ids;
    std::string token = page->next_token;
    ASSERT_FALSE(token.empty());
    mutate(&coll);
    while (!token.empty()) {
      opts.resume_token = token;
      auto next = FindPage(coll.GetView(), pred, opts);
      ASSERT_TRUE(next.ok()) << next.status().ToString();
      stitched.insert(stitched.end(), next->ids.begin(), next->ids.end());
      token = next->next_token;
    }
    EXPECT_EQ(stitched, *expected);
  };
  run([](Collection* coll) {
    coll->Insert(
        DocBuilder().Set("type", "Movie").Set("name", "New").Build());
  });
  run([](Collection* coll) {
    ASSERT_TRUE(coll->Remove(40).ok());  // far past the consumed position
  });
  run([](Collection* coll) {
    ASSERT_TRUE(
        coll->Update(40, DocBuilder().Set("type", "Person").Build()).ok());
  });
  run([](Collection* coll) {
    ASSERT_TRUE(coll->CreateIndex("confidence").ok());
  });
}

TEST(PaginationTest, ReclaimedVersionTokenRejectedAsStale) {
  // With a zero retained-version budget the version a token pins is
  // reclaimed as soon as the next mutation publishes — the resume then
  // fails cleanly instead of answering from reclaimed state.
  storage::CollectionOptions opts_zero;
  opts_zero.retained_versions = 0;
  Collection coll("dt.entity", opts_zero);
  for (int i = 0; i < 30; ++i) {
    coll.Insert(
        DocBuilder().Set("type", "Movie").Set("rank", int64_t{i}).Build());
  }
  auto pred = Predicate::Eq("type", DocValue::Str("Movie"));
  FindOptions opts;
  opts.page_size = 5;
  auto page = FindPage(coll.GetView(), pred, opts);
  ASSERT_TRUE(page.ok());
  ASSERT_FALSE(page->next_token.empty());
  coll.Insert(DocBuilder().Set("type", "Movie").Set("name", "New").Build());
  opts.resume_token = page->next_token;
  Status st = FindPage(coll.GetView(), pred, opts).status();
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.ToString().find("stale"), std::string::npos) << st.ToString();

  // A token handed to a different collection lineage — same namespace,
  // same data, different incarnation — is stale too, even though its
  // fingerprint would match.
  Collection other("dt.entity", opts_zero);
  for (int i = 0; i < 30; ++i) {
    other.Insert(
        DocBuilder().Set("type", "Movie").Set("rank", int64_t{i}).Build());
  }
  st = FindPage(other.GetView(), pred, opts).status();
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  EXPECT_NE(st.ToString().find("stale"), std::string::npos) << st.ToString();
}

TEST(PaginationTest, RetainedVersionsStayWithinBudgetWhileAViewIsHeld) {
  // The budget bounds the retained set even while a reader holds an
  // older view: each paged find parks one more version, and the oldest
  // are evicted (their tokens turn stale) instead of waiting for the
  // held view to go.
  storage::CollectionOptions budget_two;
  budget_two.retained_versions = 2;
  Collection coll("dt.entity", budget_two);
  for (int i = 0; i < 30; ++i) {
    coll.Insert(
        DocBuilder().Set("type", "Movie").Set("rank", int64_t{i}).Build());
  }
  auto pred = Predicate::Eq("type", DocValue::Str("Movie"));
  const storage::CollectionView held = coll.GetView();
  FindOptions opts;
  opts.page_size = 5;
  std::vector<std::string> tokens;
  for (int round = 0; round < 20; ++round) {
    auto page = FindPage(coll.GetView(), pred, opts);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    ASSERT_FALSE(page->next_token.empty());
    tokens.push_back(page->next_token);
    coll.Insert(DocBuilder().Set("type", "Movie").Build());
    EXPECT_LE(coll.retained_version_count(),
              static_cast<size_t>(budget_two.retained_versions))
        << "round " << round;
  }
  for (size_t t = 0; t < tokens.size(); ++t) {
    opts.resume_token = tokens[t];
    auto resumed = FindPage(coll.GetView(), pred, opts);
    if (t + 2 >= tokens.size()) {
      EXPECT_TRUE(resumed.ok()) << "token " << t << ": "
                                << resumed.status().ToString();
    } else {
      ASSERT_FALSE(resumed.ok()) << "token " << t << " outlived the budget";
      EXPECT_NE(resumed.status().ToString().find("stale"), std::string::npos)
          << resumed.status().ToString();
    }
  }
  // The held view still reads the version it pinned.
  EXPECT_EQ(held.count(), 30);
  EXPECT_EQ(Find(held, pred)->size(), 30u);
}

TEST(PaginationTest, TokenForADifferentQueryIsRejected) {
  Collection coll = MakeEntities();
  ASSERT_TRUE(coll.CreateIndex({"type", "name"}).ok());
  auto movie = Predicate::Eq("type", DocValue::Str("Movie"));
  FindOptions opts;
  opts.page_size = 5;
  opts.order_by = "name";
  auto page = FindPage(coll.GetView(), movie, opts);
  ASSERT_TRUE(page.ok());
  ASSERT_FALSE(page->next_token.empty());
  opts.resume_token = page->next_token;

  // Different predicate.
  FindOptions other = opts;
  Status st = FindPage(coll.GetView(),
                       Predicate::Eq("type", DocValue::Str("Person")), other)
                  .status();
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
  // Different direction.
  other = opts;
  other.order_desc = true;
  EXPECT_TRUE(
      FindPage(coll.GetView(), movie, other).status().IsInvalidArgument());
  // Different order path.
  other = opts;
  other.order_by = "confidence";
  EXPECT_TRUE(
      FindPage(coll.GetView(), movie, other).status().IsInvalidArgument());
  // Different limit.
  other = opts;
  other.limit = 3;
  EXPECT_TRUE(
      FindPage(coll.GetView(), movie, other).status().IsInvalidArgument());
  // The matching query still resumes.
  EXPECT_TRUE(FindPage(coll.GetView(), movie, opts).ok());
}

TEST(PaginationTest, RandomizedStitchDifferential) {
  FacadeCorpus corpus(300);
  fusion::DataTamer indexed;
  corpus.Ingest(&indexed, /*with_indexes=*/true);
  fusion::DataTamer compound;
  corpus.Ingest(&compound, /*with_indexes=*/true);
  auto* ccoll = compound.entity_collection();
  ASSERT_TRUE(ccoll->CreateIndex({"type", "name"}).ok());
  ASSERT_TRUE(ccoll->CreateIndex({"confidence", "instance_id"}).ok());

  constexpr const char* kOrderPaths[] = {"confidence", "name", "instance_id",
                                         "no_such_field"};
  const fusion::DataTamer* tamers[] = {&indexed, &compound};
  constexpr int64_t kPageSizes[] = {1, 7, 13, 100000};
  ThreadPool pool(4);
  int64_t comparisons = 0;
  for (int cfg = 0; cfg < 2; ++cfg) {
    const Collection& coll = *tamers[cfg]->entity_collection();
    Rng rng(cfg == 0 ? 8080 : 9090);
    PredicateGen gen(coll, &rng);
    for (int trial = 0; trial < 40; ++trial) {
      PredicatePtr pred = gen.Random(3);
      std::string order_by;
      bool desc = false;
      if (rng.Bernoulli(0.6)) {
        order_by = kOrderPaths[rng.Uniform(4)];
        desc = rng.Bernoulli(0.5);
      }
      const int64_t limit =
          rng.Bernoulli(0.5) ? static_cast<int64_t>(rng.Uniform(40)) : -1;
      std::vector<DocId> expected =
          OracleOrdered(coll, pred, order_by, desc, limit);
      for (int64_t page_size : kPageSizes) {
        // Bound the page count so tiny pages only stitch bounded
        // streams (limit trials and selective predicates).
        if (page_size < 1000 &&
            static_cast<int64_t>(expected.size()) > page_size * 40) {
          continue;
        }
        for (int threads : {1, 4}) {
          FindOptions opts;
          opts.pool = threads > 1 ? &pool : nullptr;
          opts.order_by = order_by;
          opts.order_desc = desc;
          opts.limit = limit;
          ASSERT_EQ(StitchPages(coll, pred, opts, page_size), expected)
              << "cfg=" << cfg << " trial=" << trial
              << " page_size=" << page_size << " threads=" << threads
              << " order_by=" << order_by << " desc=" << desc
              << " limit=" << limit << "\npred: " << pred->ToString()
              << "\nplan: " << ExplainFind(coll.GetView(), pred, opts);
          ++comparisons;
        }
      }
    }
  }
  EXPECT_GE(comparisons, 300);
}

// ---------------------------------------------------------------------
// Ordered UNION merge (MERGE_UNION)
// ---------------------------------------------------------------------

/// 300 docs, types A/B alternating (plus C when `three_types`), with
/// collision-free names so every (type,name) run holds one entry.
Collection MakeMergeCorpus(bool three_types) {
  Collection coll("dt.merge");
  for (int i = 0; i < 300; ++i) {
    const char* type = three_types && i % 3 == 2 ? "C" : (i % 2 ? "A" : "B");
    char name[8];
    std::snprintf(name, sizeof(name), "n%03d", (i * 53) % 1000);
    coll.Insert(DocBuilder().Set("type", type).Set("name", name).Build());
  }
  (void)coll.CreateIndex({"type", "name"});
  return coll;
}

TEST(MergeUnionTest, OrderedOrExecutesSortFree) {
  Collection coll = MakeMergeCorpus(false);
  auto pred = Predicate::Or({Predicate::Eq("type", DocValue::Str("A")),
                             Predicate::Eq("type", DocValue::Str("B"))});
  for (bool desc : {false, true}) {
    ExecStats stats;
    FindOptions opts;
    opts.order_by = "name";
    opts.order_desc = desc;
    opts.limit = 10;
    opts.stats = &stats;
    std::string explain = ExplainFind(coll.GetView(), pred, opts);
    EXPECT_NE(explain.find("MERGE_UNION"), std::string::npos) << explain;
    EXPECT_NE(explain.find("order=name"), std::string::npos) << explain;
    EXPECT_EQ(explain.find("SORT"), std::string::npos) << explain;
    EXPECT_EQ(explain.find("TOPK"), std::string::npos) << explain;

    auto got = Find(coll.GetView(), pred, opts);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(*got, OracleOrdered(coll, pred, "name", desc, 10));
    // The push-down promise extends to the merge: ~limit entries
    // across the branch walks (runs + lookahead), nowhere near the
    // 300 union rows — and order keys come off the index runs, so no
    // document is ever fetched.
    EXPECT_LE(stats.index_entries_examined, 30) << "desc=" << desc;
    EXPECT_EQ(stats.docs_examined, 0);
  }
  // Without a limit the merge still applies when it beats the scan's
  // cardinality (here: 2 of 3 type partitions).
  Collection three = MakeMergeCorpus(true);
  FindOptions unlimited;
  unlimited.order_by = "name";
  std::string explain = ExplainFind(three.GetView(), pred, unlimited);
  EXPECT_NE(explain.find("MERGE_UNION"), std::string::npos) << explain;
  auto got = Find(three.GetView(), pred, unlimited);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, OracleOrdered(three, pred, "name", false, -1));
}

TEST(MergeUnionTest, OverlappingRangeBranchesDeduplicate) {
  Collection coll("dt.ranked");
  for (int i = 0; i < 200; ++i) {
    coll.Insert(DocBuilder().Set("rank", i).Build());
  }
  ASSERT_TRUE(coll.CreateIndex("rank").ok());
  auto pred = Predicate::Or(
      {Predicate::Range("rank", DocValue::Int(0), DocValue::Int(99)),
       Predicate::Range("rank", DocValue::Int(50), DocValue::Int(149))});
  FindOptions opts;
  opts.order_by = "rank";
  opts.limit = 160;
  std::string explain = ExplainFind(coll.GetView(), pred, opts);
  EXPECT_NE(explain.find("MERGE_UNION"), std::string::npos) << explain;
  auto got = Find(coll.GetView(), pred, opts);
  ASSERT_TRUE(got.ok());
  std::vector<DocId> expected = OracleOrdered(coll, pred, "rank", false, 160);
  EXPECT_EQ(expected.size(), 150u);  // 0..149 once each, not 200 rows
  EXPECT_EQ(*got, expected);
  // The overlap survives pagination too.
  EXPECT_EQ(StitchPages(coll, pred, opts, 7), expected);
}

TEST(MergeUnionTest, EqBoundOrderKeyBranchesResumeBothDirections) {
  // Branches whose order key is EQUALITY-bound (each branch streams one
  // constant key) exercise the resume case split where a whole branch
  // sits before/at/after the checkpoint in merge order — the
  // descending variant is the regression: judging "before" in scan
  // direction instead of merge direction silently drops the lower-key
  // branch on resume.
  Collection coll("dt.eqorder");
  for (int i = 0; i < 30; ++i) {
    coll.Insert(
        DocBuilder().Set("rank", i < 10 ? 1 : (i < 20 ? 2 : 3)).Build());
  }
  ASSERT_TRUE(coll.CreateIndex("rank").ok());
  auto pred = Predicate::Or({Predicate::Eq("rank", DocValue::Int(1)),
                             Predicate::Eq("rank", DocValue::Int(3))});
  for (bool desc : {false, true}) {
    FindOptions opts;
    opts.order_by = "rank";
    opts.order_desc = desc;
    std::string explain = ExplainFind(coll.GetView(), pred, opts);
    ASSERT_NE(explain.find("MERGE_UNION"), std::string::npos) << explain;
    std::vector<DocId> expected = OracleOrdered(coll, pred, "rank", desc, -1);
    ASSERT_EQ(expected.size(), 20u);
    // Page sizes chosen so boundaries fall inside the first branch,
    // exactly between branches, and inside the second branch.
    for (int64_t page_size : {3, 4, 7, 10}) {
      EXPECT_EQ(StitchPages(coll, pred, opts, page_size), expected)
          << "desc=" << desc << " page_size=" << page_size;
    }
  }
}

TEST(MergeUnionTest, NonCoveringBranchFallsBackToUnionTopK) {
  // Three type partitions: the A+B union covers 2/3 of the collection,
  // so the unordered union survives the cardinality check.
  Collection coll = MakeMergeCorpus(true);
  auto pred = Predicate::Or({Predicate::Eq("type", DocValue::Str("A")),
                             Predicate::Eq("type", DocValue::Str("B"))});
  // "confidence" is not an index component: branches route but cannot
  // cover the order, so the planner keeps the unordered union and
  // fuses the sort+limit into TOPK.
  FindOptions opts;
  opts.order_by = "confidence";
  opts.limit = 10;
  std::string explain = ExplainFind(coll.GetView(), pred, opts);
  EXPECT_NE(explain.find("UNION"), std::string::npos) << explain;
  EXPECT_EQ(explain.find("MERGE_UNION"), std::string::npos) << explain;
  EXPECT_NE(explain.find("TOPK"), std::string::npos) << explain;
  auto got = Find(coll.GetView(), pred, opts);
  ASSERT_TRUE(got.ok());
  EXPECT_EQ(*got, OracleOrdered(coll, pred, "confidence", false, 10));
}

TEST(MergeUnionTest, PaginatedMergeResumesCheaply) {
  Collection coll = MakeMergeCorpus(true);
  auto pred = Predicate::Or({Predicate::Eq("type", DocValue::Str("A")),
                             Predicate::Eq("type", DocValue::Str("B"))});
  ExecStats stats;
  FindOptions opts;
  opts.order_by = "name";
  opts.page_size = 10;
  opts.stats = &stats;
  std::vector<DocId> stitched;
  for (;;) {
    auto page = FindPage(coll.GetView(), pred, opts);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    stitched.insert(stitched.end(), page->ids.begin(), page->ids.end());
    // Each resumed page re-reads at most the checkpoint runs plus
    // ~2 entries per merged id (run + lookahead) per branch — O(page),
    // not the consumed offset.
    EXPECT_LE(stats.index_entries_examined, 40);
    EXPECT_EQ(stats.docs_examined, 0);
    if (page->next_token.empty()) break;
    opts.resume_token = page->next_token;
  }
  EXPECT_EQ(stitched, OracleOrdered(coll, pred, "name", false, -1));
}

TEST(ExplainTest, FilterAndUnionBranchesCarryEstimates) {
  Collection coll = MakeEntities();
  ASSERT_TRUE(coll.CreateIndex("type").ok());
  // Residual FILTER renders the rows entering it.
  auto tree =
      Predicate::And({Predicate::Eq("type", DocValue::Str("Movie")),
                      Predicate::Eq("name", DocValue::Str("Matilda"))});
  std::string explain = ExplainFind(coll.GetView(), tree);
  EXPECT_NE(explain.find("FILTER"), std::string::npos) << explain;
  EXPECT_NE(explain.find("} est=30"), std::string::npos) << explain;
  // Union branches each carry their own estimate.
  ASSERT_TRUE(coll.CreateIndex("name").ok());
  auto both =
      Predicate::Or({Predicate::Eq("name", DocValue::Str("Matilda")),
                     Predicate::Eq("name", DocValue::Str("Wicked"))});
  explain = ExplainFind(coll.GetView(), both);
  EXPECT_NE(explain.find("UNION"), std::string::npos) << explain;
  EXPECT_NE(explain.find("est=5"), std::string::npos) << explain;
  EXPECT_NE(explain.find("est=25"), std::string::npos) << explain;
}

TEST(PaginationTest, ExplainRendersResumePosition) {
  Collection coll = MakeMergeCorpus(false);
  auto pred = Predicate::Or({Predicate::Eq("type", DocValue::Str("A")),
                             Predicate::Eq("type", DocValue::Str("B"))});
  FindOptions opts;
  opts.order_by = "name";
  opts.limit = 25;
  opts.page_size = 10;
  auto page = FindPage(coll.GetView(), pred, opts);
  ASSERT_TRUE(page.ok());
  ASSERT_FALSE(page->next_token.empty());
  opts.resume_token = page->next_token;
  std::string explain = ExplainFind(coll.GetView(), pred, opts);
  EXPECT_NE(explain.find("MERGE_UNION"), std::string::npos) << explain;
  EXPECT_NE(explain.find("resume=[\"LIM\""), std::string::npos) << explain;
  EXPECT_NE(explain.find("\"MU\""), std::string::npos) << explain;
  // A tampered token renders as rejected; after a mutation the token
  // resumes against the retained pre-mutation version; and handed to a
  // different collection lineage it renders stale.
  opts.resume_token[3] = static_cast<char>(opts.resume_token[3] ^ 0x11);
  EXPECT_NE(ExplainFind(coll.GetView(), pred, opts).find("resume=INVALID"),
            std::string::npos);
  opts.resume_token = page->next_token;
  coll.Insert(DocBuilder().Set("type", "A").Set("name", "zzz").Build());
  EXPECT_NE(ExplainFind(coll.GetView(), pred, opts).find("resume=RETAINED"),
            std::string::npos);
  Collection other = MakeMergeCorpus(false);
  EXPECT_NE(ExplainFind(other.GetView(), pred, opts).find("resume=STALE"),
            std::string::npos);
}

TEST(DataTamerFindTest, FacadeFindPageStitchesAcrossMutations) {
  FacadeCorpus corpus(150);
  fusion::DataTamer tamer;
  corpus.Ingest(&tamer, /*with_indexes=*/true);
  auto pred = Predicate::Eq("type", DocValue::Str("Movie"));
  QueryRequest req = FindReq(QueryOp::kFind, "entity", pred);
  req.order_by = "name";
  auto expected = tamer.Execute(req);
  ASSERT_TRUE(expected.ok());
  ASSERT_GT(expected->ids.size(), 3u);

  req.op = QueryOp::kFindPage;
  req.page_size = 7;
  std::vector<DocId> stitched;
  std::vector<DocId> final_page;
  std::string last_token;
  for (;;) {
    auto page = tamer.Execute(req);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    stitched.insert(stitched.end(), page->ids.begin(), page->ids.end());
    final_page = page->ids;
    if (page->next_token.empty()) break;
    last_token = page->next_token;
    req.resume_token = page->next_token;
  }
  EXPECT_EQ(stitched, expected->ids);
  ASSERT_FALSE(last_token.empty());

  // Mutating the entity collection publishes a new version; the
  // outstanding token still resumes against the version it pinned,
  // reproducing the final pre-mutation page exactly.
  tamer.entity_collection()->Insert(
      DocBuilder().Set("type", "Movie").Set("name", "Fresh").Build());
  req.resume_token = last_token;
  auto resumed = tamer.Execute(req);
  ASSERT_TRUE(resumed.ok()) << resumed.status().ToString();
  EXPECT_EQ(resumed->ids, final_page);
  EXPECT_TRUE(resumed->next_token.empty());
}

/// Four dt.instance fragments whose text is "alpha beta" (ids 1-4).
void InsertAlphaFragments(fusion::DataTamer* tamer) {
  for (int i = 0; i < 4; ++i) {
    tamer->instance_collection()->Insert(
        DocBuilder().Set("text", "alpha beta").Build());
  }
}

/// Follows `req` (a kFindPage carrying the first page's token) to the
/// end of its chain, appending every page to `stitched`.
void StitchRest(const fusion::DataTamer& tamer, QueryRequest req,
                std::vector<DocId>* stitched) {
  while (!req.resume_token.empty()) {
    auto page = tamer.Execute(req);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    stitched->insert(stitched->end(), page->ids.begin(), page->ids.end());
    req.resume_token = page->next_token;
  }
}

TEST(DataTamerFindTest, ResumedTextPageReadsThePinnedPostings) {
  fusion::DataTamer tamer;
  InsertAlphaFragments(&tamer);
  QueryRequest req = FindReq(QueryOp::kFindPage, "instance",
                             Predicate::TextContains("text", "alpha"));
  req.page_size = 2;
  auto first = tamer.Execute(req);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->ids, (std::vector<DocId>{1, 2}));
  ASSERT_FALSE(first->next_token.empty());

  // Writers move on between the pages; the resumed page must read the
  // postings of the version its token pinned, not the current ones.
  ASSERT_TRUE(tamer.instance_collection()->Remove(3).ok());
  tamer.instance_collection()->Insert(
      DocBuilder().Set("text", "alpha").Build());
  std::vector<DocId> stitched = first->ids;
  req.resume_token = first->next_token;
  StitchRest(tamer, req, &stitched);
  EXPECT_EQ(stitched, (std::vector<DocId>{1, 2, 3, 4}));

  // The chain ran on the text index, not a scan.
  req.op = QueryOp::kExplain;
  req.resume_token.clear();
  auto explain = tamer.Execute(req);
  ASSERT_TRUE(explain.ok());
  EXPECT_NE(explain->explain.find("TEXT"), std::string::npos)
      << explain->explain;
}

TEST(DataTamerFindTest, TextIndexBuiltAfterTheTokenResumesThePinnedVersion) {
  fusion::DataTamer tamer;
  InsertAlphaFragments(&tamer);
  auto pred = Predicate::TextContains("text", "alpha");
  // The first page comes straight off a view of the still unindexed
  // collection, so its token pins a scan plan.
  FindOptions paged;
  paged.page_size = 2;
  const storage::CollectionView pinned =
      tamer.instance_collection()->GetView();
  EXPECT_EQ(PlanFind(pinned, pred, paged).access, AccessPath::kCollScan);
  auto first = FindPage(pinned, pred, paged);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  ASSERT_EQ(first->ids, (std::vector<DocId>{1, 2}));

  // The first text read builds the index; then writers move on.
  EXPECT_EQ(tamer.SearchFragments("alpha", 10).size(), 4u);
  ASSERT_TRUE(tamer.instance_collection()->Remove(3).ok());
  tamer.instance_collection()->Insert(
      DocBuilder().Set("text", "alpha").Build());

  QueryRequest req = FindReq(QueryOp::kFindPage, "instance", pred);
  req.page_size = 2;
  req.resume_token = first->next_token;
  std::vector<DocId> stitched = first->ids;
  StitchRest(tamer, req, &stitched);
  EXPECT_EQ(stitched, (std::vector<DocId>{1, 2, 3, 4}));
}

// ---------------------------------------------------------------------
// Work bounds on the demo corpus
// ---------------------------------------------------------------------

// The corpus the paper's queries run on: 400 generated fragments
// ingested with the standard indexes (~4k dt.entity documents). The
// bounds below count index entries and documents, so they hold on any
// machine; each is a ratio an access path must win by.
const FacadeCorpus& DemoCorpus() {
  static const FacadeCorpus* corpus = new FacadeCorpus(400);
  return *corpus;
}

int64_t Touched(const ExecStats& stats) {
  return stats.index_entries_examined + stats.docs_examined;
}

TEST(DemoCorpusTest, IndexedEqualityMatchesScansAtATenthOfTheWork) {
  fusion::DataTamer tamer;
  DemoCorpus().Ingest(&tamer, /*with_indexes=*/true);
  const storage::CollectionView view = tamer.entity_collection()->GetView();
  auto pred = Predicate::And({Predicate::Eq("type", DocValue::Str("Movie")),
                              Predicate::Eq("name", DocValue::Str("Matilda"))});
  ExecStats indexed_stats, scan_stats;
  FindOptions indexed;
  indexed.stats = &indexed_stats;
  FindOptions scan;
  scan.use_indexes = false;
  scan.stats = &scan_stats;
  ThreadPool pool(4);
  FindOptions pooled;
  pooled.use_indexes = false;
  pooled.pool = &pool;
  auto via_index = Find(view, pred, indexed);
  auto via_scan = Find(view, pred, scan);
  auto via_pooled = Find(view, pred, pooled);
  ASSERT_TRUE(via_index.ok() && via_scan.ok() && via_pooled.ok());
  ASSERT_FALSE(via_index->empty());
  EXPECT_EQ(*via_index, *via_scan);
  EXPECT_EQ(*via_scan, *via_pooled);
  EXPECT_EQ(scan_stats.docs_examined, view.count());
  EXPECT_LE(10 * Touched(indexed_stats), scan_stats.docs_examined)
      << ExplainFind(view, pred, indexed);
}

TEST(DemoCorpusTest, OrderedLimitPushesDownAndCompoundIndexRoutes) {
  fusion::DataTamer tamer;
  DemoCorpus().Ingest(&tamer, /*with_indexes=*/true);
  Collection* coll = tamer.entity_collection();
  const auto match_all = Predicate::And({});
  ExecStats stats;
  FindOptions down;
  down.order_by = "instance_id";
  down.limit = 10;
  down.stats = &stats;
  const std::string explain = ExplainFind(coll->GetView(), match_all, down);
  EXPECT_NE(explain.find("IXSCAN"), std::string::npos) << explain;
  EXPECT_NE(explain.find("LIMIT(10)"), std::string::npos) << explain;
  EXPECT_EQ(explain.find("SORT"), std::string::npos) << explain;
  auto pushed = Find(coll->GetView(), match_all, down);
  ASSERT_TRUE(pushed.ok());
  EXPECT_EQ(*pushed, OracleOrdered(*coll, match_all, "instance_id", false, 10));
  // The walk stops at the limit: the first instance_id runs plus a
  // lookahead, against every document a materialize-and-sort reads.
  EXPECT_LE(stats.index_entries_examined, 10 + 30);
  EXPECT_LE(10 * Touched(stats), coll->count());

  // Table IV's filter shape: the compound index answers what the best
  // single-field driver plus a residual re-check answered.
  auto award = Predicate::And(
      {Predicate::Eq("type", DocValue::Str("Movie")),
       Predicate::Eq("award_winning", DocValue::Str("true"))});
  auto via_single = Find(coll->GetView(), award);
  ASSERT_TRUE(via_single.ok());
  ASSERT_TRUE(coll->CreateIndex({"type", "award_winning"}).ok());
  const std::string compound = ExplainFind(coll->GetView(), award);
  EXPECT_NE(compound.find("IXSCAN(type,award_winning)"), std::string::npos)
      << compound;
  auto via_compound = Find(coll->GetView(), award);
  ASSERT_TRUE(via_compound.ok());
  EXPECT_FALSE(via_compound->empty());
  EXPECT_EQ(*via_compound, *via_single);
}

TEST(DemoCorpusTest, ResumedPagesAndOrderedOrMergeStayPageBounded) {
  fusion::DataTamer tamer;
  DemoCorpus().Ingest(&tamer, /*with_indexes=*/true);
  Collection* coll = tamer.entity_collection();
  const auto match_all = Predicate::And({});

  // Twenty token-resumed pages of 50 over the instance_id order, each
  // against the full ordered materialization a client without cursors
  // pays per request.
  const int64_t kPage = 50;
  ExecStats page_stats;
  FindOptions paged;
  paged.order_by = "instance_id";
  paged.limit = coll->count();  // bounded walk: enables the index ride
  paged.page_size = kPage;
  paged.stats = &page_stats;
  std::vector<DocId> stitched;
  int64_t max_entries = 0, max_touched = 0;
  for (int page_no = 0; page_no < 20; ++page_no) {
    auto page = FindPage(coll->GetView(), match_all, paged);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    stitched.insert(stitched.end(), page->ids.begin(), page->ids.end());
    if (page_no > 0) {
      max_entries = std::max(max_entries, page_stats.index_entries_examined);
      max_touched = std::max(max_touched, Touched(page_stats));
    }
    if (page->next_token.empty()) break;
    paged.resume_token = page->next_token;
  }
  ExecStats full_stats;
  FindOptions full;
  full.order_by = "instance_id";
  full.limit = coll->count();
  full.stats = &full_stats;
  auto all = Find(coll->GetView(), match_all, full);
  ASSERT_TRUE(all.ok());
  ASSERT_EQ(stitched.size(), static_cast<size_t>(20 * kPage));
  EXPECT_TRUE(std::equal(stitched.begin(), stitched.end(), all->begin()));
  // A resumed page examines O(page) entries (runs of ~10 entities per
  // instance_id plus edges), never the consumed offset.
  EXPECT_LE(max_entries, kPage + 30);
  EXPECT_LE(10 * max_touched, Touched(full_stats));

  // Ordered Or: the pre-statistics planner over single-field indexes
  // against MERGE_UNION once a compound index covers the order.
  auto pred_or =
      Predicate::Or({Predicate::Eq("type", DocValue::Str("Movie")),
                     Predicate::Eq("type", DocValue::Str("Person"))});
  ExecStats fallback_stats, merge_stats;
  FindOptions ordered;
  ordered.order_by = "name";
  ordered.limit = 10;
  ordered.debug_exact_count_planning = true;
  ordered.stats = &fallback_stats;
  auto via_fallback = Find(coll->GetView(), pred_or, ordered);
  ASSERT_TRUE(via_fallback.ok());
  ASSERT_TRUE(coll->CreateIndex({"type", "name"}).ok());
  ordered.debug_exact_count_planning = false;
  ordered.stats = &merge_stats;
  const std::string merge = ExplainFind(coll->GetView(), pred_or, ordered);
  EXPECT_NE(merge.find("MERGE_UNION"), std::string::npos) << merge;
  EXPECT_EQ(merge.find("SORT"), std::string::npos) << merge;
  EXPECT_EQ(merge.find("TOPK"), std::string::npos) << merge;
  auto via_merge = Find(coll->GetView(), pred_or, ordered);
  ASSERT_TRUE(via_merge.ok());
  EXPECT_FALSE(via_merge->empty());
  EXPECT_EQ(*via_merge, *via_fallback);
  EXPECT_LE(10 * Touched(merge_stats), Touched(fallback_stats));
}

}  // namespace
}  // namespace dt::query
