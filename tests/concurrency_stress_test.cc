/// Multi-threaded reader/writer stress for versioned storage: reader
/// threads run the index-vs-scan differential harness and stitched
/// pagination against pinned views while a writer thread churns
/// inserts, updates, removes and an index build. Every stream must
/// complete consistently against the version it pinned, or reject
/// cleanly as stale — never crash, never mix two versions' documents.
/// This is the suite the TSan CI lane runs (ctest -L stress).

#include <gtest/gtest.h>

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "query/planner.h"
#include "storage/collection.h"

namespace dt::query {
namespace {

using storage::Collection;
using storage::CollectionView;
using storage::DocBuilder;
using storage::DocId;
using storage::DocValue;

DocValue StressDoc(Rng* rng) {
  static const char* kTypes[] = {"Movie", "Person", "Company", "City"};
  return DocBuilder()
      .Set("type", kTypes[rng->Uniform(4)])
      .Set("rank", static_cast<int64_t>(rng->Uniform(1000)))
      .Set("score", rng->UniformDouble(0, 100))
      .Build();
}

/// The index-vs-scan differential check, against one pinned view: the
/// planned execution and the forced collection scan read the same
/// immutable version, so they must agree exactly however many new
/// versions the writer publishes meanwhile.
void CheckDifferential(const CollectionView& view) {
  auto pred = Predicate::And(
      {Predicate::Eq("type", DocValue::Str("Movie")),
       Predicate::Range("rank", DocValue::Int(100), DocValue::Int(800))});
  FindOptions planned;
  auto via_plan = Find(view, pred, planned);
  FindOptions scan;
  scan.use_indexes = false;
  auto via_scan = Find(view, pred, scan);
  ASSERT_TRUE(via_plan.ok()) << via_plan.status().ToString();
  ASSERT_TRUE(via_scan.ok()) << via_scan.status().ToString();
  EXPECT_FALSE(via_plan->empty());
  EXPECT_EQ(*via_plan, *via_scan);

  // Ordered variant: sort/limit push-down vs ordered scan.
  FindOptions ordered;
  ordered.order_by = "rank";
  ordered.limit = 25;
  auto via_ordered = Find(view, pred, ordered);
  FindOptions ordered_scan = ordered;
  ordered_scan.use_indexes = false;
  auto via_ordered_scan = Find(view, pred, ordered_scan);
  ASSERT_TRUE(via_ordered.ok()) << via_ordered.status().ToString();
  ASSERT_TRUE(via_ordered_scan.ok()) << via_ordered_scan.status().ToString();
  EXPECT_EQ(*via_ordered, *via_ordered_scan);
}

/// Stitches a full paginated result through resume tokens, resuming
/// against the same held view every page: the token's version is that
/// view's version, so every resume must succeed and the stitched
/// stream must equal the one-shot answer on the view.
void CheckStitchedPagination(const CollectionView& view) {
  auto pred = Predicate::Eq("type", DocValue::Str("Person"));
  FindOptions whole;
  auto expected = Find(view, pred, whole);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  FindOptions paged;
  paged.page_size = 7;
  std::vector<DocId> stitched;
  auto page = FindPage(view, pred, paged);
  while (true) {
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    stitched.insert(stitched.end(), page->ids.begin(), page->ids.end());
    if (page->next_token.empty()) break;
    FindOptions resume = paged;
    resume.resume_token = page->next_token;
    page = FindPage(view, pred, resume);
  }
  EXPECT_EQ(stitched, *expected);
}

TEST(ConcurrencyStressTest, ReadersStayConsistentUnderConcurrentWriter) {
  Collection coll("dt.stress");
  {
    Rng rng(7);
    for (int i = 0; i < 500; ++i) coll.Insert(StressDoc(&rng));
  }
  ASSERT_TRUE(coll.CreateIndex("type").ok());
  ASSERT_TRUE(coll.CreateIndex("rank").ok());

  std::atomic<bool> done{false};
  std::atomic<int64_t> reader_rounds{0};

  // Writer: mixed churn plus one index build mid-stream, so readers
  // also race the CreateIndex publication path.
  std::thread writer([&coll, &done] {
    Rng rng(99);
    std::vector<DocId> live;
    coll.GetView().ForEach(
        [&](DocId id, const DocValue&) { live.push_back(id); });
    const int kOps = 400;
    for (int op = 0; op < kOps; ++op) {
      double r = rng.NextDouble();
      if (r < 0.6 || live.empty()) {
        live.push_back(coll.Insert(StressDoc(&rng)));
      } else if (r < 0.8) {
        DocId id = live[rng.Uniform(live.size())];
        ASSERT_TRUE(coll.Update(id, StressDoc(&rng)).ok());
      } else {
        size_t pick = rng.Uniform(live.size());
        ASSERT_TRUE(coll.Remove(live[pick]).ok());
        live[pick] = live.back();
        live.pop_back();
      }
      if (op == kOps / 2) ASSERT_TRUE(coll.CreateIndex("score").ok());
    }
    done.store(true);
  });

  // Two differential readers + one pagination reader + one raw-cursor
  // reader: four concurrent read streams against the writer.
  // Each reader loops until the writer quiesces AND it has finished at
  // least one round — a fast writer must not let a reader exit without
  // ever checking anything.
  std::vector<std::thread> readers;
  for (int t = 0; t < 2; ++t) {
    readers.emplace_back([&coll, &done, &reader_rounds] {
      for (int64_t rounds = 0; !done.load() || rounds == 0; ++rounds) {
        CheckDifferential(coll.GetView());
        reader_rounds.fetch_add(1);
      }
    });
  }
  readers.emplace_back([&coll, &done, &reader_rounds] {
    for (int64_t rounds = 0; !done.load() || rounds == 0; ++rounds) {
      CheckStitchedPagination(coll.GetView());
      reader_rounds.fetch_add(1);
    }
  });
  readers.emplace_back([&coll, &done, &reader_rounds] {
    // A view's doc cursor and count come from the same version: the
    // walk must visit exactly count() documents, every one live.
    for (int64_t rounds = 0; !done.load() || rounds == 0; ++rounds) {
      CollectionView view = coll.GetView();
      storage::DocCursor docs = view.ScanDocs();
      DocId id = 0;
      const DocValue* doc = nullptr;
      int64_t seen = 0;
      DocId prev = 0;
      while (docs.Next(&id, &doc)) {
        ASSERT_NE(doc, nullptr);
        ASSERT_GT(id, prev);  // strictly increasing id order
        prev = id;
        ++seen;
      }
      EXPECT_EQ(seen, view.count());
      reader_rounds.fetch_add(1);
    }
  });

  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_GE(reader_rounds.load(), 4);

  // Post-quiescence: the final published version passes the same
  // checks, and the writer's churn really happened.
  CheckDifferential(coll.GetView());
  CheckStitchedPagination(coll.GetView());
  EXPECT_TRUE(coll.GetView().HasIndex("score"));
}

TEST(ConcurrencyStressTest, TokenResumesAcrossWriterChurnOrRejectsCleanly) {
  Collection coll("dt.stress");
  {
    Rng rng(11);
    for (int i = 0; i < 400; ++i) coll.Insert(StressDoc(&rng));
  }
  ASSERT_TRUE(coll.CreateIndex("rank").ok());

  std::atomic<bool> done{false};
  std::thread writer([&coll, &done] {
    Rng rng(5);
    for (int op = 0; op < 300; ++op) coll.Insert(StressDoc(&rng));
    done.store(true);
  });

  // The token reader paginates against the collection (not a held
  // view): each resume resolves the token's pinned version from the
  // retained set. Every resume must either serve the pinned version
  // or reject as stale — and after the writer quiesces, a restarted
  // stream must run to completion.
  auto pred = Predicate::Range("rank", DocValue::Int(0), DocValue::Int(999));
  std::atomic<int64_t> completed{0};
  std::atomic<int64_t> stale_restarts{0};
  std::thread reader([&] {
    FindOptions paged;
    paged.page_size = 11;
    while (!done.load() || completed.load() == 0) {
      FindOptions whole;
      auto expected = Find(coll.GetView(), pred, whole);
      ASSERT_TRUE(expected.ok());
      std::vector<DocId> stitched;
      auto page = FindPage(coll.GetView(), pred, paged);
      bool restarted = false;
      while (true) {
        if (!page.ok()) {
          // The only acceptable failure: the pinned version aged out
          // of the retained set (or anything else already churned the
          // lineage) and the token says so cleanly.
          ASSERT_TRUE(page.status().IsInvalidArgument())
              << page.status().ToString();
          ASSERT_NE(page.status().ToString().find("stale"), std::string::npos)
              << page.status().ToString();
          stale_restarts.fetch_add(1);
          restarted = true;
          break;
        }
        stitched.insert(stitched.end(), page->ids.begin(), page->ids.end());
        if (page->next_token.empty()) break;
        FindOptions resume = paged;
        resume.resume_token = page->next_token;
        page = FindPage(coll.GetView(), pred, resume);
      }
      if (restarted) continue;
      // A completed stream served one consistent pinned version: at
      // least everything that existed when it started, each id once,
      // in order.
      for (size_t i = 1; i < stitched.size(); ++i) {
        ASSERT_GT(stitched[i], stitched[i - 1]);
      }
      ASSERT_GE(stitched.size(), expected->size());
      completed.fetch_add(1);
    }
  });

  writer.join();
  reader.join();
  EXPECT_GT(completed.load(), 0);
}

}  // namespace
}  // namespace dt::query
