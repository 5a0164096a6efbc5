/// Multi-threaded stress for versioned text reads: four reader threads
/// page `TextContains` queries through `query::FindPage` on views of a
/// fragment collection that carries its inverted index, while one
/// writer inserts and removes fragments. Every stitched chain must
/// equal the one-shot answer at the version its first page pinned, or
/// fail cleanly as stale. Runs in the TSan lane (ctest -L stress).

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

const char* const kWords[] = {"alpha", "beta", "gamma", "delta", "omega"};

DocValue Fragment(Rng* rng) {
  std::string text;
  const uint64_t n = 1 + rng->Uniform(4);
  for (uint64_t i = 0; i < n; ++i) {
    if (!text.empty()) text += ' ';
    text += kWords[rng->Uniform(5)];
  }
  return DocBuilder().Set("text", text).Build();
}

TEST(TextIndexStressTest, PagedTextChainsMatchTheirPinnedVersion) {
  Collection coll("dt.instance");
  {
    Rng rng(3);
    for (int i = 0; i < 300; ++i) coll.Insert(Fragment(&rng));
  }
  // The first text read publishes the index; writes maintain it.
  ASSERT_NE(coll.GetViewWithTextIndex("text").TextIndexOn("text"), nullptr);

  std::atomic<bool> done{false};
  std::atomic<int64_t> reader_rounds{0};
  // The writer churns until the readers have run enough chains against
  // it (bounded, so a stalled reader cannot keep it going forever).
  std::thread writer([&coll, &done, &reader_rounds] {
    Rng rng(17);
    std::vector<DocId> live;
    coll.GetView().ForEach(
        [&](DocId id, const DocValue&) { live.push_back(id); });
    for (int op = 0; op < 20000 && (op < 400 || reader_rounds.load() < 40);
         ++op) {
      if (rng.Bernoulli(0.6) || live.empty()) {
        live.push_back(coll.Insert(Fragment(&rng)));
      } else {
        const size_t pick = rng.Uniform(live.size());
        ASSERT_TRUE(coll.Remove(live[pick]).ok());
        live[pick] = live.back();
        live.pop_back();
      }
    }
    done.store(true);
  });

  std::atomic<int64_t> completed{0};
  std::atomic<int64_t> stale{0};
  std::vector<std::thread> readers;
  for (uint64_t t = 0; t < 4; ++t) {
    readers.emplace_back([&coll, &done, &reader_rounds, &completed, &stale,
                          t] {
      Rng rng(100 + t);
      for (int64_t rounds = 0; !done.load() || rounds == 0;
           ++rounds, reader_rounds.fetch_add(1)) {
        std::string keywords = kWords[rng.Uniform(5)];
        if (rng.Bernoulli(0.3)) keywords += std::string(" ") + kWords[0];
        const PredicatePtr pred = Predicate::TextContains("text", keywords);
        FindOptions paged;
        paged.page_size = static_cast<int64_t>(1 + rng.Uniform(7));
        // The one-shot answer at the pinned version (by a full scan)
        // and the first page; the view is dropped after, so resumes
        // depend on the retained set alone.
        std::vector<DocId> expected;
        auto first_page = [&]() {
          const CollectionView pinned = coll.GetView();
          EXPECT_EQ(PlanFind(pinned, pred, paged).access,
                    AccessPath::kTextIndex);
          pinned.ForEach([&](DocId id, const DocValue& doc) {
            if (pred->Matches(doc)) expected.push_back(id);
          });
          return FindPage(pinned, pred, paged);
        };
        Result<FindResult> page = first_page();
        std::vector<DocId> stitched;
        bool went_stale = false;
        while (true) {
          if (!page.ok()) {
            ASSERT_TRUE(page.status().IsInvalidArgument())
                << page.status().ToString();
            ASSERT_NE(page.status().ToString().find("stale"),
                      std::string::npos)
                << page.status().ToString();
            went_stale = true;
            break;
          }
          stitched.insert(stitched.end(), page->ids.begin(), page->ids.end());
          if (page->next_token.empty()) break;
          FindOptions resume = paged;
          resume.resume_token = page->next_token;
          page = FindPage(coll.GetView(), pred, resume);
        }
        if (went_stale) {
          stale.fetch_add(1);
          continue;
        }
        ASSERT_EQ(stitched, expected) << "keywords: " << keywords;
        completed.fetch_add(1);
      }
    });
  }
  writer.join();
  for (auto& r : readers) r.join();
  EXPECT_GT(completed.load(), 0) << stale.load() << " chains went stale";
}

}  // namespace
}  // namespace dt::query
