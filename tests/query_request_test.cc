/// Tests for the serializable query surface behind the RPC server:
/// predicate/ExecStats/plan/request/response DocValue round-trips
/// (including codec byte-identity and strict rejection of malformed
/// remote input), a randomized serialize -> deserialize -> Matches
/// differential against the scan oracle, RPC envelope round-trips, and
/// `DataTamer::Execute` parity with every legacy query signature it
/// now fronts.

#include "query/request.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "common/rng.h"
#include "datagen/webtext_gen.h"
#include "fusion/data_tamer.h"
#include "query/executor.h"
#include "query/planner.h"
#include "query/predicate.h"
#include "query/query.h"
#include "server/frame.h"
#include "storage/codec.h"
#include "storage/collection.h"
#include "storage/docvalue.h"

namespace dt::query {
namespace {

using storage::DocBuilder;
using storage::DocValue;

std::string Bytes(const DocValue& v) {
  std::string out;
  storage::EncodeDocValue(v, &out);
  return out;
}

// ---------------------------------------------------------------------
// Predicate serialization
// ---------------------------------------------------------------------

PredicatePtr SamplePredicate() {
  return Predicate::And(
      {Predicate::Eq("type", DocValue::Str("Movie")),
       Predicate::Or({Predicate::Range("year", DocValue::Int(1990),
                                       DocValue::Int(1999)),
                      Predicate::Eq("award_winning", DocValue::Str("true"))}),
       Predicate::TextContains("name", "Matilda the musical")});
}

TEST(PredicateWireTest, RoundTripIsByteIdentical) {
  auto pred = SamplePredicate();
  DocValue encoded = pred->ToDocValue();
  auto decoded = Predicate::FromDocValue(encoded);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(Bytes(encoded), Bytes((*decoded)->ToDocValue()));
  EXPECT_EQ(pred->ToString(), (*decoded)->ToString());
}

TEST(PredicateWireTest, TextContainsRecanonicalizes) {
  // The wire form carries the canonical sorted deduplicated token
  // list; whatever string it is rejoined from must retokenize to
  // itself so re-encoding is stable.
  auto pred = Predicate::TextContains("text", "Zebra apple ZEBRA apple");
  auto decoded = Predicate::FromDocValue(pred->ToDocValue());
  ASSERT_TRUE(decoded.ok());
  EXPECT_EQ((*decoded)->tokens(), pred->tokens());
  EXPECT_EQ(Bytes(pred->ToDocValue()), Bytes((*decoded)->ToDocValue()));
}

TEST(PredicateWireTest, MalformedInputIsInvalidArgumentNeverCrash) {
  auto reject = [](DocValue v) {
    auto r = Predicate::FromDocValue(v);
    EXPECT_FALSE(r.ok());
    EXPECT_TRUE(r.status().IsInvalidArgument()) << r.status().ToString();
  };
  reject(DocValue::Int(7));                // not an array
  reject(DocValue::Array());               // no tag
  DocValue badtag = DocValue::Array();
  badtag.Push(DocValue::Str("between"));   // unknown tag
  badtag.Push(DocValue::Str("x"));
  reject(badtag);
  DocValue arity = DocValue::Array();      // eq missing its value
  arity.Push(DocValue::Str("eq"));
  arity.Push(DocValue::Str("path"));
  reject(arity);
  DocValue badpath = DocValue::Array();    // path must be a string
  badpath.Push(DocValue::Str("eq"));
  badpath.Push(DocValue::Int(3));
  badpath.Push(DocValue::Int(4));
  reject(badpath);
  DocValue badtok = DocValue::Array();     // text tokens must be strings
  badtok.Push(DocValue::Str("text"));
  badtok.Push(DocValue::Str("p"));
  DocValue toks = DocValue::Array();
  toks.Push(DocValue::Int(1));
  badtok.Push(toks);
  reject(badtok);
  DocValue badchild = DocValue::Array();   // children recurse strictly
  badchild.Push(DocValue::Str("and"));
  badchild.Push(DocValue::Str("not a node"));
  reject(badchild);
}

TEST(PredicateWireTest, DepthBombRejected) {
  // Nesting past storage::kMaxDecodeDepth must be refused, not
  // recursed into: remote input controls this depth.
  DocValue bomb = DocValue::Array();
  bomb.Push(DocValue::Str("eq"));
  bomb.Push(DocValue::Str("p"));
  bomb.Push(DocValue::Null());
  for (int i = 0; i < storage::kMaxDecodeDepth + 8; ++i) {
    DocValue wrap = DocValue::Array();
    wrap.Push(DocValue::Str("and"));
    wrap.Push(std::move(bomb));
    bomb = std::move(wrap);
  }
  auto r = Predicate::FromDocValue(bomb);
  ASSERT_FALSE(r.ok());
  EXPECT_TRUE(r.status().IsInvalidArgument());
}

// Random predicate tree over a small field vocabulary, mirroring the
// planner differential's generator shape.
PredicatePtr RandomPredicate(Rng* rng, int depth) {
  static const char* kPaths[] = {"a", "b", "s"};
  const std::string path = kPaths[rng->Uniform(3)];
  double r = rng->NextDouble();
  if (depth >= 3 || r < 0.55) {
    if (rng->Bernoulli(0.5)) {
      DocValue v = rng->Bernoulli(0.5)
                       ? DocValue::Int(rng->UniformInt(0, 9))
                       : DocValue::Str(std::string(1, 'a' + rng->Uniform(5)));
      return Predicate::Eq(path, std::move(v));
    }
    int64_t lo = rng->UniformInt(0, 9);
    return Predicate::Range(path, DocValue::Int(lo),
                            DocValue::Int(lo + rng->UniformInt(0, 4)));
  }
  std::vector<PredicatePtr> kids;
  int n = 1 + static_cast<int>(rng->Uniform(3));
  for (int i = 0; i < n; ++i) kids.push_back(RandomPredicate(rng, depth + 1));
  return rng->Bernoulli(0.5) ? Predicate::And(std::move(kids))
                             : Predicate::Or(std::move(kids));
}

DocValue RandomDoc(Rng* rng) {
  DocBuilder b;
  if (rng->Bernoulli(0.9)) b.Set("a", rng->UniformInt(0, 9));
  if (rng->Bernoulli(0.9)) b.Set("b", rng->UniformInt(0, 9));
  if (rng->Bernoulli(0.9)) b.Set("s", std::string(1, 'a' + rng->Uniform(5)));
  return b.Build();
}

TEST(PredicateWireTest, DifferentialRoundTripMatchesScanOracle) {
  // serialize -> deserialize must preserve Matches exactly: the
  // decoded tree and the original agree on every random document, and
  // re-encoding the decoded tree is byte-identical.
  Rng rng(20260807);
  for (int trial = 0; trial < 200; ++trial) {
    auto pred = RandomPredicate(&rng, 0);
    auto decoded = Predicate::FromDocValue(pred->ToDocValue());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    ASSERT_EQ(Bytes(pred->ToDocValue()), Bytes((*decoded)->ToDocValue()));
    for (int d = 0; d < 25; ++d) {
      DocValue doc = RandomDoc(&rng);
      ASSERT_EQ(pred->Matches(doc), (*decoded)->Matches(doc))
          << pred->ToString() << " on " << doc.ToJson();
    }
  }
}

// ---------------------------------------------------------------------
// ExecStats / plan serialization
// ---------------------------------------------------------------------

TEST(ExecStatsWireTest, RoundTrip) {
  ExecStats s;
  s.index_entries_examined = 7;
  s.docs_examined = 11;
  s.docs_returned = 3;
  auto back = ExecStats::FromDocValue(s.ToDocValue());
  ASSERT_TRUE(back.ok());
  EXPECT_EQ(back->index_entries_examined, 7);
  EXPECT_EQ(back->docs_examined, 11);
  EXPECT_EQ(back->docs_returned, 3);
  EXPECT_EQ(Bytes(s.ToDocValue()), Bytes(back->ToDocValue()));
}

TEST(ExecStatsWireTest, RejectsMistypedCounters) {
  DocValue v = DocBuilder().Set("index_entries_examined", "seven").Build();
  EXPECT_FALSE(ExecStats::FromDocValue(v).ok());
  EXPECT_FALSE(ExecStats::FromDocValue(DocValue::Int(1)).ok());
}

TEST(PlanWireTest, RenderPlanReproducesToString) {
  storage::Collection coll("dt.entity");
  for (int i = 0; i < 40; ++i) {
    coll.Insert(DocBuilder()
                    .Set("type", i % 2 ? "Movie" : "Person")
                    .Set("name", "n" + std::to_string(i))
                    .Build());
  }
  ASSERT_TRUE(coll.CreateIndex("type").ok());

  std::vector<PredicatePtr> preds = {
      nullptr,
      Predicate::Eq("type", DocValue::Str("Movie")),
      Predicate::Or({Predicate::Eq("type", DocValue::Str("Movie")),
                     Predicate::Eq("type", DocValue::Str("Person"))}),
      Predicate::Range("name", DocValue::Str("n1"), DocValue::Str("n3"))};
  std::vector<FindOptions> optss(3);
  optss[1].order_by = "name";
  optss[1].limit = 5;
  optss[2].use_indexes = false;
  for (const auto& pred : preds) {
    for (const auto& opts : optss) {
      QueryPlan plan = PlanFind(coll.GetView(), pred, opts);
      EXPECT_EQ(plan.ToString(), RenderPlan(plan.ToDocValue()));
    }
  }
}

// ---------------------------------------------------------------------
// QueryRequest / QueryResponse
// ---------------------------------------------------------------------

TEST(QueryOpTest, NamesRoundTrip) {
  const QueryOp ops[] = {QueryOp::kFind,  QueryOp::kFindPage,
                         QueryOp::kExplain, QueryOp::kCount,
                         QueryOp::kTopK,  QueryOp::kTopDiscussed};
  for (QueryOp op : ops) {
    auto back = QueryOpFromName(QueryOpName(op));
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(*back, op);
  }
  EXPECT_TRUE(QueryOpFromName("drop_tables").status().IsInvalidArgument());
}

QueryRequest FullRequest() {
  QueryRequest req;
  req.op = QueryOp::kFindPage;
  req.collection = "entity";
  req.predicate = SamplePredicate();
  req.limit = 25;
  req.order_by = "name";
  req.order_desc = true;
  req.page_size = 8;
  req.resume_token = "opaque-token-bytes";
  req.use_indexes = false;
  req.num_threads = 4;
  req.group_path = "type";
  req.k = 3;
  req.entity_type = "Movie";
  req.award_winning_only = true;
  return req;
}

TEST(QueryRequestTest, RoundTripIsByteIdentical) {
  for (const QueryRequest& req : {QueryRequest{}, FullRequest()}) {
    DocValue encoded = req.ToDocValue();
    auto back = QueryRequest::FromDocValue(encoded);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    EXPECT_EQ(Bytes(encoded), Bytes(back->ToDocValue()));
    EXPECT_EQ(back->op, req.op);
    EXPECT_EQ(back->collection, req.collection);
    EXPECT_EQ(back->limit, req.limit);
    EXPECT_EQ(back->order_by, req.order_by);
    EXPECT_EQ(back->order_desc, req.order_desc);
    EXPECT_EQ(back->page_size, req.page_size);
    EXPECT_EQ(back->resume_token, req.resume_token);
    EXPECT_EQ(back->use_indexes, req.use_indexes);
    EXPECT_EQ(back->num_threads, req.num_threads);
    EXPECT_EQ(back->group_path, req.group_path);
    EXPECT_EQ(back->k, req.k);
    EXPECT_EQ(back->entity_type, req.entity_type);
    EXPECT_EQ(back->award_winning_only, req.award_winning_only);
    EXPECT_EQ((req.predicate == nullptr), (back->predicate == nullptr));
    if (req.predicate) {
      EXPECT_EQ(req.predicate->ToString(), back->predicate->ToString());
    }
  }
}

TEST(QueryRequestTest, StrictDecode) {
  EXPECT_TRUE(
      QueryRequest::FromDocValue(DocValue::Int(1)).status().IsInvalidArgument());
  // Unknown op.
  DocValue v = DocBuilder().Set("op", "truncate").Build();
  EXPECT_TRUE(QueryRequest::FromDocValue(v).status().IsInvalidArgument());
  // Mistyped knob.
  v = DocBuilder().Set("op", "find").Set("limit", "ten").Build();
  EXPECT_TRUE(QueryRequest::FromDocValue(v).status().IsInvalidArgument());
  // Absent fields keep defaults; unknown fields are ignored.
  v = DocBuilder().Set("op", "count").Set("future_knob", true).Build();
  auto ok = QueryRequest::FromDocValue(v);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();
  EXPECT_EQ(ok->op, QueryOp::kCount);
  EXPECT_EQ(ok->limit, -1);
  EXPECT_TRUE(ok->use_indexes);
}

TEST(QueryResponseTest, RoundTripIsByteIdentical) {
  QueryResponse resp;
  resp.ids = {3, 1, 4, 1'000'000'007};
  resp.next_token = "continue-here";
  resp.groups = {{"Movie", 41}, {"Person", 7}};
  resp.explain = "IXSCAN(type) est=41";
  resp.plan = DocBuilder().Set("access", "IXSCAN").Build();
  resp.stats.docs_returned = 4;
  DocValue encoded = resp.ToDocValue();
  auto back = QueryResponse::FromDocValue(encoded);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(Bytes(encoded), Bytes(back->ToDocValue()));
  EXPECT_EQ(back->ids, resp.ids);
  EXPECT_EQ(back->next_token, resp.next_token);
  ASSERT_EQ(back->groups.size(), 2u);
  EXPECT_EQ(back->groups[0].key, "Movie");
  EXPECT_EQ(back->groups[0].count, 41);
  EXPECT_EQ(back->explain, resp.explain);
  EXPECT_TRUE(back->plan.Equals(resp.plan));
  EXPECT_EQ(back->stats.docs_returned, 4);
}

TEST(QueryResponseTest, RejectsNegativeIds) {
  QueryResponse resp;
  DocValue v = resp.ToDocValue();
  DocValue* ids = const_cast<DocValue*>(v.Find("ids"));
  ASSERT_NE(ids, nullptr);
  ids->Push(DocValue::Int(-5));
  EXPECT_TRUE(QueryResponse::FromDocValue(v).status().IsInvalidArgument());
}

// ---------------------------------------------------------------------
// RPC envelopes
// ---------------------------------------------------------------------

TEST(EnvelopeTest, RequestRoundTrip) {
  server::RequestEnvelope env;
  env.id = 42;
  env.request = FullRequest();
  auto back = server::DecodeRequestEnvelope(server::EncodeRequestEnvelope(env));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->id, 42u);
  EXPECT_EQ(Bytes(back->request.ToDocValue()), Bytes(env.request.ToDocValue()));
}

TEST(EnvelopeTest, ResponseRoundTripBothVerdicts) {
  server::ResponseEnvelope ok_env;
  ok_env.id = 7;
  ok_env.response.ids = {1, 2, 3};
  auto ok_back =
      server::DecodeResponseEnvelope(server::EncodeResponseEnvelope(ok_env));
  ASSERT_TRUE(ok_back.ok());
  EXPECT_EQ(ok_back->id, 7u);
  EXPECT_TRUE(ok_back->status.ok());
  EXPECT_EQ(ok_back->response.ids, ok_env.response.ids);

  server::ResponseEnvelope err_env;
  err_env.id = 8;
  err_env.status = Status::Unavailable("overloaded");
  auto err_back =
      server::DecodeResponseEnvelope(server::EncodeResponseEnvelope(err_env));
  ASSERT_TRUE(err_back.ok());
  EXPECT_TRUE(err_back->status.IsUnavailable());
  EXPECT_EQ(err_back->status.message(), "overloaded");
}

TEST(EnvelopeTest, RejectsInconsistentShapes) {
  // resp present with an error code.
  server::ResponseEnvelope env;
  env.id = 1;
  DocValue ok_doc = server::EncodeResponseEnvelope(env);
  ok_doc.Set("code", DocValue::Int(static_cast<int64_t>(
                         StatusCode::kUnavailable)));
  EXPECT_FALSE(server::DecodeResponseEnvelope(ok_doc).ok());
  // resp missing with OK.
  env.status = Status::Unavailable("x");
  DocValue err_doc = server::EncodeResponseEnvelope(env);
  err_doc.Set("code", DocValue::Int(0));
  EXPECT_FALSE(server::DecodeResponseEnvelope(err_doc).ok());
  // out-of-range code.
  DocValue wild = server::EncodeResponseEnvelope(env);
  wild.Set("code", DocValue::Int(9999));
  EXPECT_FALSE(server::DecodeResponseEnvelope(wild).ok());
}

// ---------------------------------------------------------------------
// DataTamer::Execute parity with the legacy signatures
// ---------------------------------------------------------------------

struct ExecuteCorpus {
  datagen::WebTextGenerator gen;
  textparse::Gazetteer gazetteer;
  fusion::DataTamer tamer;

  ExecuteCorpus() : gen(MakeOpts()) {
    gazetteer = gen.BuildGazetteer();
    tamer.SetGazetteer(&gazetteer);
    for (const auto& frag : gen.Generate()) {
      EXPECT_TRUE(
          tamer.IngestTextFragment(frag.text, frag.feed, frag.timestamp).ok());
    }
    EXPECT_TRUE(tamer.CreateStandardIndexes().ok());
  }

  static datagen::WebTextGenOptions MakeOpts() {
    datagen::WebTextGenOptions o;
    o.num_fragments = 200;
    return o;
  }
};

TEST(ExecuteParityTest, FindExplainPageCountAgreeWithLegacy) {
  ExecuteCorpus c;
  auto pred = Predicate::Eq("type", DocValue::Str("Movie"));

  // kFind == the query-layer Find over the collection's view.
  QueryRequest req;
  req.op = QueryOp::kFind;
  req.collection = "entity";
  req.predicate = pred;
  req.order_by = "name";
  auto via_execute = c.tamer.Execute(req);
  ASSERT_TRUE(via_execute.ok()) << via_execute.status().ToString();
  FindOptions legacy_opts;
  legacy_opts.order_by = "name";
  const storage::CollectionView view = c.tamer.entity_collection()->GetView();
  auto legacy = Find(view, pred, legacy_opts);
  ASSERT_TRUE(legacy.ok());
  EXPECT_EQ(via_execute->ids, *legacy);
  EXPECT_GT(via_execute->ids.size(), 0u);
  EXPECT_EQ(via_execute->stats.docs_returned,
            static_cast<int64_t>(via_execute->ids.size()));

  // kExplain == ExplainFind, and the plan doc renders to the same
  // string.
  req.op = QueryOp::kExplain;
  auto explained = c.tamer.Execute(req);
  ASSERT_TRUE(explained.ok());
  EXPECT_EQ(explained->explain, ExplainFind(view, pred, legacy_opts));
  EXPECT_FALSE(explained->plan.is_null());

  // kFindPage pages stitch to the one-shot result, and a request that
  // round-trips through the wire encoding behaves identically.
  req.op = QueryOp::kFindPage;
  req.page_size = 7;
  std::vector<storage::DocId> stitched;
  while (true) {
    auto wire = QueryRequest::FromDocValue(req.ToDocValue());
    ASSERT_TRUE(wire.ok());
    auto page = c.tamer.Execute(*wire);
    ASSERT_TRUE(page.ok()) << page.status().ToString();
    stitched.insert(stitched.end(), page->ids.begin(), page->ids.end());
    if (page->next_token.empty()) break;
    req.resume_token = page->next_token;
  }
  EXPECT_EQ(stitched, *legacy);

  // kCount / kTopK == the query-layer aggregations.
  QueryRequest count_req;
  count_req.op = QueryOp::kCount;
  count_req.collection = "entity";
  count_req.group_path = "type";
  auto counted = c.tamer.Execute(count_req);
  ASSERT_TRUE(counted.ok());
  auto legacy_counts = CountByField(c.tamer.entity_collection()->GetView(),
                                    "type", PredicatePtr());
  ASSERT_EQ(counted->groups.size(), legacy_counts.size());
  for (size_t i = 0; i < legacy_counts.size(); ++i) {
    EXPECT_EQ(counted->groups[i].key, legacy_counts[i].key);
    EXPECT_EQ(counted->groups[i].count, legacy_counts[i].count);
  }

  count_req.op = QueryOp::kTopK;
  count_req.k = 3;
  auto topk = c.tamer.Execute(count_req);
  ASSERT_TRUE(topk.ok());
  auto legacy_topk =
      TopKByCount(c.tamer.entity_collection()->GetView(), "type", 3,
                  PredicatePtr());
  ASSERT_EQ(topk->groups.size(), legacy_topk.size());
  for (size_t i = 0; i < legacy_topk.size(); ++i) {
    EXPECT_EQ(topk->groups[i].key, legacy_topk[i].key);
    EXPECT_EQ(topk->groups[i].count, legacy_topk[i].count);
  }

  // kTopDiscussed == TopDiscussed.
  QueryRequest top_req;
  top_req.op = QueryOp::kTopDiscussed;
  top_req.entity_type = "Movie";
  top_req.k = 5;
  top_req.award_winning_only = true;
  auto discussed = c.tamer.Execute(top_req);
  ASSERT_TRUE(discussed.ok());
  auto legacy_discussed = c.tamer.TopDiscussed("Movie", 5, true);
  ASSERT_EQ(discussed->groups.size(), legacy_discussed.size());
  for (size_t i = 0; i < legacy_discussed.size(); ++i) {
    EXPECT_EQ(discussed->groups[i].key, legacy_discussed[i].key);
    EXPECT_EQ(discussed->groups[i].count, legacy_discussed[i].count);
  }

  // Errors surface like the legacy calls: unknown collection.
  QueryRequest bad;
  bad.op = QueryOp::kFind;
  bad.collection = "no_such_collection";
  EXPECT_TRUE(c.tamer.Execute(bad).status().IsNotFound());
}

TEST(ExecuteValidationTest, WideKReturnsEveryGroupAndNegativeKIsRejected) {
  ExecuteCorpus c;
  QueryRequest count_req;
  count_req.op = QueryOp::kCount;
  count_req.collection = "entity";
  count_req.group_path = "type";
  auto all = c.tamer.Execute(count_req);
  ASSERT_TRUE(all.ok()) << all.status().ToString();
  ASSERT_GE(all->groups.size(), 2u);

  // k past 32 bits must not wrap: narrowed to int, 2^32 + 1 is 1.
  QueryRequest top_req = count_req;
  top_req.op = QueryOp::kTopK;
  top_req.k = (int64_t{1} << 32) + 1;
  auto top = c.tamer.Execute(top_req);
  ASSERT_TRUE(top.ok()) << top.status().ToString();
  ASSERT_EQ(top->groups.size(), all->groups.size());
  for (size_t i = 0; i < all->groups.size(); ++i) {
    EXPECT_EQ(top->groups[i].key, all->groups[i].key);
    EXPECT_EQ(top->groups[i].count, all->groups[i].count);
  }

  QueryRequest discussed_req;
  discussed_req.op = QueryOp::kTopDiscussed;
  discussed_req.entity_type = "Movie";
  discussed_req.k = int64_t{1} << 31;  // negative once narrowed to int
  auto discussed = c.tamer.Execute(discussed_req);
  ASSERT_TRUE(discussed.ok()) << discussed.status().ToString();
  EXPECT_FALSE(discussed->groups.empty());
  EXPECT_EQ(discussed->groups.size(),
            c.tamer.TopDiscussed("Movie", 1 << 20, false).size());

  top_req.k = -1;
  EXPECT_TRUE(c.tamer.Execute(top_req).status().IsInvalidArgument());
  discussed_req.k = -1;
  EXPECT_TRUE(c.tamer.Execute(discussed_req).status().IsInvalidArgument());
}

TEST(ExecuteValidationTest, ThreadCountOutsideTheFacadeBudgetIsRejected) {
  fusion::DataTamer tamer;  // default budget: one thread
  tamer.entity_collection()->Insert(
      DocBuilder().Set("type", "Movie").Build());
  QueryRequest req;
  req.op = QueryOp::kFind;
  req.collection = "entity";
  req.predicate = Predicate::Eq("type", DocValue::Str("Movie"));
  req.use_indexes = false;  // the COLLSCAN path, where threads matter
  for (int64_t threads : {int64_t{64}, int64_t{2}, int64_t{-1}}) {
    req.num_threads = threads;
    Status st = tamer.Execute(req).status();
    EXPECT_TRUE(st.IsInvalidArgument()) << threads << ": " << st.ToString();
  }
  for (int64_t threads : {int64_t{0}, int64_t{1}}) {
    req.num_threads = threads;
    auto found = tamer.Execute(req);
    ASSERT_TRUE(found.ok()) << threads << ": " << found.status().ToString();
    EXPECT_EQ(found->ids.size(), 1u);
  }

  // A 4-thread facade: 1 scans serially, 0 and 2..4 ride the facade's
  // pool, and every admitted count returns the same ids.
  fusion::DataTamerOptions four;
  four.num_threads = 4;
  fusion::DataTamer wide(four);
  for (int i = 0; i < 300; ++i) {
    wide.entity_collection()->Insert(
        DocBuilder().Set("type", i % 3 == 0 ? "Movie" : "Person").Build());
  }
  std::vector<storage::DocId> serial_ids;
  for (int64_t threads : {int64_t{1}, int64_t{0}, int64_t{2}, int64_t{4}}) {
    req.num_threads = threads;
    auto found = wide.Execute(req);
    ASSERT_TRUE(found.ok()) << threads << ": " << found.status().ToString();
    if (threads == 1) {
      serial_ids = found->ids;
      EXPECT_EQ(serial_ids.size(), 100u);
    } else {
      EXPECT_EQ(found->ids, serial_ids) << threads;
    }
  }
  req.num_threads = 5;
  Status st = wide.Execute(req).status();
  EXPECT_TRUE(st.IsInvalidArgument()) << st.ToString();
}

TEST(ExecuteStatsTest, FilteredCountReportsEveryFetchedDocument) {
  fusion::DataTamer tamer;
  constexpr int kMovies = 40;
  for (int i = 0; i < 100; ++i) {
    tamer.entity_collection()->Insert(
        DocBuilder()
            .Set("type", i < kMovies ? "Movie" : "Person")
            .Set("name", "n" + std::to_string(i % 7))
            .Build());
  }
  ASSERT_TRUE(tamer.entity_collection()->CreateIndex("type").ok());
  QueryRequest req;
  req.collection = "entity";
  req.group_path = "name";
  req.k = 100;  // every group
  req.predicate = Predicate::Eq("type", DocValue::Str("Movie"));
  // Both the index-routed fold and the full scan fetch each match to
  // read its group key.
  for (QueryOp op : {QueryOp::kCount, QueryOp::kTopK}) {
    for (bool use_indexes : {true, false}) {
      req.op = op;
      req.use_indexes = use_indexes;
      auto resp = tamer.Execute(req);
      ASSERT_TRUE(resp.ok()) << resp.status().ToString();
      int64_t total = 0;
      for (const CountRow& row : resp->groups) total += row.count;
      EXPECT_EQ(total, kMovies);
      EXPECT_GE(resp->stats.docs_examined, kMovies)
          << QueryOpName(op) << " use_indexes=" << use_indexes;
    }
  }
}

}  // namespace
}  // namespace dt::query
