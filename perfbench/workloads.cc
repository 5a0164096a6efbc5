#include "workloads.h"

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "datagen/dedup_labels.h"
#include "storage/codec.h"

namespace dtb {

using namespace dt;

const char* const kClassNames[kNumClasses] = {
    "point", "ordered", "page_bounded", "top_discussed",
    "count", "topk",    "page_unbounded"};

const std::vector<WorkloadConfig>& AllWorkloads() {
  // name, fragments, sources, analytics_reads, mixed
  static const std::vector<WorkloadConfig> kAll = {
      {"lookup", 20000, 20, false, false},
      {"analytics", 20000, 20, true, false},
      {"ingest_mixed", 4000, 20, false, true},
  };
  return kAll;
}

const WorkloadConfig* FindWorkload(const std::string& name) {
  for (const auto& w : AllWorkloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

fusion::DataTamerOptions FacadeOptions(const std::string& dir,
                                       storage::Durability mode) {
  fusion::DataTamerOptions opts;
  // Extent sizing of the repo's benches: tens to hundreds of extents
  // at this corpus size.
  opts.collection_options.num_shards = 8;
  opts.collection_options.initial_extent_size_bytes = 1 << 14;
  opts.collection_options.max_extent_size_bytes = 1 << 20;
  opts.consolidation_options.blocking.max_block_size = kBlockCap;
  if (!dir.empty()) {
    opts.durability.dir = dir;
    opts.durability.durability = mode;
    opts.durability.checkpoint_wal_bytes = kCheckpointWalBytes;
  }
  return opts;
}

// ---- corpus ------------------------------------------------------------

Corpus GenerateCorpus(uint64_t seed, int64_t fragments, int sources) {
  Corpus c;
  datagen::WebTextGenOptions wopts;
  wopts.num_fragments = fragments;
  wopts.seed = seed;
  c.webgen = std::make_unique<datagen::WebTextGenerator>(wopts);
  c.gazetteer = c.webgen->BuildGazetteer();
  c.fragments = c.webgen->Generate();
  datagen::FTablesGenOptions fopts;
  fopts.num_sources = sources;
  fopts.seed = seed;
  datagen::FusionTablesGenerator ftgen(fopts);
  c.sources = ftgen.Generate();
  return c;
}

Status IngestCorpus(const Corpus& corpus, fusion::DataTamer* tamer,
                    CorpusTimes* times) {
  tamer->SetGazetteer(&corpus.gazetteer);
  int64_t t = NowNs();
  for (const auto& frag : corpus.fragments) {
    DT_RETURN_NOT_OK(
        tamer->IngestTextFragment(frag.text, frag.feed, frag.timestamp)
            .status());
  }
  times->text_ingest_s = SecondsSince(t);
  t = NowNs();
  DT_RETURN_NOT_OK(tamer->CreateStandardIndexes());
  times->index_build_s = SecondsSince(t);
  t = NowNs();
  for (const auto& src : corpus.sources) {
    DT_RETURN_NOT_OK(tamer->IngestStructuredTable(src.table).status());
  }
  times->structured_ingest_s = SecondsSince(t);
  return Status::OK();
}

// ---- requests ----------------------------------------------------------

namespace {

using query::Predicate;
using query::QueryOp;
using query::QueryRequest;
using storage::DocValue;

/// Types whose ordered lookups cost tens to hundreds of microseconds
/// on every seeded corpus: the planner walks the name index and meets
/// 50 matches early. (Movie is left out: its plan flips between that
/// walk, ~60 us, and a type scan with a top-k sort, ~1 ms, from one
/// seed to the next.)
const char* const kLookupOrderedTypes[] = {"Company", "Organization",
                                           "MedicalCondition",
                                           "ProvinceOrState"};
/// Resumed ascending pages; the first descending page of the same
/// chain costs ~26 ms (a full walk), which is analytics territory.
const char* const kLookupPagedType = "Company";
/// The six most mentioned types (Table III's head).
const char* const kAnalyticsTypes[] = {"Person", "OrgEntity", "Movie",
                                       "GeoEntity", "URL", "IndustryTerm"};
const char* const kUnboundedPagedTypes[] = {"Person", "Movie"};
constexpr int kPointNames = 1024;
constexpr int kUnboundedPageSize = 10000;

QueryRequest FindReq(QueryOp op, query::PredicatePtr pred) {
  QueryRequest r;
  r.op = op;
  r.collection = "entity";
  r.predicate = std::move(pred);
  return r;
}

query::PredicatePtr TypeIs(const char* type) {
  return Predicate::Eq("type", DocValue::Str(type));
}

void Shuffle(std::vector<int>* v, uint64_t seed) {
  Rng rng(seed);
  for (size_t i = v->size(); i > 1; --i) {
    std::swap((*v)[i - 1], (*v)[rng.Uniform(i)]);
  }
}

/// Adds `item` to the pool, `repeat` times to the pass.
void Put(PoolSpec* spec, Cls cls, QueryRequest req, int repeat) {
  spec->items.push_back({cls, std::move(req)});
  for (int i = 0; i < repeat; ++i) {
    spec->pass.push_back(static_cast<int>(spec->items.size() - 1));
  }
}

}  // namespace

PoolSpec MakeLookupPool(uint64_t seed, const textparse::Gazetteer& gaz) {
  PoolSpec spec;
  // Point lookups on gazetteer names drawn without replacement; the
  // sorted unique list makes the draw independent of the gazetteer's
  // internal order.
  std::set<std::string> unique;
  for (const auto& e : gaz.Entries()) {
    unique.insert(e.canonical.empty() ? e.phrase : e.canonical);
  }
  std::vector<std::string> names(unique.begin(), unique.end());
  Rng rng(seed * 0x9E3779B97F4A7C15ULL + 1);
  const size_t want = std::min<size_t>(kPointNames, names.size());
  for (size_t i = 0; i < want; ++i) {
    std::swap(names[i], names[i + rng.Uniform(names.size() - i)]);
    Put(&spec, kPoint,
        FindReq(QueryOp::kFind, Predicate::Eq("name", DocValue::Str(names[i]))),
        1);
  }
  // Mix per pass: 1024 point, 256 ordered, 32 page chains of 10 pages.
  for (const char* type : kLookupOrderedTypes) {
    QueryRequest r = FindReq(QueryOp::kFind, TypeIs(type));
    r.order_by = "name";
    r.limit = 50;
    Put(&spec, kOrdered, std::move(r), 64);
  }
  QueryRequest paged = FindReq(QueryOp::kFindPage, TypeIs(kLookupPagedType));
  paged.order_by = "name";
  paged.limit = 200;
  paged.page_size = 20;
  Put(&spec, kPageBounded, std::move(paged), 32);
  Shuffle(&spec.pass, seed * 31 + 7);
  return spec;
}

PoolSpec MakeAnalyticsPool(uint64_t seed) {
  PoolSpec spec;
  for (const char* type : kAnalyticsTypes) {
    for (bool award : {false, true}) {
      QueryRequest r;
      r.op = QueryOp::kTopDiscussed;
      r.entity_type = type;
      r.k = 10;
      r.award_winning_only = award;
      Put(&spec, kTopDiscussed, std::move(r), 1);
    }
  }
  const query::PredicatePtr count_filters[] = {
      nullptr, Predicate::Eq("award_winning", DocValue::Str("true")),
      Predicate::Range("confidence", DocValue::Double(0.9),
                       DocValue::Double(1.0))};
  for (const auto& pred : count_filters) {
    QueryRequest r = FindReq(QueryOp::kCount, pred);
    r.group_path = "type";
    Put(&spec, kCount, std::move(r), 1);
  }
  for (const char* type : kAnalyticsTypes) {
    QueryRequest r = FindReq(QueryOp::kTopK, TypeIs(type));
    r.group_path = "name";
    r.k = 10;
    Put(&spec, kTopK, std::move(r), 1);
  }
  for (const char* type : kUnboundedPagedTypes) {
    QueryRequest r = FindReq(QueryOp::kFindPage, TypeIs(type));
    r.order_by = "name";
    r.page_size = kUnboundedPageSize;
    Put(&spec, kPageUnbounded, std::move(r), 1);
  }
  Shuffle(&spec.pass, seed * 31 + 11);
  return spec;
}

std::string SpecBytes(const PoolSpec& spec) {
  std::string out;
  for (const auto& item : spec.items) {
    out += kClassNames[item.cls];
    out += ':';
    (void)storage::EncodeDocValue(item.req.ToDocValue(), &out);
  }
  for (int i : spec.pass) out += std::to_string(i) + ",";
  return out;
}

Status Materialize(const PoolSpec& spec, const fusion::DataTamer& tamer,
                   Pool* pool, Ledger* ledger) {
  // Each spec item becomes one op, or one op per page for a chain.
  std::vector<std::vector<int>> ops_of(spec.items.size());
  for (size_t i = 0; i < spec.items.size(); ++i) {
    const ItemSpec& item = spec.items[i];
    QueryRequest req = item.req;
    if (req.op != QueryOp::kFindPage) {
      DT_ASSIGN_OR_RETURN(query::QueryResponse resp, tamer.Execute(req));
      ops_of[i].push_back(static_cast<int>(pool->ops.size()));
      pool->ops.push_back({std::move(req), AnswerBytes(std::move(resp)),
                           item.cls});
      continue;
    }
    std::vector<storage::DocId> stitched;
    while (true) {
      DT_ASSIGN_OR_RETURN(query::QueryResponse resp, tamer.Execute(req));
      stitched.insert(stitched.end(), resp.ids.begin(), resp.ids.end());
      std::string token = resp.next_token;
      ops_of[i].push_back(static_cast<int>(pool->ops.size()));
      pool->ops.push_back({req, AnswerBytes(std::move(resp)), item.cls});
      if (token.empty()) break;
      req.resume_token = std::move(token);
    }
    QueryRequest once = item.req;
    once.op = QueryOp::kFind;
    once.page_size = -1;
    DT_ASSIGN_OR_RETURN(query::QueryResponse whole, tamer.Execute(once));
    if (whole.ids != stitched) {
      ledger->Mismatch(std::string("stitched ") + kClassNames[item.cls] +
                       " pages differ from the one-shot find");
    }
  }
  for (int i : spec.pass) {
    for (int op : ops_of[static_cast<size_t>(i)]) pool->pass.push_back(op);
  }
  return Status::OK();
}

// ---- records -------------------------------------------------------------

std::vector<dedup::DedupRecord> MakeRecordStream(uint64_t seed, int64_t n) {
  datagen::DedupLabelOptions lopts;
  lopts.num_pairs = (n + 1) / 2;
  lopts.seed = seed;
  std::vector<dedup::DedupRecord> records;
  for (auto& p : datagen::GenerateLabeledPairs(textparse::EntityType::kPerson,
                                               lopts)) {
    records.push_back(std::move(p.a));
    records.push_back(std::move(p.b));
  }
  records.resize(static_cast<size_t>(n));
  for (size_t i = 0; i < records.size(); ++i) {
    records[i].id = static_cast<int64_t>(i + 1);
    records[i].ingest_seq = static_cast<int64_t>(i + 1);
  }
  return records;
}

std::string StreamBytes(const std::vector<dedup::DedupRecord>& records) {
  std::string out;
  for (const auto& r : records) {
    (void)storage::EncodeDocValue(dedup::DedupRecordToDoc(r), &out);
  }
  return out;
}

std::vector<WireOp> IngestBatches(
    const std::vector<dedup::DedupRecord>& records) {
  std::vector<WireOp> out;
  for (size_t i = 0; i < records.size(); i += kIngestBatch) {
    WireOp op;
    op.req.op = query::QueryOp::kIngest;
    op.req.ingest_records.assign(
        records.begin() + static_cast<std::ptrdiff_t>(i),
        records.begin() + static_cast<std::ptrdiff_t>(
                              std::min(records.size(), i + kIngestBatch)));
    out.push_back(std::move(op));
  }
  return out;
}

}  // namespace dtb
