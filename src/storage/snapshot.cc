#include "storage/snapshot.h"

#include <dirent.h>
#include <fcntl.h>
#include <signal.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cerrno>
#include <cstdio>
#include <fstream>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "storage/codec.h"
#include "storage/wal.h"

namespace dt::storage {

namespace {

constexpr uint8_t kKindStore = 1;
constexpr uint8_t kKindCollection = 2;

/// Directory component of `path` ("" when it has none — the cwd).
std::string DirOf(const std::string& path) {
  size_t slash = path.find_last_of('/');
  return slash == std::string::npos ? std::string() : path.substr(0, slash);
}

/// True when `name` matches the `AtomicWriteFile` temp pattern
/// `<base>.tmp.<pid>.<n>`; fills the embedded pid.
bool ParseTempFilePid(const std::string& name, pid_t* pid) {
  size_t at = name.rfind(".tmp.");
  if (at == std::string::npos) return false;
  size_t p = at + 5;
  uint64_t v = 0;
  size_t digits = 0;
  while (p < name.size() &&
         std::isdigit(static_cast<unsigned char>(name[p]))) {
    v = v * 10 + static_cast<uint64_t>(name[p] - '0');
    if (v > (1ull << 31)) return false;
    ++p;
    ++digits;
  }
  if (digits == 0 || p >= name.size() || name[p] != '.') return false;
  ++p;
  if (p >= name.size()) return false;
  while (p < name.size()) {
    if (!std::isdigit(static_cast<unsigned char>(name[p]))) return false;
    ++p;
  }
  *pid = static_cast<pid_t>(v);
  return true;
}

// ---- chunking ---------------------------------------------------------

struct ChunkSpec {
  size_t begin = 0;  // first doc index
  size_t end = 0;    // one past last doc index
};

std::vector<ChunkSpec> MakeChunks(size_t num_docs) {
  std::vector<ChunkSpec> chunks;
  for (size_t at = 0; at < num_docs; at += kDocsPerChunk) {
    chunks.push_back({at, std::min(num_docs, at + kDocsPerChunk)});
  }
  return chunks;
}

/// Runs `body(i)` for i in [0, n) on the pool when it has workers,
/// inline otherwise (a 1-thread pool spawns nothing, but routing the
/// serial case around ParallelFor keeps the hot loop allocation-free).
Status ForEachChunk(ThreadPool* pool, size_t n,
                    const std::function<Status(size_t)>& body) {
  if (pool != nullptr && pool->num_threads() > 1) {
    return pool->ParallelFor(0, n, body);
  }
  for (size_t i = 0; i < n; ++i) DT_RETURN_NOT_OK(body(i));
  return Status::OK();
}

// ---- collection section -----------------------------------------------

Status WriteCollectionSection(const CollectionView& coll, ThreadPool* pool,
                              std::string* out) {
  BinaryWriter w(out);
  w.PutString(coll.ns());
  const CollectionOptions& copts = coll.options();
  w.PutU32(static_cast<uint32_t>(copts.num_shards));
  w.PutU64(static_cast<uint64_t>(copts.initial_extent_size_bytes));
  w.PutU64(static_cast<uint64_t>(copts.max_extent_size_bytes));
  w.PutU64(coll.next_id());
  // Epoch lineage: the incarnation id and mutation epoch ride the
  // snapshot so a reloaded collection keeps its lineage (and re-saving
  // an untouched load stays byte-identical), while resume tokens
  // minted before the save can never be accepted after a restart —
  // the loaded collection publishes under a fresh random version id.
  w.PutU64(coll.incarnation());
  w.PutU64(coll.mutation_epoch());
  std::vector<std::vector<std::string>> index_specs = coll.IndexSpecs();
  w.PutU32(static_cast<uint32_t>(index_specs.size()));
  for (const auto& spec : index_specs) PutIndexSpec(&w, spec);
  // Per-index statistics: one full-state record per index in
  // Indexes() order ("_id" first, then creation order). The load path
  // adopts these after rebuilding the indexes — the writer's stats
  // reflect its whole mutation history, which an id-order reinsertion
  // cannot reproduce — so save -> load -> save stays byte-identical.
  std::vector<const SecondaryIndex*> indexes = coll.Indexes();
  w.PutU32(static_cast<uint32_t>(indexes.size()));
  for (const SecondaryIndex* idx : indexes) {
    std::string blob;
    idx->stats().EncodeTo(&blob);
    w.PutString(blob);
  }

  // Snapshot (id, doc) in id order; chunk boundaries depend only on
  // the order, so output bytes are identical for every thread count.
  std::vector<std::pair<DocId, const DocValue*>> docs;
  docs.reserve(static_cast<size_t>(coll.count()));
  coll.ForEach(
      [&docs](DocId id, const DocValue& doc) { docs.emplace_back(id, &doc); });
  w.PutU64(static_cast<uint64_t>(docs.size()));

  std::vector<ChunkSpec> chunks = MakeChunks(docs.size());
  std::vector<std::string> payloads(chunks.size());
  DT_RETURN_NOT_OK(ForEachChunk(pool, chunks.size(), [&](size_t c) {
    std::string& buf = payloads[c];
    BinaryWriter cw(&buf);
    for (size_t i = chunks[c].begin; i < chunks[c].end; ++i) {
      cw.PutU64(docs[i].first);
      DT_RETURN_NOT_OK(EncodeDocValue(*docs[i].second, &buf));
    }
    return Status::OK();
  }));

  w.PutU32(static_cast<uint32_t>(chunks.size()));
  for (size_t c = 0; c < chunks.size(); ++c) {
    w.PutU32(static_cast<uint32_t>(chunks[c].end - chunks[c].begin));
    w.PutU64(payloads[c].size());
  }
  // Free each payload as it lands so peak memory stays near one copy
  // of the snapshot, not two.
  for (std::string& p : payloads) {
    out->append(p);
    std::string().swap(p);
  }
  return Status::OK();
}

/// Reads one collection section at the reader's cursor into a fresh
/// collection constructed from the persisted ns/options. Secondary
/// indexes are rebuilt from the persisted field paths.
Result<std::unique_ptr<Collection>> ReadCollectionSection(BinaryReader* r,
                                                          ThreadPool* pool) {
  std::string ns;
  DT_RETURN_NOT_OK(r->ReadString(&ns));
  CollectionOptions copts;
  uint32_t num_shards = 0;
  uint64_t init_extent = 0, max_extent = 0, next_id = 0, doc_count = 0;
  uint64_t incarnation = 0, epoch = 0;
  DT_RETURN_NOT_OK(r->ReadU32(&num_shards));
  DT_RETURN_NOT_OK(r->ReadU64(&init_extent));
  DT_RETURN_NOT_OK(r->ReadU64(&max_extent));
  DT_RETURN_NOT_OK(r->ReadU64(&next_id));
  DT_RETURN_NOT_OK(r->ReadU64(&incarnation));
  DT_RETURN_NOT_OK(r->ReadU64(&epoch));
  if (num_shards == 0 || num_shards > (1u << 20)) {
    return Status::Corruption("implausible shard count " +
                              std::to_string(num_shards));
  }
  // Extent sizes are written from positive int64s; a u64 that would
  // cast negative can only come from a bad file.
  if (init_extent >= (1ull << 63) || max_extent >= (1ull << 63)) {
    return Status::Corruption("implausible extent sizes");
  }
  copts.num_shards = static_cast<int>(num_shards);
  copts.initial_extent_size_bytes = static_cast<int64_t>(init_extent);
  copts.max_extent_size_bytes = static_cast<int64_t>(max_extent);

  uint32_t index_count = 0;
  DT_RETURN_NOT_OK(r->ReadU32(&index_count));
  // Each spec costs >= 8 bytes (its count + one path length prefix).
  if (index_count > r->remaining() / 8) {
    return Status::Corruption("index count " + std::to_string(index_count) +
                              " exceeds remaining bytes");
  }
  std::vector<std::vector<std::string>> index_specs;
  // Clamped reserve: growth past it is paid only as entries really read.
  index_specs.reserve(std::min<uint32_t>(index_count, 1u << 10));
  for (uint32_t i = 0; i < index_count; ++i) {
    std::vector<std::string> paths;
    DT_RETURN_NOT_OK(ReadIndexSpec(r, &paths));
    index_specs.push_back(std::move(paths));
  }

  // Per-index statistics records, adopted after the index rebuild
  // below.
  uint32_t stats_count = 0;
  DT_RETURN_NOT_OK(r->ReadU32(&stats_count));
  if (stats_count != index_count + 1) {
    return Status::Corruption("stats record count " +
                              std::to_string(stats_count) + " for " +
                              std::to_string(index_count + 1) + " indexes");
  }
  std::vector<IndexStats> index_stats;
  index_stats.reserve(stats_count);
  for (uint32_t i = 0; i < stats_count; ++i) {
    std::string blob;
    DT_RETURN_NOT_OK(r->ReadString(&blob));
    BinaryReader sr(blob);
    IndexStats s;
    DT_RETURN_NOT_OK(IndexStats::DecodeFrom(&sr, &s));
    if (sr.remaining() != 0) {
      return Status::Corruption("trailing bytes in index stats record");
    }
    index_stats.push_back(std::move(s));
  }

  DT_RETURN_NOT_OK(r->ReadU64(&doc_count));

  uint32_t chunk_count = 0;
  DT_RETURN_NOT_OK(r->ReadU32(&chunk_count));
  // Each directory entry costs 12 bytes in the file, so this bounds the
  // dir/decoded pre-allocations below to ~2x the input size.
  if (chunk_count > r->remaining() / 12) {
    return Status::Corruption("chunk count " + std::to_string(chunk_count) +
                              " exceeds remaining bytes");
  }
  struct ChunkDir {
    uint32_t ndocs = 0;
    uint64_t nbytes = 0;
    size_t offset = 0;  // into the payload region
  };
  std::vector<ChunkDir> dir(chunk_count);
  uint64_t total_docs = 0, total_bytes = 0;
  for (auto& d : dir) {
    DT_RETURN_NOT_OK(r->ReadU32(&d.ndocs));
    DT_RETURN_NOT_OK(r->ReadU64(&d.nbytes));
    d.offset = static_cast<size_t>(total_bytes);
    // Each document costs >= 9 bytes (u64 id + type tag); a directory
    // entry claiming more docs than its bytes allow would otherwise
    // drive a huge reserve() below.
    if (d.nbytes > r->remaining() ||
        static_cast<uint64_t>(d.ndocs) * 9 > d.nbytes) {
      return Status::Corruption("implausible chunk directory entry (" +
                                std::to_string(d.ndocs) + " docs, " +
                                std::to_string(d.nbytes) + " bytes)");
    }
    total_docs += d.ndocs;
    total_bytes += d.nbytes;
    // The second clause catches u64 wraparound from crafted sizes.
    if (total_bytes > r->remaining() || total_bytes < d.nbytes) {
      return Status::Corruption(
          "chunk payloads (" + std::to_string(total_bytes) +
          " bytes) exceed remaining " + std::to_string(r->remaining()));
    }
  }
  if (total_docs != doc_count) {
    return Status::Corruption("chunk directory docs " +
                              std::to_string(total_docs) +
                              " != declared count " + std::to_string(doc_count));
  }
  // An id space this large can only come from a bad file; accepting it
  // would let post-load Inserts wrap the id counter to 0.
  if (next_id >= (1ull << 63)) {
    return Status::Corruption("implausible next_id " +
                              std::to_string(next_id));
  }

  std::string_view payload_region;
  DT_RETURN_NOT_OK(r->ReadSpan(static_cast<size_t>(total_bytes),
                               &payload_region));

  // Decode chunks in parallel into per-chunk slots, then restore
  // serially in id order (RestoreDocument mutates shared state).
  std::vector<std::vector<std::pair<DocId, DocValue>>> decoded(chunk_count);
  DT_RETURN_NOT_OK(ForEachChunk(pool, chunk_count, [&](size_t c) -> Status {
    const ChunkDir& d = dir[c];
    BinaryReader cr(payload_region.substr(d.offset,
                                          static_cast<size_t>(d.nbytes)));
    auto& slot = decoded[c];
    // Clamped like the codec's container reserves: a crafted directory
    // could otherwise force a many-times-file-size allocation up front.
    slot.reserve(std::min<uint32_t>(d.ndocs, 1u << 12));
    for (uint32_t i = 0; i < d.ndocs; ++i) {
      uint64_t id = 0;
      DT_RETURN_NOT_OK(cr.ReadU64(&id));
      // Ids this large can only come from a bad file; `id + 1` in the
      // collection's next_id maintenance must never wrap.
      if (id == 0 || id >= (1ull << 63)) {
        return Status::Corruption("implausible document id " +
                                  std::to_string(id));
      }
      DocValue doc;
      DT_RETURN_NOT_OK(DecodeDocValue(&cr, &doc));
      slot.emplace_back(static_cast<DocId>(id), std::move(doc));
    }
    if (cr.remaining() != 0) {
      return Status::Corruption("chunk " + std::to_string(c) + " has " +
                                std::to_string(cr.remaining()) +
                                " trailing bytes");
    }
    return Status::OK();
  }));

  auto coll = std::make_unique<Collection>(ns, copts);
  for (auto& chunk : decoded) {
    for (auto& [id, doc] : chunk) {
      // Duplicate or zero ids surface as AlreadyExists/InvalidArgument
      // from the collection; to a snapshot reader they mean the file
      // is bad, so re-code them as the documented kCorruption.
      Status st = coll->RestoreDocument(id, std::move(doc));
      if (!st.ok()) {
        return Status::Corruption("invalid snapshot: " + st.ToString());
      }
    }
  }
  coll->RestoreNextId(static_cast<DocId>(next_id));
  for (const std::vector<std::string>& spec : index_specs) {
    Status st = coll->CreateIndex(spec);
    if (!st.ok()) {
      return Status::Corruption("invalid snapshot index metadata: " +
                                st.ToString());
    }
  }
  Status st = coll->RestoreIndexStats(std::move(index_stats));
  if (!st.ok()) {
    return Status::Corruption("invalid snapshot index stats: " +
                              st.ToString());
  }
  // Adopt the persisted lineage last: restore/CreateIndex above bump
  // the mutation epoch, and the loaded collection must report exactly
  // the persisted (incarnation, epoch) so save -> load -> save is
  // byte-identical. The version id stays this process's fresh random
  // draw, which is what rejects pre-save resume tokens after a load.
  coll->RestoreLineage(incarnation, epoch);
  return coll;
}

Status WriteHeader(uint8_t kind, std::string* out) {
  AppendCodecHeader(out);
  BinaryWriter w(out);
  w.PutU8(kind);
  return Status::OK();
}

Status ReadHeader(BinaryReader* r, uint8_t expected_kind) {
  DT_RETURN_NOT_OK(ReadCodecHeader(r));
  uint8_t kind = 0;
  DT_RETURN_NOT_OK(r->ReadU8(&kind));
  if (kind != expected_kind) {
    return Status::Corruption(
        "snapshot kind " + std::to_string(kind) + " (wanted " +
        std::to_string(expected_kind) +
        "): store and collection snapshots are distinct files");
  }
  return Status::OK();
}

}  // namespace

// ---- file utilities ----------------------------------------------------

Status ReadFileToString(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IOError("cannot open " + path + " for reading");
  std::streamsize size = in.tellg();
  if (size < 0) return Status::IOError("cannot stat " + path);
  out->resize(static_cast<size_t>(size));
  in.seekg(0);
  if (size > 0 && !in.read(&(*out)[0], size)) {
    return Status::IOError("short read from " + path);
  }
  return Status::OK();
}

Status AtomicWriteFile(const std::string& path, std::string_view data) {
  // Unique temp file + fsync + rename: a crash mid-write leaves any
  // previous file at `path` intact, the data is on disk before the
  // rename can replace it, and concurrent saves to the same path
  // cannot interleave into one temp file (last rename wins whole).
  static std::atomic<uint64_t> counter{0};
  const std::string tmp = path + ".tmp." + std::to_string(::getpid()) + "." +
                          std::to_string(counter.fetch_add(1));
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Status::IOError("cannot open " + tmp + " for writing");
  size_t written = 0;
  while (written < data.size()) {
    ssize_t n = crashpoint::CrashAwareWrite(fd, data.data() + written,
                                            data.size() - written);
    if (n < 0) {
      if (errno == EINTR) continue;  // signal mid-write is not a failure
      ::close(fd);
      std::remove(tmp.c_str());
      return Status::IOError("short write to " + tmp);
    }
    written += static_cast<size_t>(n);
  }
  bool synced = ::fsync(fd) == 0;
  if (::close(fd) != 0) synced = false;  // close must run even if fsync failed
  if (!synced) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot sync " + tmp);
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return Status::IOError("cannot rename " + tmp + " to " + path);
  }
  // Make the rename itself durable (best-effort: some filesystems do
  // not support fsync on directories).
  std::string dir = DirOf(path);
  if (dir.empty()) dir = ".";
  int dfd = ::open(dir.c_str(), O_RDONLY);
  if (dfd >= 0) {
    (void)::fsync(dfd);
    ::close(dfd);
  }
  return Status::OK();
}

int SweepStaleTempFiles(const std::string& dir) {
  DIR* d = ::opendir(dir.empty() ? "." : dir.c_str());
  if (d == nullptr) return 0;
  std::vector<std::string> victims;
  while (struct dirent* e = ::readdir(d)) {
    std::string name = e->d_name;
    pid_t pid = 0;
    if (!ParseTempFilePid(name, &pid)) continue;
    // kill(pid, 0) probes liveness without signaling; EPERM still
    // means "alive, just not ours". Only a provably dead owner makes
    // the temp file garbage — a live pid may be a saver whose rename
    // has not landed yet (including this very process).
    if (::kill(pid, 0) == 0 || errno == EPERM) continue;
    victims.push_back(dir.empty() ? name : dir + "/" + name);
  }
  ::closedir(d);
  int removed = 0;
  for (const std::string& path : victims) {
    if (std::remove(path.c_str()) == 0) ++removed;
  }
  return removed;
}

// ---- whole-store snapshots --------------------------------------------

Status EncodeStoreSnapshot(const DocumentStore& store, ThreadPool* pool,
                           std::string* out) {
  DT_RETURN_NOT_OK(WriteHeader(kKindStore, out));
  BinaryWriter w(out);
  w.PutString(store.db_name());
  std::vector<std::string> names = store.CollectionNames();
  w.PutU32(static_cast<uint32_t>(names.size()));
  // CollectionNames() is sorted, so the layout is deterministic.
  for (const std::string& name : names) {
    const Collection* coll = store.GetCollection(name).ValueOrDie();
    w.PutString(name);
    // Snapshot through a view: the write walks one immutable version,
    // consistent even if a writer publishes mid-save.
    DT_RETURN_NOT_OK(WriteCollectionSection(coll->GetView(), pool, out));
  }
  return Status::OK();
}

Result<std::unique_ptr<DocumentStore>> DecodeStoreSnapshot(
    std::string_view buf, ThreadPool* pool) {
  BinaryReader r(buf);
  DT_RETURN_NOT_OK(ReadHeader(&r, kKindStore));
  std::string db_name;
  DT_RETURN_NOT_OK(r.ReadString(&db_name));
  uint32_t count = 0;
  DT_RETURN_NOT_OK(r.ReadU32(&count));
  if (count > r.remaining()) {
    return Status::Corruption("collection count " + std::to_string(count) +
                              " exceeds remaining bytes");
  }
  auto store = std::make_unique<DocumentStore>(db_name);
  for (uint32_t i = 0; i < count; ++i) {
    std::string name;
    DT_RETURN_NOT_OK(r.ReadString(&name));
    DT_ASSIGN_OR_RETURN(std::unique_ptr<Collection> coll,
                        ReadCollectionSection(&r, pool));
    Status st = store->AdoptCollection(name, std::move(coll));
    if (!st.ok()) {
      // A duplicate collection name means the file is bad.
      return Status::Corruption("invalid snapshot: " + st.ToString());
    }
  }
  if (r.remaining() != 0) {
    return Status::Corruption(std::to_string(r.remaining()) +
                              " trailing bytes after last collection");
  }
  return store;
}

Status SaveSnapshot(const DocumentStore& store, const std::string& path,
                    ThreadPool* pool) {
  SweepStaleTempFiles(DirOf(path));
  std::string buf;
  DT_RETURN_NOT_OK(EncodeStoreSnapshot(store, pool, &buf));
  return AtomicWriteFile(path, buf);
}

Result<std::unique_ptr<DocumentStore>> LoadSnapshot(
    const std::string& path, ThreadPool* pool) {
  SweepStaleTempFiles(DirOf(path));
  std::string buf;
  DT_RETURN_NOT_OK(ReadFileToString(path, &buf));
  return DecodeStoreSnapshot(buf, pool);
}

// ---- single-collection snapshots --------------------------------------

Status EncodeCollectionSnapshot(const CollectionView& view, ThreadPool* pool,
                                std::string* out) {
  DT_RETURN_NOT_OK(WriteHeader(kKindCollection, out));
  return WriteCollectionSection(view, pool, out);
}

Status SaveSnapshot(const Collection& coll, const std::string& path,
                    ThreadPool* pool) {
  SweepStaleTempFiles(DirOf(path));
  std::string buf;
  DT_RETURN_NOT_OK(EncodeCollectionSnapshot(coll.GetView(), pool, &buf));
  return AtomicWriteFile(path, buf);
}

Result<std::unique_ptr<Collection>> LoadCollectionSnapshot(
    const std::string& path, ThreadPool* pool) {
  SweepStaleTempFiles(DirOf(path));
  std::string buf;
  DT_RETURN_NOT_OK(ReadFileToString(path, &buf));
  BinaryReader r(buf);
  DT_RETURN_NOT_OK(ReadHeader(&r, kKindCollection));
  DT_ASSIGN_OR_RETURN(std::unique_ptr<Collection> coll,
                      ReadCollectionSection(&r, pool));
  if (r.remaining() != 0) {
    return Status::Corruption(std::to_string(r.remaining()) +
                              " trailing bytes after collection");
  }
  return coll;
}

}  // namespace dt::storage
