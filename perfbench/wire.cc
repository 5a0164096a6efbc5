#include "wire.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <deque>
#include <fcntl.h>
#include <map>
#include <memory>
#include <thread>

#include "server/frame.h"
#include "storage/codec.h"

namespace dtb {

using namespace dt;

std::string AnswerBytes(query::QueryResponse resp) {
  resp.stats = query::ExecStats{};
  std::string out;
  (void)storage::EncodeDocValue(resp.ToDocValue(), &out);
  return out;
}

namespace {

/// A phase never runs longer than this, whatever the server does; the
/// requests still unanswered then count as failed.
constexpr int64_t kPhaseCapNs = 120'000'000'000;

struct InFlight {
  int op = 0;
  bool ingest = false;
  int64_t due_ns = 0;
  int64_t send_ns = 0;
  uint64_t trace = 0;
  int root = -1;
};

/// One non-blocking client connection speaking DTW1 frames.
class Conn {
 public:
  ~Conn() {
    if (fd_ >= 0) close(fd_);
  }

  bool Open(uint16_t port, std::string* err) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return Fail("socket", err);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(port);
    inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) < 0) {
      return Fail("connect", err);
    }
    // Pipelined small frames must not wait on Nagle's algorithm: that
    // delay would be the client's, not the server's.
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
    fcntl(fd_, F_SETFL, fcntl(fd_, F_GETFL, 0) | O_NONBLOCK);
    return true;
  }

  int fd() const { return fd_; }
  bool want_write() const { return off_ < out_.size(); }

  void Queue(const std::string& frame) {
    if (off_ == out_.size()) {
      out_.clear();
      off_ = 0;
    }
    out_ += frame;
  }

  bool Flush(std::string* err) {
    while (off_ < out_.size()) {
      ssize_t n = send(fd_, out_.data() + off_, out_.size() - off_,
                       MSG_NOSIGNAL);
      if (n > 0) {
        off_ += static_cast<size_t>(n);
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;
      } else {
        return Fail("send", err);
      }
    }
    return true;
  }

  /// Reads everything the socket has; false on EOF or error.
  bool Fill(std::string* err) {
    char buf[64 * 1024];
    while (true) {
      ssize_t n = recv(fd_, buf, sizeof buf, 0);
      if (n > 0) {
        in_.append(buf, static_cast<size_t>(n));
      } else if (n < 0 && errno == EINTR) {
        continue;
      } else if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
        return true;
      } else {
        *err = n == 0 ? "connection closed by server" : std::strerror(errno);
        return false;
      }
    }
  }

  /// 1: one response decoded into `env`; 0: need more bytes; -1: error.
  int Next(server::ResponseEnvelope* env, std::string* err) {
    storage::DocValue payload;
    size_t used = 0;
    std::string_view view(in_);
    view.remove_prefix(in_off_);
    Status st = server::TryDecodeFrame(view, server::kDefaultMaxFrameSize,
                                       &payload, &used);
    if (!st.ok()) {
      *err = st.ToString();
      return -1;
    }
    if (used == 0) {
      in_.erase(0, in_off_);
      in_off_ = 0;
      return 0;
    }
    in_off_ += used;
    auto decoded = server::DecodeResponseEnvelope(payload);
    if (!decoded.ok()) {
      *err = decoded.status().ToString();
      return -1;
    }
    *env = std::move(*decoded);
    return 1;
  }

  uint64_t next_id = 1;
  std::map<uint64_t, InFlight> inflight;

 private:
  bool Fail(const char* what, std::string* err) {
    *err = std::string(what) + ": " + std::strerror(errno);
    return false;
  }

  int fd_ = -1;
  std::string out_;
  size_t off_ = 0;
  std::string in_;
  size_t in_off_ = 0;
};

}  // namespace

PhaseResult RunPhase(uint16_t port, const PhaseSpec& spec, Ledger* ledger,
                     Tracer* tracer) {
  PhaseResult r;
  const bool has_pool = spec.reads != nullptr && spec.sequence != nullptr &&
                        !spec.sequence->empty();
  const int nread = has_pool ? spec.conns : 0;
  const size_t nbatches = spec.ingest != nullptr ? spec.ingest->size() : 0;
  const bool has_ingest = nbatches > 0;

  // Connections: reads, then ingest.
  std::vector<std::unique_ptr<Conn>> conns;
  for (int i = 0; i < nread + (has_ingest ? 1 : 0); ++i) {
    auto c = std::make_unique<Conn>();
    std::string err;
    if (!c->Open(port, &err)) {
      ledger->Attempt();
      ledger->Failed("connect: " + err);
      return r;
    }
    conns.push_back(std::move(c));
  }
  Conn* ingest_conn = has_ingest ? conns.back().get() : nullptr;

  const int64_t t0 = NowNs();
  const int64_t span_ns = static_cast<int64_t>(spec.seconds * 1e9);
  const double interval_ns = spec.rate > 0 ? 1e9 / spec.rate : 0;
  size_t next_read = 0, next_batch = 0, acked_batches = 0;
  int64_t ingest_done = t0;
  bool issuing = nread > 0;
  /// Open loop: due requests (schedule index, due time) not yet sent.
  std::deque<std::pair<size_t, int64_t>> waiting;
  uint64_t trace_seq = 0;
  std::string err;
  bool broken = false;

  auto send = [&](Conn* c, int op, bool ingest, int64_t due) {
    const WireOp& w = ingest ? (*spec.ingest)[static_cast<size_t>(op)]
                             : (*spec.reads)[static_cast<size_t>(op)];
    const uint64_t trace = ++trace_seq;
    const int64_t start = NowNs();
    const int root = tracer->Begin(trace, "server.rtt");
    server::RequestEnvelope env;
    env.id = c->next_id++;
    env.request = w.req;
    std::string frame;
    Status st;
    {
      ScopedSpan enc(tracer, trace, "frame.req_encode", root);
      st = server::EncodeFrame(server::EncodeRequestEnvelope(env),
                               server::kDefaultMaxFrameSize, &frame);
    }
    ledger->Attempt();
    if (!st.ok()) {
      ledger->Failed("encode: " + st.ToString());
      tracer->End(root);
      return;
    }
    c->Queue(frame);
    c->inflight[env.id] = {op, ingest, due, start, trace, root};
    if (!c->Flush(&err)) broken = true;
    if (!ingest && spec.open_loop) {
      r.late_ms.push_back(static_cast<double>(start - due) / 1e6);
    }
  };

  auto on_response = [&](Conn* c, server::ResponseEnvelope& env,
                         int64_t decode_start) {
    const int64_t done = NowNs();
    auto it = c->inflight.find(env.id);
    if (it == c->inflight.end()) {
      ledger->Mismatch("response for unknown request id");
      return;
    }
    const InFlight f = it->second;
    c->inflight.erase(it);
    tracer->Add(f.trace, "frame.resp_decode", decode_start, done, f.root);
    tracer->End(f.root);
    if (f.ingest) {
      ++acked_batches;
      ingest_done = done;
      const WireOp& w = (*spec.ingest)[static_cast<size_t>(f.op)];
      if (!env.status.ok()) {
        ledger->Failed("ingest: " + env.status.ToString());
        return;
      }
      const auto want = static_cast<int64_t>(w.req.ingest_records.size());
      if (env.response.ingested != want) {
        ledger->Mismatch("ingest acknowledged " +
                         std::to_string(env.response.ingested) + " of " +
                         std::to_string(want) + " records");
      }
      r.ingest_records += env.response.ingested;
      r.acked.push_back(f.op);
      r.ack_ms.push_back(static_cast<double>(done - f.send_ns) / 1e6);
      return;
    }
    const WireOp& w = (*spec.reads)[static_cast<size_t>(f.op)];
    if (!env.status.ok()) {
      ledger->Failed(std::string(query::QueryOpName(w.req.op)) + ": " +
                     env.status.ToString());
      return;
    }
    if (AnswerBytes(std::move(env.response)) != w.expected) {
      ledger->Mismatch(std::string("wire answer differs from in-process "
                                   "answer for a ") +
                       query::QueryOpName(w.req.op) + " request");
    }
    ++r.reads_done;
    const int64_t from = spec.open_loop ? f.due_ns : f.send_ns;
    r.read_ms.push_back(static_cast<double>(done - from) / 1e6);
    r.read_done_s.push_back(static_cast<double>(done - t0) / 1e9);
    if (spec.open_loop) {
      r.read_due_ms.push_back(static_cast<double>(f.due_ns - t0) / 1e6);
    }
  };

  std::vector<pollfd> fds(conns.size());
  while (!broken) {
    int64_t now = NowNs();
    int64_t next_due = 0;
    if (spec.open_loop) {
      // Requests fall due on the schedule and leave on the first idle
      // connection; when all are busy they wait, and their latency
      // still counts from the due time. One request per connection at
      // a time: the server does not set TCP_NODELAY, so a response
      // queued behind an unacknowledged one would wait for the
      // client's next request (Nagle's algorithm against the delayed
      // ACK) and latency would read as the send interval.
      while (issuing) {
        const int64_t due =
            t0 + static_cast<int64_t>(static_cast<double>(next_read) *
                                      interval_ns);
        const bool over = has_ingest ? acked_batches == nbatches
                                     : due - t0 >= span_ns;
        if (over) {
          issuing = false;
        } else if (due > now) {
          next_due = due;
          break;
        } else {
          waiting.emplace_back(next_read++, due);
        }
      }
      for (int i = 0; i < nread && !waiting.empty(); ++i) {
        Conn* c = conns[static_cast<size_t>(i)].get();
        if (!c->inflight.empty()) continue;
        const auto [j, due] = waiting.front();
        waiting.pop_front();
        send(c, (*spec.sequence)[j % spec.sequence->size()], false, due);
        if (j == 0 && spec.pause_after_first_send_ms > 0) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(spec.pause_after_first_send_ms));
        }
      }
    } else if (issuing) {
      for (int i = 0; i < nread && issuing; ++i) {
        if (!conns[static_cast<size_t>(i)]->inflight.empty()) continue;
        const bool past = now - t0 >= span_ns;
        if (past && (spec.pass_len == 0 || next_read % spec.pass_len == 0)) {
          issuing = false;
          break;
        }
        send(conns[static_cast<size_t>(i)].get(),
             (*spec.sequence)[next_read % spec.sequence->size()], false, now);
        ++next_read;
      }
    }
    if (has_ingest && ingest_conn->inflight.empty() && next_batch < nbatches) {
      send(ingest_conn, static_cast<int>(next_batch), true, NowNs());
      ++next_batch;
    }

    bool outstanding = !waiting.empty();
    for (auto& c : conns) outstanding |= !c->inflight.empty();
    if (!issuing && acked_batches == nbatches && !outstanding) break;
    if (NowNs() - t0 > kPhaseCapNs) {
      ledger->Failed("phase did not finish within its time cap");
      break;
    }

    for (size_t i = 0; i < conns.size(); ++i) {
      fds[i].fd = conns[i]->fd();
      fds[i].events = static_cast<short>(
          POLLIN | (conns[i]->want_write() ? POLLOUT : 0));
      fds[i].revents = 0;
    }
    // While the open loop has sends due, busy-poll: sleeping until the
    // next due time would add the generator's own wake-up latency (tens
    // of microseconds to milliseconds on a virtual CPU) to every answer
    // that arrives meanwhile.
    const int64_t wait_ns = next_due > 0 ? 0 : 50'000'000;
    timespec ts{static_cast<time_t>(wait_ns / 1'000'000'000),
                static_cast<long>(wait_ns % 1'000'000'000)};
    int n = ppoll(fds.data(), fds.size(), &ts, nullptr);
    if (n < 0 && errno != EINTR) {
      err = std::string("poll: ") + std::strerror(errno);
      broken = true;
      break;
    }
    for (size_t i = 0; i < conns.size() && n > 0 && !broken; ++i) {
      Conn* c = conns[i].get();
      if (fds[i].revents & POLLOUT) {
        if (!c->Flush(&err)) broken = true;
      }
      if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
        if (!c->Fill(&err)) broken = true;
        while (!broken) {
          server::ResponseEnvelope env;
          const int64_t decode_start = NowNs();
          const int got = c->Next(&env, &err);
          if (got < 0) broken = true;
          if (got <= 0) break;
          on_response(c, env, decode_start);
        }
      }
    }
  }
  if (broken) ledger->Failed("connection: " + err);
  for (auto& c : conns) {
    for (auto& [id, f] : c->inflight) {
      (void)id;
      tracer->End(f.root);
      ledger->Failed("request left unanswered");
    }
  }
  r.ingest_s = static_cast<double>(ingest_done - t0) / 1e9;
  return r;
}

}  // namespace dtb
