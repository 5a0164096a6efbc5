/// \file wire.h
/// \brief The load generator: one thread multiplexing up to four
/// loopback connections to a `DtServer`, in a closed loop (each
/// connection waits for its answer before sending again) or an open
/// loop (requests fall due on a fixed schedule whatever the server
/// does, and are timed from that due time), optionally beside a
/// closed-loop ingest stream. Every answer is checked against the
/// in-process answer.

#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "harness.h"
#include "query/request.h"

namespace dtb {

/// \brief Canonical bytes of a response's answer: everything the
/// server returns except the execution counters (`stats`), which
/// carry timings. A wire answer is correct when these bytes equal the
/// in-process `DataTamer::Execute` answer's.
std::string AnswerBytes(dt::query::QueryResponse resp);

/// One request the generator can send.
struct WireOp {
  dt::query::QueryRequest req;
  /// `AnswerBytes` of the expected response (reads only).
  std::string expected;
  /// Request class, indexing the caller's class table.
  int cls = 0;
};

struct PhaseSpec {
  bool open_loop = false;
  /// Read connections.
  int conns = 4;
  /// Closed loop: stop issuing after this long, at the next multiple
  /// of `pass_len` reads. Open loop without ingest: schedule length.
  double seconds = 1;
  /// Closed loop: reads per full pass over the pool (0 = stop at the
  /// deadline).
  size_t pass_len = 0;
  /// Open loop: requests per second, all connections together.
  double rate = 0;
  const std::vector<WireOp>* reads = nullptr;
  /// Send order, indexes into `reads`; used cyclically.
  const std::vector<int>* sequence = nullptr;
  /// Ingest batches, each sent once its predecessor is acknowledged.
  /// With a stream the open loop runs until the last acknowledgement.
  const std::vector<WireOp>* ingest = nullptr;
  /// Self-test hook: the generator sleeps this long after its first
  /// send, so the requests due meanwhile leave late.
  int pause_after_first_send_ms = 0;
};

struct PhaseResult {
  int64_t reads_done = 0;
  /// Read latency: from the due time (open loop) or the send (closed).
  std::vector<double> read_ms;
  /// Due time of each open-loop read, ms from the phase start, in the
  /// order of `read_ms`.
  std::vector<double> read_due_ms;
  /// Completion time of each read, seconds from the phase start.
  std::vector<double> read_done_s;
  /// Open loop: how late each request left (send minus due), ms.
  std::vector<double> late_ms;
  int64_t ingest_records = 0;
  /// Indexes of the acknowledged ingest batches.
  std::vector<int> acked;
  std::vector<double> ack_ms;
  double ingest_s = 0;
};

/// Runs one phase against `127.0.0.1:port`. Failures and wrong answers
/// go to `ledger`; with tracing on, each request gets a `server.rtt`
/// root span with its client-side frame codec spans as children.
PhaseResult RunPhase(uint16_t port, const PhaseSpec& spec, Ledger* ledger,
                     Tracer* tracer);

}  // namespace dtb
