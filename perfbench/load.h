// Loopback load generator for the serving benchmark. One thread drives
// every connection with poll(): a closed loop keeps a fixed number of
// requests outstanding per connection, an open loop sends on a seeded
// Poisson schedule regardless of answers. Every request is logged with the
// time it was due, sent and answered, so lost, duplicated and unknown
// answers are counted instead of dropped, and open-loop latency is taken
// from the due time (a stall delays every later request too).

#ifndef DOT_PERFBENCH_LOAD_H_
#define DOT_PERFBENCH_LOAD_H_

#include <cstdint>
#include <functional>
#include <vector>

#include "geo/trajectory.h"
#include "serve/protocol.h"

namespace dot::perfbench {

/// Monotonic clock in milliseconds.
double NowMs();

/// \brief One query of a workload stream: a simulated trip.
struct Query {
  int64_t trip = 0;  ///< index into the workload's trip list
  OdtInput odt;
};

/// Produces the next query of a stream (called on the generator thread).
using QuerySource = std::function<Query()>;

/// \brief One attempted request and what came back.
struct Outcome {
  int64_t trip = 0;
  double due_ms = 0;   ///< when the schedule (or a freed slot) wanted it sent
  double sent_ms = 0;
  double recv_ms = -1;  ///< -1: never answered (lost)
  serve::QueryResponse response;
  bool answered() const { return recv_ms >= 0; }
  /// Client latency from the due time.
  double latency_ms() const { return recv_ms - due_ms; }
};

/// \brief The log of one load phase.
struct PhaseLog {
  double start_ms = 0;
  double end_ms = 0;  ///< end of the sending window
  std::vector<Outcome> outcomes;  ///< one per attempted request, by id
  int64_t duplicates = 0;  ///< answers for an id already answered
  int64_t unknown = 0;     ///< answers for an id never sent
  int64_t transport_errors = 0;
};

/// \brief Load shape of one phase.
struct LoadSpec {
  int connections = 4;
  /// Closed loop: requests kept outstanding per connection.
  int outstanding_per_conn = 4;
  /// Open loop when > 0: Poisson arrivals at this many requests per second.
  double rate_qps = 0;
  uint64_t schedule_seed = 1;  ///< open-loop inter-arrival stream
  double seconds = 1;          ///< sending window
  /// Closed loop only: stop after this many requests (0 = the window only).
  int64_t max_requests = 0;
  double deadline_ms = 2000;   ///< client budget sent with every request
  uint8_t flags = 0;           ///< protocol flags (0 = plain V1 frames)
  double drain_timeout_ms = 30000;  ///< wait for answers after the window
};

/// Runs one phase against 127.0.0.1:`port`. Request ids start at
/// `first_id` and are unique across the phase.
PhaseLog RunPhase(int port, const LoadSpec& spec, const QuerySource& next,
                  uint64_t first_id);

}  // namespace dot::perfbench

#endif  // DOT_PERFBENCH_LOAD_H_
