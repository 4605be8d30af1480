#ifndef VIEWMAT_NET_NETWORK_H_
#define VIEWMAT_NET_NETWORK_H_

#include <cstdint>
#include <functional>
#include <map>
#include <queue>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "net/wire.h"
#include "obs/metrics.h"
#include "obs/trace.h"

namespace viewmat::net {

/// A message sink. Endpoints register with the Network under a NodeId and
/// receive decoded messages in deterministic delivery order.
class Endpoint {
 public:
  virtual ~Endpoint() = default;
  virtual void OnMessage(NodeId from, const Message& msg) = 0;
};

/// The transport seam the session layer sends through. Network implements
/// it directly; FaultyNetwork decorates it with seeded faults — mirroring
/// the FaultyDisk pattern, so the layers above exercise production error
/// paths, never test-only ones.
class NetworkInterface {
 public:
  virtual ~NetworkInterface() = default;
  /// Queues `msg` for delivery to `dst` after the channel latency plus
  /// `extra_delay_ms` (fault decorators use the extra delay for delay and
  /// reorder injection). Returns InvalidArgument for an unknown
  /// destination; a returned OK means "handed to the wire", NOT delivered.
  virtual Status Send(NodeId src, NodeId dst, const Message& msg,
                      double extra_delay_ms) = 0;
  Status Send(NodeId src, NodeId dst, const Message& msg) {
    return Send(src, dst, msg, 0.0);
  }
};

/// A deterministic in-process message transport on the model-milliseconds
/// virtual clock: one discrete-event loop owning virtual time, per-channel
/// seeded delivery latency, and generic timers. Everything the chaos
/// simulation does — message deliveries, client retry timeouts, server
/// restarts, refresh ticks — is an event in this single queue, ordered by
/// (time, insertion sequence), so a whole run is a pure function of its
/// seeds, which is how chaos reports stay byte-identical from run to run.
///
/// Channels: each ordered (src, dst) pair lazily gets its own seeded
/// latency stream (base latency + uniform jitter), so the delivery
/// schedule of one link never depends on traffic elsewhere.
class Network : public NetworkInterface {
 public:
  struct Options {
    uint64_t seed = 1;
    /// Per-message link latency: base + Uniform[0, jitter).
    double base_latency_ms = 1.0;
    double jitter_ms = 0.5;
    /// Optional instrumentation (not owned; may be null). The tracer is
    /// pointed at this network's virtual clock and receives a net.send
    /// span per message handed to the wire.
    obs::MetricsRegistry* metrics = nullptr;
    obs::Tracer* tracer = nullptr;
  };

  explicit Network(Options options);

  Network(const Network&) = delete;
  Network& operator=(const Network&) = delete;

  /// Registers (or replaces) the endpoint behind `id`.
  void Register(NodeId id, Endpoint* endpoint);

  // --- NetworkInterface ----------------------------------------------------
  using NetworkInterface::Send;  // keep the 3-arg convenience visible
  Status Send(NodeId src, NodeId dst, const Message& msg,
              double extra_delay_ms) override;

  // --- Timers --------------------------------------------------------------
  /// Runs `fn` once the virtual clock reaches now + delay_ms. Handlers that
  /// may be superseded (client retry timers) validate their own state when
  /// they fire instead of being cancelled.
  void Post(double delay_ms, std::function<void()> fn);

  // --- Event loop ----------------------------------------------------------
  /// Dispatches events in (time, sequence) order until the queue drains or
  /// `max_events` have run. Returns true when the queue drained — the
  /// liveness verdict the chaos oracle checks (a protocol that retries
  /// forever never drains).
  bool RunUntilIdle(size_t max_events);

  double now_ms() const { return now_ms_; }
  /// The transport's virtual clock (for tracers and wait computations).
  const obs::VirtualClock* clock() const { return &clock_; }

  obs::Tracer* tracer() { return options_.tracer; }
  obs::MetricsRegistry* metrics() { return options_.metrics; }

  uint64_t sent() const { return sent_; }
  uint64_t delivered() const { return delivered_; }
  uint64_t events_run() const { return events_run_; }

 private:
  class Clock : public obs::VirtualClock {
   public:
    double NowMs() const override { return ms_; }
    double ms_ = 0.0;
  };

  struct Event {
    double at_ms = 0.0;
    uint64_t seq = 0;  ///< insertion order: the deterministic tie-break
    std::function<void()> fn;
  };
  struct EventLater {
    bool operator()(const Event& a, const Event& b) const {
      if (a.at_ms != b.at_ms) return a.at_ms > b.at_ms;
      return a.seq > b.seq;
    }
  };

  /// The (src, dst) channel's latency stream, created on first use.
  Random* ChannelRng(NodeId src, NodeId dst);

  Options options_;
  Clock clock_;
  double now_ms_ = 0.0;
  uint64_t next_event_seq_ = 0;
  std::priority_queue<Event, std::vector<Event>, EventLater> events_;
  std::map<NodeId, Endpoint*> endpoints_;
  std::map<std::pair<NodeId, NodeId>, Random> channel_rng_;
  uint64_t sent_ = 0;
  uint64_t delivered_ = 0;
  uint64_t events_run_ = 0;
};

}  // namespace viewmat::net

#endif  // VIEWMAT_NET_NETWORK_H_
