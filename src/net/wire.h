#ifndef VIEWMAT_NET_WIRE_H_
#define VIEWMAT_NET_WIRE_H_

#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.h"

namespace viewmat::net {

/// A network address. The chaos harness's convention: 0 = the session
/// server, 1 = the refresh daemon, 2.. = clients. Session ids equal the
/// client's node id, which keeps sessions resurrectable after a server
/// crash without a handshake replay.
using NodeId = uint32_t;

/// Every message on the wire. Requests flow client → server, replies
/// server → client; the refresh ping/ack pair keeps the server's view of
/// the refresh path's reachability honest under partitions.
enum class MsgType : uint8_t {
  kOpenSession = 1,  ///< client → server: create/confirm a session
  kOpenAck = 2,      ///< server → client: session ready
  kCommit = 3,       ///< client → server: apply an update transaction
  kQuery = 4,        ///< client → server: answer a view range query
  kReply = 5,        ///< server → client: outcome of kCommit/kQuery
  kRefreshPing = 6,  ///< server → refresher: is the refresh path reachable?
  kRefreshAck = 7,   ///< refresher → server: yes — freshen the view
};

/// Outcome field of a kReply / kOpenAck.
enum class WireStatus : uint8_t {
  kOk = 1,
  /// Admission controller shed the request (inflight queue full, or the
  /// session table is at capacity for kOpenSession). The client backs off
  /// and retries — nothing was applied.
  kOverloaded = 2,
  /// The request provably did not apply (e.g. the strategy refused the
  /// transaction, or a resolved-ambiguous commit turned out lost). Safe to
  /// retry with the same sequence number.
  kRejected = 3,
};

const char* MsgTypeName(MsgType t);
const char* WireStatusName(WireStatus s);

/// One wire message. The transport carries the *encoded* form (Encode /
/// Decode below, a little-endian tagged layout), so endpoints exchange
/// bytes, not object graphs — what makes the in-process transport an
/// honest stand-in for a socket.
///
/// Exactly-once bookkeeping: every kCommit/kQuery carries
/// (session_id, seq_no) — the client's session and its monotonically
/// increasing per-session operation number. A client never advances seq_no
/// until the previous one is acknowledged, so the server's dedup state per
/// session is exactly one entry: the last applied seq_no plus its cached
/// reply.
struct Message {
  MsgType type = MsgType::kCommit;
  uint64_t session_id = 0;
  uint64_t seq_no = 0;
  /// Retry attempt (1 = first send). Observability only; the server's
  /// semantics depend solely on (session_id, seq_no).
  uint32_t attempt = 1;

  /// kCommit: the update as (base key, payload delta) pairs. Deltas are
  /// RELATIVE — new_v = current_v + delta — so a duplicated application is
  /// visible in the final state instead of silently idempotent, which is
  /// what gives the chaos oracle teeth.
  std::vector<std::pair<int64_t, double>> victims;

  /// kQuery: the half-open key range is [lo, hi] inclusive, mirroring the
  /// view query API.
  int64_t lo = 0;
  int64_t hi = 0;

  /// kReply / kOpenAck.
  WireStatus wstatus = WireStatus::kOk;
  /// kReply to a committed kCommit: the transaction id the driver issued.
  uint64_t txn_id = 0;
  /// kReply to a kQuery: the order-independent digest of the answered
  /// multiset (sim::MultisetDigest, see DigestMultiset), and the length of
  /// the server's applied-commit journal when the query executed (the
  /// oracle replays that prefix to recompute the expected answer).
  uint64_t answer_digest = 0;
  uint64_t journal_len = 0;
  /// kReply to a kQuery: answered while the refresh path was partitioned
  /// away — served through the strategy's query-modification fallback
  /// rather than a freshened materialization.
  bool degraded = false;

  std::vector<uint8_t> Encode() const;
  static StatusOr<Message> Decode(const uint8_t* data, size_t len);
};

}  // namespace viewmat::net

#endif  // VIEWMAT_NET_WIRE_H_
