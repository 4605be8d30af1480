#ifndef VIEWMAT_SERVER_ORACLE_H_
#define VIEWMAT_SERVER_ORACLE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "server/view_server.h"

namespace viewmat::server {

/// Serializability oracle.
///
/// A multi-client schedule is accepted iff its final base+view state equals
/// the state produced by *some* serial order of its committed transactions.
/// The server makes that order explicit (commit LSN = schedule sequence),
/// so the oracle exhibits the witness directly: it replays exactly the
/// committed ops, in sequence order, through a fresh StrategyDriver
/// (sim::ReplayDigest), and demands state-digest equality. The replay also
/// passes the golden triple (sim::CheckGolden), so a digest collision
/// cannot mask corruption. What this proves beyond the plain sequence is
/// the server's crash handling: after a scripted crash, group commit's
/// lost tail and the reconciliation of acknowledged commits must leave
/// exactly the surviving prefix.

/// Replays the committed updates of a finished run serially and returns
/// the digest of the converged replay state. Errors if any replayed
/// transaction fails or the replay state fails the golden triple.
StatusOr<uint64_t> SerialReplayDigest(
    const ViewServer::Options& options, const Schedule& schedule,
    const std::vector<ViewServer::OpResult>& ops);

/// Runs the full check: executes the schedule once, and requires zero
/// stale queries and serial-replay equality. On success appends a one-line
/// summary to `detail` (may be null).
Status CheckSerializability(const ViewServer::Options& options,
                            std::string* detail);

}  // namespace viewmat::server

#endif  // VIEWMAT_SERVER_ORACLE_H_
