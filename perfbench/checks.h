#ifndef PERFBENCH_CHECKS_H_
#define PERFBENCH_CHECKS_H_

// End-of-cluster correctness checks of the ingest benchmark. They work on
// plain views the driver copies out of the cluster (log entries, acked
// request ids, client counters), so they share no code with the program's
// own invariant checks and can be fed doctored views by checks_test.cc.
// Each check returns an empty string when it holds, else what broke.

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// One log entry as the checks see it.
struct EntryKey {
  int64_t index = 0;
  int64_t term = 0;
  int32_t client = 0;
  uint64_t request = 0;
};

/// Client ids in the log start here; smaller ids are leader no-ops and
/// configuration entries, which no client requested.
inline constexpr int32_t kFirstClientId = 10000;

/// One replica after the drain: its committed prefix (indices 1..commit,
/// in order), its applied index, and its state machine's snapshot bytes.
struct ReplicaView {
  int replica = 0;
  std::vector<EntryKey> committed;
  int64_t applied_index = 0;
  std::string snapshot;
};

/// FNV-1a over (index, term, client, request) of the first `n` entries.
uint64_t PrefixHash(const std::vector<EntryKey>& entries, size_t n);

/// Sorted, distinct client request ids of a committed prefix.
std::vector<uint64_t> RequestIds(const std::vector<EntryKey>& committed);

/// Durability: every request id strongly acknowledged before a leader
/// crash is in the new leader's committed log. `acked` need not be sorted.
std::string CheckDurability(const std::vector<uint64_t>& acked,
                            const std::vector<EntryKey>& leader_committed);

/// Agreement: every pair of replicas has equal prefix hashes up to the
/// shorter committed prefix.
std::string CheckAgreement(const std::vector<ReplicaView>& replicas);

/// Snapshots: every replica has reached the same applied index and holds
/// byte-identical snapshot bytes.
std::string CheckSnapshots(const std::vector<ReplicaView>& replicas);

/// Accounting: the distinct strongly acknowledged ids are a subset of the
/// distinct requests in the committed log, and completed <= issued.
std::string CheckAccounting(const std::vector<uint64_t>& acked,
                            const std::vector<EntryKey>& committed,
                            uint64_t completed, uint64_t issued);

/// Client-visible latency summary of one run (pooled histograms).
struct LatencySummary {
  uint64_t count = 0;
  double sum = 0;
  double p50 = 0;
  double p99 = 0;
};

/// Method properties: under Raft there are no weak accepts and the ack
/// latency distribution equals the commit latency distribution; under
/// NB-Raft the ack median is at most the commit median.
std::string CheckMethod(bool nbraft, uint64_t weak_accepts,
                        const LatencySummary& ack,
                        const LatencySummary& commit);

}  // namespace perfbench

#endif  // PERFBENCH_CHECKS_H_
