#include "checks.h"

#include <algorithm>

namespace perfbench {

namespace {

constexpr uint64_t kFnvBasis = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

void Mix(uint64_t* h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    *h ^= (v >> (8 * i)) & 0xff;
    *h *= kFnvPrime;
  }
}

bool IsClientEntry(const EntryKey& e) { return e.client >= kFirstClientId; }

}  // namespace

uint64_t PrefixHash(const std::vector<EntryKey>& entries, size_t n) {
  uint64_t h = kFnvBasis;
  for (size_t i = 0; i < n && i < entries.size(); ++i) {
    const EntryKey& e = entries[i];
    Mix(&h, static_cast<uint64_t>(e.index));
    Mix(&h, static_cast<uint64_t>(e.term));
    Mix(&h, static_cast<uint64_t>(static_cast<uint32_t>(e.client)));
    Mix(&h, e.request);
  }
  return h;
}

std::vector<uint64_t> RequestIds(const std::vector<EntryKey>& committed) {
  std::vector<uint64_t> ids;
  ids.reserve(committed.size());
  for (const EntryKey& e : committed) {
    if (IsClientEntry(e)) ids.push_back(e.request);
  }
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  return ids;
}

std::string CheckDurability(const std::vector<uint64_t>& acked,
                            const std::vector<EntryKey>& leader_committed) {
  const std::vector<uint64_t> logged = RequestIds(leader_committed);
  uint64_t missing = 0;
  uint64_t first_missing = 0;
  for (const uint64_t id : acked) {
    if (!std::binary_search(logged.begin(), logged.end(), id)) {
      if (missing++ == 0) first_missing = id;
    }
  }
  if (missing == 0) return "";
  return "durability: " + std::to_string(missing) +
         " strongly acked requests missing from the new leader's committed "
         "log (first: client " +
         std::to_string(first_missing >> 32) + " seq " +
         std::to_string(first_missing & 0xffffffffULL) + ")";
}

std::string CheckAgreement(const std::vector<ReplicaView>& replicas) {
  for (size_t a = 0; a < replicas.size(); ++a) {
    for (size_t b = a + 1; b < replicas.size(); ++b) {
      const size_t n = std::min(replicas[a].committed.size(),
                                replicas[b].committed.size());
      if (PrefixHash(replicas[a].committed, n) !=
          PrefixHash(replicas[b].committed, n)) {
        return "agreement: replicas " + std::to_string(replicas[a].replica) +
               " and " + std::to_string(replicas[b].replica) +
               " differ within their first " + std::to_string(n) +
               " committed entries";
      }
    }
  }
  return "";
}

std::string CheckSnapshots(const std::vector<ReplicaView>& replicas) {
  for (size_t r = 1; r < replicas.size(); ++r) {
    const ReplicaView& a = replicas[0];
    const ReplicaView& b = replicas[r];
    if (a.applied_index != b.applied_index) {
      return "snapshots: replica " + std::to_string(a.replica) +
             " applied up to " + std::to_string(a.applied_index) +
             ", replica " + std::to_string(b.replica) + " up to " +
             std::to_string(b.applied_index);
    }
    if (a.snapshot != b.snapshot) {
      return "snapshots: replicas " + std::to_string(a.replica) + " and " +
             std::to_string(b.replica) + " at applied index " +
             std::to_string(a.applied_index) + " hold different snapshots";
    }
  }
  return "";
}

std::string CheckAccounting(const std::vector<uint64_t>& acked,
                            const std::vector<EntryKey>& committed,
                            uint64_t completed, uint64_t issued) {
  if (completed > issued) {
    return "accounting: " + std::to_string(completed) +
           " requests completed but only " + std::to_string(issued) +
           " issued";
  }
  std::vector<uint64_t> distinct = acked;
  std::sort(distinct.begin(), distinct.end());
  distinct.erase(std::unique(distinct.begin(), distinct.end()),
                 distinct.end());
  const std::vector<uint64_t> logged = RequestIds(committed);
  if (!std::includes(logged.begin(), logged.end(), distinct.begin(),
                     distinct.end())) {
    return "accounting: strongly acked requests are not a subset of the "
           "committed log's requests";
  }
  return "";
}

std::string CheckMethod(bool nbraft, uint64_t weak_accepts,
                        const LatencySummary& ack,
                        const LatencySummary& commit) {
  if (nbraft) {
    if (ack.p50 > commit.p50) {
      return "method: NB-Raft ack p50 " + std::to_string(ack.p50) +
             " exceeds commit p50 " + std::to_string(commit.p50);
    }
    return "";
  }
  if (weak_accepts != 0) {
    return "method: " + std::to_string(weak_accepts) +
           " weak accepts under Raft";
  }
  if (ack.count != commit.count || ack.sum != commit.sum ||
      ack.p50 != commit.p50 || ack.p99 != commit.p99) {
    return "method: Raft ack latency differs from commit latency";
  }
  return "";
}

}  // namespace perfbench
